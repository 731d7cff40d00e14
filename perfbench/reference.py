"""Independent references for every benchmark job.

Nothing here imports softphoton.  The epsilon = 0 exponents use the closed
Weinberg / Bloch-Nordsieck soft factors (S. Weinberg, Phys. Rev. 140, B516
(1965)): every angular integral of the two models has a closed form, and
the radial moments R_p = Int rho~^2 k^p dk of the three form-factor kinds are
elementary or exponential integrals.  Grid emission factors are the exact
weighted sums re-derived from the model currents; continuum (bump) emission
factors are compared with values recorded from the program itself at the
commit that introduced this benchmark (see bump_reference.json).

``check_job`` returns None for a job whose exit code and output match the
reference, else a short failure reason.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import scipy.linalg
from scipy.special import erf, exp1

FOUR_PI = 4.0 * math.pi
NORM = (2.0 * math.pi) ** 1.5

# Relative agreement demanded of every closed-form comparison.  The program
# certifies its quadratures to 5e-13 relative and advertises 1e-8 agreement
# between independently computed exponents.
REL_TOL = 1e-9
# Absolute accuracy of an angular integral (the program's abs_tol is 1e-14).
ANGULAR_ABS = 1e-12
# Oracle value against the grid-discretized closed form, as in the tests.
ORACLE_TOL = 1e-6

DEFAULT_TOLERANCES = {"ccr": 1e-10, "bch": 1e-9, "weyl": 1e-8,
                      "t_isometry": 1e-12, "displacement": 1e-8}


# ---------------------------------------------------------------------------
# form factors and radial moments


def rho(ff: dict, k):
    """Form factor rho~(|k|) as the CLI config describes it."""
    k = np.asarray(k, dtype=float)
    p = ff["params"]
    if ff["kind"] == "sharp":
        return np.where((k >= p["lam"]) & (k <= p["Lam"]), 1.0, 0.0)
    if ff["kind"] == "gaussian":
        return np.exp(-0.5 * (k / p["sigma"]) ** 2)
    return np.interp(k, p["k"], p["values"], left=0.0, right=0.0)


def radial_moment(ff: dict, lam: float, Lam: float, power: int) -> float:
    """R_power = Int_lam^Lam rho~(k)^2 k^power dk, power in {-1, 0}."""
    p = ff["params"]
    if ff["kind"] == "sharp":
        lo, hi = max(lam, p["lam"]), min(Lam, p["Lam"])
        if hi <= lo:
            return 0.0
        return math.log(hi / lo) if power == -1 else hi - lo
    if ff["kind"] == "gaussian":
        s = p["sigma"]
        if power == -1:
            return 0.5 * (exp1((lam / s) ** 2) - exp1((Lam / s) ** 2))
        return 0.5 * s * math.sqrt(math.pi) * (erf(Lam / s) - erf(lam / s))
    # rho is linear on each table segment: A at lo, B at hi
    ks, vs = p["k"], p["values"]
    total = 0.0
    for k0, k1, v0, v1 in zip(ks[:-1], ks[1:], vs[:-1], vs[1:]):
        lo, hi = max(lam, k0), min(Lam, k1)
        if hi <= lo:
            continue
        slope = (v1 - v0) / (k1 - k0)
        A, B = v0 + slope * (lo - k0), v0 + slope * (hi - k0)
        if power == 0:
            total += (hi - lo) * (A * A + A * B + B * B) / 3.0
        else:
            x = (hi - lo) / lo
            g0, g1, g2 = log_moments(x)
            total += A * A * g0 + 2.0 * A * (B - A) * g1 + (B - A) ** 2 * g2
    return total


def log_moments(x: float) -> tuple:
    """Int_0^1 (t^j / (1 + x t)) x dt for j = 0, 1, 2.

    These are the 1/k moments of a linear profile on [lo, lo (1 + x)]:
    ln(1+x), (x - ln(1+x))/x and (x^2/2 - x + ln(1+x))/x^2.  Short
    segments use the series, which keeps every digit.
    """
    L = math.log1p(x)
    if x > 1e-2:
        return L, (x - L) / x, (0.5 * x * x - x + L) / (x * x)
    g1 = sum((-1) ** n * x ** (n + 1) / (n + 2) for n in range(8))
    g2 = sum((-1) ** n * x ** (n + 1) / (n + 3) for n in range(8))
    return L, g1, g2


# ---------------------------------------------------------------------------
# closed-form angular integrals


def cross_integral(a, b) -> float:
    """Int dOmega 1 / ((1 - a.khat)(1 - b.khat)) = (2 pi / s) ln((x+s)/(x-s)).

    x = u.w = 1 - a.b and s^2 = x^2 - u^2 w^2 = |a-b|^2 - |a x b|^2.  The log
    is written as ln((x+s)^2 / (u^2 w^2)) with log1p of each factor, so both
    near-luminal and slow legs keep their digits (the BN Coulomb cross term
    is derived from x I - 4 pi, which is O(beta^2) for slow legs); small s/x
    uses the series of atanh(z)/z.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = float(a @ b)
    x = 1.0 - ab
    s2 = float((a - b) @ (a - b) - np.cross(a, b) @ np.cross(a, b))
    s = math.sqrt(max(s2, 0.0))
    z = s / x
    if z < 1e-4:
        return FOUR_PI / x * (1.0 + z * z / 3.0 + z ** 4 / 5.0)
    log = (2.0 * math.log1p(s - ab) - math.log1p(-float(a @ a))
           - math.log1p(-float(b @ b)))
    return 2.0 * math.pi / s * log


def self_integral(a) -> float:
    """Int dOmega 1 / (1 - a.khat) = (2 pi / beta) ln((1+beta)/(1-beta))."""
    beta = float(np.linalg.norm(a))
    if beta < 1e-4:
        return FOUR_PI * (1.0 + beta * beta / 3.0)
    return 4.0 * math.pi * math.atanh(beta) / beta


# ---------------------------------------------------------------------------
# exponents per model and gauge


def leg_vectors(cfg: dict):
    """(v_out, v_in) spatial velocity-like vectors of the config's legs."""
    kin = cfg["kinematics"]
    if cfg["model"] == "BN":
        return (np.asarray(kin["u_out"], dtype=float),
                np.asarray(kin["u_in"], dtype=float))
    m = float(kin["mass"])
    return (np.asarray(kin["p_out"], dtype=float) / m,
            np.asarray(kin["p_in"], dtype=float) / m)


def transverse_self_integral(a) -> float:
    """Int dOmega (|a|^2 - (khat.a)^2) / (1 - a.khat)^2 = 8 pi h(beta).

    h = (atanh(beta) - beta) / beta, summed as beta^2/3 + beta^4/5 + ...
    for slow legs.
    """
    beta = float(np.linalg.norm(a))
    if beta < 0.05:
        h = sum(beta ** (2 * n) / (2 * n + 1) for n in range(1, 12))
    else:
        h = (math.atanh(beta) - beta) / beta
    return 8.0 * math.pi * h


def exponent(cfg: dict, gauge: str, lam: float, Lam: float) -> dict:
    """Closed-form correction exponent, its parts and their tolerances.

    total = charge^2 (gamma_cross - (b_ir_in + b_ir_out)/2); with
    pref = R_{-1} / (16 pi^3):

    BN FGB:      b_ir = -4 pi pref = -R_{-1}/(4 pi^2),
                 gamma = -pref (u.w) I_cross;
    BN Coulomb:  b_ir = pref Int (|u|^2 - (khat.u)^2) / (1 - khat.u)^2 and,
                 the current being conserved, total = FGB total, which fixes
                 gamma;
    dipole:      kernels are polynomials in khat (no denominators):
                 FGB b = -4 pi pref (1 - v^2), gamma = -4 pi pref (1 - v.v'),
                 Coulomb b = (8 pi/3) pref v^2, gamma = (8 pi/3) pref v.v',
                 total = -q^2 R_{-1} |v - v'|^2 / (8 pi^2) resp. / (12 pi^2).

    A total near zero is a difference of parts, so it is only as good as the
    parts are: ``tol`` is 1e-9 of the parts' size, plus this function's own
    roundoff where it derives the BN Coulomb cross term from FGB parts.
    """
    q2 = float(cfg["kinematics"]["charge"]) ** 2
    r = radial_moment(cfg["form_factor"], lam, Lam, -1)
    pref = r / (16.0 * math.pi ** 3)
    vo, vi = leg_vectors(cfg)
    derived = 0.0
    if cfg["model"] == "BN":
        g_fgb = -pref * (1.0 - float(vo @ vi)) * cross_integral(vo, vi)
        b_fgb = -pref * FOUR_PI
        total = q2 * (g_fgb - b_fgb)
        parts = (g_fgb, b_fgb, b_fgb)
        if gauge == "Coulomb":
            b_in = pref * transverse_self_integral(vi)
            b_out = pref * transverse_self_integral(vo)
            parts = (g_fgb - b_fgb + 0.5 * (b_in + b_out), b_in, b_out)
            derived = 1e-13 * (abs(g_fgb) + abs(b_fgb))
    else:
        d2 = float((vo - vi) @ (vo - vi))
        dots = (float(vo @ vi), float(vi @ vi), float(vo @ vo))
        if gauge == "FGB":
            total = -q2 * r * d2 / (8.0 * math.pi ** 2)
            parts = tuple(-FOUR_PI * pref * (1.0 - d) for d in dots)
        else:
            total = -q2 * r * d2 / (12.0 * math.pi ** 2)
            parts = tuple(FOUR_PI * 2.0 / 3.0 * pref * d for d in dots)
    # the program's angular rules stop at max(1e-14, 5e-13 |I|): tiny
    # (slow-leg Coulomb) parts are good to ~1e-14 pref, not relatively
    floor = ANGULAR_ABS * abs(pref) + derived
    size = abs(parts[0]) + 0.5 * (abs(parts[1]) + abs(parts[2]))
    names = ("gamma_cross", "b_ir_in", "b_ir_out")
    return {"total": total, "tol": q2 * (REL_TOL * size + 2.0 * floor),
            "parts": dict(zip(names, parts)),
            "part_tol": {n: REL_TOL * abs(v) + floor
                         for n, v in zip(names, parts)}}


def gauge_ratio(cfg: dict):
    """FGB / Coulomb ratio of the totals; None when both vanish."""
    vo, vi = leg_vectors(cfg)
    if np.array_equal(vo, vi):
        return None
    return 1.0 if cfg["model"] == "BN" else 1.5


def ledger_reference(cfg: dict, leg: str) -> dict:
    """Adiabatic-limit target and counterterm phases of one leg's ledger."""
    q = float(cfg["kinematics"]["charge"])
    win = cfg["window"]
    ff = cfg["form_factor"]
    vo, vi = leg_vectors(cfg)
    u = vo if leg == "out" else vi
    u2 = 1.0 - float(u @ u)
    r_m1 = radial_moment(ff, win["lambda"], win["Lambda"], -1)
    r0 = radial_moment(ff, win["lambda"], win["Lambda"], 0)
    z2 = 1.5 * r0 * self_integral(u) / (3.0 * (2.0 * math.pi) ** 3)
    # target = -q^2 b_ir / 2 with the FGB b_ir of a straight leg
    return {"target": q * q * r_m1 / (8.0 * math.pi ** 2),
            "counterterm_im": [-q * q * u2 * z2 / (2.0 * eps)
                               for eps in cfg["epsilon_ladder"]]}


# ---------------------------------------------------------------------------
# grid emission factors


def grid_nodes(cfg: dict):
    """Radial Gauss-Legendre nodes along zhat and their weights."""
    win = cfg["window"]
    n = int(cfg.get("fock", {}).get("nodes", 1))
    x, w = np.polynomial.legendre.leggauss(n)
    mid = 0.5 * (win["lambda"] + win["Lambda"])
    half = 0.5 * (win["Lambda"] - win["lambda"])
    ks = mid + half * x
    return [np.array([0.0, 0.0, k]) for k in ks], half * w


def displacement(cfg: dict, gauge: str, k: np.ndarray) -> np.ndarray:
    """F(k) = -j(k) / ((2 pi)^(3/2) sqrt(2|k|)) from the leg currents."""
    kn = float(np.linalg.norm(k))
    vo, vi = leg_vectors(cfg)
    j4 = np.zeros(4, dtype=complex)
    for v, sign in ((vo, 1.0), (vi, -1.0)):
        d = kn - float(v @ k) if cfg["model"] == "BN" else kn
        j4 += sign * np.concatenate([[1.0], v]) / d
    j4 *= 1j * float(rho(cfg["form_factor"], kn))
    if gauge == "Coulomb":
        khat = k / kn
        j4 = j4[1:] - khat * (khat @ j4[1:])
    return -j4 / (NORM * math.sqrt(2.0 * kn))


def signed_product(gauge: str, weights, f, g) -> complex:
    """<f, g>_sigma: FGB sigma = (+, -, -, -); Coulomb transverse, sigma = -1.

    The Coulomb channels are the two polarization coefficients, whose sum of
    products is the transverse dot product of the 3-vectors.
    """
    total = 0.0 + 0.0j
    for w, fi, gi in zip(weights, f, g):
        if gauge == "FGB":
            total += w * (np.conj(fi[0]) * gi[0] - np.conj(fi[1:]) @ gi[1:])
        else:
            total -= w * (np.conj(fi) @ gi)
    return complex(total)


def parse_complex(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def grid_values(entry: dict, nodes) -> np.ndarray:
    if entry["type"] == "grid":
        return np.array([[parse_complex(v) for v in row]
                         for row in entry["values"]])
    h = np.array([parse_complex(v) for v in entry["h"]])
    return np.array([[np.linalg.norm(k) * hi, *(k * hi)]
                     for k, hi in zip(nodes, h)])


def transverse(k: np.ndarray, v: np.ndarray) -> np.ndarray:
    khat = k / np.linalg.norm(k)
    return v - khat * (khat @ v)


def grid_factor(cfg: dict, gauge: str, entry: dict) -> tuple:
    """-i e <f, F>_sigma on the fock radial grid, and its natural scale.

    The scale sum_i w_i sum_c |f_ic| |F_ic| bounds the roundoff of the sum;
    it replaces |factor| where the factor cancels, as for pure-gauge photons
    and a conserved current.
    """
    nodes, weights = grid_nodes(cfg)
    F = [displacement(cfg, gauge, k) for k in nodes]
    f = grid_values(entry, nodes)
    if gauge == "Coulomb":
        f = np.array([transverse(k, fi) for k, fi in zip(nodes, f)])
    q = float(cfg["kinematics"]["charge"])
    scale = abs(q) * sum(w * float(np.abs(fi) @ np.abs(Fi))
                         for w, fi, Fi in zip(weights, f, F))
    return -1j * q * signed_product(gauge, weights, f, F), scale


def grid_vacuum_exponent(cfg: dict, gauge: str) -> complex:
    nodes, weights = grid_nodes(cfg)
    F = [displacement(cfg, gauge, k) for k in nodes]
    q = float(cfg["kinematics"]["charge"])
    return 0.5 * q * q * signed_product(gauge, weights, F, F)


def bump_factor(entry: dict, charge: float, basis) -> complex:
    """Recorded unit-charge factors are linear in conj(components)."""
    comps = [parse_complex(v) for v in entry["components"]]
    return charge * sum(np.conj(a) * complex(*b) for a, b in zip(comps, basis))


def bump_scale(entry: dict, charge: float, basis) -> float:
    comps = [parse_complex(v) for v in entry["components"]]
    return abs(charge) * sum(abs(a) * abs(complex(*b))
                             for a, b in zip(comps, basis))


# ---------------------------------------------------------------------------
# fock-verify displacement convergence


def displacement_deviation(gauge: str, nodes: int, cap: int) -> float:
    """|truncated - closed| vacuum element of the fixed fock-verify profile.

    fock-verify pins every channel at intensity |a|^2 = 0.5 / n_channels with
    charge 1, whatever the window; each channel contributes the (0, 0) entry
    of a (cap+1)-dimensional exponential.
    """
    signs = [-1, 1, 1, 1] if gauge == "FGB" else [1, 1]
    signs = signs * nodes
    a = math.sqrt(0.5 / len(signs))
    n = np.arange(cap)
    truncated = 1.0 + 0.0j
    closed = 1.0
    for s in signs:
        gen = np.zeros((cap + 1, cap + 1), dtype=complex)
        gen[n, n + 1] = 1j * a * np.sqrt(n + 1.0)
        gen[n + 1, n] = 1j * s * a * np.sqrt(n + 1.0)
        truncated *= scipy.linalg.expm(gen)[0, 0]
        closed *= math.exp(-s * a * a / 2.0)
    return abs(truncated - closed)


# ---------------------------------------------------------------------------
# output parsing and comparison


class Mismatch(Exception):
    """Output disagrees with the reference."""


def close(got, want, what: str, tol: float | None = None):
    """|got - want| <= tol (default REL_TOL |want|)."""
    if got is None or not np.isfinite(complex(got)):
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")
    if tol is None:
        tol = REL_TOL * abs(want)
    if not abs(complex(got) - complex(want)) <= tol:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def ratio_tol(ref_fgb: dict, ref_coul: dict) -> float:
    """Tolerance of FGB total / Coulomb total, from the totals' own."""
    return 1e-8 + (ref_fgb["tol"] / abs(ref_fgb["total"])
                   + ref_coul["tol"] / abs(ref_coul["total"]))


def cnum(d) -> complex:
    return complex(d["re"], d["im"])


def read_csv(text: str):
    return list(csv.DictReader(io.StringIO(text)))


def check_exponent(ref: dict, total, vacuum, parts: dict, label: str):
    """Total, vacuum amplitude exp(total) <= 1, and the reported parts."""
    close(total, ref["total"], f"{label} total", ref["tol"])
    want_vac = math.exp(ref["total"])
    close(vacuum, want_vac, f"{label} vacuum_amplitude",
          want_vac * ref["tol"] + 1e-15)
    if not abs(vacuum) <= 1.0:
        raise Mismatch(f"{label} vacuum amplitude {vacuum} above 1")
    for key, got in parts.items():
        close(got, ref["parts"][key], f"{label} {key}", ref["part_tol"][key])


def check_ratio(got, cfg: dict, refs: dict, label: str):
    ratio = gauge_ratio(cfg)
    if ratio is None:
        if got is not None and not math.isnan(got):
            raise Mismatch(f"{label} {got!r} for degenerate legs")
        return
    if got is None or math.isnan(got):
        raise Mismatch(f"degenerate {label}, want {ratio}")
    close(got, ratio, label, ratio * ratio_tol(refs["FGB"], refs["Coulomb"]))


def check_corrections(cfg: dict, gauges, text: str, fmt: str):
    win = cfg["window"]
    refs = {g: exponent(cfg, g, win["lambda"], win["Lambda"]) for g in gauges}
    parts = ("gamma_cross", "b_ir_in", "b_ir_out")
    if fmt == "csv":
        rows = {r["gauge"]: r for r in read_csv(text)}
        for g in gauges:
            row = rows[g]
            check_exponent(refs[g], float(row["m_total"]),
                           float(row["vacuum_amplitude"]),
                           {k: float(row[k]) for k in parts}, g)
        return
    doc = json.loads(text)
    for g in gauges:
        got = doc["gauges"][g]
        exp_doc = got["exponent"]
        check_exponent(refs[g], cnum(exp_doc["total"]),
                       cnum(got["vacuum_amplitude"]),
                       {k: exp_doc[k] for k in parts}, g)
    if len(gauges) == 2:
        check_ratio(doc.get("log_ratio"), cfg, refs, "log_ratio")
    if cfg.get("epsilon_ladder"):
        for leg in ("in", "out"):
            ref = ledger_reference(cfg, leg)
            led = doc["ledger"][leg]
            close(led["target"], ref["target"], f"ledger {leg} target")
            for row, want in zip(led["rows"], ref["counterterm_im"]):
                close(row["counterterm"]["im"], want,
                      f"ledger {leg} counterterm at eps {row['eps']}")


def check_gauge_check(cfg: dict, text: str, fmt: str):
    Lam = cfg["window"]["Lambda"]
    if fmt == "csv":
        rows = [{"lambda": float(r["lambda"]), "m_fgb": float(r["m_fgb"]),
                 "m_coul": float(r["m_coul"]),
                 "log_ratio": float(r["log_ratio"])} for r in read_csv(text)]
    else:
        rows = json.loads(text)["sweep"]
    if [r["lambda"] for r in rows] != list(cfg["lambda_sweep"]):
        raise Mismatch("sweep rows do not follow lambda_sweep")
    for row in rows:
        lam = row["lambda"]
        refs = {g: exponent(cfg, g, lam, Lam) for g in ("FGB", "Coulomb")}
        close(row["m_fgb"], refs["FGB"]["total"], f"m_fgb at lambda {lam}",
              refs["FGB"]["tol"])
        close(row["m_coul"], refs["Coulomb"]["total"],
              f"m_coul at lambda {lam}", refs["Coulomb"]["tol"])
        check_ratio(row["log_ratio"], cfg, refs, f"log_ratio at lambda {lam}")


def check_emission(cfg: dict, photons, bump_ids, text: str, fmt: str,
                   bumps: dict):
    gauge = cfg["gauge"] if isinstance(cfg["gauge"], str) else cfg["gauge"][0]
    entries = photons["photons"] if isinstance(photons, dict) else photons
    oracle = isinstance(photons, dict) and photons.get("oracle", False)
    q = float(cfg["kinematics"]["charge"])
    win = cfg["window"]
    m_ref = exponent(cfg, gauge, win["lambda"], win["Lambda"])
    vacuum = math.exp(m_ref["total"])
    vac_tol = vacuum * m_ref["tol"] + 1e-15
    want, scales = [], []
    for entry, bump_id in zip(entries, bump_ids):
        if bump_id is not None:
            basis = bumps[bump_id]["basis"]
            want.append(bump_factor(entry, q, basis))
            scales.append(bump_scale(entry, q, basis))
        else:
            factor, scale = grid_factor(cfg, gauge, entry)
            want.append(factor)
            scales.append(scale)
    if fmt == "csv":
        rows = read_csv(text)
        got = [complex(float(r["factor_re"]), float(r["factor_im"]))
               for r in rows[:-1]]
        total = complex(float(rows[-1]["factor_re"]),
                        float(rows[-1]["factor_im"]))
    else:
        doc = json.loads(text)
        got = [cnum(f) for f in doc["emission_factors"]]
        total = cnum(doc["total"])
        close(cnum(doc["vacuum_amplitude"]), vacuum, "vacuum_amplitude",
              vac_tol)
    if len(got) != len(want):
        raise Mismatch(f"{len(got)} emission factors for {len(want)} photons")
    for i, (g, w, s) in enumerate(zip(got, want, scales)):
        close(g, w, f"photon {i} factor", REL_TOL * s)
    close(total, vacuum * np.prod(want), "total",
          len(want) * REL_TOL * vacuum * np.prod(scales)
          + vac_tol * abs(np.prod(want)))
    if oracle:
        orc = doc["oracle"]
        grid_vacuum = np.exp(grid_vacuum_exponent(cfg, gauge))
        scale = abs(grid_vacuum) * np.prod(scales)
        close(cnum(orc["grid_total"]), grid_vacuum * np.prod(want),
              "oracle grid_total", len(want) * REL_TOL * scale)
        close(cnum(orc["value"]), cnum(orc["grid_total"]), "oracle value",
              ORACLE_TOL * scale)
        n_ch = (4 if gauge == "FGB" else 2) * int(cfg["fock"]["nodes"])
        if orc["dim"] != (int(cfg["fock"]["cap"]) + 1) ** n_ch:
            raise Mismatch(f"oracle dim {orc['dim']}")


def expected_fock_pass(cfg: dict) -> bool:
    gauge = cfg["gauge"] if isinstance(cfg["gauge"], str) else cfg["gauge"][0]
    tol = dict(DEFAULT_TOLERANCES, **cfg.get("tolerances", {}))
    dev = displacement_deviation(gauge, int(cfg["fock"]["nodes"]),
                                 int(cfg["fock"]["cap"]))
    return dev <= tol["displacement"]


def check_fock_verify(cfg: dict, text: str, fmt: str):
    gauge = cfg["gauge"] if isinstance(cfg["gauge"], str) else cfg["gauge"][0]
    nodes, cap = int(cfg["fock"]["nodes"]), int(cfg["fock"]["cap"])
    tol = dict(DEFAULT_TOLERANCES, **cfg.get("tolerances", {}))
    if fmt == "csv":
        rows = read_csv(text)
        checks = [(r["check"], float(r["deviation"]), float(r["tolerance"]),
                   r["passed"] == "true") for r in rows]
        table = [(int(name.rsplit("_", 1)[1]), dev)
                 for name, dev, _, _ in checks
                 if name.startswith("displacement_cap_")]
        checks = [c for c in checks if not c[0].startswith("displacement_")
                  or c[0] == "displacement"]
        passed = all(p for _, _, _, p in checks)
    else:
        doc = json.loads(text)
        checks = [(c["name"], c["deviation"], c["tolerance"], c["passed"])
                  for c in doc["checks"]]
        table = [(c["cap"], c["deviation"]) for c in doc["convergence"]]
        passed = doc["passed"]
    names = [c[0] for c in checks]
    if names != ["ccr", "bch", "weyl", "t_isometry", "displacement"]:
        raise Mismatch(f"check rows {names}")
    expected = expected_fock_pass(cfg)
    for name, dev, t, flag in checks:
        if t != tol[name]:
            raise Mismatch(f"{name} tolerance {t}, config says {tol[name]}")
        if flag != (dev <= t):
            raise Mismatch(f"{name} passed flag {flag} for {dev} vs {t}")
        # the Weyl vacuum element also converges in the cap; where the
        # displacement check is expected to fail, so may it
        if (name != "displacement" and not dev <= t
                and (name != "weyl" or expected)):
            raise Mismatch(f"{name} deviation {dev} above {t}")
    if passed != expected:
        raise Mismatch(f"passed {passed}, reference says {expected}")
    want_caps = sorted(set(range(2, cap, 2)) | {cap})
    if [c for c, _ in table] != want_caps:
        raise Mismatch(f"convergence caps {[c for c, _ in table]}")
    for c, dev in table:
        ref = displacement_deviation(gauge, nodes, c)
        if ref > 1e-10:
            close(dev, ref, f"displacement at cap {c}", 1e-4 * ref)
        elif dev > 1e-10:
            raise Mismatch(f"displacement at cap {c}: {dev}, want {ref}")


def expected_exit(job: dict) -> int:
    if job.get("malformed"):
        return 2
    if job["cmd"] == "fock-verify":
        return 0 if expected_fock_pass(job["config"]) else 1
    return 0


def check_output(job: dict, text: str, bumps: dict):
    """Raise Mismatch when a successful job's output misses its reference."""
    cfg = job["config"]
    fmt = cfg.get("output", {}).get("format", "json")
    gauges = cfg.get("gauge", ["FGB", "Coulomb"])
    gauges = [gauges] if isinstance(gauges, str) else list(gauges)
    if job["cmd"] == "corrections":
        check_corrections(cfg, gauges, text, fmt)
    elif job["cmd"] == "gauge-check":
        check_gauge_check(cfg, text, fmt)
    elif job["cmd"] == "emission":
        check_emission(cfg, job["photons"], job["bumps"], text, fmt, bumps)
    else:
        check_fock_verify(cfg, text, fmt)


def check_job(job: dict, rc, error: str | None, text: str | None,
              bumps: dict) -> str | None:
    """None when the job met its reference, else the failure reason.

    Reasons start with a class: ``raised`` (an exception left cli.main),
    ``exit`` (a code other than README documents for the input), ``output``
    (missing or unparsable report) or ``mismatch`` (wrong numbers).
    """
    if error is not None:
        return f"raised {error}"
    want = expected_exit(job)
    if rc != want:
        return f"exit {rc} (want {want})"
    if job.get("malformed"):
        return None
    if text is None:
        return "output missing"
    try:
        check_output(job, text, bumps)
    except Mismatch as exc:
        return f"mismatch {exc}"
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"output unparsable: {type(exc).__name__} {exc}"
    return None
