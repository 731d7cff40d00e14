"""Seeded job sets for the four workloads.

A workload is a list of templates, each with a count per pass.  One pass
holds exactly that many jobs of every template, spread evenly through the
pass in a fixed order, so the mix of job kinds (and of known defects) and
the place where each kind first runs cold are the same for every seed.  The
seed draws every parameter.  The two that set a job's cost, the fastest
leg's beta and the charge, are drawn stratified: the n jobs of a template
take one value from each of [k/n, (k+1)/n), in seeded order.  The program
only ever sees the generated config and photon files, which use README keys
only (malformed jobs excepted, which is their point).

Each job is a dict:

``cmd``        CLI subcommand;
``config``     config document written to disk;
``photons``    photon spec document (emission only);
``bumps``      catalogue id per photon entry, None for grid entries;
``malformed``  what is wrong with the input, if anything (README: exit 2);
``defects``    known defects of the seed commit this job shows; a
               failure with any other reason is unexpected.

Every template shows its known defect on each of its jobs or on none, so
the failed count of a pass depends on the mix alone, not on the seed.
"""

from __future__ import annotations

import cmath
import copy
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUMP_CATALOGUE = HERE / "bump_reference.json"

# failure-reason prefix each known defect produces at the seed commit
DEFECT_SYMPTOMS = {
    # FGB self term at beta >= 0.998 exhausts the angular rule (exit 3)
    "quadrature": ("exit 3",),
    # the FGB/Coulomb ratio is called degenerate (None/NaN) once both
    # exponents fall below 1e-13, whatever the legs: small charges or
    # strongly suppressed form factors (only the small-charge templates
    # reach it; see ``charge``)
    "degenerate": ("mismatch degenerate", "mismatch log_ratio"),
    # unknown config keys are accepted (exit 0 instead of 2)
    "unknown_key": ("exit 0",),
    # malformed photon entries or config sections escape as exceptions
    "crash": ("raised",),
}


# ---------------------------------------------------------------------------
# parameter draws


def rnd(x: float) -> float:
    """Round to 12 significant digits so files stay short and exact."""
    return float(f"{x:.12g}")


def velocity(rng: random.Random, beta: float, away=None) -> list:
    """Random direction with |u| = beta, at least 60 degrees from ``away``.

    Two legs 60 degrees apart have |u - w|^2 >= (|u|^2 + |w|^2) / 2, which
    keeps the exponents of the general templates well clear of the
    degenerate-ratio threshold (see ``charge``).
    """
    a = None
    if away is not None and any(away):
        na = math.sqrt(sum(x * x for x in away))
        a = [x / na for x in away]
    while True:
        d = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in d))
        if n > 1e-3 and (a is None
                         or sum(x * y for x, y in zip(d, a)) <= 0.5 * n):
            break
    return [rnd(beta * x / n) for x in d]


def window(rng: random.Random) -> dict:
    return {"lambda": rnd(rng.uniform(0.05, 0.3)),
            "Lambda": rnd(rng.uniform(1.5, 3.0))}


def form_factor(rng: random.Random, kind: str, win: dict) -> dict:
    if kind == "sharp":
        return {"kind": "sharp",
                "params": {"lam": rnd(win["lambda"] * rng.uniform(0.3, 1.5)),
                           "Lam": rnd(win["Lambda"] * rng.uniform(0.6, 1.5))}}
    if kind == "gaussian":
        return {"kind": "gaussian", "params": {"sigma": rnd(rng.uniform(0.3, 2.0))}}
    n = rng.randint(4, 7)
    top = win["Lambda"] * rng.uniform(0.8, 1.3)
    ks = sorted(rng.uniform(0.0, top) for _ in range(n - 2))
    ks = [0.0, *ks, top]
    ks = [rnd(k) for k in ks]
    for i in range(1, len(ks)):  # keep strictly increasing after rounding
        if ks[i] <= ks[i - 1]:
            ks[i] = rnd(ks[i - 1] + 1e-3)
    return {"kind": "tabulated",
            "params": {"k": ks, "values": [rnd(rng.uniform(0.1, 1.0))
                                           for _ in ks]}}


def charge(u: float, small: bool = False) -> float:
    """1e-2..1 charges, or 1e-8..1e-7 where the small-charge defect shows.

    The degenerate-ratio defect (both exponents below 1e-13) must show on
    every job of a template or on none, so that the failed count of a run
    is fixed by the job mix, not by the draw.  Small-charge templates sit
    far below the threshold (|total| < 1e-15).  The rest keep |total| above
    1e-11 (4e-10 at the least over 60 seeds): charges from 1e-2, legs 60
    degrees apart with the faster at beta >= 0.05 (dipole: the outgoing
    one), and gaussian sweeps stopping at sigma (``sweep``).
    """
    lo, hi = (-8.0, -7.0) if small else (-2.0, 0.0)
    return rnd(10.0 ** (lo + u * (hi - lo)))


def bn_kinematics(rng, q, u, lo=0.05, hi=0.9, luminal=None) -> dict:
    """Two non-collinear legs, the faster at beta = lo + u (hi - lo).

    ``luminal`` = (lo, hi) instead puts the faster leg in that range and the
    other anywhere below 0.9.
    """
    if luminal is not None:
        fast = luminal[0] + u * (luminal[1] - luminal[0])
        slow = rng.uniform(0.0, 0.9)
    else:
        fast = lo + u * (hi - lo)
        slow = rng.uniform(lo, fast)
    first = velocity(rng, fast)
    legs = [first, velocity(rng, slow, away=first)]
    rng.shuffle(legs)
    return {"charge": q, "u_in": legs[0], "u_out": legs[1]}


def dipole_kinematics(rng, q, u) -> dict:
    m = rnd(rng.uniform(1.0, 5.0))
    v_in = velocity(rng, 0.6 * u)
    v_out = velocity(rng, rng.uniform(0.05, 0.6), away=v_in)
    return {"charge": q, "mass": m, "p_in": [rnd(m * x) for x in v_in],
            "p_out": [rnd(m * x) for x in v_out]}


def base_config(rng, u, model: str, gauge, ff_kind: str, fmt: str = "json",
                small: bool = False, **bn) -> dict:
    """Window, form factor and legs; u = (beta draw, charge draw)."""
    win = window(rng)
    q = charge(u[1], small)
    kin = (bn_kinematics(rng, q, u[0], **bn) if model == "BN"
           else dipole_kinematics(rng, q, u[0]))
    return {"model": model, "gauge": gauge,
            "form_factor": form_factor(rng, ff_kind, win),
            "kinematics": kin, "window": win, "output": {"format": fmt}}


def sweep(rng, win: dict, ff: dict) -> list:
    """Three IR cut-offs for gauge-check.

    A gaussian form factor stops the sweep at sigma, where R_{-1} is still
    O(0.1): further out the exponents fall towards the degenerate-ratio
    threshold, which small-charge templates exercise instead.
    """
    top = 0.5 * win["Lambda"]
    if ff["kind"] == "gaussian":
        top = min(top, ff["params"]["sigma"])
    return sorted(rnd(rng.uniform(0.02, top)) for _ in range(3))


def ladder(rng) -> list:
    s = rng.uniform(0.5, 2.0)
    return [rnd(s * e) for e in (0.1, 0.05, 0.025)]


def complex_entry(rng):
    if rng.random() < 0.5:
        return rnd(rng.uniform(-1.0, 1.0))
    return [rnd(rng.uniform(-1.0, 1.0)), rnd(rng.uniform(-1.0, 1.0))]


def grid_photon(rng, gauge: str, nodes: int, pure_gauge_ok: bool = True) -> dict:
    if gauge == "FGB" and pure_gauge_ok and rng.random() < 0.3:
        return {"type": "pure_gauge", "h": [complex_entry(rng) for _ in range(nodes)]}
    width = 4 if gauge == "FGB" else 3
    return {"type": "grid",
            "values": [[complex_entry(rng) for _ in range(width)]
                       for _ in range(nodes)]}


# ---------------------------------------------------------------------------
# templates: fn(rng, u) -> job dict, u the stratified cost draw


def job(cmd, config, defects=(), **extra) -> dict:
    return {"cmd": cmd, "config": config, "photons": None, "bumps": None,
            "malformed": None, "defects": list(defects), **extra}


def ratio_defects(defect, degenerate: bool) -> tuple:
    """Only small-charge templates show the degenerate ratio."""
    return tuple(d for d in (defect, "degenerate" if degenerate else None)
                 if d)


def corrections(model, gauge, ff, fmt="json", small=False, eps=False,
                defect=None, **bn):
    def make(rng, u):
        cfg = base_config(rng, u, model, gauge, ff, fmt, small, **bn)
        if eps:
            cfg["epsilon_ladder"] = ladder(rng)
        return job("corrections", cfg, ratio_defects(defect, small))
    return make


def gauge_check(model, ff, fmt="json", small=False, defect=None, **bn):
    def make(rng, u):
        cfg = base_config(rng, u, model, ["FGB", "Coulomb"], ff, fmt, small,
                          **bn)
        cfg["lambda_sweep"] = sweep(rng, cfg["window"], cfg["form_factor"])
        cfg["seed"] = rng.randint(0, 2 ** 31)
        return job("gauge-check", cfg,
                   ratio_defects(defect, small))
    return make


UNKNOWN_KEYS = [(), ("window",), ("kinematics",), ("form_factor",),
                ("output",)]
WRONG_SCALARS = [("kinematics", "charge"), ("window", "lambda"),
                 ("window", "Lambda"), ("kinematics", "u_out"),
                 ("epsilon_ladder",), ("lambda_sweep",)]
WRONG_VALUES = ["heavy", None, {"value": 0.3}]
WRONG_SECTIONS = ["fock", "output", "tolerances"]
REQUIRED = [("model",), ("window",), ("kinematics",), ("form_factor",),
            ("window", "Lambda"), ("kinematics", "charge")]


def malformed_config(kind: str):
    """Config documents README maps to exit 2, for either subcommand."""
    def make(rng, u):
        cfg = base_config(rng, u, "BN", ["FGB", "Coulomb"], "sharp")
        cfg["lambda_sweep"] = sweep(rng, cfg["window"], cfg["form_factor"])
        defects = ()
        if kind == "unknown_key":
            where = rng.choice(UNKNOWN_KEYS)
            node = cfg
            for key in where:
                node = node.setdefault(key, {})
            node[rng.choice(["verbose", "norm", "extra", "units"])] = 1
            defects = ("unknown_key",)
        elif kind == "wrong_type":
            path = rng.choice(WRONG_SCALARS)
            node = cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = rng.choice(WRONG_VALUES)
        elif kind == "wrong_section":
            cfg[rng.choice(WRONG_SECTIONS)] = rng.choice([5, "yes", [1, 2]])
            defects = ("crash",)
        else:  # missing required field
            path = rng.choice(REQUIRED)
            node = cfg
            for key in path[:-1]:
                node = node[key]
            del node[path[-1]]
        return job(rng.choice(["corrections", "gauge-check"]), cfg, defects,
                   malformed=kind)
    return make


def load_catalogue() -> dict:
    return json.loads(BUMP_CATALOGUE.read_text())


# Polarization direction of every bump photon, per gauge.  The seed draws a
# complex amplitude for it: the quadrature's refinement is invariant under
# that scaling, so each catalogue entry costs the same work for every seed.
BUMP_DIRECTION = {"FGB": [0.3, 1.0, 0.5j, -0.2],
                  "Coulomb": [1.0, 0.5j, 0.3]}


def bump_job(entry_id: str, entry: dict, with_grid: bool):
    """Catalogue geometry with seeded charge, amplitude and extra photon."""
    def make(rng, u):
        cfg = copy.deepcopy(entry["config"])
        cfg["kinematics"]["charge"] = charge(u[1])
        cfg["output"] = {"format": rng.choice(["json", "csv"])}
        gauge = cfg["gauge"]
        amp = cmath.rect(rng.uniform(0.2, 2.0), rng.uniform(0.0, 2.0 * math.pi))
        photons = [{"type": "bump", "center": entry["center"],
                    "width": entry["width"],
                    "components": [[rnd((amp * c).real), rnd((amp * c).imag)]
                                   for c in BUMP_DIRECTION[gauge]]}]
        bumps = [entry_id]
        if with_grid:
            photons.append(grid_photon(rng, gauge, 1))
            bumps.append(None)
        return job("emission", cfg, photons=photons, bumps=bumps)
    return make


def grid_emission(model, gauge, ff, oracle=False, nodes=1, cap=5, count=2):
    def make(rng, u):
        fmt = "json" if oracle else rng.choice(["json", "csv"])
        cfg = base_config(rng, u, model, gauge, ff, fmt)
        cfg["fock"] = {"nodes": nodes, "cap": cap}
        photons = [grid_photon(rng, gauge, nodes) for _ in range(count)]
        doc = {"photons": photons, "oracle": True} if oracle else photons
        return job("emission", cfg, photons=doc, bumps=[None] * count)
    return make


def malformed_photons(kind: str):
    """Photon specs README maps to exit 2 (bad entries) or configs with
    an unknown key; the rest of the job is a valid cheap grid emission."""
    def make(rng, u):
        gauge = rng.choice(["FGB", "Coulomb"])
        cfg = base_config(rng, u, "BN", gauge, "sharp")
        photons = [grid_photon(rng, gauge, 1, pure_gauge_ok=False)]
        width = 4 if gauge == "FGB" else 3
        bump = {"type": "bump", "center": 0.5, "width": 0.3,
                "components": [complex_entry(rng) for _ in range(width)]}
        if kind == "missing_field":
            del bump[rng.choice(["center", "width", "components"])]
            photons.append(bump)
            defects = ("crash",)
        elif kind == "wrong_type":
            bump[rng.choice(["center", "width"])] = rng.choice(
                ["wide", None, [0.5]])
            photons.append(bump)
            defects = ("crash",)
        else:
            cfg[rng.choice(["photon_units", "verbose", "mode"])] = "x"
            defects = ("unknown_key",)
        rng.shuffle(photons)
        return job("emission", cfg, defects, photons=photons, malformed=kind)
    return make


def fock_verify(gauge, nodes, cap, tolerances=None):
    def make(rng, u):
        cfg = base_config(rng, u, "BN", gauge, "sharp",
                          rng.choice(["json", "csv"]))
        cfg["fock"] = {"nodes": nodes, "cap": cap}
        cfg["seed"] = rng.randint(0, 2 ** 31)
        if tolerances:
            cfg["tolerances"] = tolerances
        return job("fock-verify", cfg)
    return make


# ---------------------------------------------------------------------------
# workloads: (template name, count per pass, factory)


def exponents():
    # About 4200 distinct jobs (a 23-second pass), so
    # job_tail_s is an order statistic over many heavy jobs, not a few
    # repeated ones.  Legs stop at beta 0.98: in (0.98, 0.99] a few jobs cost
    # 3-5x the rest and job_tail_s became one job's time (luminal covers
    # beta > 0.99).
    return [
        ("bn_both_sharp", 720, corrections("BN", ["FGB", "Coulomb"], "sharp")),
        ("bn_fgb_gauss_csv", 360, corrections("BN", "FGB", "gaussian", "csv",
                                              lo=0.3, hi=0.98)),
        ("bn_coul_tab", 360, corrections("BN", "Coulomb", "tabulated")),
        ("bn_fast_both", 360, corrections("BN", ["Coulomb", "FGB"],
                                          "gaussian", lo=0.9, hi=0.98)),
        ("bn_ladder", 270, corrections("BN", ["FGB", "Coulomb"], "sharp",
                                       eps=True, hi=0.8)),
        ("bn_gauge_check", 360, gauge_check("BN", "gaussian")),
        ("dip_both_tab_csv", 360, corrections("dipole", ["FGB", "Coulomb"],
                                              "tabulated", "csv")),
        ("dip_ladder", 180, corrections("dipole", ["FGB", "Coulomb"],
                                        "gaussian", eps=True)),
        ("dip_gauge_check_csv", 360, gauge_check("dipole", "sharp", "csv")),
        ("dip_small_charge", 180, corrections("dipole", ["FGB", "Coulomb"],
                                              "sharp", small=True)),
        ("dip_small_gauge_check", 180, gauge_check("dipole", "tabulated",
                                                   small=True)),
        ("bad_unknown_key", 180, malformed_config("unknown_key")),
        ("bad_wrong_type", 180, malformed_config("wrong_type")),
        ("bad_wrong_section", 90, malformed_config("wrong_section")),
        ("bad_missing", 90, malformed_config("missing")),
    ]


LUMINAL = (0.998, 0.9995)
NEAR = (0.99, 0.997)


def luminal():
    # One cold leggauss(8192) build dominates the pass; the warm jobs around
    # it are many so that job_p50_s and job_tail_s rest on ~70 samples.  The
    # sixteen coul_998 jobs (1e6 kernel points each) are the slowest warm
    # ones, so job_tail_s falls inside that group.
    return [
        ("fgb_998", 8, corrections("BN", "FGB", "sharp", luminal=LUMINAL,
                                   defect="quadrature")),
        ("coul_998", 16, corrections("BN", "Coulomb", "gaussian",
                                     luminal=LUMINAL)),
        ("both_998_csv", 4, corrections("BN", ["FGB", "Coulomb"],
                                        "tabulated", "csv", luminal=LUMINAL,
                                        defect="quadrature")),
        ("fgb_near", 12, corrections("BN", "FGB", "gaussian", luminal=NEAR)),
        ("both_near_csv", 12, corrections("BN", ["FGB", "Coulomb"], "sharp",
                                          "csv", luminal=NEAR)),
        ("coul_near_tab", 12, corrections("BN", "Coulomb", "tabulated",
                                          luminal=NEAR)),
        ("gauge_check_near", 8, gauge_check("BN", "sharp", luminal=NEAR)),
        ("gauge_check_998", 4, gauge_check("BN", "gaussian", "csv",
                                           luminal=LUMINAL,
                                           defect="quadrature")),
    ]


# Catalogue entries and their count per pass.  Twelve cheap FGB dipole
# bumps (about 0.8 s each here) hold job_p50_s and job_tail_s, so both rest
# on a group of like jobs rather than on the few dearer ones.
BUMPS = [("fgb_dip_a", 4), ("fgb_dip_b", 4), ("fgb_dip_d", 4),
         ("fgb_bn_a", 1), ("coul_dip_b", 1)]


def emission():
    catalogue = load_catalogue()
    return [(f"bump_{i}", count, bump_job(i, catalogue[i], with_grid=n % 2 == 0))
            for n, (i, count) in enumerate(BUMPS)] + [
        ("grid_bn_fgb", 2, grid_emission("BN", "FGB", "gaussian", nodes=2,
                                         count=3)),
        ("grid_dip_coul", 2, grid_emission("dipole", "Coulomb", "tabulated",
                                           nodes=3)),
        ("bad_photon_missing", 1, malformed_photons("missing_field")),
        ("bad_photon_type", 1, malformed_photons("wrong_type")),
        ("bad_unknown_key", 1, malformed_photons("unknown_key")),
    ]


def fock():
    # The 11th slowest job of a three-pass run (job_tail_s) is the fifth of
    # the nine 1x14 fock-verify jobs, below the six of the two dearer
    # templates: inside one template of like jobs, not on the edge of a
    # group, where one slow job would move it.  job_p50_s falls near the
    # middle of the 2x5 Coulomb oracle jobs, not on the edge between two
    # oracle templates of near-equal cost, where it would jump between them.
    return [
        ("fv_fgb_1x5", 1, fock_verify("FGB", 1, 5, {"weyl": 1e-7})),
        ("fv_coul_2x5", 1, fock_verify("Coulomb", 2, 5)),
        ("fv_coul_1x14", 3, fock_verify("Coulomb", 1, 14)),
        ("fv_coul_1x10", 12, fock_verify("Coulomb", 1, 10)),
        ("fv_coul_1x6", 1, fock_verify("Coulomb", 1, 6)),
        # FGB Weyl vacuum elements at caps 4-5 are good to ~1e-7 / ~1e-9
        ("fv_fgb_1x4_loose", 1, fock_verify("FGB", 1, 4, {"weyl": 1e-6})),
        # strict displacement tolerances the truncation cannot meet: exit 1
        ("fv_coul_2x4_strict", 1, fock_verify("Coulomb", 2, 4,
                                              {"displacement": 1e-12})),
        ("fv_fgb_1x3_strict", 1, fock_verify("FGB", 1, 3,
                                             {"displacement": 1e-12})),
        ("oracle_fgb_1x5", 8, grid_emission("BN", "FGB", "sharp",
                                             oracle=True, nodes=1, cap=5)),
        ("oracle_coul_2x5", 12, grid_emission("BN", "Coulomb", "gaussian",
                                             oracle=True, nodes=2, cap=5)),
        ("oracle_dip_coul_1x14", 8, grid_emission("dipole", "Coulomb",
                                                  "tabulated", oracle=True,
                                                  nodes=1, cap=14)),
        ("oracle_dip_fgb_1x4", 6, grid_emission("dipole", "FGB", "sharp",
                                                oracle=True, nodes=1, cap=4)),
    ]


WORKLOADS = {"exponents": exponents, "luminal": luminal,
             "emission": emission, "fock": fock}

# Whole passes of a timed run at --seconds 45; --seconds S makes
# max(1, round(RUN_PASSES * S / 45)).  A fixed count, not a deadline: the
# same S and seed give the same jobs (and the same failed count) however
# fast the machine is.  Whole passes hold every stratum of every cost draw,
# so the heaviest jobs, which set job_tail_s and peak_rss_mb, are in every
# run.  On a 2-core x86 VM a pass took about 23 s (exponents), 14 s
# (emission), 15 s (fock) and 60 s (luminal), so a run lasts about 45 s
# (luminal: 60 s).  The VM's speed drifted by up to 25% over a minute or
# two, and longer runs average more of that drift.
RUN_PASSES = {"exponents": 2, "luminal": 1, "emission": 3, "fock": 3}
REFERENCE_SECONDS = 45


def make_jobs(workload: str, seed: int) -> list:
    """One pass of the workload's jobs, drawn and ordered from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    slots = []
    for t, (name, count, make) in enumerate(WORKLOADS[workload]()):
        draws = []
        for _ in range(2):
            strata = list(range(count))
            rng.shuffle(strata)
            draws.append([(k + rng.random()) / count for k in strata])
        slots += [((k + 0.5) / count, t, name, make,
                   (draws[0][k], draws[1][k])) for k in range(count)]
    slots.sort(key=lambda slot: slot[:2])
    jobs = []
    for i, (_, _, name, make, u) in enumerate(slots):
        j = make(rng, u)
        j["id"] = i
        j["template"] = name
        jobs.append(j)
    return jobs
