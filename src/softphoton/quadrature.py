"""Radiative-correction exponents: closed forms first, quadrature as oracle.

Every epsilon = 0 exponent integral in both models factorizes exactly into a
radial moment of the squared form factor times an angular integral, and both
factors are elementary (the classical soft factors of Bloch & Nordsieck 1937
and S. Weinberg, Phys. Rev. 140, B516 (1965)):

* radial moments R_p = Int rho~^2 k^p dk for p = -1, 0: a log or a length
  (sharp), exponential integral E1 and erf (gaussian), per-segment log
  moments of a linear profile (tabulated);
* angular integrals, with x = 1 - a.b, s^2 = |a-b|^2 - |a x b|^2,
  S(a) = 4 pi atanh|a| / |a| and I(a, b) = (2 pi / s) ln((x+s)/(x-s)):

  ================  ============================  ===========================
  legs, gauge       self (leg v)                  cross (legs a, b)
  ================  ============================  ===========================
  BN, FGB           -4 pi                         -x I
  BN, Coulomb       8 pi (atanh|v| - |v|) / |v|   -x I + S(a) + S(b) - 4 pi
  dipole, FGB       -4 pi (1 - v^2)               -4 pi (1 - a.b)
  dipole, Coulomb   (8 pi / 3) v^2                (8 pi / 3) a.b
  ================  ============================  ===========================

  The BN Coulomb cross term is the partial-fraction split of its kernel,
  not a consequence of gauge equality, so comparing the two gauges stays a
  real check.  Slow, near-collinear and near-luminal legs go through the
  excess atanh(t)/t - 1 (series below t^2 = 0.1, logs of the exactly known
  complement 1 - t^2 above), which keeps their digits.

The adaptive Gauss-Legendre panel rule (``integrate_radial``) remains for
what has no closed form: radial parts of continuum emission factors and of
the regularized (adiabatic epsilon > 0) exponents, other radial powers, and
the cos(theta) integral of each kernel symmetric about one axis.  The
doubling Gauss-Legendre x trapezoid rule on the unit sphere
(``integrate_sphere``) serves only kernels that depend on the azimuth too:
continuum emission factors.  The test suite uses both as the independent
oracle for every closed form here.  Both certify the same fixed targets:
their error estimate (the change under order doubling) must fall below
5e-13 relative or 1e-14 absolute, or they raise QuadratureError.

Conventions: w-measure shorthand Int w = Int d3k / ((2 pi)^3 2|k|), omega =
u.k on the photon shell, a_r(khat) = 1 - uvec_r . khat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import CutoffWindow, FormFactor, FourVelocity, ScatteringKinematics

__all__ = [
    "QuadratureError",
    "CorrectionExponent",
    "radial_moment",
    "counterterm_z",
    "counterterm_z_tilde",
    "counterterm_z1",
    "counterterm_z2",
    "b_ir",
    "gamma_cross",
    "m_exponent",
    "unren_halfline_exponent",
    "counterterm_phase",
]

_FOUR_PI = 4.0 * math.pi
_EULER_GAMMA = 0.5772156649015329


class QuadratureError(RuntimeError):
    """Raised when the requested tolerance cannot be certified."""


@lru_cache(maxsize=None)
def _gl(n: int):
    return np.polynomial.legendre.leggauss(n)


# Integrator targets and limits.  The tolerances are internal quadrature
# targets, kept well below the package-wide comparison tolerances so that two
# independently computed exponents agree to the advertised 1e-8.
_ORDER = 16  # starting Gauss-Legendre order, radial panels and sphere
_ABS_TOL = 1e-14
_REL_TOL = 5e-13
_MAX_PANELS = 512  # the radial rule gives up at this many panels
_MAX_ANGULAR_ORDER = 4096  # ... and the sphere rule once its order passes this


# ---------------------------------------------------------------------------
# 1d adaptive radial integration


def _panels(fn, intervals) -> list:
    """[error estimate, lo, hi, value] of each interval, from one fn call.

    The order-16 and order-32 nodes of every interval go to ``fn`` as one
    array; each rule then sums its own slice of the values, interval by
    interval, so the value is the order-32 sum and the estimate its change
    from order 16.  Values with K columns give K sums and K estimates.
    """
    rules = [(0.5 * (lo + hi), 0.5 * (hi - lo), *_gl(order))
             for lo, hi in intervals for order in (_ORDER, 2 * _ORDER)]
    vals = fn(np.concatenate([mid + half * x for mid, half, x, _ in rules]))
    sums, start = [], 0
    for _, half, x, w in rules:
        sums.append(half * (w * vals[start:start + len(x)].T).sum(-1))
        start += len(x)
    return [[abs(fine - coarse), lo, hi, fine] for (lo, hi), coarse, fine
            in zip(intervals, sums[0::2], sums[1::2])]


def integrate_radial(fn, a: float, b: float, breaks=()):
    """Adaptive Gauss-Legendre panels; error estimated by order doubling.

    ``fn`` must accept a 1d numpy array and return complex or real values,
    or an (n, K) array, one row per node, for K integrals each certified to
    the target; it is called once per refinement step, on the nodes of
    several panels at once (every initial panel, then both halves of a
    split), so it must act point by point.  ``breaks`` lists interior
    points where smoothness fails (panel edges are forced there).
    """
    if not b > a:
        raise ValueError("empty radial interval")
    edges = sorted({a, b, *(p for p in breaks if a < p < b)})
    panels = _panels(fn, list(zip(edges[:-1], edges[1:])))
    while True:
        total = sum(p[3] for p in panels)
        err = sum(p[0] for p in panels)
        # per entry: err <= max(_ABS_TOL, _REL_TOL |total|), NaN failing
        if all(((err <= _ABS_TOL) | (err <= _REL_TOL * abs(total))).flat):
            return total
        if len(panels) >= _MAX_PANELS:
            raise QuadratureError(
                f"radial error estimate {max(err.flat):.3e} above tolerance "
                f"after {len(panels)} panels")
        # split where the column farthest above its target errs the most
        col = () if err.ndim == 0 else np.argmax(
            err / np.maximum(_ABS_TOL, _REL_TOL * abs(total)))
        worst = max(range(len(panels)), key=lambda i: panels[i][0][col])
        _, lo, hi, _ = panels[worst]
        mid = 0.5 * (lo + hi)
        panels[worst:worst + 1] = _panels(fn, [(lo, mid), (mid, hi)])


# ---------------------------------------------------------------------------
# closed-form radial moments


def _e1_entire(x: float) -> float:
    """E1(x) + ln(x) for 0 <= x <= 1, from its alternating power series."""
    term, acc, n = 1.0, 0.0, 0
    while True:
        n += 1
        term *= -x / n
        add = term / n
        acc += add
        if abs(add) <= 1e-17:  # absolute: it is combined with O(1) logs
            return -_EULER_GAMMA - acc


def _e1_large(x: float) -> float:
    """E1(x) for x > 1, continued fraction (modified Lentz)."""
    b = x + 1.0
    c = 1e300
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -float(i * i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= 1e-16:
            break
    return h * math.exp(-x)


def _gaussian_moment(sigma: float, lam: float, Lam: float, power: int) -> float:
    """Int_lam^Lam exp(-k^2 / sigma^2) k^power dk for power -1 or 0."""
    a, b = lam / sigma, Lam / sigma
    if power == 0:
        if a > 1.0:  # both tails: erfc keeps the digits erf rounds away
            diff = math.erfc(a) - math.erfc(b)
        else:
            diff = math.erf(b) - math.erf(a)
        return 0.5 * sigma * math.sqrt(math.pi) * diff
    # k = sigma sqrt(y): (1/2) Int_{a^2}^{b^2} e^-y / y dy
    A, B = a * a, b * b
    if A > 1.0:
        return 0.5 * (_e1_large(A) - _e1_large(B))
    if B > 1.0:
        return 0.5 * (_e1_entire(A) - math.log(A) - _e1_large(B))
    # both logs folded into one, so narrow windows keep their digits
    return (0.5 * (_e1_entire(A) - _e1_entire(B))
            + math.log1p((Lam - lam) / lam))


def _log_weights(delta: float) -> tuple:
    """Int_0^1 w(t) delta / (1 + delta t) dt for w = (1-t)^2, t(1-t), t^2.

    The 1/k moments of a linear profile on [lo, lo (1 + delta)] in its
    endpoint basis.  Short segments use the series, long ones the logs.
    """
    if delta < 0.25:
        ka = kb = kc = 0.0
        term, j = delta, 0
        while abs(term) > 1e-17 * delta:
            ka += term * 2.0 / ((j + 1) * (j + 2) * (j + 3))
            kb += term / ((j + 2) * (j + 3))
            kc += term / (j + 3)
            term *= -delta
            j += 1
        return ka, kb, kc
    L = math.log1p(delta)
    g1 = (delta - L) / delta
    g2 = (0.5 * delta * delta - delta + L) / (delta * delta)
    return L - 2.0 * g1 + g2, g1 - g2, g2


def _tabulated_moment(ks, vs, lam: float, Lam: float, power: int) -> float:
    """Sum of the exact moments of each linear segment clipped to the window."""
    total = 0.0
    for k0, k1, v0, v1 in zip(ks[:-1], ks[1:], vs[:-1], vs[1:]):
        lo, hi = max(lam, k0), min(Lam, k1)
        if not hi > lo:
            continue
        slope = (v1 - v0) / (k1 - k0)
        p, q = v0 + slope * (lo - k0), v0 + slope * (hi - k0)
        if power == 0:
            total += (hi - lo) * (p * p + p * q + q * q) / 3.0
        else:
            ka, kb, kc = _log_weights((hi - lo) / lo)
            total += p * p * ka + 2.0 * p * q * kb + q * q * kc
    return total


def _closed_moment(rho: FormFactor, lam: float, Lam: float, power: int) -> float:
    if rho.kind == "sharp":
        lo, hi = max(lam, rho.lam), min(Lam, rho.Lam)
        if not hi > lo:
            return 0.0
        return math.log1p((hi - lo) / lo) if power == -1 else hi - lo
    if rho.kind == "gaussian":
        return _gaussian_moment(rho.sigma, lam, Lam, power)
    return _tabulated_moment(rho.table_k, rho.table_v, lam, Lam, power)


def radial_moment(rho: FormFactor, window: CutoffWindow, power: int) -> float:
    """Int_lam^Lam rho~(k)^2 k^power dk; closed form for power -1 and 0.

    Other powers go through ``integrate_radial``.  A moment that is not
    finite (an overflowing table, say) raises QuadratureError.
    """
    if power in (-1, 0):
        val = _closed_moment(rho, window.lam, window.Lam, power)
    else:
        val = float(np.real(integrate_radial(
            lambda k: rho(k) ** 2 * k ** float(power),
            window.lam, window.Lam, breaks=rho.knots())))
    if not math.isfinite(val):
        raise QuadratureError(f"radial moment R_{power} is not finite")
    return val


# ---------------------------------------------------------------------------
# angular integration on the unit sphere


def _frame(v_a: np.ndarray, v_b: np.ndarray):
    """Orthonormal frame with zhat along v_a (or v_b if v_a vanishes)."""
    za = np.linalg.norm(v_a)
    zb = np.linalg.norm(v_b)
    if za > 0.0:
        zhat = v_a / za
    elif zb > 0.0:
        zhat = v_b / zb
    else:
        zhat = np.array([0.0, 0.0, 1.0])
    perp = v_b - (v_b @ zhat) * zhat
    pn = np.linalg.norm(perp)
    if pn > 1e-13:
        xhat = perp / pn
    else:
        trial = np.array([1.0, 0.0, 0.0])
        if abs(trial @ zhat) > 0.9:
            trial = np.array([0.0, 1.0, 0.0])
        xhat = trial - (trial @ zhat) * zhat
        xhat /= np.linalg.norm(xhat)
    return zhat, xhat, np.cross(zhat, xhat)


def integrate_sphere(kernel, v_a, v_b):
    """Int dOmega kernel(khat) for kernels that depend on the azimuth.

    Gauss-Legendre in cos(theta) about v_a times the trapezoid rule in phi,
    with phi = 0 towards v_b; both orders double together until two
    successive evaluations agree.  (A kernel of one axis is a cos(theta)
    integral for ``integrate_radial``.)  ``kernel`` receives an (m, 3) array
    of unit vectors and returns a length-m array (real or complex), or an
    (m, K) array of K integrands, one row per direction; the result then
    has K entries, each certified to the target.
    """
    zhat, xhat, yhat = _frame(np.asarray(v_a, dtype=float),
                              np.asarray(v_b, dtype=float))

    def evaluate(n: int):
        c, wc = _gl(n)
        s = np.sqrt(1.0 - c ** 2)
        phi = 2.0 * np.pi * np.arange(n) / n
        wphi = 2.0 * np.pi / n
        cphi, sphi = np.cos(phi), np.sin(phi)
        khat = (c[:, None, None] * zhat
                + (s[:, None] * cphi)[:, :, None] * xhat
                + (s[:, None] * sphi)[:, :, None] * yhat)
        vals = kernel(khat.reshape(-1, 3))
        vals = vals.reshape(n, n, *vals.shape[1:])
        return (wc @ vals.sum(axis=1)) * wphi

    n = _ORDER
    prev = evaluate(n)
    while True:
        n *= 2
        cur = evaluate(n)
        err = np.abs(cur - prev)
        if np.all(err <= np.maximum(_ABS_TOL, _REL_TOL * np.abs(cur))):
            return cur
        if n > _MAX_ANGULAR_ORDER:
            raise QuadratureError(
                f"angular error estimate {np.max(err):.3e} above tolerance "
                f"at order {n}")
        prev = cur


# ---------------------------------------------------------------------------
# closed-form angular integrals

# Both models reduce to the same kernels once a leg is expressed through a
# velocity-like spatial vector v and the denominator factor a(khat), which is
# 1 - v.khat for straight-line legs and exactly 1 for the dipole (whose
# propagators carry plain 1/k0).  The functions return Int dOmega of the
# kernel with its sign: negative for the invariant FGB bilinear, positive
# for the transverse Coulomb one.


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _atanh_excess(t2: float, c2: float) -> float:
    """atanh(t)/t - 1 for t = sqrt(t2) in [0, 1), with c2 = 1 - t2 given.

    The series sum_n t2^n / (2n + 1) below t2 = 0.1, where the closed form
    would lose the leading 1; above it atanh(t) = log1p(t) - ln(c2)/2, which
    stays exact as t -> 1 as long as c2 is known to full precision.
    """
    if t2 < 0.1:
        term, acc, n = t2, 0.0, 1
        while True:
            add = term / (2 * n + 1)
            acc += add
            if add <= 1e-17 * acc:
                return acc
            term *= t2
            n += 1
    t = math.sqrt(t2)
    return (math.log1p(t) - 0.5 * math.log(c2)) / t - 1.0


def _self_angular(v: FourVelocity, gauge: str, bn: bool) -> float:
    b2 = _dot(v.spatial_t, v.spatial_t)
    if gauge == "FGB":
        # u^2 / a^2 integrates to 4 pi u^2 / (1 - beta^2) = 4 pi on BN legs
        return -_FOUR_PI if bn else -_FOUR_PI * (1.0 - b2)
    if bn:
        # (beta^2 - (v.khat)^2) / a^2 -> 8 pi (atanh(beta) - beta) / beta
        return 2.0 * _FOUR_PI * _atanh_excess(b2, 1.0 - b2)
    return _FOUR_PI * (2.0 / 3.0) * b2


def _cross_angular(va: FourVelocity, vb: FourVelocity, gauge: str,
                   bn: bool) -> float:
    a, b = va.spatial_t, vb.spatial_t
    if not bn:
        ab = _dot(a, b)
        return (-_FOUR_PI * (1.0 - ab) if gauge == "FGB"
                else _FOUR_PI * (2.0 / 3.0) * ab)
    a2, b2 = _dot(a, a), _dot(b, b)
    ua2, ub2 = 1.0 - a2, 1.0 - b2
    d = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
    d2 = _dot(d, d)
    # x = 1 - a.b and s^2 = x^2 - ua2 ub2, both as sums of non-negative terms
    x = 0.5 * (ua2 + ub2 + d2)
    s2 = 0.5 * ((ua2 + ub2) * d2 + _dot(a, d) ** 2 + _dot(b, d) ** 2)
    # x I = 4 pi atanh(t)/t with t = s/x and 1 - t^2 = ua2 ub2 / x^2
    excess = _atanh_excess(s2 / (x * x), ua2 * ub2 / (x * x))
    if gauge == "FGB":
        return -_FOUR_PI * (1.0 + excess)
    # partial fractions: -x I + S(a) + S(b) - 4 pi, each S(v) = 4 pi (1 + excess)
    return _FOUR_PI * (_atanh_excess(a2, ua2) + _atanh_excess(b2, ub2)
                       - excess)


def _infrared_pref(rho: FormFactor, window: CutoffWindow) -> float:
    # Int w rho~^2 / k^2 = R_{-1} / ((2 pi)^3 2) per unit solid angle
    return radial_moment(rho, window, -1) / (16.0 * np.pi ** 3)


# ---------------------------------------------------------------------------
# counterterms


def counterterm_z(rho: FormFactor, window: CutoffWindow) -> float:
    """z = (1/3) Int_{k>lam} d3k rho~^2 / ((2 pi)^3 k^2) = R0 / (6 pi^2)."""
    return radial_moment(rho, window, 0) / (6.0 * np.pi ** 2)


def counterterm_z_tilde(rho: FormFactor, window: CutoffWindow) -> float:
    # shared integrand, coefficient 1/2 instead of 1/3
    return 1.5 * counterterm_z(rho, window)


def counterterm_z1(u: FourVelocity, rho: FormFactor,
                   window: CutoffWindow) -> float:
    """z1(u) = (1/3) Int d3k rho~^2 / ((2 pi)^3 k (u.k)); -> z as uvec -> 0.

    The angular integral Int dOmega / (1 - uvec.khat) is S(u) above.
    """
    r0 = radial_moment(rho, window, 0)
    b2 = _dot(u.spatial_t, u.spatial_t)
    ang = _FOUR_PI * (1.0 + _atanh_excess(b2, 1.0 - b2))
    return r0 * ang / (3.0 * (2.0 * np.pi) ** 3)


def counterterm_z2(u: FourVelocity, rho: FormFactor,
                   window: CutoffWindow) -> float:
    # same angular integral, coefficient 1/2 instead of 1/3
    return 1.5 * counterterm_z1(u, rho, window)


# ---------------------------------------------------------------------------
# infrared exponents


def b_ir(u: FourVelocity, rho: FormFactor, window: CutoffWindow) -> float:
    """Self-energy exponent B(u) = -u^2 Int w rho~^2 / (u.k)^2.

    Strictly negative; independent of u for straight-line legs because
    u^2 = 1 - beta^2 cancels the angular weight: B = -4 pi R_{-1} / (16 pi^3).
    """
    return _infrared_pref(rho, window) * _self_angular(u, "FGB", True)


def gamma_cross(u_a: FourVelocity, u_b: FourVelocity, rho: FormFactor,
                window: CutoffWindow) -> float:
    """Cross exponent Gamma(u_a, u_b) = -(u_a.u_b) Int w rho~^2/((u_a.k)(u_b.k)).

    Symmetric in its arguments; Gamma(u, u) = b_ir(u).
    """
    return (_infrared_pref(rho, window)
            * _cross_angular(u_a, u_b, "FGB", True))


@dataclass(frozen=True)
class CorrectionExponent:
    """Radiative-correction exponent with its leg/cross breakdown.

    At epsilon = 0 the total is real, equals
    charge^2 (gamma_cross - (b_ir_in + b_ir_out)/2), and is <= 0.
    """

    total: complex
    gamma_cross: float
    b_ir_in: float
    b_ir_out: float
    model: str
    gauge: str
    window: CutoffWindow
    counterterm_phase: complex | None = None

    def breakdown(self) -> dict:
        out = {
            "gamma_cross": self.gamma_cross,
            "b_ir_in": self.b_ir_in,
            "b_ir_out": self.b_ir_out,
        }
        if self.counterterm_phase is not None:
            out["counterterm_phase"] = self.counterterm_phase
        return out


def m_exponent(kin: ScatteringKinematics, gauge: str, rho: FormFactor,
               window: CutoffWindow) -> CorrectionExponent:
    """Vacuum-vacuum exponent M for the given model and gauge at epsilon = 0.

    total = charge^2 (gamma - (b_in + b_out)/2) where gamma and the b's are
    the cross and self pieces of the current bilinear.  In FGB the b's are
    the (negative) invariant self terms; in Coulomb gauge the transverse
    projector makes them positive.  The combination is gauge independent for
    conserved currents and acquires the 3/2 mismatch for the dipole.
    """
    if gauge not in ("FGB", "Coulomb"):
        raise ValueError("gauge must be 'FGB' or 'Coulomb'")
    v_out, v_in = kin.velocity("out"), kin.velocity("in")
    bn = kin.model == "BN"
    pref = _infrared_pref(rho, window)
    b_out = pref * _self_angular(v_out, gauge, bn)
    b_in = pref * _self_angular(v_in, gauge, bn)
    gamma = pref * _cross_angular(v_out, v_in, gauge, bn)
    total = kin.charge ** 2 * (gamma - 0.5 * (b_in + b_out))
    if not math.isfinite(total):
        raise QuadratureError(f"{gauge} exponent is not finite")
    return CorrectionExponent(
        total=complex(total),
        gamma_cross=gamma,
        b_ir_in=b_in,
        b_ir_out=b_out,
        model=kin.model,
        gauge=gauge,
        window=window,
    )


# ---------------------------------------------------------------------------
# adiabatic (epsilon > 0) objects


def unren_halfline_exponent(u: FourVelocity, eps: float, rho: FormFactor,
                            window: CutoffWindow, *, charge: float) -> complex:
    """Unrenormalized vacuum exponent of a half-line leg at adiabatic eps > 0.

    Reduced form (derived from the regularized current paired with the
    on-shell kernel; the two half-line time integrals give 1/eps times the
    resolvent at u.k):

        E(eps) = (charge^2 u^2 / 2) Int w rho~^2 / (eps (eps - i u.k)).

    Re E -> -charge^2 b_ir/2 as eps -> 0 (even in eps); Im E carries the
    z2/eps divergence cancelled by ``counterterm_phase``.  The cos(theta)
    integral is exact, Int_-1^1 dc / (A + B c) = (2/B) atanh(B/A) with
    A = eps - i k and B = i k beta; Re(A +- B) = eps > 0 keeps the path off
    the branch cut.  Only the radial part is numerical.
    """
    if not eps > 0.0:
        raise ValueError("adiabatic eps must be > 0")
    beta = u.beta
    pref = charge ** 2 * u.squared / (2.0 * eps) / (4.0 * np.pi ** 2)

    def radial(k):
        a = eps - 1j * k
        if beta == 0.0:
            half_angle = 1.0 / a
        else:
            z = 1j * beta * k / a
            half_angle = np.arctanh(z) / (z * a)
        return rho(k) ** 2 * k * half_angle

    return complex(pref * integrate_radial(radial, window.lam, window.Lam,
                                           breaks=rho.knots()))


def counterterm_phase(u: FourVelocity, eps: float, rho: FormFactor,
                      window: CutoffWindow, *, charge: float) -> complex:
    """Pure phase -i charge^2 u^2 z2(u) / (2 eps); cancels the Im divergence."""
    if not eps > 0.0:
        raise ValueError("adiabatic eps must be > 0")
    z2 = counterterm_z2(u, rho, window)
    return -1j * charge ** 2 * u.squared * z2 / (2.0 * eps)
