"""Classical currents of the two models and their coherence functions.

The straight-line model couples through the on-shell combination
u^mu / (u.k) per leg; the dipole model through vtilde^mu / k0 with
vtilde = (1, p/m).  Coulomb-gauge objects are the transverse projections of
the spatial parts.  Out legs are regularized with denominators shifted by
+i eps, in legs by -i eps (the adiabatic switching acts on the opposite time
half-line).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CutoffWindow,
    FormFactor,
    FourVelocity,
    ScatteringKinematics,
    transverse_project,
    # not called here; perfbench/tracer.py counts calls at these names
    on_shell_dot,
    transverse_projector,
)
# perfbench/tracer.py patches _gl and integrate_radial here (_gl is not called)
from .quadrature import _gl, integrate_radial

__all__ = [
    "CurrentSpec",
    "CoherenceFunction",
    "current_fourier",
    "current_on_shell",
    "current_divergence",
    "polarization_frame",
    "coherence_asymptotic",
    "coherence_regularized",
    "phase_exponent_d",
]

_NORM = (2.0 * np.pi) ** 1.5


@dataclass(frozen=True)
class CurrentSpec:
    """Everything needed to evaluate one model current in one gauge."""

    kin: ScatteringKinematics
    gauge: str
    rho: FormFactor
    window: CutoffWindow
    eps: float = 0.0

    def __post_init__(self):
        if self.gauge not in ("FGB", "Coulomb"):
            raise ValueError("gauge must be 'FGB' or 'Coulomb'")
        if self.eps < 0.0:
            raise ValueError("eps must be >= 0")

    def replace_gauge(self, gauge: str) -> "CurrentSpec":
        if gauge == self.gauge:
            return self
        return CurrentSpec(self.kin, gauge, self.rho, self.window, self.eps)


def _leg(spec: CurrentSpec, leg: str, k, k0):
    """Leg vector (u^mu or vtilde^mu) and its denominator k0 - uvec.k or k0."""
    u = spec.kin.velocity(leg)
    return u.four(), k0 - k @ u.spatial if spec.kin.model == "BN" else k0


def current_fourier(spec: CurrentSpec, k, k0):
    """Fourier transform of the current at (k0, k); k0 need not be on shell.

    FGB returns the complex four-vector
        i rho~(|k|) [ v_out / (d_out + i eps) - v_in / (d_in - i eps) ],
    d_leg = k0 - uvec_leg . k for straight legs and k0 for the dipole.
    Coulomb gauge returns the transversely projected spatial part.  k may be
    a stack (m, 3) of momenta, with k0 a scalar or an (m,) array; the result
    then has one row per momentum.
    """
    k = np.asarray(k, dtype=float)
    kn = np.linalg.norm(k, axis=-1)
    if np.any(kn == 0.0):
        raise ValueError("current undefined at k = 0")
    rho = np.asarray(spec.rho(kn))
    terms = []
    for leg, sign, shift in (("out", +1.0, +1j * spec.eps),
                             ("in", -1.0, -1j * spec.eps)):
        vec, d = _leg(spec, leg, k, k0)
        d = np.asarray(d + shift)
        if np.any(d == 0):
            raise ValueError(f"current hits the {leg}-leg pole at this (k, k0)")
        terms.append(sign * vec / d[..., None])
    j4 = 1j * rho[..., None] * (terms[0] + terms[1])
    if spec.gauge == "FGB":
        return j4
    return transverse_project(k, j4[..., 1:])


def current_on_shell(spec: CurrentSpec, k):
    """Current at the photon point k0 = |k|, for one k or a stack (m, 3)."""
    k = np.asarray(k, dtype=float)
    return current_fourier(spec, k, np.linalg.norm(k, axis=-1))


def current_divergence(spec: CurrentSpec, k, t: float) -> complex:
    """Spatial Fourier transform of d_mu j^mu at time t (t = 0 excluded).

    Vanishes identically for straight-line legs; the dipole current leaks
    charge at rate i (k . p(t)/m) rho~(k), with p(t) the active leg momentum.
    """
    if t == 0.0:
        raise ValueError("divergence undefined at the kink t = 0")
    k = np.asarray(k, dtype=float)
    kn = np.linalg.norm(k)
    if spec.kin.model == "BN":
        return 0.0 + 0.0j
    leg = "out" if t > 0.0 else "in"
    p = np.asarray(spec.kin.p_out if leg == "out" else spec.kin.p_in)
    return 1j * float(k @ p) / spec.kin.mass * spec.rho(kn)


# ---------------------------------------------------------------------------
# polarization frame


def polarization_frame(k):
    """Deterministic transverse pair (e1, e2) with e1 x e2 = khat.

    Built by Gram-Schmidt from the coordinate axis least aligned with k, so
    the frame is reproducible across runs; nothing downstream depends on the
    choice because every Coulomb formula is also exposed projector-style.
    k may be an (m, 3) stack; e1 and e2 then have one row per momentum.
    """
    k = np.asarray(k, dtype=float)
    kn = np.linalg.norm(k, axis=-1, keepdims=True)
    if np.any(kn == 0.0):
        raise ValueError("no transverse frame at k = 0")
    khat = k / kn
    seed = np.eye(3)[np.argmin(np.abs(khat), axis=-1)]
    e1 = seed - khat * np.sum(khat * seed, axis=-1, keepdims=True)
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(khat, e1)
    return e1, e2


# ---------------------------------------------------------------------------
# coherence functions


def _coherence_base(spec: CurrentSpec, leg: str, k):
    """rho~ V / ((2 pi)^{3/2} sqrt(2|k|)) and the leg frequency u.k or |k|.

    V and the frequency are ``current_fourier``'s leg vector and denominator
    at k0 = |k|; the frequency keeps a trailing axis to divide V row by row.
    k may be an (m, 3) stack, giving one row per momentum.
    """
    k = np.asarray(k, dtype=float)
    kn = np.linalg.norm(k, axis=-1)
    if not np.all((spec.window.lam <= kn) & (kn <= spec.window.Lam)):
        raise ValueError("momentum outside the cutoff window")
    pref = np.asarray(spec.rho(kn) / (_NORM * np.sqrt(2.0 * kn)))
    vec, omega = _leg(spec, leg, k, kn)
    if spec.gauge == "Coulomb":
        vec = transverse_project(k, vec[1:])
    return pref[..., None] * vec, np.asarray(omega)[..., None]


def coherence_asymptotic(spec: CurrentSpec, leg: str, k):
    """Large-time limit of the leg coherence function at momentum k.

    i rho~ V / ((2 pi)^{3/2} sqrt(2|k|) omega) with V = u^mu (FGB straight
    leg), the transverse uvec (Coulomb), vtilde^mu or the transverse p/m for
    the dipole, and omega = u.k resp. |k|.  Both legs share the same limit.
    k may be an (m, 3) stack, giving one row per momentum.
    """
    base, omega = _coherence_base(spec, leg, k)
    return 1j * base / omega


def coherence_regularized(spec: CurrentSpec, leg: str, k, t: float, eps: float):
    """Finite-time coherence function with adiabatic switching eps > 0.

    base (exp((i omega - eps_eff) t) - 1) / (i omega - eps_eff), where
    eps_eff = +eps on the out leg and -eps on the in leg.  Vanishes at t = 0
    and reproduces ``coherence_asymptotic`` in the iterated limit t -> +-inf,
    eps -> 0.  k may be an (m, 3) stack, giving one row per momentum.
    """
    if not eps > 0.0:
        raise ValueError("eps must be > 0")
    base, omega = _coherence_base(spec, leg, k)
    eff = eps if leg == "out" else -eps
    rate = 1j * omega - eff
    return base * (np.exp(rate * t) - 1.0) / rate


@dataclass(frozen=True)
class CoherenceFunction:
    """Leg coherence function as a callable with its metadata attached."""

    spec: CurrentSpec
    leg: str
    kind: str = "asymptotic"
    t: float = 0.0
    eps: float = 0.0

    def __post_init__(self):
        if self.leg not in ("in", "out"):
            raise ValueError("leg must be 'in' or 'out'")
        if self.kind not in ("asymptotic", "regularized"):
            raise ValueError("kind must be 'asymptotic' or 'regularized'")

    def __call__(self, k):
        if self.kind == "asymptotic":
            return coherence_asymptotic(self.spec, self.leg, k)
        return coherence_regularized(self.spec, self.leg, k, self.t, self.eps)

    def window_norm(self) -> float:
        """Plain component-square norm Int d3k |f(k)|^2 over the window.

        |f|^2 depends on the direction only through c = cos(theta) about
        the leg velocity, so the norm is 2 pi times ``integrate_radial``
        over c in [-1, 1] (one column per |k| node) inside
        ``integrate_radial`` over |k| (panel edges at the form factor's
        knots).
        """
        v = self.spec.kin.velocity(self.leg).spatial
        xhat, yhat = polarization_frame(v if v.any() else (0.0, 0.0, 1.0))
        zhat = np.cross(xhat, yhat)

        def shell(ks):
            def ring(c):
                khat = np.outer(c, zhat) + np.outer(np.sqrt(1.0 - c * c), xhat)
                vals = self((khat[:, None, :] * ks[:, None]).reshape(-1, 3))
                return np.sum(np.abs(vals) ** 2, axis=-1).reshape(
                    len(c), len(ks))
            return ks ** 2 * integrate_radial(ring, -1.0, 1.0)

        win = self.spec.window
        return 2.0 * np.pi * float(np.real(integrate_radial(
            shell, win.lam, win.Lam, breaks=self.spec.rho.knots())))


# ---------------------------------------------------------------------------
# accumulated phase of the dressing transformation


def phase_exponent_d(u: FourVelocity, t: float, eps: float, rho: FormFactor,
                     window: CutoffWindow) -> float:
    """Accumulated phase integral d^(eps)(t) of a leg with velocity u.

        d = - Int_{k in window} d3k rho~^2 / ((2 pi)^3 k ((u.k)^2 + eps^2))
              * [ e^{-eps t} sin(u.k t) + (u.k / (2 eps)) (e^{-2 eps t} - 1) ]

    Defined for t >= 0, eps > 0; d(0) = 0 exactly.  The bracket is <= 0 for
    t >= 0, so d is non-negative, grows monotonically and saturates at a
    finite eps-dependent value.  d leaves out the charge^2 and the u^2 of
    the leg: the FGB dressing phase of a leg is e^2 u^2 d / 2.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if not eps > 0.0:
        raise ValueError("eps must be > 0")
    if t == 0.0:
        return 0.0

    def bracket(omega):
        return (np.exp(-eps * t) * np.sin(omega * t)
                + omega / (2.0 * eps) * (np.expm1(-2.0 * eps * t)))

    def radial(ks):
        # the kernel depends on khat only through c = cos(theta) about u
        def kernel(c):
            omega = np.multiply.outer(1.0 - u.beta * c, ks)
            return bracket(omega) / (omega ** 2 + eps ** 2)
        return rho(ks) ** 2 * ks * integrate_radial(kernel, -1.0, 1.0)

    val = integrate_radial(radial, window.lam, window.Lam, breaks=rho.knots())
    return float(np.real(val)) * (-1.0 / (4.0 * np.pi ** 2))
