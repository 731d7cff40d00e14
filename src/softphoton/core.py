"""Kinematic primitives shared by every other module.

Natural units throughout: c = 1, photon momenta are plain 3-vectors, and a
velocity u is stored through its spatial part with u0 = 1, so the invariant
square is u2 = 1 - |uvec|^2.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FormFactor",
    "CutoffWindow",
    "FourVelocity",
    "ScatteringKinematics",
    "on_shell_dot",
    "transverse_project",
    "transverse_projector",
    "velocity_from_momentum",
]


# ---------------------------------------------------------------------------
# form factors


@dataclass(frozen=True)
class FormFactor:
    """Spherical, real, non-negative momentum-space profile rho~(|k|).

    Three kinds are supported:

    * ``sharp``     -- exactly 1 on [lam, Lam] and exactly 0 outside,
    * ``gaussian``  -- exp(-k^2 / (2 sigma^2)), sigma > 0,
    * ``tabulated`` -- linear interpolation of radial samples, 0 outside
      the sampled range.

    Instances are callable on scalars or arrays of momentum magnitudes.
    """

    kind: str
    sigma: float = 0.0
    lam: float = 0.0
    Lam: float = 0.0
    table_k: tuple = ()
    table_v: tuple = ()

    @classmethod
    def sharp(cls, lam: float, Lam: float) -> "FormFactor":
        if not (0.0 < lam < Lam):
            raise ValueError("sharp window needs 0 < lam < Lam")
        return cls(kind="sharp", lam=float(lam), Lam=float(Lam))

    @classmethod
    def gaussian(cls, sigma: float) -> "FormFactor":
        if not sigma > 0.0:
            raise ValueError("gaussian width must be positive")
        return cls(kind="gaussian", sigma=float(sigma))

    @classmethod
    def tabulated(cls, k_samples, values) -> "FormFactor":
        ks = np.asarray(k_samples, dtype=float)
        vs = np.asarray(values, dtype=float)
        if ks.ndim != 1 or ks.shape != vs.shape or ks.size < 2:
            raise ValueError("tabulated form factor needs matching 1d samples")
        if np.any(np.diff(ks) <= 0.0) or ks[0] < 0.0:
            raise ValueError("radial sample points must be increasing and >= 0")
        if np.any(~np.isfinite(vs)) or np.any(vs < 0.0):
            raise ValueError("form factor values must be finite and >= 0")
        # plain floats: an overflowing moment reaches its finiteness check
        # as inf, without a numpy RuntimeWarning
        return cls(kind="tabulated", table_k=tuple(ks.tolist()),
                   table_v=tuple(vs.tolist()))

    def __call__(self, k):
        k = np.asarray(k, dtype=float)
        if self.kind == "sharp":
            out = np.where((k >= self.lam) & (k <= self.Lam), 1.0, 0.0)
        elif self.kind == "gaussian":
            out = np.exp(-0.5 * (k / self.sigma) ** 2)
        elif self.kind == "tabulated":
            out = np.interp(k, self.table_k, self.table_v, left=0.0, right=0.0)
        else:  # pragma: no cover - constructors forbid this
            raise ValueError(f"unknown form factor kind {self.kind!r}")
        return out if out.ndim else float(out)

    def knots(self) -> tuple:
        """Radii where the profile is not smooth; integrators split there."""
        if self.kind == "sharp":
            return (self.lam, self.Lam)
        if self.kind == "tabulated":
            return self.table_k
        return ()


@dataclass(frozen=True)
class CutoffWindow:
    """Radial integration window [lam, Lam]."""

    lam: float
    Lam: float

    def __post_init__(self):
        if not (0.0 < self.lam < self.Lam):
            raise ValueError("window needs 0 < lam < Lam")


# ---------------------------------------------------------------------------
# velocities and kinematics


@dataclass(frozen=True)
class FourVelocity:
    """Velocity normalized to u0 = 1; strictly sub-luminal spatial part."""

    spatial_t: tuple

    def __init__(self, spatial):
        v = np.asarray(spatial, dtype=float)
        if v.shape != (3,):
            raise ValueError("spatial velocity must be a 3-vector")
        if not np.dot(v, v) < 1.0:
            raise ValueError("|uvec| must be < 1")
        object.__setattr__(self, "spatial_t", tuple(v))

    @classmethod
    def rest(cls) -> "FourVelocity":
        return cls((0.0, 0.0, 0.0))

    @property
    def spatial(self) -> np.ndarray:
        return np.array(self.spatial_t)

    @property
    def u0(self) -> float:
        return 1.0

    @property
    def beta(self) -> float:
        return float(np.linalg.norm(self.spatial_t))

    @property
    def squared(self) -> float:
        # Minkowski square 1 - |uvec|^2, in (0, 1]
        return 1.0 - float(np.dot(self.spatial_t, self.spatial_t))

    def four(self) -> np.ndarray:
        return np.array([1.0, *self.spatial_t])


def velocity_from_momentum(p, m: float) -> FourVelocity:
    """Velocity (1, p/m) of a nonrelativistic leg; requires |p| < m."""
    p = np.asarray(p, dtype=float)
    if not m > 0.0:
        raise ValueError("mass must be positive")
    if np.linalg.norm(p) >= m:
        raise ValueError("|p| must stay below m")
    return FourVelocity(p / m)


@dataclass(frozen=True)
class ScatteringKinematics:
    """In/out data for the two solvable models.

    model "BN": straight-line legs with velocities u_in, u_out.
    model "dipole": nonrelativistic legs with momenta p_in, p_out and mass m;
    the legs enter only through vtilde = (1, p/m).
    """

    model: str
    charge: float
    u_in: FourVelocity | None = None
    u_out: FourVelocity | None = None
    p_in: tuple | None = None
    p_out: tuple | None = None
    mass: float | None = None

    eta_in = -1.0
    eta_out = +1.0

    def __post_init__(self):
        if self.model == "BN":
            if self.u_in is None or self.u_out is None:
                raise ValueError("BN kinematics needs u_in and u_out")
            legs = (self.u_in, self.u_out)
        elif self.model == "dipole":
            if self.p_in is None or self.p_out is None or self.mass is None:
                raise ValueError("dipole kinematics needs p_in, p_out, mass")
            # validates |p| < m on both legs
            legs = (velocity_from_momentum(self.p_in, self.mass),
                    velocity_from_momentum(self.p_out, self.mass))
            object.__setattr__(self, "p_in", tuple(float(x) for x in self.p_in))
            object.__setattr__(self, "p_out", tuple(float(x) for x in self.p_out))
        else:
            raise ValueError("model must be 'BN' or 'dipole'")
        if not np.isfinite(self.charge):
            raise ValueError("charge must be finite")
        # leg velocities are fixed by the fields: built and validated once
        object.__setattr__(self, "_legs", dict(zip(("in", "out"), legs)))

    @classmethod
    def bn(cls, u_in, u_out, charge: float) -> "ScatteringKinematics":
        if not isinstance(u_in, FourVelocity):
            u_in = FourVelocity(u_in)
        if not isinstance(u_out, FourVelocity):
            u_out = FourVelocity(u_out)
        return cls(model="BN", charge=float(charge), u_in=u_in, u_out=u_out)

    @classmethod
    def dipole(cls, p_in, p_out, mass: float, charge: float) -> "ScatteringKinematics":
        return cls(
            model="dipole",
            charge=float(charge),
            p_in=tuple(np.asarray(p_in, dtype=float)),
            p_out=tuple(np.asarray(p_out, dtype=float)),
            mass=float(mass),
        )

    def velocity(self, leg: str) -> FourVelocity:
        """Leg velocity: u for BN, vtilde = (1, p/m) for the dipole."""
        if leg not in ("in", "out"):
            raise ValueError("leg must be 'in' or 'out'")
        return self._legs[leg]

    @property
    def degenerate(self) -> bool:
        return self._legs["in"].spatial_t == self._legs["out"].spatial_t

    def replace(self, **kw) -> "ScatteringKinematics":
        return dataclasses.replace(self, **kw)


# ---------------------------------------------------------------------------
# elementary geometry


def on_shell_dot(u: FourVelocity, k) -> float:
    """Minkowski product u.k with k on the photon shell, k0 = |k|.

    Equals |k| (1 - uvec . khat), strictly positive for |uvec| < 1.
    """
    k = np.asarray(k, dtype=float)
    kn = float(np.linalg.norm(k))
    if kn == 0.0:
        raise ValueError("on_shell_dot undefined at k = 0")
    return kn - float(np.dot(u.spatial, k))


def transverse_project(k, v) -> np.ndarray:
    """Component of v orthogonal to k: v - khat (khat . v).

    Row by row when k is an (m, 3) stack; v may be one vector or m rows.
    """
    k = np.asarray(k, dtype=float)
    v = np.asarray(v)
    kn = np.linalg.norm(k, axis=-1, keepdims=True)
    if np.any(kn == 0.0):
        raise ValueError("cannot project transverse to k = 0")
    khat = k / kn
    return v - khat * np.sum(khat * v, axis=-1, keepdims=True)


def transverse_projector(k) -> np.ndarray:
    """3x3 matrix P(khat) = 1 - khat khat^T."""
    k = np.asarray(k, dtype=float)
    kn = np.linalg.norm(k)
    if kn == 0.0:
        raise ValueError("cannot project transverse to k = 0")
    khat = k / kn
    return np.eye(3) - np.outer(khat, khat)
