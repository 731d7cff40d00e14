"""Observable assembly: vacuum amplitudes, emission factors, gauge reports.

The displacement profile F(k) = -j(k) / ((2 pi)^(3/2) sqrt(2|k|)) built from
the on-shell current drives everything: the vacuum amplitude is
exp(e^2 <F,F>_sigma / 2) = exp(m_exponent.total), and each emitted photon f
contributes the factor -i e <f, F>_sigma.  That one formula has two
evaluations: an adaptive integral Int d3k over the window for a photon
callable, and an exact weighted sum on a mode grid for a PhotonSmearing.
Both pair the photon with the same stacked ``displacement_profile`` under
the channel metric sigma: (+, -, -, -) on FGB four-vectors, -1 on each
Coulomb component.  Grid mode uses the same nodes and weights as the
truncated-Fock oracle so comparisons isolate operator algebra rather than
quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    CutoffWindow,
    FormFactor,
    FourVelocity,
    ScatteringKinematics,
    # not called here; perfbench/tracer.py counts calls at these names
    on_shell_dot,
    transverse_projector,
)
from .currents import _NORM, CurrentSpec, current_on_shell
from .fock import ModeGrid, TruncatedFockSpace, emission_matrix_element
from .gauge import PhotonSmearing, polarization_components
from .quadrature import (
    CorrectionExponent,
    b_ir,
    counterterm_phase,
    integrate_radial,
    integrate_sphere,
    m_exponent,
    unren_halfline_exponent,
)

__all__ = [
    "displacement_profile",
    "displacement_profile_grid",
    "fock_channels",
    "m_exponent_grid",
    "vacuum_amplitude",
    "emission_factor",
    "AmplitudeReport",
    "full_amplitude",
    "GaugeComparison",
    "gauge_compare",
    "log_ratio",
    "LedgerRow",
    "RenormalizationLedger",
    "renormalization_ledger",
]


def displacement_profile(kin: ScatteringKinematics, gauge: str,
                         rho: FormFactor, window: CutoffWindow,
                         k) -> np.ndarray:
    """F(k) = -j_onshell(k) / ((2 pi)^(3/2) sqrt(2|k|)), zero off window.

    ``k`` is one momentum or an (m, 3) stack; a stack gives one row per
    momentum, from one current evaluation over the rows inside the window.
    """
    k = np.asarray(k, dtype=float)
    kn = np.linalg.norm(k, axis=-1)
    inside = (window.lam <= kn) & (kn <= window.Lam)
    F = np.zeros(k.shape[:-1] + (4 if gauge == "FGB" else 3,), dtype=complex)
    if np.any(inside):
        spec = CurrentSpec(kin, gauge, rho, window)
        F[inside] = -current_on_shell(spec, k[inside]) / (
            _NORM * np.sqrt(2.0 * kn[inside]))[..., None]
    return F


def displacement_profile_grid(kin: ScatteringKinematics, gauge: str,
                              rho: FormFactor, window: CutoffWindow,
                              grid: ModeGrid) -> np.ndarray:
    """Profile sampled on the grid nodes, as (n_nodes, 4 or 3) vectors."""
    return displacement_profile(kin, gauge, rho, window,
                                np.asarray(grid.nodes))


def fock_channels(grid: ModeGrid, values: np.ndarray) -> np.ndarray:
    """Vector values per node to the grid's channel layout.

    FGB channels are the plain (t, x, y, z) components; Coulomb channels are
    the two polarization coefficients of the transverse 3-vector.
    """
    values = np.asarray(values, dtype=complex)
    if grid.gauge == "FGB":
        if values.shape != (grid.n_nodes, 4):
            raise ValueError("FGB grid expects (n_nodes, 4) values")
        return values
    if values.shape != (grid.n_nodes, 3):
        raise ValueError("Coulomb grid expects (n_nodes, 3) values")
    return polarization_components(grid, values)


def m_exponent_grid(kin: ScatteringKinematics, gauge: str, rho: FormFactor,
                    window: CutoffWindow, grid: ModeGrid) -> complex:
    """Grid-discretized correction exponent e^2 <F, F>_sigma / 2."""
    F = fock_channels(grid, displacement_profile_grid(kin, gauge, rho,
                                                      window, grid))
    return _grid_exponent(kin.charge, grid, F)


def _grid_exponent(charge: float, grid: ModeGrid, F) -> complex:
    # e^2 <F, F>_sigma / 2 of a channel-layout profile
    return 0.5 * charge ** 2 * grid.signed_product(F, F)


def _grid_profile(kin: ScatteringKinematics, gauge: str, rho: FormFactor,
                  window: CutoffWindow, grid: ModeGrid) -> np.ndarray:
    """Channel-layout profile on the grid of a grid photon, checked first.

    The grid must be of the requested gauge and lie inside the window.
    """
    if grid.gauge != gauge:
        raise ValueError("photon grid gauge does not match requested gauge")
    kn = np.linalg.norm(np.asarray(grid.nodes), axis=1)
    if not np.all((window.lam <= kn) & (kn <= window.Lam)):
        raise ValueError("photon support extends outside the window")
    return fock_channels(grid, displacement_profile_grid(kin, gauge, rho,
                                                         window, grid))


def _grid_factor(charge: float, grid: ModeGrid, f, F) -> complex:
    # -i e <f, F>_sigma of channel-layout photon and profile
    return -1j * charge * grid.signed_product(f, F)


def vacuum_amplitude(kin: ScatteringKinematics, gauge: str, rho: FormFactor,
                     window: CutoffWindow) -> complex:
    """exp(m_exponent.total) at epsilon = 0; real, in (0, 1]."""
    return complex(np.exp(m_exponent(kin, gauge, rho, window).total))


def emission_factor(kin: ScatteringKinematics, gauge: str, photon,
                    rho: FormFactor, window: CutoffWindow) -> complex:
    """Single-photon emission factor -i e <f, F>_sigma.

    Both branches pair conj(f) with the displacement profile F under the
    channel metric sigma, (+, -, -, -) in FGB and -1 per component in
    Coulomb.  ``photon`` is either a PhotonSmearing (exact weighted sum
    Sum_i w_i <f_i, F(k_i)>_sigma on its grid, the matched-oracle mode) or a
    callable k -> components taking one momentum (adaptive quadrature of
    Int d3k <f(k), F(k)>_sigma over the window; each stack of sphere
    directions gets one stacked profile evaluation).
    """
    if isinstance(photon, PhotonSmearing):
        grid = photon.grid
        F = _grid_profile(kin, gauge, rho, window, grid)
        return _grid_factor(kin.charge, grid,
                            fock_channels(grid, photon.values), F)

    metric = (np.array([1.0, -1.0, -1.0, -1.0]) if gauge == "FGB"
              else -np.ones(3))
    v_out, v_in = kin.velocity("out").spatial, kin.velocity("in").spatial

    def sphere_part(kn: float) -> complex:
        def kernel(khat):
            ks = kn * khat
            fbar = np.conj(np.array([photon(k) for k in ks], dtype=complex))
            F = displacement_profile(kin, gauge, rho, window, ks)
            return (fbar * F) @ metric

        return integrate_sphere(kernel, v_out, v_in)

    def radial_fn(ks: np.ndarray) -> np.ndarray:
        return ks ** 2 * np.array([sphere_part(float(k)) for k in ks])

    return -1j * kin.charge * integrate_radial(
        radial_fn, window.lam, window.Lam, breaks=rho.knots())


@dataclass(frozen=True)
class AmplitudeReport:
    """Vacuum amplitude, per-photon factors, and their exact product.

    ``total`` = vacuum_amplitude x prod(emission_factors) by construction;
    the nontrivial content is ``oracle_value`` agreement when a matched-grid
    truncated-Fock computation was requested (then ``oracle_grid_total`` is
    the same product with the vacuum part discretized on the oracle grid,
    the quantity the oracle actually measures).
    """

    model: str
    gauge: str
    window: CutoffWindow
    kinematics: ScatteringKinematics
    vacuum_amplitude: complex
    exponent: CorrectionExponent
    emission_factors: tuple
    total: complex
    oracle_value: complex | None = None
    oracle_grid_total: complex | None = None
    oracle_dim: int | None = None


def full_amplitude(kin: ScatteringKinematics, gauge: str, photons,
                   rho: FormFactor, window: CutoffWindow,
                   oracle_cap: int | None = None) -> AmplitudeReport:
    """Assemble vacuum x product of emission factors, optionally with oracle.

    With ``oracle_cap`` every photon must be a PhotonSmearing on one shared
    grid; the truncated-Fock matrix element on that grid (displacement
    operator with its vacuum part) lands in ``oracle_value``.

    Grid photons give the same factor as ``emission_factor``, from one
    channel-layout profile per distinct grid and one channel array per
    photon; the oracle and its grid vacuum exponent reuse both.
    """
    exponent = m_exponent(kin, gauge, rho, window)
    vacuum = complex(np.exp(exponent.total))
    profiles = {}  # grid -> channel-layout displacement profile
    channels = []  # each grid photon's channel array
    factors = []
    for p in photons:
        if not isinstance(p, PhotonSmearing):
            factors.append(emission_factor(kin, gauge, p, rho, window))
            continue
        if p.grid not in profiles:
            profiles[p.grid] = _grid_profile(kin, gauge, rho, window, p.grid)
        channels.append(fock_channels(p.grid, p.values))
        factors.append(_grid_factor(kin.charge, p.grid, channels[-1],
                                    profiles[p.grid]))
    factors = tuple(factors)
    total = vacuum * np.prod(factors) if factors else vacuum
    oracle_value = None
    grid_total = None
    oracle_dim = None
    if oracle_cap is not None:
        if not photons or not all(isinstance(p, PhotonSmearing)
                                  for p in photons):
            raise ValueError("oracle mode needs grid photons")
        grid = photons[0].grid
        if any(p.grid != grid for p in photons[1:]):
            raise ValueError("oracle mode needs a single shared grid")
        space = TruncatedFockSpace(grid, oracle_cap)
        F = profiles[grid]
        oracle_value = emission_matrix_element(
            channels, F, kin.charge, space, include_vacuum_part=True)
        grid_vacuum = np.exp(_grid_exponent(kin.charge, grid, F))
        grid_total = complex(grid_vacuum * np.prod(factors))
        oracle_dim = space.dim
    return AmplitudeReport(model=kin.model, gauge=gauge, window=window,
                           kinematics=kin, vacuum_amplitude=vacuum,
                           exponent=exponent, emission_factors=factors,
                           total=complex(total), oracle_value=oracle_value,
                           oracle_grid_total=grid_total,
                           oracle_dim=oracle_dim)


@dataclass(frozen=True)
class GaugeComparison:
    """Correction exponents in both gauges with the conservation diagnostic.

    log_ratio = m_fgb / m_coulomb (real parts).  It is NaN when degenerate:
    equal leg velocities, or a Coulomb exponent that is exactly zero; the
    test does not depend on the charge, which scales both exponents.  The
    conservation residual max |kbar.j| over sampled nodes is what drives any
    difference: zero for the BN current, positive for the dipole.
    """

    m_fgb: complex
    m_coulomb: complex
    log_ratio: float
    degenerate: bool
    conservation_residual: float


@lru_cache(maxsize=64)
def _residual_probe(seed: int):
    """Unit directions and uniform variates of the 8 residual probe points.

    Drawn as the probe loop draws them, a normal 3-vector then one
    ``random()`` per point, so k = direction (lam + (Lam - lam) U) equals
    ``direction * rng.uniform(lam, Lam)`` bit for bit.  A sweep's windows
    share one draw per seed; the arrays are read-only.
    """
    rng = np.random.default_rng(seed)
    directions = np.empty((8, 3))
    fractions = np.empty(8)
    for i in range(8):
        direction = rng.normal(size=3)
        directions[i] = direction / np.linalg.norm(direction)
        fractions[i] = rng.random()
    directions.flags.writeable = False
    fractions.flags.writeable = False
    return directions, fractions


def log_ratio(kin: ScatteringKinematics, m_fgb: float, m_coul: float) -> float:
    """m_fgb / m_coul of real exponent totals, NaN when degenerate.

    Degenerate means equal leg velocities or a Coulomb exponent that is
    exactly zero.
    """
    if kin.degenerate or m_coul == 0.0:
        return float("nan")
    return m_fgb / m_coul


def gauge_compare(kin: ScatteringKinematics, rho: FormFactor,
                  window: CutoffWindow, seed: int = 0) -> GaugeComparison:
    m_fgb = m_exponent(kin, "FGB", rho, window).total
    m_coul = m_exponent(kin, "Coulomb", rho, window).total
    ratio = log_ratio(kin, m_fgb.real, m_coul.real)
    directions, fractions = _residual_probe(seed)
    ks = directions * (window.lam
                       + (window.Lam - window.lam) * fractions)[:, None]
    j4 = current_on_shell(CurrentSpec(kin, "FGB", rho, window), ks)
    kn = np.linalg.norm(ks, axis=1)
    residual = np.abs(kn * j4[:, 0] - np.einsum("ij,ij->i", ks, j4[:, 1:]))
    residual = residual.max(initial=0.0)
    return GaugeComparison(m_fgb=m_fgb, m_coulomb=m_coul, log_ratio=ratio,
                           degenerate=math.isnan(ratio),
                           conservation_residual=float(residual))


@dataclass(frozen=True)
class LedgerRow:
    eps: float
    unrenormalized: complex
    counterterm: complex
    total: complex


def _parity_fit(eps: np.ndarray, vals: np.ndarray, odd: bool) -> np.ndarray:
    # coefficients of sum_j c_j eps^(2j [+1]); c_0 is the extrapolant
    powers = 2 * np.arange(len(eps)) + (1 if odd else 0)
    return np.linalg.solve(np.power.outer(eps, powers), vals)


@dataclass(frozen=True)
class RenormalizationLedger:
    """Unrenormalized exponent + counterterm phase down an epsilon ladder.

    The summed column has an even real part and an odd imaginary part in
    epsilon, so the ladder is extrapolated with parity-matched bases: the
    real part in {1, eps^2, eps^4, ...} and the imaginary part in
    {eps, eps^3, ...}, which vanishes at eps = 0 with leading slope
    ``imag_slope``.  The extrapolated value is compared against the
    adiabatic-limit target -e^2 b_ir / 2.
    """

    rows: tuple
    extrapolated: complex
    imag_slope: float
    target: float
    relative_error: float


def renormalization_ledger(u: FourVelocity, eps_ladder, rho: FormFactor,
                           window: CutoffWindow, *, charge: float
                           ) -> RenormalizationLedger:
    eps_arr = np.asarray([float(e) for e in eps_ladder])
    if len(eps_arr) == 0 or not np.all(np.isfinite(eps_arr) & (eps_arr > 0)):
        raise ValueError("epsilon ladder must be finite and positive")
    if np.any(np.diff(eps_arr) >= 0.0):
        raise ValueError("epsilon ladder must be strictly decreasing")
    rows = []
    for eps in eps_arr:
        unren = unren_halfline_exponent(u, float(eps), rho, window,
                                        charge=charge)
        phase = counterterm_phase(u, float(eps), rho, window, charge=charge)
        rows.append(LedgerRow(eps=float(eps), unrenormalized=unren,
                              counterterm=phase, total=unren + phase))
    totals = np.array([r.total for r in rows])
    extrapolated = complex(_parity_fit(eps_arr, totals.real, odd=False)[0])
    imag_slope = float(_parity_fit(eps_arr, totals.imag, odd=True)[0])
    target = -charge ** 2 * b_ir(u, rho, window) / 2.0
    if target == 0.0:
        rel = 0.0 if abs(extrapolated) == 0.0 else float("inf")
    else:
        rel = abs(extrapolated - target) / abs(target)
    return RenormalizationLedger(rows=tuple(rows), extrapolated=extrapolated,
                                 imag_slope=imag_slope, target=float(target),
                                 relative_error=float(rel))
