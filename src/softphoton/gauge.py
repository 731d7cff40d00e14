"""Subsidiary condition, null quotient, and the transverse isomorphism.

Grid photon functions in the four-component gauge are selected by the linear
condition kbar.f = 0 with kbar = (|k|, k).  Physical functions map to the
transverse Coulomb space through t(f) = f_vec - khat f0, which kills null
(pure gauge) functions f = kbar h and preserves inner products:

    <f, g>_minus = sum_i w_i (conj(f_vec).g_vec - conj(f0) g0)

equals the plain transverse product of the images.  Product states map
factor-wise; their inner products are permanents of the pairwise ones.

The longitudinal Green's function of the gauge-fixed potential is realized
purely in momentum space as 1/|k|^2; no position-space convolution appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

# not called here; perfbench/tracer.py counts calls at this name
from .core import transverse_projector
from .currents import CurrentSpec, current_on_shell, polarization_frame
from .fock import ModeGrid

__all__ = [
    "PhotonSmearing",
    "gupta_residual",
    "t_map",
    "t_map_state",
    "minus_product",
    "coulomb_product",
    "product_inner",
    "state_inner",
    "polarization_components",
    "vector_from_components",
    "GaugeFixedPairing",
    "gauge_fixed_pairing",
]


@dataclass(frozen=True)
class PhotonSmearing:
    """Complex photon function on a mode grid.

    FGB grids carry four-vector values (n_nodes, 4) in (t, x, y, z) order;
    Coulomb grids carry transverse 3-vector values (n_nodes, 3).
    """

    grid: ModeGrid
    values: np.ndarray

    def __init__(self, grid: ModeGrid, values):
        values = np.asarray(values, dtype=complex)
        width = 4 if grid.gauge == "FGB" else 3
        if values.shape != (grid.n_nodes, width):
            raise ValueError(f"values must have shape ({grid.n_nodes}, {width}) "
                             f"for a {grid.gauge} grid")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @classmethod
    def pure_gauge(cls, grid: ModeGrid, h) -> "PhotonSmearing":
        """Null smearing f = kbar h for a scalar function h on the nodes."""
        h = np.asarray(h, dtype=complex)
        if h.shape != (grid.n_nodes,):
            raise ValueError("h must give one scalar per node")
        nodes = np.asarray(grid.nodes)
        norms = np.linalg.norm(nodes, axis=1)
        vals = np.empty((grid.n_nodes, 4), dtype=complex)
        vals[:, 0] = norms * h
        vals[:, 1:] = nodes * h[:, None]
        return cls(grid, vals)


def gupta_residual(f: PhotonSmearing) -> float:
    """max over nodes of |kbar.f| = ||k| f0 - k.f_vec|; 0 iff physical."""
    if f.grid.gauge != "FGB":
        raise ValueError("subsidiary condition applies to FGB smearings")
    nodes = np.asarray(f.grid.nodes)
    norms = np.linalg.norm(nodes, axis=1)
    resid = norms * f.values[:, 0] - np.einsum("ij,ij->i", nodes, f.values[:, 1:])
    return float(np.max(np.abs(resid)))


def t_map(f: PhotonSmearing, tol: float = 1e-10) -> np.ndarray:
    """Canonical transverse representative t = f_vec - k (f0 / |k|).

    Rejects non-physical input.  Null functions f = kbar h come out exactly
    zero whenever the node magnitude |k| is floating-point exact (axis nodes,
    dyadic Pythagorean nodes), since then f0/|k| reproduces h bit for bit.
    """
    resid = gupta_residual(f)
    if resid > tol:
        raise ValueError(f"subsidiary condition violated: residual {resid:.3e}")
    nodes = np.asarray(f.grid.nodes)
    norms = np.linalg.norm(nodes, axis=1)
    scale = f.values[:, 0] / norms
    return f.values[:, 1:] - nodes * scale[:, None]


def minus_product(f: PhotonSmearing, g: PhotonSmearing) -> complex:
    """<f, g>_minus = sum_i w_i (conj(f_vec).g_vec - conj(f0) g0)."""
    if f.grid is not g.grid and f.grid != g.grid:
        raise ValueError("smearings live on different grids")
    w = np.asarray(f.grid.weights)
    spatial = np.einsum("ij,ij->i", np.conj(f.values[:, 1:]), g.values[:, 1:])
    temporal = np.conj(f.values[:, 0]) * g.values[:, 0]
    return complex(np.sum(w * (spatial - temporal)))


def coulomb_product(t, s, grid: ModeGrid) -> complex:
    """Plain weighted product sum_i w_i conj(t_i).s_i of 3-vector functions."""
    t = np.asarray(t, dtype=complex)
    s = np.asarray(s, dtype=complex)
    w = np.asarray(grid.weights)
    return complex(np.sum(w * np.einsum("ij,ij->i", np.conj(t), s)))


def _permanent(mat: np.ndarray) -> complex:
    n = mat.shape[0]
    return complex(sum(np.prod(mat[range(n), perm])
                       for perm in permutations(range(n))))


def product_inner(photons_a, photons_b, pairwise) -> complex:
    """Inner product of two product states via the permanent of pairings.

    ``pairwise(f, g)`` supplies the one-photon inner product; n != m pairs
    are orthogonal.
    """
    if len(photons_a) != len(photons_b):
        return 0.0 + 0.0j
    if not photons_a:
        return 1.0 + 0.0j
    mat = np.array([[pairwise(fa, fb) for fb in photons_b]
                    for fa in photons_a])
    return _permanent(mat)


def state_inner(terms_a, terms_b, pairwise) -> complex:
    """Sesquilinear extension to combinations [(coeff, photon tuple), ...]."""
    total = 0.0 + 0.0j
    for ca, pa in terms_a:
        for cb, pb in terms_b:
            total += np.conj(ca) * cb * product_inner(pa, pb, pairwise)
    return total


def t_map_state(terms, tol: float = 1e-10):
    """Factor-wise transverse map on combinations of product states.

    Input terms are (coeff, tuple of physical PhotonSmearing); output terms
    carry the transverse 3-vector arrays.  Non-physical factors are rejected
    by t_map.
    """
    return [(coeff, tuple(t_map(f, tol) for f in photons))
            for coeff, photons in terms]


def polarization_components(grid: ModeGrid, t) -> np.ndarray:
    """Transverse 3-vectors to (n_nodes, 2) polarization coefficients."""
    t = np.asarray(t, dtype=complex)
    return np.stack([np.sum(e * t, axis=1) for e in grid.transverse_frames()],
                    axis=1)


def vector_from_components(grid: ModeGrid, comp) -> np.ndarray:
    """(n_nodes, 2) polarization coefficients to transverse 3-vectors."""
    comp = np.asarray(comp, dtype=complex)
    e1, e2 = grid.transverse_frames()
    return comp[:, :1] * e1 + comp[:, 1:] * e2


@dataclass(frozen=True)
class GaugeFixedPairing:
    """Pairing of an on-shell current with a gauge-fixed potential smearing.

    total = transverse_part + longitudinal_part;
    longitudinal_per_node holds the summands w conj(kbar.j) (k.f)/|k|^2,
    which vanish node by node for a conserved current.
    """

    total: complex
    transverse_part: complex
    longitudinal_part: complex
    longitudinal_per_node: np.ndarray


def gauge_fixed_pairing(spec: CurrentSpec, f: PhotonSmearing) -> GaugeFixedPairing:
    """Pair the model current with f through the gauge-fixed potential map.

    In momentum space the map sends f_vec to P(khat) f_vec plus the
    longitudinal bookkeeping kbar (k.f_vec)/|k|^2, so the pairing splits as
    sum_i w_i [conj(P j_vec).f_vec + conj(kbar.j) (k.f_vec)/|k|^2].
    """
    if f.grid.gauge != "FGB":
        raise ValueError("gauge fixing acts on four-vector smearings")
    nodes = np.asarray(f.grid.nodes)
    w = np.asarray(f.grid.weights)
    j4 = current_on_shell(spec.replace_gauge("FGB"), nodes)
    jv, fv = j4[:, 1:], f.values[:, 1:]
    kn2 = np.einsum("ij,ij->i", nodes, nodes)
    k_dot_j = np.einsum("ij,ij->i", nodes, jv)
    k_dot_f = np.einsum("ij,ij->i", nodes, fv)
    # conj(P j_vec).f_vec = conj(j_vec).f_vec - conj(k.j_vec) (k.f_vec)/|k|^2
    transverse = complex(np.sum(w * (np.einsum("ij,ij->i", np.conj(jv), fv)
                                     - np.conj(k_dot_j) * k_dot_f / kn2)))
    kbar_dot_j = np.sqrt(kn2) * j4[:, 0] - k_dot_j
    longitudinal = w * np.conj(kbar_dot_j) * k_dot_f / kn2
    long_total = complex(np.sum(longitudinal))
    return GaugeFixedPairing(total=transverse + long_total,
                             transverse_part=transverse,
                             longitudinal_part=long_total,
                             longitudinal_per_node=longitudinal)
