"""Truncated Fock space with indefinite metric, used as a numerical oracle.

Each grid node carries either four Feynman-gauge channels (one temporal with
commutator sign -1, three spatial with +1) or two transverse Coulomb channels
(both +1).  Ladder operators act on occupation-number states capped at N per
channel; the signed commutation relations hold exactly below the cap, which
is what makes the space usable as an oracle for the closed forms.

Sign bookkeeping used throughout: s_c is the channel commutator sign, the
smeared product is <f, g>_sigma = sum_i w_i sum_c sigma_c conj(f) g with
sigma_c = -s_c, and [a(fbar), a*(g)] = -<f, g>_sigma.  The state-side Gram
matrix eta is diagonal with entries (-1)^(total temporal occupation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .core import CutoffWindow
from .currents import polarization_frame

__all__ = [
    "FockTruncationError",
    "ModeGrid",
    "TruncatedFockSpace",
    "StateVector",
    "displacement_vacuum_expectation",
    "displacement_vacuum_channelwise",
    "displacement_truncation_deviation",
    "weyl_operator",
    "bch_check",
    "emission_matrix_element",
]

MAX_DENSE_DIM = 4608


class FockTruncationError(RuntimeError):
    """Truncation-error estimate exceeded the requested tolerance."""


@dataclass(frozen=True)
class ModeGrid:
    """Finite set of photon momenta with positive weights and gauge channels."""

    nodes: tuple
    weights: tuple
    gauge: str

    def __init__(self, nodes, weights, gauge, window: CutoffWindow | None = None):
        nodes = tuple(tuple(float(x) for x in node) for node in nodes)
        weights = tuple(float(w) for w in weights)
        if gauge not in ("FGB", "Coulomb"):
            raise ValueError("gauge must be 'FGB' or 'Coulomb'")
        if len(nodes) != len(weights) or not nodes:
            raise ValueError("need matching, non-empty nodes and weights")
        if any(w <= 0.0 for w in weights):
            raise ValueError("weights must be positive")
        if len(set(nodes)) != len(nodes):
            raise ValueError("grid nodes must be distinct")
        if window is not None:
            for node in nodes:
                kn = float(np.linalg.norm(node))
                if not (window.lam <= kn <= window.Lam):
                    raise ValueError("grid node outside the cutoff window")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "gauge", gauge)

    @classmethod
    def radial(cls, window: CutoffWindow, n: int, gauge: str,
               direction=(0.0, 0.0, 1.0)) -> "ModeGrid":
        """Gauss-Legendre radial nodes along one direction."""
        x, w = np.polynomial.legendre.leggauss(n)
        mid = 0.5 * (window.lam + window.Lam)
        half = 0.5 * (window.Lam - window.lam)
        d = np.asarray(direction, dtype=float)
        d /= np.linalg.norm(d)
        ks = mid + half * x
        return cls([k * d for k in ks], half * w, gauge, window)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def channels_per_node(self) -> int:
        return 4 if self.gauge == "FGB" else 2

    @property
    def n_channels(self) -> int:
        return self.n_nodes * self.channels_per_node

    def channel_signs(self) -> np.ndarray:
        """Commutator sign s_c per channel; one -1 per FGB node."""
        if self.gauge == "FGB":
            per = [-1.0, 1.0, 1.0, 1.0]
        else:
            per = [1.0, 1.0]
        return np.array(per * self.n_nodes)

    def sigma(self) -> np.ndarray:
        return -self.channel_signs()

    def node_weights(self) -> np.ndarray:
        """Weight per channel (the node weight repeated)."""
        return np.repeat(np.asarray(self.weights), self.channels_per_node)

    def signed_product(self, f, g) -> complex:
        """<f, g>_sigma = sum_i w_i sum_c sigma_c conj(f_ic) g_ic."""
        f = self.as_channel_array(f)
        g = self.as_channel_array(g)
        return complex(np.sum(self.node_weights()
                              * self.sigma() * np.conj(f) * g))

    def as_channel_array(self, f) -> np.ndarray:
        """Flatten an (n_nodes, channels_per_node) smearing to channel order."""
        f = np.asarray(f, dtype=complex)
        if f.shape == (self.n_nodes, self.channels_per_node):
            return f.reshape(-1)
        if f.shape == (self.n_channels,):
            return f
        raise ValueError(f"smearing must have shape "
                         f"({self.n_nodes}, {self.channels_per_node})")

    def transverse_frames(self):
        """Polarization pairs per node (Coulomb channel directions)."""
        return [polarization_frame(np.asarray(node)) for node in self.nodes]


class TruncatedFockSpace:
    """Occupation-number space over a ModeGrid with per-channel cap N.

    Basis states are occupation tuples enumerated lexicographically in
    (node, channel, occupation); the dense dimension (cap+1)^channels is
    capped at MAX_DENSE_DIM and larger grids are rejected.
    """

    def __init__(self, grid: ModeGrid, cap: int):
        if cap < 1:
            raise ValueError("occupation cap must be >= 1")
        n_ch = grid.n_channels
        dim = (cap + 1) ** n_ch
        if dim > MAX_DENSE_DIM:
            raise ValueError(
                f"dense basis would need {dim} states (limit {MAX_DENSE_DIM}); "
                "use the channel-factorized path for large grids")
        self.grid = grid
        self.cap = cap
        self.dim = dim
        self._strides = np.array(
            [(cap + 1) ** (n_ch - 1 - c) for c in range(n_ch)], dtype=np.int64)
        # occupations[i] is the occupation tuple of basis state i
        occ = np.indices((cap + 1,) * n_ch).reshape(n_ch, -1).T
        self.occupations = np.ascontiguousarray(occ)
        self._lower = [self._ladder(c) for c in range(n_ch)]
        signs = grid.channel_signs()
        self._raise = [signs[c] * self._lower[c].conj().T.tocsr()
                       for c in range(n_ch)]
        if grid.gauge == "FGB":
            temporal = self.occupations[:, 0::4].sum(axis=1)
            self.eta = np.where(temporal % 2 == 0, 1.0, -1.0)
        else:
            self.eta = np.ones(dim)

    def _ladder(self, c: int) -> sp.csr_matrix:
        occ_c = self.occupations[:, c]
        cols = np.nonzero(occ_c > 0)[0]
        rows = cols - self._strides[c]
        vals = np.sqrt(occ_c[cols]).astype(complex)
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.dim, self.dim))

    # -- smeared operators --------------------------------------------------

    def annihilation_operator(self, f) -> sp.csr_matrix:
        """a(fbar) = sum sqrt(w_i) conj(f_ic) A_ic."""
        f = self.grid.as_channel_array(f)
        root_w = np.sqrt(self.grid.node_weights())
        out = sp.csr_matrix((self.dim, self.dim), dtype=complex)
        for c, amp in enumerate(np.conj(f) * root_w):
            if amp != 0.0:
                out = out + amp * self._lower[c]
        return out

    def creation_operator(self, f) -> sp.csr_matrix:
        """a*(f) = sum sqrt(w_i) f_ic C_ic, with C the signed raising ops."""
        f = self.grid.as_channel_array(f)
        root_w = np.sqrt(self.grid.node_weights())
        out = sp.csr_matrix((self.dim, self.dim), dtype=complex)
        for c, amp in enumerate(f * root_w):
            if amp != 0.0:
                out = out + amp * self._raise[c]
        return out

    def number_operator(self) -> sp.csr_matrix:
        """Plain sum of raw a+ a per channel (metric-blind occupancy count)."""
        out = sp.csr_matrix((self.dim, self.dim), dtype=complex)
        for c in range(self.grid.n_channels):
            raw_raise = self._lower[c].conj().T.tocsr()
            out = out + raw_raise @ self._lower[c]
        return out

    # -- states and pairings ------------------------------------------------

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def eta_product(self, x, y) -> complex:
        """Indefinite pairing <x, y> = x^dag eta y."""
        return complex(np.conj(x) @ (self.eta * y))

    def product_state(self, photons) -> np.ndarray:
        """a*(f_1) ... a*(f_n) applied to the vacuum."""
        v = self.vacuum()
        for f in photons:
            v = self.creation_operator(f) @ v
        return v

    def below_cap_mask(self, margin: int = 0) -> np.ndarray:
        """Basis states with every occupation <= cap - margin."""
        return np.all(self.occupations <= self.cap - margin, axis=1)


@dataclass
class StateVector:
    """Coefficient vector tagged with its space."""

    space: TruncatedFockSpace
    coeffs: np.ndarray

    def inner(self, other: "StateVector") -> complex:
        if other.space is not self.space:
            raise ValueError("states live in different spaces")
        return self.space.eta_product(self.coeffs, other.coeffs)


# ---------------------------------------------------------------------------
# truncation estimates


def _poisson_tail(alpha_sq: np.ndarray, cap: int) -> float:
    # P(occupation > cap) for a coherent channel of intensity alpha^2
    alpha_sq = np.atleast_1d(alpha_sq)
    return float(np.sum(alpha_sq ** (cap + 1) / math.factorial(cap + 1)))


def _channel_intensities(grid: ModeGrid, f, charge: float) -> np.ndarray:
    f = grid.as_channel_array(f)
    return charge ** 2 * grid.node_weights() * np.abs(f) ** 2


def _channel_vacuum(amp_sq: float, sign: float, cap: int):
    """Truncated vacuum element T and tail D = exp(-s|a|^2/2) - T of one channel.

    The truncated generator i(s a A* + conj(a) A) is a Jacobi matrix, so
    <0|exp|0> is a sum over closed paths from level 0 in which each crossing
    of the edge (m, m+1), up and back, weighs -s |a|^2 (m+1).  Without a cap
    the weights of the length-2j paths add to (2j-1)!!, which is the closed
    form; the cap drops exactly the paths that reach level cap+1, so
    D = sum_{j>cap} (-s|a|^2)^j Q_j / (2j)! with Q_j their weighted count.
    A walk over two sets of levels (cap not yet touched / touched) carries
    |a|^k / k! times the weighted path counts of length k.  Every entry is
    non-negative, the only sign is (-s)^j on the returns to level 0, so
    float64 sums D without cancellation.  The touched levels stop at
    ``levels - 1``, which changes no return to level 0 before step
    2 (levels - 1).  Once the step factor |walk|_1 / k is under 1/2, the
    mass still in flight bounds everything later steps can add; the walk
    stops when that is under 1e-17 of the tail.
    """
    b = math.sqrt(amp_sq)
    levels = 2 * cap + 4 + math.ceil(8.0 * amp_sq)
    while True:
        n = cap + 1 + levels
        walk = np.zeros((n, n))
        m = np.arange(cap)
        walk[m, m + 1] = walk[m + 1, m] = b * np.sqrt(m + 1.0)
        m = np.arange(levels - 1)
        walk[cap + 1 + m, cap + 2 + m] = walk[cap + 2 + m, cap + 1 + m] = \
            b * np.sqrt(m + 1.0)
        walk[2 * cap + 2, cap] = b * math.sqrt(cap + 1.0)
        k_min = max(2 * cap + 2, 4.0 * b * math.sqrt(levels))
        v = np.zeros(n)
        v[0] = 1.0
        tail = 0.0
        for k in range(1, 2 * levels - 1):
            v = walk @ v / k
            if k % 2 == 0:
                tail += (-sign) ** (k // 2) * v[cap + 1]
                if k > k_min and not v.sum() > 1e-17 * abs(tail):
                    return math.exp(-0.5 * sign * amp_sq) - tail, tail
        levels *= 2


# ---------------------------------------------------------------------------
# displacement operators


def displacement_vacuum_expectation(f, charge: float, space: TruncatedFockSpace,
                                    truncation_tol: float = 1e-10) -> complex:
    """<vac, exp(i e [a*(f) + a(fbar)]) vac> on the dense joint space.

    The closed form is exp(e^2 <f, f>_sigma / 2); here the exponential is
    evaluated numerically (sparse expm action on the vacuum).  Raises
    FockTruncationError when the coherent Poisson tail beyond the cap exceeds
    ``truncation_tol``.
    """
    est = _poisson_tail(_channel_intensities(space.grid, f, charge), space.cap)
    if est > truncation_tol:
        raise FockTruncationError(
            f"truncation estimate {est:.3e} above tolerance {truncation_tol:.1e}")
    gen = 1j * charge * (space.creation_operator(f)
                         + space.annihilation_operator(f))
    vec = expm_multiply(gen, space.vacuum())
    return space.eta_product(space.vacuum(), vec)


def displacement_vacuum_channelwise(f, charge: float, grid: ModeGrid, cap: int,
                                    truncation_tol: float = 1e-10) -> complex:
    """Same matrix element through the exact per-channel factorization.

    The displacement generator is block diagonal over channels, so the joint
    vacuum expectation is the product of the single-channel truncated vacuum
    elements (the path sums of ``_channel_vacuum``).  This is what makes
    12-channel grids tractable; the factorization is validated against the
    dense joint computation in the tests.
    """
    intens = _channel_intensities(grid, f, charge)
    est = _poisson_tail(intens, cap)
    if est > truncation_tol:
        raise FockTruncationError(
            f"truncation estimate {est:.3e} above tolerance {truncation_tol:.1e}")
    result = 1.0
    for amp_sq, sign in zip(intens, grid.channel_signs()):
        if amp_sq != 0.0:
            result *= _channel_vacuum(amp_sq, sign, cap)[0]
    return complex(result)


def displacement_truncation_deviation(f, charge: float, grid: ModeGrid,
                                      cap: int) -> float:
    """|truncated vacuum expectation - closed form|, free of float roundoff.

    Beyond cap ~10 the truncation error of the vacuum element drops under
    the float64 noise floor of either side, so it is summed directly: the
    product difference telescopes over channels into
    sum_c (prod_{c'<c} T_c') D_c (prod_{c'>c} C_c'), with T_c the truncated
    and C_c the closed channel element and D_c = C_c - T_c the channel tail.
    """
    intens = _channel_intensities(grid, f, charge)
    signs = grid.channel_signs()
    deviation = 0.0
    head = 1.0
    for c, (amp_sq, sign) in enumerate(zip(intens, signs)):
        if amp_sq == 0.0:
            continue
        truncated, tail = _channel_vacuum(amp_sq, sign, cap)
        later = math.exp(-0.5 * float(np.dot(signs[c + 1:], intens[c + 1:])))
        deviation += head * tail * later
        head *= truncated
    return float(abs(deviation))


def weyl_operator(g, h, space: TruncatedFockSpace, on=None) -> np.ndarray:
    """W(g, h) = exp(-(i/sqrt 2)[a*(n) + a(nbar)]) with n = g + i h.

    g and h must be real smearings.  Returned dense so the algebraic
    relations (Krein isometry, exchange phase, vacuum expectation) can be
    checked as matrix identities; given a state ``on``, returns W @ on
    through the sparse exponential action instead, without forming W.
    """
    g = space.grid.as_channel_array(g)
    h = space.grid.as_channel_array(h)
    if np.any(g.imag != 0.0) or np.any(h.imag != 0.0):
        raise ValueError("Weyl arguments g, h must be real")
    n = g + 1j * h
    gen = -1j / np.sqrt(2.0) * (space.creation_operator(n)
                                + space.annihilation_operator(n))
    if on is not None:
        return expm_multiply(gen.tocsc(), on)
    return scipy.linalg.expm(gen.toarray())


def bch_check(f, g, charge: float, space: TruncatedFockSpace,
              occupation_budget: int = 4) -> float:
    """Deviation of exp(A+B) from exp(A) exp(B) exp(-[A,B]/2).

    A = i e a*(f), B = i e a(gbar); the commutator is the central scalar
    -e^2 <g, f>_sigma.  The split side is exact on low states (each factor
    is triangular in occupation), so the deviation measures how well the
    truncated exp(A+B) converges: it is taken over entries whose row and
    column occupations stay within ``occupation_budget``, a window that is
    kept fixed while the cap grows.  Both sides act only on the basis
    columns inside that window.
    """
    A = (1j * charge * space.creation_operator(f)).tocsc()
    B = (1j * charge * space.annihilation_operator(g)).tocsc()
    comm = -charge ** 2 * space.grid.signed_product(g, f)
    mask = np.all(space.occupations <= occupation_budget, axis=1)
    window = np.nonzero(mask)[0]
    cols = np.zeros((space.dim, window.size), dtype=complex)
    cols[window, np.arange(window.size)] = 1.0
    lhs = expm_multiply(A + B, cols)
    rhs = expm_multiply(A, expm_multiply(B, cols)) * np.exp(-0.5 * comm)
    return float(np.abs(lhs - rhs)[mask].max())


def emission_matrix_element(photons, displacement, charge: float,
                            space: TruncatedFockSpace,
                            include_vacuum_part: bool = False) -> complex:
    """<a*(f_1)...a*(f_n) vac, exp(i e a*(F)) vac> in the eta pairing.

    With ``include_vacuum_part`` the exponent is the full displacement
    i e [a*(F) + a(Fbar)], which multiplies the same pairing structure by the
    vacuum amplitude.  n = 0 reduces to 1 (resp. the vacuum expectation).
    """
    gen = 1j * charge * space.creation_operator(displacement)
    if include_vacuum_part:
        gen = gen + 1j * charge * space.annihilation_operator(displacement)
    ket = expm_multiply(gen.tocsc(), space.vacuum())
    bra = space.product_state(photons)
    return space.eta_product(bra, ket)
