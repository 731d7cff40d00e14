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

The joint space is the tensor product of one (cap+1)-level ladder per
channel, and every generator the oracle exponentiates (displacement, Weyl,
the BCH pair) is a sum of commuting single-channel pieces.  So
exp(sum_c g_c) is the tensor product of the (cap+1)^2 block exponentials
exp(g_c), exactly on the truncated space.  All matrix elements come from one
ladder block L (L[m, m+1] = sqrt(m+1)) and the channel signs: the smeared
blocks of ``TruncatedFockSpace.smeared`` act along their channel's axis of
the (cap+1)^n state tensor (``_along``), and their exponentials come from a
Taylor series on sub-steps of norm <= 4 (``_expm_blocks``).  The displacement
vacuum elements and their truncation tail are float64 path sums per channel
(``_channel_vacuum``), one walk per distinct (intensity, sign) in a call.
Per-grid quantities are computed once per ``ModeGrid``: its Gauss-Legendre
radial nodes come from a table cached by order, and its Coulomb
polarization frames are built on first use and returned read-only.  scipy
is imported only by the sparse operator methods and the dense Weyl matrix,
which the tests use as the independent joint-space reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import CutoffWindow
from .currents import polarization_frame
from .quadrature import _gl

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
    "ccr_deviation",
    "emission_matrix_element",
    "require_dense_budget",
]

MAX_DENSE_DIM = 4608

# channels per grid node in each gauge
_CHANNELS_PER_NODE = {"FGB": 4, "Coulomb": 2}


class FockTruncationError(RuntimeError):
    """Truncation-error estimate exceeded the requested tolerance."""


@dataclass(frozen=True)
class ModeGrid:
    """Finite set of photon momenta with positive weights and gauge channels.

    Derived per-node arrays are computed once per grid object: the Coulomb
    polarization frames of ``transverse_frames`` are built on first use and
    shared, read-only, by every later call.
    """

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
        """Gauss-Legendre radial nodes along one direction.

        The order-n rule comes from the table that the radial quadrature
        shares, so a grid of an order seen before costs no new ``leggauss``.
        """
        x, w = _gl(n)
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
        return _CHANNELS_PER_NODE[self.gauge]

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
        """Coulomb channel directions: e1 and e2 as (n_nodes, 3) arrays.

        Computed on the first call and shared by later ones, so the arrays
        are read-only.
        """
        return self._frames

    @cached_property
    def _frames(self):
        frames = polarization_frame(np.asarray(self.nodes))
        for e in frames:
            e.flags.writeable = False
        return frames


class TruncatedFockSpace:
    """Occupation-number space over a ModeGrid with per-channel cap N.

    Basis states are occupation tuples enumerated lexicographically in
    (node, channel, occupation), so a state vector reshapes to the
    (cap+1)^channels tensor with channel 0 as its leading axis; the dense
    dimension (cap+1)^channels is capped at MAX_DENSE_DIM and larger grids
    are rejected.  The ladder block and the channel signs are the only
    stored matrix elements; the csr operators are built from them on first
    use.
    """

    def __init__(self, grid: ModeGrid, cap: int):
        self.grid = grid
        self.cap = cap
        self.dim = require_dense_budget(grid.n_nodes, cap, grid.gauge)
        self.signs = grid.channel_signs()
        # lowering block of one channel: L |m+1> = sqrt(m+1) |m>
        self.ladder = np.diag(np.sqrt(np.arange(1.0, cap + 1.0)), k=1)

    @cached_property
    def occupations(self) -> np.ndarray:
        """occupations[i] is the occupation tuple of basis state i."""
        n_ch = self.grid.n_channels
        occ = np.indices((self.cap + 1,) * n_ch).reshape(n_ch, -1).T
        return np.ascontiguousarray(occ)

    @cached_property
    def eta(self) -> np.ndarray:
        """Gram diagonal: (-1)^(total temporal occupation) per state."""
        if self.grid.gauge != "FGB":
            return np.ones(self.dim)
        temporal = self.occupations[:, 0::4].sum(axis=1)
        return np.where(temporal % 2 == 0, 1.0, -1.0)

    # -- per-channel blocks -------------------------------------------------

    def smeared(self, f, create: bool) -> np.ndarray:
        """Per-channel blocks of a*(f) (``create``) or a(fbar), (n_ch, d, d).

        a*(f) = sum_c sqrt(w_c) f_c s_c L^T and a(fbar) =
        sum_c sqrt(w_c) conj(f_c) L, block c acting on channel c alone.
        """
        f = self.grid.as_channel_array(f)
        root_w = np.sqrt(self.grid.node_weights())
        if create:
            return (f * root_w * self.signs)[:, None, None] * self.ladder.T
        return (np.conj(f) * root_w)[:, None, None] * self.ladder

    def apply_exp(self, blocks, state) -> np.ndarray:
        """exp(sum_c block c) applied to ``state``: one block per axis."""
        state = np.asarray(state, dtype=complex)
        for c, block in enumerate(_expm_blocks(np.asarray(blocks))):
            state = _along(block, state, c)
        return state

    # -- sparse operators (scipy, built on first use) ----------------------

    def _embed(self, block, c: int):
        """csr matrix of channel c's block on the joint space."""
        import scipy.sparse as sp
        d = self.cap + 1
        n_ch = self.grid.n_channels
        return sp.kron(sp.kron(sp.identity(d ** c), sp.csr_matrix(block)),
                       sp.identity(d ** (n_ch - 1 - c)), format="csr")

    def _operator(self, blocks):
        """csr sum of the nonzero per-channel blocks on the joint space."""
        import scipy.sparse as sp
        out = sp.csr_matrix((self.dim, self.dim), dtype=complex)
        for c, block in enumerate(blocks):
            if block.any():
                out = out + self._embed(block, c)
        return out

    @cached_property
    def _lower(self) -> list:
        lower = self.ladder.astype(complex)
        return [self._embed(lower, c) for c in range(self.grid.n_channels)]

    @cached_property
    def _raise(self) -> list:
        return [self._embed(sign * self.ladder.T.astype(complex), c)
                for c, sign in enumerate(self.signs)]

    def annihilation_operator(self, f):
        """a(fbar) = sum sqrt(w_i) conj(f_ic) A_ic, as a csr matrix."""
        return self._operator(self.smeared(f, create=False))

    def creation_operator(self, f):
        """a*(f) = sum sqrt(w_i) f_ic C_ic, with C the signed raising ops."""
        return self._operator(self.smeared(f, create=True))

    def number_operator(self):
        """Plain sum of raw a+ a per channel (metric-blind occupancy count)."""
        count = self.ladder.T @ self.ladder
        return self._operator([count] * self.grid.n_channels)

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
            v = sum(_along(block, v, c)
                    for c, block in enumerate(self.smeared(f, create=True)))
        return v

    def below_cap_mask(self, margin: int = 0) -> np.ndarray:
        """Basis states with every occupation <= cap - margin."""
        return np.all(self.occupations <= self.cap - margin, axis=1)


def require_dense_budget(n_nodes: int, cap: int, gauge: str) -> int:
    """Dense dimension (cap+1)^channels of a grid of ``n_nodes`` nodes.

    Raises ValueError for a cap below 1 or a dimension above MAX_DENSE_DIM.
    The power is multiplied up only until it passes the budget, so an
    oversized grid is rejected before anything of its size is built, and
    the message states the dimension as a power.
    """
    if cap < 1:
        raise ValueError("occupation cap must be >= 1")
    n_ch = n_nodes * _CHANNELS_PER_NODE[gauge]
    dim = 1
    for _ in range(n_ch):
        dim *= cap + 1
        if dim > MAX_DENSE_DIM:
            raise ValueError(f"Fock dimension {cap + 1}^{n_ch} exceeds the "
                             f"dense budget {MAX_DENSE_DIM}")
    return dim


def _along(block: np.ndarray, state: np.ndarray, c: int) -> np.ndarray:
    """Apply a (d, d) block along axis c of the (d,)*n state tensor.

    ``state`` is a basis-ordered vector (or a stack of them along a trailing
    axis); channel c has stride d^(n-1-c), so the vector is (d^c, d, rest).
    """
    d = block.shape[0]
    return (block @ state.reshape(d ** c, d, -1)).reshape(state.shape)


def _expm_blocks(gens: np.ndarray) -> np.ndarray:
    """exp of a stack of small (d, d) blocks, accurate to float64 rounding.

    A Taylor series on s = ceil(max ||g||_1 / 4) equal sub-steps, cut once
    the bound theta^k / k! on the next term is under 2^-53.  With a step
    norm theta <= 4 no term exceeds 4^4 / 4! ~ 11, so the series loses at
    most about one digit to cancellation, and the s step factors are
    multiplied in turn: squaring them, or shorter steps, compound the
    rounding of the products (the BCH check then reads ~4x its floor).
    """
    norm = float(np.abs(gens).sum(axis=-2).max(initial=0.0))
    steps = max(1, math.ceil(norm / 4.0))
    step = gens / steps
    theta = norm / steps
    term = total = np.broadcast_to(np.eye(gens.shape[-1], dtype=complex),
                                   gens.shape)
    k, bound = 0, theta
    while bound > 2.0 ** -53:
        k += 1
        term = term @ step / k
        total = total + term
        bound *= theta / (k + 1)
    out = total
    for _ in range(steps - 1):
        out = out @ total
    return out


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
    """<vac, exp(i e [a*(f) + a(fbar)]) vac> on the truncated joint space.

    The closed form is exp(e^2 <f, f>_sigma / 2); here the exponential is
    evaluated numerically (the n = 0 case of ``emission_matrix_element``).
    Raises FockTruncationError when the coherent Poisson tail beyond the cap
    exceeds ``truncation_tol``.
    """
    est = _poisson_tail(_channel_intensities(space.grid, f, charge), space.cap)
    if est > truncation_tol:
        raise FockTruncationError(
            f"truncation estimate {est:.3e} above tolerance {truncation_tol:.1e}")
    return emission_matrix_element([], f, charge, space,
                                   include_vacuum_part=True)


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
    Channels of equal intensity and sign have equal T_c and D_c, so each
    distinct pair is walked once.
    """
    intens = _channel_intensities(grid, f, charge)
    signs = grid.channel_signs()
    walks = {}
    deviation = 0.0
    head = 1.0
    for c, (amp_sq, sign) in enumerate(zip(intens, signs)):
        if amp_sq == 0.0:
            continue
        if (amp_sq, sign) not in walks:
            walks[amp_sq, sign] = _channel_vacuum(amp_sq, sign, cap)
        truncated, tail = walks[amp_sq, sign]
        later = math.exp(-0.5 * float(np.dot(signs[c + 1:], intens[c + 1:])))
        deviation += head * tail * later
        head *= truncated
    return float(abs(deviation))


def weyl_operator(g, h, space: TruncatedFockSpace, on=None) -> np.ndarray:
    """W(g, h) = exp(-(i/sqrt 2)[a*(n) + a(nbar)]) with n = g + i h.

    g and h must be real smearings.  Returned dense so the algebraic
    relations (Krein isometry, exchange phase, vacuum expectation) can be
    checked as matrix identities (scipy's ``expm`` of the joint generator);
    given a state ``on``, returns W @ on through the per-channel block
    exponentials instead, without forming W.
    """
    g = space.grid.as_channel_array(g)
    h = space.grid.as_channel_array(h)
    if np.any(g.imag != 0.0) or np.any(h.imag != 0.0):
        raise ValueError("Weyl arguments g, h must be real")
    n = g + 1j * h
    if on is not None:
        gen = -1j / np.sqrt(2.0) * (space.smeared(n, create=True)
                                    + space.smeared(n, create=False))
        return space.apply_exp(gen, on)
    import scipy.linalg
    gen = -1j / np.sqrt(2.0) * (space.creation_operator(n)
                                + space.annihilation_operator(n))
    return scipy.linalg.expm(gen.toarray())


def bch_check(f, g, charge: float, space: TruncatedFockSpace,
              occupation_budget: int = 4) -> float:
    """Deviation of exp(A+B) from exp(A) exp(B) exp(-[A,B]/2).

    A = i e a*(f), B = i e a(gbar); the commutator is the central scalar
    -e^2 <g, f>_sigma.  The split side is exact on low states (each factor
    is triangular in occupation), so the deviation measures how well the
    truncated exp(A+B) converges: it is taken over entries whose row and
    column occupations stay within ``occupation_budget``, a window that is
    kept fixed while the cap grows.  Both sides are tensor products of
    per-channel blocks, so the window is the Kronecker product of each
    block's leading (budget+1)^2 corner.
    """
    A = 1j * charge * space.smeared(f, create=True)
    B = 1j * charge * space.smeared(g, create=False)
    comm = -charge ** 2 * space.grid.signed_product(g, f)
    corner = min(occupation_budget, space.cap) + 1
    joint = _expm_blocks(A + B)[:, :corner, :corner]
    split = (_expm_blocks(A) @ _expm_blocks(B))[:, :corner, :corner]
    lhs, rhs = joint[0], split[0]
    for c in range(1, len(joint)):
        lhs = np.kron(lhs, joint[c])
        rhs = np.kron(rhs, split[c])
    return float(np.abs(lhs - rhs * np.exp(-0.5 * comm)).max())


def ccr_deviation(f, g, space: TruncatedFockSpace) -> float:
    """max |[a(fbar), a*(g)] + <f, g>_sigma| on states below the cap.

    The truncation breaks the relation only at the top level, where the
    block commutator [L, L^T] reads -cap, so every occupation is kept below
    the cap.  Blocks of different channels act on different tensor axes and
    commute exactly, so the commutator is the Kronecker sum of the
    per-channel block commutators; its entries between states in the window
    are the diagonal sums and the off-diagonal block entries.
    """
    a = space.smeared(f, create=False)
    c = space.smeared(g, create=True)
    keep = space.cap
    comm = (a @ c - c @ a)[:, :keep, :keep]
    n_ch = len(comm)
    diag = np.zeros((keep,) * n_ch, dtype=complex)
    for ch in range(n_ch):
        shape = [1] * n_ch
        shape[ch] = keep
        diag = diag + np.diagonal(comm[ch]).reshape(shape)
    off = comm * (1.0 - np.eye(keep))
    return float(max(np.abs(diag + space.grid.signed_product(f, g)).max(),
                     np.abs(off).max()))


def emission_matrix_element(photons, displacement, charge: float,
                            space: TruncatedFockSpace,
                            include_vacuum_part: bool = False) -> complex:
    """<a*(f_1)...a*(f_n) vac, exp(i e a*(F)) vac> in the eta pairing.

    With ``include_vacuum_part`` the exponent is the full displacement
    i e [a*(F) + a(Fbar)], which multiplies the same pairing structure by the
    vacuum amplitude.  n = 0 reduces to 1 (resp. the vacuum expectation).
    """
    gen = 1j * charge * space.smeared(displacement, create=True)
    if include_vacuum_part:
        gen = gen + 1j * charge * space.smeared(displacement, create=False)
    ket = space.apply_exp(gen, space.vacuum())
    bra = space.product_state(photons)
    return space.eta_product(bra, ket)
