"""Channel-factorized Fock oracle against the dense joint-space computation.

Every reference here assembles the joint (cap+1)^channels operators as csr
matrices and exponentiates them with scipy (dense ``expm``, or the
``expm_multiply`` action the oracle used before it was factorized), so the
per-channel block path is checked against an independent computation.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import expm_multiply

from softphoton.fock import (
    ModeGrid,
    TruncatedFockSpace,
    bch_check,
    ccr_deviation,
    displacement_vacuum_channelwise,
    displacement_vacuum_expectation,
    emission_matrix_element,
    weyl_operator,
)

NODES = [(0.0, 0.0, 0.35), (0.2, -0.1, 0.5)]
WEIGHTS = [0.45, 0.3]
TOL = 1e-13

# (gauge, nodes, cap) with a joint dimension small enough for dense expm
SPACES = [(gauge, nodes, cap)
          for gauge in ("FGB", "Coulomb") for nodes in (1, 2)
          for cap in range(1, 7)
          if (cap + 1) ** ((4 if gauge == "FGB" else 2) * nodes) <= 625]


@st.composite
def cases(draw):
    gauge, nodes, cap = draw(st.sampled_from(SPACES))
    grid = ModeGrid(NODES[:nodes], WEIGHTS[:nodes], gauge)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    charge = draw(st.floats(0.1, 1.0))
    return TruncatedFockSpace(grid, cap), np.random.default_rng(seed), charge


def smearing(rng, space, scale=0.5):
    shape = (space.grid.n_nodes, space.grid.channels_per_node)
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def dense_expm(gen):
    return scipy.linalg.expm(gen.toarray())


@settings(max_examples=40, deadline=None)
@given(case=cases(), n_photons=st.integers(0, 2), vacuum_part=st.booleans())
def test_emission_matrix_element_matches_dense(case, n_photons, vacuum_part):
    space, rng, e = case
    F = smearing(rng, space)
    photons = [smearing(rng, space) for _ in range(n_photons)]
    gen = 1j * e * space.creation_operator(F)
    if vacuum_part:
        gen = gen + 1j * e * space.annihilation_operator(F)
    ket = dense_expm(gen) @ space.vacuum()
    bra = space.vacuum()
    for f in photons:
        bra = space.creation_operator(f) @ bra
    dense = np.conj(bra) @ (space.eta * ket)
    value = emission_matrix_element(photons, F, e, space,
                                    include_vacuum_part=vacuum_part)
    scale = np.linalg.norm(bra) * np.linalg.norm(ket)
    assert abs(value - dense) <= TOL * scale


@settings(max_examples=30, deadline=None)
@given(case=cases())
def test_displacement_vacuum_expectation_matches_dense(case):
    space, rng, e = case
    f = smearing(rng, space)
    gen = 1j * e * (space.creation_operator(f)
                    + space.annihilation_operator(f))
    dense = dense_expm(gen)[0, 0]
    value = displacement_vacuum_expectation(f, e, space,
                                            truncation_tol=np.inf)
    assert abs(value - dense) <= TOL * max(1.0, abs(dense))


@settings(max_examples=30, deadline=None)
@given(case=cases())
def test_weyl_action_matches_dense_matrix(case):
    space, rng, _ = case
    shape = (space.grid.n_nodes, space.grid.channels_per_node)
    g, h = 0.4 * rng.normal(size=shape), 0.4 * rng.normal(size=shape)
    state = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    dense = weyl_operator(g, h, space) @ state
    value = weyl_operator(g, h, space, on=state)
    assert np.abs(value - dense).max() <= TOL * np.linalg.norm(dense)


def windowed_bch(f, g, e, space, budget=4):
    """The BCH deviation through expm_multiply on the window's columns."""
    A = (1j * e * space.creation_operator(f)).tocsc()
    B = (1j * e * space.annihilation_operator(g)).tocsc()
    comm = -e ** 2 * space.grid.signed_product(g, f)
    mask = np.all(space.occupations <= budget, axis=1)
    window = np.nonzero(mask)[0]
    cols = np.zeros((space.dim, window.size), dtype=complex)
    cols[window, np.arange(window.size)] = 1.0
    lhs = expm_multiply(A + B, cols)
    rhs = expm_multiply(A, expm_multiply(B, cols)) * np.exp(-0.5 * comm)
    scale = max(np.abs(lhs).max(), np.abs(rhs).max())
    return float(np.abs(lhs - rhs)[mask].max()), scale


@settings(max_examples=30, deadline=None)
@given(case=cases(), budget=st.integers(0, 6))
def test_bch_check_matches_windowed_expm_multiply(case, budget):
    space, rng, e = case
    f, g = smearing(rng, space), smearing(rng, space)
    reference, scale = windowed_bch(f, g, e, space, budget)
    value = bch_check(f, g, e, space, occupation_budget=budget)
    assert abs(value - reference) <= TOL * scale


@settings(max_examples=30, deadline=None)
@given(case=cases())
def test_ccr_deviation_matches_dense_commutator(case):
    space, rng, _ = case
    f, g = smearing(rng, space), smearing(rng, space)
    a_f = space.annihilation_operator(f)
    c_g = space.creation_operator(g)
    comm = (a_f @ c_g - c_g @ a_f).toarray()
    mask = space.below_cap_mask(margin=1)
    sub = np.ix_(mask, mask)
    expected = -space.grid.signed_product(f, g) * np.eye(space.dim)
    dense = float(np.abs(comm[sub] - expected[sub]).max())
    value = ccr_deviation(f, g, space)
    scale = max(1.0, np.abs(comm[sub]).max())
    assert abs(value - dense) <= TOL * scale


def test_truncation_breaks_ccr_only_at_the_cap():
    # the ladder block's commutator is 1 on every level but the top one,
    # where it reads -cap; ccr_deviation's window leaves that level out
    space = TruncatedFockSpace(ModeGrid(NODES[:1], WEIGHTS[:1], "Coulomb"), 3)
    L = space.ladder
    np.testing.assert_allclose(L @ L.T - L.T @ L, np.diag([1.0] * 3 + [-3.0]),
                               rtol=0.0, atol=1e-15)
    f = np.array([[0.4 + 0.1j, -0.2j]])
    assert ccr_deviation(f, f, space) < 1e-15


def test_channelwise_displacement_matches_joint_expm_at_cap_7():
    # FGB 1 x 7, the largest single-node space inside the budget (8^4 =
    # 4096 states): the per-channel path sums and the factorized oracle
    # against scipy's expm action of the joint csr generator on the vacuum
    grid = ModeGrid(NODES[:1], [0.8], "FGB")
    space = TruncatedFockSpace(grid, 7)
    rng = np.random.default_rng(11)
    f = 0.4 * (rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4)))
    gen = 0.3j * (space.creation_operator(f) + space.annihilation_operator(f))
    joint = space.eta_product(space.vacuum(),
                              expm_multiply(gen, space.vacuum()))
    assert abs(displacement_vacuum_channelwise(f, 0.3, grid, 7)
               - joint) <= TOL
    assert abs(displacement_vacuum_expectation(f, 0.3, space) - joint) <= TOL


def test_operator_methods_are_built_from_the_ladder_block():
    # the lazily built csr ladders are the embedded block, signs included
    grid = ModeGrid(NODES[:1], WEIGHTS[:1], "FGB")
    space = TruncatedFockSpace(grid, 2)
    for c, sign in enumerate(grid.channel_signs()):
        lower = space._lower[c].toarray()
        np.testing.assert_array_equal(space._raise[c].toarray(),
                                      sign * lower.T)
        occ = space.occupations[:, c]
        cols = np.nonzero(occ > 0)[0]
        rows = cols - (space.cap + 1) ** (grid.n_channels - 1 - c)
        expected = np.zeros((space.dim, space.dim))
        expected[rows, cols] = np.sqrt(occ[cols])
        np.testing.assert_array_equal(lower, expected)
