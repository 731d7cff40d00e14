"""Truncated Fock space: signed CCR, displacement and Weyl matrix elements."""

import numpy as np
import pytest
import scipy.linalg

from softphoton.core import CutoffWindow
from softphoton.fock import (
    FockTruncationError,
    ModeGrid,
    StateVector,
    TruncatedFockSpace,
    bch_check,
    displacement_truncation_deviation,
    displacement_vacuum_channelwise,
    displacement_vacuum_expectation,
    emission_matrix_element,
    weyl_operator,
)

WINDOW = CutoffWindow(lam=0.1, Lam=1.0)


def fgb_node(k=(0.0, 0.0, 0.5), w=1.0):
    return ModeGrid([k], [w], "FGB")


def coulomb_node(k=(0.0, 0.0, 0.5), w=1.0):
    return ModeGrid([k], [w], "Coulomb")


class TestModeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModeGrid([(0, 0, 0.5)], [1.0], "Lorenz")
        with pytest.raises(ValueError):
            ModeGrid([(0, 0, 0.5)], [1.0, 2.0], "FGB")
        with pytest.raises(ValueError):
            ModeGrid([(0, 0, 0.5)], [-1.0], "FGB")
        with pytest.raises(ValueError):
            ModeGrid([(0, 0, 0.5), (0, 0, 0.5)], [1.0, 1.0], "FGB")
        with pytest.raises(ValueError):
            ModeGrid([(0, 0, 2.0)], [1.0], "FGB", window=WINDOW)

    def test_channel_signs(self):
        grid = ModeGrid([(0, 0, 0.3), (0, 0.4, 0)], [1.0, 2.0], "FGB")
        assert grid.n_channels == 8
        np.testing.assert_array_equal(
            grid.channel_signs(), [-1, 1, 1, 1, -1, 1, 1, 1])
        np.testing.assert_array_equal(grid.sigma(), -grid.channel_signs())
        grid_c = ModeGrid([(0, 0, 0.3)], [1.0], "Coulomb")
        np.testing.assert_array_equal(grid_c.channel_signs(), [1, 1])

    def test_signed_product_signs(self):
        # temporal component enters with +, spatial with -
        grid = fgb_node(w=2.0)
        t_only = np.array([[1.0, 0, 0, 0]])
        z_only = np.array([[0, 0, 0, 1.0]])
        assert grid.signed_product(t_only, t_only) == pytest.approx(2.0)
        assert grid.signed_product(z_only, z_only) == pytest.approx(-2.0)
        f = np.array([[0.3 + 0.1j, 0.2, 0.0, 1.0j]])
        g = np.array([[0.5, 0.0, 1.0, 0.25j]])
        expected = 2.0 * (np.conj(f[0, 0]) * g[0, 0]
                          - np.conj(f[0, 1:]) @ g[0, 1:])
        assert grid.signed_product(f, g) == pytest.approx(expected)
        assert grid.signed_product(g, f) == pytest.approx(np.conj(expected))

    def test_radial_constructor(self):
        grid = ModeGrid.radial(WINDOW, 5, "Coulomb")
        assert grid.n_nodes == 5
        for node, w in zip(grid.nodes, grid.weights):
            assert WINDOW.lam <= np.linalg.norm(node) <= WINDOW.Lam
            assert w > 0
        # weights integrate dk over the window
        assert sum(grid.weights) == pytest.approx(WINDOW.Lam - WINDOW.lam)

    def test_bad_smearing_shape(self):
        grid = fgb_node()
        with pytest.raises(ValueError):
            grid.as_channel_array(np.zeros((1, 2)))


class TestTruncatedFockSpace:
    def test_budget(self):
        assert TruncatedFockSpace(fgb_node(), 7).dim == 4096
        with pytest.raises(ValueError):
            TruncatedFockSpace(fgb_node(), 8)
        with pytest.raises(ValueError):
            TruncatedFockSpace(fgb_node(), 0)

    def test_basis_order(self):
        space = TruncatedFockSpace(coulomb_node(), 2)
        np.testing.assert_array_equal(space.occupations[0], [0, 0])
        np.testing.assert_array_equal(space.occupations[1], [0, 1])
        np.testing.assert_array_equal(space.occupations[3], [1, 0])

    def test_signed_ccr(self):
        # [A_c, C_d] = s_c delta_cd exactly below the cap, including the
        # temporal -1
        space = TruncatedFockSpace(fgb_node(), 3)
        signs = space.grid.channel_signs()
        mask = space.below_cap_mask(margin=1)
        sub = np.ix_(mask, mask)
        eye = np.eye(space.dim)[sub]
        for c in range(4):
            for d in range(4):
                comm = (space._lower[c] @ space._raise[d]
                        - space._raise[d] @ space._lower[c]).toarray()
                target = signs[c] * eye if c == d else 0.0 * eye
                np.testing.assert_allclose(comm[sub], target, atol=1e-14)

    def test_smeared_ccr(self):
        space = TruncatedFockSpace(fgb_node(), 3)
        rng = np.random.default_rng(7)
        f = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
        g = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
        a_f = space.annihilation_operator(f)
        c_g = space.creation_operator(g)
        comm = (a_f @ c_g - c_g @ a_f).toarray()
        mask = space.below_cap_mask(margin=1)
        sub = np.ix_(mask, mask)
        expected = -space.grid.signed_product(f, g) * np.eye(space.dim)
        np.testing.assert_allclose(comm[sub], expected[sub], atol=1e-12)

    def test_eta(self):
        space = TruncatedFockSpace(fgb_node(), 3)
        assert np.all(space.eta ** 2 == 1.0)
        temporal = np.array([[1.0, 0, 0, 0]])
        one_temporal = space.product_state([temporal])
        idx = np.argmax(np.abs(one_temporal))
        assert space.eta[idx] == -1.0
        # one-temporal-photon state has negative norm
        assert space.eta_product(one_temporal, one_temporal).real < 0

    def test_creation_is_eta_adjoint_of_annihilation(self):
        space = TruncatedFockSpace(fgb_node(), 3)
        rng = np.random.default_rng(3)
        f = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
        c_f = space.creation_operator(f).toarray()
        a_f = space.annihilation_operator(f).toarray()
        adj = space.eta[:, None] * c_f.conj().T * space.eta[None, :]
        np.testing.assert_allclose(adj, a_f, atol=1e-14)

    def test_state_vector(self):
        space = TruncatedFockSpace(coulomb_node(), 2)
        v = StateVector(space, space.vacuum())
        assert v.inner(v) == pytest.approx(1.0)
        other = StateVector(TruncatedFockSpace(coulomb_node(), 3),
                            np.zeros(16))
        with pytest.raises(ValueError):
            v.inner(other)


class TestDisplacement:
    def test_spatial_closed_form(self):
        # single spatial channel, e^2 w |f|^2 = 0.25: exp(-0.125)
        space = TruncatedFockSpace(fgb_node(), 7)
        f = np.array([[0.0, 0.0, 0.0, 1.0]])
        val = displacement_vacuum_expectation(f, 0.5, space,
                                              truncation_tol=1e-9)
        assert val == pytest.approx(np.exp(-0.125), rel=1e-8)

    def test_temporal_closed_form(self):
        # the negative-commutator channel flips the sign in the exponent
        space = TruncatedFockSpace(fgb_node(), 7)
        f = np.array([[1.0, 0.0, 0.0, 0.0]])
        val = displacement_vacuum_expectation(f, 0.5, space,
                                              truncation_tol=1e-9)
        assert val == pytest.approx(np.exp(+0.125), rel=1e-8)

    def test_generic_complex_profile(self):
        space = TruncatedFockSpace(fgb_node(w=0.7), 6)
        f = np.array([[0.2 + 0.1j, -0.3j, 0.1, 0.4 - 0.2j]])
        e = 0.4
        closed = np.exp(0.5 * e ** 2 * space.grid.signed_product(f, f))
        val = displacement_vacuum_expectation(f, e, space)
        assert val == pytest.approx(closed, rel=1e-9)

    def test_channelwise_matches_dense_joint(self):
        grid = fgb_node(w=0.8)
        space = TruncatedFockSpace(grid, 7)
        rng = np.random.default_rng(11)
        f = 0.4 * (rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4)))
        dense = displacement_vacuum_expectation(f, 0.3, space)
        factored = displacement_vacuum_channelwise(f, 0.3, grid, 7)
        assert factored == pytest.approx(dense, abs=1e-12)

    def test_channelwise_multi_node(self):
        grid = ModeGrid([(0, 0, 0.3), (0.2, 0, 0.4), (0, 0.5, 0.1)],
                        [0.4, 0.3, 0.2], "FGB")
        f = 0.3 * (np.arange(12).reshape(3, 4) / 12.0 + 0.1j)
        e = 0.4
        closed = np.exp(0.5 * e ** 2 * grid.signed_product(f, f))
        val = displacement_vacuum_channelwise(f, e, grid, 12)
        assert val == pytest.approx(closed, rel=1e-10)

    def test_monotone_convergence(self):
        # deviation from the closed form shrinks with the cap
        grid = coulomb_node()
        f = np.array([[np.sqrt(0.3), 0.0]])
        closed = np.exp(0.5 * grid.signed_product(f, f))
        devs = []
        for cap in (4, 6, 8, 10):
            space = TruncatedFockSpace(grid, cap)
            val = displacement_vacuum_expectation(f, 1.0, space,
                                                  truncation_tol=1e-2)
            devs.append(abs(val - closed))
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_cap_doubling_shrinks_error(self):
        grid = fgb_node()
        f = np.array([[0.0, 0.0, 0.0, np.sqrt(0.5)]])
        dev8 = displacement_truncation_deviation(f, 1.0, grid, 8)
        dev16 = displacement_truncation_deviation(f, 1.0, grid, 16)
        assert dev8 > 1e-14
        assert dev8 >= 1e3 * dev16

    def test_precise_deviation_matches_float_path(self):
        # at cap 8 truncation dominates roundoff, so both paths see it
        grid = fgb_node()
        f = np.array([[0.0, 0.0, 0.0, np.sqrt(0.5)]])
        closed = np.exp(0.5 * grid.signed_product(f, f))
        float_dev = abs(displacement_vacuum_channelwise(
            f, 1.0, grid, 8, truncation_tol=1e-2) - closed)
        precise_dev = displacement_truncation_deviation(f, 1.0, grid, 8)
        assert float_dev == pytest.approx(precise_dev, rel=1e-2)

    def test_truncation_guard(self):
        space = TruncatedFockSpace(fgb_node(), 3)
        f = np.array([[0.0, 0.0, 0.0, 3.0]])
        with pytest.raises(FockTruncationError):
            displacement_vacuum_expectation(f, 1.0, space)
        with pytest.raises(FockTruncationError):
            displacement_vacuum_channelwise(f, 1.0, space.grid, 3)

    def test_number_expectation_positive_metric(self):
        # displaced vacuum carries e^2 sum w |f|^2 photons on average
        from scipy.sparse.linalg import expm_multiply
        grid = coulomb_node(w=0.6)
        space = TruncatedFockSpace(grid, 14)
        f = np.array([[0.5, -0.3 + 0.2j]])
        e = 0.7
        gen = 1j * e * (space.creation_operator(f)
                        + space.annihilation_operator(f))
        vec = expm_multiply(gen, space.vacuum())
        n_val = np.conj(vec) @ (space.number_operator() @ vec)
        expected = e ** 2 * 0.6 * np.sum(np.abs(f) ** 2)
        assert n_val.real == pytest.approx(expected, rel=1e-10)
        assert np.conj(vec) @ vec == pytest.approx(1.0, rel=1e-10)


# |truncated - closed| of the fock-verify profile (charge 1, every channel at
# intensity 0.5 / n_channels on the radial grid over WINDOW), caps 2..14, as
# an extended-precision (40-digit) matrix exponential gave them
FROZEN_DEVIATIONS = {
    ("Coulomb", 1): [
        0.0002168958310931682, 3.871517054621313e-06, 5.374954231140595e-08,
        6.105671123369544e-10, 5.868986366005657e-12, 4.8895056666780526e-14,
        3.5943975780307087e-16, 2.36426733833998e-18, 1.4070607238855704e-20,
        7.645924627386328e-23, 3.822459120256132e-25, 1.769450745191647e-27,
        7.626150739981805e-30],
    ("Coulomb", 2): [
        5.2432215025672956e-05, 4.680572434417706e-07, 3.249763978154302e-09,
        1.8461248052007986e-11, 8.874214446790332e-14, 3.6970950877151424e-16,
        1.3590705063794797e-18, 4.4701858669457456e-21, 1.330298704649299e-23,
        3.614672112577604e-26, 9.036086378998484e-29, 2.0915648919226832e-31,
        4.507449044645519e-34],
    ("FGB", 1): [
        3.0668085205959216e-05, 5.218269409817112e-07, 1.9002794460123598e-09,
        2.0585632847288668e-11, 5.187582253182488e-14, 4.1230931448321955e-16,
        7.942912588391084e-19, 4.985766904869242e-21, 7.773463135759973e-24,
        4.031886957519638e-26, 5.279471024984579e-29, 2.3331162692620795e-31,
        2.633282407256475e-34],
}


class TestTruncationTail:
    @pytest.mark.parametrize("gauge,nodes", sorted(FROZEN_DEVIATIONS))
    def test_frozen_fock_verify_profile(self, gauge, nodes):
        grid = ModeGrid.radial(WINDOW, nodes, gauge)
        f = np.sqrt(0.5 / (grid.n_channels * grid.node_weights()))
        for cap, frozen in zip(range(2, 15), FROZEN_DEVIATIONS[gauge, nodes]):
            dev = displacement_truncation_deviation(f, 1.0, grid, cap)
            if frozen > 1e-28:
                assert dev == pytest.approx(frozen, rel=1e-9), cap
            else:
                assert dev < 1e-27, cap

    @pytest.mark.parametrize("gauge", ["FGB", "Coulomb"])
    def test_channelwise_matches_per_channel_expm(self, gauge):
        # both commutator signs; the reference exponentiates each channel's
        # (cap+1)-dimensional generator densely
        grid = ModeGrid([(0, 0, 0.3), (0.2, 0, 0.4)], [0.6, 0.35], gauge)
        rng = np.random.default_rng(5)
        shape = (grid.n_nodes, grid.channels_per_node)
        f = 0.6 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        e = 0.9
        amps = e * np.sqrt(grid.node_weights()) * grid.as_channel_array(f)
        for cap in range(2, 17):
            n = np.arange(cap)
            expected = 1.0 + 0.0j
            for a, s in zip(amps, grid.channel_signs()):
                gen = np.zeros((cap + 1, cap + 1), dtype=complex)
                gen[n, n + 1] = 1j * np.conj(a) * np.sqrt(n + 1.0)
                gen[n + 1, n] = 1j * s * a * np.sqrt(n + 1.0)
                expected *= scipy.linalg.expm(gen)[0, 0]
            val = displacement_vacuum_channelwise(f, e, grid, cap,
                                                  truncation_tol=np.inf)
            assert abs(val - expected) <= 1e-13, cap

    def test_deviation_is_channelwise_difference(self):
        # at low caps the deviation is far above roundoff, so it must equal
        # the float difference of the truncated product and the closed form
        grid = ModeGrid([(0, 0, 0.3), (0.2, 0, 0.4)], [0.6, 0.35], "FGB")
        f = 0.5 * (np.arange(8).reshape(2, 4) / 8.0 + 0.2 - 0.3j)
        closed = np.exp(0.5 * grid.signed_product(f, f))
        for cap in (2, 3, 4):
            trunc = displacement_vacuum_channelwise(f, 1.0, grid, cap,
                                                    truncation_tol=np.inf)
            dev = displacement_truncation_deviation(f, 1.0, grid, cap)
            assert dev == pytest.approx(abs(trunc - closed), rel=1e-9)


class TestWeyl:
    def test_vacuum_expectation(self):
        grid = fgb_node(w=0.9)
        space = TruncatedFockSpace(grid, 5)
        g = np.array([[0.3, 0.1, -0.2, 0.25]])
        h = np.array([[-0.1, 0.2, 0.15, 0.0]])
        W = weyl_operator(g, h, space)
        vac = space.vacuum()
        val = space.eta_product(vac, W @ vac)
        closed = np.exp(0.25 * (grid.signed_product(g, g)
                                + grid.signed_product(h, h)))
        assert val == pytest.approx(closed, rel=1e-8)

    def test_krein_isometry(self):
        grid = fgb_node()
        space = TruncatedFockSpace(grid, 5)
        g = np.array([[0.2, 0.1, 0.0, -0.15]])
        h = np.array([[0.0, -0.1, 0.2, 0.1]])
        W = weyl_operator(g, h, space)
        prod = (space.eta[:, None] * W.conj().T * space.eta[None, :]) @ W
        mask = space.below_cap_mask(margin=2)
        sub = np.ix_(mask, mask)
        np.testing.assert_allclose(prod[sub], np.eye(space.dim)[sub],
                                   atol=1e-8)

    def test_exchange_phase(self):
        grid = coulomb_node(w=0.8)
        space = TruncatedFockSpace(grid, 15)
        g1 = np.array([[0.15, -0.05]])
        h1 = np.array([[0.05, 0.1]])
        g2 = np.array([[-0.1, 0.125]])
        h2 = np.array([[0.075, 0.0]])
        W1 = weyl_operator(g1, h1, space)
        W2 = weyl_operator(g2, h2, space)
        n1 = grid.as_channel_array(g1) + 1j * grid.as_channel_array(h1)
        n2 = grid.as_channel_array(g2) + 1j * grid.as_channel_array(h2)
        phase = np.exp(1j * grid.signed_product(n1, n2).imag)
        mask = space.below_cap_mask(margin=4)
        sub = np.ix_(mask, mask)
        np.testing.assert_allclose((W1 @ W2)[sub], (phase * W2 @ W1)[sub],
                                   atol=1e-9)
        # the phase is nontrivial for these arguments
        assert abs(phase.imag) > 1e-3

    def test_annihilator_commutator(self):
        # [a(fbar), W] = (i/sqrt 2) <f, n>_sigma W below the cap
        grid = coulomb_node()
        space = TruncatedFockSpace(grid, 15)
        g = np.array([[0.1, -0.08]])
        h = np.array([[0.0, 0.06]])
        f = np.array([[0.3 - 0.1j, 0.4j]])
        W = weyl_operator(g, h, space)
        a_f = space.annihilation_operator(f).toarray()
        n = grid.as_channel_array(g) + 1j * grid.as_channel_array(h)
        coeff = 1j / np.sqrt(2.0) * grid.signed_product(f, n)
        mask = space.below_cap_mask(margin=4)
        sub = np.ix_(mask, mask)
        assert abs(coeff) > 1e-3
        np.testing.assert_allclose((a_f @ W - W @ a_f)[sub],
                                   (coeff * W)[sub], atol=1e-9)

    @pytest.mark.parametrize("gauge,cap", [("FGB", 4), ("Coulomb", 10)])
    def test_action_on_state_matches_dense(self, gauge, cap):
        grid = ModeGrid([(0.0, 0.0, 0.5)], [0.9], gauge)
        space = TruncatedFockSpace(grid, cap)
        rng = np.random.default_rng(3)
        shape = (1, grid.channels_per_node)
        g, h = 0.3 * rng.normal(size=shape), 0.3 * rng.normal(size=shape)
        W = weyl_operator(g, h, space)
        v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        for state in (space.vacuum(), v / np.linalg.norm(v)):
            np.testing.assert_allclose(
                weyl_operator(g, h, space, on=state), W @ state,
                rtol=0.0, atol=1e-12)

    def test_rejects_complex_arguments(self):
        space = TruncatedFockSpace(coulomb_node(), 3)
        with pytest.raises(ValueError):
            weyl_operator(np.array([[1j, 0.0]]), np.zeros((1, 2)), space)


class TestBch:
    def test_identity_small_deviation(self):
        space = TruncatedFockSpace(coulomb_node(w=0.7), 14)
        f = np.array([[0.6, -0.3 + 0.2j]])
        g = np.array([[0.4j, 0.5]])
        assert bch_check(f, g, 0.8, space) < 1e-9

    def test_monotone_in_cap(self):
        grid = coulomb_node(w=0.7)
        f = np.array([[0.7, -0.4 + 0.3j]])
        g = np.array([[0.5j, 0.6]])
        devs = [bch_check(f, g, 1.0, TruncatedFockSpace(grid, cap))
                for cap in (6, 10, 14)]
        assert devs[0] > devs[1] > devs[2]


    @pytest.mark.parametrize("cap", [6, 10, 14])
    def test_matches_dense_formula(self, cap):
        space = TruncatedFockSpace(coulomb_node(w=0.7), cap)
        f = np.array([[0.7, -0.4 + 0.3j]])
        g = np.array([[0.5j, 0.6]])
        e = 1.0
        A = (1j * e * space.creation_operator(f)).toarray()
        B = (1j * e * space.annihilation_operator(g)).toarray()
        comm = -e ** 2 * space.grid.signed_product(g, f)
        lhs = scipy.linalg.expm(A + B)
        rhs = (scipy.linalg.expm(A) @ scipy.linalg.expm(B)
               * np.exp(-0.5 * comm))
        mask = np.all(space.occupations <= 4, axis=1)
        dense = float(np.abs(lhs - rhs)[np.ix_(mask, mask)].max())
        assert bch_check(f, g, e, space) == pytest.approx(
            dense, rel=1e-6, abs=1e-14)


class TestEmissionMatrixElement:
    def test_vacuum_reduces_to_one(self):
        space = TruncatedFockSpace(fgb_node(), 4)
        F = np.array([[0.2, 0.1, -0.3, 0.4]])
        val = emission_matrix_element([], F, 0.5, space)
        assert val == pytest.approx(1.0, abs=1e-13)

    def test_single_photon_pairing(self):
        # one photon pulls out -i e <f, F>_sigma
        grid = fgb_node(w=0.85)
        space = TruncatedFockSpace(grid, 5)
        rng = np.random.default_rng(23)
        f = 0.5 * (rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4)))
        F = 0.5 * (rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4)))
        e = 0.3
        val = emission_matrix_element([f], F, e, space)
        expected = -1j * e * grid.signed_product(f, F)
        assert val == pytest.approx(expected, rel=1e-10)

    def test_two_photons_factorize(self):
        grid = fgb_node(w=0.85)
        space = TruncatedFockSpace(grid, 6)
        rng = np.random.default_rng(29)
        f1 = 0.4 * (rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4)))
        f2 = 0.4 * (rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4)))
        F = 0.4 * (rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4)))
        e = 0.3
        val = emission_matrix_element([f1, f2], F, e, space)
        expected = ((-1j * e * grid.signed_product(f1, F))
                    * (-1j * e * grid.signed_product(f2, F)))
        assert val == pytest.approx(expected, rel=1e-10)

    def test_vacuum_part_multiplies_amplitude(self):
        grid = fgb_node(w=0.85)
        space = TruncatedFockSpace(grid, 6)
        rng = np.random.default_rng(31)
        f = 0.3 * (rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4)))
        F = 0.3 * (rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4)))
        e = 0.3
        bare = emission_matrix_element([f], F, e, space)
        dressed = emission_matrix_element([f], F, e, space,
                                          include_vacuum_part=True)
        vac = displacement_vacuum_expectation(F, e, space)
        assert dressed == pytest.approx(bare * vac, rel=1e-8)
