"""Vacuum amplitudes, emission factors, gauge reports, renormalization."""

import numpy as np
import pytest

from softphoton.core import (
    CutoffWindow,
    FormFactor,
    FourVelocity,
    ScatteringKinematics,
    on_shell_dot,
    transverse_projector,
)
from softphoton.currents import CurrentSpec, current_on_shell
from softphoton.fock import ModeGrid
from softphoton.gauge import PhotonSmearing, t_map
from softphoton.quadrature import _atanh_excess, integrate_radial, m_exponent
from softphoton.smatrix import (
    displacement_profile,
    displacement_profile_grid,
    emission_factor,
    fock_channels,
    full_amplitude,
    gauge_compare,
    m_exponent_grid,
    renormalization_ledger,
    vacuum_amplitude,
)

WINDOW = CutoffWindow(lam=0.1, Lam=1.0)
RHO = FormFactor.sharp(0.1, 1.0)
NORM = (2.0 * np.pi) ** 1.5


def bn_kin(u_in=(0.0, 0.0, 0.0), u_out=(0.0, 0.0, 0.5), charge=0.3):
    return ScatteringKinematics.bn(charge=charge, u_in=u_in, u_out=u_out)


def dipole_kin(charge=0.3):
    return ScatteringKinematics.dipole(charge=charge, mass=1.0,
                                       p_in=(0.0, 0.0, 0.0),
                                       p_out=(0.0, 0.0, 0.1))


def transverse_values(grid, rng, scale=1.0):
    nodes = np.asarray(grid.nodes)
    raw = scale * (rng.normal(size=(grid.n_nodes, 3))
                   + 1j * rng.normal(size=(grid.n_nodes, 3)))
    return np.stack([transverse_projector(k) @ v
                     for k, v in zip(nodes, raw)])


class TestDisplacementProfile:
    def test_matches_current(self):
        kin = bn_kin()
        k = np.array([0.2, -0.3, 0.4])
        spec = CurrentSpec(kin, "FGB", RHO, WINDOW)
        expected = -current_on_shell(spec, k) / (NORM * np.sqrt(2.0 * np.linalg.norm(k)))
        np.testing.assert_allclose(
            displacement_profile(kin, "FGB", RHO, WINDOW, k), expected)

    def test_printed_form(self):
        # -i rho sum_r eta_r u_r / (norm sqrt(2k) (u_r . k)), node by node
        kin = bn_kin(u_in=(0.1, 0.0, -0.2), u_out=(0.0, 0.3, 0.4))
        k = np.array([0.0, 0.5, 0.0])
        kn = 0.5
        F = displacement_profile(kin, "FGB", RHO, WINDOW, k)
        expected = np.zeros(4, dtype=complex)
        for eta, leg in ((1.0, "out"), (-1.0, "in")):
            u = kin.velocity(leg)
            expected += eta * u.four() / on_shell_dot(u, k)
        expected *= -1j * RHO(kn) / (NORM * np.sqrt(2.0 * kn))
        np.testing.assert_allclose(F, expected, atol=1e-15)

    def test_zero_outside_window(self):
        kin = bn_kin()
        assert np.all(displacement_profile(kin, "FGB", RHO, WINDOW,
                                           (0.0, 0.0, 2.0)) == 0.0)
        assert np.all(displacement_profile(kin, "Coulomb", RHO, WINDOW,
                                           (0.0, 0.0, 0.05)) == 0.0)

    @pytest.mark.parametrize("gauge", ["FGB", "Coulomb"])
    @pytest.mark.parametrize("kin", [bn_kin(u_in=(0.2, 0.1, 0.0)),
                                     dipole_kin()])
    def test_stack_matches_per_momentum_loop(self, kin, gauge):
        # rows outside the window, including k = 0, are zero without
        # evaluating the current there
        rng = np.random.default_rng(43)
        ks = rng.normal(size=(12, 3))
        ks *= rng.uniform(0.02, 1.4, size=(12, 1)) / np.linalg.norm(
            ks, axis=1, keepdims=True)
        ks[0] = 0.0
        ks[1] = (0.1, 0.0, 0.0)
        spec = CurrentSpec(kin, gauge, RHO, WINDOW)
        loop = []
        for k in ks:
            kn = np.linalg.norm(k)
            if WINDOW.lam <= kn <= WINDOW.Lam:
                loop.append(-current_on_shell(spec, k)
                            / (NORM * np.sqrt(2.0 * kn)))
            else:
                loop.append(np.zeros(4 if gauge == "FGB" else 3))
        stacked = displacement_profile(kin, gauge, RHO, WINDOW, ks)
        np.testing.assert_allclose(stacked, np.array(loop), rtol=1e-14,
                                   atol=0.0)
        assert np.all(stacked[0] == 0.0) and np.any(stacked[1] != 0.0)

    def test_coulomb_transverse(self):
        kin = bn_kin(u_in=(0.2, 0.1, 0.0), u_out=(0.0, 0.0, 0.6))
        k = np.array([0.3, 0.3, 0.1])
        F = displacement_profile(kin, "Coulomb", RHO, WINDOW, k)
        assert F.shape == (3,)
        assert abs(k @ F) < 1e-15


class TestVacuumAmplitude:
    def test_degenerate_is_one(self):
        kin = bn_kin(u_in=(0.0, 0.0, 0.5), u_out=(0.0, 0.0, 0.5))
        assert vacuum_amplitude(kin, "FGB", RHO, WINDOW) == pytest.approx(
            1.0, abs=1e-10)

    def test_dipole_frozen_values(self):
        kin = dipole_kin()
        coul = vacuum_amplitude(kin, "Coulomb", RHO, WINDOW)
        fgb = vacuum_amplitude(kin, "FGB", RHO, WINDOW)
        assert coul.real == pytest.approx(np.exp(-1.7497e-5), rel=1e-8)
        assert fgb.real == pytest.approx(np.exp(-2.6246e-5), rel=1e-8)
        assert np.log(fgb.real) / np.log(coul.real) == pytest.approx(
            1.5, rel=1e-10)

    def test_real_unit_interval(self):
        kin = bn_kin(u_in=(0.3, -0.2, 0.1), u_out=(-0.1, 0.4, 0.2))
        for gauge in ("FGB", "Coulomb"):
            val = vacuum_amplitude(kin, gauge, RHO, WINDOW)
            assert val.imag == 0.0
            assert 0.0 < val.real <= 1.0
            exponent = m_exponent(kin, gauge, RHO, WINDOW)
            assert val == pytest.approx(np.exp(exponent.total), rel=1e-12)

    def test_monotone_in_lambda(self):
        # raising the infrared cutoff removes soft modes
        kin = bn_kin()
        logs = []
        for lam in (0.1, 0.3, 0.6):
            window = CutoffWindow(lam=lam, Lam=1.0)
            rho = FormFactor.sharp(lam, 1.0)
            logs.append(-np.log(vacuum_amplitude(kin, "FGB", rho,
                                                 window).real))
        assert logs[0] > logs[1] > logs[2] > 0.0


class TestEmissionFactorGrid:
    def grid_and_photon(self, gauge, seed=3):
        rng = np.random.default_rng(seed)
        nodes = [(0.0, 0.2, 0.4), (0.3, -0.1, 0.2), (0.0, 0.0, 0.7)]
        grid = ModeGrid(nodes, [0.4, 0.3, 0.2], gauge)
        if gauge == "FGB":
            vals = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        else:
            vals = transverse_values(grid, rng)
        return grid, PhotonSmearing(grid, vals)

    def test_fgb_printed_sum(self):
        kin = bn_kin(u_in=(0.1, 0.2, 0.0), u_out=(0.0, -0.3, 0.4))
        grid, photon = self.grid_and_photon("FGB")
        factor = emission_factor(kin, "FGB", photon, RHO, WINDOW)
        manual = 0.0 + 0.0j
        for i, k in enumerate(np.asarray(grid.nodes)):
            kn = np.linalg.norm(k)
            fbar = np.conj(photon.values[i])
            for eta, leg in ((1.0, "out"), (-1.0, "in")):
                u = kin.velocity(leg)
                mink = u.u0 * fbar[0] - u.spatial @ fbar[1:]
                manual += (grid.weights[i] * eta * RHO(kn) * mink
                           / (NORM * np.sqrt(2.0 * kn) * on_shell_dot(u, k)))
        manual *= -kin.charge
        assert factor == pytest.approx(manual, rel=1e-12)

    def test_coulomb_printed_sum(self):
        kin = bn_kin(u_in=(0.1, 0.2, 0.0), u_out=(0.0, -0.3, 0.4))
        grid, photon = self.grid_and_photon("Coulomb")
        factor = emission_factor(kin, "Coulomb", photon, RHO, WINDOW)
        manual = 0.0 + 0.0j
        for i, k in enumerate(np.asarray(grid.nodes)):
            kn = np.linalg.norm(k)
            fbar = np.conj(photon.values[i])
            for eta, leg in ((1.0, "out"), (-1.0, "in")):
                u = kin.velocity(leg)
                manual += (grid.weights[i] * eta * RHO(kn)
                           * (u.spatial @ fbar)
                           / (NORM * np.sqrt(2.0 * kn) * on_shell_dot(u, k)))
        manual *= kin.charge
        assert factor == pytest.approx(manual, rel=1e-12)

    def test_physical_fgb_equals_coulomb_of_t_map(self):
        # photons obeying the subsidiary condition give gauge-independent
        # factors for the conserved BN current, with the Coulomb photon the
        # T-map image of the covariant one
        kin = bn_kin(u_in=(0.2, 0.0, -0.1), u_out=(0.1, 0.3, 0.2))
        rng = np.random.default_rng(11)
        nodes = [(0.0, 0.2, 0.4), (0.3, -0.1, 0.2)]
        fgb_grid = ModeGrid(nodes, [0.5, 0.3], "FGB")
        spatial = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        khat = np.stack([np.asarray(k) / np.linalg.norm(k) for k in nodes])
        temporal = np.einsum("ij,ij->i", khat, spatial)[:, None]
        f_fgb = PhotonSmearing(fgb_grid,
                               np.concatenate([temporal, spatial], axis=1))
        coul_grid = ModeGrid(nodes, [0.5, 0.3], "Coulomb")
        f_coul = PhotonSmearing(coul_grid, t_map(f_fgb))
        a = emission_factor(kin, "FGB", f_fgb, RHO, WINDOW)
        b = emission_factor(kin, "Coulomb", f_coul, RHO, WINDOW)
        assert a == pytest.approx(b, rel=1e-12)

    def test_input_validation(self):
        kin = bn_kin()
        grid, photon = self.grid_and_photon("Coulomb")
        with pytest.raises(ValueError):
            emission_factor(kin, "FGB", photon, RHO, WINDOW)
        outside = ModeGrid([(0.0, 0.0, 1.5)], [1.0], "FGB")
        bad = PhotonSmearing(outside, np.ones((1, 4), dtype=complex))
        with pytest.raises(ValueError):
            emission_factor(kin, "FGB", bad, RHO, WINDOW)


class TestEmissionFactorContinuum:
    def test_z_polarized_closed_form(self):
        # rest -> 0.5 zhat, f = (0,0,0,1): only the outgoing leg couples,
        # angular integral is 4 pi ln 3 / (2 beta k)
        kin = bn_kin()

        def photon(k):
            return np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)

        factor = emission_factor(kin, "FGB", photon, RHO, WINDOW)
        radial = (np.sqrt(0.5) * 2.0 / 3.0) * (1.0 - 0.1 ** 1.5)
        expected = kin.charge * 2.0 * np.pi * np.log(3.0) * radial / NORM
        assert factor == pytest.approx(expected, rel=1e-10)

    def test_pure_gauge_decouples_for_bn(self):
        kin = bn_kin(u_in=(0.2, 0.1, 0.0), u_out=(0.0, -0.2, 0.5))

        def photon(k):
            kn = np.linalg.norm(k)
            h = 1.3 + 0.4j * kn
            return np.array([kn * h, *(k * h)])

        factor = emission_factor(kin, "FGB", photon, RHO, WINDOW)
        assert abs(factor) < 1e-13

    def test_pure_gauge_dipole_proportional_to_divergence(self):
        # h(k) = k . dp makes the angular average of (khat . dp)^2 appear
        kin = dipole_kin()
        dp = np.array([0.0, 0.0, 0.1])

        def photon(k):
            h = k @ dp
            kn = np.linalg.norm(k)
            return np.array([kn * h, *(k * h)], dtype=complex)

        factor = emission_factor(kin, "FGB", photon, RHO, WINDOW)
        # -e int d3k rho (-(k.dp)/(m k)) conj(h) / (norm sqrt(2k))
        # = (e/m) (4pi/3) |dp|^2 int dk k^3 rho / (norm sqrt(2k))
        radial = (2.0 / 7.0) * (1.0 - 0.1 ** 3.5)  # int k^(5/2) dk
        expected = (kin.charge * (4.0 * np.pi / 3.0) * 0.1 ** 2
                    * radial / (NORM * np.sqrt(2.0)))
        assert factor == pytest.approx(expected, rel=1e-10)
        assert abs(factor) > 1e-8

    def test_continuum_matches_grid_in_the_limit(self):
        # a fine radial grid along one direction reproduces the continuum
        # integral restricted to that ray; instead compare full quadrature
        # against a dense matched sum over a product grid
        # legs off every axis and a photon with all four components, so
        # that the factor depends on the azimuth about each leg
        kin = bn_kin(u_in=(0.2, 0.1, 0.0), u_out=(0.0, -0.2, 0.5))

        def photon(k):
            # one k or a stack of them
            val = np.exp(-((np.linalg.norm(k, axis=-1) - 0.5) / 0.15) ** 2)
            return np.stack([0.3 * val, val, 0.5j * val, -0.2 * val],
                            axis=-1)

        factor = emission_factor(kin, "FGB", photon, RHO, WINDOW)
        # oracle: manual high-order tensor quadrature, all nodes in one pass
        nk, nc, nphi = 80, 64, 64
        xs, ws = np.polynomial.legendre.leggauss(nk)
        ks = 0.55 + 0.45 * xs
        wk = 0.45 * ws
        xc, wc = np.polynomial.legendre.leggauss(nc)
        phi = 2.0 * np.pi * np.arange(nphi) / nphi
        s = np.sqrt(1.0 - xc * xc)
        khat = np.stack([np.outer(s, np.cos(phi)), np.outer(s, np.sin(phi)),
                         np.repeat(xc[:, None], nphi, axis=1)], axis=-1)
        kvec = ks[:, None, None, None] * khat  # (nk, nc, nphi, 3)
        kn = np.linalg.norm(kvec, axis=-1)
        fbar = np.conj(photon(kvec))
        acc = 0.0 + 0.0j
        for eta, leg in ((1.0, "out"), (-1.0, "in")):
            u = kin.velocity(leg)
            mink = u.u0 * fbar[..., 0] - fbar[..., 1:] @ u.spatial
            acc = acc + eta * mink / (u.u0 * kn - kvec @ u.spatial)
        weight = wk * ks ** 2 * RHO(ks) / (NORM * np.sqrt(2.0 * ks))
        total = np.sum(weight[:, None, None] * wc[None, :, None]
                       * (2.0 * np.pi / nphi) * acc)
        oracle = -kin.charge * total
        assert abs(factor) > 1e-3
        assert factor == pytest.approx(oracle, rel=1e-9)


class TestEmissionFactorContinuumClosedForms:
    """Separable bump photons f(k) = a g(|k|) against their closed forms.

    The angular integral of each leg's soft factor is elementary, so the
    factor is e sum_r eta_r A_r(a) R with one radial integral
    R = Int k rho g / ((2 pi)^(3/2) sqrt(2k)) dk.
    """

    GAUSS = FormFactor.gaussian(0.7)

    @staticmethod
    def g(k):
        return np.exp(-(((k - 0.5) / 0.1) ** 2))

    def bump(self, a):
        a = np.asarray(a, dtype=complex)
        return lambda k: a * self.g(np.linalg.norm(k))

    def radial(self):
        return integrate_radial(
            lambda k: k * self.GAUSS(k) * self.g(k) / (NORM * np.sqrt(2.0 * k)),
            WINDOW.lam, WINDOW.Lam, breaks=self.GAUSS.knots())

    @staticmethod
    def legs(kin):
        return ((kin.eta_out, kin.velocity("out").spatial),
                (kin.eta_in, kin.velocity("in").spatial))

    def test_dipole_coulomb(self):
        # Int dOmega P(khat) = (8 pi / 3) 1
        kin = ScatteringKinematics.dipole(charge=0.3, mass=1.0,
                                          p_in=(0.1, 0.0, 0.0),
                                          p_out=(0.0, 0.2, 0.3))
        a = np.array([0.3 - 0.2j, 1.0, 0.5j])
        got = emission_factor(kin, "Coulomb", self.bump(a), self.GAUSS, WINDOW)
        want = kin.charge * self.radial() * sum(
            eta * (8.0 * np.pi / 3.0) * (v @ np.conj(a))
            for eta, v in self.legs(kin))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_bn_fgb(self):
        # Int dOmega / (1 - v.khat) = 4 pi atanh(beta) / beta = 4 pi (1 + X)
        kin = bn_kin(u_in=(0.2, 0.1, 0.0), u_out=(0.0, -0.3, 0.4))
        a = np.array([0.4, 1.0, 0.5j, 0.3 - 0.1j])
        got = emission_factor(kin, "FGB", self.bump(a), self.GAUSS, WINDOW)
        want = -kin.charge * self.radial() * sum(
            eta * 4.0 * np.pi * (1.0 + _atanh_excess(v @ v, 1.0 - v @ v))
            * (np.conj(a[0]) - v @ np.conj(a[1:]))
            for eta, v in self.legs(kin))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_bn_gauge_independence(self):
        # the physical FGB photon (khat.a g, a g) and its transverse part
        # give the same factor for the conserved BN current
        kin = bn_kin(u_in=(0.2, 0.1, 0.0), u_out=(0.0, -0.3, 0.4))
        a = np.array([0.3 - 0.2j, 1.0, 0.5j])

        def fgb(k):
            khat = k / np.linalg.norm(k)
            return np.concatenate([[khat @ a], a]) * self.g(np.linalg.norm(k))

        def coulomb(k):
            khat = k / np.linalg.norm(k)
            return (a - khat * (khat @ a)) * self.g(np.linalg.norm(k))

        x = emission_factor(kin, "FGB", fgb, self.GAUSS, WINDOW)
        y = emission_factor(kin, "Coulomb", coulomb, self.GAUSS, WINDOW)
        assert abs(x - y) <= 1e-12 * abs(x)
        assert abs(x) > 1e-4


class TestFullAmplitude:
    def test_no_photons(self):
        kin = bn_kin()
        report = full_amplitude(kin, "FGB", [], RHO, WINDOW)
        assert report.total == report.vacuum_amplitude
        assert report.emission_factors == ()
        assert report.oracle_value is None
        assert 0.0 < report.vacuum_amplitude.real <= 1.0
        assert report.vacuum_amplitude.imag == 0.0

    def test_product_structure(self):
        kin = bn_kin(u_in=(0.1, 0.0, 0.0), u_out=(0.0, 0.0, 0.5))
        rng = np.random.default_rng(7)
        nodes = [(0.0, 0.2, 0.4), (0.3, -0.1, 0.2)]
        grid = ModeGrid(nodes, [0.4, 0.3], "Coulomb")
        photons = [PhotonSmearing(grid, transverse_values(grid, rng))
                   for _ in range(2)]
        report = full_amplitude(kin, "Coulomb", photons, RHO, WINDOW)
        assert report.total == report.vacuum_amplitude * np.prod(
            report.emission_factors)
        assert len(report.emission_factors) == 2

    def test_oracle_agreement(self):
        kin = bn_kin(u_in=(0.0, 0.0, 0.0), u_out=(0.0, 0.0, 0.5))
        rng = np.random.default_rng(19)
        nodes = [(0.0, 0.0, 0.4), (0.3, 0.2, -0.1)]
        grid = ModeGrid(nodes, [0.4, 0.3], "Coulomb")
        photons = [PhotonSmearing(grid, transverse_values(grid, rng, 0.6))
                   for _ in range(2)]
        report = full_amplitude(kin, "Coulomb", photons, RHO, WINDOW,
                                oracle_cap=7)
        assert report.oracle_dim == 4096
        assert report.oracle_value == pytest.approx(report.oracle_grid_total,
                                                    rel=1e-8)

    def test_oracle_validation(self):
        kin = bn_kin()
        rng = np.random.default_rng(23)
        grid_a = ModeGrid([(0.0, 0.0, 0.4)], [0.4], "Coulomb")
        grid_b = ModeGrid([(0.0, 0.0, 0.5)], [0.4], "Coulomb")
        pa = PhotonSmearing(grid_a, transverse_values(grid_a, rng))
        pb = PhotonSmearing(grid_b, transverse_values(grid_b, rng))
        with pytest.raises(ValueError):
            full_amplitude(kin, "Coulomb", [pa, pb], RHO, WINDOW, oracle_cap=5)
        with pytest.raises(ValueError):
            full_amplitude(kin, "Coulomb", [], RHO, WINDOW, oracle_cap=5)


class TestMExponentGrid:
    def test_literal_sum(self):
        kin = bn_kin(u_out=(0.0, 0.2, 0.4))
        grid = ModeGrid([(0.0, 0.0, 0.4), (0.3, 0.2, -0.1)], [0.4, 0.3],
                        "FGB")
        val = m_exponent_grid(kin, "FGB", RHO, WINDOW, grid)
        F = fock_channels(grid, displacement_profile_grid(
            kin, "FGB", RHO, WINDOW, grid))
        manual = 0.5 * kin.charge ** 2 * grid.signed_product(F, F)
        assert val == manual
        assert val.real < 0.0
        assert abs(val.imag) < 1e-18


class TestGaugeCompare:
    def test_bn_equality(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            u_in = 0.6 * rng.uniform(-1, 1, size=3)
            u_out = 0.6 * rng.uniform(-1, 1, size=3)
            kin = bn_kin(u_in=tuple(u_in), u_out=tuple(u_out))
            report = gauge_compare(kin, RHO, WINDOW)
            assert report.log_ratio == pytest.approx(1.0, abs=1e-8)
            assert report.conservation_residual < 1e-14
            assert not report.degenerate

    def test_dipole_discrepancy(self):
        report = gauge_compare(dipole_kin(), RHO, WINDOW)
        assert report.log_ratio == pytest.approx(1.5, abs=1e-8)
        assert report.conservation_residual > 1e-6
        gauss = FormFactor.gaussian(0.35)
        report2 = gauge_compare(dipole_kin(), gauss,
                                CutoffWindow(lam=0.2, Lam=0.8))
        assert report2.log_ratio == pytest.approx(1.5, abs=1e-8)

    def test_small_charge_is_not_degenerate(self):
        # both exponents scale with charge^2 (here ~1e-16); the ratio does not
        report = gauge_compare(dipole_kin(charge=1e-6), RHO, WINDOW)
        assert abs(report.m_coulomb) < 1e-13
        assert not report.degenerate
        assert report.log_ratio == pytest.approx(1.5, abs=1e-8)

    def test_degenerate_flag(self):
        kin = bn_kin(u_in=(0.0, 0.0, 0.3), u_out=(0.0, 0.0, 0.3))
        report = gauge_compare(kin, RHO, WINDOW)
        assert report.degenerate
        assert np.isnan(report.log_ratio)


class TestRenormalizationLedger:
    LADDER = (1e-1, 1e-2, 1e-3)

    def test_zero_charge(self):
        ledger = renormalization_ledger(FourVelocity.rest(), self.LADDER,
                                        RHO, WINDOW, charge=0.0)
        for row in ledger.rows:
            assert row.unrenormalized == 0.0
            assert row.counterterm == 0.0
        assert ledger.extrapolated == 0.0
        assert ledger.relative_error == 0.0

    def test_rest_frame_extrapolation(self):
        ledger = renormalization_ledger(FourVelocity.rest(), self.LADDER,
                                        RHO, WINDOW, charge=0.3)
        target = 0.09 * np.log(10.0) / (8.0 * np.pi ** 2)
        assert ledger.target == pytest.approx(target, rel=1e-9)
        assert ledger.relative_error < 1e-4
        assert ledger.extrapolated.imag == 0.0
        imags = [abs(r.total.imag) for r in ledger.rows]
        assert imags[0] > imags[1] > imags[2]
        # summed phases are negative for positive epsilon
        assert all(r.total.imag < 0.0 for r in ledger.rows)
        for row in ledger.rows:
            assert row.total == row.unrenormalized + row.counterterm

    def test_moving_frame_same_target(self):
        u = FourVelocity((0.0, 0.0, 0.5))
        ledger = renormalization_ledger(u, self.LADDER, RHO, WINDOW,
                                        charge=0.3)
        rest = renormalization_ledger(FourVelocity.rest(), self.LADDER,
                                      RHO, WINDOW, charge=0.3)
        assert ledger.target == pytest.approx(rest.target, rel=1e-9)
        assert ledger.relative_error < 1e-3

    def test_ladder_validation(self):
        u = FourVelocity.rest()
        with pytest.raises(ValueError):
            renormalization_ledger(u, [], RHO, WINDOW, charge=0.3)
        with pytest.raises(ValueError):
            renormalization_ledger(u, [1e-2, 1e-1], RHO, WINDOW, charge=0.3)
        with pytest.raises(ValueError):
            renormalization_ledger(u, [1e-1, -1e-2], RHO, WINDOW, charge=0.3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_ladder_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            renormalization_ledger(FourVelocity.rest(), [bad, 1e-2], RHO,
                                   WINDOW, charge=0.3)
