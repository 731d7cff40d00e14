import numpy as np
import pytest

from softphoton import CutoffWindow, FormFactor, FourVelocity, ScatteringKinematics
from softphoton import quadrature
from softphoton.currents import (
    CoherenceFunction,
    CurrentSpec,
    coherence_asymptotic,
    coherence_regularized,
    current_divergence,
    current_fourier,
    current_on_shell,
    phase_exponent_d,
    polarization_frame,
)
from softphoton.quadrature import radial_moment

SHARP = FormFactor.sharp(0.1, 1.0)
WIN = CutoffWindow(0.1, 1.0)
TABULATED = FormFactor.tabulated([0.1, 0.5, 1.0], [1.0, 0.6, 0.2])
KIN_BN = ScatteringKinematics.bn((0.1, -0.2, 0.3), (0.0, 0.4, -0.5), charge=0.3)
KIN_DIP = ScatteringKinematics.dipole((0.0, 0.0, 0.0), (0.0, 0.0, 0.2), 1.0, 0.3)


def _mink_sq(j4):
    return abs(j4[0]) ** 2 - float(np.sum(np.abs(j4[1:]) ** 2))


class TestCurrentFourier:
    def test_bn_closed_form(self):
        spec = CurrentSpec(KIN_BN, "FGB", SHARP, WIN)
        k = np.array([0.2, 0.1, -0.4])
        k0 = 0.7
        ui, uo = KIN_BN.u_in.four(), KIN_BN.u_out.four()
        di = k0 - KIN_BN.u_in.spatial @ k
        do = k0 - KIN_BN.u_out.spatial @ k
        want = 1j * SHARP(np.linalg.norm(k)) * (-ui / di + uo / do)
        assert np.allclose(current_fourier(spec, k, k0), want, atol=1e-15)

    def test_bn_on_shell_conservation(self):
        spec = CurrentSpec(KIN_BN, "FGB", SHARP, WIN)
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = rng.uniform(-1, 1, 3)
            if np.linalg.norm(k) < 0.1:
                continue
            j = current_on_shell(spec, k)
            residual = np.linalg.norm(k) * j[0] - k @ j[1:]
            assert abs(residual) < 1e-14

    def test_bn_pointwise_gauge_identity(self):
        # |j0|^2 - |jvec|^2 = -|P jvec|^2 on shell for conserved currents
        fgb = CurrentSpec(KIN_BN, "FGB", SHARP, WIN)
        cou = CurrentSpec(KIN_BN, "Coulomb", SHARP, WIN)
        rng = np.random.default_rng(6)
        for _ in range(20):
            k = rng.uniform(-1, 1, 3)
            if np.linalg.norm(k) < 0.1:
                continue
            j4 = current_on_shell(fgb, k)
            jc = current_on_shell(cou, k)
            assert np.isclose(_mink_sq(j4), -float(np.sum(np.abs(jc) ** 2)),
                              atol=1e-12)

    def test_coulomb_is_projected_spatial(self):
        fgb = CurrentSpec(KIN_BN, "FGB", SHARP, WIN)
        cou = CurrentSpec(KIN_BN, "Coulomb", SHARP, WIN)
        k = np.array([0.5, 0.0, 0.3])
        j4 = current_fourier(fgb, k, 0.9)
        jc = current_fourier(cou, k, 0.9)
        khat = k / np.linalg.norm(k)
        assert np.allclose(jc, j4[1:] - khat * (khat @ j4[1:]), atol=1e-15)
        assert abs(k @ jc) < 1e-14

    def test_dipole_time_component_leg_independent(self):
        # static charge density: j0 never sees the momenta
        other = ScatteringKinematics.dipole((0.1, 0, 0), (0, -0.3, 0.2), 1.0, 0.3)
        for eps in (0.0, 0.05):
            a = current_fourier(CurrentSpec(KIN_DIP, "FGB", SHARP, WIN, eps),
                                [0, 0, 0.5], 0.5)
            b = current_fourier(CurrentSpec(other, "FGB", SHARP, WIN, eps),
                                [0, 0, 0.5], 0.5)
            assert a[0] == b[0]

    def test_dipole_on_shell_form(self):
        spec = CurrentSpec(KIN_DIP, "FGB", SHARP, WIN)
        k = np.array([0.0, 0.0, 0.5])
        j = current_on_shell(spec, k)
        # i rho (vtilde_out - vtilde_in)/|k| = i (0, 0, 0, 0.2)/0.5
        assert abs(j[0]) == 0.0
        assert np.allclose(j[1:], [0.0, 0.0, 1j * 0.4], atol=1e-15)

    def test_pole_guard(self):
        spec = CurrentSpec(KIN_BN, "FGB", SHARP, WIN)
        k = np.array([0.0, 0.0, 0.5])
        k0 = float(KIN_BN.u_out.spatial @ k)  # d_out = 0
        with pytest.raises(ValueError):
            current_fourier(spec, k, k0)
        with pytest.raises(ValueError):
            current_fourier(spec, np.zeros(3), 1.0)

    def test_eps_regularized_moves_off_pole(self):
        spec = CurrentSpec(KIN_BN, "FGB", SHARP, WIN, eps=0.01)
        k = np.array([0.0, 0.0, 0.5])
        k0 = float(KIN_BN.u_out.spatial @ k)
        j = current_fourier(spec, k, k0)
        assert np.all(np.isfinite(j))


class TestDivergence:
    def test_bn_conserved(self):
        spec = CurrentSpec(KIN_BN, "FGB", SHARP, WIN)
        assert current_divergence(spec, [0, 0, 0.4], 2.0) == 0.0

    def test_dipole_example(self):
        spec = CurrentSpec(KIN_DIP, "FGB", SHARP, WIN)
        # k = zhat, p_out = 0.2 zhat, m = 1, rho~ = 1 on the window edge
        val = current_divergence(spec, [0, 0, 1.0], 0.5)
        assert np.isclose(val, 0.2j, atol=1e-15)
        # in leg at rest: no leakage before the kick
        assert current_divergence(spec, [0, 0, 1.0], -0.5) == 0.0

    def test_t_zero_rejected(self):
        spec = CurrentSpec(KIN_DIP, "FGB", SHARP, WIN)
        with pytest.raises(ValueError):
            current_divergence(spec, [0, 0, 1.0], 0.0)


class TestPolarizationFrame:
    def test_orthonormal_right_handed(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            k = rng.normal(size=3)
            e1, e2 = polarization_frame(k)
            khat = k / np.linalg.norm(k)
            assert np.isclose(e1 @ e1, 1.0, atol=1e-14)
            assert np.isclose(e2 @ e2, 1.0, atol=1e-14)
            assert abs(e1 @ e2) < 1e-14
            assert abs(e1 @ khat) < 1e-14
            assert np.allclose(np.cross(e1, e2), khat, atol=1e-14)

    def test_deterministic(self):
        a = polarization_frame([0.3, 0.2, 0.9])
        b = polarization_frame([0.3, 0.2, 0.9])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_stack_matches_single(self):
        ks = np.random.default_rng(5).normal(size=(64, 3))
        e1s, e2s = polarization_frame(ks)
        assert e1s.shape == e2s.shape == (64, 3)
        for k, a, b in zip(ks, e1s, e2s):
            e1, e2 = polarization_frame(k)
            np.testing.assert_allclose(a, e1, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(b, e2, rtol=0.0, atol=1e-15)
        with pytest.raises(ValueError):
            polarization_frame([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])


class TestCoherence:
    def test_bn_rest_asymptotic_magnitude(self):
        kin = ScatteringKinematics.bn((0, 0, 0), (0, 0, 0.5), charge=0.3)
        spec = CurrentSpec(kin, "FGB", SHARP, WIN)
        k = np.array([0.0, 0.3, 0.4])
        f = coherence_asymptotic(spec, "in", k)
        kn = 0.5
        want = SHARP(kn) / ((2 * np.pi) ** 1.5 * np.sqrt(2 * kn) * kn)
        assert np.allclose(f[1:], 0.0)
        assert np.isclose(abs(f[0]), want, rtol=1e-14)
        assert np.isclose(f[0], 1j * want)  # overall factor +i

    def test_coulomb_transverse(self):
        spec = CurrentSpec(KIN_BN, "Coulomb", SHARP, WIN)
        k = np.array([0.2, -0.1, 0.4])
        f = coherence_asymptotic(spec, "out", k)
        assert f.shape == (3,)
        assert abs(k @ f) < 1e-15

    def test_out_of_window_rejected(self):
        spec = CurrentSpec(KIN_BN, "FGB", SHARP, WIN)
        with pytest.raises(ValueError):
            coherence_asymptotic(spec, "out", [0, 0, 2.0])
        with pytest.raises(ValueError):
            coherence_asymptotic(spec, "out", [0, 0, 0.05])

    def test_regularized_vanishes_at_t0(self):
        spec = CurrentSpec(KIN_BN, "FGB", SHARP, WIN)
        f = coherence_regularized(spec, "out", [0, 0, 0.5], 0.0, 0.1)
        assert np.all(f == 0.0)

    @pytest.mark.parametrize("leg,tsign", [("out", +1.0), ("in", -1.0)])
    @pytest.mark.parametrize("model", ["BN", "dipole"])
    def test_iterated_limit_matches_asymptotic(self, leg, tsign, model):
        kin = KIN_BN if model == "BN" else KIN_DIP
        spec = CurrentSpec(kin, "FGB", SHARP, WIN)
        k = np.array([0.1, 0.2, 0.4])
        eps = 1e-11
        t = tsign * 3.0e12  # eps |t| = 30, eps/omega ~ 1e-10
        got = coherence_regularized(spec, leg, k, t, eps)
        want = coherence_asymptotic(spec, leg, k)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-16)

    def test_dipole_coulomb_vector(self):
        spec = CurrentSpec(KIN_DIP, "Coulomb", SHARP, WIN)
        k = np.array([0.3, 0.0, 0.4])
        f = coherence_asymptotic(spec, "out", k)
        kn = 0.5
        P = np.eye(3) - np.outer(k / kn, k / kn)
        want = 1j * SHARP(kn) * (P @ np.array([0, 0, 0.2])) / (
            (2 * np.pi) ** 1.5 * np.sqrt(2 * kn) * kn)
        assert np.allclose(f, want, atol=1e-15)

    def test_wrapper_metadata(self):
        spec = CurrentSpec(KIN_BN, "Coulomb", SHARP, WIN)
        fn = CoherenceFunction(spec, "out")
        val = fn([0, 0, 0.5])
        assert np.allclose(val, coherence_asymptotic(spec, "out", [0, 0, 0.5]))
        assert fn.window_norm() > 0.0
        with pytest.raises(ValueError):
            CoherenceFunction(spec, "sideways")


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("rho", [SHARP, TABULATED], ids=["sharp", "tabulated"])
@pytest.mark.parametrize("gauge", ["FGB", "Coulomb"])
def test_window_norm_closed_forms_off_axis(gauge, rho):
    # Int d3k |f|^2 of a straight leg is R_{-1} / (2 (2 pi)^3) times
    # (1 + beta^2) 4 pi / (1 - beta^2) in FGB and 8 pi (atanh beta - beta) /
    # beta in Coulomb gauge, whichever way the leg points
    rng = np.random.default_rng(11)
    radial = radial_moment(rho, WIN, -1) / (2.0 * (2.0 * np.pi) ** 3)
    cases = [((0.0, 0.2, 0.0), (0.5, 0.0, 0.0)),
             (0.9 * _unit(rng), 0.1 * _unit(rng)),
             (0.3 * _unit(rng), 0.7 * _unit(rng)),
             (0.99 * _unit(rng), 0.6 * _unit(rng)),
             (0.999 * _unit(rng), 0.4 * _unit(rng))]
    for u_in, u_out in cases:
        turn = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        norms = []
        for legs in ((u_in, u_out), (turn @ u_in, turn @ u_out)):
            kin = ScatteringKinematics.bn(*legs, charge=0.3)
            spec = CurrentSpec(kin, gauge, rho, WIN)
            norms.append([CoherenceFunction(spec, leg).window_norm()
                          for leg in ("in", "out")])
        for u, got, turned in zip((u_in, u_out), *norms):
            beta = np.linalg.norm(u)
            angular = ((1.0 + beta ** 2) * 4.0 * np.pi / (1.0 - beta ** 2)
                       if gauge == "FGB"
                       else 8.0 * np.pi * (np.arctanh(beta) - beta) / beta)
            assert got == pytest.approx(radial * angular, rel=1e-12)
            assert turned == pytest.approx(got, rel=1e-12)


@pytest.mark.parametrize("gauge", ["FGB", "Coulomb"])
def test_near_luminal_shell_integrals_stay_low_order(gauge, monkeypatch):
    # the adaptive cos(theta) panels resolve 1/(1 - beta c) at beta = 0.999
    # by splitting, with no Gauss-Legendre table above the panel rule's 32
    orders = []
    table = quadrature._gl

    def recording(n):
        orders.append(n)
        return table(n)
    monkeypatch.setattr(quadrature, "_gl", recording)
    u = (0.999 / np.sqrt(3.0)) * np.array([1.0, -1.0, 1.0])
    kin = ScatteringKinematics.bn((0.0, 0.0, 0.0), u, charge=0.3)
    assert CoherenceFunction(CurrentSpec(kin, gauge, SHARP, WIN),
                             "out").window_norm() > 0.0
    assert phase_exponent_d(kin.velocity("out"), 2.0, 0.1, SHARP, WIN) > 0.0
    assert orders and max(orders) <= 32


@pytest.mark.parametrize("kin", [KIN_BN, KIN_DIP], ids=["BN", "dipole"])
@pytest.mark.parametrize("gauge", ["FGB", "Coulomb"])
@pytest.mark.parametrize("kind", ["asymptotic", "regularized"])
@pytest.mark.parametrize("leg", ["in", "out"])
def test_stacked_coherence_matches_pointwise(kin, gauge, kind, leg):
    fn = CoherenceFunction(CurrentSpec(kin, gauge, SHARP, WIN), leg, kind,
                           t=2.0, eps=0.1)
    rng = np.random.default_rng(4)
    ks = np.array([rng.uniform(0.1, 1.0) * _unit(rng) for _ in range(16)])
    batch = fn(ks)
    assert batch.shape == (16, 4 if gauge == "FGB" else 3)
    for k, row in zip(ks, batch):
        want = fn(k)
        np.testing.assert_allclose(row, want, rtol=0.0,
                                   atol=8 * np.finfo(float).eps
                                   * np.abs(want).max())


class TestPhaseExponentD:
    def test_zero_at_t0(self):
        assert phase_exponent_d(FourVelocity.rest(), 0.0, 0.1, SHARP, WIN) == 0.0

    def test_positive_and_monotone(self):
        u = FourVelocity((0, 0, 0.5))
        vals = [phase_exponent_d(u, t, 0.1, SHARP, WIN)
                for t in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)]
        assert all(v > 0.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_saturation_rest(self):
        # d(inf) = (1/(2 pi^2)) Int dk rho^2 k^2 / (2 eps (k^2 + eps^2))
        eps = 0.1
        ks = np.linspace(0.1, 1.0, 20001)
        limit = np.trapezoid(ks ** 2 / (2 * eps * (ks ** 2 + eps ** 2)),
                             ks) / (2 * np.pi ** 2)
        got = phase_exponent_d(FourVelocity.rest(), 200.0, eps, SHARP, WIN)
        assert np.isclose(got, limit, rtol=1e-6)

    @pytest.mark.parametrize("beta,t", [(0.0, 3.0), (0.5, 5.0), (0.9, 2.0),
                                        (0.99, 4.0)])
    def test_2d_quadrature_oracle(self, beta, t):
        eps = 0.2
        u = FourVelocity((0, 0, beta))
        # independent fixed high-order tensor rule
        xk, wk = np.polynomial.legendre.leggauss(200)
        k = 0.55 + 0.45 * xk
        wk = 0.45 * wk
        xc, wc = np.polynomial.legendre.leggauss(160)
        om = np.multiply.outer(k, 1.0 - beta * xc)
        bracket = (np.exp(-eps * t) * np.sin(om * t)
                   + om / (2 * eps) * np.expm1(-2 * eps * t))
        inner = np.sum(wc * bracket / (om ** 2 + eps ** 2), axis=1)
        oracle = -(wk @ (k * inner)) / (4.0 * np.pi ** 2)
        got = phase_exponent_d(u, t, eps, SHARP, WIN)
        assert np.isclose(got, oracle, rtol=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            phase_exponent_d(FourVelocity.rest(), -1.0, 0.1, SHARP, WIN)
        with pytest.raises(ValueError):
            phase_exponent_d(FourVelocity.rest(), 1.0, 0.0, SHARP, WIN)


@pytest.mark.parametrize("kin", [KIN_BN, KIN_DIP], ids=["BN", "dipole"])
@pytest.mark.parametrize("gauge", ["FGB", "Coulomb"])
@pytest.mark.parametrize("rho", [SHARP, FormFactor.gaussian(0.4),
                                 FormFactor.tabulated([0.1, 0.5, 1.0],
                                                      [1.0, 0.6, 0.2])],
                         ids=["sharp", "gaussian", "tabulated"])
@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_stacked_current_matches_pointwise(kin, gauge, rho, eps):
    # a stack of momenta against one call per momentum; the stacked norms and
    # dot products may round differently, by a few units at most
    spec = CurrentSpec(kin, gauge, rho, WIN, eps=eps)
    rng = np.random.default_rng(8)
    ks = rng.normal(size=(16, 3))
    ks *= rng.uniform(0.1, 1.0, size=(16, 1)) / np.linalg.norm(ks, axis=1,
                                                                keepdims=True)
    batch = current_on_shell(spec, ks)
    for k, j in zip(ks, batch):
        want = current_on_shell(spec, k)
        np.testing.assert_allclose(j, want, rtol=0.0,
                                   atol=8 * np.finfo(float).eps
                                   * np.abs(want).max())
