import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softphoton import CutoffWindow, FormFactor, FourVelocity, ScatteringKinematics
from softphoton import quadrature
from softphoton.quadrature import (
    CorrectionExponent,
    QuadratureError,
    b_ir,
    counterterm_phase,
    counterterm_z,
    counterterm_z1,
    counterterm_z2,
    counterterm_z_tilde,
    gamma_cross,
    integrate_radial,
    integrate_sphere,
    m_exponent,
    radial_moment,
    unren_halfline_exponent,
)

SHARP = FormFactor.sharp(0.1, 1.0)
WIN = CutoffWindow(0.1, 1.0)
GAUSS = FormFactor.gaussian(0.4)


def _gl01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def feynman_cross_angular(a, b, order=300):
    """Oracle: Int dOmega / ((1 - a.khat)(1 - b.khat)) via a Feynman parameter.

    Equals 4 pi Int_0^1 dx / (1 - |x a + (1-x) b|^2); the combined vector is a
    convex combination of sub-luminal velocities so the integrand is smooth.
    """
    x, w = _gl01(order)
    mix = np.outer(x, a) + np.outer(1.0 - x, b)
    return 4.0 * np.pi * float(w @ (1.0 / (1.0 - np.sum(mix * mix, axis=1))))


# ---------------------------------------------------------------------------
# counterterms


class TestCounterterms:
    def test_z_sharp_frozen_value(self):
        z = counterterm_z(SHARP, WIN)
        assert np.isclose(z, 0.9 / (6.0 * np.pi ** 2), rtol=0, atol=1e-14)
        assert np.isclose(z, 1.5198e-2, rtol=1e-4)

    def test_ratios_exact(self):
        for rho in (SHARP, GAUSS):
            z = counterterm_z(rho, WIN)
            zt = counterterm_z_tilde(rho, WIN)
            assert abs(zt / z - 1.5) < 1e-12
        u = FourVelocity((0.2, -0.3, 0.4))
        z1 = counterterm_z1(u, SHARP, WIN)
        z2 = counterterm_z2(u, SHARP, WIN)
        assert abs(z2 / z1 - 1.5) < 1e-12

    @pytest.mark.parametrize("beta", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("rho", [SHARP, GAUSS], ids=["sharp", "gauss"])
    def test_z1_angular_closed_form(self, beta, rho):
        # per-shell angular integral has the elementary form L / beta,
        # L = ln((1+beta)/(1-beta)), so z1 = R0 L / (12 pi^2 beta)
        u = FourVelocity((0.0, 0.0, beta))
        r0 = radial_moment(rho, WIN, 0)
        L = np.log((1.0 + beta) / (1.0 - beta))
        assert np.isclose(counterterm_z1(u, rho, WIN),
                          r0 * L / (12.0 * np.pi ** 2 * beta), rtol=1e-11)

    def test_z1_reduces_to_z_at_rest(self):
        z1 = counterterm_z1(FourVelocity.rest(), SHARP, WIN)
        assert np.isclose(z1, counterterm_z(SHARP, WIN), rtol=1e-13)

    def test_z1_direction_independent(self):
        a = counterterm_z1(FourVelocity((0.5, 0, 0)), SHARP, WIN)
        b = counterterm_z1(FourVelocity((0, 0.3, 0.4)), SHARP, WIN)
        assert np.isclose(a, b, rtol=1e-11)


# ---------------------------------------------------------------------------
# infrared exponents


class TestBIr:
    def test_rest_sharp_closed_form(self):
        # antiderivative oracle: -ln(Lam/lam) / (4 pi^2)
        target = -np.log(10.0) / (4.0 * np.pi ** 2)
        assert abs(b_ir(FourVelocity.rest(), SHARP, WIN) - target) < 1e-10

    def test_velocity_independent(self):
        # u^2 cancels the angular weight exactly
        ref = b_ir(FourVelocity.rest(), SHARP, WIN)
        for v in [(0.3, 0, 0), (0, 0.5, 0), (0.4, 0.4, 0.4), (0, 0, 0.9)]:
            assert np.isclose(b_ir(FourVelocity(v), SHARP, WIN), ref, rtol=1e-10)

    @pytest.mark.parametrize("rho", [SHARP, GAUSS], ids=["sharp", "gauss"])
    def test_strictly_negative(self, rho):
        assert b_ir(FourVelocity((0.1, 0.2, 0.3)), rho, WIN) < 0.0


class TestGammaCross:
    def test_symmetric(self):
        ua = FourVelocity((0.1, 0.2, 0.3))
        ub = FourVelocity((-0.4, 0.0, 0.5))
        assert np.isclose(gamma_cross(ua, ub, SHARP, WIN),
                          gamma_cross(ub, ua, SHARP, WIN), rtol=1e-12)

    def test_diagonal_is_b_ir(self):
        u = FourVelocity((0.2, 0.0, 0.6))
        assert np.isclose(gamma_cross(u, u, SHARP, WIN), b_ir(u, SHARP, WIN),
                          rtol=1e-11)

    def test_feynman_parameter_oracle(self):
        rng = np.random.default_rng(11)
        r_m1 = np.log(10.0)  # exact radial moment for the sharp window
        for _ in range(10):
            a = rng.uniform(-1, 1, 3)
            a *= rng.uniform(0, 0.9) / np.linalg.norm(a)
            b = rng.uniform(-1, 1, 3)
            b *= rng.uniform(0, 0.9) / np.linalg.norm(b)
            oracle = (-(1.0 - a @ b) * r_m1 / (16.0 * np.pi ** 3)
                      * feynman_cross_angular(a, b))
            got = gamma_cross(FourVelocity(a), FourVelocity(b), SHARP, WIN)
            assert np.isclose(got, oracle, rtol=1e-9)


class TestMExponent:
    def test_degenerate_vanishes(self):
        u = FourVelocity((0.0, 0.0, 0.4))
        kin = ScatteringKinematics.bn(u, u, charge=0.3)
        for gauge in ("FGB", "Coulomb"):
            assert abs(m_exponent(kin, gauge, SHARP, WIN).total) < 1e-10
        kd = ScatteringKinematics.dipole((0, 0, 0.1), (0, 0, 0.1), 1.0, 0.3)
        for gauge in ("FGB", "Coulomb"):
            assert abs(m_exponent(kd, gauge, SHARP, WIN).total) < 1e-10

    def test_bn_gauge_equality(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            vi = rng.uniform(-1, 1, 3)
            vi *= rng.uniform(0, 0.9) / np.linalg.norm(vi)
            vo = rng.uniform(-1, 1, 3)
            vo *= rng.uniform(0, 0.9) / np.linalg.norm(vo)
            kin = ScatteringKinematics.bn(vi, vo, charge=0.3)
            mf = m_exponent(kin, "FGB", SHARP, WIN).total.real
            mc = m_exponent(kin, "Coulomb", SHARP, WIN).total.real
            assert abs(mf - mc) <= 1e-8 * abs(mc)

    def test_bn_rest_to_half(self):
        kin = ScatteringKinematics.bn((0, 0, 0), (0, 0, 0.5), charge=0.3)
        mf = m_exponent(kin, "FGB", SHARP, WIN).total.real
        mc = m_exponent(kin, "Coulomb", SHARP, WIN).total.real
        assert mf < 0.0
        assert np.isclose(mf, mc, rtol=1e-9)

    def test_dipole_frozen_values(self):
        kin = ScatteringKinematics.dipole((0, 0, 0), (0, 0, 0.1), 1.0, 0.3)
        j = np.log(10.0) / (4.0 * np.pi ** 2)
        mc = m_exponent(kin, "Coulomb", SHARP, WIN).total.real
        mf = m_exponent(kin, "FGB", SHARP, WIN).total.real
        assert np.isclose(mc, -(0.09 / 3.0) * 0.01 * j, rtol=1e-10)
        assert np.isclose(mf, -(0.09 / 2.0) * 0.01 * j, rtol=1e-10)
        assert np.isclose(mc, -1.7497e-5, rtol=1e-4)
        assert np.isclose(mf, -2.6246e-5, rtol=1e-4)
        assert np.isclose(mf / mc, 1.5, rtol=1e-10)

    def test_breakdown_algebra(self):
        kin = ScatteringKinematics.bn((0.1, 0, 0.2), (0, 0.3, -0.5), charge=0.7)
        for gauge in ("FGB", "Coulomb"):
            exp = m_exponent(kin, gauge, SHARP, WIN)
            recon = kin.charge ** 2 * (
                exp.gamma_cross - 0.5 * (exp.b_ir_in + exp.b_ir_out))
            assert exp.total == complex(recon)
            assert exp.total.real <= 1e-12
            assert exp.total.imag == 0.0
            assert isinstance(exp, CorrectionExponent)
            assert set(exp.breakdown()) == {"gamma_cross", "b_ir_in", "b_ir_out"}

    def test_breakdown_signs(self):
        kin = ScatteringKinematics.bn((0, 0, 0.3), (0, 0.6, 0), charge=0.3)
        fgb = m_exponent(kin, "FGB", SHARP, WIN)
        cou = m_exponent(kin, "Coulomb", SHARP, WIN)
        assert fgb.b_ir_in < 0.0 and fgb.b_ir_out < 0.0
        assert cou.b_ir_in > 0.0 and cou.b_ir_out > 0.0

    def test_coulomb_self_term_closed_form(self):
        # Int dc (1-c^2)/(1-beta c)^2 = (2L - 4 beta)/beta^3
        beta = 0.7
        kin = ScatteringKinematics.bn((0, 0, 0), (0, 0, beta), charge=1.0)
        exp = m_exponent(kin, "Coulomb", SHARP, WIN)
        L = np.log((1.0 + beta) / (1.0 - beta))
        oracle = (np.log(10.0) / (16.0 * np.pi ** 3)
                  * 2.0 * np.pi * (2.0 * L - 4.0 * beta) / beta)
        assert np.isclose(exp.b_ir_out, oracle, rtol=1e-11)
        assert exp.b_ir_in == 0.0  # rest leg has no transverse current

    def test_coulomb_cross_term_derived_oracle(self):
        # gauge equality of the totals fixes the Coulomb cross term once the
        # four self terms are known
        a = np.array([0.2, -0.1, 0.5])
        b = np.array([0.0, 0.6, -0.3])
        kin = ScatteringKinematics.bn(b, a, charge=1.0)
        fgb = m_exponent(kin, "FGB", SHARP, WIN)
        cou = m_exponent(kin, "Coulomb", SHARP, WIN)
        oracle = (fgb.gamma_cross
                  + 0.5 * (cou.b_ir_out - fgb.b_ir_out)
                  + 0.5 * (cou.b_ir_in - fgb.b_ir_in))
        assert np.isclose(cou.gamma_cross, oracle, rtol=1e-9)

    def test_rejects_unknown_gauge(self):
        kin = ScatteringKinematics.bn((0, 0, 0), (0, 0, 0.5), charge=0.3)
        with pytest.raises(ValueError):
            m_exponent(kin, "lorenz", SHARP, WIN)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 0.9), st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))
def test_b_ir_invariance_property(beta, theta, phi):
    v = beta * np.array([np.sin(theta) * np.cos(phi),
                         np.sin(theta) * np.sin(phi),
                         np.cos(theta)])
    ref = -np.log(10.0) / (4.0 * np.pi ** 2)
    assert np.isclose(b_ir(FourVelocity(v), SHARP, WIN), ref, rtol=1e-9)


# ---------------------------------------------------------------------------
# adiabatic regularization


def _unren_rest_closed_form(eps, lam, Lam, charge):
    """Antiderivative oracle for the sharp window at rest.

    E = pref Int dk k/(eps - i k) with
    Int k/(eps - ik) dk = eps ln(eps^2+k^2)/2 + i (k - eps atan(k/eps)).
    """
    def anti(k):
        return (eps * 0.5 * np.log(eps ** 2 + k ** 2)
                + 1j * (k - eps * np.arctan(k / eps)))
    pref = charge ** 2 / (2.0 * eps * 4.0 * np.pi ** 2)
    return pref * (anti(Lam) - anti(lam))


def _panels(a, b, length, order):
    edges = np.linspace(a, b, max(2, int(np.ceil((b - a) / length)) + 1))
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
        weights.append(0.5 * (hi - lo) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _unren_rest_time_domain_oracle(eps, lam, Lam, charge):
    """Independent 4d oracle: momentum x double-time tensor quadrature.

    The half-line leg at rest gives, before any reduction,
      E = conj[(i e^2 / 2) (2 pi^2)^-1 Int dk k^2 D(k)],
      D(k) = Int_0^inf Int_0^inf dt ds e^{-eps(t+s)} (-i/(2k)) e^{-ik|t-s|},
    evaluated here on (tau = t-s, xi = sigma - |tau|) panels with the exact
    Jacobian 1/2; nothing is integrated analytically.
    """
    T = 35.0 / eps
    tau, wtau = _panels(0.0, T, 2.0, 12)
    xi, wxi = _panels(0.0, T, 2.0, 12)
    q = float(wxi @ np.exp(-eps * xi))
    k, wk = _panels(lam, Lam, 0.2, 16)
    # tau >= 0 and tau <= 0 halves are equal at rest
    inner = np.exp(-(eps + 1j * k[:, None]) * tau[None, :]) @ wtau
    d_k = 0.5 * q * 2.0 * (-1j / (2.0 * k)) * inner
    e_td = 1j * charge ** 2 / 2.0 / (2.0 * np.pi ** 2) * (wk @ (k ** 2 * d_k))
    return np.conj(e_td)


class TestUnrenormalized:
    def test_rest_closed_form(self):
        got = unren_halfline_exponent(FourVelocity.rest(), 0.1, SHARP, WIN,
                                      charge=0.3)
        want = _unren_rest_closed_form(0.1, 0.1, 1.0, 0.3)
        assert abs(got - want) < 1e-12 * abs(want)

    def test_time_domain_4d_oracle(self):
        got = unren_halfline_exponent(FourVelocity.rest(), 0.1, SHARP, WIN,
                                      charge=0.3)
        oracle = _unren_rest_time_domain_oracle(0.1, 0.1, 1.0, 0.3)
        assert abs(got - oracle) < 1e-4 * abs(oracle)

    def test_zero_charge(self):
        val = unren_halfline_exponent(FourVelocity.rest(), 0.1, SHARP, WIN,
                                      charge=0.0)
        assert val == 0.0

    def test_sign_structure(self):
        for v in [(0, 0, 0), (0, 0, 0.5)]:
            val = unren_halfline_exponent(FourVelocity(v), 1e-2, SHARP, WIN,
                                          charge=0.3)
            assert val.real > 0.0 and val.imag > 0.0

    def test_rejects_eps_zero(self):
        with pytest.raises(ValueError):
            unren_halfline_exponent(FourVelocity.rest(), 0.0, SHARP, WIN,
                                    charge=0.3)

    @pytest.mark.parametrize("v", [(0, 0, 0), (0, 0, 0.5)])
    def test_phase_cancellation_ladder(self, v):
        u = FourVelocity(v)
        e = 0.3
        target = -e ** 2 * b_ir(u, SHARP, WIN) / 2.0
        errs = []
        for eps in (1e-1, 1e-2, 1e-3):
            s = (unren_halfline_exponent(u, eps, SHARP, WIN, charge=e)
                 + counterterm_phase(u, eps, SHARP, WIN, charge=e))
            errs.append(abs(s - target))
            # leading imaginary residue is -eps N3, strictly below zero
            assert s.imag < 0.0
        assert errs[0] > errs[1] > errs[2]

    def test_counterterm_phase_form(self):
        u = FourVelocity((0, 0, 0.5))
        eps = 0.05
        got = counterterm_phase(u, eps, SHARP, WIN, charge=0.3)
        z2 = counterterm_z2(u, SHARP, WIN)
        assert got == -1j * 0.09 * u.squared * z2 / (2.0 * eps)
        assert got.real == 0.0
        assert counterterm_phase(u, eps, SHARP, WIN, charge=0.0) == 0.0


# ---------------------------------------------------------------------------
# engine behavior


class TestEngine:
    def test_radial_moment_gaussian_oracle(self):
        # reference computed with an independent high-order fixed rule
        k, w = _panels(0.1, 1.0, 0.05, 24)
        ref = float(w @ (GAUSS(k) ** 2 / k))
        assert np.isclose(radial_moment(GAUSS, WIN, -1), ref, rtol=1e-12)

    def test_tabulated_breaks_respected(self):
        rho = FormFactor.tabulated([0.1, 0.4, 1.0], [1.0, 0.2, 0.8])
        # piecewise-quadratic integrand: panel edges at the knots make the
        # Gauss rule exact
        k, w = _panels(0.1, 0.4, 0.3, 24)
        ref = float(w @ rho(k) ** 2)
        k, w = _panels(0.4, 1.0, 0.6, 24)
        ref += float(w @ rho(k) ** 2)
        assert np.isclose(radial_moment(rho, WIN, 0), ref, rtol=1e-13)

    @staticmethod
    def small_limits(monkeypatch, **limits):
        # the shipped limits take 512 panels or leggauss(8192) to exhaust
        for name, value in limits.items():
            monkeypatch.setattr(quadrature, name, value)

    def test_radial_failure_raises(self, monkeypatch):
        self.small_limits(monkeypatch, _ORDER=4, _MAX_PANELS=6,
                          _ABS_TOL=1e-16, _REL_TOL=1e-16)
        with pytest.raises(QuadratureError):
            integrate_radial(lambda k: np.sqrt(np.abs(k - 0.5477)), 0.1, 1.0)

    def test_angular_failure_raises(self, monkeypatch):
        self.small_limits(monkeypatch, _ORDER=8, _MAX_ANGULAR_ORDER=16,
                          _ABS_TOL=1e-16, _REL_TOL=1e-16)
        v = np.array([0.0, 0.0, 0.99])

        def kern(khat):
            return 1.0 / (1.0 - khat @ v) ** 2

        with pytest.raises(QuadratureError):
            integrate_sphere(kern, v, np.zeros(3))

    def test_angular_failure_raises_one_axis(self, monkeypatch):
        # the same kernel of one axis as a cos(theta) integral
        self.small_limits(monkeypatch, _ORDER=8, _MAX_PANELS=4,
                          _ABS_TOL=1e-16, _REL_TOL=1e-16)
        with pytest.raises(QuadratureError):
            integrate_radial(lambda c: 1.0 / (1.0 - 0.99 * c) ** 2, -1.0, 1.0)

    def test_column_failure_raises(self, monkeypatch):
        # one column that cannot converge fails the whole (n, K) integral
        self.small_limits(monkeypatch, _ORDER=4, _MAX_PANELS=6,
                          _ABS_TOL=1e-16, _REL_TOL=1e-16)
        with pytest.raises(QuadratureError):
            integrate_radial(lambda k: np.stack(
                [np.ones_like(k), np.sqrt(np.abs(k - 0.5477))], axis=-1),
                0.1, 1.0)

    def test_sphere_constant(self):
        val = integrate_sphere(lambda khat: np.ones(len(khat)),
                               np.zeros(3), np.zeros(3))
        assert np.isclose(val, 4.0 * np.pi, rtol=1e-14)

    def test_deterministic(self):
        kin = ScatteringKinematics.bn((0.1, 0.2, 0.3), (0, 0, -0.5), 0.3)
        a = m_exponent(kin, "Coulomb", GAUSS, WIN).total
        b = m_exponent(kin, "Coulomb", GAUSS, WIN).total
        assert a == b


def _within_target(got, want):
    # two values each certified to 5e-13 relative or 1e-14 absolute
    return abs(got - want) <= max(1e-12 * abs(want), 2e-14)


_COLUMNS = [lambda k: np.exp(-k) * np.sin(3.0 * k),
            lambda k: np.exp(2j * k) / (1.0 + k),
            lambda k: 1.0 / ((k - 0.61) ** 2 + 1e-4),
            lambda k: np.sqrt(np.abs(k - 0.7)),
            lambda k: np.zeros_like(k)]


def test_radial_columns_match_scalar_calls():
    stacked = integrate_radial(
        lambda k: np.stack([f(k) for f in _COLUMNS], axis=-1), 0.1, 2.0,
        breaks=(0.7,))
    assert stacked.shape == (len(_COLUMNS),)
    for f, got in zip(_COLUMNS, stacked):
        assert _within_target(got, integrate_radial(f, 0.1, 2.0,
                                                    breaks=(0.7,)))


def test_small_column_beside_a_peaked_one_converges():
    # the small column's target is 1e-8 of its neighbour's: a split must go
    # where a column is farthest above its own target, not to the largest
    # error, or the neighbour's rounding-level errors stall refinement
    def peak(k, centre, width=1e-3):
        return 1.0 / ((k - centre) ** 2 + width ** 2)

    def exact(centre, width=1e-3):
        return (np.arctan((2.0 - centre) / width)
                - np.arctan((0.1 - centre) / width)) / width

    big, small = integrate_radial(
        lambda k: np.stack([1e8 * peak(k, 0.3), peak(k, 1.3)], axis=-1),
        0.1, 2.0)
    assert _within_target(big, 1e8 * exact(0.3))
    assert _within_target(small, exact(1.3))


# ---------------------------------------------------------------------------
# closed forms against the quadrature oracle
#
# The kernels below are the integrands the closed forms integrate: the
# velocity-like vector v of each leg, its denominator factor a(khat) =
# 1 - v.khat for straight-line legs and 1 for the dipole.  integrate_sphere
# and integrate_radial integrate them independently of the closed forms.

TABLE = FormFactor.tabulated([0.0, 0.12, 0.13, 0.5, 1.2],
                             [0.3, 1.0, 0.2, 0.9, 0.1])
RHOS = {"sharp": FormFactor.sharp(0.05, 0.7), "gauss": GAUSS, "table": TABLE}


def _self_kernel(v, minkowski_sq, gauge, bn_denoms):
    if gauge == "FGB":
        def kern(khat):
            a = (1.0 - khat @ v) if bn_denoms else np.ones(len(khat))
            return minkowski_sq / a ** 2
        return kern, -1.0

    def kern(khat):
        dot = khat @ v
        a = (1.0 - dot) if bn_denoms else np.ones(len(khat))
        return (v @ v - dot ** 2) / a ** 2
    return kern, +1.0


def _cross_kernel(va, vb, minkowski_ab, gauge, bn_denoms):
    def denoms(khat):
        if bn_denoms:
            return 1.0 - khat @ va, 1.0 - khat @ vb
        ones = np.ones(len(khat))
        return ones, ones

    if gauge == "FGB":
        def kern(khat):
            aa, ab = denoms(khat)
            return minkowski_ab / (aa * ab)
        return kern, -1.0

    def kern(khat):
        aa, ab = denoms(khat)
        return (va @ vb - (khat @ va) * (khat @ vb)) / (aa * ab)
    return kern, +1.0


def sphere_self(v, gauge, bn):
    kern, sign = _self_kernel(v.spatial, v.squared, gauge, bn)
    return sign * integrate_sphere(kern, v.spatial, np.zeros(3))


def sphere_cross(va, vb, gauge, bn):
    mink = 1.0 - float(va.spatial @ vb.spatial)
    kern, sign = _cross_kernel(va.spatial, vb.spatial, mink, gauge, bn)
    return sign * integrate_sphere(kern, va.spatial, vb.spatial)


def quadrature_moment(rho, window, power):
    return float(np.real(integrate_radial(
        lambda k: rho(k) ** 2 * k ** float(power), window.lam, window.Lam,
        breaks=rho.knots())))


def _direction(theta, phi):
    return np.array([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi), np.cos(theta)])


def _kinematics(model, v_in, v_out, charge=0.7):
    if model == "BN":
        return ScatteringKinematics.bn(v_in, v_out, charge)
    # unit mass: the dipole leg velocity is the momentum itself
    return ScatteringKinematics.dipole(v_in, v_out, 1.0, charge)


_angles = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi))


@settings(max_examples=150, deadline=None)
@given(model=st.sampled_from(["BN", "dipole"]),
       gauge=st.sampled_from(["FGB", "Coulomb"]),
       kind=st.sampled_from(sorted(RHOS)),
       beta_in=st.floats(0.0, 0.9), beta_out=st.floats(0.0, 0.9),
       ang_in=_angles, ang_out=_angles,
       geometry=st.sampled_from(["free", "rest", "collinear", "equal"]))
def test_closed_exponent_matches_quadrature(model, gauge, kind, beta_in,
                                            beta_out, ang_in, ang_out,
                                            geometry):
    rho = RHOS[kind]
    v_out = beta_out * _direction(*ang_out)
    if geometry == "rest":
        v_in = np.zeros(3)
    elif geometry == "collinear":
        v_in = beta_in * _direction(*ang_out)
    elif geometry == "equal":
        v_in = v_out.copy()
    else:
        v_in = beta_in * _direction(*ang_in)
    kin = _kinematics(model, v_in, v_out)
    exp = m_exponent(kin, gauge, rho, WIN)
    pref = radial_moment(rho, WIN, -1) / (16.0 * np.pi ** 3)
    pref_q = quadrature_moment(rho, WIN, -1) / (16.0 * np.pi ** 3)
    assert abs(pref - pref_q) <= 1e-12 * pref_q
    bn = model == "BN"
    u_in, u_out = kin.velocity("in"), kin.velocity("out")
    oracle = {"b_ir_in": pref_q * sphere_self(u_in, gauge, bn),
              "b_ir_out": pref_q * sphere_self(u_out, gauge, bn),
              "gamma_cross": pref_q * sphere_cross(u_out, u_in, gauge, bn)}
    for name, want in oracle.items():
        got = exp.breakdown()[name]
        assert abs(got - want) <= max(1e-12 * abs(want), 1e-14 * pref), name


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(RHOS)), power=st.sampled_from([-1, 0]),
       lam=st.floats(0.01, 2.0), width=st.floats(1e-3, 3.0))
def test_closed_moment_matches_quadrature(kind, power, lam, width):
    rho = RHOS[kind]
    window = CutoffWindow(lam, lam + width)
    got = radial_moment(rho, window, power)
    want = quadrature_moment(rho, window, power)
    # integrate_radial certifies 1e-14 absolute where 5e-13 relative is less
    assert abs(got - want) <= max(1e-12 * abs(want), 1e-14)
    assert got >= 0.0


def test_closed_moments_exact_values():
    # sharp: a log and a length; gaussian: E1 and erf; tabulated: the
    # piecewise-linear profile's own antiderivative on one segment
    from math import erf, exp, log, pi, sqrt
    assert radial_moment(SHARP, WIN, -1) == pytest.approx(log(10.0), rel=1e-15)
    assert radial_moment(SHARP, WIN, 0) == 0.9
    win = CutoffWindow(0.2, 0.9)
    assert radial_moment(FormFactor.sharp(0.5, 3.0), win, -1) == \
        pytest.approx(log(0.9 / 0.5), rel=1e-15)
    assert radial_moment(FormFactor.sharp(1.0, 3.0), win, 0) == 0.0
    s = 0.4
    assert radial_moment(GAUSS, WIN, 0) == pytest.approx(
        0.5 * s * sqrt(pi) * (erf(1.0 / s) - erf(0.1 / s)), rel=1e-14)
    # E1(x) = -gamma - ln x + x - x^2/4 + ..., far in the tail e^-x/x (...)
    e1_small = (-0.5772156649015329 - log(1e-8) + 1e-8)
    wide = CutoffWindow(1e-4, 40.0)
    assert radial_moment(FormFactor.gaussian(1.0), wide, -1) == \
        pytest.approx(0.5 * e1_small, rel=1e-14)
    tail = CutoffWindow(6.0, 40.0)
    x = 36.0
    asym = exp(-x) / x * sum((-1) ** n * np.prod(range(1, n + 1)) / x ** n
                             for n in range(12))
    assert radial_moment(FormFactor.gaussian(1.0), tail, -1) == \
        pytest.approx(0.5 * asym, rel=1e-12)
    lin = FormFactor.tabulated([0.0, 2.0], [0.0, 2.0])  # rho = k
    assert radial_moment(lin, WIN, -1) == pytest.approx(0.5 * (1.0 - 0.01),
                                                        rel=1e-14)
    assert radial_moment(lin, WIN, 0) == pytest.approx((1.0 - 1e-3) / 3.0,
                                                       rel=1e-14)


def test_short_table_segment_keeps_digits():
    # a segment of relative length 1e-9 has 1/k moment width/lo (p^2+pq+q^2)/3
    rho = FormFactor.tabulated([0.5, 0.5 + 5e-10], [1.0, 3.0])
    got = radial_moment(rho, CutoffWindow(0.1, 1.0), -1)
    assert got == pytest.approx(1e-9 * 13.0 / 3.0, rel=1e-8)


_luminal = st.floats(0.0, 1.0 - 1e-9)


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(["BN", "dipole"]),
       kind=st.sampled_from(sorted(RHOS)),
       beta_in=_luminal, beta_out=_luminal, ang_in=_angles, ang_out=_angles)
def test_closed_exponent_up_to_luminal(model, kind, beta_in, beta_out,
                                       ang_in, ang_out):
    rho = RHOS[kind]
    kin = _kinematics(model, beta_in * _direction(*ang_in),
                      beta_out * _direction(*ang_out))
    pref = radial_moment(rho, WIN, -1) / (16.0 * np.pi ** 3)
    exps = {g: m_exponent(kin, g, rho, WIN) for g in ("FGB", "Coulomb")}
    for exp in exps.values():
        parts = exp.breakdown().values()
        assert all(np.isfinite(v) for v in (exp.total.real, *parts))
    if model == "BN":
        fgb = exps["FGB"]
        assert fgb.b_ir_in == fgb.b_ir_out == -4.0 * np.pi * pref
        assert fgb.total.real <= 0.0
    for leg in ("in", "out"):
        # a Coulomb self term is O(beta^2 pref): positive unless it underflows
        if kin.velocity(leg).spatial @ kin.velocity(leg).spatial > 1e-250:
            assert exps["Coulomb"].breakdown()[f"b_ir_{leg}"] > 0.0
    # a total is charge^2 (gamma - (b_in + b_out)/2), a difference of its
    # parts: its rounding is relative to the largest part, and it is <= 0 to
    # that rounding (FGB on slow legs, Coulomb on near-luminal ones)
    scale = kin.charge ** 2 * max(abs(v) for exp in exps.values()
                                  for v in exp.breakdown().values())
    for exp in exps.values():
        assert exp.total.real <= 1e-15 * scale
    if model == "BN":
        mf, mc = exps["FGB"].total.real, exps["Coulomb"].total.real
        assert abs(mf - mc) <= 1e-12 * max(abs(mf), scale)


# a speed of 0 or one whose square is a normal float: below 1e-154 a relative
# bound on an exponent O(beta^2) would be met by no float arithmetic
_textbook_speed = st.just(0.0) | st.floats(1e-100, 0.999)


def _theta_coth_excess(theta):
    """theta coth(theta) - 1; its Taylor series below 0.1 keeps the digits."""
    if theta >= 0.1:
        return theta / np.tanh(theta) - 1.0
    t2 = theta * theta
    return t2 * (1 / 3 - t2 * (1 / 45 - t2 * (2 / 945 - t2 * (1 / 4725
                                                            - t2 * 2 / 93555))))


@settings(max_examples=200, deadline=None)
@given(model=st.sampled_from(["BN", "dipole"]),
       kind=st.sampled_from(sorted(RHOS)), charge=st.floats(1e-3, 2.0),
       beta_in=_textbook_speed, beta_out=_textbook_speed,
       ang_in=_angles, ang_out=_angles)
def test_textbook_soft_photon_exponent(model, kind, charge, beta_in,
                                       beta_out, ang_in, ang_out):
    # A = -2 Re M_Coulomb / R_{-1} is the soft-photon exponent of QED:
    # (2 alpha / pi)(theta coth theta - 1) for straight legs, theta their
    # relative rapidity (Weinberg 1965), and the Larmor limit
    # (2 alpha / 3 pi)|dv|^2 for the dipole, whose FGB exponent is 3/2 of
    # the Coulomb one.  A total is a difference of its parts, so it carries
    # their rounding: the bound adds 2e-15 of the largest part.
    rho = RHOS[kind]
    a, b = beta_in * _direction(*ang_in), beta_out * _direction(*ang_out)
    kin = _kinematics(model, a, b, charge)
    alpha = charge ** 2 / (4.0 * np.pi)
    r_m1 = radial_moment(rho, WIN, -1)
    exps = {g: m_exponent(kin, g, rho, WIN) for g in ("FGB", "Coulomb")}
    slack = {g: 2e-15 * charge ** 2 / r_m1 * max(
        abs(v) for v in exp.breakdown().values()) for g, exp in exps.items()}
    got = -2.0 * exps["Coulomb"].total.real / r_m1
    if model == "BN":
        ua2, ub2 = 1.0 - a @ a, 1.0 - b @ b
        d = a - b
        s = np.sqrt(max(d @ d - np.cross(a, b) @ np.cross(a, b), 0.0))
        theta = np.arcsinh(s / np.sqrt(ua2 * ub2))
        want = 2.0 * alpha / np.pi * _theta_coth_excess(theta)
    else:
        want = 2.0 * alpha / (3.0 * np.pi) * ((a - b) @ (a - b))
    assert abs(got - want) <= 1e-12 * abs(want) + slack["Coulomb"]
    if model == "dipole":
        fgb = -2.0 * exps["FGB"].total.real / r_m1
        assert abs(fgb - 1.5 * got) <= 1e-12 * abs(fgb) + slack["FGB"]


def _limit_bound(m2):
    """Largest |R - 1| for R = 3 (theta coth theta - 1) / |a - b|^2.

    With m2 = max(|a|^2, |b|^2) and t = tanh(theta):
    t^2 = (|a - b|^2 - |a x b|^2) / (1 - a.b)^2 and |a x b| <= m |a - b|, so
    t^2 / |a - b|^2 lies in [(1 - m2) / (1 + m2)^2, 1 / (1 - m2)^2];
    theta^2 / t^2 = (atanh(t) / t)^2 lies in [1, 1 + t^2] for t <= 1/2; and
    3 (theta coth theta - 1) / theta^2 = 1 - theta^2/15 + 2 theta^4/315 - ...
    lies in [1 - theta^2/15, 1].
    """
    t2 = 4.0 * m2 / (1.0 - m2) ** 2  # |a - b| <= 2m
    upper = (1.0 + t2) / (1.0 - m2) ** 2 - 1.0
    lower = 1.0 - (1.0 - t2 * (1.0 + t2) / 15.0) * (1.0 - m2) / (1.0 + m2) ** 2
    return max(upper, lower)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(RHOS)), charge=st.floats(1e-3, 2.0),
       speed_in=st.floats(1e-6, 1e-1), speed_out=st.floats(1e-6, 1e-1),
       ang_in=_angles, ang_out=_angles)
def test_slow_bn_legs_meet_the_dipole(kind, charge, speed_in, speed_out,
                                      ang_in, ang_out):
    # BN legs with u = v against dipole legs with p/m = v, m = 1: in Coulomb
    # gauge the totals agree to R - 1 = O(v^2) (_limit_bound), and in FGB the
    # BN total is 2/3 of the dipole one to the same order, as the dipole FGB
    # exponent is 3/2 of its Coulomb one.  Each total is a difference of its
    # parts and carries their rounding: 2e-15 of the largest part per model.
    rho = RHOS[kind]
    a, b = speed_in * _direction(*ang_in), speed_out * _direction(*ang_out)
    bound = _limit_bound(max(a @ a, b @ b))
    for gauge, ratio in (("Coulomb", 1.0), ("FGB", 2.0 / 3.0)):
        exps = [m_exponent(_kinematics(model, a, b, charge), gauge, rho, WIN)
                for model in ("BN", "dipole")]
        bn, dip = (e.total.real for e in exps)
        slack = sum(2e-15 * charge ** 2 * max(abs(v) for v in
                                              e.breakdown().values())
                    for e in exps)
        assert abs(bn - ratio * dip) <= bound * abs(ratio * dip) + slack, gauge


def test_luminal_leg_is_fast_and_finite():
    # beta = 0.999 used to end in QuadratureError after tens of seconds
    import time
    kin = ScatteringKinematics.bn((0, 0, 0), (0.0, 0.0, 0.999), 1.0)
    t0 = time.perf_counter()
    mf = m_exponent(kin, "FGB", SHARP, WIN).total.real
    mc = m_exponent(kin, "Coulomb", SHARP, WIN).total.real
    assert time.perf_counter() - t0 < 0.05
    L = np.log(1.999 / 0.001)
    want = -np.log(10.0) / (4.0 * np.pi ** 2) * (L / (2.0 * 0.999) - 1.0)
    assert mf == pytest.approx(want, rel=1e-13)
    assert mc == pytest.approx(want, rel=1e-12)


def test_non_finite_moment_raises():
    huge = FormFactor.tabulated([0.1, 1.0], [1e300, 1e300])
    for power in (-1, 0):
        with pytest.raises(QuadratureError):
            radial_moment(huge, WIN, power)
    kin = ScatteringKinematics.bn((0, 0, 0), (0, 0, 0.5), charge=0.3)
    with pytest.raises(QuadratureError):
        m_exponent(kin, "FGB", huge, WIN)


def test_overflowing_table_raises_without_warning():
    # the table holds plain floats, so the overflow reaches the finiteness
    # check as inf and numpy prints nothing on the way
    huge = FormFactor.tabulated([0.1, 1.0], [1e300, 1e300])
    assert all(type(x) is float for x in huge.table_k + huge.table_v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for power in (-1, 0):
            with pytest.raises(QuadratureError):
                radial_moment(huge, WIN, power)


def _unren_product_rule(u, eps, rho, window, charge):
    """Gauss-Legendre rule in cos(theta), doubled until it settles."""
    beta = u.beta
    pref = charge ** 2 * u.squared / (2.0 * eps) / (4.0 * np.pi ** 2)

    def value(n_c):
        c, wc = np.polynomial.legendre.leggauss(n_c)

        def radial(k):
            omega = np.multiply.outer(k, 1.0 - beta * c)
            inner = np.sum(wc / (eps - 1j * omega), axis=1)
            return rho(k) ** 2 * (k / 2.0) * inner
        return pref * integrate_radial(radial, window.lam, window.Lam,
                                       breaks=rho.knots())

    n_c, prev = 32, value(32)
    while True:
        n_c *= 2
        cur = value(n_c)
        if abs(cur - prev) <= max(1e-14, 5e-13 * abs(cur)):
            return cur
        prev = cur


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(RHOS)), beta=st.floats(0.0, 0.95),
       ang=_angles, eps=st.floats(1e-3, 0.3))
def test_closed_ledger_angle_matches_product_rule(kind, beta, ang, eps):
    rho = RHOS[kind]
    u = FourVelocity(beta * _direction(*ang))
    got = unren_halfline_exponent(u, eps, rho, WIN, charge=0.3)
    want = _unren_product_rule(u, eps, rho, WIN, 0.3)
    assert abs(got - want) <= 1e-12 * abs(want)
