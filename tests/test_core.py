import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softphoton import (
    CutoffWindow,
    FormFactor,
    FourVelocity,
    ScatteringKinematics,
    on_shell_dot,
    transverse_project,
    transverse_projector,
    velocity_from_momentum,
)


class TestFormFactor:
    def test_sharp_is_indicator(self):
        ff = FormFactor.sharp(0.1, 1.0)
        ks = np.array([0.05, 0.0999, 0.1, 0.5, 1.0, 1.0001, 3.0])
        assert np.array_equal(ff(ks), [0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0])

    def test_gaussian(self):
        ff = FormFactor.gaussian(2.0)
        assert ff(0.0) == 1.0
        assert np.isclose(ff(2.0), np.exp(-0.5))
        with pytest.raises(ValueError):
            FormFactor.gaussian(0.0)

    def test_tabulated_interpolates(self):
        ff = FormFactor.tabulated([0.1, 0.5, 1.0], [1.0, 0.5, 0.25])
        assert np.isclose(ff(0.3), 0.75)
        assert ff(0.05) == 0.0
        assert ff(2.0) == 0.0

    def test_tabulated_rejects_bad_input(self):
        with pytest.raises(ValueError):
            FormFactor.tabulated([0.5, 0.1], [1.0, 1.0])
        with pytest.raises(ValueError):
            FormFactor.tabulated([0.1, 0.5], [1.0, -1.0])

    def test_values_real_nonnegative(self):
        for ff in (FormFactor.sharp(0.1, 1.0), FormFactor.gaussian(1.0)):
            vals = ff(np.linspace(0.01, 2.0, 50))
            assert np.all(vals >= 0.0)
            assert np.all(np.isfinite(vals))


class TestWindow:
    def test_validation(self):
        CutoffWindow(0.1, 1.0)
        with pytest.raises(ValueError):
            CutoffWindow(1.0, 0.1)
        with pytest.raises(ValueError):
            CutoffWindow(0.0, 1.0)


class TestFourVelocity:
    def test_basic(self):
        u = FourVelocity((0.0, 0.0, 0.5))
        assert u.u0 == 1.0
        assert np.isclose(u.squared, 0.75)
        assert np.isclose(u.beta, 0.5)

    def test_subluminal_strict(self):
        with pytest.raises(ValueError):
            FourVelocity((1.0, 0.0, 0.0))
        FourVelocity((0.999999, 0.0, 0.0))

    def test_rest(self):
        assert FourVelocity.rest().squared == 1.0


class TestKinematics:
    def test_bn(self):
        kin = ScatteringKinematics.bn((0, 0, 0), (0, 0, 0.5), charge=0.3)
        assert kin.eta_in == -1.0 and kin.eta_out == +1.0
        assert kin.velocity("out").beta == 0.5
        assert not kin.degenerate

    def test_dipole(self):
        kin = ScatteringKinematics.dipole((0, 0, 0), (0, 0, 0.1), 1.0, 0.3)
        v = kin.velocity("out")
        assert np.allclose(v.spatial, [0, 0, 0.1])

    def test_leg_velocities_built_once(self):
        kin = ScatteringKinematics.dipole((0, 0.2, 0), (0, 0, 0.1), 2.0, 0.3)
        assert kin.velocity("in") is kin.velocity("in")
        assert kin.velocity("in").spatial_t == (0.0, 0.1, 0.0)
        assert kin.velocity("out").spatial_t == (0.0, 0.0, 0.05)
        moved = kin.replace(p_out=(0.0, 0.2, 0.0))
        assert moved.velocity("out").spatial_t == (0.0, 0.1, 0.0)
        assert moved.degenerate and not kin.degenerate
        assert moved == ScatteringKinematics.dipole((0, 0.2, 0), (0, 0.2, 0),
                                                    2.0, 0.3)
        with pytest.raises(ValueError):
            kin.velocity("sideways")

    def test_dipole_rejects_fast_leg(self):
        with pytest.raises(ValueError):
            ScatteringKinematics.dipole((0, 0, 0), (0, 0, 1.5), 1.0, 0.3)

    def test_model_required_fields(self):
        with pytest.raises(ValueError):
            ScatteringKinematics(model="BN", charge=0.3)
        with pytest.raises(ValueError):
            ScatteringKinematics(model="other", charge=0.3)


class TestGeometry:
    def test_on_shell_dot_rest(self):
        assert np.isclose(on_shell_dot(FourVelocity.rest(), [0, 0, 2.0]), 2.0)

    def test_on_shell_dot_moving(self):
        u = FourVelocity((0, 0, 0.5))
        # |k| (1 - uvec.khat) for k along z
        assert np.isclose(on_shell_dot(u, [0, 0, 1.0]), 0.5)
        assert np.isclose(on_shell_dot(u, [0, 0, -1.0]), 1.5)

    def test_on_shell_dot_rejects_zero(self):
        with pytest.raises(ValueError):
            on_shell_dot(FourVelocity.rest(), [0, 0, 0])

    def test_transverse_project_example(self):
        k = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        v = np.array([1.0, 0.0, 0.0])
        assert np.allclose(transverse_project(k, v), [0.5, -0.5, 0.0],
                           atol=1e-15)

    def test_projector_matrix_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = rng.normal(size=3)
            P = transverse_projector(k)
            assert np.allclose(P @ P, P, atol=1e-12)
            assert np.allclose(P, P.T, atol=1e-12)
            assert np.isclose(np.trace(P), 2.0, atol=1e-12)

    def test_velocity_from_momentum(self):
        v = velocity_from_momentum([0, 0, 0.3], 1.5)
        assert np.allclose(v.spatial, [0, 0, 0.2])
        with pytest.raises(ValueError):
            velocity_from_momentum([0, 0, 2.0], 1.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-0.57, 0.57), min_size=3, max_size=3),
       st.lists(st.floats(-5, 5), min_size=3, max_size=3))
def test_on_shell_dot_positive(uvec, k):
    # strict positivity whenever |uvec| < 1 and k != 0
    if np.linalg.norm(k) < 1e-6:
        return
    u = FourVelocity(uvec)
    assert on_shell_dot(u, k) > 0.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=3, max_size=3),
       st.lists(st.floats(-5, 5), min_size=3, max_size=3))
def test_projection_kills_longitudinal(k, v):
    if np.linalg.norm(k) < 1e-6:
        return
    w = transverse_project(k, v)
    assert abs(np.dot(w, k)) <= 1e-9 * max(1.0, np.linalg.norm(v) * np.linalg.norm(k))
