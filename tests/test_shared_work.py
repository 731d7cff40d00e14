"""Quantities computed once per job keep the numbers of the per-use code.

Each shared computation is checked bit for bit against a test-local copy of
the code it replaced, plus the behaviour it must keep: the grid profile of
``full_amplitude``, the polarization frames and Gauss-Legendre nodes of a
``ModeGrid``, the per-intensity channel walks of the truncation deviation,
the one-pass JSON writer, the batched radial panels and the residual probe
of ``gauge_compare``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softphoton import cli, fock, quadrature, smatrix
from softphoton.core import CutoffWindow, FormFactor, ScatteringKinematics
from softphoton.currents import CurrentSpec, current_on_shell, polarization_frame
from softphoton.fock import (
    ModeGrid,
    TruncatedFockSpace,
    displacement_truncation_deviation,
    emission_matrix_element,
)
from softphoton.gauge import PhotonSmearing
from softphoton.smatrix import (
    displacement_profile_grid,
    emission_factor,
    fock_channels,
    full_amplitude,
    gauge_compare,
    m_exponent_grid,
)

WINDOW = CutoffWindow(lam=0.1, Lam=1.0)
RHO = FormFactor.sharp(0.1, 1.0)
KIN = ScatteringKinematics.bn(u_in=(0.1, 0.0, -0.2), u_out=(0.0, 0.3, 0.4),
                              charge=0.3)
DIRECTION = (0.3, -0.2, 0.9)


def grid_photons(gauge, n_photons, nodes=1, seed=5):
    grid = ModeGrid.radial(WINDOW, nodes, gauge, direction=DIRECTION)
    rng = np.random.default_rng(seed)
    width = 4 if gauge == "FGB" else 3
    photons = []
    for _ in range(n_photons):
        vals = 0.4 * (rng.normal(size=(nodes, width))
                      + 1j * rng.normal(size=(nodes, width)))
        if gauge == "Coulomb":
            e1, e2 = polarization_frame(np.asarray(grid.nodes))
            comp = vals[:, :2]
            vals = comp[:, :1] * e1 + comp[:, 1:] * e2
        photons.append(PhotonSmearing(grid, vals))
    return grid, photons


class TestFullAmplitudeSharesTheProfile:
    @pytest.mark.parametrize("gauge,cap", [("FGB", 3), ("Coulomb", 6)])
    @pytest.mark.parametrize("n_photons", [1, 2, 3])
    def test_oracle_matches_separate_calls(self, gauge, cap, n_photons):
        grid, photons = grid_photons(gauge, n_photons)
        report = full_amplitude(KIN, gauge, photons, RHO, WINDOW,
                                oracle_cap=cap)
        factors = tuple(emission_factor(KIN, gauge, p, RHO, WINDOW)
                        for p in photons)
        F = fock_channels(grid, displacement_profile_grid(
            KIN, gauge, RHO, WINDOW, grid))
        oracle = emission_matrix_element(
            [fock_channels(grid, p.values) for p in photons], F, KIN.charge,
            TruncatedFockSpace(grid, cap), include_vacuum_part=True)
        grid_total = complex(
            np.exp(m_exponent_grid(KIN, gauge, RHO, WINDOW, grid))
            * np.prod(factors))
        assert report.emission_factors == factors
        assert report.oracle_value == oracle
        assert report.oracle_grid_total == grid_total
        assert report.total == report.vacuum_amplitude * np.prod(factors)

    @pytest.mark.parametrize("gauge", ["FGB", "Coulomb"])
    def test_one_profile_and_one_channel_array_per_photon(self, gauge,
                                                          monkeypatch):
        grid, photons = grid_photons(gauge, 3)
        calls = {"current": 0, "components": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(smatrix, "current_on_shell",
                            counted("current", smatrix.current_on_shell))
        monkeypatch.setattr(smatrix, "polarization_components",
                            counted("components",
                                    smatrix.polarization_components))
        full_amplitude(KIN, gauge, photons, RHO, WINDOW, oracle_cap=2)
        assert calls["current"] == 1
        # the profile and each photon, in Coulomb only
        assert calls["components"] == (4 if gauge == "Coulomb" else 0)

    @pytest.mark.parametrize("oracle_cap", [None, 3])
    def test_grid_of_the_other_gauge_is_rejected(self, oracle_cap):
        _, photons = grid_photons("Coulomb", 1)
        with pytest.raises(ValueError, match="gauge"):
            full_amplitude(KIN, "FGB", photons, RHO, WINDOW,
                           oracle_cap=oracle_cap)

    @pytest.mark.parametrize("oracle_cap", [None, 3])
    def test_support_outside_the_window_is_rejected(self, oracle_cap):
        outside = ModeGrid([(0.0, 0.0, 1.5)], [1.0], "FGB")
        photon = PhotonSmearing(outside, np.ones((1, 4), dtype=complex))
        with pytest.raises(ValueError, match="window"):
            full_amplitude(KIN, "FGB", [photon], RHO, WINDOW,
                           oracle_cap=oracle_cap)

    def test_equal_grids_give_the_separate_factors(self):
        # two equal grid objects share one profile
        _, (a,) = grid_photons("FGB", 1, seed=1)
        _, (b,) = grid_photons("FGB", 1, seed=2)
        assert a.grid is not b.grid and a.grid == b.grid
        report = full_amplitude(KIN, "FGB", [a, b], RHO, WINDOW)
        assert report.emission_factors == tuple(
            emission_factor(KIN, "FGB", p, RHO, WINDOW) for p in (a, b))


class TestModeGridPerGridArrays:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_frames_are_read_only_and_equal_the_frame(self, n):
        grid = ModeGrid.radial(WINDOW, n, "Coulomb", direction=DIRECTION)
        e1, e2 = grid.transverse_frames()
        r1, r2 = polarization_frame(np.asarray(grid.nodes))
        assert np.array_equal(e1, r1) and np.array_equal(e2, r2)
        again = grid.transverse_frames()
        assert again[0] is e1 and again[1] is e2
        for e in (e1, e2):
            with pytest.raises(ValueError):
                e[0, 0] = 1.0

    @pytest.mark.parametrize("gauge", ["FGB", "Coulomb"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_weights_and_sigma_are_read_only_and_equal_the_rebuild(
            self, gauge, n):
        grid = ModeGrid.radial(WINDOW, n, gauge, direction=DIRECTION)
        rebuilt = (np.repeat(np.asarray(grid.weights), grid.channels_per_node),
                   -grid.channel_signs())
        for get, expected in zip((grid.node_weights, grid.sigma), rebuilt):
            got = get()
            assert np.array_equal(got, expected) and got.dtype == expected.dtype
            assert get() is got
            with pytest.raises(ValueError):
                got[0] = 1.0

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_radial_nodes_equal_a_fresh_leggauss(self, n):
        # the ModeGrid.radial of the per-call leggauss code
        x, w = np.polynomial.legendre.leggauss(n)
        mid = 0.5 * (WINDOW.lam + WINDOW.Lam)
        half = 0.5 * (WINDOW.Lam - WINDOW.lam)
        d = np.asarray(DIRECTION, dtype=float)
        d /= np.linalg.norm(d)
        expected = ModeGrid([k * d for k in mid + half * x], half * w, "FGB",
                            WINDOW)
        for _ in range(2):
            grid = ModeGrid.radial(WINDOW, n, "FGB", direction=DIRECTION)
            assert grid.nodes == expected.nodes
            assert grid.weights == expected.weights


def deviation_per_channel(f, charge, grid, cap):
    """displacement_truncation_deviation with one walk for every channel."""
    intens = fock._channel_intensities(grid, f, charge)
    signs = grid.channel_signs()
    deviation = 0.0
    head = 1.0
    for c, (amp_sq, sign) in enumerate(zip(intens, signs)):
        if amp_sq == 0.0:
            continue
        truncated, tail = fock._channel_vacuum(amp_sq, sign, cap)
        later = math.exp(-0.5 * float(np.dot(signs[c + 1:], intens[c + 1:])))
        deviation += head * tail * later
        head *= truncated
    return float(abs(deviation))


class TestDeviationWalks:
    @settings(max_examples=40, deadline=None)
    @given(gauge=st.sampled_from(["FGB", "Coulomb"]),
           nodes=st.integers(1, 3), cap=st.integers(1, 14),
           data=st.data())
    def test_matches_the_per_channel_loop(self, gauge, nodes, cap, data):
        grid = ModeGrid([(0.0, 0.0, 0.2 + 0.1 * i) for i in range(nodes)],
                        [0.3] * nodes, gauge)
        amplitudes = data.draw(st.lists(
            st.sampled_from([0.0, 0.2, 0.7, 1.1, 1.6]),
            min_size=grid.n_channels, max_size=grid.n_channels))
        f = np.asarray(amplitudes, dtype=complex)
        expected = deviation_per_channel(f, 0.9, grid, cap)
        walks = []
        walk = fock._channel_vacuum
        with pytest.MonkeyPatch.context() as m:
            m.setattr(fock, "_channel_vacuum",
                      lambda *args: walks.append(args[:2]) or walk(*args))
            assert displacement_truncation_deviation(f, 0.9, grid, cap) \
                == expected
        intens = fock._channel_intensities(grid, f, 0.9)
        distinct = {(a, s) for a, s in zip(intens, grid.channel_signs())
                    if a != 0.0}
        assert sorted(walks) == sorted(distinct)

    def test_fock_verify_profile_walks(self, monkeypatch):
        # the fock-verify profile gives every channel intensity
        # 0.5 / n_channels, so there is one walk per channel sign
        walks = []
        walk = fock._channel_vacuum
        monkeypatch.setattr(fock, "_channel_vacuum",
                            lambda *args: walks.append(args) or walk(*args))
        for gauge, nodes, expected in (("Coulomb", 2, 1), ("FGB", 1, 2)):
            grid = ModeGrid.radial(WINDOW, nodes, gauge)
            w = grid.node_weights()
            f = np.sqrt(0.5 / (grid.n_channels * w)).astype(complex)
            walks.clear()
            displacement_truncation_deviation(f, 1.0, grid, 5)
            assert len(walks) == expected


# ---------------------------------------------------------------------------
# one-pass JSON writer


def json_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
               5e-324, 1.7976931348623157e308, 0.1, 1e16, 1e-7, 123456.789]
EDGE_STRINGS = ["", "plain", "café", "☃ snow", "\U0001f600",
                "tab\tnew\nline", "\x00\x1f\x7f", "quote\"back\\slash",
                "/slash"]

_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-10 ** 40, max_value=10 ** 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.text(), st.sampled_from(EDGE_STRINGS))
_documents = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=6),
                                  st.sampled_from(EDGE_STRINGS)),
                        inner, max_size=4)),
    max_leaves=25)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(doc=_documents)
    def test_matches_json_dumps(self, doc):
        assert cli._json_text(doc) == json_dumps(doc)

    @pytest.mark.parametrize("doc", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, [[]]],
        EDGE_FLOATS, EDGE_STRINGS, {s: s for s in EDGE_STRINGS},
        {"big": 10 ** 300, "neg": -(10 ** 30)},
        {"np": [np.float64(v) for v in EDGE_FLOATS]},
        {1: "int", 2: "keys"}, {1.5: "x", -0.0: "y"}, {True: 1, False: 0},
        {None: None}, "top", 3, 2.5, None, True])
    def test_edge_documents(self, doc):
        assert cli._json_text(doc) == json_dumps(doc)

    @pytest.mark.parametrize("bad", [
        np.bool_(True), np.int64(3), {1, 2}, {"a": [np.int64(1)]},
        [{"x": {1}}], {"k": object()}, {(1, 2): 3}, {1: "a", "b": 2}])
    def test_type_errors_where_json_raises_them(self, bad):
        with pytest.raises(TypeError):
            json_dumps(bad)
        with pytest.raises(TypeError):
            cli._json_text(bad)

    def test_write_json_bytes(self, tmp_path):
        doc = {"z": [1.5, float("nan")], "a": {"é": None}}
        cli._write_json(tmp_path / "r.json", doc)
        assert (tmp_path / "r.json").read_bytes() == \
            json_dumps(doc).encode("utf-8")


# ---------------------------------------------------------------------------
# batched radial panels


def integrate_radial_per_panel(fn, a, b, breaks=()):
    """integrate_radial with one integrand call per panel and order."""
    def panel_value(lo, hi, order):
        x, w = np.polynomial.legendre.leggauss(order)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return half * np.sum(w * fn(mid + half * x))

    def panel(lo, hi):
        coarse = panel_value(lo, hi, 16)
        fine = panel_value(lo, hi, 32)
        return [abs(fine - coarse), lo, hi, fine]

    edges = sorted({a, b, *(p for p in breaks if a < p < b)})
    panels = [panel(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    while True:
        total = sum(p[3] for p in panels)
        err = sum(p[0] for p in panels)
        if err <= max(1e-14, 5e-13 * abs(total)):
            return total
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, lo, hi, _ = panels[worst]
        mid = 0.5 * (lo + hi)
        panels[worst:worst + 1] = [panel(lo, mid), panel(mid, hi)]


INTEGRANDS = [
    ("smooth", lambda k: np.exp(-k) * np.sin(3.0 * k), ()),
    ("complex", lambda k: np.arctanh(0.4j * k / (0.01 - 1j * k)) / (1.0 + k),
     ()),
    ("kink", lambda k: np.sqrt(np.abs(k - 0.5477)), ()),
    ("breaks", lambda k: np.where(k < 0.4, k ** 2, np.cos(k)), (0.4, 0.7)),
    ("peak", lambda k: 1.0 / (1e-4 + (k - 0.3) ** 2), (0.25,)),
]


class TestBatchedRadial:
    @pytest.mark.parametrize("name,fn,breaks", INTEGRANDS,
                             ids=[i[0] for i in INTEGRANDS])
    def test_matches_the_per_panel_loop(self, name, fn, breaks):
        def counting(log):
            def wrapped(x):
                log.append(len(x))
                return fn(x)
            return wrapped
        ref_log, new_log = [], []
        expected = integrate_radial_per_panel(counting(ref_log), 0.1, 1.0,
                                              breaks)
        value = quadrature.integrate_radial(counting(new_log), 0.1, 1.0,
                                            breaks=breaks)
        assert value == expected
        assert sum(new_log) == sum(ref_log)
        # one call for the initial panels, one per split
        n_initial = len({0.1, 1.0, *breaks})
        splits = (len(ref_log) - 2 * (n_initial - 1)) // 4
        assert len(new_log) == 1 + splits < len(ref_log)


# ---------------------------------------------------------------------------
# gauge_compare residual probe


def probe_points_loop(seed, window):
    """The residual probe points as gauge_compare drew them per window."""
    rng = np.random.default_rng(seed)
    ks = np.empty((8, 3))
    for k in ks:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        k[:] = direction * rng.uniform(window.lam, window.Lam)
    return ks


class TestResidualProbe:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 31])
    def test_points_equal_the_loop(self, seed):
        directions, fractions = smatrix._residual_probe(seed)
        for lam in (0.05, 0.1, 0.37, 0.9):
            window = CutoffWindow(lam=lam, Lam=1.0)
            ks = directions * (window.lam + (window.Lam - window.lam)
                               * fractions)[:, None]
            assert np.array_equal(ks, probe_points_loop(seed, window))

    def test_probe_is_read_only(self):
        directions, fractions = smatrix._residual_probe(3)
        with pytest.raises(ValueError):
            directions[0, 0] = 1.0
        with pytest.raises(ValueError):
            fractions[0] = 0.5

    @pytest.mark.parametrize("seed", [0, 11])
    def test_residual_equals_the_loop(self, seed):
        kin = ScatteringKinematics.dipole(p_in=(0.0, 0.1, 0.0),
                                          p_out=(0.0, 0.0, 0.2), mass=1.0,
                                          charge=0.3)
        for lam in (0.1, 0.4):
            window = CutoffWindow(lam=lam, Lam=1.0)
            ks = probe_points_loop(seed, window)
            j4 = current_on_shell(CurrentSpec(kin, "FGB", RHO, window), ks)
            kn = np.linalg.norm(ks, axis=1)
            residual = np.abs(kn * j4[:, 0]
                              - np.einsum("ij,ij->i", ks, j4[:, 1:])).max()
            report = gauge_compare(kin, RHO, window, seed=seed)
            assert report.conservation_residual == float(residual)
