"""README's config and photon-spec rules, checked by mutating valid documents.

The rules below are written out from README ("Config file", "Photon spec
file"), not read from ``cli.py``, so that they check the schema rather than
restate it.  Each example changes one value of a valid document:

* a value that breaks a rule gives exit 2 and one ``config error:`` line,
  the same from all four subcommands, and writes no report;
* a value README accepts that equals the one it replaces (``1`` for
  ``1.0``, ``[0.5, 0]`` for ``0.5``) leaves every report byte-identical.

A broken photon spec is rejected before any grid is built or any
quadrature starts.
"""

import contextlib
import io
import json
import tempfile
import time
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from softphoton import smatrix
from softphoton.cli import main
from softphoton.fock import ModeGrid

NAN, INF = float("nan"), float("inf")
COMMANDS = ("corrections", "emission", "gauge-check", "fock-verify")

_COMMON = {"window": {"lambda": 0.1, "Lambda": 1},
           "epsilon_ladder": [0.1, 0.01],
           "fock": {"nodes": 1, "cap": 5},
           "tolerances": {"bch": 1e-9},
           "output": {"format": "json", "path": "report.json"},
           "seed": 7,
           "lambda_sweep": [0.2, 0.5]}
BASES = {
    "bn_sharp": dict(
        _COMMON, model="BN", gauge=["FGB", "Coulomb"],
        form_factor={"kind": "sharp", "params": {"lam": 0.1, "Lam": 1.0}},
        kinematics={"charge": 0.3, "u_in": [0, 0, 0],
                    "u_out": [0.0, 0.0, 0.5]}),
    "dipole_gaussian": dict(
        _COMMON, model="dipole", gauge="Coulomb",
        form_factor={"kind": "gaussian", "params": {"sigma": 0.4}},
        kinematics={"charge": -0.5, "p_in": [0.0, 0.0, 0.0],
                    "p_out": [0.0, 0.1, 0.0], "mass": 1}),
    "bn_tabulated": dict(
        _COMMON, model="BN", gauge="FGB",
        form_factor={"kind": "tabulated",
                     "params": {"k": [0, 0.5, 2.0], "values": [1.0, 0.5, 0]}},
        kinematics={"charge": 1, "u_in": [0.1, 0.0, 0.0],
                    "u_out": [0.0, 0.2, 0.0]}),
}
# FGB photons on a one-node grid (fock.nodes = 1); the bump, whose
# continuum quadrature is slow, gets a spec of its own
SPECS = {
    "grid": {"photons": [{"type": "grid",
                          "values": [[1.0, 0, [0.0, 0.5], 0.2]]},
                         {"type": "pure_gauge", "h": [[1.0, 0.5]]}],
             "oracle": False},
    "bump": [{"type": "bump", "center": 0.5, "width": 0.1,
              "components": [0.0, 1, [0.0, 0.5], 0.3]}],
}

# ---------------------------------------------------------------------------
# README's rules: the kind of value each key takes, and its bound

CONFIG_RULES = {
    ("model",): ("enum", None),
    ("gauge",): ("gauge", None),
    ("form_factor", "kind"): ("enum", None),
    ("form_factor", "params", "lam"): ("number", 0.0),
    ("form_factor", "params", "Lam"): ("number", 0.0),
    ("form_factor", "params", "sigma"): ("number", 0.0),
    ("form_factor", "params", "k"): ("numbers", None),
    ("form_factor", "params", "values"): ("numbers", None),
    ("kinematics", "charge"): ("number", None),
    ("kinematics", "u_in"): ("vector", "|u| < 1"),
    ("kinematics", "u_out"): ("vector", "|u| < 1"),
    ("kinematics", "p_in"): ("vector", None),
    ("kinematics", "p_out"): ("vector", None),
    ("kinematics", "mass"): ("number", 0.0),
    ("window", "lambda"): ("number", 0.0),
    ("window", "Lambda"): ("number", 0.0),
    ("epsilon_ladder",): ("ladder", None),
    ("fock", "nodes"): ("integer", 1),
    ("fock", "cap"): ("integer", 1),
    ("tolerances", "bch"): ("number", 0.0),
    ("output", "format"): ("enum", None),
    ("output", "path"): ("string", None),
    ("seed",): ("integer", 0),
    ("lambda_sweep",): ("sweep", 1.0),  # inside (0, Lambda), Lambda = 1
}
# photon entry fields by (type, field); the bound of a list is its length
PHOTON_RULES = {
    ("grid", "values"): ("rows", None),
    ("pure_gauge", "h"): ("complexes", 1),
    ("bump", "center"): ("number", None),
    ("bump", "width"): ("number", 0.0),
    ("bump", "components"): ("complexes", 4),
}
# every key README names, so that an added "unknown" key is really unknown
KNOWN_KEYS = {key for path in CONFIG_RULES for key in path} | {
    "ccr", "weyl", "t_isometry", "displacement", "tolerances", "fock",
    "output", "photons", "oracle", "type", "values", "h", "center", "width",
    "components"}
UNKNOWN_KEYS = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1,
                       max_size=8).filter(lambda k: k not in KNOWN_KEYS)

NOT_NUMBERS = st.sampled_from(["0.5", "", True, False, None, NAN, INF, -INF,
                               [0.5], {}])
NOT_LISTS = st.sampled_from(["0.5", 0.5, True, None, {}])
NOT_COMPLEX = st.sampled_from(["0.5", "", True, None, NAN, INF, -INF, {}, [],
                               [0.5], [0.5, 0.0, 0.0], [NAN, 0.0], [0.0, INF],
                               [-INF, 1.0], [True, 0.0], [0.0, "1"],
                               [None, 0.0]])


def _equal_numbers(x):
    """JSON numbers equal to ``x``: its int and float spellings."""
    same = [float(x)]
    if float(x).is_integer():
        same.append(int(x))
    return st.sampled_from(same)


def _equal_complexes(z):
    """Spellings of the complex entry ``z``: a number or [re, im]."""
    re, im = z if isinstance(z, list) else (z, 0)
    pairs = st.tuples(_equal_numbers(re), _equal_numbers(im)).map(list)
    return pairs | _equal_numbers(re) if im == 0 else pairs


def _respelled(xs, spell=_equal_numbers):
    """Lists equal to ``xs``, each entry spelled anew."""
    return st.tuples(*map(spell, xs)).map(list)


def _with_entry(xs, entry):
    """``xs`` with one entry replaced by a draw of ``entry``."""
    return st.tuples(st.integers(0, len(xs) - 1), entry).map(
        lambda ie: xs[:ie[0]] + [ie[1]] + xs[ie[0] + 1:])


def mutations(kind, bound, v):
    """(value, breaks a rule) pairs for a value ``v`` of README kind."""
    def breaks(s):
        return s.map(lambda x: (x, True))

    def keeps(s):
        return s.map(lambda x: (x, False))

    if kind == "number":
        out = breaks(NOT_NUMBERS) | keeps(_equal_numbers(v))
        if bound is not None:  # > bound
            out |= breaks(st.floats(max_value=bound, allow_nan=False)
                          | st.integers(max_value=int(bound)))
        return out
    if kind == "integer":  # >= bound
        return (breaks(NOT_NUMBERS | st.just(float(v))
                       | st.integers(max_value=bound - 1))
                | keeps(st.just(v)))
    if kind in ("numbers", "ladder", "sweep", "vector"):
        out = (breaks(NOT_LISTS | _with_entry(v, NOT_NUMBERS))
               | keeps(_respelled(v)))
        if kind == "vector":
            out |= breaks(st.sampled_from([v[:2], v + [0.0]]))
            if bound is not None:
                out |= breaks(st.sampled_from([[0.0, 0.0, 1.0],
                                               [0.6, -0.6, 0.6]]))
        if kind == "ladder":  # > 0 and strictly decreasing
            out |= breaks(_with_entry(v, st.floats(max_value=0.0,
                                                   allow_nan=False))
                          | st.sampled_from([v[::-1], v[:1] * 2]))
        if kind == "sweep":  # inside (0, bound)
            out |= breaks(_with_entry(v, st.floats(max_value=0.0)
                                      | st.floats(min_value=bound)))
        return out
    if kind == "enum":
        return (breaks(st.sampled_from([v.swapcase(), v + " ", "scalar", "",
                                        1, None, True, [v], {v: 1}]))
                | keeps(st.just(v)))
    if kind == "gauge":
        first = v if isinstance(v, str) else v[0]
        same = [v] if isinstance(v, str) else v[0] if len(v) == 1 else v
        return (breaks(st.sampled_from(["fgb", "Lorenz", "", [],
                                        [first, first],
                                        ["Coulomb", "FGB", "FGB"], 3, None,
                                        True, [[first]], {first: 1}]))
                | keeps(st.sampled_from([v, same])))
    if kind == "string":
        return (breaks(st.sampled_from(["", 5, True, None, [v], {}]))
                | keeps(st.just(v)))
    if kind == "flag":
        return (breaks(st.sampled_from([1, 0, "false", "true", None, []]))
                | keeps(st.just(v)))
    if kind == "complexes":  # ``bound`` entries
        return (breaks(NOT_LISTS | st.sampled_from([v[:-1], v + [0.0]])
                       | _with_entry(v, NOT_COMPLEX))
                | keeps(_respelled(v, _equal_complexes)))
    assert kind == "rows", kind  # one row per node, one entry per channel
    row, = v
    return (breaks(NOT_LISTS | st.sampled_from([[], [row, row], [row[:-1]],
                                                [row + [0.0]], row])
                   | _with_entry(row, NOT_COMPLEX).map(lambda r: [r]))
            | keeps(_respelled(row, _equal_complexes).map(lambda r: [r])))


def _sections(doc, path=()):
    """Paths of ``doc`` and of every JSON object inside it."""
    yield path
    for key, val in doc.items():
        if isinstance(val, dict):
            yield from _sections(val, path + (key,))


def _leaves(doc, path=()):
    for key, val in doc.items():
        if isinstance(val, dict):
            yield from _leaves(val, path + (key,))
        else:
            yield path + (key,)


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _added(doc, path, key):
    doc = json.loads(json.dumps(doc))
    _get(doc, path)[key] = 1
    return doc


@st.composite
def config_cases(draw):
    """(base name, config with one change, the change breaks a rule)."""
    name = draw(st.sampled_from(sorted(BASES)))
    base = BASES[name]
    what = draw(st.sampled_from(["value", "value", "value", "section",
                                 "key"]))
    if what == "value":
        path = draw(st.sampled_from(list(_leaves(base))))
        value, broken = draw(mutations(*CONFIG_RULES[path], _get(base, path)))
        return name, _replaced(base, path, value), broken
    sections = list(_sections(base))
    if what == "section":  # a section that is not a JSON object
        path = draw(st.sampled_from(sections[1:]))
        value = draw(st.sampled_from([5, "x", [], None, True,
                                      [_get(base, path)]]))
        return name, _replaced(base, path, value), True
    return name, _added(base, draw(st.sampled_from(sections)),
                        draw(UNKNOWN_KEYS)), True


@st.composite
def photon_cases(draw):
    """(spec name, photon spec with one change, the change breaks a rule)."""
    name = draw(st.sampled_from(sorted(SPECS)))
    spec = SPECS[name]
    top = ("photons",) if isinstance(spec, dict) else ()
    entries = _get(spec, top)
    i = draw(st.integers(0, len(entries) - 1))
    entry = top + (i,)
    what = draw(st.sampled_from(["value", "value", "value", "type", "entry",
                                 "key"]
                                + ["oracle", "list", "spec key"] * bool(top)))
    if what == "value":
        field = draw(st.sampled_from(sorted(set(entries[i]) - {"type"})))
        rule = PHOTON_RULES[entries[i]["type"], field]
        value, broken = draw(mutations(*rule, entries[i][field]))
        return name, _replaced(spec, entry + (field,), value), broken
    if what == "oracle":
        value, broken = draw(mutations("flag", None, spec["oracle"]))
        return name, _replaced(spec, ("oracle",), value), broken
    if what in ("key", "spec key"):
        return name, _added(spec, entry if what == "key" else (),
                            draw(UNKNOWN_KEYS)), True
    path, wrong = {
        "type": (entry + ("type",), ["Grid", "mystery", "", None, 1,
                                     ["grid"]]),
        "entry": (entry, [7, "grid", None, [], {}]),
        "list": (top, [{"type": "grid"}, "grid", 5]),
    }[what]
    return name, _replaced(spec, path, draw(st.sampled_from(wrong))), True


# ---------------------------------------------------------------------------
# running the front end


def run(config, photons=(), command="corrections", flags=()):
    """(exit code, stderr, report bytes or None) of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("config.json").write_text(json.dumps(config), encoding="utf-8")
        Path("photons.json").write_text(json.dumps(photons),
                                        encoding="utf-8")
        argv = [command, "config.json", *flags]
        if command == "emission":
            argv.insert(2, "photons.json")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)
        written = sorted(set(p.name for p in Path(".").iterdir())
                         - {"config.json", "photons.json"})
        assert written in ([], ["report.json"]), written
        report = (Path("report.json").read_bytes() if written else None)
    return rc, err.getvalue(), report


@lru_cache(maxsize=None)
def base_results(name):
    return [run(BASES[name], command=command) for command in COMMANDS]


@lru_cache(maxsize=None)
def base_emission(name):
    return run(BASES["bn_sharp"], SPECS[name], "emission")


def assert_config_error(results):
    """Exit 2 and the same one ``config error:`` line, no report."""
    (rc, err, report), *_ = results
    assert rc == 2 and report is None, (rc, err)
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert all(r == results[0] for r in results), results


@contextlib.contextmanager
def no_grid_no_quadrature():
    def refuse(*args, **kwargs):
        raise AssertionError("a grid or a quadrature was started")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ModeGrid, "radial", refuse)
        m.setattr(smatrix, "integrate_sphere", refuse)
        yield


def test_valid_bases():
    for name in BASES:
        assert [r[:2] for r in base_results(name)] == [(0, "")] * 4, name
    for name in SPECS:
        assert base_emission(name)[:2] == (0, "")


@settings(max_examples=150, deadline=None)
@given(case=config_cases())
def test_config_mutations(case):
    name, config, broken = case
    results = [run(config, command=command) for command in COMMANDS]
    if broken:
        assert_config_error(results)
    else:
        assert results == base_results(name)


@settings(max_examples=80, deadline=None)
@given(case=photon_cases())
def test_photon_spec_mutations(case):
    name, photons, broken = case
    if broken:
        with no_grid_no_quadrature():
            assert_config_error([run(BASES["bn_sharp"], photons, "emission")])
    else:
        assert run(BASES["bn_sharp"], photons, "emission") == \
            base_emission(name)


# ---------------------------------------------------------------------------
# inputs that ran with exit 0 (or 3) before the schema, one test each

BN = BASES["bn_sharp"]


DIPOLE_KIN = BASES["dipole_gaussian"]["kinematics"]


@pytest.mark.parametrize("change, needle", [
    ({"lambda_sweep": [5.0, -2.0]}, "lambda_sweep values"),
    ({"kinematics": dict(BN["kinematics"], u_out=["0.5", 0, 0])}, "u_out"),
    ({"kinematics": dict(BN["kinematics"], u_out=[False, 0, 0.5])}, "u_out"),
    ({"window": {"lambda": "0.1", "Lambda": 1.0}}, "window lambda"),
    ({"window": {"lambda": 0.1, "Lambda": True}}, "window Lambda"),
    ({"window": {"lambda": 0.1, "Lambda": INF}}, "window Lambda"),
    ({"form_factor": {"kind": "gaussian", "params": {"sigma": True}}},
     "sigma"),
    ({"form_factor": {"kind": "gaussian", "params": {"sigma": INF}}},
     "sigma"),
    ({"form_factor": {"kind": "tabulated",
                      "params": {"k": [0.1, "0.5", 1.0],
                                 "values": [1.0, 1.0, 1.0]}}}, "params k"),
    ({"form_factor": {"kind": "sharp", "params": {"lam": "0.1", "Lam": 1.0}}},
     "params lam"),
    ({"model": "dipole", "kinematics": dict(DIPOLE_KIN, mass="1")}, "mass"),
    ({"model": "dipole", "kinematics": dict(DIPOLE_KIN, mass=INF)}, "mass"),
], ids=lambda x: json.dumps(x)[:40] if isinstance(x, dict) else None)
def test_reproduced_inputs_exit2_everywhere(change, needle):
    results = [run(dict(BN, **change), command=command)
               for command in COMMANDS]
    assert_config_error(results)
    assert needle in results[0][1]


@pytest.mark.parametrize("flags", [
    ("--Lambda", "inf"), ("--lambda", "nan"), ("--lambda", "-0.1"),
    ("--Lambda=-inf",), ("--seed", "-1")])
def test_flags_pass_the_same_rules(flags):
    assert_config_error([run(BN, command=command, flags=flags)
                         for command in COMMANDS])


@pytest.mark.parametrize("photon", [
    {"type": "bump", "center": NAN, "width": 0.1, "components": [0, 1, 0, 0]},
    {"type": "bump", "center": 0.5, "width": INF,
     "components": [0, 1, 0, 0]},
    {"type": "bump", "center": 0.5, "width": 0.1,
     "components": [0, NAN, 0, 0]},
    {"type": "bump", "center": 0.5, "width": 0.1,
     "components": [0, [1, INF], 0, 0]},
    {"type": "grid", "values": [[NAN, 0, 0, 0]]},
    {"type": "grid", "values": [[[1, INF], 0, 0, 0]]},
    {"type": "pure_gauge", "h": [[-INF, 0]]},
], ids=lambda photon: json.dumps(photon)[:48])
def test_non_finite_photon_numbers_exit2(photon):
    with no_grid_no_quadrature():
        assert_config_error([run(BN, [photon], "emission")])


def test_nan_bump_exits_at_once():
    t0 = time.perf_counter()
    assert_config_error([run(BN, [{"type": "bump", "center": NAN,
                                   "width": 0.1,
                                   "components": [0, 1, 0, 0]}],
                             "emission")])
    assert time.perf_counter() - t0 < 1.0
