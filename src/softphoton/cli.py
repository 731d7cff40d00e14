"""Config-driven command line front end.

One JSON config document describes the physics scenario (model, gauge,
form factor, kinematics, window, optional epsilon ladder and Fock grid);
subcommands evaluate it and write machine-readable reports:

* ``corrections``  vacuum amplitudes and exponents per requested gauge,
* ``emission``     per-photon emission factors from a photon spec file,
* ``gauge-check``  lambda sweep CSV comparing the two gauges,
* ``fock-verify``  operator-algebra check suite on the truncated oracle.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numerical
failure.  Identical config + seed gives byte-identical output files: all
randomness flows through the seed, floats are written in full precision,
and files always use LF line endings.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .core import CutoffWindow, FormFactor, ScatteringKinematics
from .fock import (
    FockTruncationError,
    ModeGrid,
    TruncatedFockSpace,
    bch_check,
    ccr_deviation,
    displacement_truncation_deviation,
    require_dense_budget,
    weyl_operator,
)
from .gauge import PhotonSmearing, coulomb_product, minus_product, t_map
from .smatrix import (full_amplitude, gauge_compare, log_ratio,
                      renormalization_ledger)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_GAUGES = ("FGB", "Coulomb")
_FLOAT_MAX = sys.float_info.max

DEFAULT_TOLERANCES = {
    "ccr": 1e-10,
    "bch": 1e-9,
    "weyl": 1e-8,
    "t_isometry": 1e-12,
    "displacement": 1e-8,
}


class ConfigError(ValueError):
    """Anything wrong with the config document or its override flags."""


@dataclass(frozen=True)
class RunConfig:
    model: str
    gauges: tuple
    rho: FormFactor
    window: CutoffWindow
    kin: ScatteringKinematics
    epsilon_ladder: tuple
    fock_nodes: int
    fock_cap: int
    tolerances: dict
    out_format: str
    out_path: str
    seed: int
    lambda_sweep: tuple


def _require(cond, msg: str):
    if not cond:
        raise ConfigError(msg)


# ---------------------------------------------------------------------------
# the document schema: a table maps each key to its rule, a function of the
# JSON value and its name that returns the value the program uses


def _finite(v):
    """``v`` as a float if it is a finite JSON number, else None."""
    if (v.__class__ is float or v.__class__ is int) and abs(v) <= _FLOAT_MAX:
        return float(v)  # a bool is neither class; NaN fails the bound
    return None


def _number(positive: bool, v, name: str) -> float:
    x = _finite(v)
    if x is None or positive and not x > 0.0:
        float(v)  # a value float() cannot read keeps float()'s message
        raise ConfigError(f"{name} must be a finite JSON number"
                          f"{' > 0' * positive}")
    return x


def _integer(low: int, v, name: str) -> int:
    if v.__class__ is not int or v < low:
        raise ConfigError(f"{name} must be a JSON integer >= {low}")
    return v


def _numbers(decreasing: bool, v, name: str) -> tuple:
    xs = tuple(map(float, v))
    if (v.__class__ is not list or None in map(_finite, v) or decreasing
            and not all(a > b for a, b in zip(xs, xs[1:] + (0.0,)))):
        raise ConfigError(f"{name} must list finite JSON numbers"
                          + " > 0, strictly decreasing" * decreasing)
    return xs


def _vector(v, name: str) -> tuple:
    if v.__class__ is not list or len(v) != 3:
        _require(np.asarray(v, dtype=float).shape == (3,),
                 "spatial velocity must be a 3-vector")
    return _numbers(False, v, name)


def _enum(choices: tuple, v, name: str) -> str:
    if v.__class__ is not str or v not in choices:
        raise ConfigError(f"{name} must be {' or '.join(choices)}, "
                          f"not {v!r}")
    return v


def _text(v, name: str) -> str:
    _require(v.__class__ is str and v, f"{name} must be a non-empty string")
    return v


def _gauges(v, name: str) -> tuple:
    gauges = [v] if v.__class__ is str else v
    _require(gauges.__class__ is list and gauges
             and all(g in _GAUGES for g in gauges)
             and len(set(gauges)) == len(gauges),
             f"{name} must be FGB, Coulomb or a list of them without repeats")
    return tuple(gauges)


def _typed(cls: type, what: str, v, name: str):
    _require(v.__class__ is cls, f"{name} must be {what}")
    return v


def _complex(v) -> complex:
    re, im = map(_finite, v if v.__class__ is list and len(v) == 2
                 else (v, 0))
    if re is None or im is None:
        raise ConfigError(f"not a finite complex number or [re, im]: {v!r}")
    return complex(re, im)


def _complexes(v, name: str) -> list:
    return [_complex(x) for x in
            _typed(list, "a list of complex scalars", v, name)]


def _complex_rows(v, name: str) -> list:
    _require(v.__class__ is list and all(row.__class__ is list for row in v),
             f"{name} must be a list of node rows, each a list of components")
    return [[_complex(x) for x in row] for row in v]


def _radius(v, name: str) -> float:
    _require(_finite(v) is not None, "bump center and width must be numbers")
    return float(v)


_real, _positive = partial(_number, False), partial(_number, True)
_reals = partial(_numbers, False)
# FormFactor.<kind> takes these params, in this order
_FORM_FACTORS = {"sharp": {"lam": _positive, "Lam": _positive},
                 "gaussian": {"sigma": _positive},
                 "tabulated": {"k": _reals, "values": _reals}}
# constructor per model, and the kinematics keys it takes, in order
_MODELS = {"BN": (ScatteringKinematics.bn, ("u_in", "u_out", "charge")),
           "dipole": (ScatteringKinematics.dipole,
                      ("p_in", "p_out", "mass", "charge"))}
_CONFIG = {
    "model": partial(_enum, tuple(_MODELS)),
    "gauge": _gauges,
    "window": {"lambda": _positive, "Lambda": _positive},
    "form_factor": {"kind": partial(_enum, tuple(_FORM_FACTORS)),
                    "params": partial(_typed, dict, "a JSON object")},
    "kinematics": {"charge": _real, "u_in": _vector, "u_out": _vector,
                   "p_in": _vector, "p_out": _vector, "mass": _positive},
    "epsilon_ladder": partial(_numbers, True),
    "fock": dict.fromkeys(("nodes", "cap"), partial(_integer, 1)),
    "tolerances": dict.fromkeys(DEFAULT_TOLERANCES, _positive),
    "output": {"format": partial(_enum, ("json", "csv")), "path": _text},
    "lambda_sweep": _reals,
    "seed": partial(_integer, 0),
}
_PHOTON_SPEC = {"photons": partial(_typed, list, "a JSON list"),
                "oracle": partial(_typed, bool, "true or false")}
# fields of each photon entry type, besides "type"
_PHOTON_FIELDS = {
    "grid": {"values": _complex_rows},
    "pure_gauge": {"h": _complexes},
    "bump": {"center": _radius, "width": _radius, "components": _complexes},
}


def _walk(doc: dict, table: dict, name: str = "") -> dict:
    """``doc`` with each value replaced by its rule's result in ``table``;
    ``name`` names ``doc`` in messages."""
    if not doc.keys() <= table.keys():
        raise ConfigError(f"unknown {name or 'top-level'} key(s): "
                          f"{', '.join(sorted(doc.keys() - table.keys()))}")
    for key, v in doc.items():
        rule = table[key]
        if rule.__class__ is dict:  # a section, with its own table
            if v.__class__ is not dict:
                raise ConfigError(f"section {key!r} must be a JSON object")
            _walk(v, rule, key)
        else:
            doc[key] = rule(v, f"{name} {key}" if name else key)
    return doc


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def load_config(path: str, lam=None, Lam=None, seed=None,
                out=None) -> RunConfig:
    """Parse and validate the config document, applying override flags.

    Every malformed input surfaces as ConfigError so the front end can map
    it to exit code 2.
    """
    doc = _read_json(path, "config")
    try:
        _require(doc.__class__ is dict, "config must be a JSON object")
        # a flag replaces its config value before the walk; --out does not
        win = doc.get("window")
        for sec, key, flag in ((win, "lambda", lam), (win, "Lambda", Lam),
                               (doc, "seed", seed)):
            if flag is not None and sec.__class__ is dict:
                sec[key] = flag
        cfg = _walk(doc, _CONFIG)
        for section in ("window", "form_factor", "kinematics"):
            _require(section in cfg, f"missing section {section!r}")
        window = CutoffWindow(cfg["window"]["lambda"], cfg["window"]["Lambda"])
        kind = cfg["form_factor"]["kind"]
        params = _walk(cfg["form_factor"].get("params", {}),
                       _FORM_FACTORS[kind], f"{kind} form_factor params")
        rho = getattr(FormFactor, kind)(*map(params.__getitem__,
                                             _FORM_FACTORS[kind]))
        make, keys = _MODELS[cfg["model"]]
        kin = make(*map(cfg["kinematics"].__getitem__, keys))
        sweep = cfg.get("lambda_sweep", ())
        _require(not sweep or 0.0 < min(sweep) and max(sweep) < window.Lam,
                 "lambda_sweep values must lie inside (0, Lambda)")
        output, fock = cfg.get("output", {}), cfg.get("fock", {})
        out = output.get("path") if out is None else _text(out, "--out")
        _require(out, "an output path is required (config or --out)")
        return RunConfig(
            model=cfg["model"], gauges=cfg.get("gauge", _GAUGES), rho=rho,
            window=window, kin=kin, lambda_sweep=sweep,
            epsilon_ladder=cfg.get("epsilon_ladder", ()),
            fock_nodes=fock.get("nodes", 1), fock_cap=fock.get("cap", 5),
            tolerances={**DEFAULT_TOLERANCES, **cfg.get("tolerances", {})},
            out_format=output.get("format", "json"), out_path=out,
            seed=cfg.get("seed", 0))
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _cnum(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_quote = json.encoder.encode_basestring_ascii


def _scalar_text(value):
    """JSON text of a scalar as ``json`` writes it; None for anything else.

    Subclasses count as their base type, as in ``json``: an np.float64 is
    a float, an np.bool_ or np.int64 is none of these.
    """
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_WORDS.get(text, text)
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return None


def _key_text(key) -> str:
    if isinstance(key, str):
        return _quote(key)
    text = _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return _quote(text)


def _encode(value, out: list, indent: str):
    """Append the JSON text of ``value``, indented past ``indent``, to out.

    Scalars inside a container are written in the container's loop.
    """
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            text = _scalar_text(item)
            if text is None:
                out.append(sep)
                _encode(item, out, inner)
            else:
                out.append(sep + text)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            head = sep + _key_text(key) + ": "
            text = _scalar_text(item)
            if text is None:
                out.append(head)
                _encode(item, out, inner)
            else:
                out.append(head + text)
            sep = "," + inner
        out.append(indent + "}")
    else:
        text = _scalar_text(value)
        if text is None:
            raise TypeError(f"Object of type {value.__class__.__name__} "
                            f"is not JSON serializable")
        out.append(text)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, in one pass.

    The standard encoder runs in pure Python whenever it indents; this is
    the same output for report values (str, bool, None, int, float and
    their subclasses, dict, list and tuple), with ``TypeError`` for any
    other type.
    """
    out = []
    _encode(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(path: str, obj):
    Path(path).write_bytes(_json_text(obj).encode("utf-8"))


def _write_csv(path: str, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _exponent_dict(exp) -> dict:
    out = {"total": _cnum(exp.total)}
    for key, val in exp.breakdown().items():
        out[key] = val if not isinstance(val, complex) else _cnum(val)
    return out


def _ledger_dict(ledger) -> dict:
    return {
        "rows": [{"eps": r.eps, "unrenormalized": _cnum(r.unrenormalized),
                  "counterterm": _cnum(r.counterterm),
                  "total": _cnum(r.total)} for r in ledger.rows],
        "extrapolated": _cnum(ledger.extrapolated),
        "imag_slope": ledger.imag_slope,
        "target": ledger.target,
        "relative_error": ledger.relative_error,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_corrections(cfg: RunConfig) -> int:
    """Vacuum amplitude + exponent per gauge; ledger when a ladder is given."""
    results = {}
    for gauge in cfg.gauges:
        report = full_amplitude(cfg.kin, gauge, [], cfg.rho, cfg.window)
        results[gauge] = {
            "vacuum_amplitude": _cnum(report.vacuum_amplitude),
            "exponent": _exponent_dict(report.exponent),
        }
    doc = {"model": cfg.model, "window": {"lambda": cfg.window.lam,
                                          "Lambda": cfg.window.Lam},
           "gauges": results}
    if len(cfg.gauges) == 2:  # both gauges: the schema allows no repeat
        fgb, coul = (results[g]["exponent"]["total"]["re"] for g in _GAUGES)
        ratio = log_ratio(cfg.kin, fgb, coul)
        doc["log_ratio"] = None if np.isnan(ratio) else ratio
    if cfg.epsilon_ladder:
        doc["ledger"] = {
            leg: _ledger_dict(renormalization_ledger(
                cfg.kin.velocity(leg), cfg.epsilon_ladder, cfg.rho,
                cfg.window, charge=cfg.kin.charge))
            for leg in ("in", "out")}
    if cfg.out_format == "json":
        _write_json(cfg.out_path, doc)
    else:
        rows = []
        for gauge in cfg.gauges:
            exp = results[gauge]["exponent"]
            rows.append([gauge, _fmt(exp["total"]["re"]),
                         _fmt(results[gauge]["vacuum_amplitude"]["re"]),
                         _fmt(exp["gamma_cross"]), _fmt(exp["b_ir_in"]),
                         _fmt(exp["b_ir_out"])])
        _write_csv(cfg.out_path,
                   ["gauge", "m_total", "vacuum_amplitude", "gamma_cross",
                    "b_ir_in", "b_ir_out"], rows)
    return EXIT_OK


def _require_fock_budget(cfg: RunConfig, gauge: str):
    """Reject an oversized Fock space from the config, before any grid."""
    try:
        require_dense_budget(cfg.fock_nodes, cfg.fock_cap, gauge)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _bump(a, center: float, width: float, k):
    """Radial Gaussian bump photon with polarization ``a`` at momentum k."""
    return a * np.exp(-(((np.linalg.norm(k) - center) / width) ** 2))


def _parse_photons(path: str, cfg: RunConfig, gauge: str):
    """Photon spec file -> (photon list, oracle flag)."""
    doc = _read_json(path, "photon spec")
    doc = {"photons": doc} if doc.__class__ is list else doc
    _require(doc.__class__ is dict,
             "photon spec must be a list of photons or a JSON object")
    spec = _walk(doc, _PHOTON_SPEC, "photon spec")
    oracle, n, width = (spec.get("oracle", False), cfg.fock_nodes,
                        4 if gauge == "FGB" else 3)
    if oracle:
        _require_fock_budget(cfg, gauge)
    parsed = []
    for entry in spec.get("photons", []):
        _require(entry.__class__ is dict, "unknown photon entry: not a dict")
        kind = _enum(tuple(_PHOTON_FIELDS), entry.get("type"), "photon type")
        fields = _PHOTON_FIELDS[kind]
        data = _walk({key: v for key, v in entry.items() if key != "type"},
                     fields, f"{kind} photon")
        missing = ", ".join(repr(key) for key in fields if key not in data)
        _require(not missing, f"{kind} photon missing field(s) {missing}")
        if kind == "grid":
            vals = data["values"]
            _require(len(vals) == n, f"grid photon needs {n} node rows")
            _require(all(len(row) == width for row in vals),
                     f"grid photon rows need {width} components")
        elif kind == "pure_gauge":
            vals = data["h"]
            _require(gauge == "FGB",
                     "pure-gauge photons require the FGB gauge")
            _require(len(vals) == n, f"pure_gauge needs {n} scalars")
        else:
            vals = data["components"]
            _require(len(vals) == width,
                     f"bump components need {width} entries")
            _require(data["width"] > 0.0, "bump width must be positive")
        parsed.append((kind, np.array(vals), data))
    on_grid = [kind != "bump" for kind, _, _ in parsed]
    if oracle:
        _require(parsed, "oracle mode needs at least one photon")
        _require(all(on_grid),
                 "oracle mode needs grid or pure_gauge photons only")
    # ModeGrid.radial costs O(nodes^3): build it only once every entry has
    # passed its checks, and only for photons that live on it
    grid = ModeGrid.radial(cfg.window, n, gauge) if any(on_grid) else None
    photons = [PhotonSmearing(grid, a) if kind == "grid"
               else PhotonSmearing.pure_gauge(grid, a) if kind == "pure_gauge"
               else partial(_bump, a, data["center"], data["width"])
               for kind, a, data in parsed]
    return photons, oracle


def cmd_emission(cfg: RunConfig, photon_path: str) -> int:
    gauge = cfg.gauges[0]
    photons, oracle = _parse_photons(photon_path, cfg, gauge)
    report = full_amplitude(cfg.kin, gauge, photons, cfg.rho, cfg.window,
                            oracle_cap=cfg.fock_cap if oracle else None)
    doc = {
        "model": report.model,
        "gauge": report.gauge,
        "window": {"lambda": cfg.window.lam, "Lambda": cfg.window.Lam},
        "vacuum_amplitude": _cnum(report.vacuum_amplitude),
        "exponent": _exponent_dict(report.exponent),
        "emission_factors": [_cnum(f) for f in report.emission_factors],
        "total": _cnum(report.total),
    }
    if oracle:
        doc["oracle"] = {"value": _cnum(report.oracle_value),
                         "grid_total": _cnum(report.oracle_grid_total),
                         "dim": report.oracle_dim}
    if cfg.out_format == "json":
        _write_json(cfg.out_path, doc)
    else:
        rows = [[str(i), _fmt(f.real), _fmt(f.imag), "", ""]
                for i, f in enumerate(report.emission_factors)]
        oracle_cells = (
            [_fmt(report.oracle_value.real), _fmt(report.oracle_value.imag)]
            if oracle else ["", ""])
        rows.append(["total", _fmt(report.total.real),
                     _fmt(report.total.imag), *oracle_cells])
        _write_csv(cfg.out_path,
                   ["photon", "factor_re", "factor_im", "oracle_re",
                    "oracle_im"], rows)
    return EXIT_OK


def cmd_gauge_check(cfg: RunConfig) -> int:
    _require(cfg.lambda_sweep, "gauge-check needs a non-empty lambda_sweep")
    rows = []
    for lam in cfg.lambda_sweep:
        window = CutoffWindow(lam=lam, Lam=cfg.window.Lam)
        rep = gauge_compare(cfg.kin, cfg.rho, window, seed=cfg.seed)
        rows.append((lam, rep))
    if cfg.out_format == "csv":
        _write_csv(cfg.out_path,
                   ["lambda", "m_fgb", "m_coul", "log_ratio",
                    "conservation_residual"],
                   [[_fmt(lam), _fmt(np.real(rep.m_fgb)),
                     _fmt(np.real(rep.m_coulomb)), _fmt(rep.log_ratio),
                     _fmt(rep.conservation_residual)]
                    for lam, rep in rows])
    else:
        _write_json(cfg.out_path, {
            "model": cfg.model,
            "sweep": [{"lambda": lam,
                       "m_fgb": float(np.real(rep.m_fgb)),
                       "m_coul": float(np.real(rep.m_coulomb)),
                       "log_ratio": (None if np.isnan(rep.log_ratio)
                                     else rep.log_ratio),
                       "degenerate": rep.degenerate,
                       "conservation_residual": rep.conservation_residual}
                      for lam, rep in rows]})
    return EXIT_OK


def _fock_suite(cfg: RunConfig):
    """Run the operator-algebra checks; returns (check rows, table rows)."""
    gauge = cfg.gauges[0]
    _require_fock_budget(cfg, gauge)
    grid = ModeGrid.radial(cfg.window, cfg.fock_nodes, gauge)
    space = TruncatedFockSpace(grid, cfg.fock_cap)
    rng = np.random.default_rng(cfg.seed)
    shape = (grid.n_nodes, grid.channels_per_node)
    tol = cfg.tolerances
    checks = []

    def draw():
        return 0.3 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

    f, g = draw(), draw()
    checks.append(("ccr", ccr_deviation(f, g, space), tol["ccr"]))

    # BCH convergence needs occupancy headroom above its comparison window,
    # which only a two-channel space affords inside the dense budget; probe
    # it on the grid's first node at a deep cap. Fixed amplitude keeps the
    # algebra checks independent of the scenario.
    probe = ModeGrid([grid.nodes[0]], [grid.weights[0]], "Coulomb")
    probe_space = TruncatedFockSpace(probe, 14)
    fp = 0.3 * (rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2)))
    gp = 0.3 * (rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2)))
    bch_dev = bch_check(fp, gp, 0.5, probe_space)
    checks.append(("bch", bch_dev, tol["bch"]))

    gr, hr = 0.2 * rng.normal(size=shape), 0.2 * rng.normal(size=shape)
    vac = space.vacuum()
    weyl_vac = weyl_operator(gr, hr, space, on=vac)
    closed = np.exp(0.25 * (grid.signed_product(gr, gr)
                            + grid.signed_product(hr, hr)))
    weyl_dev = float(abs(space.eta_product(vac, weyl_vac) - closed))
    checks.append(("weyl", weyl_dev, tol["weyl"]))

    fgb_grid = (grid if gauge == "FGB"
                else ModeGrid(grid.nodes, grid.weights, "FGB"))
    nodes = np.asarray(fgb_grid.nodes)
    khat = nodes / np.linalg.norm(nodes, axis=1)[:, None]
    t_dev = 0.0
    smear = []
    for _ in range(2):
        spatial = (rng.normal(size=(fgb_grid.n_nodes, 3))
                   + 1j * rng.normal(size=(fgb_grid.n_nodes, 3)))
        temporal = np.einsum("ij,ij->i", khat, spatial)[:, None]
        smear.append(PhotonSmearing(
            fgb_grid, np.concatenate([temporal, spatial], axis=1)))
    for a in smear:
        for b in smear:
            t_dev = max(t_dev, abs(minus_product(a, b)
                                   - coulomb_product(t_map(a), t_map(b),
                                                     fgb_grid)))
    checks.append(("t_isometry", t_dev, tol["t_isometry"]))

    # synthetic profile with the per-grid intensity pinned at 0.5
    w = grid.node_weights()
    f_test = np.sqrt(0.5 / (grid.n_channels * w)).astype(complex)
    caps = sorted(set(range(2, cfg.fock_cap, 2)) | {cfg.fock_cap})
    table = [(cap, displacement_truncation_deviation(f_test, 1.0, grid, cap))
             for cap in caps]
    checks.append(("displacement", table[-1][1], tol["displacement"]))
    return checks, table


def cmd_fock_verify(cfg: RunConfig) -> int:
    checks, table = _fock_suite(cfg)
    tol = cfg.tolerances["displacement"]
    all_passed = all(dev <= t for _, dev, t in checks)
    if cfg.out_format == "json":
        _write_json(cfg.out_path, {
            "checks": [{"name": name, "deviation": dev, "tolerance": t,
                        "passed": dev <= t} for name, dev, t in checks],
            "convergence": [{"cap": cap, "deviation": dev,
                             "flagged": dev > tol} for cap, dev in table],
            "passed": all_passed,
        })
    else:
        rows = [[name, _fmt(dev), _fmt(t), str(dev <= t).lower()]
                for name, dev, t in checks]
        rows.extend([f"displacement_cap_{cap}", _fmt(dev), _fmt(tol),
                     str(dev <= tol).lower()] for cap, dev in table)
        _write_csv(cfg.out_path,
                   ["check", "deviation", "tolerance", "passed"], rows)
    return EXIT_OK if all_passed else EXIT_VERIFY


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="softphoton",
        description="soft-photon radiative corrections in two gauges")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("corrections", "emission", "gauge-check", "fock-verify"):
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("config")
        if name == "emission":
            p.add_argument("photons", help="photon spec JSON file")
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--Lambda", dest="Lam", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    return parser


_VALUE_FLAGS = ("--lambda", "--Lambda", "--seed", "--out")


def _joined(argv) -> list:
    """argv with each override flag joined to its value: ``--flag=value``.

    argparse reads a separate value that starts with '-' and is not a plain
    decimal (``-inf``, ``-1e-3``) as a flag, not as the value.
    """
    out, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg in _VALUE_FLAGS else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(_joined(sys.argv[1:] if argv is None
                                        else argv))
    try:
        cfg = load_config(args.config, lam=args.lam, Lam=args.Lam,
                          seed=args.seed, out=args.out)
        if args.command == "corrections":
            return cmd_corrections(cfg)
        if args.command == "emission":
            return cmd_emission(cfg, args.photons)
        if args.command == "gauge-check":
            return cmd_gauge_check(cfg)
        return cmd_fock_verify(cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FockTruncationError, RuntimeError, FloatingPointError,
            OverflowError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
