"""End-to-end CLI behavior: configs, outputs, exit codes, determinism."""

import contextlib
import importlib.util
import io
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softphoton.cli import main
from softphoton.fock import ModeGrid

BASE = {
    "model": "BN",
    "gauge": ["FGB", "Coulomb"],
    "form_factor": {"kind": "sharp", "params": {"lam": 0.1, "Lam": 1.0}},
    "kinematics": {"charge": 0.3, "u_in": [0.0, 0.0, 0.0],
                   "u_out": [0.0, 0.0, 0.5]},
    "window": {"lambda": 0.1, "Lambda": 1.0},
    "seed": 7,
}

DIPOLE_KIN = {"charge": 0.3, "p_in": [0.0, 0.0, 0.0],
              "p_out": [0.0, 0.0, 0.1], "mass": 1.0}


def write_config(tmp_path, name="config.json", **overrides):
    doc = json.loads(json.dumps(BASE))
    doc.setdefault("output", {"format": "json",
                              "path": str(tmp_path / "report.json")})
    for key, val in overrides.items():
        if val is None:
            doc.pop(key, None)
        else:
            doc[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path, doc["output"]["path"]


class TestCorrections:
    def test_json_report_bn(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["corrections", str(cfg)]) == 0
        doc = json.loads(open(out).read())
        assert set(doc["gauges"]) == {"FGB", "Coulomb"}
        assert doc["log_ratio"] == pytest.approx(1.0, abs=1e-8)
        for gauge in ("FGB", "Coulomb"):
            vac = doc["gauges"][gauge]["vacuum_amplitude"]
            assert 0.0 < vac["re"] < 1.0
            assert vac["im"] == 0.0

    def test_degenerate_vacuum_is_one(self, tmp_path):
        kin = {"charge": 0.3, "u_in": [0.0, 0.0, 0.4],
               "u_out": [0.0, 0.0, 0.4]}
        cfg, out = write_config(tmp_path, kinematics=kin)
        assert main(["corrections", str(cfg)]) == 0
        doc = json.loads(open(out).read())
        for gauge in ("FGB", "Coulomb"):
            assert doc["gauges"][gauge]["vacuum_amplitude"]["re"] == \
                pytest.approx(1.0, abs=1e-10)

    def test_dipole_ratio(self, tmp_path):
        cfg, out = write_config(tmp_path, model="dipole",
                                kinematics=DIPOLE_KIN)
        assert main(["corrections", str(cfg)]) == 0
        doc = json.loads(open(out).read())
        assert doc["log_ratio"] == pytest.approx(1.5, abs=1e-8)

    def test_small_charge_dipole_ratio(self, tmp_path):
        kin = dict(DIPOLE_KIN, charge=1e-6)
        cfg, out = write_config(tmp_path, model="dipole", kinematics=kin)
        assert main(["corrections", str(cfg)]) == 0
        doc = json.loads(open(out).read())
        assert doc["log_ratio"] == pytest.approx(1.5, abs=1e-8)

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg, _ = write_config(tmp_path, output={"format": "csv",
                                                "path": str(out)})
        assert main(["corrections", str(cfg)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        lines = raw.decode().splitlines()
        assert lines[0] == "gauge,m_total,vacuum_amplitude,gamma_cross," \
                           "b_ir_in,b_ir_out"
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] in ("FGB", "Coulomb")
            assert all(np.isfinite(float(c)) for c in cells[1:])

    def test_ledger_section(self, tmp_path):
        kin = {"charge": 0.3, "u_in": [0.0, 0.0, 0.0],
               "u_out": [0.0, 0.0, 0.0]}
        cfg, out = write_config(tmp_path, kinematics=kin,
                                epsilon_ladder=[1e-1, 1e-2, 1e-3])
        assert main(["corrections", str(cfg)]) == 0
        doc = json.loads(open(out).read())
        for leg in ("in", "out"):
            ledger = doc["ledger"][leg]
            assert ledger["relative_error"] < 1e-4
            assert len(ledger["rows"]) == 3

    def test_window_override(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["corrections", str(cfg), "--lambda", "0.2"]) == 0
        doc = json.loads(open(out).read())
        assert doc["window"]["lambda"] == 0.2


class TestConfigErrors:
    def test_superluminal_velocity(self, tmp_path):
        kin = {"charge": 0.3, "u_in": [0.0, 0.0, 0.0],
               "u_out": [0.0, 0.0, 1.2]}
        cfg, _ = write_config(tmp_path, kinematics=kin)
        assert main(["corrections", str(cfg)]) == 2

    def test_unknown_model(self, tmp_path):
        cfg, _ = write_config(tmp_path, model="scalar")
        assert main(["corrections", str(cfg)]) == 2

    def test_missing_key(self, tmp_path):
        cfg, _ = write_config(tmp_path, kinematics={"charge": 0.3})
        assert main(["corrections", str(cfg)]) == 2

    def test_missing_key_is_named(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, window={"lambda": 0.1})
        assert main(["corrections", str(cfg)]) == 2
        assert "missing field 'Lambda'" in capsys.readouterr().err

    def test_overflowing_charge_exit3(self, tmp_path, capsys):
        kin = dict(BASE["kinematics"], charge=1e200)
        cfg, _ = write_config(tmp_path, kinematics=kin)
        assert main(["corrections", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure:")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["corrections", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["corrections", str(tmp_path / "absent.json")]) == 2

    def test_bad_output_format(self, tmp_path):
        cfg, _ = write_config(tmp_path, output={"format": "xml",
                                                "path": "x"})
        assert main(["corrections", str(cfg)]) == 2

    def test_unknown_tolerance(self, tmp_path):
        cfg, _ = write_config(tmp_path, tolerances={"typo": 1e-3})
        assert main(["corrections", str(cfg)]) == 2

    def test_bad_window(self, tmp_path):
        cfg, _ = write_config(tmp_path, window={"lambda": 1.0,
                                                "Lambda": 0.1})
        assert main(["corrections", str(cfg)]) == 2

    @pytest.mark.parametrize("section", ["fock", "output", "tolerances",
                                         "window", "kinematics",
                                         "form_factor"])
    @pytest.mark.parametrize("value", [5, "yes", [1, 2], None])
    @pytest.mark.parametrize("command", ["corrections", "fock-verify"])
    def test_section_of_wrong_type(self, tmp_path, capsys, section, value,
                                   command):
        path = tmp_path / "config.json"
        doc = dict(BASE, output={"format": "json",
                                 "path": str(tmp_path / "r.json")})
        doc[section] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, str(path)]) == 2
        assert f"section {section!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("where", [(), ("window",), ("kinematics",),
                                       ("form_factor",),
                                       ("form_factor", "params"), ("fock",),
                                       ("output",)])
    def test_unknown_key(self, tmp_path, capsys, where):
        doc = json.loads(json.dumps(BASE))
        doc["output"] = {"format": "json", "path": str(tmp_path / "r.json")}
        doc["fock"] = {"nodes": 1, "cap": 3}
        node = doc
        for key in where:
            node = node[key]
        node["verbose"] = 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["corrections", str(path)]) == 2
        assert "verbose" in capsys.readouterr().err

    @staticmethod
    def config_with(tmp_path, key, value):
        # write_config drops None values; this one writes any value
        cfg, _ = write_config(tmp_path, lambda_sweep=[0.2, 0.5])
        doc = json.loads(cfg.read_text())
        doc[key] = value
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        return cfg

    @pytest.mark.parametrize("ladder", [
        [0.1, 0.2], [1e-3, 1e-3], [0], [-1], [float("nan")], [float("inf")],
        ["0.1"], [True], "heavy", None, {"value": 0.3}])
    def test_malformed_ladder_exit2(self, tmp_path, capsys, ladder):
        cfg = self.config_with(tmp_path, "epsilon_ladder", ladder)
        assert main(["corrections", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command,section,value", [
        ("fock-verify", "tolerances", {"bch": float("nan")}),
        ("fock-verify", "tolerances", {"weyl": float("inf")}),
        ("fock-verify", "tolerances", {"ccr": 0.0}),
        ("fock-verify", "tolerances", {"ccr": -1e-9}),
        ("fock-verify", "tolerances", {"ccr": "1e-9"}),
        ("fock-verify", "tolerances", {"ccr": True}),
        ("corrections", "kinematics", dict(BASE["kinematics"], charge=True)),
        ("corrections", "kinematics", dict(BASE["kinematics"], charge="0.3")),
        ("gauge-check", "seed", 1.5),
        ("gauge-check", "seed", True),
        ("gauge-check", "seed", -1),
        ("fock-verify", "fock", {"nodes": 1.7}),
        ("fock-verify", "fock", {"nodes": True}),
        ("fock-verify", "fock", {"cap": 5.0}),
        ("fock-verify", "fock", {"cap": "5"})])
    def test_unchecked_numbers_exit2(self, tmp_path, capsys, command,
                                     section, value):
        cfg = self.config_with(tmp_path, section, value)
        assert main([command, str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command", ["corrections", "emission",
                                         "gauge-check", "fock-verify"])
    @pytest.mark.parametrize("key,value", [
        ("lambda_sweep", [float("nan")]), ("lambda_sweep", [True]),
        ("lambda_sweep", [0.2, float("inf")]), ("lambda_sweep", ["0.2"]),
        ("lambda_sweep", 0.2), ("output", {"path": 5}),
        ("output", {"path": ""}), ("output", {"path": ["r.json"]}),
        ("gauge", ["FGB", "FGB"]), ("gauge", ["Coulomb", "FGB", "Coulomb"])])
    def test_whole_document_checked_on_every_subcommand(
            self, tmp_path, capsys, monkeypatch, command, key, value):
        monkeypatch.chdir(tmp_path)  # a numeric path must write no file
        cfg = self.config_with(tmp_path, key, value)
        argv = [command, str(cfg)]
        if command == "emission":
            photons = tmp_path / "photons.json"
            photons.write_text("[]", encoding="utf-8")
            argv.append(str(photons))
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["config.json"] + (["photons.json"] if command == "emission"
                               else []))

    def test_output_path_checked_with_out_flag(self, tmp_path, capsys):
        cfg = self.config_with(tmp_path, "output", {"path": 5})
        out = tmp_path / "flag.json"
        assert main(["corrections", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_negative_seed_flag_exit2(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, lambda_sweep=[0.2, 0.5])
        assert main(["gauge-check", str(cfg), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_known_sections_accepted(self, tmp_path):
        # sections a subcommand does not use stay allowed
        cfg, out = write_config(tmp_path, fock={"nodes": 1, "cap": 3},
                                tolerances={"bch": 1e-9},
                                epsilon_ladder=[0.1, 0.01],
                                lambda_sweep=[0.1, 0.3])
        assert main(["corrections", str(cfg)]) == 0


class TestDeterminism:
    def test_corrections_byte_identical(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["corrections", str(cfg), "--out", str(a)]) == 0
        assert main(["corrections", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gauge_check_byte_identical(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg, _ = write_config(tmp_path, lambda_sweep=[0.1, 0.3],
                              output={"format": "csv", "path": str(out)})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gauge-check", str(cfg), "--out", str(a)]) == 0
        assert main(["gauge-check", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fock_verify_byte_identical(self, tmp_path):
        out = tmp_path / "fv.csv"
        cfg, _ = write_config(tmp_path, gauge="Coulomb",
                              fock={"nodes": 2, "cap": 4},
                              output={"format": "csv", "path": str(out)})
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "softphoton.cli", "fock-verify",
                 str(cfg)], capture_output=True)
            assert proc.returncode == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]

    def test_cli_import_leaves_out_mpmath(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, softphoton.cli; "
             "assert 'mpmath' not in sys.modules"], capture_output=True)
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_leaves_out_scipy_special(self):
        # the gaussian radial moments use math.erf and a local E1
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, softphoton.cli; "
             "assert 'scipy.special' not in sys.modules"],
            capture_output=True)
        assert proc.returncode == 0, proc.stderr

    def test_module_entry_point(self, tmp_path):
        cfg, out = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "softphoton.cli", "corrections",
             str(cfg)], capture_output=True)
        assert proc.returncode == 0
        assert json.loads(open(out).read())["model"] == "BN"


class TestGaugeCheck:
    def test_bn_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg, _ = write_config(tmp_path, lambda_sweep=[0.1, 0.2, 0.5],
                              output={"format": "csv", "path": str(out)})
        assert main(["gauge-check", str(cfg)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,m_fgb,m_coul,log_ratio," \
                           "conservation_residual"
        assert len(lines) == 4
        for line in lines[1:]:
            cells = [float(c) for c in line.split(",")]
            assert cells[3] == pytest.approx(1.0, abs=1e-8)
            assert cells[4] < 1e-13

    def test_dipole_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg, _ = write_config(tmp_path, model="dipole",
                              kinematics=DIPOLE_KIN,
                              lambda_sweep=[0.1, 0.3],
                              output={"format": "csv", "path": str(out)})
        assert main(["gauge-check", str(cfg)]) == 0
        for line in out.read_text().splitlines()[1:]:
            cells = [float(c) for c in line.split(",")]
            assert cells[3] == pytest.approx(1.5, abs=1e-8)
            assert cells[4] > 1e-8

    def test_small_charge_dipole_sweep(self, tmp_path):
        kin = dict(DIPOLE_KIN, charge=1e-6)
        cfg, out = write_config(tmp_path, model="dipole", kinematics=kin,
                                lambda_sweep=[0.1, 0.3])
        assert main(["gauge-check", str(cfg)]) == 0
        for row in json.loads(open(out).read())["sweep"]:
            assert row["degenerate"] is False
            assert row["log_ratio"] == pytest.approx(1.5, abs=1e-8)

    def test_empty_sweep_exit2(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        assert main(["gauge-check", str(cfg)]) == 2

    def test_sweep_outside_window_exit2(self, tmp_path):
        cfg, _ = write_config(tmp_path, lambda_sweep=[0.1, 1.5])
        assert main(["gauge-check", str(cfg)]) == 2


class TestEmission:
    def write_photons(self, tmp_path, payload, name="photons.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_empty_list_vacuum_only(self, tmp_path):
        cfg, out = write_config(tmp_path, gauge="FGB")
        photons = self.write_photons(tmp_path, [])
        assert main(["emission", str(cfg), str(photons)]) == 0
        doc = json.loads(open(out).read())
        assert doc["emission_factors"] == []
        assert doc["total"] == doc["vacuum_amplitude"]

    def test_pure_gauge_bn_zero_factor(self, tmp_path):
        cfg, out = write_config(tmp_path, gauge="FGB",
                                fock={"nodes": 2, "cap": 3})
        photons = self.write_photons(
            tmp_path, [{"type": "pure_gauge", "h": [1.0, [0.5, -0.25]]}])
        assert main(["emission", str(cfg), str(photons)]) == 0
        doc = json.loads(open(out).read())
        factor = doc["emission_factors"][0]
        assert abs(complex(factor["re"], factor["im"])) < 1e-13

    def test_oracle_agreement_column(self, tmp_path):
        cfg, out = write_config(tmp_path, gauge="Coulomb",
                                fock={"nodes": 1, "cap": 7})
        values = [[[0.4, -0.2], [0.1, 0.3], [0.0, 0.1]]]
        photons = self.write_photons(
            tmp_path, {"photons": [{"type": "grid", "values": values}],
                       "oracle": True})
        assert main(["emission", str(cfg), str(photons)]) == 0
        doc = json.loads(open(out).read())
        oracle = complex(doc["oracle"]["value"]["re"],
                         doc["oracle"]["value"]["im"])
        grid_total = complex(doc["oracle"]["grid_total"]["re"],
                             doc["oracle"]["grid_total"]["im"])
        assert oracle == pytest.approx(grid_total, rel=1e-6)
        assert doc["oracle"]["dim"] == 64

    def test_bump_photon(self, tmp_path):
        cfg, out = write_config(tmp_path, gauge="FGB")
        photons = self.write_photons(
            tmp_path, [{"type": "bump", "center": 0.5, "width": 0.15,
                        "components": [0.0, 1.0, [0.0, 0.5], 0.3]}])
        assert main(["emission", str(cfg), str(photons)]) == 0
        doc = json.loads(open(out).read())
        factor = doc["emission_factors"][0]
        assert abs(complex(factor["re"], factor["im"])) > 1e-6

    def test_oracle_rejects_bump(self, tmp_path):
        cfg, _ = write_config(tmp_path, gauge="FGB")
        photons = self.write_photons(
            tmp_path, {"photons": [{"type": "bump", "center": 0.5,
                                    "width": 0.1,
                                    "components": [0, 1, 0, 0]}],
                       "oracle": True})
        assert main(["emission", str(cfg), str(photons)]) == 2

    def test_csv_output(self, tmp_path):
        out = tmp_path / "emission.csv"
        cfg, _ = write_config(tmp_path, gauge="Coulomb",
                              fock={"nodes": 1, "cap": 5},
                              output={"format": "csv", "path": str(out)})
        values = [[[0.4, -0.2], [0.1, 0.3], [0.0, 0.1]]]
        photons = self.write_photons(
            tmp_path, [{"type": "grid", "values": values}])
        assert main(["emission", str(cfg), str(photons)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "photon,factor_re,factor_im,oracle_re,oracle_im"
        assert lines[-1].startswith("total,")

    def test_bad_photon_entry(self, tmp_path):
        cfg, _ = write_config(tmp_path, gauge="FGB")
        photons = self.write_photons(tmp_path, [{"type": "mystery"}])
        assert main(["emission", str(cfg), str(photons)]) == 2

    def test_pure_gauge_needs_fgb(self, tmp_path):
        cfg, _ = write_config(tmp_path, gauge="Coulomb")
        photons = self.write_photons(
            tmp_path, [{"type": "pure_gauge", "h": [1.0]}])
        assert main(["emission", str(cfg), str(photons)]) == 2

    GRID_FGB = [[1.0, 0.0, [0.0, 0.5], 0.2]]
    BUMP = {"type": "bump", "center": 0.5, "width": 0.1,
            "components": [0, 1, 0, 0]}

    @pytest.mark.parametrize("payload, needle", [
        ({"photon": [{"type": "grid", "values": GRID_FGB}]},
         "key(s): photon"),
        ({"photons": [], "extra": 1}, "key(s): extra"),
        ([{"type": "grid", "values": GRID_FGB, "weight": 2}],
         "key(s): weight"),
        ([dict(BUMP, colour="red")], "key(s): colour"),
        ({"photons": [{"type": "grid", "values": GRID_FGB}],
          "oracle": "no"}, "oracle"),
        ({"photons": [{"type": "grid", "values": GRID_FGB}],
          "oracle": 1}, "oracle"),
        ([{"type": "bump", "width": 0.1, "components": [0, 1, 0, 0]}],
         "'center'"),
        ([{"type": "grid"}], "'values'"),
        ([{"type": "pure_gauge"}], "'h'"),
        ([{k: v for k, v in BUMP.items() if k != "width"}], "'width'"),
        ([{"type": "grid", "values": "abc"}], "node rows"),
        ([{"type": "grid", "values": [1.0]}], "components"),
        ([{"type": "grid", "values": [[1, 2, "x", 4]]}], "complex"),
        ([{"type": "pure_gauge", "h": 1.0}], "scalars"),
        ([dict(BUMP, center=[0.5])], "numbers"),
        ([dict(BUMP, components={"re": 1})], "components"),
        ([dict(BUMP, components=[0, [1, "i"], 0, 0])], "complex"),
        ({"photons": {"type": "grid"}}, "list"),
        (3.5, "photon spec"),
        (["grid"], "unknown photon entry"),
    ])
    def test_malformed_spec_exit2(self, tmp_path, capsys, payload, needle):
        cfg, out = write_config(tmp_path, gauge="FGB")
        photons = self.write_photons(tmp_path, payload)
        assert main(["emission", str(cfg), str(photons)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and needle in err
        assert not (tmp_path / "report.json").exists()

    def test_oracle_false_is_plain_run(self, tmp_path):
        cfg, out = write_config(tmp_path, gauge="FGB")
        photons = self.write_photons(
            tmp_path, {"photons": [{"type": "grid", "values": self.GRID_FGB}],
                       "oracle": False})
        assert main(["emission", str(cfg), str(photons)]) == 0
        doc = json.loads(open(out).read())
        assert "oracle" not in doc and len(doc["emission_factors"]) == 1


class TestFockVerify:
    def test_default_suite_passes(self, tmp_path):
        cfg, out = write_config(tmp_path, gauge="Coulomb")
        assert main(["fock-verify", str(cfg)]) == 0
        doc = json.loads(open(out).read())
        assert doc["passed"] is True
        names = [c["name"] for c in doc["checks"]]
        assert names == ["ccr", "bch", "weyl", "t_isometry", "displacement"]
        assert all(c["passed"] for c in doc["checks"])
        caps = [row["cap"] for row in doc["convergence"]]
        assert caps == [2, 4, 5]
        # cap-2 truncation is visible and flagged in the table
        assert doc["convergence"][0]["flagged"] is True
        devs = [row["deviation"] for row in doc["convergence"]]
        assert devs[0] > devs[1] > devs[2]

    def test_fgb_suite_passes(self, tmp_path):
        cfg, out = write_config(tmp_path, gauge="FGB",
                                fock={"nodes": 1, "cap": 4})
        assert main(["fock-verify", str(cfg)]) == 0
        doc = json.loads(open(out).read())
        assert doc["passed"] is True

    def test_low_cap_fails_exit1(self, tmp_path):
        cfg, out = write_config(tmp_path, gauge="Coulomb",
                                fock={"nodes": 1, "cap": 2})
        assert main(["fock-verify", str(cfg)]) == 1
        doc = json.loads(open(out).read())
        assert doc["passed"] is False
        failing = {c["name"]: c for c in doc["checks"]}
        assert failing["displacement"]["passed"] is False
        assert failing["displacement"]["deviation"] > 1e-8

    def test_oversized_grid_exit2(self, tmp_path):
        cfg, _ = write_config(tmp_path, gauge="FGB",
                              fock={"nodes": 3, "cap": 12})
        assert main(["fock-verify", str(cfg)]) == 2

    def test_csv_report(self, tmp_path):
        out = tmp_path / "suite.csv"
        cfg, _ = write_config(tmp_path, gauge="Coulomb",
                              output={"format": "csv", "path": str(out)})
        assert main(["fock-verify", str(cfg)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "check,deviation,tolerance,passed"
        assert any(line.startswith("displacement_cap_2,")
                   for line in lines[1:])


class TestParser:
    def test_successive_calls_share_no_state(self, tmp_path, capsys):
        # one parser serves every call: flags of one call must not leak
        cfg, out = write_config(tmp_path, lambda_sweep=[0.2, 0.4])
        moved = tmp_path / "moved.json"
        assert main(["corrections", str(cfg), "--lambda", "0.2",
                     "--out", str(moved)]) == 0
        assert json.loads(moved.read_text())["window"]["lambda"] == 0.2
        sweep = tmp_path / "sweep.json"
        assert main(["gauge-check", str(cfg), "--seed", "3",
                     "--out", str(sweep)]) == 0
        assert len(json.loads(sweep.read_text())["sweep"]) == 2
        assert main(["corrections", str(cfg)]) == 0
        assert json.loads(open(out).read())["window"]["lambda"] == 0.1
        photons = tmp_path / "photons.json"
        photons.write_text("[]", encoding="utf-8")
        assert main(["emission", str(cfg), str(photons), "--Lambda",
                     "0.9"]) == 0
        assert json.loads(open(out).read())["window"] == {"lambda": 0.1,
                                                          "Lambda": 0.9}

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["corrections"], ["emission", "c.json"],
        ["corrections", "c.json", "--lambda", "x"], ["--help"],
        ["gauge-check", "--help"],
    ])
    def test_usage_and_exit_code_unchanged(self, capsys, argv):
        # same text and exit status from the shared parser as from a fresh
        # one, and from a second call as from the first
        from softphoton import cli
        texts = []
        for fresh in (True, False, False):
            if fresh:
                cli._parser.cache_clear()
            with pytest.raises(SystemExit) as exc:
                main(argv)
            texts.append((exc.value.code, capsys.readouterr()))
        assert texts[0] == texts[1] == texts[2]
        assert texts[0][0] == (0 if "--help" in argv else 2)
        assert "usage: softphoton" in (texts[0][1].out + texts[0][1].err)


# ---------------------------------------------------------------------------
# Fock budget, import footprint and a fuzzed Fock contract

GRID_COULOMB = [[[0.4, -0.2], [0.1, 0.3], [0.0, 0.1]]]


def write_oracle_photons(tmp_path, values=GRID_COULOMB):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps({"photons": [{"type": "grid", "values": values}],
                                "oracle": True}), encoding="utf-8")
    return path


class TestFockBudget:
    @pytest.mark.parametrize("command", ["fock-verify", "emission"])
    def test_oversized_budget_rejected_before_the_grid(self, tmp_path, capsys,
                                                       command):
        # leggauss(10000) alone takes tens of seconds and ~1 GB
        cfg, _ = write_config(tmp_path, gauge="Coulomb",
                              fock={"nodes": 10000})
        argv = [command, str(cfg)]
        if command == "emission":
            argv.append(str(write_oracle_photons(tmp_path)))
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "6^20000 exceeds the dense budget 4608" in err
        assert len(err) < 200

    def test_budget_edge_accepted(self, tmp_path):
        # FGB 1 x 7: 8^4 = 4096 states, inside the budget
        cfg, out = write_config(tmp_path, gauge="FGB",
                                fock={"nodes": 1, "cap": 7})
        photons = write_oracle_photons(
            tmp_path, [[[0.4, -0.2], [0.1, 0.3], [0.0, 0.1], 0.2]])
        assert main(["emission", str(cfg), str(photons)]) == 0
        assert json.loads(open(out).read())["oracle"]["dim"] == 4096


class TestPhotonGrid:
    """The O(nodes^3) radial grid is built only after the rows are checked,
    and only for photons that live on it."""

    @pytest.fixture(autouse=True)
    def no_grid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ModeGrid.radial was built")
        monkeypatch.setattr(ModeGrid, "radial", refuse)

    def run(self, tmp_path, payload):
        cfg, out = write_config(tmp_path, gauge="FGB",
                                fock={"nodes": 2000})
        photons = tmp_path / "photons.json"
        photons.write_text(json.dumps(payload), encoding="utf-8")
        return main(["emission", str(cfg), str(photons)]), out

    def test_row_mismatch_exits_before_the_grid(self, tmp_path, capsys):
        rc, _ = self.run(tmp_path, [{"type": "grid",
                                     "values": [[1.0, 0.0, 0.0, 0.0]]}])
        assert rc == 2
        assert "grid photon needs 2000 node rows" in capsys.readouterr().err

    def test_pure_gauge_mismatch_exits_before_the_grid(self, tmp_path):
        rc, _ = self.run(tmp_path, [{"type": "pure_gauge", "h": [1.0]}])
        assert rc == 2

    def test_empty_spec_builds_no_grid(self, tmp_path):
        rc, out = self.run(tmp_path, [])
        assert rc == 0
        assert json.loads(open(out).read())["emission_factors"] == []

    def test_bump_only_spec_builds_no_grid(self, tmp_path):
        rc, out = self.run(tmp_path, [{"type": "bump", "center": 0.5,
                                       "width": 0.1,
                                       "components": [0, 1, 0, 0]}])
        assert rc == 0
        assert len(json.loads(open(out).read())["emission_factors"]) == 1


class TestOutOfRangeNumbers:
    def test_overlong_integer_is_a_config_error(self, tmp_path, capsys):
        # json refuses integers past 4300 digits with a plain ValueError
        cfg, _ = write_config(tmp_path)
        text = cfg.read_text().rstrip("}") + ', "seed": ' + "1" * 5000 + "}"
        cfg.write_text(text, encoding="utf-8")
        assert main(["corrections", str(cfg)]) == 2
        photons = tmp_path / "photons.json"
        photons.write_text("[" + "2" * 5000 + "]", encoding="utf-8")
        cfg, _ = write_config(tmp_path)
        assert main(["emission", str(cfg), str(photons)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_infinite_cap_is_a_config_error(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, fock={"nodes": 1,
                                              "cap": float("inf")})
        assert main(["fock-verify", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err


def test_cli_subcommands_never_load_scipy(tmp_path):
    # corrections, gauge-check, fock-verify in both gauges and an oracle
    # emission, all in one process that must end without scipy imported
    runs = []
    for gauge, cap in (("FGB", 4), ("Coulomb", 6)):
        cfg, _ = write_config(tmp_path, name=f"{gauge}.json", gauge=gauge,
                              lambda_sweep=[0.2, 0.5],
                              fock={"nodes": 1, "cap": cap},
                              output={"format": "json",
                                      "path": str(tmp_path / "out.json")})
        runs += [["corrections", str(cfg)], ["gauge-check", str(cfg)],
                 ["fock-verify", str(cfg)]]
    cfg, _ = write_config(tmp_path, name="oracle_cfg.json", gauge="Coulomb",
                          fock={"nodes": 1, "cap": 5})
    runs.append(["emission", str(cfg), str(write_oracle_photons(tmp_path))])
    code = ("import sys\nfrom softphoton.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "assert 'scipy' not in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


_JUNK = st.sampled_from([10000, 10 ** 30, 2.5, 1e300, float("inf"), -1, 0,
                         "3", "x", True, None, [1], {}])
_COMPONENT = st.one_of(st.floats(-1.0, 1.0),
                       st.tuples(st.floats(-1.0, 1.0),
                                 st.floats(-1.0, 1.0)).map(list))


def _mostly(valid, junk=_JUNK):
    """Valid values three times in four, so runs get past the parser."""
    return st.sampled_from([valid, valid, valid, junk]).flatmap(lambda s: s)


@st.composite
def _fock_documents(draw):
    """A config with fuzzed fock/tolerances/gauge and an oracle photon spec."""
    doc = json.loads(json.dumps(BASE))
    nodes = draw(_mostly(st.integers(1, 2)))
    cap = draw(_mostly(st.integers(1, 7)))
    fock = draw(_mostly(st.just({"nodes": nodes, "cap": cap}),
                        st.sampled_from([{"nodes": nodes}, {"cap": cap},
                                         {"cap": cap, "extra": 1}, None, [],
                                         "fock"])))
    if fock is not None:
        doc["fock"] = fock
    tolerance = _mostly(st.floats(1e-16, 1e-6),
                        st.sampled_from([0.0, -1.0, 1e300, "1e-9", None, []]))
    tols = draw(_mostly(
        st.dictionaries(st.sampled_from(["ccr", "bch", "weyl", "t_isometry",
                                         "displacement"]), tolerance,
                        max_size=3),
        st.sampled_from([{"bogus": 1e-9}, None, [], 1e-9])))
    if tols is not None:
        doc["tolerances"] = tols
    gauge = draw(_mostly(st.sampled_from(["FGB", "Coulomb",
                                          ["Coulomb", "FGB"]]),
                         st.sampled_from(["Lorenz", [], 3, None])))
    if gauge is not None:
        doc["gauge"] = gauge
    # grid photons shaped for the drawn gauge and nodes, or slightly not
    first = gauge[0] if isinstance(gauge, list) and gauge else gauge
    width = 4 if first == "FGB" else 3
    rows = nodes if isinstance(nodes, int) and 0 < nodes < 5 else 1
    grid = st.builds(
        lambda values: {"type": "grid", "values": values},
        _mostly(st.lists(st.lists(_COMPONENT, min_size=width,
                                  max_size=width),
                         min_size=rows, max_size=rows),
                st.lists(st.lists(st.one_of(_COMPONENT, _JUNK), max_size=5),
                         max_size=3)))
    pure_gauge = st.builds(lambda h: {"type": "pure_gauge", "h": h},
                           st.lists(_COMPONENT, min_size=rows,
                                    max_size=rows))
    entry = _mostly(st.one_of(grid, grid, pure_gauge),
                    st.sampled_from([{"type": "bump", "center": 0.5,
                                      "width": 0.1, "components": [0.0] * 4},
                                     {"type": "grid"}, {}, 7]))
    spec = {"photons": draw(st.lists(entry, min_size=1, max_size=2)),
            "oracle": draw(_mostly(st.just(True),
                                   st.sampled_from(["yes", 1, None])))}
    return doc, spec, draw(st.sampled_from(["fock-verify", "emission"]))


@settings(max_examples=100, deadline=None)
@given(case=_fock_documents())
def test_fuzzed_fock_contract(case):
    doc, spec, command = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "report.out"
        doc["output"] = {"format": "json", "path": str(out)}
        (tmp / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        (tmp / "photons.json").write_text(json.dumps(spec), encoding="utf-8")
        argv = [command, str(tmp / "config.json")]
        if command == "emission":
            argv.append(str(tmp / "photons.json"))
        results = []
        for _ in range(2):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(argv)
            assert rc in (0, 1, 2, 3), rc
            assert "Traceback" not in err.getvalue()
            results.append((rc, err.getvalue(),
                            out.read_bytes() if out.exists() else None))
            if out.exists():
                out.unlink()
        assert results[0] == results[1]


def test_perfbench_tracer_installs_on_live_modules(tmp_path):
    # perfbench/tracer.py patches module attributes by name; a name that
    # moves in src/ must fail here, not first in a traced benchmark run
    pytest.importorskip("mpmath")
    tracer_path = (Path(__file__).resolve().parents[1] / "perfbench"
                   / "tracer.py")
    cfg, _ = write_config(tmp_path, gauge="Coulomb",
                          fock={"nodes": 1, "cap": 5},
                          output={"format": "json",
                                  "path": str(tmp_path / "out.json")})
    runs = [["corrections", str(cfg)],
            ["emission", str(cfg), str(write_oracle_photons(tmp_path))],
            ["fock-verify", str(cfg)]]
    code = f"""
import importlib.util
import mpmath
import scipy.linalg
from softphoton import cli, core, currents, fock, gauge, quadrature, smatrix
spec = importlib.util.spec_from_file_location("tracer", {str(tracer_path)!r})
tracer_mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_mod)
modules = {{"cli": cli, "smatrix": smatrix, "quadrature": quadrature,
           "currents": currents, "core": core, "gauge": gauge, "fock": fock,
           "scipy.linalg": scipy.linalg, "mpmath": mpmath}}
before = {{(name, attr): getattr(mod, attr)
          for name, mod in modules.items() for attr in dir(mod)}}
tracer = tracer_mod.Tracer()
tracer.install(modules)
entry = tracer.wrap("cli.main", cli.main)
for argv in {runs!r}:
    assert entry(argv) == 0, argv
tracer.uninstall()
metrics = tracer.layer_metrics()
for name in ("cli.main", "smatrix.full_amplitude", "quadrature.m_exponent",
             "fock.emission_matrix_element", "fock.bch_check",
             "currents.current_on_shell"):
    assert metrics[name + ".calls"] > 0, name
after = {{(name, attr): getattr(mod, attr)
         for name, mod in modules.items() for attr in dir(mod)}}
assert all(after[key] is value for key, value in before.items()
           if key in after), "uninstall left a patch behind"
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


def test_benchmark_corpus_diff_lists_moved_jobs():
    # the comparison behind `benchmark_corpus.py --diff REV`
    path = Path(__file__).resolve().parent / "benchmark_corpus.py"
    spec = importlib.util.spec_from_file_location("benchmark_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    old = {"a:1": [0, "d1", ""], "a:2": [0, "d2", ""], "a:3": [2, None, "x"],
           "a:4": [0, "d4", ""]}
    new = {"a:1": [0, "d1", ""], "a:2": [0, "d9", ""], "a:3": [2, None, "y"],
           "a:5": [0, "d5", ""]}
    assert corpus.moved(old, new) == ["a:2: report digest", "a:3: stderr",
                                      "a:4: only in REV", "a:5: only in tree"]
    assert corpus.moved(old, old) == []


def test_benchmark_corpus_meets_reference_and_parent_bytes():
    # seed-1 benchmark jobs against perfbench/reference.py, and their exit
    # codes, report digests and stderr against the committed digest file
    runner = Path(__file__).resolve().parent / "benchmark_corpus.py"
    proc = subprocess.run([sys.executable, str(runner)], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    got = json.loads(proc.stdout)
    assert got["failures"] == [], got["failures"][:10]
    want = json.loads((runner.parent / "data" / "benchmark_digests.json")
                      .read_text(encoding="utf-8"))
    versions = {key: (got[key], want[key]) for key in ("python", "numpy")}
    assert all(a == b for a, b in versions.values()), (
        f"digests were made with other versions {versions}; regenerate them "
        f"with `python {runner} --write` on the last commit whose reports "
        f"are known good")
    moved = [key for key in want["jobs"]
             if got["jobs"].get(key) != want["jobs"][key]]
    assert got["jobs"].keys() == want["jobs"].keys()
    assert not moved, [(key, got["jobs"][key], want["jobs"][key])
                       for key in moved[:5]]
