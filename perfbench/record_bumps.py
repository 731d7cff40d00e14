"""Record the continuum-emission references in bump_reference.json.

Continuum (``bump``) emission factors have no closed form, so the emission
workload checks them against values this script recorded from the program.
A bump photon enters the factor antilinearly through its constant
polarization ``components`` and linearly through the charge, so one factor
per unit component at charge 1 (the "basis") gives the reference for any
components and charge the workload seed draws:

    factor = charge * sum_c conj(components_c) * basis_c.

Run from the repository root, once, on the commit whose numbers are the
reference:

    python3 perfbench/record_bumps.py

It takes a few minutes and rewrites perfbench/bump_reference.json.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# (id, model, gauge, form factor, window, legs, centre, width)
BN_LEGS = [((0.1, 0.0, 0.0), (0.0, 0.2, 0.4))]
DIPOLE_LEGS = [((0.1, 0.0, 0.0), (0.0, 0.2, 0.3), 1.0),
               ((0.0, 0.5, -0.2), (0.4, 0.0, 0.6), 2.0),
               ((-0.3, 0.1, 0.0), (0.2, 0.2, 0.2), 1.5)]
SHARP = {"kind": "sharp", "params": {"lam": 0.05, "Lam": 5.0}}
GAUSS = {"kind": "gaussian", "params": {"sigma": 0.7}}

CATALOGUE = [
    ("fgb_bn_a", "BN", "FGB", SHARP, (0.2, 1.0), 0, 0.6, 0.2),
    ("fgb_dip_a", "dipole", "FGB", SHARP, (0.2, 1.0), 0, 0.6, 0.4),
    ("fgb_dip_b", "dipole", "FGB", GAUSS, (0.4, 0.8), 1, 0.6, 0.2),
    ("fgb_dip_d", "dipole", "FGB", SHARP, (0.25, 0.9), 1, 0.4, 0.3),
    ("coul_dip_b", "dipole", "Coulomb", SHARP, (0.2, 1.0), 2, 0.55, 0.4),
]


def geometry_config(model, gauge, ff, win, legs) -> dict:
    if model == "BN":
        u_in, u_out = BN_LEGS[legs]
        kin = {"u_in": list(u_in), "u_out": list(u_out)}
    else:
        p_in, p_out, mass = DIPOLE_LEGS[legs]
        kin = {"p_in": list(p_in), "p_out": list(p_out), "mass": mass}
    return {"model": model, "gauge": gauge, "form_factor": ff,
            "kinematics": kin,
            "window": {"lambda": win[0], "Lambda": win[1]}}


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from softphoton.cli import main as cli_main

    out = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        for cid, model, gauge, ff, win, legs, centre, width in CATALOGUE:
            cfg = geometry_config(model, gauge, ff, win, legs)
            cfg_run = json.loads(json.dumps(cfg))
            cfg_run["kinematics"]["charge"] = 1.0
            (tmp / "c.json").write_text(json.dumps(cfg_run))
            n = 4 if gauge == "FGB" else 3
            basis = []
            t0 = time.perf_counter()
            for c in range(n):
                comps = [1.0 if i == c else 0.0 for i in range(n)]
                (tmp / "p.json").write_text(json.dumps(
                    [{"type": "bump", "center": centre, "width": width,
                      "components": comps}]))
                rc = cli_main(["emission", str(tmp / "c.json"),
                               str(tmp / "p.json"), "--out",
                               str(tmp / "o.json")])
                if rc != 0:
                    raise SystemExit(f"{cid}: emission exited {rc}")
                f = json.loads((tmp / "o.json").read_text())
                f = f["emission_factors"][0]
                basis.append([f["re"], f["im"]])
            seconds = (time.perf_counter() - t0) / n
            out[cid] = {"config": cfg, "center": centre, "width": width,
                        "basis": basis, "seconds_per_photon": round(seconds, 2)}
            print(f"{cid}: {seconds:.2f} s per photon", flush=True)
    (HERE / "bump_reference.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
