"""One workload process: run a job list through softphoton.cli.main.

Started by run.py in a fresh interpreter as

    python3 perfbench/worker.py <task.json>

The task names the checkout root, the job list, the mode and where to write
the result.  Modes:

``timed``   closed loop, one client: the job list repeated end to end
            for ``count`` jobs (run.py sizes ``count`` as whole passes
            scaled from ``--seconds``, so every run of a seed runs the same
            jobs);
``pass``    exactly one pass, untraced;
``traced``  exactly one pass with the tracer installed.

Each job calls ``cli.main(argv)`` in this process.  Its latency covers
config parsing, compute and report writing.  Reports are read back after
the clock stops and checked against perfbench/reference.py once the loop
is over, so checking never enters a timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def load_program(root: Path):
    """Import softphoton.cli from the checkout's src/, nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import softphoton.cli as cli

    origin = Path(cli.__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"softphoton imported from {origin}, not {src}")
    return cli


def argv_for(job: dict, jobdir: Path) -> list:
    stem = jobdir / str(job["id"])
    argv = [job["cmd"], f"{stem}.config.json"]
    if job["cmd"] == "emission":
        argv.append(f"{stem}.photons.json")
    return argv + ["--out", f"{stem}.out"]


def run_pass(main, jobs, argvs, outs, records, tracer=None):
    """Run jobs in order."""
    for job, argv, out in zip(jobs, argvs, outs):
        if tracer is not None:
            tracer.job = job["id"]
        err = io.StringIO()
        error = None
        rc = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback: counted as a failed job
            error = type(exc).__name__
        latency = perf_counter() - t0
        try:
            text = out.read_text(encoding="utf-8")
            out.unlink()
        except FileNotFoundError:
            text = None
        records.append({"id": job["id"], "latency": latency, "rc": rc,
                        "error": error, "text": text,
                        "stderr": err.getvalue()[:300]})


def main() -> int:
    task = json.loads(Path(sys.argv[1]).read_text())
    root = Path(task["root"])
    jobdir = Path(task["jobdir"])
    cli = load_program(root)
    sys.path.insert(0, str(HERE))
    import reference
    from tracer import Tracer

    jobs = json.loads((jobdir / "jobs.json").read_text())
    bumps = json.loads((HERE / "bump_reference.json").read_text())
    argvs = [argv_for(j, jobdir) for j in jobs]
    outs = [Path(a[-1]) for a in argvs]
    records = []
    tracer = None
    entry = cli.main
    if task["mode"] == "traced":
        import mpmath
        import scipy.linalg
        from softphoton import core, currents, fock, gauge, quadrature, smatrix

        tracer = Tracer()
        tracer.install({"cli": cli, "smatrix": smatrix,
                        "quadrature": quadrature, "currents": currents,
                        "core": core, "gauge": gauge, "fock": fock,
                        "scipy.linalg": scipy.linalg, "mpmath": mpmath})
        entry = tracer.wrap("cli.main", cli.main)

    if task["mode"] == "timed":
        reps = -(-task["count"] // len(jobs))
        jobs, argvs, outs = ((xs * reps)[:task["count"]]
                             for xs in (jobs, argvs, outs))
    t0 = perf_counter()
    run_pass(entry, jobs, argvs, outs, records, tracer)
    wall = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        tracer.counts["cli.rejected.count"] = sum(
            r["rc"] == 2 for r in records)
        tracer.counts["cli.uncaught.count"] = sum(
            r["error"] is not None for r in records)
        layers = tracer.layer_metrics()
        tracer.write_jsonl(task["trace_file"])

    by_id = {j["id"]: j for j in jobs}
    verdicts = []
    for r in records:
        reason = reference.check_job(by_id[r["id"]], r["rc"], r["error"],
                                     r["text"], bumps)
        verdicts.append({"id": r["id"], "latency": r["latency"],
                         "rc": r["rc"], "reason": reason,
                         "stderr": r["stderr"] if reason else ""})

    import mpmath
    import numpy
    import scipy

    result = {"wall_s": wall,
              "peak_rss_mb": peak_rss_mb, "jobs": verdicts, "layers": layers,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__,
                           "mpmath": mpmath.__version__}}
    Path(task["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
