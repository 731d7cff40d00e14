"""Run a fixed corpus of benchmark jobs through softphoton.cli.main.

The corpus is the seed-1 job list of four benchmark workloads
(perfbench/workloads.py): every 10th ``exponents`` job, all ``luminal`` and
``fock`` jobs and the ``emission`` jobs without a continuum bump.  Each job
runs in this process.  Two things are recorded per job:

* the verdict of perfbench/reference.py, which imports no softphoton;
* the exit code, the sha256 of the report bytes and the stderr text.

The second set is compared against ``data/benchmark_digests.json``, which
also names the python and numpy versions that made it.  Both perfbench
modules are imported by path and used unchanged.

    python tests/benchmark_corpus.py             # print the run as JSON
    python tests/benchmark_corpus.py --write     # regenerate the digest file
    python tests/benchmark_corpus.py --diff REV  # jobs whose bytes moved

``--diff`` checks REV out into a temporary ``git worktree`` (removed
afterwards), runs REV's own copy of this file there, and prints each job
whose exit code, report digest or stderr differs from this tree's run,
then their count.

reference.py imports scipy, so tier-1 runs this file in a subprocess
(tests/test_cli.py) to keep scipy out of the test process.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
DIGESTS = Path(__file__).resolve().parent / "data" / "benchmark_digests.json"
SEED = 1


def _load(name: str):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpus(workloads) -> list:
    """(workload, job) pairs of the corpus, in run order."""
    picks = {
        "exponents": lambda jobs: jobs[::10],
        "luminal": lambda jobs: jobs,
        "fock": lambda jobs: jobs,
        "emission": lambda jobs: [j for j in jobs
                                  if not j["template"].startswith("bump_")],
    }
    return [(name, job) for name, pick in picks.items()
            for job in pick(workloads.make_jobs(name, SEED))]


def run(main, workdir: Path, name: str, job: dict) -> tuple:
    """Write a job's inputs and run it.

    Returns the exit code, the name of an exception that escaped, the report
    bytes and stderr, with the job directory written as <dir>.
    """
    stem = workdir / f"{name}-{job['id']}"
    argv = [job["cmd"], f"{stem}.config.json"]
    Path(argv[1]).write_text(json.dumps(job["config"]), encoding="utf-8")
    if job["cmd"] == "emission":
        argv.append(f"{stem}.photons.json")
        Path(argv[2]).write_text(json.dumps(job["photons"]), encoding="utf-8")
    out = Path(f"{stem}.out")
    err = io.StringIO()
    rc = error = None
    with contextlib.redirect_stderr(err):
        try:
            rc = main(argv + ["--out", str(out)])
        except Exception as exc:  # a traceback: the reference reports it
            error = type(exc).__name__
    report = out.read_bytes() if out.exists() else None
    return rc, error, report, err.getvalue().replace(str(workdir), "<dir>")


def collect() -> dict:
    """Run the corpus in this process: versions, per-job digests, failures."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from softphoton.cli import main as cli_main

    workloads, reference = _load("workloads"), _load("reference")
    bumps = json.loads((PERFBENCH / "bump_reference.json").read_text())
    digests, failures = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for name, job in corpus(workloads):
            rc, error, report, stderr = run(cli_main, Path(tmp), name, job)
            text = None if report is None else report.decode("utf-8")
            reason = reference.check_job(job, rc, error, text, bumps)
            if reason is not None:
                failures.append(f"{name} job {job['id']}: {reason}")
            digests[f"{name}:{job['id']}"] = [
                rc, None if report is None
                else hashlib.sha256(report).hexdigest(), stderr]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "jobs": digests, "failures": failures}


def run_at(rev: str) -> dict:
    """``collect()`` of commit REV, run from a temporary git worktree."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        git = ["git", "-C", str(ROOT), "worktree"]
        subprocess.run([*git, "add", "--detach", str(tree), rev], check=True)
        try:
            proc = subprocess.run(
                [sys.executable, str(tree / "tests" / "benchmark_corpus.py")],
                capture_output=True, text=True)
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], check=True)
    if proc.returncode != 0:
        raise SystemExit(f"the corpus at {rev} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def moved(old: dict, new: dict) -> list:
    """One line per job whose [exit code, digest, stderr] differs."""
    fields = ("exit code", "report digest", "stderr")
    lines = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in {'REV' if b is None else 'tree'}")
        elif a != b:
            what = ", ".join(f for f, x, y in zip(fields, a, b) if x != y)
            lines.append(f"{key}: {what}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "--diff":
        lines = moved(run_at(argv[1])["jobs"], collect()["jobs"])
        print("\n".join([*lines, f"{len(lines)} jobs differ from {argv[1]}"]))
        return 0
    result = collect()
    if argv == ["--write"]:
        # one line per job, so a regenerated file diffs job by job
        rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(val)}"
                          for key, val in result["jobs"].items())
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(
            f'{{"python": {json.dumps(result["python"])}, '
            f'"numpy": {json.dumps(result["numpy"])},\n'
            f' "jobs": {{\n{rows}\n}}}}\n', encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
