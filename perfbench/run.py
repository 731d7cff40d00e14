"""Seeded end-to-end benchmark of softphoton CLI jobs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its src/.
The workload's jobs are drawn from the seed (perfbench/workloads.py) and
written as config and photon files under .perfbench/; a fresh worker
process then runs them in-process through softphoton.cli.main as a closed
loop with one client (perfbench/worker.py), and every job's exit code and
report are checked against perfbench/reference.py.  A timed run runs a
fixed number of whole passes, scaled from --seconds (workloads.RUN_PASSES),
so the same seed and seconds always run the same jobs.

--trace 0 prints the end-to-end metrics: setup_s, jobs_per_s, job_p50_s,
job_tail_s, ok_frac and peak_rss_mb.  --trace 1 runs one untraced and one
traced pass of the same job list, each in a fresh process, and prints the
per-layer metrics of the traced pass (perfbench/tracer.py) and the tracing
overhead.  Its work counts are kept under .perfbench/, and a later traced
run of the same seed and program fails if any count differs.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNT_UNITS, LAYER_METRICS  # noqa: E402
from workloads import (DEFECT_SYMPTOMS, REFERENCE_SECONDS,  # noqa: E402
                       RUN_PASSES, WORKLOADS, make_jobs)

SETUP_LAUNCHES = 5
BLAS_THREADS_MAX = 2
# whole run, all child processes included, must end well inside 180 s
BUDGET_S = 170.0
TAIL_BEYOND = 10
IMPORT_PACKAGES = ("softphoton", "numpy", "scipy", "mpmath")
IMPORT_CODE = ("import softphoton.cli; "
               "print(softphoton.cli.__file__, flush=True)")

END_TO_END = [("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("ok_frac", "fraction"),
              ("peak_rss_mb", "MB")]


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "softphoton").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.t0 = perf_counter()
        self.blas_threads = min(BLAS_THREADS_MAX, nproc())
        self.env = child_env(self.blas_threads)
        self.base = ROOT / ".perfbench"
        self.work = self.base / f"work-{workload}-{seed}-{os.getpid()}"
        self.jobs = make_jobs(workload, seed)
        # a fixed job count, not a deadline: the same seconds and seed give
        # the same jobs, so attempted and failed repeat exactly
        passes = RUN_PASSES[workload] * seconds / REFERENCE_SECONDS
        self.count = len(self.jobs) * max(1, round(passes))

    def remaining(self) -> float:
        left = BUDGET_S - (perf_counter() - self.t0)
        if left <= 1.0:
            raise BenchError("time budget exhausted")
        return left

    def write_jobs(self):
        self.work.mkdir(parents=True, exist_ok=True)
        for job in self.jobs:
            stem = self.work / str(job["id"])
            Path(f"{stem}.config.json").write_text(json.dumps(job["config"]))
            if job["photons"] is not None:
                Path(f"{stem}.photons.json").write_text(
                    json.dumps(job["photons"]))
        (self.work / "jobs.json").write_text(json.dumps(self.jobs))

    def launch(self, *flags) -> tuple:
        """Fresh interpreter importing softphoton.cli.

        Returns the seconds from launch until the import finished (the
        child prints the module path right after it) and the child's
        stderr.
        """
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, *flags, "-c", IMPORT_CODE],
                                cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL if not flags
                                else subprocess.PIPE)
        try:
            if flags:  # -X importtime fills stderr: drain both pipes
                out, err = proc.communicate(timeout=self.remaining())
                elapsed = perf_counter() - t0
            else:
                out = proc.stdout.readline()
                elapsed = perf_counter() - t0
                out += proc.communicate(timeout=self.remaining())[0]
                err = ""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        src = str((ROOT / "src").resolve())
        if proc.returncode != 0 or not out.startswith(src):
            raise BenchError(f"softphoton.cli did not import from {src}: "
                             f"{out.strip()} {err.strip()[-500:]}")
        return elapsed, err

    def setup_seconds(self) -> float:
        """Median launch time, after one untimed launch warms the caches."""
        self.launch()
        return statistics.median(self.launch()[0]
                                 for _ in range(SETUP_LAUNCHES))

    def import_times(self) -> dict:
        """Cumulative import time per package from one -X importtime run."""
        _, err = self.launch("-X", "importtime")
        totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
        own = 0.0
        stack = []  # (depth, package) of the enclosing imports
        rows = []
        for line in err.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if m:
                rows.append((int(m[1]), int(m[2]), len(m[3]), m[4]))
        # importtime prints children before their parent: walk backwards
        for self_us, cum_us, depth, name in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            pkg = name.split(".")[0]
            parent = stack[-1][1] if stack else None
            if pkg == "softphoton":
                own += self_us
            elif pkg in totals and parent != pkg:
                totals[pkg] += cum_us
            stack.append((depth, pkg))
        totals["softphoton"] = own
        return {f"setup.import.{k}_s": v / 1e6 for k, v in totals.items()}

    def worker(self, mode: str, tag: str) -> dict:
        result = self.work / f"result-{tag}.json"
        task = {"root": str(ROOT), "jobdir": str(self.work), "mode": mode,
                "count": self.count, "result": str(result),
                "trace_file": str(self.base / f"trace-{self.workload}-"
                                                f"{self.seed}-{tag}.jsonl")}
        task_path = self.work / f"task-{tag}.json"
        task_path.write_text(json.dumps(task))
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                                 str(task_path)], cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker exceeded the time budget")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not result.is_file():
            raise BenchError(f"{mode} worker exited {proc.returncode}: "
                             f"{(out + err).strip()[-2000:]}")
        return json.loads(result.read_text())


def tail(latencies: list) -> tuple:
    """Highest percentile with >= 10 jobs beyond it: (value, percentile)."""
    xs = sorted(latencies)
    n = len(xs)
    i = max(n - TAIL_BEYOND - 1, 0)
    return xs[i], 100.0 * (i + 1) / n


def tail_templates(jobs: list, res: dict) -> dict:
    """Templates of the jobs at and beyond the tail percentile."""
    by_id = {j["id"]: j["template"] for j in jobs}
    slowest = sorted(res["jobs"], key=lambda v: v["latency"])
    out = {}
    for v in slowest[-TAIL_BEYOND - 1:]:
        out[by_id[v["id"]]] = out.get(by_id[v["id"]], 0) + 1
    return out


def judge(jobs: list, res: dict) -> tuple:
    """(failed count, unexpected failures) of a worker result."""
    by_id = {j["id"]: j for j in jobs}
    failed = [v for v in res["jobs"] if v["reason"] is not None]
    unexpected = []
    for v in failed:
        symptoms = tuple(s for d in by_id[v["id"]]["defects"]
                         for s in DEFECT_SYMPTOMS[d])
        if not v["reason"].startswith(symptoms):
            unexpected.append((by_id[v["id"]]["template"], v["reason"],
                               v["stderr"]))
    return len(failed), unexpected


def failure_summary(jobs: list, res: dict) -> dict:
    by_id = {j["id"]: j for j in jobs}
    out = {}
    for v in res["jobs"]:
        if v["reason"] is not None:
            reason = re.sub(r"[-+]?\d*\.\d+(e[-+]?\d+)?", "#",
                            v["reason"])[:70]
            key = f"{by_id[v['id']]['template']}: {reason}"
            out[key] = out.get(key, 0) + 1
    return out


def template_summary(jobs: list, res: dict) -> list:
    """Per template: job count and median latency, slowest first."""
    by_id = {j["id"]: j["template"] for j in jobs}
    lat = {}
    for v in res["jobs"]:
        lat.setdefault(by_id[v["id"]], []).append(v["latency"])
    rows = [(statistics.median(xs), name, len(xs)) for name, xs in lat.items()]
    return [f"template {name:24s} x{n:<5d} p50 {p50:.4g} s"
            for p50, name, n in sorted(rows, reverse=True)]


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    if not (ROOT / "src" / "softphoton" / "cli.py").is_file():
        raise BenchError(f"no softphoton sources under {ROOT / 'src'}")
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}")
    r = Runner(args.workload, args.seed, args.seconds)
    try:
        r.write_jobs()
        env = {"nproc": nproc(), "blas_threads": r.blas_threads,
               "git_commit": git_commit(), "src_sha256": source_digest(),
               "workload": args.workload, "seed": args.seed,
               "jobs_per_pass": len(r.jobs)}
        if args.trace:
            return traced(r, env)
        return timed(r, env)
    finally:
        shutil.rmtree(r.work, ignore_errors=True)


def timed(r: Runner, env: dict) -> dict:
    setup_s = r.setup_seconds()
    res = r.worker("timed", "timed")
    env.update(res["versions"])
    lat = [v["latency"] for v in res["jobs"]]
    attempted = len(lat)
    failed, unexpected = judge(r.jobs, res)
    tail_s, pct = tail(lat)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "jobs_per_s": metric(attempted / res["wall_s"], "1/s"),
        "job_p50_s": metric(statistics.median(lat), "s"),
        "job_tail_s": metric(tail_s, "s"),
        "ok_frac": metric((attempted - failed) / attempted, "fraction"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{attempted} jobs ({attempted // len(r.jobs)} x {len(r.jobs)}) in "
          f"{res['wall_s']:.3f} s, one client, closed loop")
    for name, unit in END_TO_END:
        print(f"{name:12s} {metrics[name]['value']:.6g} {unit}")
    print(f"job_tail_s is p{pct:.1f} of {attempted} jobs "
          f"({TAIL_BEYOND} jobs beyond it); templates at and beyond it: "
          f"{tail_templates(r.jobs, res)}")
    print("\n".join(template_summary(r.jobs, res)))
    report_failures(r.jobs, res, unexpected)
    return {"correct": not unexpected, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced(r: Runner, env: dict) -> dict:
    layers = r.import_times()
    plain = r.worker("pass", "untraced")
    first = r.worker("traced", "traced")
    env.update(first["versions"])
    counts = {m: first["layers"][m] for m, unit in LAYER_METRICS
              if unit in COUNT_UNITS}
    drift, note = check_counts(r, env["src_sha256"], counts)
    layers.update(first["layers"])
    layers["trace.overhead.wall_ratio"] = first["wall_s"] / plain["wall_s"]
    units = dict(LAYER_METRICS)
    units.update({k: "s" for k in layers if k.startswith("setup.import.")})
    units["trace.overhead.wall_ratio"] = "ratio"
    metrics = {k: metric(v, units[k]) for k, v in layers.items()}
    attempted = len(first["jobs"])
    failed, unexpected = judge(r.jobs, first)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"untraced pass {plain['wall_s']:.3f} s, traced pass "
          f"{first['wall_s']:.3f} s, {attempted} jobs")
    for name, m in metrics.items():
        print(f"{name:50s} {m['value']:.6g} {m['unit']}")
    print(note)
    report_failures(r.jobs, first, unexpected)
    return {"correct": not unexpected and not drift, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def check_counts(r: Runner, digest: str, counts: dict) -> tuple:
    """Compare work counts with an earlier traced run of the same seed.

    The counts of the first traced run of a (workload, seed, program
    source, job list) are kept under .perfbench/; every later traced run of
    the same four must reproduce each of them exactly.
    """
    jobs = hashlib.sha256(json.dumps(r.jobs, sort_keys=True).encode())
    path = (r.base / f"counts-{r.workload}-{r.seed}-{digest}-"
                     f"{jobs.hexdigest()[:12]}.json")
    if not path.is_file():
        path.write_text(json.dumps(counts, sort_keys=True))
        return {}, (f"{len(counts)} work counts recorded; the next traced "
                    f"run of seed {r.seed} must repeat them exactly")
    earlier = json.loads(path.read_text())
    drift = {m: (earlier.get(m), v) for m, v in counts.items()
             if earlier.get(m) != v}
    if drift:
        return drift, f"WORK COUNTS DIFFER from the earlier run: {drift}"
    return {}, (f"{len(counts)} work counts equal to the earlier traced run "
                f"of seed {r.seed}")


def report_failures(jobs: list, res: dict, unexpected: list):
    for key, n in sorted(failure_summary(jobs, res).items()):
        print(f"failed x{n}  {key}")
    for template, reason, stderr in unexpected[:20]:
        print(f"UNEXPECTED {template}: {reason} {stderr.strip()[:200]}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like an error, so every started child is killed
    # and waited for on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
