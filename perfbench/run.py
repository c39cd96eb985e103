"""Benchmark of pulsebandit on its shipped configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A closed loop runs one `pulsebandit`
process at a time (see child.py) on the workload's config at seed N, checks
each run's raw CSV, and stops starting runs once another would end after S
seconds.  With --trace 0 it prints the end-to-end metrics, each the median
over the runs; with --trace 1 it alternates untraced and traced runs and
prints the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Every result is also
written with its environment record under .perfbench_work/results/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from check import check_raw_csv
from workloads import DEFAULT_SEED, WORKLOADS, seeded_config

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
MIN_RUNS = 3
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "decisions_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
# Per-layer metrics that are not measured in seconds.
LAYER_UNITS = {
    ".calls": "count",
    ".distinct_ratio": "ratio",
    "overhead_ratio": "ratio",
}


def layer_unit(name):
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "s")


def nproc():
    return len(os.sched_getaffinity(0))


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read without running git; None outside a clone."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def child_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: the matrices are small, and a second thread spins
    # (a quarter more CPU time on calibration_plugin, no less wall time),
    # which makes every run hostage to whatever holds the other CPU.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Session:
    """The runs of one benchmark invocation and what they must agree on."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.out_dir = os.path.join(work_dir, "out")
        self.config_path = os.path.join(work_dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(seeded_config(workload, seed, self.out_dir), fh, indent=1)
        self.pinned = workload.digest if seed == DEFAULT_SEED else None
        self.digests_path = os.path.join(WORK_DIR, "digests.json")
        self.env = child_env()
        self.versions = None
        self.runs = []

    def first_digest(self):
        """Digest of the first run at this seed in this checkout, if any."""
        try:
            with open(self.digests_path, encoding="utf-8") as fh:
                return json.load(fh).get(f"{self.workload.name}:{self.seed}")
        except (OSError, ValueError):
            return None

    def record_digest(self, digest):
        try:
            with open(self.digests_path, encoding="utf-8") as fh:
                known = json.load(fh)
        except (OSError, ValueError):
            known = {}
        known[f"{self.workload.name}:{self.seed}"] = digest
        with open(self.digests_path, "w", encoding="utf-8") as fh:
            json.dump(known, fh, indent=1)

    def run(self, trace):
        """One checked run of the workload's command; returns its record."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        timing_path = os.path.join(self.work_dir, "timing.json")
        if os.path.exists(timing_path):
            os.remove(timing_path)
        args = [
            sys.executable,
            os.path.join(HERE, "child.py"),
            timing_path,
            "1" if trace else "0",
            "--",
            self.workload.command,
            "--config",
            self.config_path,
            "--quiet",
        ]
        with open(os.path.join(self.work_dir, "child.log"), "ab") as log:
            launch = time.monotonic()
            proc = subprocess.Popen(args, env=self.env, stdout=log, stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)
            exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)

        record = {"trace": trace, "exit": proc.returncode, "errors": []}
        self.runs.append(record)
        if proc.returncode != 0 or not os.path.exists(timing_path):
            record["errors"].append(f"exit status {proc.returncode}; see child.log")
            return record
        with open(timing_path, encoding="utf-8") as fh:
            timing = json.load(fh)
        self.versions = timing["versions"]
        decision_s = exited - timing["first_decision"]
        record.update(
            setup_s=timing["first_decision"] - launch,
            run_s=exited - launch,
            decisions_per_s=self.workload.decisions / decision_s,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            startup_s=timing["import_done"] - launch,
        )
        if trace:
            record["layers"] = timing["layers"]

        raw = os.path.join(self.out_dir, self.workload.raw_csv)
        if not os.path.exists(raw):
            record["errors"].append(f"{self.workload.raw_csv} was not written")
            return record
        digest, errors = check_raw_csv(raw, self.workload.decisions, self.pinned)
        record["digest"] = digest
        record["errors"].extend(errors)
        first = self.first_digest()
        if first is None:
            self.record_digest(digest)
        elif digest != first:
            record["errors"].append(f"sha256 {digest} differs from the first repeat's {first}")
        return record


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure(session, seconds, trace):
    """Closed loop of runs (or untraced/traced pairs) until `seconds` pass."""
    begin = time.monotonic()
    durations = []
    while True:
        started = time.monotonic()
        batch = [session.run(False)] + ([session.run(True)] if trace else [])
        durations.append(time.monotonic() - started)
        if any(r["errors"] for r in batch):
            return
        elapsed = time.monotonic() - begin
        enough = len(durations) >= (1 if trace else MIN_RUNS)
        if enough and elapsed + statistics.median(durations) > seconds:
            return


def end_to_end_metrics(runs):
    """Each end-to-end metric as the median over the timed untraced runs."""
    timed = [r for r in runs if "run_s" in r]
    metrics, lines = {}, []
    for name, unit in END_TO_END.items():
        values = [r[name] for r in timed]
        q1, q3 = quartiles(values)
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        lines.append(
            f"{name} {statistics.median(values):.6g} {unit}  (median of {len(values)} runs;"
            f" quartiles {q1:.6g} .. {q3:.6g})"
        )
    return metrics, lines, []


def per_layer_metrics(runs):
    """Per-layer figures: counts from every traced run, which must agree;
    times as medians over the traced runs."""
    traced = [r for r in runs if r["trace"] and "run_s" in r]
    untraced = [r for r in runs if not r["trace"] and "run_s" in r]
    errors = []
    figures = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if name.endswith(".calls") and len(set(values)) != 1:
            errors.append(f"{name} differs between traced runs: {values}")
        figures[name] = statistics.median(values)
    figures["cli.startup_s"] = statistics.median([r["startup_s"] for r in traced])
    traced_s = statistics.median([r["run_s"] for r in traced])
    figures["trace.overhead_ratio"] = traced_s / statistics.median([r["run_s"] for r in untraced])
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(figures.items())}
    lines = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    lines.append(f"(from {len(traced)} traced and {len(untraced)} untraced runs)")
    return metrics, lines, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    workload = WORKLOADS[args.workload]
    if not os.path.isdir(os.path.join("src", "pulsebandit")):
        print("error: run from the repository root; src/pulsebandit is missing", file=sys.stderr)
        return 2

    work_dir = os.path.join(WORK_DIR, "runs", f"{workload.name}-seed{args.seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    session = Session(workload, args.seed, work_dir)
    measure(session, args.seconds, bool(args.trace))

    runs = session.runs
    failed = sum(1 for r in runs if r["errors"])
    if not any("run_s" in r and r["trace"] == bool(args.trace) for r in runs):
        for r in runs:
            print(f"run failed: {'; '.join(r['errors'])}", file=sys.stderr)
        print(f"error: no run of {workload.name} completed", file=sys.stderr)
        return 1

    report = per_layer_metrics if args.trace else end_to_end_metrics
    metrics, lines, errors = report(runs)
    errors += [e for r in runs for e in r["errors"]]
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    untraced = [r for r in runs if not r["trace"]]
    lines.append(
        f"failure_rate {sum(1 for r in untraced if r['errors']) / len(untraced):.6g}"
        f" share of runs  ({len(untraced)} untraced runs)"
    )
    environment = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "versions": session.versions,
        "git_commit": git_commit(),
    }
    result = {
        "correct": not errors,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    results_dir = os.path.join(WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(
        results_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment, "result": result, "runs": runs}, fh, indent=1)

    print(f"{workload.name} seed={args.seed} trace={args.trace}")
    for line in lines:
        print("  " + line)
    print("environment " + json.dumps(environment))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
