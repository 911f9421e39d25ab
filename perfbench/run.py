#!/usr/bin/env python3
"""Benchmark of the kummer-codes CLI on two workloads of real jobs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 50

Every job is a fresh ``python -m kummercodes.cli`` process on the
checkout's ``src/``.  The load is a closed loop with one client: the
harness starts a job, drains and hashes its stdout, waits for it, and
only then starts the next, so at most two processes run.  A round runs
each of the workload's jobs once, in an order drawn from the seed (the
configs are pinned, so the seed changes nothing else and the golden
hashes hold for every seed).  Rounds repeat until ``--seconds`` is used.

Every job's exit status and stdout SHA-256 are checked against
golden.json; a job that differs counts as failed, and the command then
exits 1 after printing its result.

``--trace 0`` reports the end-to-end metrics:
  wall_s       seconds per job, spawn to exit, at a fixed host speed:
               REFERENCE_S times the median over rounds of the round's
               job seconds over its reference.py seconds (reference.py
               runs before every job)
  setup_s      seconds of setup_probe.py (start, import, configs, field
               and curve; no command work) at the same fixed host speed:
               REFERENCE_S times the median over probes, one a round, of
               the probe's seconds over the round's mean reference.py
               seconds
  peak_rss_mb  median over rounds of the largest peak RSS of a job,
               from os.wait4 on that child
``--trace 1`` alternates untraced rounds with rounds run through
traced_job.py, checks that traced and untraced stdout agree, and reports
the per-layer metrics (per round, median over traced rounds).

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The full record (environment, every
sample, metrics) is written to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MIN_SETUP_PROBES = 7


def _config_job(name, command):
    return (name, [command, "--config", f"perfbench/workloads/{name}.ini"])


# Each workload is a mix of jobs; why each job exists is written at the
# top of its config.  The verify-example jobs have no config: they run
# the four canned checks of the paper's examples.
WORKLOADS = {
    "build": {
        "jobs": [_config_job("construct", "build-code")]
                + [(f"verify-example-{n}", ["verify-example", str(n)]) for n in (1, 2, 3, 4)],
        "setup": ["perfbench/workloads/construct.ini", "--examples"],
    },
    "search": {
        "jobs": [_config_job("distance", "check-distance"), _config_job("gaps", "box-search"),
                 _config_job("places", "places")],
        "setup": [f"perfbench/workloads/{name}.ini" for name in ("distance", "gaps", "places")],
    },
}

# reference.py's median time on the VM the bounds were set on (see
# README.md); wall_s is scaled to a host running at that speed.
REFERENCE_S = 0.30
REFERENCE_SHA256 = "b60283b8463b8f3ec85ecfb35c2e2a063e24ee1d535ee9cfb288246e7f18892f"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics read from the traced jobs: (metric, layer, field).
# Fields calls, s and self_s come from the spans, others are counters.
PER_LAYER = [
    ("gf.rref.calls", "gf.rref", "calls"),
    ("gf.rref.s", "gf.rref", "s"),
    ("gf.rref.cells", None, "gf.rref.cells"),
    ("gf.nullspace.self_s", "gf.nullspace", "self_s"),
    ("gf.field_init.s", "gf.field_init", "s"),
    ("curve.find_roots.s", "curve.find_roots", "s"),
    ("curve.places.s", "curve.places", "s"),
    ("curve.places.count", None, "curve.places.count"),
    ("rrlattice.omega_enumerate.calls", "rrlattice.omega_enumerate", "calls"),
    ("rrlattice.omega_enumerate.s", "rrlattice.omega_enumerate", "s"),
    ("rrlattice.omega_enumerate.points", None, "rrlattice.omega_enumerate.points"),
    ("agcode.build_cl.self_s", "agcode.build_cl", "self_s"),
    ("agcode.build_cl.evaluations", None, "agcode.build_cl.evaluations"),
    ("agcode.build_comega.self_s", "agcode.build_comega", "self_s"),
    ("agcode.export_text.s", "agcode.export_text", "s"),
    ("agcode.export_text.bytes", None, "agcode.export_text.bytes"),
    ("agcode.brute_force_distance.s", "agcode.brute_force_distance", "s"),
    ("agcode.brute_force_distance.codewords", None, "agcode.brute_force_distance.codewords"),
    ("weierstrass.pure_gap.calls", "weierstrass.pure_gap", "calls"),
    ("weierstrass.pure_gap.hits", None, "weierstrass.pure_gap.hits"),
    ("weierstrass.pure_gap.s", "weierstrass.pure_gap", "s"),
    ("weierstrass.box_search.s", "weierstrass.box_search", "s"),
    ("weierstrass.box_search.self_s", "weierstrass.box_search", "self_s"),
    ("verify.verify_example.self_s", "verify.verify_example", "self_s"),
    ("trace.job_s", "job", "s"),
]
DERIVED = ["weierstrass.pure_gap.hit_ratio", "trace.overhead_s"]


def unit_of(metric):
    if metric == "weierstrass.pure_gap.hit_ratio":
        return "ratio"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


class Job:
    """Outcome of one job process."""

    def __init__(self, name, seconds, exit_code, sha256, nbytes, peak_rss_mb, stderr):
        self.name = name
        self.seconds = seconds
        self.exit_code = exit_code
        self.sha256 = sha256
        self.nbytes = nbytes
        self.peak_rss_mb = peak_rss_mb
        self.stderr = stderr

    def output(self):
        return (self.exit_code, self.sha256, self.nbytes)


def spawn(name, argv):
    """Run one Python child to exit: wall seconds, stdout hash, own peak RSS.

    The child is started by spawn_job.py, which times it and takes its
    rusage from os.wait4 on that child alone (RUSAGE_CHILDREN would keep
    the maximum over every earlier child).
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    stderr_path = OUT_DIR / "job.stderr"
    launcher = [sys.executable, "-I", "-S", str(BENCH_DIR / "spawn_job.py"), str(stderr_path)]
    digest = hashlib.sha256()
    nbytes = 0
    proc = subprocess.Popen(launcher + [sys.executable] + argv, cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    with proc.stdout:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
            nbytes += len(chunk)
    report = proc.stderr.read().decode()
    proc.stderr.close()
    if proc.wait() != 0:
        raise SystemExit(f"perfbench: job launcher failed:\n{report}")
    seconds, exit_code, maxrss_kib = report.split()
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
    return Job(name, float(seconds), int(exit_code), digest.hexdigest(), nbytes,
               int(maxrss_kib) / 1024, stderr)


def cli_argv(args):
    return ["-m", "kummercodes.cli"] + args


class Run:
    """One benchmark run of one workload: samples, failures and metrics."""

    def __init__(self, workload, seed, seconds, trace, golden):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.golden = golden
        self.rounds = []          # untraced: list of Job lists
        self.traced_rounds = []   # list of (Job list, trace record list)
        self.setup = []           # untraced: (probe seconds, mean reference.py seconds)
        self.reference = []       # untraced: reference.py seconds of each round
        self.failures = []
        self.attempted = 0
        self.trace_dir = OUT_DIR / "trace" / f"{workload}-seed{seed}"

    def check(self, job, expected):
        self.attempted += 1
        if job.output() != expected:
            self.failures.append({"job": job.name, "expected": list(expected),
                                  "got": list(job.output()), "stderr": job.stderr[-2000:]})
            print(f"perfbench: {self.workload}: job {job.name} gave exit {job.exit_code} "
                  f"sha256 {job.sha256[:12]} ({job.nbytes} bytes), expected exit "
                  f"{expected[0]} sha256 {expected[1][:12]}", file=sys.stderr)

    def probe(self):
        job = spawn("setup", ["perfbench/setup_probe.py"] + WORKLOADS[self.workload]["setup"])
        if job.exit_code != 0:
            raise SystemExit(f"perfbench: set-up probe failed (exit {job.exit_code}):\n"
                             f"{job.stderr}")
        return job.seconds

    @staticmethod
    def time_reference():
        job = spawn("reference", ["perfbench/reference.py"])
        if (job.exit_code, job.sha256) != (0, REFERENCE_SHA256):
            raise SystemExit(f"perfbench: reference.py failed (exit {job.exit_code}):\n"
                             f"{job.stderr}")
        return job.seconds

    def run_round(self, order):
        jobs, reference = [], []
        for name, args in order:
            if not self.trace:
                reference.append(self.time_reference())
            job = spawn(name, cli_argv(args))
            g = self.golden[name]
            self.check(job, (g["exit"], g["sha256"], g["bytes"]))
            jobs.append(job)
        self.rounds.append(jobs)
        self.reference.append(reference)
        return jobs

    def run_traced_round(self, order, untraced):
        jobs, records = [], []
        index = len(self.traced_rounds)
        for (name, args), plain in zip(order, untraced):
            path = self.trace_dir / f"round{index}-{name}.json"
            job = spawn(name, ["perfbench/traced_job.py", str(path), name] + args)
            self.check(job, plain.output())
            jobs.append(job)
            # A traced job that died before writing its trace already failed check().
            record = (json.loads(path.read_text(encoding="utf-8")) if path.exists()
                      else {"layers": {}, "counters": {}})
            records.append({"layers": record["layers"], "counters": record["counters"]})
        self.traced_rounds.append((jobs, records))

    def measure(self):
        rng = random.Random(self.seed)
        jobs = WORKLOADS[self.workload]["jobs"]
        if self.trace:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            for old in self.trace_dir.glob("*.json"):
                old.unlink()
        self.probe()  # warm-up: file cache and, where allowed, bytecode
        start = time.perf_counter()
        while True:
            order = rng.sample(jobs, len(jobs))
            if self.trace:
                self.run_traced_round(order, self.run_round(order))
            else:
                probe_s = self.probe()
                self.run_round(order)
                self.setup.append((probe_s, statistics.mean(self.reference[-1])))
            elapsed = time.perf_counter() - start
            # Start another round only if it should end within the budget.
            if elapsed * (len(self.rounds) + 1) / len(self.rounds) > self.seconds:
                break
        while not self.trace and len(self.setup) < MIN_SETUP_PROBES:
            reference_s = self.time_reference()
            self.setup.append((self.probe(), reference_s))

    def raw_wall_s(self):
        return statistics.median(self.round_seconds(jobs) / len(jobs) for jobs in self.rounds)

    @staticmethod
    def round_seconds(jobs):
        return sum(job.seconds for job in jobs)

    def metrics(self):
        if not self.trace:
            values = {
                "wall_s": REFERENCE_S * statistics.median(
                    self.round_seconds(jobs) / sum(reference)
                    for jobs, reference in zip(self.rounds, self.reference)),
                "setup_s": REFERENCE_S * statistics.median(
                    probe_s / reference_s for probe_s, reference_s in self.setup),
                "peak_rss_mb": statistics.median(
                    max(job.peak_rss_mb for job in jobs) for jobs in self.rounds),
            }
            return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        per_round = []
        for jobs, records in self.traced_rounds:
            values = {}
            for metric, layer, field in PER_LAYER:
                values[metric] = sum(
                    rec["layers"].get(layer, {}).get(field, 0) if layer else
                    rec["counters"].get(field, 0) for rec in records)
            calls = values["weierstrass.pure_gap.calls"]
            values["weierstrass.pure_gap.hit_ratio"] = (
                values["weierstrass.pure_gap.hits"] / calls if calls else 0.0)
            values["trace.overhead_s"] = self.round_seconds(jobs)
            per_round.append(values)
        out = {}
        for metric in [m for m, _, _ in PER_LAYER] + DERIVED:
            out[metric] = {"value": statistics.median(v[metric] for v in per_round),
                           "unit": unit_of(metric)}
        out["trace.overhead_s"]["value"] -= statistics.median(
            self.round_seconds(jobs) for jobs in self.rounds)
        return out

    def result(self):
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures), "metrics": self.metrics()}

    def record(self, result):
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "environment": environment(),
            "result": result,
            "jobs_failed": len(self.failures) / self.attempted,
            "failures": self.failures,
            "samples": {
                "rounds": [[[j.name, j.seconds, j.peak_rss_mb] for j in jobs]
                           for jobs in self.rounds],
                "traced_rounds": [[[j.name, j.seconds, j.peak_rss_mb] for j in jobs]
                                  for jobs, _ in self.traced_rounds],
                "setup_s": self.setup,
                "reference_s": self.reference,
            },
        }


def environment():
    sha = None  # a checkout without git metadata; source_sha256 identifies the code
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_sha": sha, "source_sha256": source.hexdigest(),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def print_table(workload, result, run):
    for name, metric in result["metrics"].items():
        samples = len(run.setup if name == "setup_s" else
                      run.traced_rounds if run.trace else run.rounds)
        print(f"{workload:10s} {name:40s} {metric['value']:14.6f} {metric['unit']:6s} n={samples}")
    if not run.trace:
        print(f"{workload:10s} {'(wall_s unscaled)':40s} {run.raw_wall_s():14.6f} s      "
              f"n={len(run.rounds)}")
        print(f"{workload:10s} {'(setup_s unscaled)':40s} "
              f"{statistics.median(probe_s for probe_s, _ in run.setup):14.6f} s      "
              f"n={len(run.setup)}")
        reference = [s for r in run.reference for s in r]
        print(f"{workload:10s} {'(reference.py)':40s} {statistics.median(reference):14.6f} s      "
              f"n={len(reference)}")
    print(f"{workload:10s} {'jobs_failed':40s} {result['failed']:>7d} / {result['attempted']} jobs")


def run_one(workload, seed, seconds, trace, golden):
    run = Run(workload, seed, seconds, trace, golden)
    run.measure()
    result = run.result()
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(run.record(result), indent=1) + "\n", encoding="utf-8")
    print_table(workload, result, run)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kummercodes" / "cli.py").is_file():
        print(f"perfbench: no src/kummercodes/cli.py under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_one(name, args.seed, args.seconds, args.trace, golden)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
