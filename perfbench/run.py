#!/usr/bin/env python3
"""Benchmark of the SRLB simulator: host cost of reproducing the paper's runs.

Run from the repository root:

    python3 perfbench/run.py --workload poisson_paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

The script builds the `perfbench/` crate (in `$CARGO_TARGET_DIR`, default
`.bench_build`), then runs one workload spec (`perfbench/specs/`) to
completion per child process:

* `--trace 0` repeats the untraced run for `--seconds` (at least three
  times) and prints the end-to-end metrics, as medians over the runs;
* `--trace 1` makes three untraced runs, one run on the sharded engine at
  two simulation threads, and one traced run, and prints the per-layer
  metrics.

Every run's simulated report is checked against the digest committed in
`perfbench/expected/` for that seed (seeds without one must agree across
runs), and a traced run's report must be byte-identical to the untraced
one.  The last line of standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`,
where `attempted` counts simulated requests sent and `failed` those not
completed.  Host and engine metadata go on the `META` line before it.
`--record-expected FIRST LAST` writes the expected digests instead, and
`--spread FIRST LAST` runs those seeds and prints each end-to-end metric's
quartile spread beside its bound.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")

# Mirrors WORKLOADS in src/lib.rs; every workload runs on one simulation
# thread, and the `shard` layer is measured by re-running it on two.
WORKLOADS = ["poisson_paper", "wiki_replay", "tier_faults"]
SHARDED_THREADS = 2

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "requests_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "completed_frac": "fraction",
    "sim_mean_response_ms": "ms",
    "sim_p99_response_ms": "ms",
}

PER_LAYER = {
    "sim.ns_per_event": "ns",
    "sim.self_ns_per_event": "ns",
    "sim.events_per_request": "count",
    "sim.idle_event_frac": "fraction",
    "sim.allocs_per_event": "count",
    "shard.shards_run": "count",
    "shard.speedup_vs_1thread": "ratio",
    "shard.cpu_per_wall": "ratio",
    "workload.ns_per_request": "ns",
    "client.self_ns_per_request": "ns",
    "client.callbacks_per_request": "count",
    "client.allocs_per_request": "count",
    "client.retransmits_per_request": "count",
    "client.record_bytes": "bytes",
    "lb.self_ns_per_packet": "ns",
    "lb.packets_per_request": "count",
    "lb.allocs_per_packet": "count",
    "lb.dispatch_ns": "ns",
    "lb.flow_learn_ns": "ns",
    "lb.flow_lookup_ns": "ns",
    "lb.evictions_per_learn": "ratio",
    "lb.flows_learned": "count",
    "server.self_ns_per_packet": "ns",
    "server.packets_per_request": "count",
    "server.allocs_per_packet": "count",
    "server.hunt_pass_frac": "fraction",
    "metrics.report_s": "s",
    "metrics.summary_s": "s",
    "trace.overhead_frac": "fraction",
}

MIN_RUNS = 3  # untraced runs per measurement, whatever --seconds says
SETUP_SAMPLES = 15  # extra set-up-only processes per measurement


class BenchError(Exception):
    """A run could not be made at all (as opposed to a failed check)."""


median = statistics.median


def quartile_spread(values):
    """Distance between the first and third quartile, over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def valid_metric_name(name):
    ok = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")
    return 0 < len(name) <= 64 and name[0].isascii() and name[0].isalnum() and set(name) <= ok


def build():
    """Builds the benchmark crate; returns the directory of its binaries."""
    for needed in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} not found at {ROOT}: run from a full checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("cargo build failed")
    return os.path.join(target, "release")


def run_child(binary, workload, seed, threads=1, setup_only=False):
    """Runs one benchmark process; returns its parsed output and rusage."""
    args = [binary, "--workload", workload, "--seed", str(seed), "--sim-threads", str(threads)]
    if setup_only:
        args.append("--setup-only")
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(args + ["--spawn-ns", str(spawn_ns)], cwd=ROOT, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(binary)} {workload} seed {seed} exited {proc.returncode}")
    child = {"cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    for line in out.decode().splitlines():
        tag, _, body = line.partition(" ")
        if tag == "REPORT":
            child["report_sha256"] = hashlib.sha256(body.encode()).hexdigest()
            child["report"] = json.loads(body)
        elif tag == "RESULT":
            child.update(json.loads(body))
    return child


def load_expected(workload):
    path = os.path.join(EXPECTED_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)["report_sha256"]


class Gate:
    """The correctness gate: every report matches the committed digest for
    its seed (or, for an uncommitted seed, the first report of the run)."""

    def __init__(self, workload, seed):
        self.expected = load_expected(workload).get(str(seed))
        self.seed = seed
        self.failures = []
        self.sent = self.unfinished = 0

    def check(self, child, what):
        report = child["report"]
        if self.expected is None:
            self.expected = child["report_sha256"]
        if child["report_sha256"] != self.expected:
            self.failures.append(f"{what}: report differs from the expected one")
        if report["seed"] != self.seed:
            self.failures.append(f"{what}: report seed {report['seed']} != {self.seed}")
        self.sent += report["sent"]
        self.unfinished += report["sent"] - report["completed"]

    def check_shards(self, child, shards):
        """A run asked for `shards` threads must not have collapsed."""
        if child["shards_run"] != shards:
            self.failures.append(f"{child['shards_run']} shards ran, {shards} asked")

    def check_sharded(self, sharded, serial, shards):
        """A run on `shards` threads must run that many shards and report
        what the 1-thread run `serial` reports.  The one allowed difference
        is the documented `RunUntil::Events` overshoot: a run cut at its
        budget n processes at most n + (S - 1)·r <= S·n events on S shards,
        where r <= n is the budget left when the last window starts.
        Returns the report fields that differ."""
        self.check_shards(sharded, shards)
        ours, theirs = sharded["report"], serial["report"]
        diff = sorted(k for k in ours.keys() | theirs.keys() if ours.get(k) != theirs.get(k))
        budget = serial["event_budget"]
        overshoot = (diff == ["events_processed"] and theirs["events_processed"] == budget
                     and budget < ours["events_processed"] <= shards * budget)
        if diff and not overshoot:
            self.failures.append(f"{shards}-thread report differs from the 1-thread one in {diff}")
        return diff

    def result(self, metrics):
        return {"correct": not self.failures and self.sent > 0, "attempted": self.sent,
                "failed": self.unfinished, "metrics": metrics}


def untraced_runs(bins, workload, seed, gate, seconds):
    binary = os.path.join(bins, "perfbench-run")
    deadline = time.monotonic() + seconds
    runs = []
    while len(runs) < MIN_RUNS or time.monotonic() < deadline:
        child = run_child(binary, workload, seed)
        gate.check(child, f"untraced run {len(runs) + 1}")
        gate.check_shards(child, 1)
        runs.append(child)
    return runs


def end_to_end(bins, workload, seed, seconds, gate):
    runs = untraced_runs(bins, workload, seed, gate, seconds)
    setups = [r["setup_s"] for r in runs]
    setups += [run_child(os.path.join(bins, "perfbench-run"), workload, seed, setup_only=True)
               ["setup_s"] for _ in range(SETUP_SAMPLES)]
    report = runs[0]["report"]
    values = {
        "setup_s": median(setups),
        "run_s": median(r["run_s"] for r in runs),
        "requests_per_s": median(r["report"]["completed"] / r["run_s"] for r in runs),
        "cpu_s": median(r["cpu_s"] for r in runs),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
        "completed_frac": report["completed"] / report["sent"],
        "sim_mean_response_ms": report["mean_response_ms"],
        "sim_p99_response_ms": report["p99_response_ms"],
    }
    return values, runs


def per_layer(bins, workload, seed, gate):
    runs = untraced_runs(bins, workload, seed, gate, 0)
    sharded = run_child(os.path.join(bins, "perfbench-run"), workload, seed, SHARDED_THREADS)
    sharded["report_diff"] = gate.check_sharded(sharded, runs[0], SHARDED_THREADS)
    traced = run_child(os.path.join(bins, "perfbench-trace"), workload, seed)
    gate.check(traced, "traced run")
    if traced["report_sha256"] != runs[0]["report_sha256"]:
        gate.failures.append("traced report differs from the untraced report")

    run_s = median(r["run_s"] for r in runs)
    t = traced
    events, sent = t["events"], t["sent"]
    client, lb, server = t["client"], t["lb"], t["server"]
    callback_ns = client["ns"] + lb["ns"] + server["ns"]
    # The traced run time splits into node callbacks, the report projection
    # and the rest, which is the simulator's own: the loop (queue, links,
    # faults) plus network construction and harvesting the nodes.
    t["sim_self_ns"] = t["run_ns"] - t["report_ns"] - callback_ns
    callback_allocs = client["allocs"] + lb["allocs"] + server["allocs"]
    idle = client["idle"] + lb["idle"] + server["idle"]
    hunts = t["hunt_accepted"] + t["hunt_passed_on"] + t["hunt_forced"]
    values = {
        "sim.ns_per_event": run_s * 1e9 / events,
        "sim.self_ns_per_event": t["sim_self_ns"] / events,
        "sim.events_per_request": events / sent,
        "sim.idle_event_frac": idle / events,
        "sim.allocs_per_event": (t["drive_allocs"] - callback_allocs) / events,
        "shard.shards_run": sharded["shards_run"],
        "shard.speedup_vs_1thread": run_s / sharded["run_s"],
        "shard.cpu_per_wall": sharded["cpu_s"] / sharded["run_s"],
        "workload.ns_per_request": t["workload_ns_per_request"],
        "client.self_ns_per_request": client["ns"] / sent,
        "client.callbacks_per_request": client["calls"] / sent,
        "client.allocs_per_request": client["allocs"] / sent,
        "client.retransmits_per_request": t["retransmits"] / sent,
        "client.record_bytes": sent * t["record_size"],
        "lb.self_ns_per_packet": lb["ns"] / lb["messages"],
        "lb.packets_per_request": lb["messages"] / sent,
        "lb.allocs_per_packet": lb["allocs"] / lb["messages"],
        "lb.dispatch_ns": t["dispatch_ns"],
        "lb.flow_learn_ns": t["flow_learn_ns"],
        "lb.flow_lookup_ns": t["flow_lookup_ns"],
        "lb.evictions_per_learn": t["evictions"] / max(t["flows_learned"], 1),
        "lb.flows_learned": t["flows_learned"],
        "server.self_ns_per_packet": server["ns"] / server["messages"],
        "server.packets_per_request": server["messages"] / sent,
        "server.allocs_per_packet": server["allocs"] / server["messages"],
        "server.hunt_pass_frac": t["hunt_passed_on"] / max(hunts, 1),
        "metrics.report_s": median(r["report_s"] for r in runs),
        "metrics.summary_s": t["summary_s"],
        "trace.overhead_frac": t["run_ns"] * 1e-9 / run_s - 1.0,
    }
    return values, runs + [sharded, traced]


def source_commit():
    if os.path.exists(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    return "unknown (not a git checkout)"


def source_digest():
    """SHA-256 over the program's sources, identifying the code measured
    even where no git commit is available."""
    generated = os.path.join(BENCH_DIR, "Cargo.lock")  # written by the build
    files = []
    for name in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, name)
        if os.path.isfile(path):
            files.append(path)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [d for d in dirnames if d not in ("target", "__pycache__")]
            files += [os.path.join(dirpath, f) for f in filenames
                      if f.endswith((".rs", ".toml", ".json", ".py", ".lock"))]
    digest = hashlib.sha256()
    for path in sorted(set(files) - {generated}):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


def metadata(workload, seed, runs):
    first = runs[0]
    return {
        "workload": workload,
        "seed": seed,
        "runs": len(runs),
        "untraced_run_s": [r["run_s"] for r in runs if "run_s" in r],
        "untraced_cpu_s": [r["cpu_s"] for r in runs if "run_s" in r],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "available_parallelism": first["available_parallelism"],
        "sim_threads": first["sim_threads"],
        "shards_run": first["shards_run"],
        "pool_policy": first["pool_policy"],
        "srlb_sim_pool": os.environ.get("SRLB_SIM_POOL", ""),
        "build_profile": first["build_profile"],
        "commit": source_commit(),
        "source_sha256": source_digest(),
        "expected_report": "committed" if str(seed) in load_expected(workload) else "uncommitted seed",
    } | {"sharded_run": {key: r[key] for key in
                         ("sim_threads", "shards_run", "pool_policy", "report_diff")}
         for r in runs if "report_diff" in r} | {
        # Where the traced run's time went, in ns: outside_loop_ns is the
        # part of sim_self_ns spent outside the simulation loop itself.
        "traced_run": {"run_ns": r["run_ns"], "drive_ns": r["drive_ns"],
                       "report_ns": r["report_ns"], "sim_self_ns": r["sim_self_ns"],
                       "outside_loop_ns": r["run_ns"] - r["drive_ns"] - r["report_ns"]}
        for r in runs if "sim_self_ns" in r}


def measure(bins, workload, seed, seconds, trace):
    gate = Gate(workload, seed)
    if trace:
        values, runs = per_layer(bins, workload, seed, gate)
        units = PER_LAYER
    else:
        values, runs = end_to_end(bins, workload, seed, seconds, gate)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    if not all(map(valid_metric_name, metrics)):
        raise BenchError(f"invalid metric name among {sorted(metrics)}")
    for failure in gate.failures:
        print(f"FAILED {workload}: {failure}", file=sys.stderr)
    return gate.result(metrics), metadata(workload, seed, runs)


def print_table(workload, result):
    print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")


def record_expected(bins, first, last):
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for workload in WORKLOADS:
        digests = {str(seed): run_child(os.path.join(bins, "perfbench-run"), workload,
                                        seed)["report_sha256"]
                   for seed in range(first, last + 1)}
        with open(os.path.join(EXPECTED_DIR, f"{workload}.json"), "w") as f:
            json.dump({"workload": workload, "report_sha256": digests}, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"{workload}: {len(digests)} expected report digests written", file=sys.stderr)


def check_spread(bins, workloads, first, last, seconds):
    """Runs seeds FIRST..LAST untraced and prints each end-to-end metric's
    median and quartile spread beside its bound in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    for workload in workloads:
        values = {}
        for seed in range(first, last + 1):
            result, _ = measure(bins, workload, seed, seconds, 0)
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, v in values.items():
            print(f"{workload} {name:<24} median {median(v):<12.6g} "
                  f"spread {quartile_spread(v):.4f} bound {bounds[name]}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", nargs=2, type=int, metavar=("FIRST", "LAST"))
    parser.add_argument("--spread", nargs=2, type=int, metavar=("FIRST", "LAST"))
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_expected:
        parser.error("--workload is required")
    try:
        bins = build()
        if args.record_expected:
            record_expected(bins, *args.record_expected)
            return 0
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        if args.spread:
            check_spread(bins, workloads, *args.spread, args.seconds)
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads:
            result, meta = measure(bins, workload, args.seed, args.seconds, args.trace)
            print_table(workload, result)
            print("META " + json.dumps(meta, sort_keys=True))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
        # One workload prints its own metric names; `all` prefixes each
        # with its workload.
        print(json.dumps(result if len(workloads) == 1 else combined))
        return 0
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
