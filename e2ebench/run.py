#!/usr/bin/env python3
"""End-to-end benchmark of libgather through its C ABI front doors.

Usage (from the root of the repository):

    python3 e2ebench/run.py --workload <name> --seed <S> --seconds <T> --trace <0|1>
    python3 e2ebench/run.py                  # all four workloads, untraced
    python3 e2ebench/run.py --self-test      # unit tests of the pure helpers

Builds the library and the benchmark from source (Release) into
$CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench when that is unset,
then runs e2e_front (untraced, C ABI only) and, with --trace 1, also
e2e_traced (the same operations through the C++ layer functions, one
span per call). Prints a stamp line, one line per metric with its unit,
and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exit status: 0 all outputs correct; 1 some operation failed (the JSON
is still printed); 2 usage or build error; 3 the build is not Release
(no timings are reported from it). See e2ebench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["acceptance-cold", "sync-regimes", "serve-zipf", "swarm-implicit"]
SWEEPS = ("acceptance-cold", "sync-regimes")

# The gated timings are CPU times (README.md, "Timing on a shared host");
# their wall-time counterparts are printed beside them.
END_TO_END = [
    ("setup_s", "s"),
    ("cpu_rows_per_s", "1/s"),
    ("cpu_op_ms_p50", "ms"),
    ("cpu_op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
]
WALL = [("rows_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_p99", "ms")]

PER_LAYER = [
    ("api.parse_us", "us"),
    ("api.boundary_us", "us"),
    ("api.csv_ms", "ms"),
    ("scenario.fingerprint_us", "us"),
    ("scenario.result_cache.lookup_us", "us"),
    ("scenario.result_cache.hit_ratio", "ratio"),
    ("scenario.result_cache.evictions", "count"),
    ("scenario.result_cache.dup_sims", "count"),
    ("scenario.graph_cache.hit_ratio", "ratio"),
    ("scenario.graph_cache.evictions", "count"),
    ("scenario.graph_cache.resident_mb", "MB"),
    ("scenario.sweep.busy_ratio", "ratio"),
    ("scenario.sweep.violation_rows", "count"),
    ("graph.build_ms", "ms"),
    ("resolve.rest_ms", "ms"),
    ("sim.run_s.synchronous", "s"),
    ("sim.run_s.adversarial-delay", "s"),
    ("sim.run_s.semi-synchronous", "s"),
    ("sim.run_s.crash-fault", "s"),
    ("sim.decisions", "count"),
    ("sim.simulated_rounds", "count"),
    ("sim.global_rounds", "count"),
    ("sim.moves", "count"),
    ("sim.skip_ratio", "ratio"),
    ("sim.ns_per_global_round.semi-synchronous", "ns"),
    ("sim.ns_per_decision.synchronous", "ns"),
    ("sim.ns_per_simulated_round", "ns"),
    ("sim.decide_speedup", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.share.api", "ratio"),
    ("trace.share.scenario", "ratio"),
    ("trace.share.graph", "ratio"),
    ("trace.share.resolve", "ratio"),
    ("trace.share.sim", "ratio"),
    ("error_rate", "ratio"),
]

# Front-door fields copied into per-layer metrics under these names.
FRONT_LAYER_FIELDS = {
    "scenario.result_cache.hit_ratio": "result_cache_hit_ratio",
    "scenario.result_cache.evictions": "result_cache_evictions",
    "scenario.result_cache.dup_sims": "dup_sims",
    "scenario.graph_cache.hit_ratio": "graph_cache_hit_ratio",
    "scenario.graph_cache.evictions": "graph_cache_evictions",
    "scenario.graph_cache.resident_mb": "graph_cache_resident_mb",
    "scenario.sweep.violation_rows": "violation_rows",
}

# A traced serve-zipf replay stops after this many requests per client,
# which bounds the spans held in memory (~5 per request).
SERVE_TRACE_CAP = 12500
# Every run must end within 180 s; subprocesses get what is left of this.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """A usage, build or environment error: no result is printed."""

    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base / "e2ebench"


def build():
    """Configure once, then build incrementally; returns the build dir."""
    for needed in ("CMakeLists.txt", "src", "include/libgather.h"):
        if not (ROOT / needed).exists():
            raise BenchError(f"library source not found: {ROOT / needed} is missing")
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", str(out), "-j", "4"])
    return out


def run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError("build failed: " + " ".join(cmd))


def git_describe():
    """`git describe` of the tree, or a content hash where git is absent."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--tags"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "include", "e2ebench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return "nogit-" + digest.hexdigest()[:12]


def run_json(cmd, deadline):
    """Run a benchmark binary and return its last-line JSON; it exits 0,
    or 1 when some operation failed (counted in the JSON)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run budget exhausted before " + cmd[0], code=1)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(cmd[0]).name} exceeded the run budget", code=1)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{Path(cmd[0]).name} exited {proc.returncode} without a result",
                         code=1)
    return json.loads(lines[-1])


def stamp(front):
    if front.get("build_type") != "Release":
        raise BenchError(
            f"refusing to report timings from a {front.get('build_type')!r} build", code=3)
    return {
        "nproc": os.cpu_count(),
        "compiler": front.get("compiler"),
        "build_type": front.get("build_type"),
        "git_describe": git_describe(),
        "library_version": front.get("library_version"),
    }


def run_front(out, workload, seed, seconds, deadline):
    return run_json([str(out / "e2e_front"), "--workload", workload, "--seed", str(seed),
                     "--seconds", repr(seconds)], deadline)


def run_workload(out, workload, seed, seconds, trace, deadline):
    """Returns (attempted, failed, metrics as {name: (value, unit)}, stamp)."""
    front = run_front(out, workload, seed, seconds / 2.0 if trace else seconds, deadline)
    machine = stamp(front)
    attempted = front["attempted"]
    failed = front["failed"]
    if not trace:
        for name, unit in WALL:
            print(f"# wall {name} = {front[name]!r} {unit}")
        print(f"# ops = {front['ops']}, tail percentile = p{front['tail_percentile']:g}")
        metrics = {name: (front[name], unit) for name, unit in END_TO_END}
        return attempted, failed, metrics, machine

    out_dir = out / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "e2e_traced"), "--workload", workload, "--seed", str(seed),
           "--out-dir", str(out_dir)]
    if workload == "serve-zipf":
        counts = [min(n, SERVE_TRACE_CAP) for n in front["requests_per_client"]]
        cmd += ["--requests-per-client", ",".join(str(n) for n in counts)]
    traced = run_json(cmd, deadline)
    attempted += traced["attempted"]
    failed += traced["failed"]
    # The traced replay must reproduce the front door's outputs.
    if workload in SWEEPS and traced["csv_fnv1a"] != front["csv_fnv1a"]:
        log("FAILED traced sweep CSV differs from the front door's")
        failed += 1
    if workload == "swarm-implicit" and traced["trace_hashes"] != front["trace_hashes"]:
        log("FAILED traced trace_hash differs from the front door's")
        failed += 1
    if traced["unaccounted_ops"] != 0:
        log(f"FAILED {traced['unaccounted_ops']} traced operations do not account for their wall time")
        failed += 1

    untraced_s = (front["mean_request_us"] * 1e-6 if workload == "serve-zipf"
                  else front["pass_s_median"])
    values = dict(traced)
    values.update({name: front[field] for name, field in FRONT_LAYER_FIELDS.items()})
    values["trace.overhead"] = traced["traced_s"] / untraced_s if untraced_s > 0 else 0.0
    values["error_rate"] = failed / attempted if attempted else 1.0
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    return attempted, failed, metrics, machine


def print_result(attempted, failed, metrics, machine):
    print("# stamp: " + json.dumps(machine, sort_keys=True))
    print(f"# operations: attempted={attempted} failed={failed}"
          f" error_rate={failed / attempted if attempted else 1.0:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_all(out, seed, seconds):
    """Every workload once, untraced, under per-workload names (req_per_s,
    req_us_p50, run_s_p50, ...) instead of the uniform gated ones."""
    total_attempted = total_failed = 0
    metrics = {}
    machine = None
    for workload in WORKLOADS:
        front = run_front(out, workload, seed, seconds, time.monotonic() + RUN_BUDGET_S)
        machine = stamp(front)
        total_attempted += front["attempted"]
        total_failed += front["failed"]
        named = {"setup_s": (front["setup_s"], "s")}
        if workload in SWEEPS:
            named["rows_per_s"] = (front["rows_per_s"], "rows/s")
        elif workload == "serve-zipf":
            named["req_per_s"] = (front["rows_per_s"], "1/s")
            named["req_us_p50"] = (front["op_ms_p50"] * 1e3, "us")
            named[f"req_us_p{front['tail_percentile']:g}"] = (front["op_ms_p99"] * 1e3, "us")
        else:
            named["run_s_p50"] = (front["op_ms_p50"] * 1e-3, "s")
        named["error_rate"] = (front["failed"] / front["attempted"] if front["attempted"] else 1.0,
                               "ratio")
        named["peak_rss_mb"] = (front["peak_rss_mb"], "MB")
        for name, value in named.items():
            metrics[f"{workload}.{name}"] = value
    print_result(total_attempted, total_failed, metrics, machine)
    return 0 if total_failed == 0 else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build, run the helper unit tests, and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        out = build()
        if args.self_test:
            proc = subprocess.run(["ctest", "--test-dir", str(out), "--output-on-failure"])
            return proc.returncode
        if args.workload == "all":
            return run_all(out, args.seed, args.seconds)
        deadline = time.monotonic() + RUN_BUDGET_S
        attempted, failed, metrics, machine = run_workload(
            out, args.workload, args.seed, args.seconds, bool(args.trace), deadline)
        print_result(attempted, failed, metrics, machine)
        return 0 if failed == 0 else 1
    except BenchError as err:
        log(f"e2ebench: {err}")
        return err.code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
