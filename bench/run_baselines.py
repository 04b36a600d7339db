#!/usr/bin/env python3
"""Run the baseline benches (fig3-fig9 paper reproductions + the capacity-sweep
extension) and merge their JSON reports
into a single baseline file (BENCH_baseline.json at the repo root by default).

Each bench binary writes $RRMP_BENCH_JSON_DIR/<name>.json when that env var
is set (see bench_util.h JsonReport); this driver provides the directory,
records wall time and exit status per bench, and merges everything into one
machine-readable document that later optimization PRs diff against.

Usage:
  bench/run_baselines.py --bench-dir build/bench --out BENCH_baseline.json
  cmake --build build --target run_baselines    # same thing
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

# The paper-figure reproductions that constitute the baseline trajectory.
FIG_BENCHES = [
    "bench_ext_capacity_sweep",
    "bench_ext_coordination_sweep",
    "bench_ext_fault_sweep",
    "bench_ext_hierarchy_depth",
    "bench_ext_overload_sweep",
    "bench_fig3_longterm_distribution",
    "bench_fig4_no_bufferer",
    "bench_fig6_shortterm_buffering",
    "bench_fig7_received_vs_buffered",
    "bench_fig8_search_vs_bufferers",
    "bench_fig9_search_vs_region_size",
    "bench_udp_throughput",
]

# Google Benchmark binaries whose per-benchmark ns/op numbers are folded into
# the baseline under the rrmp-micro/1 counter schema (see run_micro_bench).
MICRO_BENCHES = [
    "bench_micro_buffer",
    "bench_micro_codec",
    "bench_micro_engine",
]

_TIME_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def run_micro_bench(exe, timeout):
    """Run a Google Benchmark binary and distill its JSON output into the
    stable rrmp-micro/1 counter schema:

        {"schema": "rrmp-micro/1",
         "counters": {"<BM_Name>[/Arg]": {"ns_per_op": float,
                                          "items_per_second": float|None}}}

    Keys are the benchmark's own names (stable across runs); values are
    real-time ns/op so later PRs can diff micro-level wins the same way they
    diff the figure scalars.
    """
    start = time.monotonic()
    result = {
        "exit_code": -1,
        "timed_out": False,
        "wall_time_seconds": 0.0,
        "micro": None,
    }
    output = b""
    try:
        proc = subprocess.run(
            [exe, "--benchmark_format=json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=timeout,
        )
        result["exit_code"] = proc.returncode
        output = proc.stdout or b""
    except subprocess.TimeoutExpired as e:
        result["timed_out"] = True
        output = e.stdout or b""
    result["wall_time_seconds"] = round(time.monotonic() - start, 3)
    try:
        doc = json.loads(output.decode() or "{}")
        counters = {}
        for b in doc.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue  # plain runs only; keep keys stable
            if b.get("error_occurred") or "real_time" not in b:
                print(f"warning: skipping errored benchmark entry "
                      f"{b.get('name', '?')} in {exe}", file=sys.stderr)
                continue  # keep the good counters
            scale = _TIME_UNIT_TO_NS.get(b.get("time_unit", "ns"), 1.0)
            counters[b["name"]] = {
                "ns_per_op": round(b["real_time"] * scale, 3),
                "items_per_second": b.get("items_per_second"),
            }
        if counters:
            result["micro"] = {"schema": "rrmp-micro/1", "counters": counters}
    except (json.JSONDecodeError, KeyError, ValueError) as e:
        print(f"warning: could not parse benchmark JSON from {exe}: {e}",
              file=sys.stderr)
    return result


def run_bench(exe, json_dir, timeout):
    env = dict(os.environ, RRMP_BENCH_JSON_DIR=json_dir)
    start = time.monotonic()
    output = b""
    try:
        proc = subprocess.run(
            [exe],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=timeout,
        )
        returncode = proc.returncode
        timed_out = False
        output = proc.stdout or b""
    except subprocess.TimeoutExpired as e:
        returncode = -1
        timed_out = True
        output = e.stdout or b""
    return {
        "exit_code": returncode,
        "timed_out": timed_out,
        "wall_time_seconds": round(time.monotonic() - start, 3),
    }, output


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench-dir", required=True,
                        help="directory containing the built bench binaries")
    parser.add_argument("--out", default="BENCH_baseline.json",
                        help="merged baseline output path")
    parser.add_argument("--benches", nargs="*", default=FIG_BENCHES,
                        help="bench binary names to run (default: fig3-fig9)")
    parser.add_argument("--micro-benches", nargs="*", default=MICRO_BENCHES,
                        help="Google Benchmark binaries to fold in as ns/op "
                             "counters (default: the three bench_micro_* "
                             "binaries); pass an empty list to skip")
    parser.add_argument("--timeout", type=float, default=1200.0,
                        help="per-bench timeout in seconds")
    args = parser.parse_args()

    baseline = {
        "schema": "rrmp-bench-baseline/1",
        "generated_by": "bench/run_baselines.py",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "cpu_count": os.cpu_count(),
        },
        "benches": {},
    }

    failures = []
    for name in args.benches:
        exe = os.path.join(args.bench_dir, name)
        if not os.path.exists(exe):
            print(f"error: bench binary not found: {exe}", file=sys.stderr)
            failures.append(name)
            continue
        print(f"[run_baselines] {name} ...", flush=True)
        with tempfile.TemporaryDirectory(prefix="rrmp-bench-") as json_dir:
            run, output = run_bench(exe, json_dir, args.timeout)
            # JsonReport names strip the bench_ prefix.
            report_path = os.path.join(json_dir, name.removeprefix("bench_") + ".json")
            run["report"] = None
            if os.path.exists(report_path):
                try:
                    with open(report_path) as f:
                        run["report"] = json.load(f)
                except (json.JSONDecodeError, OSError) as e:
                    print(f"warning: {name} wrote a malformed JSON report: {e}",
                          file=sys.stderr)
            else:
                print(f"warning: {name} produced no JSON report", file=sys.stderr)
        ok = run["exit_code"] == 0 and run["report"] is not None
        status = "ok" if ok else "FAILED"
        print(f"[run_baselines] {name}: {status} "
              f"({run['wall_time_seconds']}s)", flush=True)
        if not ok:
            # Surface the bench's own tables/verdict lines so CI logs say
            # which invariant broke, not just that something did.
            sys.stderr.write(output.decode(errors="replace"))
            failures.append(name)
        baseline["benches"][name] = run

    for name in args.micro_benches:
        exe = os.path.join(args.bench_dir, name)
        if not os.path.exists(exe):
            print(f"error: micro bench binary not found: {exe}",
                  file=sys.stderr)
            failures.append(name)
            continue
        print(f"[run_baselines] {name} (micro) ...", flush=True)
        run = run_micro_bench(exe, args.timeout)
        ok = run["exit_code"] == 0 and run["micro"] is not None
        status = "ok" if ok else "FAILED"
        n = len(run["micro"]["counters"]) if run["micro"] else 0
        print(f"[run_baselines] {name}: {status} "
              f"({run['wall_time_seconds']}s, {n} counters)", flush=True)
        if not ok:
            failures.append(name)
        baseline["benches"][name] = run

    with open(args.out, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"[run_baselines] wrote {args.out} "
          f"({len(baseline['benches'])} benches, {len(failures)} failed)")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
