#!/usr/bin/env python3
"""Check that a change leaves the deterministic benches' output unchanged.

Runs every deterministic bench from two build trees, the parent commit's and
the change's, and compares their exit codes and stdout. Table columns whose
header contains "wall" hold wall-clock times, so their cells are masked
before comparing. RRMP_HIERARCHY_POINTS=2 keeps the hierarchy bench to its
10^4 and 10^5 member points. Each bench also writes its JSON report into a
fresh RRMP_BENCH_JSON_DIR per side, and each report's "ok", "scalars" and
"verdicts" must be equal too: some scalars never reach stdout. Its tables
are covered by stdout, and the "(json written to ...)" line, which names
the per-side directory, is dropped before stdout is compared.

It also runs nine example invocations (EXAMPLES) from the examples/
directory next to each bench directory, so both trees must have built
rrmp_examples as well as rrmp_bench. Each runs from its own tree's source
directory, so each tree reads its own .fault files; their stdout and exit
codes must be equal. Together they take well under a second.

With --e2e-parent and --e2e-change it also runs the two simulator workloads
of the end-to-end benchmark (sim_region_stream, sim_tree_1e4) on seeds 1-5
from both bench_e2e binaries. The simulator is deterministic per seed, so
every value an untraced run reports that does not measure the machine must
be equal: the latency, makespan, buffer-occupancy and wire-message metrics,
sim.events, every buffer.* and rrmp.* metric, the info values in E2E_INFO
and the correct/attempted/failed counts. The runs default to
--seconds 2 --scale 0.25, about 2 s each; --seconds 10 --scale 1 is the
benchmark's full size. Either half runs alone when only its pair of
arguments is given.

With --pairs N as well, it also runs workloads from both binaries on seeds
1-N at the benchmark's full size, alternating which binary goes first: the
two UDP workloads (udp_small_open, udp_lossy_open) by default, or the
comma-separated BENCHMARK.json workloads given with --pair-workloads (for
example sim_tree_1e4, for a simulator speed claim). Each run's line shows
its failed (member, message) pairs beside ok/FAILED: a run under its
workload's undelivered ceiling reads ok with some pairs failed. Their
wall-clock metrics are not deterministic, so it prints each side's median
and quartiles per end-to-end metric (plus the info cpu_us_per_delivery;
for the simulator workloads, sim.events_per_delivery; and for the UDP
workloads, net.send_syscalls_per_delivery and
net.recv_syscalls_per_delivery), each side's total failed and attempted
pairs per workload, and bench/e2e/run.py's comparison: the share of pairs
the change won and a verdict under the bounds in BENCHMARK.json. It fails
when a run fails its checks, not on a verdict. Ten UDP pairs take about 8
minutes, ten sim_tree_1e4 pairs about 6.

A change that means to alter bench output lists each such bench, workload
or example invocation (as written in EXAMPLES), one a line, in
bench/expected_output_changes.txt. The check
fails when a bench or workload differs and is not listed, and when a listed
one did not change, so the list cannot go stale.

Usage:
  bench/diff_bench_outputs.py --parent PARENT/build-release/bench \\
      --change build-release/bench \\
      [--e2e-parent PARENT/build-e2e/bench_e2e \\
       --e2e-change build-e2e/bench_e2e [--seconds S] [--scale X]
       [--pairs N [--pair-workloads W1,W2]]]
"""

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile

BENCHES = [
    "bench_fig3_longterm_distribution",
    "bench_fig4_no_bufferer",
    "bench_fig6_shortterm_buffering",
    "bench_fig7_received_vs_buffered",
    "bench_fig8_search_vs_bufferers",
    "bench_fig9_search_vs_region_size",
    "bench_ablation_churn_handoff",
    "bench_ablation_feedback_formula",
    "bench_ablation_lambda",
    "bench_ablation_recovery_engine",
    "bench_ablation_regional_backoff",
    "bench_ablation_search_strategy",
    "bench_baseline_policies",
    "bench_ext_capacity_sweep",
    "bench_ext_coordination_sweep",
    "bench_ext_fault_sweep",
    "bench_ext_hierarchy_depth",
    "bench_ext_overload_sweep",
]

# Run from the tree's source directory; the .fault paths are relative to it.
# The all-on scenario_cli run is the only deterministic check that runs flow
# control, hierarchy and coordination together.
EXAMPLES = [
    "quickstart",
    "wan_recovery",
    "file_transfer",
    "custom_host",
    "scenario_cli",
    "scenario_cli --fault-script=examples/churn_lossy_storm.fault",
    "scenario_cli --fault-script=examples/partition_heal.fault --flow",
    "scenario_cli --flow --adaptive-window --piggyback --hierarchy "
    "--coordinate --buffer-bytes=8192",
    "scenario_cli --policy=stability --loss=0.2",
]

E2E_WORKLOADS = ["sim_region_stream", "sim_tree_1e4"]
E2E_SEEDS = range(1, 6)
# The values of an untraced simulator run that are deterministic per seed.
# The rest (setup_s, deliveries_per_s, harness.*, peak_rss_mib, ...) measure
# the machine. Two runs of one binary on one seed agree on all of these.
E2E_METRICS = [
    "delivery_latency_p50_ms",
    "makespan_p50_ms",
    "buffer_bytes_mean",
    "buffer_bytes_peak",
    "wire_msgs_per_delivery",
    "sim.events",
]
E2E_METRIC_PREFIXES = ("buffer.", "rrmp.")
E2E_INFO = [
    "deliveries",
    "delivery_latency_p99_ms",
    "recovery_latency_p50_ms",
    "recovery_latency_p99_ms",
    "recovery_latency_samples",
    "undelivered_ratio",
]
E2E_COUNTS = ["correct", "attempted", "failed"]
UDP_WORKLOADS = ["udp_small_open", "udp_lossy_open"]
# Per-layer metrics every untraced UDP run reports, printed with --pairs.
UDP_SYSCALL_METRICS = ["net.send_syscalls_per_delivery",
                       "net.recv_syscalls_per_delivery"]

EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected_output_changes.txt")


# The parts of a bench's JSON report that stdout does not already cover.
JSON_KEYS = ["ok", "scalars", "verdicts"]


def normalize(stdout):
    """Strip table cell padding, mask 'wall' columns, drop rule widths and
    the line naming where the JSON report went."""
    lines, wall = [], None
    for line in stdout.splitlines():
        if line.startswith("(json written to "):
            continue
        if not line.startswith("|"):
            lines.append(line)
            wall = None  # a table ends at the first non-table line
        elif set(line) <= set("|+- "):
            lines.append("|-|")  # rule row: its widths follow the cells
        else:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if wall is None:  # header row
                wall = {i for i, c in enumerate(cells) if "wall" in c}
            else:
                cells = ["*" if i in wall else c for i, c in enumerate(cells)]
            lines.append("|".join(cells))
    return lines


def run(bench_dir, name):
    """Exit code, normalized stdout lines and JSON reports of one bench."""
    exe = os.path.join(bench_dir, name)
    if not os.path.exists(exe):
        return "missing", [], {}
    with tempfile.TemporaryDirectory() as json_dir:
        env = dict(os.environ, RRMP_HIERARCHY_POINTS="2",
                   RRMP_BENCH_JSON_DIR=json_dir)
        proc = subprocess.run([exe], env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=600)
        reports = {}
        for file in sorted(os.listdir(json_dir)):
            with open(os.path.join(json_dir, file)) as f:
                report = json.load(f)
            reports[file] = {key: report.get(key) for key in JSON_KEYS}
    return proc.returncode, normalize(proc.stdout), reports


def json_details(parent, change):
    """One line per report key (per scalar) that differs."""
    details = []
    for file in sorted(parent.keys() | change.keys()):
        p, c = parent.get(file, {}), change.get(file, {})
        for key in JSON_KEYS:
            pv, cv = p.get(key), c.get(key)
            if key == "scalars" and isinstance(pv, dict) and \
                    isinstance(cv, dict):
                for s in sorted(pv.keys() | cv.keys()):
                    if pv.get(s) != cv.get(s):
                        details.append(f"{file} scalar {s}: {pv.get(s)} -> "
                                       f"{cv.get(s)}")
            elif pv != cv:
                details.append(f"{file} {key}: {pv} -> {cv}")
    return details


def source_dir(build_dir):
    """The source tree a CMake build directory was configured from."""
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    raise RuntimeError(f"{build_dir}: no CMAKE_HOME_DIRECTORY in CMakeCache.txt")


def run_example(bench_dir, invocation):
    """Exit code and stdout lines of one example invocation."""
    build_dir = os.path.dirname(os.path.abspath(bench_dir))
    argv = invocation.split()
    exe = os.path.join(build_dir, "examples", argv[0])
    if not os.path.exists(exe):
        return "missing", [], {}
    proc = subprocess.run([exe] + argv[1:], cwd=source_dir(build_dir),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines(), {}


def run_e2e(binary, workload, seed, seconds, scale):
    """The deterministic values of one bench_e2e run, or its exit code."""
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--scale={scale}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:  # 1: a check failed
        return {"exit code": proc.returncode}
    result = json.loads(lines[-1])
    values = {key: result[key] for key in E2E_COUNTS}
    values.update({m: v["value"] for m, v in result["metrics"].items()
                   if m in E2E_METRICS or m.startswith(E2E_METRIC_PREFIXES)})
    values.update({m: result["info"][m]["value"] for m in E2E_INFO})
    return values


def report(name, changed, listed, details, failures):
    """Print one bench's or workload's verdict and record a failure."""
    print(f"{name}: {'differs' if changed else 'identical'}"
          f"{' (expected)' if changed and listed else ''}", flush=True)
    if changed and not listed:
        failures.append(f"{name}: output differs from the parent")
        for line in details:
            print(f"  {line}")
    elif listed and not changed:
        failures.append(f"{name}: listed as changed but identical")


def check_benches(args, expected, failures):
    runs = [(name, run) for name in BENCHES]
    runs += [(invocation, run_example) for invocation in EXAMPLES]
    for name, runner in runs:
        parent, change = runner(args.parent, name), runner(args.change, name)
        if change[0] == "missing":  # a parent without it is a new bench
            failures.append(f"{name}: not built next to {args.change}")
            continue
        details = []
        if parent[0] != change[0]:
            details.append(f"exit code {parent[0]} -> {change[0]}")
        diff = difflib.unified_diff(parent[1], change[1], "parent", "change",
                                    lineterm="")
        details += list(diff)[:40]
        details += json_details(parent[2], change[2])[:40]
        report(name, parent != change, name in expected, details, failures)


def check_e2e(args, expected, failures):
    for workload in E2E_WORKLOADS:
        details = []
        for seed in E2E_SEEDS:
            parent = run_e2e(args.e2e_parent, workload, seed, args.seconds,
                             args.scale)
            change = run_e2e(args.e2e_change, workload, seed, args.seconds,
                             args.scale)
            for key in sorted(parent.keys() | change.keys()):
                if parent.get(key) != change.get(key):
                    details.append(f"seed {seed} {key}: {parent.get(key)} -> "
                                   f"{change.get(key)}")
        report(f"{workload} (seeds {E2E_SEEDS[0]}-{E2E_SEEDS[-1]})",
               bool(details), workload in expected, details, failures)


def check_pairs(args, failures):
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    "e2e"))
    import run as e2e  # bench/e2e/run.py

    spec = e2e.load_spec()
    binaries = {"parent": args.e2e_parent, "change": args.e2e_change}
    sides = {side: {"workloads": {}} for side in binaries}
    workloads = args.pair_workloads.split(",")
    unknown = set(workloads) - {w["name"] for w in spec["workloads"]}
    if unknown:
        failures.append(f"--pair-workloads: unknown workloads "
                        f"{sorted(unknown)}")
        return
    for seed in range(1, args.pairs + 1):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                what = f"{workload} seed {seed} {side}"
                try:
                    r = e2e.run_measured(binaries[side], workload, seed,
                                         spec["run_seconds"], 1.0)
                except e2e.BenchError as e:
                    failures.append(f"{what}: {e}")
                    continue
                print(f"{what}: {'ok' if r['correct'] else 'FAILED'}, "
                      f"failed {r['failed']} of {r['attempted']}", flush=True)
                if not r["correct"]:
                    failures.append(f"{what}: failed checks "
                                    f"{r['checks_failed']}")
                sides[side]["workloads"].setdefault(
                    workload, {"runs": []})["runs"].append(r)
    declared = spec["end_to_end"] + [{"name": "cpu_us_per_delivery",
                                      "unit": "us"}]
    # Only the simulator workloads fire simulator events, and only the UDP
    # ones make syscalls.
    sim_declared = declared + [{"name": "sim.events_per_delivery",
                                "unit": "ratio"}]
    udp_declared = declared + [m for m in spec["per_layer"] if m["name"] in
                               UDP_SYSCALL_METRICS]
    print(f"\n{'workload':<18} {'side':<7} {'metric':<26} {'median':>12} "
          f"{'q1':>12} {'q3':>12}")
    for workload in workloads:
        for side, results in sides.items():
            runs = [{"metrics": r["metrics"] | r["info"]} for r in
                    results["workloads"].get(workload, {"runs": []})["runs"]]
            names = (sim_declared if workload in E2E_WORKLOADS else
                     udp_declared if workload in UDP_WORKLOADS else declared)
            for name, q in e2e.summarize(runs, names).items():
                print(f"{workload:<18} {side:<7} {name:<26} "
                      f"{q['median']:>12.6g} {q['q1']:>12.6g} "
                      f"{q['q3']:>12.6g}")
    # A run can pass its undelivered ceiling and still strand pairs.
    print(f"\n{'workload':<18} {'side':<7} {'failed':>10} {'attempted':>12}")
    for workload in workloads:
        for side, results in sides.items():
            runs = results["workloads"].get(workload, {"runs": []})["runs"]
            print(f"{workload:<18} {side:<7} "
                  f"{sum(r['failed'] for r in runs):>10} "
                  f"{sum(r['attempted'] for r in runs):>12}")
    e2e.compare(sides["parent"], sides["change"], spec)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="parent's bench build dir")
    ap.add_argument("--change", help="change's bench build dir")
    ap.add_argument("--e2e-parent", help="parent's bench_e2e binary")
    ap.add_argument("--e2e-change", help="change's bench_e2e binary")
    ap.add_argument("--seconds", type=float, default=2.0,
                    help="bench_e2e --seconds (default 2; full size 10)")
    ap.add_argument("--scale", type=float, default=0.25,
                    help="bench_e2e --scale (default 0.25; full size 1)")
    ap.add_argument("--pairs", type=int, default=0,
                    help="also run the --pair-workloads on seeds 1..N, "
                         "full size, from both binaries")
    ap.add_argument("--pair-workloads", default=",".join(UDP_WORKLOADS),
                    help="comma-separated BENCHMARK.json workloads for "
                         "--pairs (default: the two UDP workloads)")
    args = ap.parse_args()
    benches = args.parent is not None or args.change is not None
    e2e = args.e2e_parent is not None or args.e2e_change is not None
    if benches and (args.parent is None or args.change is None):
        ap.error("--parent and --change go together")
    if e2e and (args.e2e_parent is None or args.e2e_change is None):
        ap.error("--e2e-parent and --e2e-change go together")
    if not benches and not e2e:
        ap.error("give --parent/--change, --e2e-parent/--e2e-change or both")
    if args.pairs and not e2e:
        ap.error("--pairs needs --e2e-parent and --e2e-change")

    with open(EXPECTED_FILE) as f:
        expected = {l.strip() for l in f if l.strip() and not l.startswith("#")}
    checked = set(BENCHES) | set(EXAMPLES) | set(E2E_WORKLOADS)
    failures = [f"{name}: listed in {EXPECTED_FILE} but not a checked bench, "
                f"example or workload"
                for name in sorted(expected - checked)]
    if benches:
        check_benches(args, expected, failures)
    if e2e:
        check_e2e(args, expected, failures)
    if args.pairs:
        check_pairs(args, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
