#!/usr/bin/env python3
"""Check that a change leaves the deterministic benches' output unchanged.

Runs the 17 deterministic benches (BENCHES) from two build trees, the parent
commit's and the change's, and compares their exit codes and stdout. Table
columns whose header contains "wall" hold wall-clock times, so their cells
are masked before comparing. RRMP_HIERARCHY_POINTS=2 keeps the hierarchy
bench to its 10^4 and 10^5 member points. Each bench also writes its JSON
report into a fresh RRMP_BENCH_JSON_DIR per side, and each report's "ok",
"scalars" and "verdicts" must be equal too: some scalars never reach
stdout. Its tables are covered by stdout, and the "(json written to ...)"
line, which names the per-side directory, is dropped before stdout is
compared.

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
and the correct/attempted/failed counts. Memory is checked too: each
workload's median peak_rss_mib over the seeds may exceed the parent's by at
most RSS_TOLERANCE. bench_e2e reads peak_rss_mib from ru_maxrss, which
Linux carries across exec, so each run starts through a forked shell (in its
own session, whose process group a timeout kills): it then counts the
workload's memory, not this script's own high-water mark. The runs default
to --seconds 2 --scale 0.25, about 2 s each; --seconds 10 --scale 1 is the
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
bench/expected_output_changes.txt. Only the entries the change adds count.
The parent tree's own list is read too, from the source directory that the
parent build's CMakeCache.txt names (the --parent build's, or the
--e2e-parent build's); a missing list is empty. An entry in both lists is
printed as carried over and ignored: it neither exempts nor fails anything,
so a change cannot exempt an output that its parent's list also names.
The check fails when a bench or workload differs and the change does not
list it, and when one the change lists did not change, so a stale list
fails only the change that wrote it, and the check never exempts more than
the change's own entries. A listed workload is also exempt from the memory
check, and the log shows how far it moved: each moved deterministic value's
median over the seeds, per side.

Correctness is never exempt, listed or not. The check fails when a bench or
example that exited 0 at the parent exits otherwise, when a JSON report's
"ok" (or one of its verdicts) that was true turns false or goes missing,
and when a simulator run that printed a report at the parent prints none
(it crashed), or was correct and is not, or strands more (member, message)
pairs than the parent's run on the same seed.

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
import signal
import statistics
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
# peak_rss_mib measures the machine but repeats closely per seed. Five
# sim_tree_1e4 runs of one binary at the default size (seeds 1-5) spread by
# at most 1.2% of their median (0.38 of 31.7 MiB), and two such sets'
# medians differed by 0.25%. Started through a forked shell,
# sim_region_stream runs of one binary on seeds 1-5 read 6.51-6.71 MiB, and
# six such sets' medians lay between 6.62 and 6.71 MiB (1.4% apart). So a
# median more than 2% above the parent's is the change's doing.
RSS_TOLERANCE = 0.02
UDP_WORKLOADS = ["udp_small_open", "udp_lossy_open"]
# Per-layer metrics every untraced UDP run reports, printed with --pairs.
UDP_SYSCALL_METRICS = ["net.send_syscalls_per_delivery",
                       "net.recv_syscalls_per_delivery"]

EXPECTED_NAME = "expected_output_changes.txt"
EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             EXPECTED_NAME)


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


def read_expected(path):
    """The names an expected_output_changes.txt lists; a missing list is
    empty."""
    try:
        with open(path) as f:
            return {l.strip() for l in f
                    if l.strip() and not l.startswith("#")}
    except FileNotFoundError:
        return set()


def parent_lists(args):
    """The parent tree's expected_output_changes.txt, found through each
    parent build given: a bench build dir's tree has it in bench/, and the
    e2e build is configured from bench/e2e/."""
    paths = set()
    if args.parent is not None:
        root = source_dir(os.path.dirname(os.path.abspath(args.parent)))
        paths.add(os.path.join(root, "bench", EXPECTED_NAME))
    if args.e2e_parent is not None:
        build_dir = os.path.dirname(os.path.abspath(args.e2e_parent))
        e2e_source = source_dir(build_dir)
        paths.add(os.path.join(os.path.dirname(e2e_source), EXPECTED_NAME))
    return paths


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
    """The deterministic values of one bench_e2e run (or its exit code) and
    its peak_rss_mib (None when the run printed no report).

    The run is a child that a shell forks, not a direct child of this
    script: ru_maxrss survives exec, so a direct child would start from
    this script's high-water mark. The shell's session is killed whole on a
    timeout, so no run outlives the check."""
    cmd = ["sh", "-c", '"$0" "$@" & wait $!', binary,
           f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--scale={scale}"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=600)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:  # 1: a check failed
        return {"exit code": proc.returncode}, None
    result = json.loads(lines[-1])
    values = {key: result[key] for key in E2E_COUNTS}
    values.update({m: v["value"] for m, v in result["metrics"].items()
                   if m in E2E_METRICS or m.startswith(E2E_METRIC_PREFIXES)})
    values.update({m: result["info"][m]["value"] for m in E2E_INFO})
    return values, result["metrics"]["peak_rss_mib"]["value"]


def passed_verdicts(report):
    """The names of a JSON report's verdicts that hold."""
    return {v.get("what") for v in report.get("verdicts") or [] if v.get("ok")}


def broken(parent, change):
    """What the change broke that was correct at the parent: a zero exit
    code turned nonzero, or a JSON report's ok or one of its verdicts turned
    false or went missing."""
    what = []
    if parent[0] == 0 and change[0] != 0:
        what.append(f"exit code {parent[0]} -> {change[0]}")
    for file, p in sorted(parent[2].items()):
        c = change[2].get(file, {})
        if p.get("ok") is True and c.get("ok") is not True:
            what.append(f"{file} ok: true -> {json.dumps(c.get('ok'))}")
        failed = {v.get("what") for v in c.get("verdicts") or []
                  if not v.get("ok")}
        for verdict in sorted(passed_verdicts(p) - passed_verdicts(c)):
            what.append(f"{file} verdict "
                        f"{'failed' if verdict in failed else 'missing'}: "
                        f"{verdict}")
    return what


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
        for what in broken(parent, change):
            failures.append(f"{name}: correctness lost: {what}")


def check_rss(workload, parent, change, listed, failures):
    """Fail when the change's median peak_rss_mib exceeds the parent's by
    more than RSS_TOLERANCE, unless the workload is listed."""
    # A change run without a report, where the parent's had one, already
    # fails the correctness check.
    parent = [v for v in parent if v is not None]
    change = [v for v in change if v is not None]
    if not parent or not change:
        return
    base, new = statistics.median(parent), statistics.median(change)
    print(f"{workload} peak_rss_mib median: {base:.2f} -> {new:.2f} MiB",
          flush=True)
    if new > base * (1 + RSS_TOLERANCE):
        print(f"  more than {RSS_TOLERANCE:.0%} above the parent"
              f"{' (expected)' if listed else ''}")
        if not listed:
            failures.append(f"{workload}: median peak_rss_mib {new:.2f} MiB "
                            f"is more than {RSS_TOLERANCE:.0%} above the "
                            f"parent's {base:.2f}")


def print_moved_medians(parent_runs, change_runs):
    """Each deterministic value that moved on some seed: its median over
    the seeds, per side."""
    moved = sorted({key for p, c in zip(parent_runs, change_runs)
                    for key in p.keys() | c.keys() if p.get(key) != c.get(key)})
    for key in moved:
        medians = []
        for runs in (parent_runs, change_runs):
            values = [r[key] for r in runs
                      if isinstance(r.get(key), (int, float))]
            medians.append(f"{statistics.median(values):.6g}" if values
                           else "-")
        print(f"  {key} median: {medians[0]} -> {medians[1]}")


def check_e2e(args, expected, failures):
    for workload in E2E_WORKLOADS:
        details, rss_parent, rss_change = [], [], []
        parent_runs, change_runs = [], []
        for seed in E2E_SEEDS:
            parent, rss = run_e2e(args.e2e_parent, workload, seed,
                                  args.seconds, args.scale)
            rss_parent.append(rss)
            change, rss = run_e2e(args.e2e_change, workload, seed,
                                  args.seconds, args.scale)
            rss_change.append(rss)
            parent_runs.append(parent)
            change_runs.append(change)
            for key in sorted(parent.keys() | change.keys()):
                if parent.get(key) != change.get(key):
                    details.append(f"seed {seed} {key}: {parent.get(key)} -> "
                                   f"{change.get(key)}")
            # A run that crashed or printed no report carries only its
            # "exit code", and loses the parent's report and correctness.
            if "correct" in parent and "correct" not in change:
                failures.append(f"{workload} seed {seed}: correctness lost: "
                                f"no report (exit code "
                                f"{change.get('exit code')})")
            elif parent.get("correct") is True and \
                    change.get("correct") is not True:
                failures.append(f"{workload} seed {seed}: correctness lost: "
                                f"the parent's run was correct, the change's "
                                f"is not")
            if change.get("failed", 0) > parent.get("failed", 0):
                failures.append(f"{workload} seed {seed}: correctness lost: "
                                f"failed pairs {parent.get('failed')} -> "
                                f"{change.get('failed')}")
        listed = workload in expected
        report(f"{workload} (seeds {E2E_SEEDS[0]}-{E2E_SEEDS[-1]})",
               bool(details), listed, details, failures)
        if details and listed:
            print_moved_medians(parent_runs, change_runs)
        check_rss(workload, rss_parent, rss_change, listed, failures)


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

    expected = read_expected(EXPECTED_FILE)
    carried = expected & set().union(*map(read_expected, parent_lists(args)))
    for name in sorted(carried):
        print(f"{name}: carried over from the parent's list; ignored")
    expected -= carried
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
