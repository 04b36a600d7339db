#!/usr/bin/env python3
"""Check that a change leaves the deterministic benches' output unchanged.

Runs every deterministic bench from two build trees, the parent commit's and
the change's, and compares their exit codes and stdout. Table columns whose
header contains "wall" hold wall-clock times, so their cells are masked
before comparing. RRMP_HIERARCHY_POINTS=2 keeps the hierarchy bench to its
10^4 and 10^5 member points.

A change that means to alter bench output lists each such bench, one name a
line, in bench/expected_output_changes.txt. The check fails when a bench
differs and is not listed, and when a listed bench did not change, so the
list cannot go stale.

Usage:
  bench/diff_bench_outputs.py --parent PARENT/build-release/bench \\
      --change build-release/bench
"""

import argparse
import difflib
import os
import subprocess
import sys

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

EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected_output_changes.txt")


def normalize(stdout):
    """Strip table cell padding, mask 'wall' columns, drop rule widths."""
    lines, wall = [], None
    for line in stdout.splitlines():
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
    exe = os.path.join(bench_dir, name)
    if not os.path.exists(exe):
        return "missing", []
    env = dict(os.environ, RRMP_HIERARCHY_POINTS="2")
    proc = subprocess.run([exe], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=600)
    return proc.returncode, normalize(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent's bench build dir")
    ap.add_argument("--change", required=True, help="change's bench build dir")
    args = ap.parse_args()

    with open(EXPECTED_FILE) as f:
        expected = {l.strip() for l in f if l.strip() and not l.startswith("#")}
    failures = [f"{name}: listed in {EXPECTED_FILE} but not a checked bench"
                for name in sorted(expected - set(BENCHES))]
    for name in BENCHES:
        parent, change = run(args.parent, name), run(args.change, name)
        if change[0] == "missing":  # a parent without it is a new bench
            failures.append(f"{name}: not built in {args.change}")
            continue
        changed, listed = parent != change, name in expected
        print(f"{name}: {'differs' if changed else 'identical'}"
              f"{' (expected)' if changed and listed else ''}", flush=True)
        if changed and not listed:
            failures.append(f"{name}: output differs from the parent")
            if parent[0] != change[0]:
                print(f"  exit code {parent[0]} -> {change[0]}")
            diff = difflib.unified_diff(parent[1], change[1], "parent",
                                        "change", lineterm="")
            for line in list(diff)[:40]:
                print(f"  {line}")
        elif listed and not changed:
            failures.append(f"{name}: listed as changed but identical")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
