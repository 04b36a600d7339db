#!/usr/bin/env python3
"""Build and run the end-to-end RRMP benchmark (bench_e2e.cpp).

One run (the interface BENCHMARK.json declares):

    python3 bench/e2e/run.py --workload udp_small_open --seed 3 --seconds 10 --trace 0

prints `workload metric value unit` lines, then as its last line one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are BENCHMARK.json's end_to_end metrics; with --trace 1 they are
its per_layer metrics, taken from a traced run that follows an untraced one
on the same seed (their CPU-per-delivery ratio is bench.trace_overhead).

A suite (no --workload):

    python3 bench/e2e/run.py [--workloads a,b] [--reps 5] [--seed 1]
        [--seconds 10] [--scale 1] [--trace 1] [--out results.json]
        [--compare base.json]

runs every workload --reps times on seeds seed..seed+reps-1, prints every
metric of every run and each metric's median and quartiles, and writes the
runs to --out. --compare reports, against a file written by --out, each
side's median and quartiles, the share of run pairs won and a verdict per
end-to-end metric, under the bounds in BENCHMARK.json.

--smoke runs every workload at --scale 0.05, traced and untraced, and fails
unless every correctness check passes and every emitted metric is declared
in BENCHMARK.json. The build tree is build-e2e/ at the repository root; trace
and per-layer files land next to the binary.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-e2e"
RUN_TIMEOUT_S = 170
SMOKE_SCALE = 0.05
# Set-up-only processes run before each measured one. A build's speed
# differs from process to process (the 400-member cluster takes ~0.95 or
# ~1.5 ms), so setup_s is the median over processes: one process gave a
# spread of 0.29 over runs, the median of five 0.12.
SETUP_PROCESSES = 4


class BenchError(Exception):
    """The benchmark itself could not run (build, launch or output)."""


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure (once) and build build-e2e/; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} does not hold the RRMP sources")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, **quiet).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "bench_e2e"]
    if subprocess.run(cmd, **quiet).returncode != 0:
        raise BenchError("build failed")
    return BUILD / "bench_e2e"


def run_once(binary, workload, seed, seconds, scale, trace, setup_only=False):
    """One process, one workload; returns the binary's parsed JSON."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--scale={scale}",
           f"--out={Path(binary).parent}"]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} timed out after {RUN_TIMEOUT_S} s") from e
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload} exited {p.returncode} without a result")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: failed checks: "
              f"{', '.join(result['checks_failed'])}", file=sys.stderr)
    return result


def run_measured(binary, workload, seed, seconds, scale):
    """An untraced run whose setup_s is the median over it and
    SETUP_PROCESSES set-up-only processes."""
    setups = [run_once(binary, workload, seed, seconds, scale, trace=False,
                       setup_only=True)["metrics"]["setup_s"]["value"]
              for _ in range(SETUP_PROCESSES)]
    result = run_once(binary, workload, seed, seconds, scale, trace=False)
    setup = result["metrics"]["setup_s"]
    setup["value"] = statistics.median(setups + [setup["value"]])
    return result


def with_overhead(untraced, traced):
    """The traced run's metrics plus bench.trace_overhead: untraced over
    traced CPU time per delivery (1 means tracing costs nothing)."""
    base = untraced["info"]["cpu_us_per_delivery"]["value"]
    traced_cpu = traced["info"]["cpu_us_per_delivery"]["value"]
    metrics = dict(traced["metrics"])
    metrics["bench.trace_overhead"] = {
        "value": base / traced_cpu if traced_cpu > 0 else 0.0, "unit": "ratio"}
    return metrics


def select(metrics, declared):
    """The declared metrics, in declaration order; all must be present."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics missing from the output: {missing}")
    return {m["name"]: metrics[m["name"]] for m in declared}


def print_lines(workload, values):
    for name, v in values.items():
        print(f"{workload} {name} {v['value']!r} {v['unit']}")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---- one run ------------------------------------------------------------------

def driver_main(args, spec):
    binary = build()
    if args.trace:
        untraced, traced = (
            run_once(binary, args.workload, args.seed, args.seconds,
                     args.scale, trace=t) for t in (False, True))
        metrics = select(with_overhead(untraced, traced), spec["per_layer"])
        runs = [untraced, traced]
    else:
        untraced = run_measured(binary, args.workload, args.seed,
                                args.seconds, args.scale)
        metrics = select(untraced["metrics"], spec["end_to_end"])
        runs = [untraced]
    print_lines(args.workload, metrics)
    print_lines(args.workload, runs[-1]["info"])
    correct = all(r["correct"] for r in runs)
    print(json.dumps({"correct": correct, "attempted": runs[-1]["attempted"],
                      "failed": runs[-1]["failed"], "metrics": metrics}))
    return 0 if correct else 1


# ---- suites -------------------------------------------------------------------

def host_info():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {"cpu": model, "cpus": os.cpu_count(),
            "platform": platform.platform(), "commit": commit}


def summarize(runs, declared):
    summary = {}
    for m in declared:
        values = [r["metrics"][m["name"]]["value"] for r in runs
                  if m["name"] in r["metrics"]]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "unit": m["unit"],
                              "spread": (q3 - q1) / med if med else 0.0}
    return summary


def suite_main(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        raise BenchError(f"unknown workloads: {unknown}")
    binary = build()
    results = {"host": host_info(), "seconds": args.seconds,
               "scale": args.scale, "seed": args.seed, "reps": args.reps,
               "workloads": {}}
    ok = True
    for w in workloads:
        runs = []
        for rep in range(args.reps):
            r = run_measured(binary, w, args.seed + rep, args.seconds,
                             args.scale)
            print_lines(w, r["metrics"] | r["info"])
            ok = ok and r["correct"]
            runs.append(r)
        entry = {"runs": runs, "summary": summarize(runs, spec["end_to_end"])}
        if args.trace:
            traced = run_once(binary, w, args.seed, args.seconds, args.scale,
                              trace=True)
            ok = ok and traced["correct"]
            entry["traced"] = traced
            entry["per_layer"] = select(with_overhead(runs[0], traced),
                                        spec["per_layer"])
            print_lines(w, entry["per_layer"])
            print(f"{w} trace files: {binary.parent}/trace_{w}.json "
                  f"{binary.parent}/layers_{w}.json")
        results["workloads"][w] = entry
    print()
    print(f"{'workload':<18} {'metric':<26} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>7}")
    for w, entry in results["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{w:<18} {name:<26} {s['median']:>14.6g} {s['q1']:>14.6g} "
                  f"{s['q3']:>14.6g} {s['spread']:>7.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
            f.write("\n")
    if args.compare:
        with open(args.compare) as f:
            compare(json.load(f), results, spec)
    return 0 if ok else 1


def compare(base, new, spec):
    """Per workload and end-to-end metric: medians, quartiles, pairs won and
    a verdict (choosing-metrics guide, sections 6-8)."""
    print()
    print(f"{'workload':<18} {'metric':<26} {'base median':>12} "
          f"{'new median':>12} {'change':>8} {'won':>5}  verdict")
    for w, entry in new["workloads"].items():
        if w not in base["workloads"]:
            continue
        base_runs = base["workloads"][w]["runs"]
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            b = [r["metrics"][name]["value"] for r in base_runs]
            n = [r["metrics"][name]["value"] for r in entry["runs"]]
            bq1, bmed, bq3 = quartiles(b)
            _, nmed, _ = quartiles(n)
            def better(x, y):
                return x < y if lower else x > y
            pairs = list(zip(b, n))
            won = sum(better(y, x) for x, y in pairs) / len(pairs)
            worse_by = ((nmed - bmed) if lower else (bmed - nmed)) / bmed \
                if bmed else 0.0
            all_better = all(better(y, x) for x in b for y in n)
            if won >= 0.9 and abs(nmed - bmed) > bq3 - bq1 and better(nmed, bmed):
                verdict = "improved"
            elif worse_by > m["bound"]:
                verdict = "regressed"
            elif (bq3 - bq1) / bmed > m["bound"] if bmed else False:
                verdict = "improved" if all_better else "unresolved"
            else:
                verdict = "unchanged"
            print(f"{w:<18} {name:<26} {bmed:>12.6g} {nmed:>12.6g} "
                  f"{-worse_by:>+8.1%} {won:>5.2f}  {verdict}")


# ---- smoke --------------------------------------------------------------------

def smoke_main(args, spec):
    binary = Path(args.bin) if args.bin else build()
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    failures = []
    for w in (x["name"] for x in spec["workloads"]):
        before = len(failures)
        untraced = run_once(binary, w, args.seed, args.seconds, SMOKE_SCALE,
                            trace=False)
        traced = run_once(binary, w, args.seed, args.seconds, SMOKE_SCALE,
                          trace=True)
        for r in (untraced, traced):
            if not r["correct"]:
                failures.append(f"{w}: checks failed: {r['checks_failed']}")
            undeclared = set(r["metrics"]) - declared
            if undeclared:
                failures.append(f"{w}: undeclared metrics {sorted(undeclared)}")
        try:
            select(untraced["metrics"], spec["end_to_end"])
            select(with_overhead(untraced, traced), spec["per_layer"])
        except BenchError as e:
            failures.append(f"{w}: {e}")
        for f in (binary.parent / f"trace_{w}.json",
                  binary.parent / f"layers_{w}.json"):
            try:
                json.loads(f.read_text())
            except (OSError, ValueError) as e:
                failures.append(f"{w}: {f.name} unreadable: {e}")
        print(f"{w}: {'ok' if len(failures) == before else 'FAILED'}")
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


def main():
    spec_path = ROOT / "BENCHMARK.json"
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="run this one workload once")
    ap.add_argument("--workloads", help="comma-separated suite subset")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured window (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=1)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--out", help="write the suite's runs to this JSON file")
    ap.add_argument("--compare", help="compare the suite against this file")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bin", help="prebuilt bench_e2e (smoke test)")
    args = ap.parse_args()
    try:
        if not spec_path.is_file():
            raise BenchError(f"{spec_path} not found")
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.smoke:
            return smoke_main(args, spec)
        if args.workload:
            if args.workload not in {w["name"] for w in spec["workloads"]}:
                raise BenchError(f"unknown workload {args.workload}")
            return driver_main(args, spec)
        return suite_main(args, spec)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
