#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Usage (from the repository root):

    python3 e2e_bench/steadiness.py --seeds 10 [--workloads lab1_batch ...]
        [--first-seed 1] [--seconds 12] [--out e2e_bench/steadiness/set1.json]

For every workload and end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, next to the metric's bound in BENCHMARK.json. With --out
it also stores every run's raw result, so a second set can be compared with
the first (--compare OTHER.json: median drift per metric, as a share of the
first set's median, in the metric's worse direction).

    python3 e2e_bench/steadiness.py --markdown SET1.json SET2.json

runs nothing: it prints the stored sets as the Markdown tables of
steadiness/README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "wall_s": wall, "result": result}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def report(runs_by_workload, bench):
    metrics = bench["end_to_end"]
    summary = {}
    for workload, runs in runs_by_workload.items():
        summary[workload] = {}
        walls = [r["wall_s"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, wall median "
              f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            s = summarize(values)
            summary[workload][m["name"]] = s
            flag = "" if s["spread"] <= m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {m['name']:24} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:8.4f} {m['bound']:6.2f}{flag}")
    return summary


def compare(first, second, bench):
    print("\nmedian drift, second set against first (positive = worse):")
    for workload in second:
        for m in bench["end_to_end"]:
            drift = worse_drift(m, first[workload][m["name"]],
                                second[workload][m["name"]])
            flag = "" if drift <= m["bound"] else "  <-- beyond bound"
            print(f"  {workload:16} {m['name']:24} {drift:+8.4f} "
                  f"(bound {m['bound']:.2f}){flag}")


def host_drift(seconds, window=5.0):
    """Times one fixed single-thread work unit over and over and reports the
    mean time per unit in consecutive windows: the host's own speed drift,
    with nothing of the program involved."""
    def unit():
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        return acc

    windows = []
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        start, n = time.monotonic(), 0
        while time.monotonic() - start < window:
            unit()
            n += 1
        windows.append((time.monotonic() - start) / n)
    s = summarize(windows)
    print(f"\nhost drift: {len(windows)} windows of {window:.0f} s, unit time "
          f"min {min(windows) * 1e3:.2f} ms, median {s['median'] * 1e3:.2f} ms, "
          f"max {max(windows) * 1e3:.2f} ms, spread {s['spread']:.4f}, "
          f"max/min {max(windows) / min(windows):.3f}")
    return {"window_s": window, "unit_s": windows, **s}


def worse_drift(metric, first, second):
    """Second median against the first, as a share of the first, positive
    when the second is worse."""
    a, b = first["median"], second["median"]
    worse = (b - a) if metric["better"] == "lower" else (a - b)
    return worse / a if a else 0.0


def markdown(paths, bench):
    sets = [json.loads(Path(p).read_text()) for p in paths]
    for i, data in enumerate(sets, 1):
        d = data.get("host_drift")
        if d:
            print(f"Set {i} host drift: {len(d['unit_s'])} windows of "
                  f"{d['window_s']:.0f} s, fixed work took "
                  f"{min(d['unit_s']) * 1e3:.2f} to {max(d['unit_s']) * 1e3:.2f} ms"
                  f" (median {d['median'] * 1e3:.2f} ms, spread {d['spread']:.3f},"
                  f" max/min {max(d['unit_s']) / min(d['unit_s']):.3f}).\n")
    print("| metric | bound | largest spread (workload, set) | 3 x largest |")
    print("|---|---|---|---|")
    for m in bench["end_to_end"]:
        spread, where = max(
            (data["summary"][w][m["name"]]["spread"], f"{w}, set {i}")
            for i, data in enumerate(sets, 1) for w in data["summary"])
        print(f"| `{m['name']}` | {m['bound']} | {spread:.3f} ({where}) |"
              f" {3 * spread:.3f} |")
    print()
    for workload in sets[0]["summary"]:
        walls = [r["wall_s"] for data in sets for r in data["runs"][workload]]
        print(f"### {workload}\n\nRun wall time: median "
              f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s.\n")
        head = "| metric | bound |"
        rule = "|---|---|"
        for i in range(1, len(sets) + 1):
            head += f" set {i} median | q1 | q3 | spread |"
            rule += "---|---|---|---|"
        if len(sets) > 1:
            head += " median drift |"
            rule += "---|"
        print(head)
        print(rule)
        for m in bench["end_to_end"]:
            row = f"| `{m['name']}` | {m['bound']} |"
            stats = [data["summary"][workload][m["name"]] for data in sets]
            for st in stats:
                row += (f" {st['median']:.4g} | {st['q1']:.4g} | {st['q3']:.4g} |"
                        f" {st['spread']:.3f} |")
            if len(sets) > 1:
                row += f" {worse_drift(m, stats[0], stats[1]):+.3f} |"
            print(row)
        print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        help="default: every workload; none with --drift only")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    parser.add_argument("--drift", type=int, default=0, metavar="SECONDS",
                        help="also measure host speed drift for this long")
    parser.add_argument("--markdown", nargs="+", metavar="SET.json")
    args = parser.parse_args()

    bench = load_bench()
    if args.markdown:
        markdown(args.markdown, bench)
        return
    workloads = args.workloads
    if workloads is None:
        workloads = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs[workload].append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: {runs[workload][-1]['wall_s']:.1f} s",
                  file=sys.stderr, flush=True)
    summary = report(runs, bench)
    drift = host_drift(args.drift) if args.drift else None
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"seconds": seconds, "runs": runs, "summary": summary,
             "host_drift": drift}, indent=1))
    if args.compare:
        other = json.loads(Path(args.compare).read_text())
        compare(other["summary"], summary, bench)


if __name__ == "__main__":
    main()
