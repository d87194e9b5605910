"""Steadiness check: two alternating sets of runs of the same code.

    python3 perfbench/steady.py [--seeds 10] [--workloads a,b] [--traced 3]

For each workload, runs `run.py` for `run_seconds` (BENCHMARK.json) once
per seed 1..N for set A and once for set B, alternating which set goes
first, so a drift of the host touches both sets alike. Prints, per workload and end-to-end metric, each set's median
and quartiles, the quartile spread as a share of the median, and the shift
of B's median from A's in the worse direction, each against the metric's
bound in BENCHMARK.json. The spread of setup_s is printed but not held to
its bound. `--traced N` adds N traced runs per workload and prints the
tracing overhead on aircraft_steps_per_s. Results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def worse_shift(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced", type=int, default=0,
                        help="traced runs per workload for the overhead")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    seeds = range(1, args.seeds + 1)
    report = {"seconds": seconds, "seeds": list(seeds), "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for i, seed in enumerate(seeds):
            for label in ("AB" if i % 2 == 0 else "BA"):
                sets[label].append(run_once(workload, seed, seconds, 0))
        rows = {}
        print(f"\n{workload}: {len(seeds)} seeds x 2 sets, {seconds} s runs")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for label, runs in sets.items():
                stats[label] = spread([r["metrics"][name]["value"] for r in runs])
            shift = worse_shift(stats["A"][0], stats["B"][0], metric["better"])
            held = [stats[s][3] for s in "AB"] if name != "setup_s" else []
            passed = all(v <= bound for v in held) and shift <= bound
            ok = ok and passed
            rows[name] = {"A": stats["A"], "B": stats["B"], "shift": shift,
                          "bound": bound, "passed": passed}
            for label in "AB":
                med, q1, q3, sp = stats[label]
                print(f"  {name:22s} {label} median {med:12.5g}  "
                      f"q1 {q1:12.5g}  q3 {q3:12.5g}  spread {sp:6.2%}")
            print(f"  {name:22s}   B worse than A by {shift:+.2%} "
                  f"(bound {bound:.0%}){'' if passed else '  FAIL'}")
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        failed_share = {label: sum(r["failed"] for r in runs)
                        / sum(r["attempted"] for r in runs)
                        for label, runs in sets.items()}
        attempted = sorted(r["attempted"] for runs in sets.values() for r in runs)
        print(f"  correct in every run: {correct}; failed share A "
              f"{failed_share['A']:.4f} B {failed_share['B']:.4f}; "
              f"attempted per run {attempted[0]}-{attempted[-1]}")
        ok = ok and correct and failed_share["A"] == failed_share["B"]
        entry = {"metrics": rows, "runs": sets, "correct": correct}
        if args.traced:
            traced = [run_once(workload, seed, seconds, 1)
                      for seed in list(seeds)[:args.traced]]
            traced_rate = statistics.median(
                r["metrics"]["trace.aircraft_steps_per_s"]["value"] for r in traced)
            plain = rows["aircraft_steps_per_s"]["A"][0]
            overhead = 1.0 - traced_rate / plain
            print(f"  traced aircraft_steps_per_s median {traced_rate:.5g} vs "
                  f"untraced {plain:.5g}: tracing costs {overhead:.1%}")
            entry["traced"] = traced
            entry["tracing_overhead"] = overhead
            ok = ok and all(r["correct"] for r in traced)
        report["workloads"][workload] = entry
    out = ROOT / "perfbench" / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"\n{'all within bounds' if ok else 'OUT OF BOUNDS'}; wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
