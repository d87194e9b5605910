"""Record one commit's benchmark figures in `BENCH_<sha>.json`.

    python3 tools/bench_record.py [--seeds 5] [--seconds 30] [--repo PATH]

For each workload of `BENCHMARK.json`, runs `perfbench/run.py` untraced
once per seed (seeds 1..N, one after another) and once traced at seed 1,
then writes `BENCH_<short sha>.json` at the root of the checkout it
measures. The file holds, per workload, the median, quartiles and range of
every end-to-end metric over the untraced runs, each run's `correct` flag
and raw values, and the traced run's per-layer metrics; plus the git SHA,
the line count of `src/` and its count of defaulted parameters. It needs the standard library only; the runs
import numpy themselves.
"""

from __future__ import annotations

import argparse
import ast
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(repo: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One `perfbench/run.py` run; its last output line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=repo, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles and range of `values`."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def src_lines(repo: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in (repo / "src").rglob("*.py"))


def defaulted_params(repo: Path) -> int:
    """The parameters with a default of every `def` and `lambda` in `src/`:
    its positional defaults and its keyword-only ones that have one."""
    return sum(len(node.args.defaults)
               + sum(d is not None for d in node.args.kw_defaults)
               for path in (repo / "src").rglob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)))


def record(repo: Path, seeds: int, seconds: float) -> dict:
    bench = json.loads((repo / "BENCHMARK.json").read_text())
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo,
                         capture_output=True, text=True,
                         check=True).stdout.strip()
    out = {"sha": sha, "src_lines": src_lines(repo),
           "defaulted_params": defaulted_params(repo), "seeds": seeds,
           "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_bench(repo, workload, seed, seconds, 0)
                for seed in range(1, seeds + 1)]
        traced = run_bench(repo, workload, 1, seconds, 1)
        names = [m["name"] for m in bench["end_to_end"]]
        out["workloads"][workload] = {
            "correct": [run["correct"] for run in runs],
            "failed": [run["failed"] for run in runs],
            "end_to_end": {
                name: {"unit": runs[0]["metrics"][name]["unit"],
                       "values": [run["metrics"][name]["value"] for run in runs],
                       **spread([run["metrics"][name]["value"] for run in runs])}
                for name in names},
            "traced": {"seed": 1, "correct": traced["correct"],
                       "metrics": traced["metrics"]},
        }
        print(f"{workload}: aircraft_steps_per_s median "
              f"{out['workloads'][workload]['end_to_end']['aircraft_steps_per_s']['median']:.0f}",
              file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--repo", type=Path, default=ROOT,
                        help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("quartiles need at least two seeds")
    result = record(args.repo.resolve(), args.seeds, args.seconds)
    path = args.repo.resolve() / f"BENCH_{result['sha'][:7]}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
