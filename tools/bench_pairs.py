"""Alternating parent/change pairs of `perfbench/run.py` runs.

    python3 tools/bench_pairs.py --parent REV [--change REV] [--pairs 10]
        [--first-seed 101] [--seconds 30] [--workload NAME ...] [--out FILE]

The parent side runs from a `git archive` export of revision `--parent`
in a temporary directory, so the repository's own files and git metadata
are not touched. The change side runs from this checkout, its working tree
as it stands, or from an export of `--change` when given. Pair i runs both
sides untraced at seed `first_seed + i` with the same `--seconds`; even
pairs run the parent first, odd pairs the change first. Each pair runs
every workload before the next pair starts.

For each workload and end-to-end metric of the parent's `BENCHMARK.json`,
prints each side's median and quartiles, the median's change, and how many
pairs the change won (ties count for neither side). A gain is claimed only
over at least ten pairs, when the change wins at least nine tenths of them
and the medians differ by more than the parent's interquartile range.
`--out` writes every run's parsed output as JSON. It needs the standard
library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from bench_record import run_bench, spread

ROOT = Path(__file__).resolve().parent.parent


def export(revision: str, into: Path) -> Path:
    """The tree of `revision`, written under `into` by `git archive`."""
    tree = into / revision.replace("/", "_")
    tree.mkdir()
    archive = into / f"{tree.name}.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive),
                    revision], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return tree


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Each side's spread, the change's wins and whether a gain is shown."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    before, after = spread(parent), spread(change)
    gap = sign * (after["median"] - before["median"])
    return {"parent": before, "change": after, "wins": wins,
            "pairs": len(parent),
            "median_change": after["median"] / before["median"] - 1.0,
            "gain": (len(parent) >= 10 and wins >= 0.9 * len(parent)
                     and gap > before["q3"] - before["q1"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change",
                        help="change revision (default: this working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload", action="append",
                        help="workload to run (default: every one)")
    parser.add_argument("--out", type=Path, help="write every run as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        sides = {"parent": export(args.parent, Path(scratch))}
        sides["change"] = (export(args.change, Path(scratch)) if args.change
                           else ROOT)
        bench = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
        known = [w["name"] for w in bench["workloads"]]
        workloads = args.workload or known
        unknown = sorted(set(workloads) - set(known))
        if unknown:
            parser.error(f"unknown workload(s): {', '.join(unknown)}")
        runs = {w: {"parent": [], "change": []} for w in workloads}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change")[::1 if i % 2 == 0 else -1]
            for workload in workloads:
                for side in order:
                    run = run_bench(sides[side], workload, seed,
                                    args.seconds, 0)
                    run["seed"] = seed
                    runs[workload][side].append(run)
                speeds = {side: runs[workload][side][-1]["metrics"]
                          ["aircraft_steps_per_s"]["value"] for side in order}
                print(f"pair {i + 1}/{args.pairs} (seed {seed}) {workload}: "
                      f"parent {speeds['parent']:.0f}, "
                      f"change {speeds['change']:.0f}", file=sys.stderr)
    report = {"parent": args.parent, "change": args.change or "working tree",
              "seconds": args.seconds, "workloads": {}}
    for workload, sided in runs.items():
        entry = {side: {"correct": [r["correct"] for r in sided[side]],
                        "failed": [r["failed"] for r in sided[side]]}
                 for side in sided}
        print(f"{workload}: correct parent {all(entry['parent']['correct'])} "
              f"change {all(entry['change']['correct'])}; failed operations "
              f"parent {sum(entry['parent']['failed'])} "
              f"change {sum(entry['change']['failed'])}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            row = summarize(metric, *[
                [r["metrics"][name]["value"] for r in sided[side]]
                for side in ("parent", "change")])
            entry[name] = row
            p, c = row["parent"], row["change"]
            print(f"  {name} ({metric['unit']}, {metric['better']} is better): "
                  f"parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
                  f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
                  f"{row['median_change']:+.1%}, change won "
                  f"{row['wins']} of {row['pairs']}"
                  + ("  -> gain" if row["gain"] else ""))
        report["workloads"][workload] = {"summary": entry, "runs": sided}
    if args.out:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
