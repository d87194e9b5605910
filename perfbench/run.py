"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process and prints, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with --trace 1
the program is wrapped by the span tracer and the metrics are the per-layer
ones (see README.md in this directory).
"""

import os

# One BLAS thread, set before numpy is imported anywhere in this process: on
# a two-core host OpenBLAS's second thread only adds contention with
# whatever else runs on the other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
PROBE_SPAN = "perfbench.hostspeed.probe"


IMPORT_REPEATS = 3
# Times `import dogfight...` in a fresh interpreter, in normalised seconds.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import dogfight.evaluation, dogfight.train
elapsed = time.perf_counter() - t0
from perfbench.hostspeed import REFERENCE_S, probe
print(elapsed * REFERENCE_S / probe())
"""


def import_program():
    """Import the program from this checkout's src/."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    import dogfight.evaluation  # noqa: F401
    import dogfight.train  # noqa: F401

    origin = Path(dogfight.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"dogfight was imported from {origin}, not {SRC}")


def import_seconds() -> float:
    """Median normalised import time over IMPORT_REPEATS fresh interpreters:
    an import runs once per process, so set-up repeats it in children."""
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(ROOT)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload, seed: int, workdir: Path, repeats: int):
    """Build the workload `repeats` times; return the last state and the
    median build time in normalised seconds."""
    from perfbench.hostspeed import HostClock

    builds = []
    for k in range(repeats):
        clock = HostClock()
        clock.start()
        state = workload.build(seed, workdir / f"setup{k}")
        clock.stop()
        builds.append(clock.normalised_s)
    return state, statistics.median(builds)


def measure(workload, state, counter, seconds: float, traced_ops: int | None,
            tracer=None):
    """Run whole operations for `seconds` of wall time (or `traced_ops`
    operations); return attempted, failed, and the host clock."""
    from perfbench.hostspeed import HostClock, probe

    clock = HostClock(tracer.wrap(probe, PROBE_SPAN) if tracer else probe)
    counter.clock = clock
    counter.reset()
    attempted = failed = 0
    t0 = time.perf_counter()
    clock.start()
    while True:
        attempted += 1
        try:
            workload.op(state)
        except Exception:  # noqa: BLE001 - counted and reported
            failed += 1
            traceback.print_exc()
        if (attempted >= traced_ops if traced_ops
                else time.perf_counter() - t0 >= seconds):
            break
    clock.stop()
    counter.clock = None
    return attempted, failed, clock


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench import layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, StepCounter

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = Tracer() if args.trace else None
    counter = StepCounter()
    try:
        if tracer is not None:
            tracer.install()
            tracer.mark("setup_start")
        counter.install()
        state, build_s = setup_seconds(workload, args.seed, workdir,
                                       1 if tracer else SETUP_REPEATS)
        if tracer is not None:
            tracer.mark("setup_end")

        workload.op(state)  # warm-up, outside the measured phase
        program_steps = workload.env_steps(state)
        if tracer is not None:
            tracer.mark("measure_start")
        attempted, failed, clock = measure(
            workload, state, counter, args.seconds,
            workload.traced_ops if tracer else None, tracer)
        if tracer is not None:
            tracer.mark("measure_end")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        program_steps = workload.env_steps(state) - program_steps
        counter.uninstall()
        if tracer is not None:
            tracer.uninstall()

        failures = workload.check(state)
        if tracer is not None:
            metrics = layers.per_layer_metrics(tracer, counter.steps,
                                               counter.aircraft, clock)
            failures += layers.exact_counts(
                tracer, program_steps, counter.steps,
                workload.scenario(state).rounds_per_step)
            tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.json")
        else:
            metrics = {
                "aircraft_steps_per_s": {
                    "value": counter.aircraft / clock.normalised_s, "unit": "1/s"},
                "setup_s": {"value": import_seconds() + build_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
