"""The benchmark still runs against the program: its tracer targets name
functions of the program, and each declared workload builds, runs one
operation and passes its own checks. A refactor that breaks what the
benchmark drives fails here rather than in a benchmark run."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr, _, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:  # a method, wrapped in its class's own __dict__
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and inspect.isfunction(
                cls.__dict__.get(method))
        else:
            found = inspect.isfunction(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert not missing


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_one_checked_operation(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.workloads import WORKLOADS as BY_NAME

    workload = BY_NAME[name]
    state = workload.build(1, tmp_path)
    workload.op(state)
    assert workload.env_steps(state) > 0
    assert workload.check(state) == []
