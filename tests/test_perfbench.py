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


@pytest.mark.parametrize("name", ["train-commander-3v3", "sweep-15v15"])
def test_set_up_draws_weights_only_for_the_networks_it_seeds(
        name, tmp_path, monkeypatch):
    # every `orthogonal_init` call of the set-up comes from a seeded
    # PolicyNetwork, and the two league loads read their networks back
    # without drawing
    monkeypatch.syspath_prepend(str(ROOT))
    from dogfight.nn import networks
    from dogfight.train.league import LeagueArchive
    from perfbench.workloads import WORKLOADS as BY_NAME

    inside = {"seeded": 0, "load": 0}
    draws, loads = [], []

    def within(key, fn):
        def wrapped(*args, **kwargs):
            inside[key] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside[key] -= 1
        return wrapped

    draw = networks.orthogonal_init

    def counted(rng, shape):
        draws.append((inside["seeded"], inside["load"]))
        return draw(rng, shape)

    load = LeagueArchive.load
    monkeypatch.setattr(networks, "orthogonal_init", counted)
    monkeypatch.setattr(networks.PolicyNetwork, "__init__",
                        within("seeded", networks.PolicyNetwork.__init__))
    monkeypatch.setattr(LeagueArchive, "load", within(
        "load", lambda *args: loads.append(args[1:]) or load(*args)))
    BY_NAME[name].build(1, tmp_path)
    assert loads == [("fight", "L5"), ("escape",)]
    assert draws and all(seeded and not loading for seeded, loading in draws)
