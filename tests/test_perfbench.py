"""The benchmark's tracer targets still name functions of the program, so a
refactor that moves one fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
