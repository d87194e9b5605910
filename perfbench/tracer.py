"""Span tracer wrapped around the program's public functions from outside.

Wrappers go on class attributes (methods) and on every binding of a
function in the loaded ``dogfight`` modules, so callers that imported a
function by name (``from .simcore import step_round``) are traced too.
Spans are kept in memory as tuples and written out when the run ends.

A span is ``(name index, parent span index, start ns, end ns, tensors built
before it, tensors built by its end, extra)``. ``extra`` is a per-call
quantity some layers report: rows through ``forward_actor``, transitions in
a ``ppo_update``. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


def _rows(args, kwargs) -> int:
    obs = kwargs.get("obs", args[2] if len(args) > 2 else None)
    shape = getattr(obs, "shape", None)
    return 1 if shape is None or len(shape) == 1 else int(shape[0])


def _transitions(args, kwargs) -> int:
    buffer = kwargs.get("buffer", args[1] if len(args) > 1 else None)
    return len(buffer)


# (module, attribute, span name, extra) -- attribute "Class.method" wraps a
# class attribute; a bare name wraps a module function and its imported
# bindings. ``extra`` picks a per-call quantity from the arguments.
TARGETS = (
    ("dogfight.simcore", "step_round", "simcore.step_round", None),
    ("dogfight.simcore", "fire_cannon", "simcore.fire_cannon", None),
    ("dogfight.observations", "build_obs", "observations.build_obs", None),
    ("dogfight.observations", "build_critic_input",
     "observations.build_critic_input", None),
    ("dogfight.observations", "closest_opponents",
     "observations.closest_opponents", None),
    ("dogfight.rewards", "option_terminated", "rewards.option_terminated", None),
    ("dogfight.scripted", "ScriptedController.__call__",
     "scripted.ScriptedController", None),
    ("dogfight.env", "CombatEnv.step", "env.CombatEnv.step", None),
    ("dogfight.nn.networks", "PolicyNetwork.forward_actor",
     "nn.networks.forward_actor", _rows),
    ("dogfight.nn.networks", "PolicyNetwork.forward_critic",
     "nn.networks.forward_critic", None),
    ("dogfight.nn.networks", "sample_action", "nn.networks.sample_action", None),
    ("dogfight.nn.networks", "PolicyNetwork.log_prob_entropy",
     "nn.networks.log_prob_entropy", None),
    ("dogfight.nn.autodiff", "Tensor.backward", "nn.autodiff.backward", None),
    ("dogfight.nn.params", "adam_step", "nn.params.adam_step", None),
    ("dogfight.nn.params", "ParamStore.clip_grad_norm",
     "nn.params.clip_grad_norm", None),
    ("dogfight.nn.params", "orthogonal_init", "nn.params.orthogonal_init", None),
    ("dogfight.nn.params", "save_checkpoint", "nn.params.save_checkpoint", None),
    ("dogfight.nn.params", "load_checkpoint", "nn.params.load_checkpoint", None),
    ("dogfight.train.league", "LeagueArchive.load",
     "train.league.LeagueArchive.load", None),
    ("dogfight.train.buffer", "compute_gae", "train.buffer.compute_gae", None),
    ("dogfight.train.ppo", "ppo_update", "train.ppo.ppo_update", _transitions),
    ("dogfight.train.policies", "CTDEDriver.act",
     "train.policies.CTDEDriver.act", None),
    ("dogfight.train.policies", "SnapshotController.__call__",
     "train.policies.SnapshotController", None),
    ("dogfight.train.commander", "CommanderTrainer.run_episode",
     "train.commander.CommanderTrainer.run_episode", None),
    ("dogfight.evaluation", "evaluate", "evaluation.evaluate", None),
    ("dogfight.evaluation", "HierarchyEvalActor.actions",
     "evaluation.HierarchyEvalActor.actions", None),
)


def empty_record() -> dict:
    """Per-name totals as `Tracer.summarize` returns them."""
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": 0,
            "tensors": 0, "rollout_calls": 0, "rollout_extra": 0}


class Tracer:
    """Records spans while installed; `uninstall` restores every binding."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.tensors = [0]  # Tensor objects constructed so far
        self.marks: dict[str, tuple[int, int]] = {}  # label -> (spans, tensors)
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def wrap(self, fn, name: str, extra=None):
        """`fn` recording a span named `name` per call."""
        idx = len(self.names)
        self.names.append(name)
        spans, stack, tensors = self.spans, self.stack, self.tensors
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            x = extra(args, kwargs) if extra else 0
            n0 = tensors[0]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[slot] = (idx, parent, t0, t1, n0, tensors[0], x)

        return traced

    def _set(self, owner, attr: str, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS):
        import importlib

        for module_name, attr, span_name, extra in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, method,
                          self.wrap(cls.__dict__[method], span_name, extra))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, span_name, extra)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "dogfight"
                                       or mod_name.startswith("dogfight.")):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, binding, wrapped)
        from dogfight.nn.autodiff import Tensor

        init = Tensor.__init__
        tensors = self.tensors

        def counted_init(self_, *args, **kwargs):
            tensors[0] += 1
            init(self_, *args, **kwargs)

        self._set(Tensor, "__init__", counted_init)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def mark(self, label: str):
        """Remember the span and tensor counts at a phase boundary."""
        if self.stack:
            raise RuntimeError(f"phase mark {label!r} inside an open span")
        self.marks[label] = (len(self.spans), self.tensors[0])

    def tensors_between(self, start: str, end: str) -> int:
        return self.marks[end][1] - self.marks[start][1]

    # -- analysis ------------------------------------------------------------

    def summarize(self, start: str, end: str) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, extra sum; plus the
        same restricted to spans outside any ``ppo_update`` ("rollout")."""
        lo, hi = self.marks[start][0], self.marks[end][0]
        spans = self.spans
        names = self.names
        child_ns = [0] * (hi - lo)
        in_update = [False] * (hi - lo)
        update_idx = {i for i, n in enumerate(names) if n == "train.ppo.ppo_update"}
        for i in range(lo, hi):
            name_idx, parent, t0, t1, *_ = spans[i]
            if parent >= lo:
                child_ns[parent - lo] += t1 - t0
                in_update[i - lo] = (in_update[parent - lo]
                                     or spans[parent][0] in update_idx)
        out: dict[str, dict] = {}
        for i in range(lo, hi):
            name_idx, parent, t0, t1, n0, n1, extra = spans[i]
            rec = out.setdefault(names[name_idx], empty_record())
            rec["calls"] += 1
            rec["total_s"] += (t1 - t0) * 1e-9
            rec["self_s"] += (t1 - t0 - child_ns[i - lo]) * 1e-9
            rec["extra"] += extra
            rec["tensors"] += n1 - n0
            if not in_update[i - lo]:
                rec["rollout_calls"] += 1
                rec["rollout_extra"] += extra
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "marks": self.marks,
                       "fields": ["name", "parent", "start_ns", "end_ns",
                                  "tensors_before", "tensors_after", "extra"],
                       "spans": self.spans}, fh)
