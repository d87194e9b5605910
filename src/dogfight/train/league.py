"""Checkpoint archive for curriculum/league opponents.

One directory per training run holds a snapshot per completed level plus an
index recording file hashes, so wiring tests can assert which snapshot a
later level trained against.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..nn.networks import PolicyNetwork, load_policy
from ..nn.params import file_sha256, save_checkpoint

LOW_LEVELS = ("L1", "L2", "L3", "L4", "L5")


class LeagueArchive:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.index_path = self.root / "index.json"
        self.index: dict[str, dict] = {}
        if self.index_path.exists():
            self.index = json.loads(self.index_path.read_text())

    def _entry_name(self, kind: str, level: str) -> str:
        return f"{kind}_{level}" if level else kind

    def save(self, kind: str, level: str, policy: PolicyNetwork) -> Path:
        name = self._entry_name(kind, level)
        path = self.root / f"{name}.ckpt"
        save_checkpoint(path, policy.store, policy.config.to_dict())
        self.index[name] = {"file": path.name, "sha256": file_sha256(path)}
        self.index_path.write_text(json.dumps(self.index, indent=2, sort_keys=True))
        return path

    def has(self, kind: str, level: str = "") -> bool:
        return self._entry_name(kind, level) in self.index

    def path(self, kind: str, level: str = "") -> Path:
        name = self._entry_name(kind, level)
        if name not in self.index:
            raise FileNotFoundError(f"league archive has no snapshot {name!r}")
        return self.root / self.index[name]["file"]

    def sha256(self, kind: str, level: str = "") -> str:
        return self.index[self._entry_name(kind, level)]["sha256"]

    def load(self, kind: str, level: str = "") -> PolicyNetwork:
        """The archived network; a file whose sha256 differs from the one
        recorded in the index raises a ValueError naming the entry."""
        path = self.path(kind, level)
        name = self._entry_name(kind, level)
        if file_sha256(path) != self.index[name]["sha256"]:
            raise ValueError(f"league snapshot {name!r} ({path}) does not match "
                             f"the sha256 recorded in {self.index_path}")
        return load_policy(path)

    def sample_opponent_level(self, rng: np.random.Generator,
                              below: str) -> str:
        """Uniform pick among archived snapshots strictly below `below`."""
        cutoff = LOW_LEVELS.index(below)
        pool = [lvl for lvl in LOW_LEVELS[:cutoff] if self.has("fight", lvl)]
        if not pool:
            raise FileNotFoundError(f"no archived snapshots below {below}")
        return pool[int(rng.integers(len(pool)))]
