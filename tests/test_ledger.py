"""Seeded-output ledger: the sha256 of every file that short fixed-seed runs
write, against a table of known digests.

Each run goes through `cli.main` as the command line runs it, except
`AlwaysFightActor`, which no command exposes and which `evaluate` drives
directly. Training runs set `ppo.batch_size` small enough for two or more
updates. A change that moves a seeded output on purpose updates the table
below: the failure message prints every actual digest. Trajectories are
hashed only against scripted opponents, since a `snapshot:` header holds
checkpoint paths.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from dogfight.cli import _load_policy as _load, main
from dogfight.config import ScenarioConfig
from dogfight.evaluation import AlwaysFightActor, evaluate
from dogfight.nn import PolicyNetwork, commander_config, save_checkpoint
from dogfight.observations import critic_input_width
from dogfight.train import (
    CommanderVariant,
    SnapshotController,
    make_low_level_policy,
)

LEDGER = {
    "commander-glob/checkpoints/commander_Glob-N2-Opt-Assess.ckpt":
        "8be85e7b3ec03aa82bc648211cb00173088a5ec9245ce9aba29d885c1037271a",
    "commander-glob/config.json":
        "e9fa123ee3fbdb9dc1859a0b672fe404d9b145aeb2cec47e9757098325e2e351",
    "commander-glob/metrics.jsonl":
        "acf6269c44ce0cfdc9945e72aa90f1c12bd42f7b684af1ecfd9187cd20922080",
    "commander-shared/checkpoints/commander_Shared-N2-Opt-Assess.ckpt":
        "86d54b5658400073b1620b050be31af779a425eb0aa5f0e5479e6135243e07af",
    "commander-shared/config.json":
        "2cbbfddc8f783ae4ea5546a0d506774b0e9c3f71f0bcda576c83daa4f65ca376",
    "commander-shared/metrics.jsonl":
        "89ba0171dcdd1fbf7e404d6aaca391b7f727d87e338017f610e263fba45cf33e",
    "escape/config.json":
        "36e05c9a42f6b5a8f4e1f1c14cbcf650d8d918302eebd5ac2c04ed6803c2e830",
    "escape/league/escape.ckpt":
        "b0524c9dab0e15e1b90648acec451792aae19760eeda9490be1c84fe38660cf2",
    "escape/metrics.jsonl":
        "7b13c2c8764b8ccd392a31446792766939db21c37b9a5a46d62d54612625d1d8",
    "evaluate-always-fight/report":
        "02a1de8124d6a51fb41de399503c02c8e4778d1f0e8568829524c40054e52fce",
    "evaluate-ctce-greedy/report.json":
        "93a36604baf47b7aa68781d2b52fa4384cbaaf081e52a2932e822fe7d36bfd6e",
    "evaluate-ctce-greedy/trajectory.jsonl":
        "b173011c79870191d81e7f7c43992b31c3ff8d51562a41b7be0ba58921d13d99",
    "evaluate-ctde-greedy/report.json":
        "bc349b9c7831d1606b5b3c910598e2f9d4929b04771eb24aa6c108d13b1a9386",
    "evaluate-ctde-greedy/trajectory.jsonl":
        "f7ce5284d40f38fd5804c823d306a5738d2b067e196301729a7b6afd5d3b69fc",
    "evaluate-hierarchy-snapshot/report.json":
        "3328e2f243574666db73597b9de7996b2deee00ae155b389e91574e139b7185f",
    "evaluate-random/report.json":
        "a9988f4acf944c73f45f66f1b2fbb62b3fbf6ba6344dbf5682be0ad00915f81c",
    "evaluate-random/trajectory.jsonl":
        "b75032d6a5ea9dd0e2adefec5363e9d5711f36bd480d4e7bc94843550cb1ba9a",
    "fight-ctde/config.json":
        "bb5c78bcd8a6e2d9c58d937a0ded8f3ff8388b0c6ec42376143fc617454613ec",
    "fight-ctde/league/fight_L3.ckpt":
        "4d04467712d9460d214698dc510871f49ac13ebffc56f55c66b778d2086df545",
    "fight-ctde/metrics.jsonl":
        "ebf640fe896443e155120814af865eada4241c205cb3cc5d7f84f7de80824324",
    "fight-dtde/config.json":
        "643b7dd405892bdd50389a3bb6a8165cd7ebce6e1f53430d341a0c3dd9358a11",
    "fight-dtde/league/fight_L3.ckpt":
        "8fd0c4f3910fab680af75aac60e9d6873b22e79a9829ce354e4e62e876b7a28a",
    "fight-dtde/metrics.jsonl":
        "cf66cb336079ec666d4691abe51f4ddcdfc8533e7466f335df198efb15e7f274",
    "standard/checkpoints/standard.ckpt":
        "4ff96b15d548f0afc3135ac754b1815cc8dfd9245c9c611abf6ed4acd179fe19",
    "standard/config.json":
        "4b8beddd73eab04694c06d1e5898e50ea92453350b23c3ac8f684bad82cd7887",
    "standard/metrics.jsonl":
        "58a02afb880d53db480f343cb7887665556a91e2c87c60aae8dee09412248128",
    "sweep/2v2.json":
        "38de884ac622788fb35bc7f8be07696b13e199a72d2baaf7ba3dc9838a95569e",
}

SMALL_MAP = ["--set", "scenario.map_size=12.0"]
SMALL_PPO = ["--set", "ppo.batch_size=16", "--set", "ppo.update_epochs=1",
             "--set", "ppo.minibatches=2"]
COMMANDER_SHORT = ["--set", "scenario.horizon=24",
                   "--set", "scenario.map_size=16.0",
                   "--set", "ppo.batch_size=6", "--set", "ppo.update_epochs=1",
                   "--set", "ppo.minibatches=2"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _save(path, policy, **extra):
    save_checkpoint(path, policy.store, {**policy.config.to_dict(), **extra})
    return str(path)


def _checkpoints(root) -> dict[str, str]:
    """Untrained fight, escape, joint fight and shared commander networks."""
    low = ScenarioConfig()
    commander = PolicyNetwork(commander_config(
        2, critic_input_width("commander", 3, 3)), seed=3)
    return {
        "fight": _save(root / "fight.ckpt",
                       make_low_level_policy("fight", "ctde", low, 1)),
        "escape": _save(root / "escape.ckpt",
                        make_low_level_policy("escape", "ctde", low, 2)),
        "standard": _save(root / "standard.ckpt",
                          make_low_level_policy("fight", "ctce", low, 4)),
        "commander": _save(root / "commander.ckpt", commander,
                           variant=CommanderVariant().__dict__),
    }


def _run(*argv):
    code = main([str(a) for a in argv])
    assert code == 0, f"dogfight {' '.join(map(str, argv))} exited {code}"


def _collect(root) -> dict[str, str]:
    ckpt = _checkpoints(root)
    hierarchy = ["--commander-ckpt", ckpt["commander"],
                 "--fight-ckpt", ckpt["fight"], "--escape-ckpt", ckpt["escape"]]
    digests = {}

    def record(name, path):
        digests[name] = _sha(path.read_bytes())

    def train(name, argv, files):
        run = root / name
        _run(*argv, "--run-dir", run)
        for rel in ("metrics.jsonl", "config.json", *files):
            record(f"{name}/{rel}", run / rel)
        lines = (run / "metrics.jsonl").read_text().splitlines()
        assert len(lines) >= 2, f"{name} logged {len(lines)} updates"

    low = ["train-low", "--level", "L3", "--steps", 80, "--seed", 3,
           *SMALL_MAP, *SMALL_PPO]
    train("fight-ctde", [*low, "--policy", "fight"], ["league/fight_L3.ckpt"])
    train("fight-dtde", [*low, "--policy", "fight", "--framework", "dtde"],
          ["league/fight_L3.ckpt"])
    train("escape", ["train-low", "--policy", "escape", "--steps", 60,
                     "--steps-phase2", 0, "--seed", 7, *SMALL_MAP, *SMALL_PPO],
          ["league/escape.ckpt"])
    train("standard", ["train-low", "--policy", "standard", "--steps", 80,
                       "--seed", 4, *SMALL_MAP, *SMALL_PPO],
          ["checkpoints/standard.ckpt"])
    commander = ["train-commander", "--fight-ckpt", ckpt["fight"],
                 "--escape-ckpt", ckpt["escape"], "--steps", 120, "--seed", 5,
                 *COMMANDER_SHORT]
    train("commander-shared", commander,
          ["checkpoints/commander_Shared-N2-Opt-Assess.ckpt"])
    train("commander-glob", [*commander, "--glob"],
          ["checkpoints/commander_Glob-N2-Opt-Assess.ckpt"])

    def evaluation(name, argv, trajectory):
        out = root / f"{name}.json"
        extra = ["--trajectory-out", root / f"{name}.jsonl"] if trajectory else []
        _run("evaluate", *argv, "--episodes", 5, "--seed", 6, *SMALL_MAP,
             "--out", out, *extra)
        record(f"evaluate-{name}/report.json", out)
        if trajectory:
            record(f"evaluate-{name}/trajectory.jsonl", root / f"{name}.jsonl")

    evaluation("ctde-greedy", ["--agent", "fight", "--agent-ckpt", ckpt["fight"],
                               "--opponent", "scripted:L3"], True)
    evaluation("ctce-greedy", ["--agent", "standard",
                               "--agent-ckpt", ckpt["standard"],
                               "--opponent", "scripted:L3"], True)
    evaluation("hierarchy-snapshot",
               ["--agent", "hierarchy", *hierarchy, "--opponent",
                f"snapshot:{ckpt['fight']}:{ckpt['escape']}:0.5"], False)
    evaluation("random", ["--agent", "random", "--opponent", "scripted:L2"],
               True)

    scenario = ScenarioConfig(map_size=12.0)
    always = AlwaysFightActor(_load(ckpt["commander"]), _load(ckpt["fight"]),
                              _load(ckpt["escape"]), np.random.default_rng(7))
    opponents = SnapshotController(
        fight=_load(ckpt["fight"]), escape=_load(ckpt["escape"]),
        rng=np.random.default_rng(8), fight_prob=0.5, scenario=scenario)
    report = evaluate(always, opponents, scenario, 5, seed=9)
    digests["evaluate-always-fight/report"] = _sha(
        json.dumps(report.to_dict(), sort_keys=True).encode())

    _run("sweep", *hierarchy, "--cells", "2v2", "--episodes", 3, "--seed", 10,
         "--set", "scenario.horizon=40", "--out", root / "sweep")
    record("sweep/2v2.json", root / "sweep" / "2v2.json")
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return _collect(tmp_path_factory.mktemp("ledger"))


def test_every_output_in_the_ledger(digests):
    table = json.dumps(digests, indent=4, sort_keys=True)
    assert digests == LEDGER, f"seeded outputs differ; actual digests:\n{table}"
