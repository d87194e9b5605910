"""Seeded-output ledger: the sha256 of every file that short fixed-seed runs
write, against a table of known digests.

Each run goes through `cli.main` as the command line runs it, except
`AlwaysFightActor`, which no command exposes and which `evaluate` drives
directly, and the curriculum stopped after L2 and resumed, which
`run_curriculum` runs as a command would with its `levels` cut short.
Training runs set `ppo.batch_size` small enough for an update per collect,
and step budgets that take two or more collects (a collect plays 8
episodes in lockstep). A change that moves a seeded output on purpose
updates the table below: the failure message prints every actual digest.
Trajectories are hashed only against scripted opponents, since a
`snapshot:` header holds checkpoint paths.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from dogfight.cli import main
from dogfight.config import ScenarioConfig
from dogfight.evaluation import AlwaysFightActor, evaluate
from dogfight.nn import PolicyNetwork, commander_config, save_checkpoint
from dogfight.nn.networks import load_policy as _load
from dogfight.observations import critic_input_width
from dogfight.train import (
    CommanderVariant,
    LeagueArchive,
    PPOConfig,
    RunDir,
    SnapshotController,
    TrainMode,
    make_low_level_policy,
    run_curriculum,
)
from dogfight.train.league import LOW_LEVELS

LEDGER = {
    "commander-glob/checkpoints/commander_Glob-N2-Opt-Assess.ckpt":
        "4a315d02847744e6fcbb8d04f477436845eb73199359e87c48e6be24259ab6c6",
    "commander-glob/config.json":
        "a505235c5b0345d0a520f30cd93824ae566229c9d6cf6dd15a2b2bc634f27e42",
    "commander-glob/metrics.jsonl":
        "18f6687b19bf3e6ab03fa5cc2cf70256d6be1d7cb4ba6dd9ca60cd574347bba4",
    "commander-n3-sa/checkpoints/commander_Shared-N3-Opt-Assess.ckpt":
        "269e094838a4a492f0434b656a626ee6393199d11c28f27b0bfea63d02d9b0b8",
    "commander-n3-sa/config.json":
        "8ff5da2256049ccab74998127e8c8dff00e23f43b073c5b3a3d5c6d50862f285",
    "commander-n3-sa/metrics.jsonl":
        "3311e7b3c4ab798cb2a64a7663ef26d3e54b88567242826125638a7476b68669",
    "commander-noopt/checkpoints/commander_Shared-N2-noOpt-Assess.ckpt":
        "02c1b71e12c6273b093ff8eb723c8d9965c40f547848907377252d8665c655d1",
    "commander-noopt/config.json":
        "27fa54936baa515860f428a55334e42936a902ab930cf2ff97f82580adf3c680",
    "commander-noopt/metrics.jsonl":
        "4f2a3353a4d4f4b42ec2c55926fc98b0b9a725eeb2a3d9605aa97653c4fc3c72",
    "commander-shared/checkpoints/commander_Shared-N2-Opt-Assess.ckpt":
        "71f571ca6faf4f3c3d28721d323b3ea21556631ecd8a2231aab047f584333a18",
    "commander-shared/config.json":
        "9f54f403f63ba5f3acb3062261a912c231866dfb696047f605b7a007eba5a665",
    "commander-shared/metrics.jsonl":
        "480734d490537fa696f4ded1d37fb8f12b5aebed46c98ce561bdd31afec637b7",
    "curriculum-resumed/config.json":
        "95eaa9c54d1bfde3ed3a39c7bf620d3e2527db21ce7a7ea01108a1a59de9cf78",
    "curriculum-resumed/league/fight_L5.ckpt":
        "d70609ae083a046c2c7ff9c04c24e330043216220e147a987aad45f7d2d4e90c",
    "curriculum-resumed/metrics.jsonl":
        "0b3eb224d4fb1d8b29788f9bd4c7e8e390f02403699068cf3cc63dbf2f990681",
    "escape-phase2/config.json":
        "6cb2e0fd5446504eb804228e34c2461c79e09e5ac85215a42efa9f1d6f374bcf",
    "escape-phase2/league/escape.ckpt":
        "71ce2c50c5f005cab64947409b5a64d7ff2809b3ae68e19889e06adbc629b745",
    "escape-phase2/metrics.jsonl":
        "81adfe8276c3177a197a0f6031b4c0b09945bf5ec7a2b1150ee1659ceb97f067",
    "escape/config.json":
        "d278f4964619bc15a99285ce33e8039d96d703b85dce1aa9144c9a007cb68ef4",
    "escape/league/escape.ckpt":
        "3513918d6e286a65542ccb5cd9458b3e565f544dfdce5d31ae562a803c9ff35a",
    "escape/metrics.jsonl":
        "b2cee020eaa3d8d5ba67fede420196a537461c50d6cdc00e20217743eb2021b8",
    "evaluate-always-fight/report":
        "6f5901f53b59830631d198bea662d0fca98e28afcc8c9c74b9a6f6fd4d5c00dd",
    "evaluate-ctce-greedy/report.json":
        "3cc265e02c3b6c2b4a0a6d04ff176cb59a1d0c93495f047dac30082983a22a98",
    "evaluate-ctce-greedy/trajectory.jsonl":
        "a315ca460e2ce2bdd200ffd4be8d63c22169360014feca7584bdd67b48688f6e",
    "evaluate-ctde-greedy/report.json":
        "ecd7849b162420906c44ad53bb9e964ce73f99e3409402c75f81914a1127df4c",
    "evaluate-ctde-greedy/trajectory.jsonl":
        "7c6ad39e55453935c49c6da33d53a0ab42bc15e7b2b3e9f4b2a2b04ae1612615",
    "evaluate-hierarchy-l3/report.json":
        "b69ebdd515851f86fa141dc5dc3400d62ca28c82bd2f1268fd5d26ae282f2283",
    "evaluate-hierarchy-l3/trajectory.jsonl":
        "cb82717cae355d3535c8c1ce3d93b38182b751aed625a3f517584f2c4ddbc08b",
    "evaluate-hierarchy-snapshot/report.json":
        "134147ed29b568f99035f88b5d47b7d27fd6533ae4af991188451732973b90b3",
    "evaluate-random/report.json":
        "36b8012203f79163ff155f3026249a4dca6925dd68cd892cba21dd50db673fb5",
    "evaluate-random/trajectory.jsonl":
        "86519d4a7e211c4133aaa58e70ca8a1d7ec722e44c57a0ae9435b57708c77d70",
    "fight-ctde/config.json":
        "b2f731d24a129d5cc574da26be2e973ef90e272a2a90049653446e68a9896266",
    "fight-ctde/league/fight_L3.ckpt":
        "f3538846a526be6adfcf4b9fbe17938d9256d3ed5da17bfb4aba5472394ce393",
    "fight-ctde/metrics.jsonl":
        "71b8029712dc8dfd46b58ed1fa0090f9654a005a9748dedb6c1c7877f3e205e7",
    "fight-dtde/config.json":
        "c67c8f60d5102673839e254fe903f44c80b5fc59239f0cf47a51254daed7550e",
    "fight-dtde/league/fight_L3.ckpt":
        "86f5459c6e3f1ec7bc67403269155d0290177e8c442089f9b5b67481ecf9e137",
    "fight-dtde/metrics.jsonl":
        "aa7f18c36413e8910fcfef862d647ad56e93a57c6ef1c3030203b2ef8a85e148",
    "standard/checkpoints/standard.ckpt":
        "31dd2b5c4d4b1be0a33cdf0550961215eec60332c1d7ffed4cd8000dfcea87bf",
    "standard/config.json":
        "36239a7d57ea073cf0df8e71d144e76c9196e321f58fbc66613c8e7c2b630a38",
    "standard/metrics.jsonl":
        "467e0932e81d64d311a4cdd3018f3f1b7fdf972e8a0275c3120cf4430a49612a",
    "sweep/2v2.json":
        "00c993c5526b4b291a065d1785335dcf27f9a48fd0f204180668fc21e800e790",
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


def _l5_league(root, fight_ckpt) -> str:
    """A league archive holding the untrained fight network as L5."""
    archive = LeagueArchive(root / "league-l5")
    archive.save("fight", "L5", _load(fight_ckpt))
    return str(archive.root)


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

    low = ["train-low", "--level", "L3", "--steps", 160, "--seed", 3,
           *SMALL_MAP, *SMALL_PPO]
    train("fight-ctde", [*low, "--policy", "fight"], ["league/fight_L3.ckpt"])
    train("fight-dtde", [*low, "--policy", "fight", "--framework", "dtde"],
          ["league/fight_L3.ckpt"])
    train("escape", ["train-low", "--policy", "escape", "--steps", 120,
                     "--steps-phase2", 0, "--seed", 7, *SMALL_MAP, *SMALL_PPO],
          ["league/escape.ckpt"])
    train("escape-phase2", ["train-low", "--policy", "escape", "--steps", 60,
                            "--steps-phase2", 30, "--seed", 8,
                            "--league-dir", _l5_league(root, ckpt["fight"]),
                            *SMALL_MAP, *SMALL_PPO], [])
    record("escape-phase2/league/escape.ckpt",
           root / "league-l5" / "escape.ckpt")
    train("standard", ["train-low", "--policy", "standard", "--steps", 160,
                       "--seed", 4, *SMALL_MAP, *SMALL_PPO],
          ["checkpoints/standard.ckpt"])
    commander = ["train-commander", "--fight-ckpt", ckpt["fight"],
                 "--escape-ckpt", ckpt["escape"], "--steps", 240, "--seed", 5,
                 *COMMANDER_SHORT]
    train("commander-shared", commander,
          ["checkpoints/commander_Shared-N2-Opt-Assess.ckpt"])
    train("commander-glob", [*commander, "--glob"],
          ["checkpoints/commander_Glob-N2-Opt-Assess.ckpt"])
    train("commander-n3-sa", [*commander, "--arch", "sa",
                              "--set", "scenario.commander_senses=3"],
          ["checkpoints/commander_Shared-N3-Opt-Assess.ckpt"])
    train("commander-noopt", [*commander, "--no-opt"],
          ["checkpoints/commander_Shared-N2-noOpt-Assess.ckpt"])

    # stopped after L2, then resumed from trainer_state_L2.ckpt to L5
    run = RunDir(root / "curriculum")
    archive = LeagueArchive(root / "curriculum" / "league")
    for levels in (LOW_LEVELS[:2], LOW_LEVELS):
        run_curriculum(ScenarioConfig(map_size=12.0),
                       PPOConfig(batch_size=16, update_epochs=1, minibatches=2),
                       TrainMode(), run, archive, seed=11, steps_per_level=32,
                       levels=levels)
    for rel in ("metrics.jsonl", "config.json", "league/fight_L5.ckpt"):
        record(f"curriculum-resumed/{rel}", root / "curriculum" / rel)

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
    evaluation("hierarchy-l3", ["--agent", "hierarchy", *hierarchy,
                                "--opponent", "scripted:L3"], True)
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
