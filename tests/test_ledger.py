"""Seeded-output ledger: the sha256 of every file that short fixed-seed runs
write, against a table of known digests.

Each run goes through `cli.main` as the command line runs it, except
`AlwaysFightActor`, which no command exposes and which `evaluate` drives
directly, and the curriculum stopped after L2 and resumed, which
`run_curriculum` runs as a command would with its `levels` cut short.
Training runs set `ppo.batch_size` small enough for an update per collect,
and step budgets that take two or more collects (a collect starts its 8
lockstep env slots together and starts no more episodes once its batch
fills or its budget is spent; the episodes already running finish). A change that moves a seeded output on purpose
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
from dogfight.config import ScenarioConfig, ScriptConfig
from dogfight.evaluation import AlwaysFightActor, evaluate
from dogfight.nn import PolicyNetwork, commander_config, save_checkpoint
from dogfight.nn.networks import load_policy as _load
from dogfight.observations import critic_input_width
from dogfight.simcore import SimConfig
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
        "11de597f74c629618ed9e47e10890da7034ffa234942b9b42e238e108fa771aa",
    "commander-glob/config.json":
        "a505235c5b0345d0a520f30cd93824ae566229c9d6cf6dd15a2b2bc634f27e42",
    "commander-glob/metrics.jsonl":
        "1fc8e573e197b2cc0d5999b42f64c5dfa4dfe3a798a4a607f769bf49afbaecdd",
    "commander-n3-sa/checkpoints/commander_Shared-N3-Opt-Assess.ckpt":
        "6b8599b8ba22f544c97408a5f23ab8b755b4d216c6d0683f1f4175c9ea2d2fef",
    "commander-n3-sa/config.json":
        "8ff5da2256049ccab74998127e8c8dff00e23f43b073c5b3a3d5c6d50862f285",
    "commander-n3-sa/metrics.jsonl":
        "45bdab0f8b1290bee1fe283e198a5a9bc8e536674771ca568013543a62015b77",
    "commander-noopt/checkpoints/commander_Shared-N2-noOpt-Assess.ckpt":
        "a28e988cd64f2bb54e1dba298d5b368b43aec9e881abcf18b34964c1c8eedb19",
    "commander-noopt/config.json":
        "27fa54936baa515860f428a55334e42936a902ab930cf2ff97f82580adf3c680",
    "commander-noopt/metrics.jsonl":
        "720f70702f24653d7db041ef1129445ca011df87aada524d2ec116437fc1540b",
    "commander-shared/checkpoints/commander_Shared-N2-Opt-Assess.ckpt":
        "067f1ea1b3503145e5b12b9ee5cbfd64dd8b12fb41c3ba6779e21402258da533",
    "commander-shared/config.json":
        "9f54f403f63ba5f3acb3062261a912c231866dfb696047f605b7a007eba5a665",
    "commander-shared/metrics.jsonl":
        "539a367d5158d8286faff8722e44c7bf22af47226bbe75da6772634c764fd8c0",
    "curriculum-resumed/config.json":
        "95eaa9c54d1bfde3ed3a39c7bf620d3e2527db21ce7a7ea01108a1a59de9cf78",
    "curriculum-resumed/league/fight_L5.ckpt":
        "59342931ab379a4e38addc5346799c4d88afc566e7c08b3368b3f583cbb1ab5d",
    "curriculum-resumed/metrics.jsonl":
        "9cd1714e6eee98b7d99cfd445c047ac0b0d4e55aadc8a38a425097e903b37315",
    "escape-dist-speed/config.json":
        "0acb27836aa3eb37dcca2972531f6ad42aded64bf027452271514e3ee2fb2df7",
    "escape-dist-speed/league/escape.ckpt":
        "aeb0d5811951cf3d97331e9f059bd66606118b08ca5da6b3ad8279b5b6655f9a",
    "escape-dist-speed/metrics.jsonl":
        "b35d42643b64b293209996c8472557bb4d151448ba0458fa598fd4f51f069ad8",
    "escape-phase2/config.json":
        "6cb2e0fd5446504eb804228e34c2461c79e09e5ac85215a42efa9f1d6f374bcf",
    "escape-phase2/league/escape.ckpt":
        "818ff245cbf451959a36e2c7fa3ab7baf60876b22d8b0ab154aff08c6af3918d",
    "escape-phase2/metrics.jsonl":
        "4170fa67242aa83686649a049a2eb2a0eea10d24f280bf2de4dce87646097d3b",
    "escape/config.json":
        "d278f4964619bc15a99285ce33e8039d96d703b85dce1aa9144c9a007cb68ef4",
    "escape/league/escape.ckpt":
        "6158f0c4c7564a38c613d35a2a7f801442e45138ac8e89b9bd28e07388037f50",
    "escape/metrics.jsonl":
        "8d229ef17332f9daf1668c3d94411c5398d4029d5e12d0eb8a1605820fa40a92",
    "evaluate-always-fight/report":
        "6f5901f53b59830631d198bea662d0fca98e28afcc8c9c74b9a6f6fd4d5c00dd",
    "evaluate-ctce-greedy/report.json":
        "3cc265e02c3b6c2b4a0a6d04ff176cb59a1d0c93495f047dac30082983a22a98",
    "evaluate-ctce-greedy/trajectory.jsonl":
        "2c1b1cc15f5fb216b4d46b9809a2090834ad8393169f4761e5b4638350218b72",
    "evaluate-ctde-greedy/report.json":
        "ecd7849b162420906c44ad53bb9e964ce73f99e3409402c75f81914a1127df4c",
    "evaluate-ctde-greedy/trajectory.jsonl":
        "80810615e28b636a3ba3aad5eb31239a6168ceeb6a50226cef3205d317c3465a",
    "evaluate-hierarchy-l3/report.json":
        "b69ebdd515851f86fa141dc5dc3400d62ca28c82bd2f1268fd5d26ae282f2283",
    "evaluate-hierarchy-l3/trajectory.jsonl":
        "7b7563e7598b20a46bdbf540fd34325db538338f1496cb5a4cd3b6dfff8e7f2c",
    "evaluate-hierarchy-snapshot/report.json":
        "134147ed29b568f99035f88b5d47b7d27fd6533ae4af991188451732973b90b3",
    "evaluate-hierarchy-stochastic/report.json":
        "2888b01362e5bf560d6b0f0e41e7d50535d719b5e35136f80dc8f278f932a27c",
    "evaluate-random/report.json":
        "36b8012203f79163ff155f3026249a4dca6925dd68cd892cba21dd50db673fb5",
    "evaluate-random/trajectory.jsonl":
        "c73fa0525e08825e694d0967ab7e8011807bdc65af2ce9be44eea9cf25afe12e",
    "fight-ctde/config.json":
        "b2f731d24a129d5cc574da26be2e973ef90e272a2a90049653446e68a9896266",
    "fight-ctde/league/fight_L3.ckpt":
        "711b01ef96a5b0d54cbe4f0e5492e749a162eea501f396589868bd840c17b2d6",
    "fight-ctde/metrics.jsonl":
        "79f3b3e031eb7a5ff52747fe6ba7f900ad1edd54650291f3e59288f1227d2d8d",
    "fight-dtde/config.json":
        "c67c8f60d5102673839e254fe903f44c80b5fc59239f0cf47a51254daed7550e",
    "fight-dtde/league/fight_L3.ckpt":
        "f68742a606cc686f14f6f9cb6928523001d76b692ca7b74c962b448607057b57",
    "fight-dtde/metrics.jsonl":
        "f1400141160cb865c59c88ece139a4db8e5b4f20832a405d91dbb073ea290e92",
    "fight-shfrac/config.json":
        "4f72dfe4d6a668ffe9d468a872494991cb1ccda35bcd93421171b2676ce4301a",
    "fight-shfrac/league/fight_L3.ckpt":
        "a7190932206fa25aa64477e75763deca03cc3c095ae32dbb58cb94f71a6688c7",
    "fight-shfrac/metrics.jsonl":
        "0d0dd3b1fc0fb21caea4be6cf25647bb39094194f060d8917748bbfadc395c0e",
    "standard/checkpoints/standard.ckpt":
        "923f3a3352fa85d6f837c9ea825368c52ea74c217bd0c0ff145b654ca64b7ffa",
    "standard/config.json":
        "36239a7d57ea073cf0df8e71d144e76c9196e321f58fbc66613c8e7c2b630a38",
    "standard/metrics.jsonl":
        "436db038ab2083e2481465492497d8ef9351d14e3ac45ff0220d1f2871bf9a04",
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
    escape = ["train-low", "--policy", "escape", "--steps", 120,
              "--steps-phase2", 0, "--seed", 7, *SMALL_MAP, *SMALL_PPO]
    train("escape", escape, ["league/escape.ckpt"])
    # shaped rewards, on the seeds of the base runs above
    train("fight-shfrac", [*low, "--policy", "fight", "--variant", "shfrac"],
          ["league/fight_L3.ckpt"])
    train("escape-dist-speed", [*escape, "--variant", "dist_speed"],
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
                       script=ScriptConfig(), sim_cfg=SimConfig(), levels=levels)
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
    # the one run whose commander and low-level episode streams spawn from
    # one generator, so only it pins the order they spawn in
    evaluation("hierarchy-stochastic",
               ["--agent", "hierarchy", *hierarchy, "--stochastic",
                "--opponent", f"snapshot:{ckpt['fight']}:{ckpt['escape']}:0.5"],
               False)
    evaluation("hierarchy-l3", ["--agent", "hierarchy", *hierarchy,
                                "--opponent", "scripted:L3"], True)
    evaluation("random", ["--agent", "random", "--opponent", "scripted:L2"],
               True)

    scenario = ScenarioConfig(map_size=12.0)
    always = AlwaysFightActor(_load(ckpt["commander"]), _load(ckpt["fight"]),
                              _load(ckpt["escape"]), np.random.default_rng(7),
                              senses=2, opt=True)
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
