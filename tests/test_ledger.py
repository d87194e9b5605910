"""Seeded-output ledger: the sha256 of every file that short fixed-seed runs
write, against a table of known digests.

Each run goes through `cli.main` as the command line runs it, except
`AlwaysFightActor`, which no command exposes and which `evaluate` drives
directly, and the curriculum stopped after L2 and resumed, which
`run_curriculum` runs as a command would with its `levels` cut short. Training runs set `ppo.batch_size` small enough for two or more
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
        "c72e017f2354400aeac2decd3aae08612a5e3953faf5350b5baf440aba747adf",
    "commander-glob/config.json":
        "a505235c5b0345d0a520f30cd93824ae566229c9d6cf6dd15a2b2bc634f27e42",
    "commander-glob/metrics.jsonl":
        "64f63c6566f0559defe4049a20c366404ac5d966d76376d78403b59cb6a233c6",
    "commander-n3-sa/checkpoints/commander_Shared-N3-Opt-Assess.ckpt":
        "1053ff8d6ffc148e22a5ee9e5a0d92991e5ed84fbe4c933a1597d89549a44637",
    "commander-n3-sa/config.json":
        "8ff5da2256049ccab74998127e8c8dff00e23f43b073c5b3a3d5c6d50862f285",
    "commander-n3-sa/metrics.jsonl":
        "7aeb6eaf08aa15b9cd635b6d1c4b039c41bdadc2462fc7befa509f24a7d13e61",
    "commander-noopt/checkpoints/commander_Shared-N2-noOpt-Assess.ckpt":
        "ca7f7b8c713a17fe65d7c41cc8b1ad5f14e2cd5dac1775eb6fe3156c9914a797",
    "commander-noopt/config.json":
        "27fa54936baa515860f428a55334e42936a902ab930cf2ff97f82580adf3c680",
    "commander-noopt/metrics.jsonl":
        "64da5fed46c5d334e79d821a3f432111875eec94b4b7db33af32f7ef9911eb73",
    "commander-shared/checkpoints/commander_Shared-N2-Opt-Assess.ckpt":
        "6f9d4ae35532a261d954559ad163b0d02e90573c3351b09aa9afd354a2b48082",
    "commander-shared/config.json":
        "9f54f403f63ba5f3acb3062261a912c231866dfb696047f605b7a007eba5a665",
    "commander-shared/metrics.jsonl":
        "8225c40d45f0ad7a39da9d94e065303dceb4597905d9586f2d01fd4e4c247f0c",
    "curriculum-resumed/config.json":
        "95eaa9c54d1bfde3ed3a39c7bf620d3e2527db21ce7a7ea01108a1a59de9cf78",
    "curriculum-resumed/league/fight_L5.ckpt":
        "5d2603656c5d2bb80d594c953e1680b6619aa496cec402b686a46aa5e34069e3",
    "curriculum-resumed/metrics.jsonl":
        "1020b5ba9494b0417ef9e1c941a0bc9c31171045f66a87c0c808a581a31e5247",
    "escape-phase2/config.json":
        "6cb2e0fd5446504eb804228e34c2461c79e09e5ac85215a42efa9f1d6f374bcf",
    "escape-phase2/league/escape.ckpt":
        "79e7e2e31ca334994da5e322f98c7ba19bb4b89ce531269937c39bbfaa7fe942",
    "escape-phase2/metrics.jsonl":
        "e42da5130679500c9ef72d8f3daf42b2ca38831f4627248136dd2df0c9568afa",
    "escape/config.json":
        "36e05c9a42f6b5a8f4e1f1c14cbcf650d8d918302eebd5ac2c04ed6803c2e830",
    "escape/league/escape.ckpt":
        "5f0ad4e04b16e03e5c032801ac30bb19dd7bf362b639abb477fc4de8d99f29b8",
    "escape/metrics.jsonl":
        "d7179e4027e92978527ea881c1e48a47399993ef813d14ce23120627885919a6",
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
        "bb5c78bcd8a6e2d9c58d937a0ded8f3ff8388b0c6ec42376143fc617454613ec",
    "fight-ctde/league/fight_L3.ckpt":
        "b60c6ac6f1dac16d3a179e57bf891d63e67b2af058e4b8fa397bb97d9ffc6b0a",
    "fight-ctde/metrics.jsonl":
        "80bd85a76d7de64a90026737b99fe30f749b5c312b6f8ceee4e60be566886988",
    "fight-dtde/config.json":
        "643b7dd405892bdd50389a3bb6a8165cd7ebce6e1f53430d341a0c3dd9358a11",
    "fight-dtde/league/fight_L3.ckpt":
        "e7afab9872fa0ca7f79b2302d37084636d4b0a7a91787be9ccff043ce6ce8524",
    "fight-dtde/metrics.jsonl":
        "f365939963617127f957e3e7fad346d86ce6c2785bd6a9391d8109e40f13ef92",
    "standard/checkpoints/standard.ckpt":
        "100630fa14243c4a36f7e47ebba61a4caed4c799ed48017d6977203de63e9e4c",
    "standard/config.json":
        "4b8beddd73eab04694c06d1e5898e50ea92453350b23c3ac8f684bad82cd7887",
    "standard/metrics.jsonl":
        "171eb26dba7fe7bceac0abc2a4bc0abbd12bbe37d9df45116ea1f8eec51d093d",
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

    low = ["train-low", "--level", "L3", "--steps", 80, "--seed", 3,
           *SMALL_MAP, *SMALL_PPO]
    train("fight-ctde", [*low, "--policy", "fight"], ["league/fight_L3.ckpt"])
    train("fight-dtde", [*low, "--policy", "fight", "--framework", "dtde"],
          ["league/fight_L3.ckpt"])
    train("escape", ["train-low", "--policy", "escape", "--steps", 60,
                     "--steps-phase2", 0, "--seed", 7, *SMALL_MAP, *SMALL_PPO],
          ["league/escape.ckpt"])
    train("escape-phase2", ["train-low", "--policy", "escape", "--steps", 60,
                            "--steps-phase2", 30, "--seed", 8,
                            "--league-dir", _l5_league(root, ckpt["fight"]),
                            *SMALL_MAP, *SMALL_PPO], [])
    record("escape-phase2/league/escape.ckpt",
           root / "league-l5" / "escape.ckpt")
    train("standard", ["train-low", "--policy", "standard", "--steps", 80,
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
