"""Command-line interface tests."""

import json

import numpy as np
import pytest

from dogfight.cli import main
from dogfight.config import ScenarioConfig
from dogfight.evaluation import EvalReport, import_trajectory
from dogfight.nn import (
    PolicyNetwork,
    commander_config,
    escape_config,
    fight_config,
    save_checkpoint,
)
from dogfight.nn.params import load_checkpoint
from dogfight.observations import critic_input_width


@pytest.fixture
def fight_ckpt(tmp_path):
    policy = PolicyNetwork(fight_config(
        critic_width=critic_input_width("fight", 2, 2)), seed=0)
    path = tmp_path / "fight.ckpt"
    save_checkpoint(path, policy.store, policy.config.to_dict())
    return path


def small_config(tmp_path, **scenario_kw):
    base = dict(n_agents=2, n_opponents=2, horizon=6, map_size=20.0)
    base.update(scenario_kw)
    cfg = {"scenario": base,
           "ppo": {"batch_size": 24, "update_epochs": 1, "minibatches": 2}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--bogus"])
        assert exc.value.code == 2

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        code = main(["evaluate", "--agent", "fight",
                     "--agent-ckpt", str(tmp_path / "nope.ckpt"),
                     "--episodes", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestGradcheck:
    def test_passes_quickly_with_few_draws(self, capsys):
        assert main(["gradcheck", "--draws", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3


class TestEvaluate:
    def test_random_agent_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["evaluate", "--agent", "random",
                     "--opponent", "scripted:L1",
                     "--config", str(small_config(tmp_path)),
                     "--episodes", "2", "--out", str(out), "--seed", "3"])
        assert code == 0
        report = EvalReport.load(out)
        assert report.episodes == 2

    def test_snapshot_opponents(self, tmp_path, fight_ckpt):
        out = tmp_path / "report.json"
        code = main(["evaluate", "--agent", "random",
                     "--opponent", f"snapshot:{fight_ckpt}",
                     "--config", str(small_config(tmp_path)),
                     "--episodes", "1", "--out", str(out)])
        assert code == 0

    def test_fight_agent_with_checkpoint(self, tmp_path, fight_ckpt):
        code = main(["evaluate", "--agent", "fight",
                     "--agent-ckpt", str(fight_ckpt),
                     "--opponent", "scripted:L1",
                     "--config", str(small_config(tmp_path)),
                     "--episodes", "1"])
        assert code == 0


class TestSweep:
    def test_commander_options_from_checkpoint(self, tmp_path, fight_ckpt):
        # an N3 commander needs three sensed opponents in its observation
        paths = {"fight": fight_ckpt}
        for name, config in (
                ("commander", commander_config(
                    3, critic_input_width("commander", 3, 3, senses=3))),
                ("escape", escape_config(critic_input_width("escape", 2, 2)))):
            policy = PolicyNetwork(config, seed=1)
            paths[name] = tmp_path / f"{name}.ckpt"
            save_checkpoint(paths[name], policy.store, policy.config.to_dict())
        out = tmp_path / "sweep"
        code = main(["sweep", "--commander-ckpt", str(paths["commander"]),
                     "--fight-ckpt", str(paths["fight"]),
                     "--escape-ckpt", str(paths["escape"]),
                     "--cells", "2v2", "--episodes", "1",
                     "--set", "scenario.horizon=5", "--out", str(out)])
        assert code == 0
        assert EvalReport.load(out / "2v2.json").episodes == 1


class TestConfigRejected:
    def _error(self, capsys, *args):
        code = main(["evaluate", "--agent", "random", "--opponent",
                     "scripted:L1", "--episodes", "1", *args])
        return code, capsys.readouterr().err

    def test_unknown_section_named(self, capsys):
        code, err = self._error(capsys, "--set", "bogus.key=1")
        assert code == 1 and "bogus" in err

    def test_scenario_level_is_no_key(self, capsys):
        code, err = self._error(capsys, "--set", "scenario.level=nonsense")
        assert code == 1 and "level" in err

    def test_commander_senses_come_from_the_scenario(self, tmp_path, fight_ckpt):
        escape = PolicyNetwork(escape_config(
            critic_input_width("escape", 2, 2)), seed=1)
        escape_ckpt = tmp_path / "escape.ckpt"
        save_checkpoint(escape_ckpt, escape.store, escape.config.to_dict())
        args = ["train-commander", "--fight-ckpt", str(fight_ckpt),
                "--escape-ckpt", str(escape_ckpt), "--steps", "4",
                "--batch-size", "4", "--run-dir", str(tmp_path / "run")]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--senses", "3"])
        assert exc.value.code == 2
        assert main(args + ["--set", "scenario.horizon=4",
                            "--set", "scenario.commander_senses=3"]) == 0
        ckpt = tmp_path / "run" / "checkpoints" / "commander_Shared-N3-Opt-Assess.ckpt"
        _, config = load_checkpoint(ckpt)
        assert config["instances"][0]["head_arities"] == [4]
        # the scenario keys override the commander-training scenario
        scenario = json.loads((tmp_path / "run" / "config.json").read_text())[
            "scenario"]
        assert scenario == dict(ScenarioConfig.commander_training(
            horizon=4, commander_senses=3).__dict__)
        assert (scenario["n_agents"], scenario["map_size"]) == (3, 50.0)


class TestTrainLow:
    def test_single_level_run(self, tmp_path):
        run_dir = tmp_path / "run"
        code = main(["train-low", "--policy", "fight", "--level", "L1",
                     "--steps", "30", "--run-dir", str(run_dir),
                     "--config", str(small_config(tmp_path)), "--seed", "5"])
        assert code == 0
        assert (run_dir / "metrics.jsonl").exists()
        league = run_dir / "league" / "index.json"
        assert json.loads(league.read_text())["fight_L1"]

    def test_standard_baseline(self, tmp_path):
        run_dir = tmp_path / "run-std"
        code = main(["train-low", "--policy", "standard",
                     "--steps", "20", "--run-dir", str(run_dir),
                     "--config", str(small_config(tmp_path, n_agents=2,
                                                  n_opponents=2)),
                     "--seed", "6"])
        assert code == 0
        assert (run_dir / "checkpoints" / "standard.ckpt").exists()

    def test_config_override(self, tmp_path):
        run_dir = tmp_path / "run-ov"
        code = main(["train-low", "--policy", "fight", "--level", "L1",
                     "--steps", "12", "--run-dir", str(run_dir),
                     "--config", str(small_config(tmp_path)),
                     "--set", "scenario.map_size=25.0",
                     "--set", "ppo.batch_size=12"])
        assert code == 0
        config = json.loads((run_dir / "config.json").read_text())
        assert config["scenario"]["map_size"] == 25.0


class TestExportTraj:
    def test_writes_readable_trajectory(self, tmp_path):
        out = tmp_path / "traj.jsonl"
        code = main(["export-traj", "--agent", "random",
                     "--opponent", "scripted:L2",
                     "--config", str(small_config(tmp_path)),
                     "--out", str(out)])
        assert code == 0
        log = import_trajectory(out)
        assert log.rounds
        assert log.header["agent"] == "random"

    def test_sim_override_changes_trajectory(self, tmp_path):
        def rounds(name, *overrides):
            out = tmp_path / name
            assert main(["export-traj", "--agent", "random",
                         "--opponent", "scripted:L2", "--seed", "3",
                         "--config", str(small_config(tmp_path)),
                         "--out", str(out), *overrides]) == 0
            return import_trajectory(out).rounds

        base = rounds("a.jsonl")
        assert rounds("b.jsonl") == base
        assert rounds("c.jsonl", "--set", "sim.round_seconds=0.2") != base
