"""Command-line interface tests."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dogfight
from dogfight.cli import main
from dogfight.config import ScenarioConfig, ScriptConfig
from dogfight.env import CombatEnv
from dogfight.evaluation import (
    EvalReport,
    evaluate,
    event_to_dict,
    import_trajectory,
)
from dogfight.nn import (
    PolicyNetwork,
    commander_config,
    escape_config,
    fight_config,
    save_checkpoint,
)
from dogfight.nn.params import load_checkpoint, save_arrays
from dogfight.observations import critic_input_width
from dogfight.scripted import ScriptedController
from dogfight.simcore import SimConfig
from dogfight.train import CommanderVariant, PPOConfig


@pytest.fixture
def fight_ckpt(tmp_path):
    policy = PolicyNetwork(fight_config(
        critic_width=critic_input_width("fight", 2, 2)), seed=0)
    path = tmp_path / "fight.ckpt"
    save_checkpoint(path, policy.store, policy.config.to_dict())
    return path


@pytest.fixture
def escape_ckpt(tmp_path):
    policy = PolicyNetwork(escape_config(
        critic_input_width("escape", 2, 2)), seed=1)
    path = tmp_path / "escape.ckpt"
    save_checkpoint(path, policy.store, policy.config.to_dict())
    return path


def save_commander(path, senses=2, variant=True):
    """A shared N<senses>-Opt commander checkpoint, with the variant in its
    config blob as `train-commander` writes it unless `variant` is False."""
    policy = PolicyNetwork(commander_config(
        senses, critic_input_width("commander", 3, 3, senses=senses)), seed=1)
    blob = policy.config.to_dict()
    if variant:
        blob["variant"] = CommanderVariant(senses=senses).__dict__
    save_checkpoint(path, policy.store, blob)
    return path


# the option-loop and commander scenario keys, at values their checks accept
COMMANDER_KEYS = {"commander_senses": 3, "opponent_fight_prob": 0.1,
                  "option_horizon": 3, "boundary_margin": 1,
                  "favorable_distance": 1, "favorable_ata": 5,
                  "escape_away_ata": 10}


def expand(command, tmp_path, fight_ckpt, escape_ckpt, out):
    """`command` with its placeholders filled in (`{fight}`, `{escape}`,
    `{out}`, and `{hierarchy}` for a commander's three checkpoint flags) and
    its outputs under `out`; evaluate and sweep play one episode."""
    paths = {"fight": str(fight_ckpt), "escape": str(escape_ckpt),
             "out": str(out)}
    args = []
    for arg in command:
        if arg == "{hierarchy}":
            args += ["--commander-ckpt",
                     str(save_commander(tmp_path / "cmd.ckpt")),
                     "--fight-ckpt", paths["fight"],
                     "--escape-ckpt", paths["escape"]]
        else:
            args.append(arg.format(**paths))
    outputs = {"evaluate": ["--out", out / "report.json"],
               "sweep": ["--out", out / "sweep"],
               "train-commander": ["--run-dir", out / "run"],
               "train-low": ["--run-dir", out / "run"]}
    return args + list(map(str, outputs[command[0]])) + ["--episodes", "1"] * (
        command[0] in ("evaluate", "sweep"))


def record_init(monkeypatch, cls, attr, into):
    """Appends to `into` the `attr` of every `cls` built from now on."""
    init = cls.__init__

    def recording(obj, *args, **kwargs):
        init(obj, *args, **kwargs)
        into.append(getattr(obj, attr))

    monkeypatch.setattr(cls, "__init__", recording)


def small_config(tmp_path, ppo=True, **scenario_kw):
    """A small config file; `ppo` False leaves out the ppo section, which
    the evaluation commands reject, and a scenario key set to None is left
    out (fight and escape training reject `horizon`)."""
    base = dict(n_agents=2, n_opponents=2, horizon=6, map_size=20.0)
    base.update(scenario_kw)
    cfg = {"scenario": {k: v for k, v in base.items() if v is not None}}
    if ppo:
        cfg["ppo"] = {"batch_size": 24, "update_epochs": 1, "minibatches": 2}
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

    @pytest.mark.parametrize("argv, flag", [
        (["evaluate", "--agent", "fight"], "--agent-ckpt"),
        (["evaluate", "--agent", "escape"], "--agent-ckpt"),
        (["evaluate", "--agent", "standard", "--episodes", "1",
          "--trajectory-out", "t.jsonl"], "--agent-ckpt"),
        (["evaluate", "--agent", "hierarchy", "--fight-ckpt", "f",
          "--escape-ckpt", "e"], "--commander-ckpt"),
        (["evaluate", "--agent", "hierarchy", "--commander-ckpt", "c",
          "--escape-ckpt", "e"], "--fight-ckpt"),
        (["evaluate", "--agent", "hierarchy", "--commander-ckpt", "c",
          "--fight-ckpt", "f", "--episodes", "1", "--trajectory-out",
          "t.jsonl"], "--escape-ckpt"),
    ])
    def test_missing_checkpoint_flag_is_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"needs {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, words", [
        (["train-low", "--policy", "standard", "--variant", "fripun"],
         "--variant fripun: the standard policy takes base"),
        (["train-low", "--policy", "fight", "--variant", "bogus"],
         "--variant bogus: the fight policy takes base|fripun|shfrac"),
        (["train-low", "--policy", "escape", "--variant", "fripun"],
         "--variant fripun: the escape policy takes base|dist|dist_speed"),
        (["train-commander", "--fight-ckpt", "nope.ckpt"],
         "needs --fight-ckpt and --escape-ckpt, or --league-dir alone"),
        (["train-commander", "--league-dir", "league", "--fight-ckpt", "f"],
         "needs --fight-ckpt and --escape-ckpt, or --league-dir alone"),
        (["train-commander"],
         "needs --fight-ckpt and --escape-ckpt, or --league-dir alone"),
        (["evaluate", "--agent", "random", "--agent-ckpt", "nope.ckpt",
          "--commander-ckpt", "nope2.ckpt", "--episodes", "1"],
         "--agent random does not read --agent-ckpt"),
        (["evaluate", "--agent", "random", "--commander-ckpt", "c"],
         "--agent random does not read --commander-ckpt"),
        (["evaluate", "--agent", "fight", "--agent-ckpt", "a",
          "--escape-ckpt", "e", "--episodes", "1", "--trajectory-out",
          "t.jsonl"],
         "--agent fight does not read --escape-ckpt"),
        (["evaluate", "--agent", "hierarchy", "--commander-ckpt", "c",
          "--fight-ckpt", "f", "--escape-ckpt", "e", "--agent-ckpt", "a"],
         "--agent hierarchy does not read --agent-ckpt"),
        (["sweep", "--commander-ckpt", "c", "--fight-ckpt", "f",
          "--escape-ckpt", "e", "--out", "o", "--cells", "bogus"],
         "--cells: 'bogus' is not one of 2v2,3v3,"),
        (["sweep", "--commander-ckpt", "c", "--fight-ckpt", "f",
          "--escape-ckpt", "e", "--out", "o", "--cells", "2v2,3V3"],
         "--cells: '3V3' is not one of 2v2,3v3,"),
        # a train-low flag counts as given whatever its value
        (["train-low", "--policy", "escape", "--framework", "ctde"],
         "--policy escape does not read --framework"),
        (["train-low", "--policy", "escape", "--fc-baseline"],
         "--policy escape does not read --fc-baseline"),
        (["train-low", "--policy", "escape", "--level", "L3"],
         "--policy escape does not read --level"),
        (["train-low", "--policy", "standard", "--framework", "ctce"],
         "--policy standard does not read --framework"),
        (["train-low", "--policy", "standard", "--fc-baseline"],
         "--policy standard does not read --fc-baseline"),
        (["train-low", "--policy", "standard", "--level", "curriculum"],
         "--policy standard does not read --level"),
        (["train-low", "--policy", "fight", "--steps-phase2", "0"],
         "--policy fight does not read --steps-phase2"),
        (["train-low", "--policy", "standard", "--steps-phase2", "4"],
         "--policy standard does not read --steps-phase2"),
        (["train-low", "--policy", "standard", "--league-dir", "league"],
         "--policy standard does not read --league-dir"),
    ])
    def test_unread_input_is_usage_error(self, argv, words, tmp_path, capsys):
        run_dir = tmp_path / "run"
        if argv[0].startswith("train-"):
            argv = argv + ["--steps", "4", "--run-dir", str(run_dir)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert words in capsys.readouterr().err
        assert not run_dir.exists()  # rejected before any output

    @pytest.mark.parametrize("command", [
        ["train-low", "--policy", "fight", "--level", "L1"],
        ["train-low", "--policy", "escape"],
        ["train-low", "--policy", "standard"],
        ["train-commander", "--fight-ckpt", "{fight}", "--escape-ckpt",
         "{escape}"],
        ["train-commander", "--league-dir", "{league}"],
    ])
    def test_refused_ppo_value_writes_nothing(self, command, tmp_path,
                                              fight_ckpt, escape_ckpt, capsys):
        # the PPO settings are checked before any run or league directory
        # is made; a refused value is a runtime error
        run_dir, league = tmp_path / "run", tmp_path / "league"
        argv = [arg.format(fight=fight_ckpt, escape=escape_ckpt, league=league)
                for arg in command]
        code = main(argv + ["--steps", "4", "--run-dir", str(run_dir),
                            "--set", "ppo.batch_size=0"])
        assert code == 1
        assert "batch_size must be at least 1" in capsys.readouterr().err
        assert not run_dir.exists() and not league.exists()

    @pytest.mark.parametrize("flags, words", [
        (["--framework", "dtde", "--fc-baseline", "--level", "L1"],
         "fc_baseline replaces the attention network"),
        (["--framework", "ctce", "--fc-baseline"],
         "fc_baseline replaces the attention network"),
        (["--framework", "dtde", "--level", "L4"], "dtde cannot train L4 or L5"),
        (["--framework", "dtde"], "dtde cannot train L4 or L5"),
    ])
    def test_refused_mode_or_level_writes_nothing(self, flags, words, tmp_path,
                                                  capsys):
        # the fight mode and its levels are checked before any run or league
        # directory is made; a refused one is a runtime error
        run_dir, league = tmp_path / "run", tmp_path / "league"
        code = main(["train-low", "--policy", "fight", *flags, "--steps", "4",
                     "--run-dir", str(run_dir), "--league-dir", str(league)])
        assert code == 1
        assert words in capsys.readouterr().err
        assert not run_dir.exists() and not league.exists()

    @pytest.mark.parametrize("command", [
        ["evaluate", "--out", "{out}/report.json", "--trajectory-out",
         "{out}/t.jsonl"],
        ["evaluate", "--episodes", "1", "--trajectory-out", "{out}/t.jsonl"],
    ])
    @pytest.mark.parametrize("opponent", [
        "scripted:L9", "scripted:L4", "scripted:", "scripted:L1:x", "bogus",
        "snapshot:", "snapshot::{escape}", "snapshot:{fight}:{escape}:",
        "snapshot:{fight}:{escape}:p", "snapshot:{fight}:{escape}:1.5",
        "snapshot:{fight}:{escape}:-0.1", "snapshot:{fight}:{escape}:nan",
        "snapshot:{fight}:{escape}:0.5:x",
    ])
    def test_bad_opponent_is_usage_error(self, command, opponent, tmp_path,
                                         fight_ckpt, escape_ckpt, monkeypatch,
                                         capsys):
        import dogfight.cli

        loads = []
        monkeypatch.setattr(dogfight.cli, "load_policy", loads.append)
        out = tmp_path / "out"
        spec = opponent.format(fight=fight_ckpt, escape=escape_ckpt)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(out=out) for arg in command]
                 + ["--agent", "fight", "--agent-ckpt", str(fight_ckpt),
                    "--opponent", spec])
        assert exc.value.code == 2
        assert "--opponent" in capsys.readouterr().err
        assert loads == []  # rejected before any checkpoint loads
        assert not out.exists()

    # (agent, opponent): a snapshot's escape checkpoint and p are read by
    # the hierarchy's option loop alone
    SHAPES = [("random", "scripted:L1"), ("random", "scripted:L2"),
              ("random", "scripted:L3"), ("random", "snapshot:{fight}"),
              ("random", "snapshot:{fight}:"),
              ("hierarchy", "snapshot:{fight}:{escape}:0"),
              ("hierarchy", "snapshot:{fight}:{escape}:0.25"),
              ("hierarchy", "snapshot:{fight}::1.0")]

    @pytest.mark.parametrize("agent, opponent", SHAPES,
                             ids=[opponent for _, opponent in SHAPES])
    def test_every_opponent_shape_runs(self, agent, opponent, tmp_path,
                                       fight_ckpt, escape_ckpt):
        out = tmp_path / "report.json"
        command = ["evaluate", "--agent", agent, "--opponent", opponent,
                   *["{hierarchy}"] * (agent == "hierarchy")]
        assert main(expand(command, tmp_path, fight_ckpt, escape_ckpt, tmp_path)
                    + ["--config", str(small_config(tmp_path, ppo=False))]) == 0
        assert EvalReport.load(out).episodes == 1

    @pytest.mark.parametrize("agent, opponent", [
        ("random", "snapshot:{fight}:{escape}"),
        ("random", "snapshot:{fight}::1.0"),
        ("fight", "snapshot:{fight}:{escape}:0.25"),
        ("hierarchy", "snapshot:{fight}:{escape}"),
        ("hierarchy", "snapshot:{fight}:{escape}:1"),
        ("hierarchy", "snapshot:{fight}::0.5"),
    ], ids=lambda value: value)
    def test_unread_snapshot_part_refused(self, agent, opponent, tmp_path,
                                          fight_ckpt, escape_ckpt,
                                          monkeypatch, capsys):
        # p is read by the hierarchy's re-roll alone, and with p = 1 every
        # opponent fights, so an escape checkpoint goes with p below 1
        import dogfight.cli

        loads = []
        monkeypatch.setattr(dogfight.cli, "load_policy", loads.append)
        monkeypatch.setattr(dogfight.cli, "load_checkpoint", loads.append)
        out = tmp_path / "out"
        command = ["evaluate", "--agent", agent, "--opponent", opponent,
                   "--trajectory-out", "{out}/t.jsonl",
                   *{"random": [], "fight": ["--agent-ckpt", "{fight}"],
                     "hierarchy": ["{hierarchy}"]}[agent]]
        with pytest.raises(SystemExit) as exc:
            main(expand(command, tmp_path, fight_ckpt, escape_ckpt, out))
        assert exc.value.code == 2
        assert "--opponent" in capsys.readouterr().err
        assert loads == []  # rejected before any checkpoint loads
        assert not out.exists()

    @pytest.mark.parametrize("argv, words", [
        (["evaluate", "--agent", "random", "--episodes", "-3"],
         "--episodes must be at least 1"),
        (["evaluate", "--agent", "random", "--episodes", "0"],
         "--episodes must be at least 1"),
        (["sweep", "--commander-ckpt", "c", "--fight-ckpt", "f",
          "--escape-ckpt", "e", "--out", "o", "--episodes", "0"],
         "--episodes must be at least 1"),
        (["evaluate", "--agent", "random", "--episodes", "2",
          "--trajectory-out", "t.jsonl", "--trajectory-episode", "7"],
         "--trajectory-episode 7 is not one of the 2 episodes"),
        (["evaluate", "--agent", "random", "--episodes", "2",
          "--trajectory-out", "t.jsonl", "--trajectory-episode", "-1"],
         "--trajectory-episode -1 is not one of the 2 episodes"),
        (["train-low", "--policy", "fight", "--level", "L1", "--steps", "0"],
         "--steps must be at least 1, not 0"),
        (["train-low", "--policy", "standard", "--steps", "-4"],
         "--steps must be at least 1, not -4"),
        (["train-low", "--policy", "escape", "--steps", "8",
          "--steps-phase2", "-3"], "--steps-phase2 -3 is not between 0 and "
                                   "--steps 8"),
        (["train-low", "--policy", "escape", "--steps", "8",
          "--steps-phase2", "9"], "--steps-phase2 9 is not between 0 and "
                                  "--steps 8"),
        (["train-commander", "--fight-ckpt", "f", "--escape-ckpt", "e",
          "--steps", "0"], "--steps must be at least 1, not 0"),
        (["gradcheck", "--draws", "0"], "--draws must be at least 1, not 0"),
    ])
    def test_count_out_of_range_is_usage_error(self, argv, words, tmp_path,
                                               capsys):
        run_dir = tmp_path / "run"
        if argv[0].startswith("train-"):
            argv = argv + ["--run-dir", str(run_dir)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert words in capsys.readouterr().err
        assert not run_dir.exists()  # rejected before any output

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        code = main(["evaluate", "--agent", "fight",
                     "--agent-ckpt", str(tmp_path / "nope.ckpt"),
                     "--episodes", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


    def test_checkpoint_before_fused_layers_named(self, tmp_path, capsys):
        # one weight per attention projection and per head, as written
        # before those layers were fused
        policy = PolicyNetwork(fight_config(
            critic_width=critic_input_width("fight", 2, 2)), seed=0)
        arrays = {}
        for name, data in policy.store.state_arrays().items():
            prefix, _, rest = name.partition(".")
            if rest == "attn.qkv":
                for i, proj in enumerate("qkv"):
                    arrays[f"{prefix}.attn.{proj}"] = data[:, i * 100:(i + 1) * 100]
            elif rest.startswith("heads."):
                start = 0
                for j, arity in enumerate((13, 9, 2, 2)):
                    block = data[..., start:start + arity]
                    arrays[f"{prefix}.head{j}.{rest[-1]}"] = block
                    start += arity
            else:
                arrays[name] = data
        path = tmp_path / "old.ckpt"
        save_arrays(path, arrays, policy.config.to_dict())
        code = main(["evaluate", "--agent", "fight", "--agent-ckpt", str(path),
                     "--opponent", "scripted:L1", "--episodes", "1"])
        err = capsys.readouterr().err
        assert code == 1 and str(path) in err
        for fused in ("ac1.attn.qkv", "ac1.heads.W", "ac2.heads.b"):
            assert fused in err


class TestBlasThreads:
    @staticmethod
    def _run(script, env):
        """`script` in a fresh interpreter, as the console script starts
        one, importing the package this session imported, with `env` as its
        only BLAS thread settings."""
        clean = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}
        clean["PYTHONPATH"] = os.pathsep.join(filter(None, [
            os.path.dirname(os.path.dirname(dogfight.__file__)),
            os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", script],
                              env={**clean, **env}, capture_output=True,
                              text=True)

    @pytest.mark.parametrize("env, want", [({}, "1"),
                                           ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
    def test_one_thread_unless_set(self, env, want):
        out = self._run("import os, sys, dogfight.cli; print('numpy' in "
                        "sys.modules, os.environ['OPENBLAS_NUM_THREADS'])", env)
        out.check_returncode()
        assert out.stdout.split() == ["True", want]

    @pytest.mark.parametrize("env, code", [({}, 2),
                                            ({"OPENBLAS_NUM_THREADS": "1"}, 0)])
    def test_numpy_loaded_first_needs_a_set_thread_count(self, env, code):
        # numpy's thread pool starts when numpy loads, so the CLI refuses to
        # run on a pool it could not pin
        out = self._run("import sys, numpy, dogfight.cli; sys.exit("
                        "dogfight.cli.main(['evaluate', '--agent', 'random', "
                        "'--opponent', 'scripted:L1', '--episodes', '1']))",
                        env)
        assert out.returncode == code
        refused = "set OPENBLAS_NUM_THREADS=1 before numpy loads" in out.stderr
        assert refused == (code == 2)


class TestGradcheck:
    def test_passes_quickly_with_few_draws(self, capsys):
        assert main(["gradcheck", "--draws", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 5


class TestEvaluate:
    def test_random_agent_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["evaluate", "--agent", "random",
                     "--opponent", "scripted:L1",
                     "--config", str(small_config(tmp_path, ppo=False)),
                     "--episodes", "2", "--out", str(out), "--seed", "3"])
        assert code == 0
        report = EvalReport.load(out)
        assert report.episodes == 2

    def test_report_into_a_missing_directory(self, tmp_path):
        out = tmp_path / "nodir" / "report.json"
        assert main(["evaluate", "--agent", "random", "--opponent",
                     "scripted:L1", "--episodes", "1", "--set",
                     "scenario.horizon=5", "--out", str(out)]) == 0
        assert EvalReport.load(out).episodes == 1

    def test_snapshot_opponents(self, tmp_path, fight_ckpt):
        out = tmp_path / "report.json"
        code = main(["evaluate", "--agent", "random",
                     "--opponent", f"snapshot:{fight_ckpt}",
                     "--config", str(small_config(tmp_path, ppo=False)),
                     "--episodes", "1", "--out", str(out)])
        assert code == 0

    def test_fight_agent_with_checkpoint(self, tmp_path, fight_ckpt):
        code = main(["evaluate", "--agent", "fight",
                     "--agent-ckpt", str(fight_ckpt),
                     "--opponent", "scripted:L1",
                     "--config", str(small_config(tmp_path, ppo=False)),
                     "--episodes", "1"])
        assert code == 0

    def test_hierarchy_reads_each_checkpoint_once(self, tmp_path, fight_ckpt,
                                                  escape_ckpt, monkeypatch):
        import dogfight.cli
        import dogfight.nn.networks

        reads = []

        def counted(path):
            reads.append(str(path))
            return load_checkpoint(path)

        for module in (dogfight.cli, dogfight.nn.networks):
            monkeypatch.setattr(module, "load_checkpoint", counted)
        commander = save_commander(tmp_path / "commander.ckpt")
        code = main(["evaluate", "--agent", "hierarchy",
                     "--commander-ckpt", str(commander),
                     "--fight-ckpt", str(fight_ckpt),
                     "--escape-ckpt", str(escape_ckpt),
                     "--opponent", "scripted:L1",
                     "--set", "scenario.horizon=5", "--episodes", "1"])
        assert code == 0
        assert sorted(reads) == sorted(map(str, (commander, fight_ckpt,
                                                 escape_ckpt)))


class TestSweep:
    def test_commander_options_from_checkpoint(self, tmp_path, fight_ckpt,
                                               escape_ckpt):
        # an N3 commander needs three sensed opponents in its observation
        commander = save_commander(tmp_path / "commander.ckpt", senses=3)
        out = tmp_path / "sweep"
        code = main(["sweep", "--commander-ckpt", str(commander),
                     "--fight-ckpt", str(fight_ckpt),
                     "--escape-ckpt", str(escape_ckpt),
                     "--cells", "2v2", "--episodes", "1",
                     "--set", "scenario.horizon=5", "--out", str(out)])
        assert code == 0
        assert EvalReport.load(out / "2v2.json").episodes == 1

    def test_commander_without_variant_rejected(self, tmp_path):
        from dogfight.cli import _load_commander

        path = save_commander(tmp_path / "old.ckpt", variant=False)
        with pytest.raises(ValueError, match=str(path)):
            _load_commander(str(path))


class TestConfigRejected:
    def _error(self, capsys, *args):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--agent", "random", "--opponent",
                  "scripted:L1", "--episodes", "1", *args])
        return exc.value.code, capsys.readouterr().err

    def test_unknown_section_named(self, capsys):
        code, err = self._error(capsys, "--set", "bogus.key=1")
        assert code == 2 and "bogus" in err

    def test_scenario_level_is_no_key(self, capsys):
        code, err = self._error(capsys, "--set", "scenario.level=nonsense")
        assert code == 2 and "level" in err

    def test_commander_senses_come_from_the_scenario(self, tmp_path, fight_ckpt,
                                                     escape_ckpt):
        args = ["train-commander", "--fight-ckpt", str(fight_ckpt),
                "--escape-ckpt", str(escape_ckpt), "--steps", "4",
                "--set", "ppo.batch_size=4", "--run-dir", str(tmp_path / "run")]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--senses", "3"])
        assert exc.value.code == 2
        assert main(args + ["--set", "scenario.horizon=4",
                            "--set", "scenario.commander_senses=3"]) == 0
        ckpt = tmp_path / "run" / "checkpoints" / "commander_Shared-N3-Opt-Assess.ckpt"
        _, config = load_checkpoint(ckpt)
        assert config["instances"][0]["head_arities"] == [4]
        assert config["variant"]["senses"] == 3 and config["variant"]["opt"]
        # the scenario keys override the commander-training scenario
        scenario = json.loads((tmp_path / "run" / "config.json").read_text())[
            "scenario"]
        assert scenario == dict(ScenarioConfig.commander_training(
            horizon=4, commander_senses=3).__dict__)
        assert (scenario["n_agents"], scenario["map_size"]) == (3, 50.0)

    # (command, its arguments by checkpoint, the unread key set on it); an
    # "export-traj" case writes its one episode's trajectory
    UNREAD = {
        "evaluate-ppo": (["evaluate", "--agent", "random", "--opponent",
                          "scripted:L1"], "ppo.batch_size=0"),
        "sweep-ppo": (["sweep", "{hierarchy}", "--cells", "2v2"],
                      "ppo.batch_size=0"),
        "export-traj-ppo": (["evaluate", "--agent", "random", "--opponent",
                             "scripted:L1", "--trajectory-out",
                             "{out}/t.jsonl"], "ppo.batch_size=0"),
        "sweep-script": (["sweep", "{hierarchy}", "--cells", "2v2"],
                         "script.flee_probability=0.5"),
        "train-commander-script": (["train-commander", "--fight-ckpt", "{fight}",
                                    "--escape-ckpt", "{escape}", "--steps", "4"],
                                   "script.flee_probability=0.5"),
        "evaluate-snapshot-script": (["evaluate", "--agent", "random",
                                      "--opponent", "snapshot:{fight}"],
                                     "script.flee_probability=0.5"),
        "export-traj-snapshot-script": (["evaluate", "--agent", "random",
                                         "--opponent", "snapshot:{fight}",
                                         "--trajectory-out", "{out}/t.jsonl"],
                                        "script.flee_probability=0.5"),
        "evaluate-hierarchy-senses": (["evaluate", "--agent", "hierarchy",
                                       "{hierarchy}", "--opponent",
                                       "scripted:L1"],
                                      "scenario.commander_senses=3"),
        "sweep-senses": (["sweep", "{hierarchy}", "--cells", "2v2"],
                         "scenario.commander_senses=3"),
        "export-traj-hierarchy-senses": (["evaluate", "--agent", "hierarchy",
                                          "{hierarchy}", "--opponent",
                                          "scripted:L1", "--trajectory-out",
                                          "{out}/t.jsonl"],
                                         "scenario.commander_senses=3"),
        # every command takes its seed from --seed
        "evaluate-seed": (["evaluate", "--agent", "random", "--opponent",
                           "scripted:L1"], "scenario.seed=1"),
        "sweep-seed": (["sweep", "{hierarchy}", "--cells", "2v2"],
                       "scenario.seed=1"),
        "export-traj-seed": (["evaluate", "--agent", "random", "--opponent",
                              "scripted:L1", "--trajectory-out",
                              "{out}/t.jsonl"], "scenario.seed=1"),
        "train-commander-seed": (["train-commander", "--fight-ckpt", "{fight}",
                                  "--escape-ckpt", "{escape}", "--steps", "4"],
                                 "scenario.seed=1"),
        "train-low-standard-seed": (["train-low", "--policy", "standard",
                                     "--steps", "4"], "scenario.seed=1"),
    }

    @pytest.mark.parametrize("case", sorted(UNREAD))
    def test_unread_key_rejected(self, case, tmp_path, fight_ckpt, escape_ckpt,
                                 capsys):
        command, override = self.UNREAD[case]
        args = expand(command, tmp_path, fight_ckpt, escape_ckpt, tmp_path)
        base = args + ["--set", "scenario.horizon=3"]
        assert main(base) == 0  # the command runs without the key
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(base + ["--set", override])
        key = override.split("=")[0]
        named = key if key.startswith("scenario.") else key.split(".")[0]
        err = capsys.readouterr().err
        assert exc.value.code == 2 and f"does not read config '{named}'" in err
        if key == "scenario.seed":
            assert "--seed sets the seed" in err

    # command shapes, each with its outputs written under one directory; an
    # "export-traj" shape writes its one episode's trajectory
    SHAPES = {
        "fight-L1": ["train-low", "--policy", "fight", "--level", "L1",
                     "--steps", "4"],
        "fight-L2": ["train-low", "--policy", "fight", "--level", "L2",
                     "--steps", "4"],
        "fight-L3": ["train-low", "--policy", "fight", "--level", "L3",
                     "--steps", "4"],
        "fight-L4": ["train-low", "--policy", "fight", "--level", "L4",
                     "--steps", "4"],
        "escape": ["train-low", "--policy", "escape", "--steps", "4",
                   "--steps-phase2", "0"],
        "standard": ["train-low", "--policy", "standard", "--steps", "4"],
        "commander-no-assess": ["train-commander", "--fight-ckpt", "{fight}",
                                "--escape-ckpt", "{escape}", "--steps", "4",
                                "--no-assess"],
        "evaluate-random-L1": ["evaluate", "--agent", "random", "--opponent",
                               "scripted:L1"],
        "evaluate-fight-L3": ["evaluate", "--agent", "fight", "--agent-ckpt",
                              "{fight}", "--opponent", "scripted:L3"],
        "evaluate-hierarchy-L1": ["evaluate", "--agent", "hierarchy",
                                  "{hierarchy}", "--opponent", "scripted:L1"],
        "export-traj-random-L2": ["evaluate", "--agent", "random",
                                  "--opponent", "scripted:L2",
                                  "--trajectory-out", "{out}/t.jsonl"],
        "sweep-2v2": ["sweep", "{hierarchy}", "--cells", "2v2"],
        "sweep-10v10": ["sweep", "{hierarchy}", "--cells", "10v10"],
        "sweep-3v3-PF": ["sweep", "{hierarchy}", "--cells", "3v3-PF"],
    }
    # (shape, a config key the shape's run does not read, the name its
    # rejection gives)
    IGNORED = [
        *[(shape, f"scenario.{key}={value}", f"scenario.{key}")
          for shape in ("fight-L1", "escape", "standard",
                        "evaluate-random-L1", "evaluate-fight-L3")
          for key, value in COMMANDER_KEYS.items()],
        ("evaluate-hierarchy-L1", "scenario.escape_away_ata=10",
         "scenario.escape_away_ata"),
        ("evaluate-hierarchy-L1", "scenario.opponent_fight_prob=0.1",
         "scenario.opponent_fight_prob"),
        ("sweep-2v2", "scenario.escape_away_ata=10", "scenario.escape_away_ata"),
        ("commander-no-assess", "scenario.escape_away_ata=10",
         "scenario.escape_away_ata"),
        # a key every selected sweep cell sets
        ("sweep-10v10", "scenario.horizon=5", "scenario.horizon"),
        ("sweep-3v3-PF", "scenario.opponent_fight_prob=0.1",
         "scenario.opponent_fight_prob"),
        # script keys by opponent level: L1 and L4 read none, L2 only
        # l2_fire_prob, L3 the others
        ("fight-L1", "script.flee_probability=0.5", "script"),
        ("fight-L1", "script.l2_fire_prob=0.9", "script"),
        ("fight-L4", "script.flee_probability=0.5", "script"),
        ("fight-L2", "script.flee_probability=0.5", "script.flee_probability"),
        ("fight-L3", "script.l2_fire_prob=0.9", "script.l2_fire_prob"),
        ("escape", "script.l2_fire_prob=0.9", "script.l2_fire_prob"),
        ("standard", "script.l2_fire_prob=0.9", "script.l2_fire_prob"),
        ("evaluate-random-L1", "script.l2_fire_prob=0.9", "script"),
        ("export-traj-random-L2", "script.close_distance=2",
         "script.close_distance"),
        # an unknown ppo key, rejected before the run directory exists
        ("fight-L1", "ppo.bogus=1", "ppo.bogus"),
    ]

    @pytest.mark.parametrize("shape, override, named", IGNORED,
                             ids=[f"{shape}-{override.split('=')[0]}"
                                  for shape, override, _ in IGNORED])
    def test_ignored_key_rejected(self, shape, override, named, tmp_path,
                                  fight_ckpt, escape_ckpt, capsys):
        out = tmp_path / "out"
        args = expand(self.SHAPES[shape], tmp_path, fight_ckpt, escape_ckpt,
                      out)
        with pytest.raises(SystemExit) as exc:
            main(args + ["--set", override])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and f"does not read config '{named}'" in err
        assert not out.exists()  # rejected before any output

    # the scenario keys every run reads, and those every option loop reads
    EPISODE = ["n_agents", "n_opponents", "map_size", "agent_cannon",
               "agent_rockets", "opponent_cannon", "opponent_rockets",
               "spawn_margin", "rounds_per_step"]
    OPTION = ["option_horizon", "boundary_margin", "favorable_distance",
              "favorable_ata"]
    L3 = ["flee_probability", "flee_duration", "fire_ata_scale",
          "full_speed_distance", "min_speed_fraction", "close_distance"]
    SMALL = {"scenario.map_size": 12.0, "ppo.batch_size": 20,
             "ppo.update_epochs": 1, "ppo.minibatches": 2}
    # (command, its scenario and its ppo defaults, the scenario keys it
    # reads, the script keys it reads, whether it reads ppo)
    READ = {
        "fight-L2-shfrac": (
            ["train-low", "--policy", "fight", "--level", "L2", "--variant",
             "shfrac", "--steps", "40"], ScenarioConfig(), PPOConfig(),
            EPISODE + ["share_fraction"], ["l2_fire_prob"], True),
        "escape-dist-speed": (
            ["train-low", "--policy", "escape", "--variant", "dist_speed",
             "--steps", "40", "--steps-phase2", "0"], ScenarioConfig(),
            PPOConfig(), EPISODE + ["near_distance", "far_distance",
                                    "slow_speed", "fast_speed"], L3, True),
        "standard": (
            ["train-low", "--policy", "standard", "--steps", "40",
             "--set", "scenario.horizon=20"],
            ScenarioConfig(n_agents=3, n_opponents=3, horizon=20),
            PPOConfig(), EPISODE + ["horizon", "far_distance"], L3, True),
        "commander": (
            ["train-commander", "--fight-ckpt", "{fight}", "--escape-ckpt",
             "{escape}", "--steps", "40", "--set", "scenario.horizon=20"],
            ScenarioConfig.commander_training(horizon=20),
            PPOConfig(batch_size=1000), EPISODE + ["horizon", *OPTION,
             "opponent_fight_prob", "commander_senses", "escape_away_ata"],
            [], True),
        "evaluate-hierarchy-L2": (
            ["evaluate", "--agent", "hierarchy", "{hierarchy}", "--opponent",
             "scripted:L2", "--set", "scenario.horizon=20"],
            ScenarioConfig(horizon=20), None, EPISODE + ["horizon", *OPTION],
            ["l2_fire_prob"], False),
        "export-traj-random-L3": (
            ["evaluate", "--agent", "random", "--opponent", "scripted:L3",
             "--trajectory-out", "{out}/t.jsonl", "--set",
             "scenario.horizon=20"], ScenarioConfig(horizon=20),
            None, EPISODE + ["horizon"], L3, False),
        "sweep-2v2": (
            ["sweep", "{hierarchy}", "--cells", "2v2", "--set",
             "scenario.horizon=20"],
            ScenarioConfig.commander_training(horizon=20), None,
            EPISODE[2:] + ["horizon", *OPTION, "opponent_fight_prob"], [],
            False),
    }

    @pytest.mark.parametrize("case", sorted(READ))
    def test_reads_the_keys_of_its_table(self, case, tmp_path, fight_ckpt,
                                         escape_ckpt, capsys, monkeypatch):
        # every key the command reads, set to the value it runs with, leaves
        # its outputs byte-equal; a run's own sim config, and script config
        # where it reads script keys, reaches every env and scripted
        # controller it builds; any other scenario, script or ppo key is
        # rejected before any output
        command, scenario, ppo, scenario_keys, script_keys, trains = \
            self.READ[case]
        small = {k: v for k, v in self.SMALL.items()
                 if trains or not k.startswith("ppo.")}
        read = {
            **{f"scenario.{k}": getattr(scenario, k) for k in scenario_keys},
            **{f"script.{k}": getattr(ScriptConfig(), k) for k in script_keys},
            **{f"sim.{f.name}": f.default
               for f in dataclasses.fields(SimConfig)},
            **{f"ppo.{k}": v for k, v in (ppo.__dict__ if trains else {}).items()},
            **small}

        def run(name, settings):
            out = tmp_path / name
            args = expand(command, tmp_path, fight_ckpt, escape_ckpt, out)
            for key, value in settings.items():
                args += ["--set", f"{key}={json.dumps(value)}"]
            return out, main(args)

        def outputs(name, settings):
            out, code = run(name, settings)
            assert code == 0
            return {str(p.relative_to(out)): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()}

        unset = outputs("unset", small)
        assert outputs("defaults", read) == unset
        sim = SimConfig(rocket_speed=1100.0)
        script = ScriptConfig(**{k: 2 * getattr(ScriptConfig(), k)
                                 for k in script_keys[:1]})
        sims, scripts = [], []
        with monkeypatch.context() as m:
            record_init(m, CombatEnv, "sim_cfg", sims)
            record_init(m, ScriptedController, "script", scripts)
            outputs("non-default", {
                **small, "sim.rocket_speed": sim.rocket_speed,
                **{f"script.{k}": getattr(script, k) for k in script_keys[:1]}})
        assert sims and set(sims) == {sim}
        if script_keys:
            assert scripts and set(scripts) == {script}
        if trains:  # an update ran
            assert b"policy_loss" in unset["run/metrics.jsonl"]
        for section, cls in (("scenario", ScenarioConfig),
                             ("script", ScriptConfig), ("ppo", PPOConfig)):
            for field in dataclasses.fields(cls):
                key = f"{section}.{field.name}"
                if key in read:
                    continue
                with pytest.raises(SystemExit) as exc:
                    run("rejected", {**small, key: field.default})
                assert exc.value.code == 2, key
                assert not (tmp_path / "rejected").exists()
        capsys.readouterr()

    # (arguments, the reward-only scenario key set, whether the reward reads it)
    REWARD_KEYS = [
        (["train-low", "--policy", "fight", "--level", "L1"], "share_fraction", False),
        (["train-low", "--policy", "fight", "--variant", "fripun", "--level",
          "L1"], "share_fraction", False),
        (["train-low", "--policy", "fight", "--variant", "shfrac", "--level",
          "L1"], "slow_speed", False),
        (["train-low", "--policy", "fight", "--variant", "shfrac", "--level",
          "L1"], "share_fraction", True),
        (["train-low", "--policy", "fight", "--level", "L1"], "far_distance", False),
        (["train-low", "--policy", "escape", "--steps-phase2", "0"],
         "near_distance", False),
        (["train-low", "--policy", "escape", "--variant", "dist",
          "--steps-phase2", "0"], "slow_speed", False),
        (["train-low", "--policy", "escape", "--variant", "dist",
          "--steps-phase2", "0"], "fast_speed", False),
        (["train-low", "--policy", "escape", "--variant", "dist_speed",
          "--steps-phase2", "0"], "share_fraction", False),
        (["train-low", "--policy", "escape", "--variant", "dist_speed",
          "--steps-phase2", "0"], "slow_speed", True),
        (["train-low", "--policy", "standard"], "near_distance", False),
        (["train-commander", "--fight-ckpt", "f", "--escape-ckpt", "e"],
         "far_distance", False),
        (["evaluate", "--agent", "random", "--episodes", "1"],
         "near_distance", False),
        (["sweep", "--commander-ckpt", "c", "--fight-ckpt", "f",
          "--escape-ckpt", "e", "--out", "o"], "fast_speed", False),
        (["evaluate", "--agent", "random", "--episodes", "1",
          "--trajectory-out", "t.jsonl"], "share_fraction", False),
    ]

    @pytest.mark.parametrize("argv, key, read", REWARD_KEYS)
    def test_reward_key_read_by_its_reward_alone(self, argv, key, read,
                                                 tmp_path, capsys):
        run_dir = tmp_path / "run"
        if argv[0].startswith("train-"):
            argv = argv + ["--steps", "4", "--run-dir", str(run_dir)]
        if argv[0] == "train-low":
            argv = argv + ["--config", str(small_config(tmp_path, horizon=None))]
        argv = argv + ["--set", f"scenario.{key}=1"]
        if read:
            assert main(argv) == 0
            config = json.loads((run_dir / "config.json").read_text())
            assert config["scenario"][key] == 1
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"does not read config 'scenario.{key}'" in capsys.readouterr().err
        assert not run_dir.exists()  # rejected before any output

    def test_commander_batch_size_is_the_ppo_key(self, tmp_path, fight_ckpt,
                                                 escape_ckpt):
        run_dir = tmp_path / "run"
        args = ["train-commander", "--fight-ckpt", str(fight_ckpt),
                "--escape-ckpt", str(escape_ckpt), "--steps", "12",
                "--set", "scenario.horizon=4", "--run-dir", str(run_dir)]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--batch-size", "7"])
        assert exc.value.code == 2
        assert main(args + ["--set", "ppo.batch_size=7"]) == 0
        config = json.loads((run_dir / "config.json").read_text())
        assert config["ppo"]["batch_size"] == 7
        # three episodes of three agents give at least nine transitions, so
        # the trainer updated at 7 and logged it
        assert (run_dir / "metrics.jsonl").read_text()
        default = tmp_path / "default"
        assert main(args[:-1] + [str(default)]) == 0
        config = json.loads((default / "config.json").read_text())
        assert config["ppo"]["batch_size"] == 1000
        assert not (default / "metrics.jsonl").exists()


class TestTrainLow:
    def test_single_level_run(self, tmp_path):
        run_dir = tmp_path / "run"
        code = main(["train-low", "--policy", "fight", "--level", "L1",
                     "--steps", "30", "--run-dir", str(run_dir),
                     "--config", str(small_config(tmp_path, horizon=None)),
                     "--seed", "5"])
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
                     "--config", str(small_config(tmp_path, horizon=None)),
                     "--set", "scenario.map_size=25.0",
                     "--set", "ppo.batch_size=12"])
        assert code == 0
        config = json.loads((run_dir / "config.json").read_text())
        assert config["scenario"]["map_size"] == 25.0

    def test_single_level_config_records_ppo(self, tmp_path):
        run_dir = tmp_path / "run"
        assert main(["train-low", "--policy", "fight", "--level", "L2",
                     "--steps", "6", "--run-dir", str(run_dir),
                     "--config", str(small_config(tmp_path, horizon=None)),
                     "--set", "ppo.batch_size=5"]) == 0
        config = json.loads((run_dir / "config.json").read_text())
        assert config["ppo"] == {**PPOConfig().__dict__, "batch_size": 5,
                                 "update_epochs": 1, "minibatches": 2}

    def test_standard_baseline_reads_the_horizon(self, tmp_path):
        run_dir = tmp_path / "run"
        assert main(["train-low", "--policy", "standard", "--steps", "12",
                     "--run-dir", str(run_dir), "--set", "scenario.horizon=3",
                     "--set", "ppo.batch_size=3"]) == 0
        records = [json.loads(line) for line in
                   (run_dir / "metrics.jsonl").read_text().splitlines()]
        assert records and all(r["mean_length"] <= 3 for r in records)

    @pytest.mark.parametrize("level", ["L4", "L5", "curriculum"])
    def test_dtde_rejected_at_l4_and_l5(self, level, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main(["train-low", "--policy", "fight", "--framework", "dtde",
                     "--level", level, "--steps", "6", "--run-dir",
                     str(run_dir), "--league-dir", str(tmp_path / "league")])
        assert code == 1
        assert ("dtde cannot train L4 or L5: the league archives agent 0's "
                "network, whose ac2 weights never train") in capsys.readouterr().err
        assert not (run_dir / "metrics.jsonl").exists()
        assert not (tmp_path / "league" / "index.json").exists()  # nothing archived

    @pytest.mark.parametrize("policy", ["fight", "escape"])
    def test_level_or_phase_sets_the_horizon(self, policy, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train-low", "--policy", policy,
                  *["--level", "L1"] * (policy == "fight"),
                  "--steps", "1", "--run-dir", str(tmp_path / "run"),
                  "--set", "scenario.horizon=5"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert ("does not read config 'scenario.horizon': the level or phase "
                "sets the horizon") in err
        assert not (tmp_path / "run").exists()


class TestExportTraj:
    def test_writes_readable_trajectory(self, tmp_path):
        out = tmp_path / "traj.jsonl"
        code = main(["evaluate", "--agent", "random",
                     "--opponent", "scripted:L2",
                     "--config", str(small_config(tmp_path, ppo=False)),
                     "--episodes", "1", "--trajectory-out", str(out)])
        assert code == 0
        log = import_trajectory(out)
        assert log.rounds
        assert log.header["agent"] == "random"

    def test_sim_override_changes_trajectory(self, tmp_path):
        def rounds(name, *overrides):
            out = tmp_path / name
            assert main(["evaluate", "--agent", "random",
                         "--opponent", "scripted:L2", "--seed", "3",
                         "--config", str(small_config(tmp_path, ppo=False)),
                         "--episodes", "1", "--trajectory-out", str(out),
                         *overrides]) == 0
            return import_trajectory(out).rounds

        base = rounds("a.jsonl")
        assert rounds("b.jsonl") == base
        assert rounds("c.jsonl", "--set", "sim.round_seconds=0.2") != base

    @pytest.mark.parametrize("episode", [0, 3, 8, 9])
    def test_records_the_episode_it_names(self, episode, tmp_path,
                                          monkeypatch):
        # ten episodes play over eight lockstep slots, and a slot takes the
        # next episode when its own ends: the first episode, a middle one,
        # and the two that refill slots
        import dogfight.cli

        hooked = []

        def hooked_evaluate(*args, **kwargs):
            return evaluate(*args, **kwargs, episode_hook=lambda events, *_:
                            hooked.append(events))

        monkeypatch.setattr(dogfight.cli, "evaluate", hooked_evaluate)
        out = tmp_path / "t.jsonl"
        assert main(["evaluate", "--agent", "random", "--opponent",
                     "scripted:L3", "--config",
                     str(small_config(tmp_path, ppo=False, horizon=40)),
                     "--episodes", "10", "--trajectory-episode", str(episode),
                     "--trajectory-out", str(out)]) == 0
        log = import_trajectory(out)
        assert log.header["episode"] == episode
        assert log.header["scenario"] == dataclasses.asdict(ScenarioConfig(
            n_agents=2, n_opponents=2, horizon=40, map_size=20.0))

        def round_events(events):
            return json.loads(json.dumps([event_to_dict(e) for e in events]))

        recorded = [event for r in log.rounds for event in r["events"]]
        assert len(hooked) == 10 and recorded
        assert [k for k, events in enumerate(hooked)
                if round_events(events) == recorded] == [episode]
