"""Command-line entry points: training, evaluation, sweeps, gradient
checking.

Configuration comes from an optional JSON file (--config) with sections
"scenario", "script", "sim", "ppo"; individual keys are overridable with
repeated --set section.key=value flags. Each command reads the sections
and keys its flags make it read (`_reads`); setting any other, unknown ones
included, is a usage error. Exit codes: 0 success, 1 runtime failure, 2
usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from pathlib import Path

# One BLAS thread unless the environment sets one, before numpy loads: a
# second OpenBLAS thread costs CPU without speeding these small products.
# Numpy loaded first with none of the variables set has started its thread
# pool already, which setting them now does not shrink: `main` refuses that.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_UNPINNED = ("numpy" in sys.modules
                  and not any(var in os.environ for var in _BLAS_VARS))
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402 - after the BLAS thread setting

from .config import ScenarioConfig, ScriptConfig, apply_overrides, parse_config
from .evaluation import (
    HierarchyEvalActor,
    RandomActor,
    TrajectoryLog,
    evaluate,
    export_trajectory,
    scenario_sweep,
    standard_sweep_cells,
)
from .nn.gradcheck import TOLERANCE, run_standard_suite
from .nn.networks import PolicyNetwork, load_policy, policy_from_checkpoint
from .nn.params import load_checkpoint
from .rewards import REWARD_VARIANTS
from .scripted import SCRIPT_KEYS, ScriptedController
from .simcore import SimConfig
from .train import (
    CTCEDriver,
    CTDEDriver,
    CommanderVariant,
    LeagueArchive,
    LowLevelTrainer,
    PPOConfig,
    RunDir,
    SnapshotController,
    TrainMode,
    run_curriculum,
    train_commander,
    train_escape,
    train_standard_baseline,
)
from .train.league import LOW_LEVELS
from .train.trainer import check_levels, controller_for_level, curriculum_horizon


# why a key no command, or the command at hand, reads
_UNREAD_BECAUSE = {"scenario.seed": ": --seed sets the seed",
                   "train-low scenario.horizon": ": the level or phase sets "
                                                 "the horizon"}
# the scenario keys every episode reads, and those every option loop reads
_EPISODE_KEYS = {"n_agents", "n_opponents", "map_size", "agent_cannon",
                 "agent_rockets", "opponent_cannon", "opponent_rockets",
                 "spawn_margin", "rounds_per_step"}
_OPTION_KEYS = {"option_horizon", "boundary_margin", "favorable_distance",
                "favorable_ata"}
# an `--opponent`: a scripted level, or fight[, escape[, p]] snapshots
_OPPONENT = re.compile(
    r"scripted:L[123]|snapshot:[^:]+(?::(?P<escape>[^:]*)(?::(?P<p>.*))?)?")


class UsageError(ValueError):
    """A config key that the command's flags leave unread: exit code 2, as
    for a `--variant` the policy has no reward for."""


def _fields(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def _sweep_cells(names: str) -> list[dict]:
    """The sweep cells of a `--cells` list, every cell for an empty one."""
    return [c for c in standard_sweep_cells()
            if not names or c["name"] in names.split(",")]


def _reads(args) -> dict[str, set[str]]:
    """Each config section the run that `args` asks for reads, with the keys
    it reads there."""
    scenario, levels = _EPISODE_KEYS | {"horizon"}, ()
    reads = {"sim": _fields(SimConfig), "scenario": scenario}
    if args.command.startswith("train-"):
        reads["ppo"] = _fields(PPOConfig)
    if args.command == "train-low":
        scenario |= set(REWARD_VARIANTS[args.policy][args.variant])
        if args.policy != "standard":
            scenario.remove("horizon")
        levels = {"fight": LOW_LEVELS if args.level in (None, "curriculum")
                  else [args.level]}.get(args.policy, ["L3"])
    elif args.command == "train-commander":
        scenario |= _OPTION_KEYS | {"opponent_fight_prob", "commander_senses"}
        if not args.no_assess:
            scenario.add("escape_away_ata")
    elif args.command == "sweep":
        scenario |= _OPTION_KEYS | {"opponent_fight_prob"}
        scenario -= set.intersection(*map(set, _sweep_cells(args.cells)))
    else:  # evaluate
        if args.agent == "hierarchy":
            scenario |= _OPTION_KEYS
        if args.opponent.startswith("scripted:"):
            levels = [args.opponent.split(":", 1)[1]]
    reads["script"] = {key for level in levels
                       for key in SCRIPT_KEYS.get(level, ())}
    return {section: keys for section, keys in reads.items() if keys}


def _load_config(args, scenario=ScenarioConfig) -> dict:
    """The typed config of a command. `scenario` is the command's scenario
    recipe: keys of the scenario section override its defaults, and without
    the section the recipe's defaults are the scenario. Setting a section or
    key that the run does not read (`_reads`) is a usage error."""
    raw = json.loads(Path(args.config).read_text()) if args.config else {}
    raw, reads = apply_overrides(raw, args.set), _reads(args)
    unread = sorted({s for s in raw if s not in reads} | {
        f"{s}.{k}" for s in raw if s in reads for k in raw[s]
        if k not in reads[s]})
    if unread:
        raise UsageError(f"{args.command} does not read config " + ", ".join(
            repr(key) + _UNREAD_BECAUSE.get(f"{args.command} {key}",
                                            _UNREAD_BECAUSE.get(key, ""))
            for key in unread))
    return parse_config(raw, scenario)


def _standard_scenario(**kw) -> ScenarioConfig:
    """3-vs-3 at a 300-step horizon, the single-policy baseline's scenario."""
    return ScenarioConfig(**{"n_agents": 3, "n_opponents": 3, "horizon": 300,
                             **kw})


def _ppo(cfg: dict, **defaults) -> PPOConfig:
    """The ppo section over the command's own `defaults`."""
    return PPOConfig(**{**defaults, **cfg.get("ppo", {})})


def _load_commander(path: str) -> tuple[PolicyNetwork, dict]:
    """A commander checkpoint and its `senses` and `opt`, read from the
    variant that `train-commander` writes into the config blob."""
    arrays, config = load_checkpoint(path)
    variant = config.get("variant")
    if variant is None:
        raise ValueError(f"commander checkpoint {path} records no variant "
                         f"(senses, opt) in its config")
    return (policy_from_checkpoint(arrays, config, source=path),
            {"senses": variant["senses"], "opt": variant["opt"]})


def cmd_gradcheck(args) -> int:
    reports = run_standard_suite(draws=args.draws, seed=args.seed)
    ok = True
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"[{status}] {report.name}: max relative error "
              f"{report.max_rel_error:.3e} over {report.checks} coordinates "
              f"(tolerance {TOLERANCE:.0e})")
        ok = ok and report.passed
    return 0 if ok else 1


def cmd_train_low(args) -> int:
    cfg = _load_config(args, _standard_scenario if args.policy == "standard"
                       else ScenarioConfig)
    # a refused ppo value, mode or level exits before any directory is made
    ppo = _ppo(cfg)
    if args.policy == "fight":
        level = args.level or "curriculum"
        mode = TrainMode(framework=args.framework or "ctde", kind="fight",
                         reward_variant=args.variant,
                         fc_baseline=args.fc_baseline)
        check_levels(mode, LOW_LEVELS if level == "curriculum" else [level])
    run = RunDir(args.run_dir)
    scenario, script, sim, seed = (cfg["scenario"], cfg["script"], cfg["sim"],
                                   args.seed)

    if args.policy == "standard":
        train_standard_baseline(scenario, ppo, run, seed, args.steps, script, sim)
        return 0

    archive = LeagueArchive(args.league_dir or (Path(args.run_dir) / "league"))
    if args.policy == "escape":
        phase2 = args.steps_phase2 if args.steps_phase2 is not None else args.steps // 2
        train_escape(scenario, ppo, run, archive, seed, args.steps - phase2,
                     phase2, args.variant, script, sim)
        return 0

    if level == "curriculum":
        run_curriculum(scenario, ppo, mode, run, archive, seed, args.steps,
                       script, sim)
        return 0

    trainer = LowLevelTrainer(scenario, ppo, mode, run, seed, script, sim)
    trainer.write_config(mode=mode.__dict__, level=level, steps=args.steps)
    controller = controller_for_level(level, trainer, archive)
    trainer.train_level(level, controller, args.steps,
                        horizon=curriculum_horizon(level))
    archive.save("fight", level, trainer.policy)
    return 0


def cmd_train_commander(args) -> int:
    cfg = _load_config(args, ScenarioConfig.commander_training)
    ppo = _ppo(cfg, batch_size=1000)  # before any directory is made
    run = RunDir(args.run_dir)
    scenario = cfg["scenario"]
    if args.league_dir is None:
        fight = load_policy(args.fight_ckpt)
        escape = load_policy(args.escape_ckpt)
    else:
        archive = LeagueArchive(args.league_dir)
        fight = archive.load("fight", "L5")
        escape = archive.load("escape", "")
    variant = CommanderVariant(senses=scenario.commander_senses,
                               opt=not args.no_opt, assess=not args.no_assess,
                               shared=not args.glob, arch=args.arch)
    train_commander(scenario, ppo, variant, fight, escape, run, args.seed,
                    args.steps, cfg["sim"])
    return 0


def _make_opponents(spec: str, scenario: ScenarioConfig, script: ScriptConfig,
                    seed: int):
    """Opponent spec (see `_opponent`): scripted:L3, snapshot:<fight.ckpt>,
    or snapshot:<fight.ckpt>:<escape.ckpt>:<p_fight>."""
    rng = np.random.default_rng(seed)
    if spec.startswith("scripted:"):
        return ScriptedController(spec.split(":", 1)[1], rng, script)
    parts = spec.split(":")[1:]
    fight = load_policy(parts[0])
    escape = load_policy(parts[1]) if len(parts) > 1 and parts[1] else None
    p_fight = float(parts[2]) if len(parts) > 2 else 1.0
    return SnapshotController(fight=fight, escape=escape, rng=rng,
                              fight_prob=p_fight, scenario=scenario)


def _opponent(spec: str) -> str:
    """An `--opponent`: scripted:L1|L2|L3, or snapshot:<fight>[:<escape>[:p]]
    with p a number in [0, 1]."""
    match = _OPPONENT.fullmatch(spec)
    try:
        if match and (match["p"] is None or 0.0 <= float(match["p"]) <= 1.0):
            return spec
    except ValueError:  # p is no number
        pass
    raise argparse.ArgumentTypeError(
        f"{spec!r} is not scripted:L1|L2|L3 or "
        f"snapshot:<fight>[:<escape>[:p]] with p a number in [0, 1]")


def _make_actor(args, seed: int):
    rng = np.random.default_rng(seed)
    if args.agent == "random":
        return RandomActor(rng)
    if args.agent in ("fight", "escape"):
        policy = load_policy(args.agent_ckpt)
        return CTDEDriver(policy, args.agent, rng, greedy=not args.stochastic)
    if args.agent == "standard":
        policy = load_policy(args.agent_ckpt)
        return CTCEDriver(policy, "fight", rng, greedy=not args.stochastic)
    if args.agent == "hierarchy":
        commander, options = _load_commander(args.commander_ckpt)
        fight = load_policy(args.fight_ckpt)
        escape = load_policy(args.escape_ckpt)
        return HierarchyEvalActor(commander, fight, escape, rng,
                                  greedy=not args.stochastic, **options)
    raise ValueError(f"unknown agent kind {args.agent!r}")


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    scenario = cfg["scenario"]
    actor = _make_actor(args, args.seed)
    opponents = _make_opponents(args.opponent, scenario, cfg["script"],
                                args.seed + 1)
    trajectory = None
    if args.trajectory_out:
        trajectory = TrajectoryLog(header={
            "agent": args.agent, "opponent": args.opponent,
            "episode": args.trajectory_episode,
            "scenario": dataclasses.asdict(scenario)})
    report = evaluate(actor, opponents, scenario, args.episodes, args.seed,
                      trajectory=trajectory, sim_cfg=cfg["sim"])
    if args.out:
        report.save(args.out)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if trajectory:
        export_trajectory(trajectory, args.trajectory_out)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args, ScenarioConfig.commander_training)
    base = cfg["scenario"]
    commander, options = _load_commander(args.commander_ckpt)
    fight = load_policy(args.fight_ckpt)
    escape = load_policy(args.escape_ckpt)
    cells = _sweep_cells(args.cells)

    def actor_factory(scenario, seed):
        rng = np.random.default_rng(seed)
        return HierarchyEvalActor(commander, fight, escape, rng, **options)

    def opponent_factory(scenario, seed):
        return SnapshotController(
            fight=fight, escape=escape, rng=np.random.default_rng(seed),
            fight_prob=scenario.opponent_fight_prob, scenario=scenario)

    results = scenario_sweep(cells, actor_factory, opponent_factory, base,
                             args.episodes, args.seed, cfg["sim"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, report in results:
        report.save(out_dir / f"{name}.json")
        print(f"{name}: win {report.win_rate:.1%} / draw {report.draw_rate:.1%}"
              f" / loss {report.loss_rate:.1%}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dogfight",
        description="2D air-combat simulation and hierarchical PPO training")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="config override")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--draws", type=int, default=100,
                   help="random draws per architecture, at least 1")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train-low", help="train fight/escape/standard policies")
    common(p)
    p.add_argument("--policy", choices=["fight", "escape", "standard"],
                   required=True)
    p.add_argument("--level", help="fight only (default: curriculum)",
                   choices=["L1", "L2", "L3", "L4", "L5", "curriculum"])
    p.add_argument("--framework", help="fight only (default: ctde)",
                   choices=["ctde", "ctce", "dtde"])
    p.add_argument("--variant", default="base",
                   help="reward variant: " + ", ".join(
                       f"{'|'.join(v)} ({k})" for k, v in REWARD_VARIANTS.items()))
    p.add_argument("--fc-baseline", action="store_true",
                   help="ctde fight only: two 500-wide layers instead of the "
                        "attention net")
    p.add_argument("--steps", type=int, required=True,
                   help="env steps, at least 1 (per level for the curriculum):"
                        " no episode starts once they are taken")
    p.add_argument("--steps-phase2", type=int, default=None,
                   help="escape: the env steps of --steps, from 0 to --steps, "
                        "that play the frozen L5 fight policy (default: half)")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--league-dir", default=None, help="fight and escape")
    p.set_defaults(func=cmd_train_low)

    p = sub.add_parser("train-commander", help="train the option commander")
    common(p)
    p.add_argument("--league-dir", help="archive holding fight L5 + escape")
    p.add_argument("--fight-ckpt")
    p.add_argument("--escape-ckpt")
    p.add_argument("--no-opt", action="store_true")
    p.add_argument("--no-assess", action="store_true")
    p.add_argument("--glob", action="store_true",
                   help="joint CTCE commander network")
    p.add_argument("--arch", default="gru", choices=["gru", "sa", "fc"])
    p.add_argument("--steps", type=int, required=True,
                   help="env steps, at least 1")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=cmd_train_commander)

    p = sub.add_parser("evaluate", help="run evaluation episodes")
    common(p)
    p.add_argument("--agent", required=True,
                   choices=["fight", "escape", "standard", "hierarchy", "random"])
    p.add_argument("--agent-ckpt")
    p.add_argument("--commander-ckpt")
    p.add_argument("--fight-ckpt")
    p.add_argument("--escape-ckpt")
    p.add_argument("--opponent", default="scripted:L3", type=_opponent,
                   help="scripted:<level> or snapshot:<fight>[:<escape>[:p]]")
    p.add_argument("--stochastic", action="store_true",
                   help="sample instead of argmax at evaluation")
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--out", help="write the EvalReport JSON here")
    p.add_argument("--trajectory-out", help="record one episode's trajectory")
    p.add_argument("--trajectory-episode", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="scenario grid evaluation (hierarchy)")
    common(p)
    p.add_argument("--commander-ckpt", required=True)
    p.add_argument("--fight-ckpt", required=True)
    p.add_argument("--escape-ckpt", required=True)
    p.add_argument("--cells", default="",
                   help="comma list from: " + ",".join(
                       c["name"] for c in standard_sweep_cells()))
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


# the policy flags each `train-low --policy` reads
_POLICY_FLAGS = {"fight": ["framework", "fc_baseline", "level", "league_dir"],
                 "escape": ["steps_phase2", "league_dir"], "standard": []}
# the checkpoint flags each `--agent` of evaluate reads
_AGENT_CHECKPOINTS = {"fight": ["agent_ckpt"], "escape": ["agent_ckpt"],
                      "standard": ["agent_ckpt"], "random": [], "hierarchy": [
                          "commander_ckpt", "fight_ckpt", "escape_ckpt"]}


def _usage_problem(args) -> str | None:
    """What argparse cannot check: a low-level policy's reward variant and
    flags, the checkpoint flags each command reads, the parts of a snapshot
    opponent the agent reads, the sweep's cells, and the counts: steps,
    draws and episodes at least 1, escape's phase-two steps within --steps."""
    if args.command == "train-low":
        if args.variant not in REWARD_VARIANTS[args.policy]:
            return (f"--variant {args.variant}: the {args.policy} policy "
                    f"takes {'|'.join(REWARD_VARIANTS[args.policy])}")
        for dest in ("framework", "fc_baseline", "level", "steps_phase2",
                     "league_dir"):
            value = getattr(args, dest)  # given whatever its value
            if (value is not None and value is not False
                    and dest not in _POLICY_FLAGS[args.policy]):
                return (f"--policy {args.policy} does not read "
                        f"--{dest.replace('_', '-')}")
        if (args.steps_phase2 is not None
                and not 0 <= args.steps_phase2 <= args.steps):
            return (f"--steps-phase2 {args.steps_phase2} is not between 0 "
                    f"and --steps {args.steps}")
    if args.command == "train-commander":
        sources = [dest for dest in ("fight_ckpt", "escape_ckpt", "league_dir")
                   if getattr(args, dest) is not None]
        if sources not in (["fight_ckpt", "escape_ckpt"], ["league_dir"]):
            return ("train-commander needs --fight-ckpt and --escape-ckpt, "
                    "or --league-dir alone")
    if args.command == "evaluate":
        for dest in ("agent_ckpt", "commander_ckpt", "fight_ckpt",
                     "escape_ckpt"):
            given = getattr(args, dest) is not None
            if given != (dest in _AGENT_CHECKPOINTS[args.agent]):
                return (f"--agent {args.agent} "
                        f"{'does not read' if given else 'needs'} "
                        f"--{dest.replace('_', '-')}")
        # only the hierarchy's option loop re-rolls snapshot opponents, and
        # with p = 1 every one fights
        snapshot = _OPPONENT.fullmatch(args.opponent)
        escape, p = snapshot["escape"], snapshot["p"]
        if args.agent != "hierarchy" and (escape or p is not None):
            return (f"--agent {args.agent} does not read the escape "
                    f"checkpoint or p of --opponent {args.opponent}")
        if (args.agent == "hierarchy"
                and bool(escape) != (p is not None and float(p) < 1)):
            return (f"--opponent {args.opponent}: a snapshot escape "
                    f"checkpoint needs p below 1, and p below 1 needs one")
    if args.command == "sweep":
        known = [c["name"] for c in standard_sweep_cells()]
        for name in args.cells.split(",") if args.cells else ():
            if name not in known:
                return f"--cells: {name!r} is not one of {','.join(known)}"
    for flag in ("steps", "draws", "episodes"):
        if getattr(args, flag, 1) < 1:
            return f"--{flag} must be at least 1, not {getattr(args, flag)}"
    episodes = getattr(args, "episodes", 1)
    if (getattr(args, "trajectory_out", None)
            and not 0 <= args.trajectory_episode < episodes):
        return (f"--trajectory-episode {args.trajectory_episode} is not one "
                f"of the {episodes} episodes (0 to {episodes - 1})")
    return None


def main(argv=None) -> int:
    if _BLAS_UNPINNED:
        print("error: numpy was loaded before dogfight.cli with no BLAS thread "
              "count set, and seeded outputs depend on that count; set "
              "OPENBLAS_NUM_THREADS=1 before numpy loads", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _usage_problem(args)
    if problem:
        parser.error(problem)  # exits 2
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
