"""The three benchmark workloads, each a closed loop in one process.

An operation is one collect-and-update cycle for the training workloads and
one episode for the sweep. `build` is the set-up the benchmark times. The
repository holds no trained checkpoints, so every network starts from
weights initialised with the fixed NET_SEED, standing in for a checkpoint:
a different network per seed would change how aircraft fly, and with it
the cost of a step, far more than the host does. The run's seed drives
everything else: episode spawns, action sampling, opponents and minibatch
shuffles. Where a workload reads checkpoints, set-up writes them into a
`LeagueArchive` and loads them back.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Traced functions are called through their modules (evaluation.evaluate,
# params.save_checkpoint), so the tracer's wrappers see these calls too.
from dogfight import evaluation
from dogfight.config import ScenarioConfig
from dogfight.env import CombatEnv
from dogfight.evaluation import HierarchyEvalActor, standard_sweep_cells
from dogfight.nn import params
from dogfight.nn.networks import NetworkConfig, PolicyNetwork
from dogfight.scripted import ScriptedController
from dogfight.train import (
    CommanderTrainer,
    CommanderVariant,
    LeagueArchive,
    LowLevelTrainer,
    PPOConfig,
    RunDir,
    SnapshotController,
    TrainMode,
    commander_network,
    curriculum_horizon,
    make_low_level_policy,
)

from . import checks

NET_SEED = 0


class StepCounter:
    """Counts env decision steps and the aircraft (either team) alive at the
    start of each, by wrapping `CombatEnv.step` at the class, and ticks the
    host clock, if one is given, at every step."""

    def __init__(self, clock=None):
        self.steps = 0
        self.aircraft = 0
        self.clock = clock
        self._original = None

    def install(self):
        original = CombatEnv.__dict__["step"]
        counter = self

        @functools.wraps(original)
        def step(env, *args, **kwargs):
            if counter.clock is not None:
                counter.clock.tick()
            if env.world is not None:
                counter.steps += 1
                counter.aircraft += sum(1 for a in env.world.aircraft if a.alive)
            return original(env, *args, **kwargs)

        self._original = original
        CombatEnv.step = step

    def uninstall(self):
        CombatEnv.step = self._original

    def reset(self):
        self.steps = 0
        self.aircraft = 0


def _start_from(policy: PolicyNetwork, fixed: PolicyNetwork):
    policy.store.load_arrays(fixed.store.state_arrays())


def _frozen_low_level(league_dir: Path):
    """Fight and escape networks as a 2v2 curriculum would leave them,
    written into a league archive and loaded back the way a commander run
    reads them."""
    low = ScenarioConfig()
    archive = LeagueArchive(league_dir)
    archive.save("fight", "L5",
                 make_low_level_policy("fight", "ctde", low, NET_SEED))
    archive.save("escape", "",
                 make_low_level_policy("escape", "ctde", low, NET_SEED + 1))
    files = {name: checks.sha256_of(archive.path(*key))
             for name, key in checks.LEAGUE_ENTRIES}
    return archive, archive.load("fight", "L5"), archive.load("escape"), files


# -- training workloads --------------------------------------------------------


@dataclass
class TrainState:
    trainer: object
    env: CombatEnv | None
    run_dir: RunDir
    gamma: float
    lam: float
    arities: tuple[int, ...]
    update: Callable[[], bool]
    last_buffer: list = field(default_factory=list)
    archive: LeagueArchive | None = None
    league_files: dict = field(default_factory=dict)
    durations: list = field(default_factory=list)


def _cycle(state: TrainState, collect):
    trainer = state.trainer
    while len(trainer.buffer) < trainer.ppo.batch_size:
        collect()
    state.last_buffer = list(trainer.buffer.transitions)
    state.durations.extend(t.duration for t in state.last_buffer)
    if not state.update():
        raise RuntimeError("full buffer did not trigger an update")


class FightTraining:
    """CTDE fight policy, 2v2 against scripted L3 at the L3 curriculum
    horizon, default PPOConfig, logging to a RunDir."""

    name = "train-fight-2v2"
    traced_ops = 4
    level = "L3"

    def build(self, seed: int, workdir: Path) -> TrainState:
        run_dir = RunDir(workdir / "run")
        scenario = ScenarioConfig(seed=seed)
        mode = TrainMode()
        trainer = LowLevelTrainer(scenario, PPOConfig(), mode, run_dir, seed=seed)
        _start_from(trainer.policy, make_low_level_policy(
            mode.kind, mode.framework, scenario, NET_SEED))
        controller = ScriptedController(self.level, trainer.opponent_rng,
                                        trainer.script)
        env = trainer.make_env(controller, horizon=curriculum_horizon(self.level))
        state = TrainState(trainer=trainer, env=env, run_dir=run_dir,
                           gamma=trainer.ppo.gamma, lam=trainer.ppo.gae_lambda,
                           arities=trainer.policy.config.instances[0].head_arities,
                           update=lambda: trainer.maybe_update(self.level))
        return state

    def op(self, state: TrainState):
        _cycle(state, lambda: state.trainer.run_episode(state.env))

    def env_steps(self, state: TrainState) -> int:
        return state.trainer.env_steps

    def scenario(self, state: TrainState) -> ScenarioConfig:
        return state.env.scenario

    def check(self, state: TrainState) -> list[str]:
        failures = checks.training_checks(state)
        failures += checks.ppo_gradient_probe(state.trainer.policy,
                                              state.last_buffer,
                                              state.trainer.ppo)
        return failures


class CommanderTraining:
    """CommanderTrainer, Shared-N2-Opt-Assess with a GRU, over frozen fight
    and escape networks read back from a LeagueArchive; opponents are
    SnapshotControllers with p_o = 0.75."""

    name = "train-commander-3v3"
    traced_ops = 4

    def build(self, seed: int, workdir: Path) -> TrainState:
        archive, fight, escape, files = _frozen_low_level(workdir / "league")
        run_dir = RunDir(workdir / "run")
        scenario = ScenarioConfig.commander_training(seed=seed)
        variant = CommanderVariant()
        trainer = CommanderTrainer(scenario, PPOConfig(batch_size=1000), variant,
                                   fight, escape, run_dir, seed=seed)
        _start_from(trainer.policy,
                    commander_network(variant, scenario, NET_SEED + 2))
        state = TrainState(trainer=trainer, env=None, run_dir=run_dir,
                           gamma=trainer.ppo.gamma, lam=trainer.ppo.gae_lambda,
                           arities=trainer.policy.config.instance("cmd").head_arities,
                           update=trainer.maybe_update,
                           archive=archive, league_files=files)
        return state

    def op(self, state: TrainState):
        _cycle(state, state.trainer.run_episode)

    def env_steps(self, state: TrainState) -> int:
        return state.trainer.env_steps

    def scenario(self, state: TrainState) -> ScenarioConfig:
        return state.trainer.scenario

    def check(self, state: TrainState) -> list[str]:
        failures = checks.training_checks(state)
        failures += checks.option_durations(
            state.durations, state.trainer.scenario.option_horizon)
        failures += checks.frozen_league(state.archive, state.league_files,
                                         state.trainer)
        return failures


# -- evaluation sweep ----------------------------------------------------------


@dataclass
class SweepState:
    actor: HierarchyEvalActor
    opponents: SnapshotController
    scenario: ScenarioConfig
    episode_rng: np.random.Generator
    episodes: list = field(default_factory=list)  # (roster, events, outcome)
    reports: list = field(default_factory=list)
    rerolls: int = 0
    fight_rerolls: int = 0


class Sweep:
    """Greedy HierarchyEvalActor over evaluation.evaluate at the 15v15 sweep
    cell (horizon 1000, p_o = 0.75), opponents attached to the actor as
    `dogfight evaluate --agent hierarchy` attaches them."""

    name = "sweep-15v15"
    traced_ops = 5

    def build(self, seed: int, workdir: Path) -> SweepState:
        _, fight, escape, _ = _frozen_low_level(workdir / "league")
        trained_at = ScenarioConfig.commander_training()
        commander_path = workdir / "commander.ckpt"
        net = commander_network(CommanderVariant(), trained_at, NET_SEED + 2)
        params.save_checkpoint(commander_path, net.store, net.config.to_dict())
        arrays, config = params.load_checkpoint(commander_path)
        commander = PolicyNetwork(NetworkConfig.from_dict(config))
        commander.store.load_arrays(arrays)

        cell = next(c for c in standard_sweep_cells() if c["name"] == "15v15")
        scenario = dataclasses.replace(
            trained_at, **{k: v for k, v in cell.items() if k != "name"})
        actor_rng, opponent_rng, episode_rng = (
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))
        actor = HierarchyEvalActor(commander, fight, escape, actor_rng,
                                   senses=trained_at.commander_senses,
                                   opt=True, greedy=True)
        opponents = SnapshotController(
            fight=fight, escape=escape, rng=opponent_rng,
            fight_prob=scenario.opponent_fight_prob, scenario=scenario)
        actor.opponents = opponents
        state = SweepState(actor=actor, opponents=opponents, scenario=scenario,
                           episode_rng=episode_rng)
        reassign = opponents.reassign

        def counted_reassign(world):
            reassign(world)
            for opp in world.aircraft:
                if opp.alive and opp.team == "opponent":
                    state.rerolls += 1
                    state.fight_rerolls += opponents.assignments[opp.id] == "fight"

        opponents.reassign = counted_reassign
        return state

    def op(self, state: SweepState):
        def hook(events, outcome, world):
            roster = {a.id: (a.team, a.spec.type_id) for a in world.aircraft}
            state.episodes.append((roster, list(events), outcome))

        report = evaluation.evaluate(
            state.actor, state.opponents, state.scenario, 1,
            seed=int(state.episode_rng.integers(1 << 62)), episode_hook=hook)
        state.reports.append(report)

    def env_steps(self, state: SweepState) -> int:
        return sum(r.total_steps for r in state.reports)

    def scenario(self, state: SweepState) -> ScenarioConfig:
        return state.scenario

    def check(self, state: SweepState) -> list[str]:
        failures = checks.replay_episodes(state.episodes, state.reports)
        failures += checks.reroll_share(state.rerolls, state.fight_rerolls,
                                        state.scenario.opponent_fight_prob)
        return failures


WORKLOADS = {w.name: w for w in (FightTraining(), CommanderTraining(), Sweep())}
