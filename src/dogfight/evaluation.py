"""Evaluation harness: win/loss/draw statistics, per-type event counters,
escape-mode outcomes, commander command statistics, and trajectory logs.

Counter semantics (fixed; the bookkeeping acceptance test replays event logs
against these rules), where a death is any event of `simcore.LOSS_EVENTS`:
  kills[T]           opponent aircraft destroyed by the fire of an agent of
                     type T (cannon or rocket),
  friendly_kills[T]  agent-team aircraft destroyed by the fire of an agent
                     of type T,
  deaths[T]          agent-team aircraft of type T destroyed by any cause,
                     boundary exits included,
  escaped episodes   no agent-team death of any cause (boundary included),
  kill episodes      at least one opponent-team death of any cause,
  killed episodes    at least one agent-team death of any cause.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from weakref import WeakKeyDictionary

import numpy as np

from .config import ScenarioConfig
from .env import (
    CombatEnv,
    LowLevelAction,
    OUTCOME_LOSS,
    OUTCOME_WIN,
    episode_stream,
)
from .observations import closest_opponents
from .simcore import (
    LOSS_EVENTS,
    CannonKill,
    OutOfBounds,
    RocketExpired,
    RocketKill,
    RocketLaunch,
    SimConfig,
    SimEvent,
    TEAM_AGENT,
    TEAM_OPPONENT,
    World,
)
from .train.commander import HierarchyEvalActor
from .train.policies import (
    LOCKSTEP_EPISODES,
    EpisodeActor,
    lockstep_envs,
    play_episodes,
)


@dataclass
class EvalReport:
    episodes: int = 0
    wins: int = 0
    losses: int = 0
    draws: int = 0
    kills: dict = field(default_factory=lambda: {"AC1": 0, "AC2": 0})
    deaths: dict = field(default_factory=lambda: {"AC1": 0, "AC2": 0})
    friendly_kills: dict = field(default_factory=lambda: {"AC1": 0, "AC2": 0})
    escaped_episodes: int = 0
    kill_episodes: int = 0
    killed_episodes: int = 0
    fight_commands: int = 0
    escape_commands: int = 0
    opponent_selection: list = field(default_factory=lambda: [0, 0, 0])
    total_steps: int = 0
    seed: int = 0

    @property
    def win_rate(self) -> float:
        return self.wins / self.episodes if self.episodes else 0.0

    @property
    def loss_rate(self) -> float:
        return self.losses / self.episodes if self.episodes else 0.0

    @property
    def draw_rate(self) -> float:
        return self.draws / self.episodes if self.episodes else 0.0

    @property
    def mean_episode_length(self) -> float:
        return self.total_steps / self.episodes if self.episodes else 0.0

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["win_rate"] = self.win_rate
        data["loss_rate"] = self.loss_rate
        data["draw_rate"] = self.draw_rate
        data["mean_episode_length"] = self.mean_episode_length
        return data

    def save(self, path: str | Path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps(self.to_dict(), indent=2,
                                         sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "EvalReport":
        data = json.loads(Path(path).read_text())
        kwargs = {f.name: data[f.name] for f in dataclasses.fields(cls)}
        return cls(**kwargs)


def count_events(world: World, events: list[SimEvent], report: EvalReport):
    """Accumulate one episode's events into the report: the per-type
    counters and the escaped, kill and killed episode flags."""
    agent_died = opponent_died = False
    for event in events:
        if not isinstance(event, LOSS_EVENTS):
            continue
        victim = world.get(event.victim)
        if event.shooter is not None:
            shooter = world.get(event.shooter)
            if shooter.team == TEAM_AGENT:
                kills = (report.kills if victim.team == TEAM_OPPONENT
                         else report.friendly_kills)
                kills[shooter.spec.type_id] += 1
        if victim.team == TEAM_AGENT:
            report.deaths[victim.spec.type_id] += 1
            agent_died = True
        else:
            opponent_died = True
    report.escaped_episodes += not agent_died
    report.kill_episodes += opponent_died
    report.killed_episodes += agent_died


# --- evaluation-time actors --------------------------------------------------
# `CTDEDriver` and `CTCEDriver` (train.policies) and `HierarchyEvalActor`
# (train.commander) run the policies' own decision code; these two add a
# random baseline and a commander-free one.


class RandomActor(EpisodeActor):
    """Uniform random low-level actions (bookkeeping/termination tests),
    drawn from an episode stream spawned from `rng`."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.streams = WeakKeyDictionary()  # env -> its episode's stream

    def begin_episode(self, env: CombatEnv):
        self.streams[env] = episode_stream(self.rng)

    def actions(self, envs: list[CombatEnv]) -> list[dict[int, LowLevelAction]]:
        out = []
        for env in envs:
            rng = self.streams[env]
            out.append({aid: LowLevelAction(
                h=int(rng.integers(-6, 7)), v=int(rng.integers(0, 9)),
                c=int(rng.random() < 0.3), r=int(rng.random() < 0.1))
                for aid in env.agent_ids()})
        return out


class AlwaysFightActor(HierarchyEvalActor):
    """No-commander baseline: at each option boundary every agent is sent
    to fight its closest opponent; snapshot opponents re-roll there, as in
    the hierarchy."""

    def _command(self, envs):
        return [None] * len(envs)  # no commander decides

    def _decide(self, env, d):
        self.slots[env].options = {aid: (1, [o.id for o in closest_opponents(
                                       env.world, env.world.get(aid), 1)])
                                   for aid in env.agent_ids()}


# --- episode loop -------------------------------------------------------------


def evaluate(actor, opponent_controller, scenario: ScenarioConfig,
             episodes: int, seed: int,
             episode_hook=None, trajectory: TrajectoryLog | None = None,
             sim_cfg: SimConfig = SimConfig()) -> EvalReport:
    """Run `episodes` evaluation episodes, seeded from `seed`, and aggregate
    counters. The benchmark's sweep plays at the default `sim_cfg`.

    Episodes run on the `LOCKSTEP_EPISODES` env slots of `lockstep_envs`
    (see `play_episodes`): the first env, and so a one-episode evaluation,
    plays on `opponent_controller` itself (every env has one), every other
    env on a fresh controller built from its fields. Since every
    decision-maker draws from per-episode streams, the report does not
    depend on how many run at once. `episode_hook(events, outcome, world)`
    receives each finished episode's full event log, in episode order (the
    bookkeeping replayer uses this). `trajectory` records every round of
    the episode its header names (`episode`). Command counts cover this
    call's episodes only.
    """
    report = EvalReport(seed=seed)
    master = np.random.default_rng(seed)
    seeds = [int(master.integers(1 << 62)) for _ in range(episodes)]
    recorded = trajectory.header["episode"] if trajectory else None
    envs = lockstep_envs(CombatEnv(scenario, opponent_controller, sim_cfg),
                         max(1, min(LOCKSTEP_EPISODES, episodes)))

    def seed_for(env: CombatEnv, index: int) -> int | None:
        env.round_listener = trajectory.record_round if index == recorded else None
        return seeds[index] if index < episodes else None

    counts = _command_counts(actor)
    finished = {}  # episode index -> what it left, until the ones before it end
    for index, env, events in play_episodes(envs, actor, seed_for):
        finished[index] = (events, env.outcome, env.world, env.step_count)
        while report.episodes in finished:
            events, outcome, world, steps = finished.pop(report.episodes)
            # the counters read only team and aircraft type, which no
            # episode changes, so the end-of-episode world serves every event
            count_events(world, events, report)
            report.episodes += 1
            report.total_steps += steps
            report.wins += outcome == OUTCOME_WIN
            report.losses += outcome == OUTCOME_LOSS
            report.draws += outcome not in (OUTCOME_WIN, OUTCOME_LOSS)
            if episode_hook is not None:
                episode_hook(events, outcome, world)
    report.fight_commands, report.escape_commands, selection = (
        now - before for now, before in zip(_command_counts(actor), counts))
    report.opponent_selection = selection.tolist()
    return report


def _command_counts(actor) -> tuple[int, int, np.ndarray]:
    """An actor's lifetime fight and escape commands and opponent
    selections (zero for an actor without a commander)."""
    return (getattr(actor, "fight_commands", 0),
            getattr(actor, "escape_commands", 0),
            np.array(getattr(actor, "opponent_selection", [0, 0, 0])))


def scenario_sweep(cells: list[dict], actor_factory, opponent_factory,
                   base_scenario: ScenarioConfig, episodes: int, seed: int,
                   sim_cfg: SimConfig) -> list[tuple[str, EvalReport]]:
    """One evaluation per grid cell. A cell dict carries a name plus
    ScenarioConfig overrides (team sizes, horizon, opponent fight
    probability). Large cells (10v10, 15v15) should set horizon=1000."""
    results = []
    for i, cell in enumerate(cells):
        overrides = {k: v for k, v in cell.items() if k != "name"}
        scenario = dataclasses.replace(base_scenario, **overrides)
        actor = actor_factory(scenario, seed + i)
        controller = opponent_factory(scenario, seed + 1000 + i)
        report = evaluate(actor, controller, scenario, episodes, seed + i,
                          sim_cfg=sim_cfg)
        results.append((cell["name"], report))
    return results


def standard_sweep_cells() -> list[dict]:
    return [
        {"name": "2v2", "n_agents": 2, "n_opponents": 2},
        {"name": "3v3", "n_agents": 3, "n_opponents": 3},
        {"name": "4v4", "n_agents": 4, "n_opponents": 4},
        {"name": "5v5", "n_agents": 5, "n_opponents": 5},
        {"name": "2v4", "n_agents": 2, "n_opponents": 4},
        {"name": "3v5", "n_agents": 3, "n_opponents": 5},
        {"name": "3v3-PF", "n_agents": 3, "n_opponents": 3,
         "opponent_fight_prob": 1.0},
        {"name": "3v3-PE", "n_agents": 3, "n_opponents": 3,
         "opponent_fight_prob": 0.0},
        {"name": "10v10", "n_agents": 10, "n_opponents": 10, "horizon": 1000},
        {"name": "15v15", "n_agents": 15, "n_opponents": 15, "horizon": 1000},
    ]


# --- trajectory logs ----------------------------------------------------------


def event_to_dict(event: SimEvent) -> dict:
    data = {"kind": type(event).__name__}
    data.update(dataclasses.asdict(event))
    return data


_EVENT_TYPES = {cls.__name__: cls for cls in
                (CannonKill, RocketKill, RocketLaunch, RocketExpired, OutOfBounds)}


def event_from_dict(data: dict) -> SimEvent:
    kind = data.pop("kind")
    return _EVENT_TYPES[kind](**data)


@dataclass
class TrajectoryLog:
    header: dict
    rounds: list[dict] = field(default_factory=list)
    landmarks: list[dict] = field(default_factory=list)

    def record_round(self, world: World, events: list[SimEvent]):
        self.rounds.append({
            "round": world.round_idx,
            "aircraft": [
                {"id": a.id, "team": a.team, "type": a.spec.type_id,
                 "x": a.x, "y": a.y, "heading": a.heading,
                 "speed": a.speed, "alive": a.alive}
                for a in world.aircraft
            ],
            "events": [event_to_dict(e) for e in events],
        })
        for event in events:
            if isinstance(event, LOSS_EVENTS):
                victim = world.get(event.victim)
                self.landmarks.append({
                    "id": victim.id, "round": world.round_idx,
                    "x": victim.x, "y": victim.y,
                })


def export_trajectory(log: TrajectoryLog, path: str | Path):
    """Write a trajectory as JSON lines: header record, one record per
    round, and a landmark record per destruction."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps({"type": "header", **log.header}, sort_keys=True) + "\n")
        for rec in log.rounds:
            fh.write(json.dumps({"type": "round", **rec}, sort_keys=True) + "\n")
        for rec in log.landmarks:
            fh.write(json.dumps({"type": "landmark", **rec}, sort_keys=True) + "\n")


def import_trajectory(path: str | Path) -> TrajectoryLog:
    """Read a file `export_trajectory` wrote; a line that is not a typed
    record raises a ValueError naming the file and the line."""
    header, rounds, landmarks = None, [], []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line:
            continue
        try:
            rec = json.loads(line)
            kind = rec.pop("type")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"{path}, line {number}: not a trajectory "
                             f"record: {exc!r}") from exc
        if kind == "header":
            header = rec
        elif kind == "round":
            rounds.append(rec)
        elif kind == "landmark":
            landmarks.append(rec)
        else:
            raise ValueError(f"{path}, line {number}: unknown trajectory "
                             f"record type {kind!r}")
    if header is None:
        raise ValueError(f"{path}: trajectory file has no header record")
    return TrajectoryLog(header, rounds, landmarks)
