"""Evaluation harness tests: counters, determinism, trajectories, actors."""

import dataclasses
import json

import numpy as np
import pytest

from dogfight.config import ScenarioConfig, ScriptConfig
from dogfight.evaluation import (
    AlwaysFightActor,
    EvalReport,
    HierarchyEvalActor,
    RandomActor,
    TrajectoryLog,
    count_events,
    evaluate,
    event_from_dict,
    event_to_dict,
    export_trajectory,
    import_trajectory,
    scenario_sweep,
    standard_sweep_cells,
)
from dogfight.nn import PolicyNetwork, commander_config, escape_config, fight_config
from dogfight.observations import critic_input_width
from dogfight.scripted import ScriptedController
from dogfight.simcore import CannonKill, OutOfBounds, RocketKill, SimConfig, TEAM_OPPONENT
from dogfight.train import CTDEDriver, SnapshotController


def small_scenario(**kw):
    base = dict(n_agents=2, n_opponents=2, horizon=25, map_size=20.0, seed=0)
    base.update(kw)
    return ScenarioConfig(**base)


def scripted(level="L1", seed=0, **kw):
    return ScriptedController(level, np.random.default_rng(seed),
                              ScriptConfig(**kw))


class TestEvaluate:
    def test_all_draws_when_nobody_fires(self):
        report = evaluate(RandomActor(np.random.default_rng(0)),
                          scripted("L1"), small_scenario(horizon=3),
                          episodes=5, seed=1)
        assert report.episodes == 5
        assert report.wins + report.losses + report.draws == 5
        assert report.win_rate + report.loss_rate + report.draw_rate == pytest.approx(1.0)

    def test_fixed_seed_reports_identical(self):
        def run():
            return evaluate(RandomActor(np.random.default_rng(3)),
                            scripted("L2", seed=4), small_scenario(),
                            episodes=20, seed=7)

        assert run() == run()

    def test_mean_episode_length(self):
        report = evaluate(RandomActor(np.random.default_rng(0)),
                          scripted("L1"), small_scenario(horizon=4),
                          episodes=3, seed=2)
        assert report.mean_episode_length <= 4

    def test_episode_hook_sees_all_events(self):
        logs = []
        evaluate(RandomActor(np.random.default_rng(1)), scripted("L2", seed=5),
                 small_scenario(), episodes=10, seed=3,
                 episode_hook=lambda events, outcome, world: logs.append(
                     (list(events), outcome)))
        assert len(logs) == 10

    def test_report_round_trip(self, tmp_path):
        report = evaluate(RandomActor(np.random.default_rng(2)),
                          scripted("L2", seed=6), small_scenario(),
                          episodes=8, seed=4)
        path = tmp_path / "report.json"
        report.save(path)
        assert EvalReport.load(path) == report
        data = json.loads(path.read_text())
        assert data["win_rate"] == pytest.approx(report.win_rate)


class TestCounters:
    def test_kill_counting_semantics(self):
        from helpers import make_aircraft, make_world

        world = make_world([
            make_aircraft(0, "AC1", "agent"),
            make_aircraft(1, "AC2", "agent", pos=(16, 15)),
            make_aircraft(2, "AC1", "opponent", pos=(20, 20)),
            make_aircraft(3, "AC2", "opponent", pos=(22, 20)),
        ])
        report = EvalReport()
        events = [
            CannonKill(shooter=0, victim=2, victim_ata_deg=90.0,
                       shooter_cannon_left=10, shooter_rockets_left=1),
            RocketKill(shooter=1, victim=3, victim_ata_deg=0.0,
                       shooter_cannon_left=5, shooter_rockets_left=0),
            CannonKill(shooter=0, victim=1, victim_ata_deg=10.0,
                       shooter_cannon_left=9, shooter_rockets_left=1),
            OutOfBounds(aircraft=0),
            CannonKill(shooter=2, victim=0, victim_ata_deg=0.0,
                       shooter_cannon_left=3, shooter_rockets_left=0),
        ]
        count_events(world, events, report)
        assert report.kills == {"AC1": 1, "AC2": 1}
        assert report.friendly_kills == {"AC1": 1, "AC2": 0}
        # AC2 friendly-killed, AC1 out of bounds, AC1 shot by opponent
        assert report.deaths == {"AC1": 2, "AC2": 1}
        # one call is one episode: agents and opponents both died in it
        assert (report.escaped_episodes, report.kill_episodes,
                report.killed_episodes) == (0, 1, 1)

    def test_opponent_boundary_exit_is_a_kill_episode(self):
        from helpers import make_aircraft, make_world

        world = make_world([
            make_aircraft(0, "AC1", "agent"),
            make_aircraft(2, "AC1", "opponent", pos=(20, 20)),
        ])
        report = EvalReport()
        count_events(world, [OutOfBounds(aircraft=2)], report)
        assert report.kills == {"AC1": 0, "AC2": 0}
        assert report.deaths == {"AC1": 0, "AC2": 0}
        assert (report.escaped_episodes, report.kill_episodes,
                report.killed_episodes) == (1, 1, 0)

    def test_escape_episode_flags(self):
        # opponents never fire at L1, so with passive agents nobody dies
        report = evaluate(RandomActor(np.random.default_rng(5)),
                          scripted("L1"), small_scenario(horizon=3),
                          episodes=4, seed=9)
        assert report.escaped_episodes + report.killed_episodes == 4


class TestTrajectory:
    def test_round_trip(self, tmp_path):
        log = TrajectoryLog(header={"agent": "random", "episode": 0})
        evaluate(RandomActor(np.random.default_rng(1)), scripted("L2", seed=2),
                 small_scenario(horizon=5), episodes=1, seed=5,
                 trajectory=log)
        path = tmp_path / "episode.jsonl"
        export_trajectory(log, path)
        loaded = import_trajectory(path)
        assert loaded.header["agent"] == "random"
        assert loaded.rounds == json.loads(json.dumps(log.rounds))
        assert loaded.landmarks == json.loads(json.dumps(log.landmarks))
        rounds = [r["round"] for r in loaded.rounds]
        assert rounds == sorted(rounds)

    def test_landmark_positions_match_victims(self, tmp_path):
        # force a quick kill: L3 opponents vs passive agents
        log = TrajectoryLog(header={"episode": 0})
        report = evaluate(
            RandomActor(np.random.default_rng(3)),
            scripted("L3", seed=7, flee_probability=0.0),
            small_scenario(horizon=60), episodes=1, seed=11,
            trajectory=log)
        if log.landmarks:
            landmark = log.landmarks[0]
            in_round = [r for r in log.rounds
                        if r["round"] == landmark["round"]][0]
            craft = [a for a in in_round["aircraft"] if a["id"] == landmark["id"]][0]
            assert craft["x"] == landmark["x"]
            assert craft["y"] == landmark["y"]
            assert not craft["alive"]

    def test_header_only_for_empty_episode(self, tmp_path):
        log = TrajectoryLog(header={"note": "empty"})
        path = tmp_path / "empty.jsonl"
        export_trajectory(log, path)
        loaded = import_trajectory(path)
        assert loaded.header["note"] == "empty"
        assert loaded.rounds == [] and loaded.landmarks == []

    def test_event_dict_round_trip(self):
        events = [
            CannonKill(shooter=0, victim=2, victim_ata_deg=45.0,
                       shooter_cannon_left=10, shooter_rockets_left=1),
            OutOfBounds(aircraft=3),
        ]
        for event in events:
            assert event_from_dict(event_to_dict(event)) == event
        # a boundary exit's victim and shooter stay out of the file format
        assert event_to_dict(OutOfBounds(aircraft=3)) == {
            "kind": "OutOfBounds", "aircraft": 3}

    @pytest.mark.parametrize("line", ['{"type": "round", "round":',
                                      '{"round": 1, "events": []}'],
                             ids=["malformed-json", "no-type"])
    def test_corrupt_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "corrupt.jsonl"
        export_trajectory(TrajectoryLog(header={"note": "ok"}), path)
        with open(path, "a") as fh:
            fh.write(line + "\n")
        with pytest.raises(ValueError, match=r"corrupt\.jsonl, line 2"):
            import_trajectory(path)


class TestPolicyActors:
    def test_low_level_actor_runs(self):
        policy = PolicyNetwork(fight_config(
            critic_width=critic_input_width("fight", 2, 2)), seed=0)
        actor = CTDEDriver(policy, "fight", np.random.default_rng(0),
                           greedy=True)
        report = evaluate(actor, scripted("L1"), small_scenario(horizon=5),
                          episodes=2, seed=0)
        assert report.episodes == 2

    def test_hierarchy_actor_counts_commands(self):
        scenario = small_scenario(n_agents=2, n_opponents=2, horizon=15)
        commander = PolicyNetwork(commander_config(
            2, critic_input_width("commander", 2, 2)), seed=1)
        fight = PolicyNetwork(fight_config(
            critic_width=critic_input_width("fight", 2, 2)), seed=2)
        escape = PolicyNetwork(escape_config(
            critic_width=critic_input_width("escape", 2, 2)), seed=3)
        opponents = SnapshotController(
            fight=fight, escape=escape, rng=np.random.default_rng(4),
            fight_prob=0.75, scenario=scenario)
        actor = HierarchyEvalActor(commander, fight, escape,
                                   np.random.default_rng(5), senses=2, opt=True,
                                   greedy=True)
        report = evaluate(actor, opponents, scenario, episodes=2, seed=6)
        assert report.fight_commands + report.escape_commands > 0
        assert sum(report.opponent_selection) == report.fight_commands
        assert report.opponent_selection[2] == 0  # N2 never picks a third

    def test_opt_must_match_the_commander_heads(self):
        # an Opt-N2 commander picks among three options, a noOpt one two
        commander = PolicyNetwork(commander_config(
            2, critic_input_width("commander", 2, 2)), seed=1)
        fight = PolicyNetwork(fight_config(
            critic_width=critic_input_width("fight", 2, 2)), seed=2)
        escape = PolicyNetwork(escape_config(
            critic_width=critic_input_width("escape", 2, 2)), seed=3)
        with pytest.raises(ValueError, match=r"noOpt-N2 does not match the "
                                             r"commander's head arities \(3,\)"):
            HierarchyEvalActor(commander, fight, escape,
                               np.random.default_rng(5), senses=2, opt=False,
                               greedy=True)

    def test_option_termination_checked_once_per_step(self, monkeypatch):
        from dogfight.train import commander as commander_module

        calls = [0]
        check = commander_module.option_terminated

        def counted(*args):
            calls[0] += 1
            return check(*args)

        monkeypatch.setattr(commander_module, "option_terminated", counted)
        scenario = ScenarioConfig.commander_training(horizon=12)
        commander = PolicyNetwork(commander_config(
            2, critic_input_width("commander", 3, 3)), seed=1)
        fight = PolicyNetwork(fight_config(
            critic_width=critic_input_width("fight", 3, 3)), seed=2)
        escape = PolicyNetwork(escape_config(
            critic_width=critic_input_width("escape", 3, 3)), seed=3)
        actor = HierarchyEvalActor(commander, fight, escape,
                                   np.random.default_rng(5), senses=2, opt=True,
                                   greedy=True)
        report = evaluate(actor, scripted("L1"), scenario, episodes=2, seed=6)
        # every step but an episode's first, which always decides
        assert calls[0] == report.total_steps - report.episodes > 0

    def test_always_fight_baseline(self):
        scenario = small_scenario(horizon=10)
        fight = PolicyNetwork(fight_config(
            critic_width=critic_input_width("fight", 2, 2)), seed=2)
        escape = PolicyNetwork(escape_config(
            critic_width=critic_input_width("escape", 2, 2)), seed=3)
        commander = PolicyNetwork(commander_config(
            2, critic_input_width("commander", 2, 2)), seed=4)
        actor = AlwaysFightActor(commander, fight, escape,
                                 np.random.default_rng(5), senses=2, opt=True,
                                 greedy=True)
        report = evaluate(actor, scripted("L1"), scenario, episodes=2, seed=7)
        assert report.escape_commands == 0

    def test_always_fight_rerolls_opponents_at_option_boundaries(
            self, monkeypatch):
        scenario = ScenarioConfig.commander_training(horizon=40)
        fight = PolicyNetwork(fight_config(
            critic_width=critic_input_width("fight", 3, 3)), seed=2)
        escape = PolicyNetwork(escape_config(
            critic_width=critic_input_width("escape", 3, 3)), seed=3)
        commander = PolicyNetwork(commander_config(
            2, critic_input_width("commander", 3, 3)), seed=4)
        counts = {"decide": 0, "reassign": 0}
        decide, reassign = AlwaysFightActor._decide, SnapshotController.reassign

        def counted_decide(self, env, d):
            counts["decide"] += 1
            return decide(self, env, d)

        def counted_reassign(self, world):
            counts["reassign"] += 1
            return reassign(self, world)

        monkeypatch.setattr(AlwaysFightActor, "_decide", counted_decide)
        monkeypatch.setattr(SnapshotController, "reassign", counted_reassign)
        opponents = SnapshotController(
            fight=fight, escape=escape, rng=np.random.default_rng(6),
            fight_prob=0.5, scenario=scenario)
        actor = AlwaysFightActor(commander, fight, escape,
                                 np.random.default_rng(5), senses=2, opt=True,
                                 greedy=True)
        report = evaluate(actor, opponents, scenario, episodes=2, seed=7)
        assert 0 < counts["reassign"] == counts["decide"] < report.total_steps


class TestSweep:
    def test_cells_and_overrides(self):
        cells = standard_sweep_cells()
        names = [c["name"] for c in cells]
        assert names == ["2v2", "3v3", "4v4", "5v5", "2v4", "3v5",
                         "3v3-PF", "3v3-PE", "10v10", "15v15"]
        big = [c for c in cells if c["name"] in ("10v10", "15v15")]
        assert all(c["horizon"] == 1000 for c in big)
        pf = [c for c in cells if c["name"] == "3v3-PF"][0]
        pe = [c for c in cells if c["name"] == "3v3-PE"][0]
        assert pf["opponent_fight_prob"] == 1.0
        assert pe["opponent_fight_prob"] == 0.0

    def test_sweep_runs_each_cell(self):
        cells = [
            {"name": "2v2", "n_agents": 2, "n_opponents": 2},
            {"name": "2v4", "n_agents": 2, "n_opponents": 4},
            {"name": "1v1", "n_agents": 1, "n_opponents": 1},
        ]
        results = scenario_sweep(
            cells,
            actor_factory=lambda scenario, seed: RandomActor(
                np.random.default_rng(seed)),
            opponent_factory=lambda scenario, seed: scripted("L1", seed),
            base_scenario=small_scenario(horizon=3), episodes=2, seed=0,
            sim_cfg=SimConfig())
        assert [name for name, _ in results] == ["2v2", "2v4", "1v1"]
        assert all(r.episodes == 2 for _, r in results)

    def test_opponent_fight_probability_takes_effect(self):
        # the hierarchy re-rolls the sweep's snapshot opponents at option
        # boundaries, so pure-escape opponents fly differently from
        # pure-fight ones
        base = ScenarioConfig.commander_training(horizon=30)
        commander = PolicyNetwork(commander_config(
            2, critic_input_width("commander", 3, 3)), seed=1)
        fight = PolicyNetwork(fight_config(
            critic_width=critic_input_width("fight", 2, 2)), seed=2)
        escape = PolicyNetwork(escape_config(
            critic_width=critic_input_width("escape", 2, 2)), seed=3)
        cells = {c["name"]: c for c in standard_sweep_cells()}

        def run(name):
            (_, report), = scenario_sweep(
                [cells[name]],
                actor_factory=lambda scenario, seed: HierarchyEvalActor(
                    commander, fight, escape, np.random.default_rng(seed),
                    senses=2, opt=True, greedy=True),
                opponent_factory=lambda scenario, seed: SnapshotController(
                    fight=fight, escape=escape, rng=np.random.default_rng(seed),
                    fight_prob=scenario.opponent_fight_prob, scenario=scenario),
                base_scenario=base, episodes=2, seed=1, sim_cfg=SimConfig())
            return report

        assert run("3v3-PF") != run("3v3-PE")

    def test_asymmetric_cell_spawns_correct_counts(self):
        scenario = dataclasses.replace(small_scenario(), n_agents=2,
                                       n_opponents=4)
        from dogfight.env import generate_world

        world = generate_world(scenario, np.random.default_rng(0), SimConfig())
        agents = [a for a in world.aircraft if a.team == "agent"]
        opps = [a for a in world.aircraft if a.team == TEAM_OPPONENT]
        assert len(agents) == 2 and len(opps) == 4


def test_hierarchy_evaluation_builds_no_tensors(monkeypatch):
    from helpers import count_tensors

    scenario = small_scenario(n_agents=3, n_opponents=3, horizon=12)
    commander = PolicyNetwork(commander_config(
        2, critic_input_width("commander", 3, 3)), seed=1)
    fight = PolicyNetwork(fight_config(
        critic_width=critic_input_width("fight", 3, 3)), seed=2)
    escape = PolicyNetwork(escape_config(
        critic_width=critic_input_width("escape", 3, 3)), seed=3)
    opponents = SnapshotController(fight=fight, escape=escape,
                                   rng=np.random.default_rng(4),
                                   fight_prob=0.5, scenario=scenario)
    actor = HierarchyEvalActor(commander, fight, escape,
                               np.random.default_rng(5), senses=2, opt=True,
                               greedy=False)
    count = count_tensors(monkeypatch)
    report = evaluate(actor, opponents, scenario, episodes=2, seed=6)
    assert report.total_steps > 0 and count[0] == 0


def test_snapshot_opponents_see_the_same_first_step_as_in_training(monkeypatch,
                                                                   tmp_path):
    # commander training and evaluate ask their snapshot opponents from the
    # world as it was before the step, so for equal episode seeds the first
    # step hands them the same observations
    from dogfight.observations import build_obs
    from dogfight.train import (
        CommanderTrainer,
        CommanderVariant,
        PPOConfig,
        RunDir,
    )

    scenario = ScenarioConfig.commander_training(horizon=3)
    fight = PolicyNetwork(fight_config(
        critic_width=critic_input_width("fight", 2, 2)), seed=2)
    escape = PolicyNetwork(escape_config(
        critic_width=critic_input_width("escape", 2, 2)), seed=3)
    seen = []
    decide = SnapshotController.__call__

    def recording(self, world, opponent_ids):
        seen.append(np.concatenate([build_obs("fight", world, oid, self.scenario)
                                    for oid in opponent_ids]))
        return decide(self, world, opponent_ids)

    monkeypatch.setattr(SnapshotController, "__call__", recording)
    trainer = CommanderTrainer(scenario, PPOConfig(), CommanderVariant(),
                               fight, escape, RunDir(tmp_path / "run"), seed=1)
    trainer.episode_rng = np.random.default_rng(9)  # as evaluate(seed=9) draws
    trainer.run_episode()
    training = seen[0]
    seen.clear()
    opponents = SnapshotController(fight=fight, escape=escape,
                                   rng=np.random.default_rng(4),
                                   fight_prob=0.75, scenario=scenario)
    actor = HierarchyEvalActor(trainer.policy, fight, escape,
                               np.random.default_rng(5), senses=2, opt=True,
                               greedy=True)
    evaluate(actor, opponents, scenario, episodes=1, seed=9)
    np.testing.assert_array_equal(seen[0], training)


def test_command_counts_cover_the_call_only():
    # one actor across calls: each report counts its own episodes' commands
    scenario = small_scenario(n_agents=2, n_opponents=2, horizon=15)
    actor = HierarchyEvalActor(
        PolicyNetwork(commander_config(2, critic_input_width("commander", 2, 2)),
                      seed=1),
        PolicyNetwork(fight_config(critic_width=critic_input_width("fight", 2, 2)),
                      seed=2),
        PolicyNetwork(escape_config(critic_width=critic_input_width("escape", 2, 2)),
                      seed=3),
        np.random.default_rng(5), senses=2, opt=True,
        greedy=True)
    counts = [(r.fight_commands, r.escape_commands, r.opponent_selection)
              for r in (evaluate(actor, scripted("L1"), scenario, 1, seed=6)
                        for _ in range(3))]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0][0] + counts[0][1] > 0


def _float64_hierarchy(greedy):
    scenario = ScenarioConfig.commander_training(horizon=30, map_size=20.0)
    fight = PolicyNetwork(fight_config(
        critic_width=critic_input_width("fight", 3, 3), dtype="float64"), seed=2)
    escape = PolicyNetwork(escape_config(
        critic_width=critic_input_width("escape", 3, 3), dtype="float64"), seed=3)
    commander = PolicyNetwork(commander_config(
        2, critic_input_width("commander", 3, 3), dtype="float64"), seed=1)
    actor = HierarchyEvalActor(commander, fight, escape,
                               np.random.default_rng(5), senses=2, opt=True,
                               greedy=greedy)
    opponents = SnapshotController(fight=fight, escape=escape,
                                   rng=np.random.default_rng(4),
                                   fight_prob=0.5, scenario=scenario)
    return actor, opponents, scenario


def _float64_ctde():
    scenario = small_scenario(horizon=30)
    policy = PolicyNetwork(fight_config(
        critic_width=critic_input_width("fight", 2, 2), dtype="float64"), seed=2)
    return (CTDEDriver(policy, "fight", np.random.default_rng(5)),
            scripted("L3", seed=4), scenario)


@pytest.mark.parametrize("build", [
    lambda: _float64_hierarchy(greedy=False),
    lambda: _float64_hierarchy(greedy=True),  # vs sampled opponents
    _float64_ctde,
], ids=["hierarchy-sampled", "hierarchy-greedy", "ctde-vs-l3"])
def test_report_does_not_depend_on_the_lockstep_width(monkeypatch, build):
    from dogfight import evaluation

    def run(width):
        monkeypatch.setattr(evaluation, "LOCKSTEP_EPISODES", width)
        actor, opponents, scenario = build()
        hooked = []
        report = evaluate(actor, opponents, scenario, episodes=20, seed=8,
                          episode_hook=lambda events, outcome, world:
                          hooked.append((list(events), outcome)))
        return report, hooked

    # 20 episodes, so the slots refill at widths 4 and 8
    reference = run(1)
    assert reference[0].episodes == 20 and reference[0].total_steps > 20
    for width in (4, 8):
        assert run(width) == reference


def test_lockstep_siblings_get_fresh_opponent_controllers():
    # a pass-through `reassign` set on the controller instance stays with
    # that instance: every other lockstep env plays on a controller built
    # afresh from its fields, so the report is the unwrapped one's
    calls = []

    def run(wrap):
        actor, opponents, scenario = _float64_hierarchy(greedy=False)
        if wrap:
            reassign = opponents.reassign

            def passing(world):
                calls.append(world)
                reassign(world)

            opponents.reassign = passing
        return evaluate(actor, opponents, scenario, episodes=3, seed=8)

    assert run(wrap=True) == run(wrap=False)
    assert calls  # the first env's boundaries ran the wrapper
