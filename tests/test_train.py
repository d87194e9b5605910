"""Training-stack tests: GAE oracles, PPO mechanics, league wiring,
curriculum and commander smoke runs, determinism."""

import dataclasses

import numpy as np
import pytest

from dogfight.config import ScenarioConfig, ScriptConfig
from dogfight.nn import PolicyNetwork, blocks, fight_config, networks
from dogfight.nn.autodiff import Tensor
from dogfight.simcore import SimConfig
from dogfight.train import (
    CommanderTrainer,
    CommanderVariant,
    LeagueArchive,
    LowLevelTrainer,
    PPOConfig,
    RolloutBuffer,
    RunDir,
    TrainMode,
    Transition,
    compute_gae,
    curriculum_horizon,
    ppo_update,
    run_curriculum,
    train_escape,
    train_standard_baseline,
)
from dogfight.train.policies import make_low_level_policy


def make_transition(value, reward, done, duration=1, episode=0, agent=0,
                    instance="ac1", obs_w=27, critic_w=31):
    return Transition(
        instance=instance, agent_id=agent, episode=episode,
        obs=np.zeros(obs_w), action=np.array([6, 4, 0, 0]),
        log_prob=-3.0, value=value, reward=reward, done=done,
        critic_input=np.zeros(critic_w), duration=duration)


def raw_advantages(buffer, gamma, lam):
    """The advantages before normalization: returns less values."""
    _, returns = compute_gae(buffer, gamma, lam)
    return returns - np.array([t.value for t in buffer.transitions])


class TestGAE:
    def test_terminal_one_step(self):
        buffer = RolloutBuffer([make_transition(value=0.0, reward=1.0, done=True)])
        adv = raw_advantages(buffer, gamma=0.95, lam=0.95)
        _, ret = compute_gae(buffer, gamma=0.95, lam=0.95)
        assert adv[0] == pytest.approx(1.0)
        assert ret[0] == pytest.approx(1.0)

    def test_lambda_zero_is_td_error(self):
        values = [0.3, -0.2, 0.5]
        rewards = [1.0, 0.0, -1.0]
        buffer = RolloutBuffer([make_transition(values[t], rewards[t],
                                                done=(t == 2))
                                for t in range(3)])
        gamma = 0.9
        adv = raw_advantages(buffer, gamma, lam=0.0)
        assert adv[0] == pytest.approx(rewards[0] + gamma * values[1] - values[0])
        assert adv[1] == pytest.approx(rewards[1] + gamma * values[2] - values[1])
        assert adv[2] == pytest.approx(rewards[2] - values[2])

    def test_constant_stream_matches_brute_force(self):
        gamma, lam = 0.95, 0.9
        T = 12
        r, v = 0.5, 1.25
        buffer = RolloutBuffer([make_transition(v, r, done=(t == T - 1))
                                for t in range(T)])
        adv = raw_advantages(buffer, gamma, lam)
        _, ret = compute_gae(buffer, gamma, lam)
        # independent oracle: direct double sum over TD errors
        deltas = [r + gamma * v - v] * (T - 1) + [r - v]
        for t in range(T):
            expected = sum((gamma * lam) ** (k - t) * deltas[k]
                           for k in range(t, T))
            assert adv[t] == pytest.approx(expected, abs=1e-12)
        assert np.allclose(ret, adv + v)

    def test_semi_mdp_duration_discount(self):
        gamma = 0.95
        buffer = RolloutBuffer([
            make_transition(value=0.2, reward=1.0, done=False, duration=10,
                            instance="cmd"),
            make_transition(value=0.7, reward=0.0, done=True, duration=3,
                            instance="cmd")])
        adv = raw_advantages(buffer, gamma, lam=0.5)
        delta1 = 0.0 - 0.7
        delta0 = 1.0 + gamma ** 10 * 0.7 - 0.2
        assert adv[1] == pytest.approx(delta1)
        assert adv[0] == pytest.approx(delta0 + gamma ** 10 * 0.5 * delta1)

    def test_normalization(self):
        buffer = RolloutBuffer([make_transition(0.0, float(t % 5),
                                                done=(t % 10 == 9),
                                                episode=t // 10)
                                for t in range(50)])
        adv, _ = compute_gae(buffer, 0.95, 0.95)
        assert abs(adv.mean()) < 1e-9
        assert adv.std() == pytest.approx(1.0, abs=1e-6)

    def test_streams_are_independent_per_agent(self):
        buffer = RolloutBuffer([make_transition(0.0, 1.0, done=True, agent=0),
                                make_transition(0.0, -1.0, done=True, agent=1)])
        adv = raw_advantages(buffer, 0.95, 0.95)
        assert adv[0] == pytest.approx(1.0)
        assert adv[1] == pytest.approx(-1.0)

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            compute_gae(RolloutBuffer(), 0.95, 0.95)


class TestClipRule:
    # hand evaluations of the clipped surrogate, through the update's kernel
    def _surrogate(self, ratio, adv, eps=0.2):
        """One row's surrogate and its slope in the log-probability."""
        total, backward, _ = blocks.ppo_objective(
            np.zeros((1, 1)), np.log([ratio]), np.zeros(1),
            log_prob_old=np.zeros(1), advantages=np.array([adv]),
            returns=np.zeros(1), clip_eps=eps, value_coef=0.5,
            entropy_coef=0.01)
        return -total, -backward(np.float64(1.0), [True] * 3)[1][0]

    def test_positive_advantage_clips_high_ratio(self):
        surr, slope = self._surrogate(1.5, 2.0)
        assert surr == pytest.approx(1.2 * 2.0)
        assert slope == 0.0  # the clipped branch passes no gradient

    def test_negative_advantage_takes_more_negative_branch(self):
        # min(0.5*A, 0.8*A) with A = -1: the clipped term is more negative
        surr, slope = self._surrogate(0.5, -1.0)
        assert surr == pytest.approx(0.8 * -1.0)
        assert slope == 0.0

    def test_ratio_one_inside_band(self):
        surr, slope = self._surrogate(1.0, 3.0)
        assert surr == pytest.approx(3.0)
        assert slope == pytest.approx(3.0)  # d(r A)/d log r = r A

    def test_bounded_magnitude(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            ratio = rng.uniform(0.0, 3.0)
            adv = rng.normal()
            surr, _ = self._surrogate(ratio, adv)
            assert abs(surr) <= max(ratio, 1.2) * abs(adv) + 1e-12
            if adv > 0:
                assert surr <= 1.2 * adv + 1e-12


def fill_buffer(policy, scenario, n, seed=0):
    """Roll genuine transitions through the policy so log-probs are honest."""
    from helpers import play

    from dogfight.scripted import ScriptedController
    from dogfight.train.policies import CTDEDriver
    from dogfight.env import CombatEnv
    from dogfight.rewards import reward_fight

    buffer = RolloutBuffer()

    class Recorder(CTDEDriver):
        def decided(self, envs, decisions):
            (self.transitions,) = self.act(envs, decisions, [self.episode])

        def observe_step(self, env, result):
            for t in self.transitions:
                t.reward = reward_fight(env.world, result.events, t.agent_id,
                                        "base", 0.5)
                t.done = result.terminal or not env.world.get(t.agent_id).alive
                buffer.transitions.append(t)

    driver = Recorder(policy, "fight", np.random.default_rng(seed))
    env = CombatEnv(scenario, ScriptedController(
        "L1", np.random.default_rng(seed + 1), ScriptConfig()), SimConfig())
    driver.episode = 0
    while len(buffer) < n:
        play([env], driver, [seed + driver.episode])
        driver.episode += 1
    return buffer


class TestPPOUpdate:
    def _setup(self, n=64):
        scenario = ScenarioConfig(n_agents=2, n_opponents=2, horizon=8, seed=0)
        width = 4 * 31
        policy = PolicyNetwork(fight_config(critic_width=width), seed=1)
        buffer = fill_buffer(policy, scenario, n)
        return policy, buffer

    def test_first_minibatch_ratio_is_one(self):
        policy, buffer = self._setup()
        config = PPOConfig(batch_size=32, update_epochs=2, minibatches=2)
        stats = ppo_update(policy, buffer, config, np.random.default_rng(3))
        assert stats.mean_ratio_first_epoch == pytest.approx(1.0, abs=1e-5)

    def test_update_calls_the_traced_layers(self, monkeypatch):
        # perfbench times the update through these two methods (its
        # `nn.networks.log_prob_entropy` and `nn.autodiff.backward`): one
        # log-probability pass per instance and minibatch, one backward
        # per minibatch
        policy, buffer = self._setup()
        config = PPOConfig(batch_size=32, update_epochs=2, minibatches=3)
        calls = {}
        for owner, attr in ((PolicyNetwork, "log_prob_entropy"),
                            (Tensor, "backward")):
            def counted(*args, _original=getattr(owner, attr), _attr=attr,
                        **kwargs):
                calls[_attr] = calls.get(_attr, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)
        sizes = [len(buffer.indices_for(name)) for name in buffer.instances()]
        assert len(sizes) == 2 and min(sizes) >= config.minibatches
        ppo_update(policy, buffer, config, np.random.default_rng(3))
        assert calls == {"log_prob_entropy": 2 * 3 * 2, "backward": 2 * 3}

    def test_parameters_move(self):
        policy, buffer = self._setup()
        checksum = policy.store.checksum()
        ppo_update(policy, buffer, PPOConfig(batch_size=32, update_epochs=1),
                   np.random.default_rng(3))
        assert policy.store.checksum() != checksum

    def test_nan_aborts_with_diagnostics(self):
        policy, buffer = self._setup(32)
        buffer.transitions[0].log_prob = float("nan")
        with pytest.raises(RuntimeError, match="non-finite"):
            ppo_update(policy, buffer, PPOConfig(batch_size=16, minibatches=1),
                       np.random.default_rng(0))

    def test_update_deterministic_given_seed(self):
        stats = []
        sums = []
        for _ in range(2):
            policy, buffer = self._setup()
            s = ppo_update(policy, buffer,
                           PPOConfig(batch_size=32, update_epochs=2),
                           np.random.default_rng(7))
            stats.append(s)
            sums.append(policy.store.checksum())
        assert sums[0] == sums[1]
        assert stats[0].policy_loss == stats[1].policy_loss


def _update_batch(net, instance, rows=12, seed=0):
    """A random PPO minibatch for `net`'s `instance`, in its dtype."""
    rng = np.random.default_rng(seed)
    inst, dtype = net.config.instance(instance), net.store.dtype
    heads = len(inst.head_arities)
    return {
        "instance": instance,
        "obs": rng.uniform(0, 1, (rows, inst.obs_width)).astype(dtype),
        "actions": rng.integers(0, inst.head_arities, (rows, heads)),
        "log_probs_old": rng.uniform(-6, -1, rows).astype(dtype),
        "advantages": rng.normal(size=rows).astype(dtype),
        "returns": rng.normal(size=rows).astype(dtype),
        "critic_inputs": rng.uniform(0, 1, (rows, inst.critic_width)).astype(dtype),
        "hidden": (rng.uniform(-1, 1, (rows, net.config.hidden_width)).astype(dtype)
                   if net.config.recurrent else None),
        "head_mask": (rng.integers(0, 2, (rows, heads)).astype(dtype)
                      if heads > 4 else None),
    }


class TestUpdateDtype:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("kind", ["fight", "commander-gru", "ctce"])
    def test_update_runs_in_the_network_dtype(self, kind, dtype):
        from dogfight.nn import commander_config, ctce_config
        from dogfight.nn.params import adam_step
        from dogfight.train.ppo import _minibatch_loss

        config, instance = {
            "fight": (fight_config(critic_width=40, dtype=dtype), "ac1"),
            "commander-gru": (commander_config(2, critic_width=40,
                                               dtype=dtype), "cmd"),
            "ctce": (dataclasses.replace(ctce_config(
                "fight", 27 * 2, (13, 9, 2, 2) * 2, critic_width=40),
                dtype=dtype), "joint"),
        }[kind]
        net = PolicyNetwork(config, seed=0)
        loss, _ = _minibatch_loss(net, _update_batch(net, instance),
                                  0.2, 0.5, 0.01)
        assert loss.data.dtype == dtype
        loss.backward()
        net.store.clip_grad_norm(1e-3)
        grads = {n: t.grad for n, t in net.store.params.items()
                 if t.grad is not None}
        assert grads and all(g.dtype == dtype for g in grads.values()), {
            n: g.dtype for n, g in grads.items() if g.dtype != dtype}
        adam_step(net.store, 1e-4)
        for name in grads:
            assert net.store.moment1[name].dtype == dtype
            assert net.store.moment2[name].dtype == dtype
            assert net.store[name].data.dtype == dtype


class TestLeague:
    def test_round_trip_and_hash(self, tmp_path):
        archive = LeagueArchive(tmp_path / "league")
        policy = PolicyNetwork(fight_config(critic_width=124), seed=2)
        path = archive.save("fight", "L3", policy)
        assert archive.has("fight", "L3")
        from dogfight.nn.params import file_sha256

        assert archive.sha256("fight", "L3") == file_sha256(path)
        loaded = archive.load("fight", "L3")
        assert loaded.store.checksum() == policy.store.checksum()

    def test_sampling_pool_below_level(self, tmp_path):
        archive = LeagueArchive(tmp_path / "league")
        for level in ("L1", "L2", "L3", "L4"):
            archive.save("fight", level,
                         PolicyNetwork(fight_config(critic_width=124), seed=3))
        rng = np.random.default_rng(0)
        picks = {archive.sample_opponent_level(rng, "L5") for _ in range(100)}
        assert picks == {"L1", "L2", "L3", "L4"}
        picks4 = {archive.sample_opponent_level(rng, "L4") for _ in range(100)}
        assert picks4 == {"L1", "L2", "L3"}

    def test_changed_snapshot_rejected(self, tmp_path):
        archive = LeagueArchive(tmp_path / "league")
        path = archive.save("fight", "L3",
                            PolicyNetwork(fight_config(critic_width=124), seed=2))
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # same length, one parameter byte changed
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="fight_L3"):
            archive.load("fight", "L3")

    def test_missing_snapshot_errors(self, tmp_path):
        archive = LeagueArchive(tmp_path / "league")
        with pytest.raises(FileNotFoundError):
            archive.path("fight", "L3")
        with pytest.raises(FileNotFoundError):
            archive.sample_opponent_level(np.random.default_rng(0), "L4")

    def test_load_draws_no_initial_weight(self, tmp_path, monkeypatch):
        from helpers import no_draws

        archive = LeagueArchive(tmp_path / "league")
        policy = PolicyNetwork(fight_config(critic_width=124), seed=2)
        archive.save("fight", "L3", policy)
        no_draws(monkeypatch)
        loaded = LeagueArchive(tmp_path / "league").load("fight", "L3")
        assert loaded.store.checksum() == policy.store.checksum()

    @pytest.mark.parametrize("index, entry", [
        ("{not json", "unreadable"),
        ('{"fight_L3": {"sha256": "00"}}', "fight_L3"),
        ('{"fight_L3": {"file": "fight_L3.ckpt"}}', "fight_L3"),
        ('{"escape": "escape.ckpt"}', "escape"),
        ('["fight_L3"]', "unreadable"),
    ], ids=["not-json", "no-file", "no-sha256", "entry-not-a-dict",
            "not-a-dict"])
    def test_malformed_index_names_the_file(self, tmp_path, index, entry):
        root = tmp_path / "league"
        root.mkdir()
        (root / "index.json").write_text(index)
        with pytest.raises(ValueError, match=f"index.json.*{entry}"):
            LeagueArchive(root)


# the keys of every metrics.jsonl record (docs/formats.md)
METRICS_KEYS = {"entropy", "env_steps", "episodes", "grad_norm", "level",
                "mean_length",
                "mean_ratio_first_epoch", "mean_reward", "policy_loss",
                "update", "value_loss", "win_rate"}


def small_ppo(batch=64):
    return PPOConfig(batch_size=batch, update_epochs=2, minibatches=2)


def small_scenario(**kw):
    base = dict(n_agents=2, n_opponents=2, horizon=10, map_size=20.0, seed=0)
    base.update(kw)
    return ScenarioConfig(**base)


class TestTrainerLoops:
    def test_ctde_smoke_and_metrics(self, tmp_path):
        run = RunDir(tmp_path / "run")
        trainer = LowLevelTrainer(small_scenario(), small_ppo(),
                                  TrainMode(), run, seed=5)
        from dogfight.scripted import ScriptedController

        trainer.train_level(
            "L1",
            ScriptedController("L1", trainer.opponent_rng, trainer.script),
            env_steps=80)
        records = run.read_metrics()
        assert records, "no metrics logged"
        assert records[0]["level"] == "L1"
        assert trainer.env_steps >= 80
        assert len(trainer.buffer) < small_ppo().batch_size  # emptied at update
        assert all(set(record) == METRICS_KEYS for record in records)

    def test_instances_limited_to_types(self, tmp_path):
        trainer = LowLevelTrainer(small_scenario(), small_ppo(512),
                                  TrainMode(), RunDir(tmp_path / "run"), seed=6)
        from dogfight.scripted import ScriptedController

        env = trainer.make_env(ScriptedController(
            "L1", trainer.opponent_rng, trainer.script))
        trainer.run_episode(env)
        assert set(t.instance for t in trainer.buffer.transitions) <= {"ac1", "ac2"}

    def test_dtde_framework(self, tmp_path):
        trainer = LowLevelTrainer(small_scenario(), small_ppo(32),
                                  TrainMode(framework="dtde"),
                                  RunDir(tmp_path / "run"), seed=7)
        from dogfight.scripted import ScriptedController

        trainer.train_level(
            "L1",
            ScriptedController("L1", trainer.opponent_rng, trainer.script),
            env_steps=40)
        assert len(trainer.policies) == 2
        checksums = {aid: p.store.checksum() for aid, p in trainer.policies.items()}
        assert checksums[0] != checksums[1]  # independent parameter stores

    def test_dtde_logs_first_epoch_ratio_one(self, tmp_path):
        run = RunDir(tmp_path / "run")
        trainer = LowLevelTrainer(small_scenario(), small_ppo(32),
                                  TrainMode(framework="dtde"), run, seed=7)
        from dogfight.scripted import ScriptedController

        trainer.train_level(
            "L1",
            ScriptedController("L1", trainer.opponent_rng, trainer.script),
            env_steps=40)
        records = run.read_metrics()
        assert records
        for rec in records:
            assert abs(rec["mean_ratio_first_epoch"] - 1.0) <= 1e-6

    def test_ctde_first_epoch_ratio_one_across_the_attention_switch(
            self, tmp_path, monkeypatch):
        # decisions (at most 8 rows, 24 tokens) take the textbook attention
        # body and PPO minibatches (about 75 rows) the folded one; the two
        # compute one function, so the first minibatch's ratio stays 1
        rows = []

        def attention(x, *weights):
            rows.append(len(x))
            return blocks.attention(x, *weights)

        monkeypatch.setattr(networks, "attention", attention)
        run = RunDir(tmp_path / "run")
        trainer = LowLevelTrainer(small_scenario(), small_ppo(300),
                                  TrainMode(), run, seed=5)
        from dogfight.scripted import ScriptedController

        trainer.train_level(
            "L1",
            ScriptedController("L1", trainer.opponent_rng, trainer.script),
            env_steps=320)
        records = run.read_metrics()
        assert len(records) >= 2
        assert min(rows) <= 8 and 3 * max(rows) > networks.EMBED_WIDTH
        for rec in records:
            assert abs(rec["mean_ratio_first_epoch"] - 1.0) <= 1e-6

    def test_dtde_networks_update_on_their_own_transitions(self, monkeypatch,
                                                            tmp_path):
        from dogfight.scripted import ScriptedController
        from dogfight.train import trainer as trainer_module

        updates = []
        update = trainer_module.ppo_update

        def recording(policy, buffer, *args):
            updates.append((policy, {t.agent_id for t in buffer.transitions}))
            return update(policy, buffer, *args)

        monkeypatch.setattr(trainer_module, "ppo_update", recording)
        trainer = LowLevelTrainer(small_scenario(), small_ppo(32),
                                  TrainMode(framework="dtde"),
                                  RunDir(tmp_path / "run"), seed=7)
        trainer.train_level(
            "L1",
            ScriptedController("L1", trainer.opponent_rng, trainer.script),
            env_steps=40)
        assert updates
        for policy, agents in updates:
            assert [trainer.policies[aid] for aid in agents] == [policy]

    def test_dtde_policy_is_one_network_per_agent(self):
        from dogfight.observations import OBS_LAYOUTS

        nets = make_low_level_policy("fight", "dtde", small_scenario(), 3,
                                     agent_types=["AC1", "AC2", "AC2"])
        assert sorted(nets) == [0, 1, 2]
        assert nets[1].store.checksum() != nets[2].store.checksum()
        for aid, type_id in ((0, "AC1"), (1, "AC2")):  # local critics
            inst = nets[aid].config.instance(type_id.lower())
            assert inst.critic_width == OBS_LAYOUTS[f"fight-{type_id}"] + 4

    def test_fc_baseline_only_for_ctde_fight(self, tmp_path):
        trainer = LowLevelTrainer(small_scenario(), small_ppo(),
                                  TrainMode(fc_baseline=True),
                                  RunDir(tmp_path / "run"), seed=1)
        assert trainer.policy.config.fc_baseline
        for mode in (dict(framework="ctce"), dict(framework="dtde"),
                     dict(kind="escape")):
            with pytest.raises(ValueError, match="fc_baseline"):
                TrainMode(fc_baseline=True, **mode)

    def test_ctce_framework(self, tmp_path):
        trainer = LowLevelTrainer(small_scenario(), small_ppo(16),
                                  TrainMode(framework="ctce"),
                                  RunDir(tmp_path / "run"), seed=8)
        from dogfight.scripted import ScriptedController

        trainer.train_level(
            "L1",
            ScriptedController("L1", trainer.opponent_rng, trainer.script),
            env_steps=40)
        joint = [t for t in trainer.buffer.transitions] or None
        assert trainer.updates >= 1

    def test_curriculum_wiring(self, tmp_path):
        # one tiny pass over all five levels: horizons, archive, L4 hash
        run = RunDir(tmp_path / "run")
        archive = LeagueArchive(tmp_path / "league")
        assert curriculum_horizon("L1") == 200
        assert curriculum_horizon("L3") == 300
        assert curriculum_horizon("L5") == 400
        scenario = small_scenario(horizon=6)
        run_curriculum(scenario, small_ppo(24), TrainMode(), run, archive,
                       seed=9, steps_per_level=12,
                       script=ScriptConfig(flee_probability=0.0),
                       sim_cfg=SimConfig())
        for level in ("L1", "L2", "L3", "L4", "L5"):
            assert archive.has("fight", level)
        records = run.read_metrics()
        levels_seen = {r["level"] for r in records}
        assert "L1" in levels_seen and "L5" in levels_seen

    def test_curriculum_resume_skips_done_levels(self, tmp_path):
        run = RunDir(tmp_path / "run")
        archive = LeagueArchive(tmp_path / "league")
        scenario = small_scenario(horizon=6)
        run_curriculum(scenario, small_ppo(24), TrainMode(), run, archive,
                       seed=10, steps_per_level=12,
                       script=ScriptConfig(flee_probability=0.0),
                       sim_cfg=SimConfig(), levels=("L1", "L2"))
        hash_l1 = archive.sha256("fight", "L1")
        run_curriculum(scenario, small_ppo(24), TrainMode(), run, archive,
                       seed=10, steps_per_level=12,
                       script=ScriptConfig(flee_probability=0.0),
                       sim_cfg=SimConfig(), levels=("L1", "L2", "L3"))
        assert archive.sha256("fight", "L1") == hash_l1  # untouched
        assert archive.has("fight", "L3")

    def test_dtde_resume_restores_every_network(self, tmp_path, monkeypatch):
        # a DTDE curriculum stopped after L1 starts L2 with every agent
        # network's weights and Adam state as an uninterrupted run does
        starts = []
        train_level = LowLevelTrainer.train_level

        def recording(trainer, level, *args, **kwargs):
            if level == "L2":
                starts.append({key: (p.store.checksum(), p.store.step_count,
                                     {n: m.copy() for n, m in p.store.moment1.items()},
                                     {n: v.copy() for n, v in p.store.moment2.items()})
                               for key, p in trainer.policies.items()})
            return train_level(trainer, level, *args, **kwargs)

        monkeypatch.setattr(LowLevelTrainer, "train_level", recording)
        for name, stops in (("whole", ()), ("resumed", (("L1",),))):
            run = RunDir(tmp_path / name)
            archive = LeagueArchive(tmp_path / name / "league")
            for levels in stops + (("L1", "L2"),):
                run_curriculum(small_scenario(horizon=6), small_ppo(24),
                               TrainMode(framework="dtde"), run, archive,
                               seed=10, steps_per_level=24,
                               script=ScriptConfig(flee_probability=0.0),
                               sim_cfg=SimConfig(), levels=levels)
        whole, resumed = starts
        assert sorted(whole) == sorted(resumed) == [0, 1]
        for key in whole:
            checksum, steps, m1, m2 = whole[key]
            assert steps > 0  # L1 updated this network
            assert resumed[key][:2] == (checksum, steps)
            for name in m1:
                np.testing.assert_array_equal(resumed[key][2][name], m1[name])
                np.testing.assert_array_equal(resumed[key][3][name], m2[name])

    @pytest.mark.parametrize("levels", [("L1", "L2", "L3", "L4"), ("L5",)])
    def test_dtde_rejected_at_l4_and_l5(self, tmp_path, levels):
        # agent 0's network, the one archived, never trains its ac2
        # instance, and at L4/L5 a snapshot flies the AC2 opponents: the
        # curriculum refuses before any level trains
        run = RunDir(tmp_path / "run")
        archive = LeagueArchive(tmp_path / "league")
        with pytest.raises(ValueError, match="dtde cannot train L4 or L5: "
                                             "the league archives agent 0"):
            run_curriculum(small_scenario(horizon=6), small_ppo(24),
                           TrainMode(framework="dtde"), run, archive, seed=10,
                           steps_per_level=12, script=ScriptConfig(),
                           sim_cfg=SimConfig(), levels=levels)
        assert not run.read_metrics()
        assert not any(archive.has("fight", level) for level in levels)

    def test_older_trainer_state_rejected(self, tmp_path):
        from dogfight.nn.params import save_arrays

        trainer = LowLevelTrainer(small_scenario(), small_ppo(),
                                  TrainMode(framework="dtde"),
                                  RunDir(tmp_path / "run"), seed=1)
        path = tmp_path / "trainer_state_L1.ckpt"
        store = trainer.policy.store
        save_arrays(path, {f"adam.m.{n}": m for n, m in store.moment1.items()},
                    {"step_count": 3})  # one network's moments, no weights
        with pytest.raises(ValueError, match="trainer_state_L1.ckpt"):
            trainer.load_state(path)

    @pytest.mark.parametrize("corrupt", ["missing-moment", "moment-row",
                                         "step-count"])
    def test_corrupt_trainer_state_rejected(self, tmp_path, corrupt):
        # each corruption of the second network's state names the file,
        # and neither network has changed
        from dogfight.nn.params import load_checkpoint, save_arrays

        trainer = LowLevelTrainer(small_scenario(), small_ppo(),
                                  TrainMode(framework="dtde"),
                                  RunDir(tmp_path / "run"), seed=1)
        path = tmp_path / "trainer_state_L1.ckpt"
        trainer.save_state(path)
        arrays, config = load_checkpoint(path)
        arrays = {name: value + 1.0 for name, value in arrays.items()}
        name = "shared.core.W"
        entry = f"1.adam.m.{name}"
        if corrupt == "missing-moment":
            del arrays[entry]
        elif corrupt == "moment-row":
            arrays[entry] = arrays[entry][:1]  # broadcasts over the rows
        else:
            config["step_count"]["1"] = "x"
        save_arrays(path, arrays, config)
        stores = [policy.store for policy in trainer.policies.values()]
        assert len(stores) == 2
        before = [(s.checksum(), s.step_count, s.moment1[name].copy())
                  for s in stores]
        with pytest.raises(ValueError, match="trainer_state_L1.ckpt"):
            trainer.load_state(path)
        for store, (checksum, steps, moment) in zip(stores, before):
            assert (store.checksum(), store.step_count) == (checksum, steps)
            np.testing.assert_array_equal(store.moment1[name], moment)

    def test_escape_requires_l5(self, tmp_path):
        run = RunDir(tmp_path / "run")
        archive = LeagueArchive(tmp_path / "league")
        with pytest.raises(FileNotFoundError):
            train_escape(small_scenario(), small_ppo(16), run, archive,
                         seed=0, steps_phase1=10, steps_phase2=10,
                         variant="base", script=ScriptConfig(),
                         sim_cfg=SimConfig())

    def test_escape_two_phases(self, tmp_path):
        run = RunDir(tmp_path / "run")
        archive = LeagueArchive(tmp_path / "league")
        archive.save("fight", "L5",
                     PolicyNetwork(fight_config(critic_width=124), seed=1))
        trainer = train_escape(small_scenario(), small_ppo(24), run, archive,
                               seed=11, steps_phase1=20, steps_phase2=20,
                               variant="base",
                               script=ScriptConfig(flee_probability=0.0),
                               sim_cfg=SimConfig())
        assert archive.has("escape")
        levels = {r["level"] for r in run.read_metrics()}
        # both phases logged (tiny runs may only reach an update in one)
        assert levels <= {"escape-L3", "escape-vs-L5"} and levels

    def test_escape_rewards_non_positive(self, tmp_path):
        trainer = LowLevelTrainer(small_scenario(), small_ppo(512),
                                  TrainMode(kind="escape"),
                                  RunDir(tmp_path / "run"), seed=12)
        from dogfight.scripted import ScriptedController

        env = trainer.make_env(ScriptedController(
            "L3", trainer.opponent_rng, trainer.script))
        trainer.run_episode(env)  # one collect fills the batch
        assert all(t.reward <= 0.0 for t in trainer.buffer.transitions)

    def test_standard_baseline(self, tmp_path):
        run = RunDir(tmp_path / "run")
        trainer = train_standard_baseline(
            small_scenario(n_agents=3, n_opponents=3), small_ppo(8), run,
            seed=13, env_steps=30, script=ScriptConfig(flee_probability=0.0),
            sim_cfg=SimConfig())
        assert trainer.mode.framework == "ctce"
        assert (run.path / "checkpoints" / "standard.ckpt").exists()
        records = run.read_metrics()
        assert records and records[0]["level"] == "standard-L3"


class TestDeterminism:
    def _run(self, tmp_path, name):
        run = RunDir(tmp_path / name)
        trainer = LowLevelTrainer(small_scenario(), small_ppo(48),
                                  TrainMode(), run, seed=99)
        from dogfight.scripted import ScriptedController

        trainer.train_level(
            "L2",
            ScriptedController("L2", trainer.opponent_rng, trainer.script),
            env_steps=120)
        return run.metrics_path.read_bytes()

    def test_identical_seeds_identical_logs(self, tmp_path):
        assert self._run(tmp_path, "a") == self._run(tmp_path, "b")


class TestCommanderTrainer:
    def _trainer(self, run_dir, variant=None, seed=20, batch_size=8):
        variant = variant or CommanderVariant()
        scenario = ScenarioConfig.commander_training(
            horizon=12, n_agents=2, n_opponents=2, map_size=30.0,
            commander_senses=variant.senses)
        fight = PolicyNetwork(fight_config(
            critic_width=4 * 31), seed=1)
        from dogfight.nn import escape_config

        escape = PolicyNetwork(escape_config(critic_width=4 * 32), seed=2)
        return CommanderTrainer(
            scenario, PPOConfig(batch_size=batch_size, update_epochs=2,
                                minibatches=2, gamma=0.95),
            variant, fight, escape, run_dir=run_dir, seed=seed)

    def test_episode_produces_option_transitions(self, tmp_path):
        trainer = self._trainer(RunDir(tmp_path / "run"))
        before = trainer.actor.fight_commands + trainer.actor.escape_commands
        trainer.run_episode()
        assert trainer.buffer.transitions
        for t in trainer.buffer.transitions:
            assert t.instance == "cmd"
            assert 1 <= t.duration <= trainer.scenario.option_horizon
            assert t.hidden is not None
        assert trainer.actor.fight_commands + trainer.actor.escape_commands > before

    def test_frozen_opponents_unchanged(self, tmp_path):
        trainer = self._trainer(RunDir(tmp_path / "run"))
        trainer.train(env_steps=30)
        # train() asserts checksums internally; assert again for clarity
        assert trainer.fight_actor.policy.store.checksum() == \
            trainer.frozen_checksums["fight"]

    def test_option_duration_bounded_by_events(self, tmp_path):
        trainer = self._trainer(RunDir(tmp_path / "run"), batch_size=64)
        trainer.run_episode()  # one collect fills the batch
        durations = [t.duration for t in trainer.buffer.transitions]
        assert max(durations) <= trainer.scenario.option_horizon

    def test_noopt_action_space(self, tmp_path):
        trainer = self._trainer(RunDir(tmp_path / "run"),
                                CommanderVariant(opt=False))
        assert trainer.policy.config.instance("cmd").head_arities == (2,)
        trainer.run_episode()
        assert all(t.action[0] in (0, 1) for t in trainer.buffer.transitions)

    @pytest.mark.parametrize("arch", ["sa", "fc"])
    def test_feedforward_commander_trains(self, arch, tmp_path):
        trainer = self._trainer(RunDir(tmp_path / "run"),
                                CommanderVariant(arch=arch))
        trainer.train(env_steps=30)
        assert trainer.updates >= 1

    def test_n3_action_space(self, tmp_path):
        trainer = self._trainer(RunDir(tmp_path / "run"),
                                CommanderVariant(senses=3))
        assert trainer.policy.config.instance("cmd").head_arities == (4,)
        trainer.run_episode()
        assert all(t.action[0] in range(4) for t in trainer.buffer.transitions)

    def test_senses_must_match_the_scenario(self, tmp_path):
        scenario = ScenarioConfig.commander_training()
        fight = PolicyNetwork(fight_config(critic_width=6 * 31), seed=1)
        with pytest.raises(ValueError, match=r"senses 3 .*commander_senses is 2"):
            CommanderTrainer(scenario, PPOConfig(), CommanderVariant(senses=3),
                             fight, fight, RunDir(tmp_path / "run"), seed=0)

    def test_metrics_records(self, tmp_path):
        run = RunDir(tmp_path / "run")
        trainer = self._trainer(run)
        trainer.train(env_steps=60)
        records = run.read_metrics()
        assert len(records) == trainer.updates >= 1
        assert all(set(record) == METRICS_KEYS for record in records)
        assert records[-1]["level"] == "commander-Shared-N2-Opt-Assess"

    def test_glob_variant_joint_transitions(self, tmp_path):
        trainer = self._trainer(RunDir(tmp_path / "run"),
                                CommanderVariant(shared=False))
        trainer.run_episode()
        assert all(t.instance == "joint" for t in trainer.buffer.transitions)
        assert all(t.head_mask is not None for t in trainer.buffer.transitions)

    def test_concurrent_episodes_keep_their_own_streams(self, tmp_path):
        # a collect plays its episodes over LOCKSTEP_EPISODES slots, each
        # taking the next episode when its own ends: each has its own
        # episode index, and every (episode, agent) stream holds one
        # episode's options, closed once, spanning at most its length; an
        # episode closes at most 24 options, so 200 need more than 8
        from dogfight.train.policies import LOCKSTEP_EPISODES

        trainer = self._trainer(RunDir(tmp_path / "run"), batch_size=200)
        trainer.run_episode()
        assert len(trainer.buffer) >= trainer.ppo.batch_size
        assert trainer.episodes > LOCKSTEP_EPISODES
        _assert_episodes_apart(trainer.buffer.transitions,
                               range(trainer.episodes), _lengths(trainer))

    def test_commander_update_runs(self, tmp_path):
        trainer = self._trainer(RunDir(tmp_path / "run"))
        trainer.train(env_steps=60)
        assert trainer.updates >= 1

    def test_each_commander_observation_built_once(self, monkeypatch, tmp_path):
        # the critic input takes the decision's row observations, so no
        # agent's commander observation is built twice for one world state
        from dogfight import observations
        from dogfight.train import commander

        built = []
        build = observations.build_obs_commander

        def counted(world, agent_id, *args, **kwargs):
            built.append((id(world), world.round_idx, agent_id))
            return build(world, agent_id, *args, **kwargs)

        for module in (observations, commander):
            monkeypatch.setattr(module, "build_obs_commander", counted)
        trainer = self._trainer(RunDir(tmp_path / "run"))
        trainer.run_episode()
        assert trainer.buffer.transitions
        assert len(built) == len(set(built)) > 0


def _float64_networks(trainer):
    """Swaps the networks a trainer updates for float64 ones of the same
    configs."""
    import dataclasses

    nets = {key: PolicyNetwork(dataclasses.replace(p.config, dtype="float64"),
                               seed=key + 1)
            for key, p in trainer.policies.items()}
    trainer.policies, trainer.policy = nets, nets[0]
    if isinstance(trainer, CommanderTrainer):
        trainer.actor.commander = nets[0]
    else:
        trainer.actor.policy = (nets if isinstance(trainer.actor.policy, dict)
                                else nets[0])


def _low_level(framework, run_dir, float64=False, batch=200):
    # a 2v2 episode of 12 steps closes at most 24 transitions, so a collect
    # of 200 plays more episodes than it has slots
    from dogfight.scripted import ScriptedController

    trainer = LowLevelTrainer(small_scenario(horizon=12), small_ppo(batch),
                              TrainMode(framework=framework), RunDir(run_dir),
                              seed=31)
    if float64:
        _float64_networks(trainer)
    return trainer, trainer.make_env(
        ScriptedController("L3", trainer.opponent_rng, trainer.script))


FRAMEWORKS = ["ctde", "dtde", "ctce"]


class TestCriticInputReuse:
    @pytest.mark.parametrize("kind", ["fight", "escape"])
    def test_row_observations_give_the_rebuilt_input(self, kind, monkeypatch,
                                                      tmp_path):
        # critic inputs built from the decision's row observations are
        # byte-equal to ones that build every observation again
        from dogfight.scripted import ScriptedController
        from dogfight.train.policies import CTDEDriver

        def collect():
            trainer = LowLevelTrainer(small_scenario(horizon=12),
                                      small_ppo(200), TrainMode(kind=kind),
                                      RunDir(tmp_path / "run"), seed=31)
            env = trainer.make_env(ScriptedController(
                "L3", trainer.opponent_rng, trainer.script))
            trainer.run_episode(env)
            return [t.critic_input for t in trainer.buffer.transitions]

        reused = collect()
        monkeypatch.setattr(CTDEDriver, "_critic_observations",
                            staticmethod(lambda env, d: {}))
        rebuilt = collect()
        assert len(reused) == len(rebuilt) > 0
        for a, b in zip(reused, rebuilt):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_joint_rows_and_targeted_agents_are_rebuilt(self):
        from dogfight.env import CombatEnv
        from dogfight.scripted import ScriptedController
        from dogfight.train.policies import CTCEDriver, CTDEDriver

        scenario = small_scenario()
        env = CombatEnv(scenario, ScriptedController(
            "L1", np.random.default_rng(0), ScriptConfig()), SimConfig())
        env.reset(seed=3)
        low = make_low_level_policy("fight", "ctde", scenario, 0)
        joint = make_low_level_policy("fight", "ctce", scenario, 0)
        rng = np.random.default_rng(1)
        driver = CTDEDriver(low, "fight", rng, greedy=True)
        ids = env.agent_ids()
        (d,) = driver.actions([env])
        assert set(driver._critic_observations(env, d)) == set(ids)
        env.set_attack_target(ids[0], env.opponent_ids()[-1])
        (d,) = driver.actions([env])
        assert set(driver._critic_observations(env, d)) == set(ids[1:])
        ctce = CTCEDriver(joint, "fight", rng, greedy=True)
        (d,) = ctce.actions([env])
        assert ctce._critic_observations(env, d) == {}


def _lengths(trainer) -> list[int]:
    """The lengths of the episodes since the trainer's last update."""
    return [record.length for record in trainer._window]


def _assert_episodes_apart(transitions, episodes, lengths):
    """The collect's transitions come from `episodes`, each buffered whole
    and in order; every (episode, agent) stream is closed once, at its end,
    and the longest spans its episode's length."""
    order = [t.episode for t in transitions]
    assert order == sorted(order) and sorted(set(order)) == list(episodes)
    streams = {}
    for t in transitions:
        streams.setdefault((t.episode, t.agent_id), []).append(t)
    for stream in streams.values():
        assert [t.done for t in stream] == [False] * (len(stream) - 1) + [True]
    for episode, length in zip(episodes, lengths):
        assert max(sum(t.duration for t in stream)
                   for (k, _), stream in streams.items() if k == episode) == length


class TestLockstepCollects:
    @pytest.mark.parametrize("framework", FRAMEWORKS)
    def test_low_level_collect_keeps_each_episode_apart(self, framework,
                                                         tmp_path):
        # one run_episode fills a batch over LOCKSTEP_EPISODES slots, the
        # env and its siblings, each taking the next episode when its own
        # ends: the episode indices run on without a gap, each (episode,
        # agent) stream holds one episode's steps, closed once
        from dogfight.train.policies import LOCKSTEP_EPISODES

        trainer, env = _low_level(framework, tmp_path)
        trainer.run_episode(env)
        assert len(trainer.buffer) >= trainer.ppo.batch_size
        assert trainer.episodes > LOCKSTEP_EPISODES
        _assert_episodes_apart(trainer.buffer.transitions,
                               range(trainer.episodes), _lengths(trainer))
        assert trainer.env_steps == sum(_lengths(trainer))
        assert len(trainer.envs) == LOCKSTEP_EPISODES and trainer.envs[0] is env
        siblings, first = list(trainer.envs), trainer.episodes
        trainer.buffer.clear()
        trainer.run_episode(env)  # the next collect reuses the siblings
        assert trainer.envs == siblings
        _assert_episodes_apart(trainer.buffer.transitions,
                               range(first, trainer.episodes),
                               _lengths(trainer)[first:])

    @pytest.mark.parametrize("framework", FRAMEWORKS)
    def test_lockstep_collect_equals_episodes_one_at_a_time(self, framework,
                                                             tmp_path):
        # with no update in between, the lockstep episodes act, draw and
        # judge as the same episodes played one after another on one slot,
        # which starts no more of them than the batch needs; a batched
        # product rounds unlike a one-row one, which float64 networks keep
        # far below 1e-12
        def collect(lockstep):
            trainer, env = _low_level(framework, tmp_path / str(lockstep),
                                      float64=True)
            if lockstep:
                trainer.run_episode(env)
            else:
                trainer._play([env], None)
            return trainer.episodes, _lengths(trainer), trainer.buffer.transitions

        (played, lengths, lockstep), (alone_played, alone_lengths, alone) = (
            collect(True), collect(False))
        assert played >= alone_played
        assert lengths[:alone_played] == alone_lengths
        lockstep = [t for t in lockstep if t.episode < alone_played]
        assert len(lockstep) == len(alone)
        for a, b in zip(lockstep, alone):
            assert (a.episode, a.agent_id, a.instance, a.done, a.reward) == \
                (b.episode, b.agent_id, b.instance, b.done, b.reward)
            np.testing.assert_array_equal(a.action, b.action)
            np.testing.assert_array_equal(a.critic_input, b.critic_input)
        for field in ("log_prob", "value"):
            np.testing.assert_allclose([getattr(t, field) for t in lockstep],
                                       [getattr(t, field) for t in alone],
                                       rtol=0, atol=1e-12)

    def test_budget_stops_new_episodes(self, monkeypatch, tmp_path):
        # a collect given a step budget starts episodes while its env steps
        # are below it, then lets the running ones finish
        from dogfight.train.policies import LOCKSTEP_EPISODES

        trainer, env = _low_level("ctde", tmp_path, batch=4096)
        taken, at_start = [0], []
        begin, observe = trainer.begin_episode, trainer.observe_step

        def counted_begin(env):
            at_start.append(taken[0])
            begin(env)

        def counted_observe(env, result):
            taken[0] += 1
            observe(env, result)

        monkeypatch.setattr(trainer, "begin_episode", counted_begin)
        monkeypatch.setattr(trainer, "observe_step", counted_observe)
        budget = 150
        trainer.run_episode(env, budget=budget)
        assert len(at_start) > LOCKSTEP_EPISODES
        assert max(at_start) < budget <= trainer.env_steps == taken[0]
        assert trainer.env_steps < budget + LOCKSTEP_EPISODES * 12
        assert len(trainer.buffer) < trainer.ppo.batch_size

    @pytest.mark.parametrize("float64", [False, True], ids=["float32", "float64"])
    @pytest.mark.parametrize("path", FRAMEWORKS + ["commander", "commander-glob"])
    def test_batched_critic_equals_one_call_per_env(self, monkeypatch, path,
                                                     float64, tmp_path):
        # every recorded value is the one a critic call on its own input
        # gives (to the rounding of a batched product against a one-row
        # one), while a lockstep step makes one critic forward per
        # (network, instance) for all its envs
        if path.startswith("commander"):
            trainer = TestCommanderTrainer()._trainer(
                RunDir(tmp_path / "run"),
                CommanderVariant(shared=path == "commander"))
            if float64:
                _float64_networks(trainer)
            collect = trainer.run_episode
        else:
            trainer, env = _low_level(path, tmp_path, float64)
            collect = lambda: trainer.run_episode(env)  # noqa: E731
        calls = []
        forward_critic = PolicyNetwork.forward_critic

        def counted(self, instance, critic_input, **kwargs):
            calls.append((id(self), instance))
            return forward_critic(self, instance, critic_input, **kwargs)

        steps = []  # one entry per lockstep step
        decided = trainer.decided
        monkeypatch.setattr(PolicyNetwork, "forward_critic", counted)
        monkeypatch.setattr(trainer, "decided", lambda envs, decisions: (
            steps.append(len(envs)), decided(envs, decisions)))
        collect()
        monkeypatch.undo()
        transitions = trainer.buffer.transitions
        network = (trainer.policies.get if path == "dtde"
                   else lambda _: trainer.policy)
        alone = [network(t.agent_id).forward_critic(
                     t.instance, t.critic_input, grad=False).item()
                 for t in transitions]
        np.testing.assert_allclose([t.value for t in transitions], alone,
                                   rtol=0, atol=1e-12 if float64 else 1e-6)
        groups = len(set(calls))  # (network, instance) pairs judged
        assert len(calls) <= groups * len(steps)


class TestGraphFreeDecisions:
    @staticmethod
    def _decided(rows, ids, **kwargs):
        from dogfight.nn.networks import Decision, decide

        d = Decision(rows, ids, np.random.default_rng(8), **kwargs)
        decide([d])
        return d

    @pytest.mark.parametrize("recurrent", [False, True], ids=["fc", "gru"])
    def test_one_transition_per_sampled_row(self, recurrent):
        from dogfight.nn import commander_config
        from dogfight.train.policies import decision_transitions

        rng = np.random.default_rng(7)
        if recurrent:
            net = PolicyNetwork(commander_config(2, critic_width=105), seed=5)
            rows = [(net, "cmd", rng.uniform(0, 1, 34)) for _ in range(2)]
            d = self._decided(rows, [0, 2], hidden=np.concatenate(
                [net.initial_hidden() + k for k in range(2)]))
        else:
            net = PolicyNetwork(fight_config(critic_width=124), seed=1)
            rows = [(net, name, rng.uniform(
                         0, 1, net.config.instance(name).obs_width))
                    for name in ("ac1", "ac2")]
            d = self._decided(rows, [0, 2])
        inputs = [rng.uniform(0, 1, 124) for _ in rows]
        transitions = decision_transitions(d, 3, inputs, [0.5, -1.0])
        assert len(transitions) == 2
        for i, t in enumerate(transitions):
            assert (t.instance, t.agent_id, t.episode) == (rows[i][1], d.ids[i], 3)
            assert t.obs is rows[i][2] and t.critic_input is inputs[i]
            np.testing.assert_array_equal(t.action, d.samples[i])
            assert t.log_prob == float(d.log_probs[i])
            assert (t.value, t.reward, t.done, t.duration) == (
                0.0, [0.5, -1.0][i], False, 1)
            assert t.head_mask is None
            if recurrent:
                np.testing.assert_array_equal(t.hidden, d.hidden[i:i + 1])
            else:
                assert t.hidden is None

    def test_one_team_transition_per_joint_decision(self):
        # slot 1 is destroyed: its span of the action vector and of the
        # mask stays zero, and the team sums the acting slots
        from dogfight.train.policies import decision_transitions

        scenario = small_scenario(n_agents=3, n_opponents=3)
        net = make_low_level_policy("fight", "ctce", scenario, seed=3)
        obs = np.random.default_rng(1).uniform(
            0, 1, net.config.instance("joint").obs_width)
        d = self._decided([(net, "joint", obs)], [0, 2], slot_heads=4)
        inputs = [np.ones(5), np.zeros(5)]
        (t,) = decision_transitions(d, 6, inputs, [0.25, 2.0])
        assert (t.instance, t.agent_id, t.episode) == ("joint", -1, 6)
        assert t.obs is obs and t.critic_input is inputs[0]
        np.testing.assert_array_equal(
            t.action, np.concatenate([d.samples[0], [0] * 4, d.samples[1]]))
        np.testing.assert_array_equal(t.head_mask, [1] * 4 + [0] * 4 + [1] * 4)
        assert t.log_prob == float(d.log_probs[0]) + float(d.log_probs[1])
        assert (t.value, t.reward, t.done, t.duration) == (0.0, 2.25, False, 1)
        assert t.hidden is None

    def test_ctde_rollout_builds_no_tensors(self, monkeypatch):
        from helpers import count_tensors

        scenario = ScenarioConfig(n_agents=3, n_opponents=2, horizon=8, seed=0)
        policy = PolicyNetwork(fight_config(critic_width=5 * 31), seed=1)
        count = count_tensors(monkeypatch)
        buffer = fill_buffer(policy, scenario, 30)
        assert len(buffer) >= 30 and count[0] == 0

    def test_commander_rollout_builds_no_tensors(self, monkeypatch, tmp_path):
        from helpers import count_tensors

        trainer = TestCommanderTrainer()._trainer(RunDir(tmp_path / "run"))
        count = count_tensors(monkeypatch)
        trainer.run_episode()
        assert trainer.buffer.transitions and count[0] == 0
