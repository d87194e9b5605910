"""Autodiff, network, optimizer, and checkpoint tests."""

import dataclasses
import json
import math
import struct

import numpy as np
import pytest

from dogfight.nn import (
    ParamStore,
    PolicyNetwork,
    Tensor,
    adam_step,
    commander_config,
    ctce_config,
    escape_config,
    fight_config,
    load_checkpoint,
    orthogonal_init,
    sample_action,
    save_checkpoint,
)
from dogfight.nn import blocks, networks
from dogfight.nn.networks import Decision, decide, load_policy
from dogfight.nn.params import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, save_arrays
from dogfight.observations import FIGHT_HEADS, OBS_LAYOUTS
from dogfight.nn import autodiff
from dogfight.nn.autodiff import head_log_prob_entropy, node
from dogfight.nn import gradcheck
from dogfight.nn.gradcheck import check_network, run_standard_suite

import reference_ops
from helpers import no_draws
from reference_ops import (
    add,
    clip,
    matmul,
    minimum,
    mul,
    slice_cols,
    softmax,
    stack,
    tanh,
    tmean,
    transpose_last2,
    tsum,
)


def numeric_grad(fn, x, h=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        up = fn()
        x[idx] = orig - h
        down = fn()
        x[idx] = orig
        grad[idx] = (up - down) / (2 * h)
        it.iternext()
    return grad


class TestAutodiffOps:
    def _check(self, build, *arrays):
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        out = build(*tensors)
        out.backward()
        for t, a in zip(tensors, arrays):
            numeric = numeric_grad(lambda: build(
                *[Tensor(arr) for arr in arrays]).item(), a)
            assert np.allclose(t.grad, numeric, atol=1e-5), build.__name__

    def test_linear_layer_gradient(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=5)
        self._check(lambda X, W, B: tsum(tanh(add(matmul(X, W), B))), x, w, b)

    def test_outer_product_identity(self):
        # single-sample linear layer: dL/dW = outer(input, grad_out)
        x = np.array([[1.0, 2.0, 3.0]])
        w = Tensor(np.zeros((3, 2)), requires_grad=True)
        out = matmul(Tensor(x), w)
        out.backward(np.array([[0.5, -1.0]]))
        assert np.allclose(w.grad, np.outer(x[0], [0.5, -1.0]))

    def test_batched_matmul_gradient(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 4))
        self._check(lambda A, B: tsum(matmul(A, transpose_last2(matmul(A, B)))), a, b)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = softmax(Tensor(rng.normal(size=(6, 9))))
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_gradient(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5))
        self._check(lambda X: tsum(mul(softmax(X), np.arange(5.0))), x)

    @pytest.mark.parametrize("masked", [False, True], ids=["all", "masked"])
    @pytest.mark.parametrize("output", [0, 1], ids=["log_prob", "entropy"])
    def test_head_log_prob_entropy_gradient(self, output, masked):
        rng = np.random.default_rng(4)
        arities = (5, 3, 2)
        z = rng.normal(size=(4, sum(arities)))
        actions = rng.integers(0, 2, size=(4, 3)) + np.array([2, 1, 0])
        mask = (rng.integers(0, 2, size=(4, 3)).astype(float) if masked
                else None)
        weights = rng.normal(size=4)
        self._check(lambda Z: tsum(mul(head_log_prob_entropy(
            Z, arities, actions, mask)[output], weights)), z)

    def test_head_log_prob_entropy_per_head_reference(self):
        # each head's log-softmax on its own columns, summed in head order
        rng = np.random.default_rng(9)
        arities = (4, 3)
        z = rng.normal(size=(5, 7))
        actions = np.array([[0, 2], [3, 0], [1, 1], [2, 2], [3, 1]])
        mask = np.array([[1, 1], [1, 0], [0, 1], [1, 1], [0, 0]], dtype=float)
        lp, ent = head_log_prob_entropy(z, arities, actions, mask)
        want_lp, want_ent, start = np.zeros(5), np.zeros(5), 0
        for j, arity in enumerate(arities):
            seg = z[:, start:start + arity]
            log_p = seg - np.log(np.exp(seg).sum(axis=1, keepdims=True))
            want_lp += mask[:, j] * log_p[np.arange(5), actions[:, j]]
            want_ent += mask[:, j] * -(np.exp(log_p) * log_p).sum(axis=1)
            start += arity
        assert np.allclose(lp, want_lp, atol=1e-12)
        assert np.allclose(ent, want_ent, atol=1e-12)

    def test_minimum_and_clip_gradient(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8,))
        b = rng.normal(size=(8,))
        self._check(lambda A, B: tsum(minimum(mul(A, 2.0), clip(B, -0.5, 0.5))),
                    a, b)

    def test_stack_mean(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        weights = np.arange(6.0).reshape(2, 3)
        self._check(lambda A, B: tsum(mul(tmean(stack([A, B], axis=1), axis=1),
                                          weights)), a, b)

    def test_slice_cols_gradient(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 7))
        weights = rng.normal(size=(3, 4))
        self._check(lambda X: add(tsum(mul(slice_cols(X, 1, 4), weights[:, :3])),
                                  tsum(mul(tanh(slice_cols(X, 3, 7)), weights))),
                    x)

    def test_broadcast_add_bias(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3))
        b = rng.normal(size=(3,))
        self._check(lambda X, B: tsum(add(X, B)), x, b)

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            mul(t, 2.0).backward()


class TestNetworks:
    def test_fight_head_shapes(self):
        net = PolicyNetwork(fight_config(critic_width=124), seed=0)
        for instance, width in (("ac1", 27), ("ac2", 25)):
            assert net.config.instance(instance).head_arities == (13, 9, 2, 2)
            out = net.forward_actor(instance, np.zeros(width))
            assert out.heads.shape == (1, 26)

    def test_commander_variants(self):
        n2 = PolicyNetwork(commander_config(2, critic_width=105), seed=0)
        assert n2.forward_actor("cmd", np.zeros(34)).heads.shape[-1] == 3
        n3 = PolicyNetwork(commander_config(3, critic_width=135), seed=0)
        assert n3.forward_actor("cmd", np.zeros(44)).heads.shape[-1] == 4

    def test_zero_params_uniform_distribution(self):
        net = PolicyNetwork(fight_config(critic_width=124), seed=0)
        for t in net.store.params.values():
            t.data = np.zeros_like(t.data)
        out = net.forward_actor("ac1", np.zeros(27))
        assert np.allclose(out.heads.data, 0.0)
        samples, log_prob = sample_action(
            out.heads.data, (13, 9, 2, 2), np.random.default_rng(0).random((1, 4)),
            False)
        assert log_prob[0] == pytest.approx(
            math.log(1 / 13) + math.log(1 / 9) + 2 * math.log(1 / 2))

    def test_zero_params_zero_value(self):
        net = PolicyNetwork(fight_config(critic_width=124), seed=0)
        for t in net.store.params.values():
            t.data = np.zeros_like(t.data)
        assert net.forward_critic("ac1", np.zeros(124)).item() == 0.0

    def test_shape_mismatch_rejected(self):
        net = PolicyNetwork(fight_config(critic_width=124), seed=0)
        with pytest.raises(ValueError):
            net.forward_actor("ac1", np.zeros(25))
        with pytest.raises(ValueError):
            net.forward_critic("ac1", np.zeros(100))

    def test_shared_core_is_one_tensor(self):
        # the green layer: same parameter object on the actor and critic
        # paths of both type instances
        net = PolicyNetwork(fight_config(critic_width=124), seed=0)
        assert "shared.core.W" in net.store.params
        before = net.forward_critic("ac1", np.ones(124)).item()
        net.store["shared.core.W"].data += 0.05
        after = net.forward_critic("ac1", np.ones(124)).item()
        assert before != after  # actor-path parameter moved the critic too

    def test_actor_update_reaches_critic_through_shared_core(self):
        net = PolicyNetwork(fight_config(critic_width=124), seed=0)
        critic_before = net.forward_critic("ac2", np.ones(124)).item()
        net.store.zero_grad()
        out = net.forward_actor("ac1", np.ones(27))
        tmean(out.heads).backward()
        assert net.store["shared.core.W"].grad is not None
        adam_step(net.store, lr=0.05)
        critic_after = net.forward_critic("ac2", np.ones(124)).item()
        assert critic_before != critic_after

    def test_policy_symmetry_identical_obs(self):
        net = PolicyNetwork(fight_config(critic_width=124), seed=3)
        obs = np.random.default_rng(5).uniform(0, 1, 27)
        a = net.forward_actor("ac1", obs)
        b = net.forward_actor("ac1", obs)
        assert np.array_equal(a.heads.data, b.heads.data)

    def test_forward_deterministic(self):
        cfg = commander_config(2, critic_width=105)
        net = PolicyNetwork(cfg, seed=9)
        obs = np.random.default_rng(1).uniform(0, 1, 34)
        h = net.initial_hidden()
        o1 = net.forward_actor("cmd", obs, h)
        o2 = net.forward_actor("cmd", obs, h)
        assert np.array_equal(o1.heads.data, o2.heads.data)
        assert np.array_equal(o1.hidden.data, o2.hidden.data)

    def test_gru_hidden_evolves(self):
        net = PolicyNetwork(commander_config(2, critic_width=105), seed=2)
        obs = np.random.default_rng(3).uniform(0, 1, 34)
        h0 = net.initial_hidden()
        out1 = net.forward_actor("cmd", obs, h0)
        out2 = net.forward_actor("cmd", obs, out1.hidden.data)
        assert not np.array_equal(out1.hidden.data, out2.hidden.data)
        assert not np.array_equal(out1.heads.data, out2.heads.data)

    def test_fc_baseline_dimensions(self):
        net = PolicyNetwork(fight_config(critic_width=124, fc_baseline=True), seed=0)
        assert net.store["ac1.embed.W"].shape == (27, 500)
        assert net.store["shared.core.W"].shape == (500, 500)
        out = net.forward_actor("ac1", np.zeros(27))
        assert out.heads.shape[-1] == 26

    def test_ctce_joint_heads(self):
        cfg = ctce_config("fight", obs_width=27 * 3,
                          head_arities=(13, 9, 2, 2) * 3, critic_width=31 * 6)
        net = PolicyNetwork(cfg, seed=0)
        out = net.forward_actor("joint", np.zeros(81))
        assert out.heads.shape[-1] == 3 * 26

    def test_nan_logits_rejected(self):
        with pytest.raises(FloatingPointError):
            sample_action(np.array([[np.nan, 0.0]]), (2,),
                          np.random.default_rng(0).random((1, 1)), False)


def draws(rng, logits_per_head, greedy):
    """The uniform draws `decide` hands `sample_action`: one
    `random((rows, heads))` call, or none for a greedy decision."""
    shape = (len(logits_per_head[0]), len(logits_per_head))
    return None if greedy else rng.random(shape)


def sample(logits_per_head, u, greedy=False):
    """`sample_action` on per-head logits laid side by side in one table."""
    return sample_action(np.concatenate(logits_per_head, axis=1),
                         tuple(head.shape[-1] for head in logits_per_head),
                         u, greedy)


def split_heads(heads, arities):
    """One [B, arity] column block of `heads` per head."""
    return np.split(heads, np.cumsum(arities)[:-1], axis=1)


def choice_reference(logits_per_head, rng, greedy=False):
    """Per-row, per-head `rng.choice` sampling: the reference the batched
    inverse-CDF sampler must reproduce draw for draw."""
    rows = len(logits_per_head[0])
    samples = np.zeros((rows, len(logits_per_head)), dtype=int)
    log_prob = np.zeros(rows)
    entropy = np.zeros(rows)
    for b in range(rows):
        lp = ent = 0.0
        for j, head in enumerate(logits_per_head):
            logits = np.asarray(head[b], dtype=np.float64)
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            idx = (int(np.argmax(probs)) if greedy
                   else int(rng.choice(len(probs), p=probs)))
            samples[b, j] = idx
            lp += float(np.log(probs[idx]))
            ent += float(-(probs * np.log(np.maximum(probs, 1e-12))).sum())
        log_prob[b] = lp
        entropy[b] = ent
    return samples, log_prob, entropy


class TestSampling:
    def test_two_way_uniform(self):
        samples, log_prob = sample_action(np.zeros((1, 2)), (2,),
                                          np.random.default_rng(0).random((1, 1)),
                                          False)
        assert log_prob[0] == pytest.approx(math.log(0.5))
        # the PPO loss's entropy of the same distribution: a noOpt commander
        # head with every weight zero
        net = PolicyNetwork(commander_config(2, critic_width=105, opt=False,
                                             dtype="float64"), seed=0)
        for t in net.store.params.values():
            t.data = np.zeros_like(t.data)
        _, entropy = net.log_prob_entropy("cmd", np.zeros((1, 34)),
                                          samples, net.initial_hidden())
        assert entropy.data[0] == pytest.approx(math.log(2))

    def test_peaked_logits_prefer_argmax(self):
        samples, _ = sample_action(np.tile([10.0, 0.0, 0.0], (1000, 1)), (3,),
                                   np.random.default_rng(1).random((1000, 1)),
                                   False)
        assert (samples[:, 0] == 0).sum() > 990

    def test_greedy_deterministic(self):
        logits = [np.array([[0.3, 1.2, -0.5]])]
        for seed in range(5):
            rng = np.random.default_rng(seed)
            state = rng.bit_generator.state
            samples, _ = sample(logits, draws(rng, logits, True), greedy=True)
            assert samples.tolist() == [[1]]
            assert rng.bit_generator.state == state  # greedy draws nothing

    def test_log_prob_matches_probability(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=7)
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        samples, log_prob = sample_action(logits[None, :], (7,), rng.random((1, 1)),
                                          False)
        assert log_prob[0] == pytest.approx(math.log(probs[samples[0, 0]]))

    @pytest.mark.parametrize("greedy", [False, True])
    def test_matches_per_head_choice(self, greedy):
        # the fight heads plus a commander-sized head, peaked and flat rows
        arities = (13, 9, 2, 2, 3)
        gen = np.random.default_rng(11)
        for trial in range(200):
            rows = int(gen.integers(1, 16))
            scale = (0.1, 1.0, 8.0)[trial % 3]
            logits = [gen.normal(0.0, scale, (rows, k)) for k in arities]
            rng, ref_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            samples, log_prob = sample(logits, draws(rng, logits, greedy),
                                       greedy=greedy)
            want, want_lp, _ = choice_reference(logits, ref_rng, greedy=greedy)
            assert np.array_equal(samples, want)
            assert np.array_equal(log_prob, want_lp)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("greedy", [False, True])
    def test_one_head_matches_per_head_choice(self, greedy):
        # one head, as the commander has, draws as `choice` does
        gen = np.random.default_rng(12)
        for trial in range(200):
            rows = int(gen.integers(1, 16))
            logits = [gen.normal(0.0, (0.1, 1.0, 8.0)[trial % 3], (rows, 3))]
            rng, ref_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            samples, log_prob = sample(logits, draws(rng, logits, greedy),
                                       greedy=greedy)
            want, want_lp, _ = choice_reference(logits, ref_rng, greedy=greedy)
            assert np.array_equal(samples, want)
            assert np.array_equal(log_prob, want_lp)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_greedy_rows_read_no_draws(self):
        # draws come for the sampled rows only; the greedy rows take the
        # argmax, and the sampled ones sample as they would alone
        gen = np.random.default_rng(13)
        logits = [gen.normal(0.0, 1.0, (5, k)) for k in (13, 9, 2, 2)]
        greedy = np.array([True, False, False, True, False])
        u = gen.random((3, 4))
        samples, log_prob = sample(logits, u, greedy)
        alone, alone_lp = sample([h[~greedy] for h in logits], u)
        argmax, argmax_lp = sample([h[greedy] for h in logits], None, True)
        assert np.array_equal(samples[~greedy], alone)
        assert np.array_equal(log_prob[~greedy], alone_lp)
        assert np.array_equal(samples[greedy], argmax)
        assert np.array_equal(log_prob[greedy], argmax_lp)

    def test_matches_the_reference_bits(self):
        # the padded-take, broadcast and per-head-loop body of
        # `reference_ops.sample_action`: equal samples and log-probability
        # bytes over arities, dtypes and greedy, sampled and mixed rows
        gen = np.random.default_rng(14)
        for trial in range(600):
            heads = int(gen.integers(1, 5))
            arities = tuple(int(k) for k in gen.integers(1, 14, heads))
            rows = int(gen.integers(1, 12))
            table = gen.normal(0.0, (0.1, 1.0, 8.0, 40.0)[trial % 4],
                               (rows, sum(arities))).astype(
                (np.float32, np.float64)[trial % 2])
            greedy = (True, False, gen.random(rows) < 0.5)[trial % 3]
            sampled = rows if greedy is False else (
                0 if greedy is True else int((~greedy).sum()))
            u = gen.random((sampled, heads))
            samples, log_prob = sample_action(table, arities, u, greedy)
            want, want_lp = reference_ops.sample_action(table, arities, u, greedy)
            assert np.array_equal(samples, want)
            assert log_prob.tobytes() == want_lp.tobytes()

    def test_decide_draws_in_row_order(self):
        # rows of two instances interleaved: one forward per instance, then
        # the same draws as row-by-row sampling in the given order
        net = PolicyNetwork(fight_config(critic_width=124, dtype="float64"), seed=4)
        gen = np.random.default_rng(5)
        rows = [(net, inst, gen.uniform(0, 1, width)) for inst, width in
                (("ac1", 27), ("ac2", 25), ("ac1", 27), ("ac1", 27), ("ac2", 25))]
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        decision = Decision(rows, list(range(len(rows))), rng)
        decide([decision])
        samples, log_prob = decision.samples, decision.log_probs
        for b, (policy, inst, obs) in enumerate(rows):
            logits = split_heads(policy.forward_actor(inst, obs, grad=False).heads,
                                 policy.config.instance(inst).head_arities)
            want, want_lp, want_ent = choice_reference(logits, ref_rng)
            assert np.array_equal(samples[b], want[0])
            assert log_prob[b] == pytest.approx(want_lp[0], abs=1e-12)
            # the PPO loss scores the sampled action as the sampler did
            lp, ent = policy.log_prob_entropy(inst, obs[None], samples[b][None])
            assert lp.data[0] == pytest.approx(want_lp[0], abs=1e-9)
            assert ent.data[0] == pytest.approx(want_ent[0], abs=1e-9)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_decide_together_as_alone(self):
        # per-aircraft rows on two generators, greedy rows and a joint
        # network's living slots, decided in one call, sample as each
        # decision does on its own and leave each generator where it would
        fight = PolicyNetwork(fight_config(critic_width=124, dtype="float64"),
                              seed=4)
        joint = PolicyNetwork(dataclasses.replace(ctce_config(
            "fight", obs_width=27 * 3, head_arities=(13, 9, 2, 2) * 3,
            critic_width=31 * 6), dtype="float64"), seed=5)
        gen = np.random.default_rng(7)

        def decisions(seed):
            rngs = [np.random.default_rng(seed + k) for k in range(2)]
            return [
                Decision([(fight, "ac1", gen_obs[0]), (fight, "ac2", gen_obs[1])],
                         [0, 1], rngs[0]),
                Decision([(fight, "ac2", gen_obs[2])], [3], None),
                Decision([(joint, "joint", gen_obs[3])], [0, 2], rngs[1],
                         slot_heads=4),
            ], rngs

        gen_obs = [gen.uniform(0, 1, 27), gen.uniform(0, 1, 25),
                   gen.uniform(0, 1, 25), gen.uniform(0, 1, 81)]
        together, rngs = decisions(8)
        decide(together)
        alone, alone_rngs = decisions(8)
        for d in alone:
            decide([d])
        for a, b in zip(together, alone):
            assert np.array_equal(a.samples, b.samples)
            np.testing.assert_allclose(a.log_probs, b.log_probs, rtol=0,
                                       atol=1e-12)
        assert [r.bit_generator.state for r in rngs] == \
            [r.bit_generator.state for r in alone_rngs]
        assert together[2].samples.shape == (2, 4)


ARCHITECTURES = {
    "fight-attention": (lambda dtype: fight_config(critic_width=40, dtype=dtype),
                        "ac1"),
    "escape-mlp": (lambda dtype: escape_config(critic_width=40, dtype=dtype),
                   "ac2"),
    "commander-gru": (lambda dtype: commander_config(2, critic_width=40,
                                                     dtype=dtype), "cmd"),
    "fight-fc": (lambda dtype: fight_config(critic_width=40, fc_baseline=True,
                                            dtype=dtype), "ac1"),
    "commander-sa": (lambda dtype: commander_config(3, critic_width=40,
                                                    arch="sa", dtype=dtype),
                     "cmd"),
    "commander-fc": (lambda dtype: commander_config(2, critic_width=40,
                                                    arch="fc", dtype=dtype),
                     "cmd"),
    "ctce-joint": (lambda dtype: dataclasses.replace(ctce_config(
        "fight", obs_width=27 * 2, head_arities=(13, 9, 2, 2) * 2,
        critic_width=40), dtype=dtype), "joint"),
}
# batched BLAS may sum in another order than one-row products
ROW_TOLERANCE = {"float32": 1e-5, "float64": 1e-12}


def _batch(net, instance, rows=6, seed=0):
    inst = net.config.instance(instance)
    gen = np.random.default_rng(seed)
    obs = gen.uniform(0, 1, (rows, inst.obs_width))
    hidden = gen.uniform(-1, 1, (rows, net.config.hidden_width))
    critic = gen.uniform(0, 1, (rows, inst.critic_width))
    return obs, (hidden if net.config.recurrent else None), critic


class TestGraphFreeForward:
    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_bit_equal_to_graph_forward(self, arch, dtype):
        make, instance = ARCHITECTURES[arch]
        net = PolicyNetwork(make(dtype), seed=3)
        obs, hidden, critic = _batch(net, instance)
        graph = net.forward_actor(instance, obs, hidden)
        free = net.forward_actor(instance, obs, hidden, grad=False)
        for g, f in ((graph.heads, free.heads), (graph.hidden, free.hidden)):
            if g is None:
                assert f is None
                continue
            assert isinstance(f, np.ndarray) and f.dtype == g.data.dtype
            assert np.array_equal(f, g.data)
        value = net.forward_critic(instance, critic, grad=False)
        assert np.array_equal(value, net.forward_critic(instance, critic).data)

    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_batched_rows_match_one_row_forwards(self, arch, dtype):
        make, instance = ARCHITECTURES[arch]
        net = PolicyNetwork(make(dtype), seed=4)
        obs, hidden, _ = _batch(net, instance, seed=1)
        batched = net.forward_actor(instance, obs, hidden, grad=False)
        for b in range(len(obs)):
            one = net.forward_actor(instance, obs[b],
                                    None if hidden is None else hidden[b:b + 1],
                                    grad=False)
            for lb, lo in ((batched.heads, one.heads),
                           (batched.hidden, one.hidden)):
                if lb is None:
                    continue
                assert np.max(np.abs(lb[b] - lo[0])) <= ROW_TOLERANCE[dtype]

    def test_learner_batch_matches_one_row_decisions(self):
        # a 40-row fight batch (120 token rows) takes the folded attention
        # body, as PPO minibatches do; one row takes the textbook body, as
        # decisions do. They compute the same function.
        net = PolicyNetwork(fight_config(critic_width=40, dtype="float64"),
                            seed=4)
        obs, _, _ = _batch(net, "ac1", rows=40, seed=1)
        tokens = len(net.config.instance("ac1").token_splits)
        assert len(obs) * tokens > net.config.embed_width >= tokens
        batched = net.forward_actor("ac1", obs).heads.data
        for b in range(len(obs)):
            one = net.forward_actor("ac1", obs[b], grad=False).heads
            assert np.max(np.abs(batched[b] - one[0])) <= 1e-12

    @pytest.mark.parametrize("grad", [True, False], ids=["graph", "graph-free"])
    def test_float32_networks_compute_in_float32(self, grad):
        # the Python-float constants of the attention and GRU bodies take
        # the arrays' dtype, so logits and hidden states stay float32 in
        # both modes
        joint = ctce_config("fight", obs_width=27 * 2,
                            head_arities=(13, 9, 2, 2) * 2, critic_width=40)
        for config, instance in ((fight_config(critic_width=40), "ac1"),
                                 (escape_config(critic_width=40), "ac2"),
                                 (commander_config(2, critic_width=40), "cmd"),
                                 (joint, "joint")):
            net = PolicyNetwork(config, seed=0)
            width = config.instance(instance).obs_width
            out = net.forward_actor(instance, np.ones((2, width)), grad=grad)
            arrays = [out.heads] + ([out.hidden] if config.recurrent else [])
            for array in arrays:
                data = array.data if grad else array
                assert data.dtype == np.float32, (config.kind, instance)


# each block's kernel, the reference composition it is checked against,
# its static arguments, its operand shapes [B=5, E=H=6] and whether each
# operand carries gradient; an attention embed's input is the observation,
# which does not. Attention at B=5 has 10 token rows, above the width, so
# its node runs the folded body; at B=2 and three tokens it has 6, the
# textbook body's largest batch.
BLOCKS = {
    "dense-tanh": ("dense", "dense", {"squash": True}, [(5, 4), (4, 6), (6,)],
                   [True, True, True]),
    "dense-affine": ("dense", "dense", {"squash": False},
                     [(5, 4), (4, 6), (6,)], [True, True, True]),
    "attention": ("attention", "attention_folded", {},
                  [(5, 7), (3, 6), (6,), (4, 6), (6,), (6, 18)],
                  [False] + [True] * 5),
    "attention-textbook": ("attention", "attention", {},
                           [(2, 9), (3, 6), (6,), (4, 6), (6,), (2, 6), (6,),
                            (6, 18)], [False] + [True] * 7),
    "gru": ("gru", "gru", {}, [(5, 4), (5, 6), (4, 18), (6, 18), (18,)],
            [True] * 5),
}


def _block_results(kernel, arrays, tracked, weights, **static):
    """The output and the tracked operands' gradients of `kernel` on
    `arrays`, under the loss `sum(out * weights)`."""
    ops = [Tensor(a, requires_grad=True) if t else a
           for a, t in zip(arrays, tracked)]
    out = kernel(ops)
    tsum(mul(out, weights)).backward()
    return [out.data] + [op.grad for op in ops if isinstance(op, Tensor)]


class TestBlockNodes:
    @pytest.mark.parametrize("block", sorted(BLOCKS))
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_node_matches_composed_ops(self, block, dtype):
        # one node with the block's analytic backward gives the values and
        # gradients of the same block composed of small ops, to the bit
        name, reference, static, shapes, tracked = BLOCKS[block]
        gen = np.random.default_rng(0)
        arrays = [gen.normal(0.0, 0.7, shape).astype(dtype) for shape in shapes]
        weights = gen.normal(size=(shapes[0][0], 6)).astype(dtype)
        results = [_block_results(build, arrays, tracked, weights)
                   for build in (
                       lambda ops: node(getattr(blocks, name), ops, **static),
                       lambda ops: getattr(reference_ops, reference)(
                           *ops, **static))]
        assert len(results[0]) == 1 + sum(tracked)
        for got, want in zip(*results):
            assert got.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rows", [2, 5, 40])
    def test_folded_attention_is_the_textbook_function(self, rows):
        # the two compositions regroup the same sums: at float64 their
        # outputs and every gradient agree to rounding, on either side of
        # the switch
        shapes = [(rows, 7), (3, 6), (6,), (4, 6), (6,), (6, 18)]
        gen = np.random.default_rng(1)
        arrays = [gen.normal(0.0, 0.7, shape) for shape in shapes]
        weights = gen.normal(size=(rows, 6))
        textbook, folded = (
            _block_results(lambda ops: compose(*ops), arrays,
                           [False] + [True] * 5, weights)
            for compose in (reference_ops.attention,
                            reference_ops.attention_folded))
        for a, b in zip(textbook, folded):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


COEFFICIENTS = {"clip_eps": 0.2, "value_coef": 0.5, "entropy_coef": 0.01}
# a row on either side of each clip bound, once with a positive advantage
# and once with a negative one
RATIOS = [0.5, 0.79, 0.81, 1.0, 1.05, 1.19, 1.21, 1.6] * 2


def _objective_inputs(dtype, masked):
    """The operands (values, log-probabilities, entropies) and targets of a
    16-row minibatch whose ratios are `RATIOS`."""
    gen = np.random.default_rng(11)
    arities = (5, 3, 2)
    rows = len(RATIOS)
    z = gen.normal(size=(rows, sum(arities)))
    actions = gen.integers(0, arities, size=(rows, len(arities)))
    mask = (gen.integers(0, 2, size=(rows, len(arities))).astype(float)
            if masked else None)
    log_prob, entropy = head_log_prob_entropy(z, arities, actions, mask)
    operands = [gen.normal(size=(rows, 1)), log_prob, entropy]
    targets = {"log_prob_old": log_prob - np.log(RATIOS),
               "advantages": np.abs(gen.normal(size=rows))
               * np.repeat([1.0, -1.0], rows // 2),
               "returns": gen.normal(size=rows)}
    return ([a.astype(dtype) for a in operands],
            {k: v.astype(dtype) for k, v in targets.items()})


class TestPPOObjective:
    @pytest.mark.parametrize("masked", [False, True], ids=["all", "masked"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_node_matches_the_chain(self, dtype, masked):
        # the kernel's loss and the gradients of values, log-probabilities
        # and entropies are the bits of the op chain it replaces
        operands, targets = _objective_inputs(dtype, masked)
        results = []
        for build in (lambda ops: node(blocks.ppo_objective, ops, **targets,
                                       **COEFFICIENTS)[0],
                      lambda ops: reference_ops.ppo_objective(
                          *ops, **targets, **COEFFICIENTS)):
            leaves = [Tensor(a, requires_grad=True) for a in operands]
            loss = build(leaves)
            loss.backward()
            results.append([loss.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            assert got.dtype == np.dtype(dtype)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_figures(self):
        operands, targets = _objective_inputs("float64", True)
        values, log_prob, entropy = operands
        loss, _, info = blocks.ppo_objective(*operands, **targets,
                                             **COEFFICIENTS)
        ratio = np.exp(log_prob - targets["log_prob_old"])
        adv = targets["advantages"]
        surrogate = np.minimum(ratio * adv, np.clip(ratio, 0.8, 1.2) * adv)
        value_loss = np.mean((values[:, 0] - targets["returns"]) ** 2)
        assert info["policy_loss"] == pytest.approx(-surrogate.mean())
        assert info["value_loss"] == pytest.approx(value_loss)
        assert info["entropy"] == pytest.approx(entropy.mean())
        assert info["mean_ratio"] == pytest.approx(np.mean(RATIOS))
        assert loss == pytest.approx(-surrogate.mean() + 0.5 * value_loss
                                     - 0.01 * entropy.mean())

    def test_gradient_matches_finite_differences(self):
        operands, targets = _objective_inputs("float64", True)
        leaves = [Tensor(a, requires_grad=True) for a in operands]
        node(blocks.ppo_objective, leaves, **targets,
             **COEFFICIENTS)[0].backward()
        for leaf, array in zip(leaves, operands):
            numeric = numeric_grad(lambda: float(blocks.ppo_objective(
                *operands, **targets, **COEFFICIENTS)[0]), array)
            assert np.allclose(leaf.grad, numeric, rtol=0.0, atol=1e-8)


def _per_block_draws(config, seed):
    """Every weight of `config` drawn as one `orthogonal_init` per block, in
    the order of a network with one weight array per block."""
    rng = np.random.default_rng(seed)
    embed, hidden = config.embed_width, config.hidden_width
    core = config.fc_width if config.fc_baseline else (
        hidden if config.recurrent else embed)
    out = {"shared.core.W": orthogonal_init(rng, (core, core))}
    for inst in config.instances:
        name = inst.name
        if inst.token_splits and not config.fc_baseline:
            for i, width in enumerate(inst.token_splits):
                out[f"{name}.embed{i}.W"] = orthogonal_init(rng, (width, embed))
            for proj in "qkv":
                out[f"{name}.attn.{proj}"] = orthogonal_init(rng, (embed, embed))
        else:
            width = config.fc_width if config.fc_baseline else embed
            out[f"{name}.embed.W"] = orthogonal_init(rng, (inst.obs_width, width))
        if config.recurrent:
            for gate in "zrn":
                out[f"{name}.gru.W{gate}"] = orthogonal_init(rng, (embed, hidden))
                out[f"{name}.gru.U{gate}"] = orthogonal_init(rng, (hidden, hidden))
        for j, arity in enumerate(inst.head_arities):
            out[f"{name}.head{j}.W"] = orthogonal_init(rng, (core, arity))
        critic = hidden if config.recurrent else (
            config.fc_width if config.fc_baseline else embed)
        out[f"{name}.critic.embed.W"] = orthogonal_init(
            rng, (inst.critic_width, critic))
        out[f"{name}.critic.value.W"] = orthogonal_init(rng, (core, 1))
    return out


class TestFusedLayers:
    @pytest.mark.parametrize("config", [
        fight_config(critic_width=40), escape_config(critic_width=40),
        commander_config(2, critic_width=40),
        commander_config(3, critic_width=40, arch="sa"),
        fight_config(critic_width=40, fc_baseline=True)],
        ids=["fight", "escape", "commander-gru", "commander-sa", "fight-fc"])
    def test_fused_weights_are_the_per_block_draws(self, config):
        net = PolicyNetwork(config, seed=7)
        ref = _per_block_draws(config, seed=7)
        got = net.store.state_arrays()
        fused = {}
        for inst in config.instances:
            name = inst.name
            fused[f"{name}.heads.W"] = [f"{name}.head{j}.W"
                                        for j in range(len(inst.head_arities))]
            fused[f"{name}.attn.qkv"] = [f"{name}.attn.{p}" for p in "qkv"]
            fused[f"{name}.gru.W"] = [f"{name}.gru.W{g}" for g in "zrn"]
            fused[f"{name}.gru.U"] = [f"{name}.gru.U{g}" for g in "zrn"]
        for name, blocks in fused.items():
            if blocks[0] in ref:
                want = np.concatenate([ref.pop(b) for b in blocks], axis=1)
                assert np.array_equal(got[name], want.astype(np.float32)), name
        for name, want in ref.items():  # every other weight drew in turn
            assert np.array_equal(got[name], want.astype(np.float32)), name
        assert not any(name.endswith(".b") and got[name].any() for name in got)

class TestAdam:
    def test_zero_gradient_no_change(self):
        store = ParamStore(dtype="float64")
        t = store.add("w", np.ones(4))
        t.grad = np.zeros(4)
        adam_step(store, lr=0.1)
        assert np.array_equal(t.data, np.ones(4))

    def test_constant_gradient_reaches_lr_magnitude(self):
        store = ParamStore(dtype="float64")
        t = store.add("w", np.zeros(1))
        lr = 0.01
        for _ in range(500):
            t.grad = np.array([2.5])
            adam_step(store, lr=lr)
        # scale invariance: steady-state step approaches lr for constant grad
        before = t.data.copy()
        t.grad = np.array([2.5])
        adam_step(store, lr=lr)
        assert abs(before[0] - t.data[0]) == pytest.approx(lr, rel=1e-3)

    def test_first_step_bias_correction(self):
        store = ParamStore(dtype="float64")
        t = store.add("w", np.zeros(1))
        g = 0.3
        t.grad = np.array([g])
        adam_step(store, lr=0.001)
        # m_hat = g, v_hat = g^2 -> step = lr * g / (|g| + eps)
        expected = -0.001 * g / (abs(g) + 1e-8)
        assert t.data[0] == pytest.approx(expected, rel=1e-9)

    def test_shared_gradient_clipped_once(self):
        # `add` hands one gradient array to both leaves; clipping must
        # scale each leaf's gradient once, not the shared array twice
        store = ParamStore(dtype="float64")
        a, b = store.add("a", np.zeros(3)), store.add("b", np.ones(3))
        w = np.array([3.0, 4.0, 0.0])
        tsum(mul(autodiff.add(a, b), w)).backward()
        assert a.grad is b.grad
        norm = store.clip_grad_norm(1.0)
        assert norm == pytest.approx(5.0 * math.sqrt(2.0))
        for t in (a, b):
            assert np.allclose(t.grad, w / norm)

    def test_grad_norm_clipping(self):
        store = ParamStore(dtype="float64")
        t = store.add("w", np.zeros(3))
        t.grad = np.array([3.0, 4.0, 0.0])
        norm = store.clip_grad_norm(1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(t.grad) == pytest.approx(1.0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = PolicyNetwork(fight_config(critic_width=124), seed=4)
        path = tmp_path / "fight.ckpt"
        save_checkpoint(path, net.store, net.config.to_dict())
        arrays, config = load_checkpoint(path)
        assert config == net.config.to_dict()
        for name, data in net.store.state_arrays().items():
            assert np.array_equal(arrays[name], data)

    def test_load_into_network(self, tmp_path):
        net = PolicyNetwork(commander_config(2, critic_width=105), seed=5)
        path = tmp_path / "cmd.ckpt"
        save_checkpoint(path, net.store, net.config.to_dict())
        other = PolicyNetwork(commander_config(2, critic_width=105), seed=99)
        arrays, _ = load_checkpoint(path)
        other.store.load_arrays(arrays)
        obs = np.random.default_rng(0).uniform(0, 1, 34)
        a = net.forward_actor("cmd", obs, net.initial_hidden())
        b = other.forward_actor("cmd", obs, other.initial_hidden())
        assert np.array_equal(a.heads.data, b.heads.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut, extra", [(-1, b""), (-4000, b""), (0, b"\x00")])
    def test_truncated_or_padded_payload_rejected(self, tmp_path, cut, extra):
        net = PolicyNetwork(escape_config(critic_width=128), seed=6)
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, net.store, net.config.to_dict())
        data = path.read_bytes()
        path.write_bytes(data[:len(data) + cut] + extra)
        with pytest.raises(ValueError, match="bad.ckpt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("payload", [
        struct.pack("<II", CHECKPOINT_VERSION, 9) + b"{not json",
        struct.pack("<II", CHECKPOINT_VERSION, 14) + json.dumps(
            {"config": {}}).encode(),
        struct.pack("<I", CHECKPOINT_VERSION) + b"\x00\x00",
    ], ids=["header-not-json", "header-without-arrays", "cut-in-prefix"])
    def test_corrupt_header_names_the_file(self, tmp_path, payload):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + payload)
        with pytest.raises(ValueError, match="corrupt.ckpt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("entries, index", [
        ([{"name": "w", "shape": [2]}], 0),
        ([{"name": "w", "shape": [2], "dtype": "nonsense"}], 0),
        ([{"shape": [2], "dtype": "<f4"}], 0),
        ([{"name": ["w"], "shape": [2], "dtype": "<f4"}], 0),
        ([{"name": "w", "shape": [2.5], "dtype": "<f4"}], 0),
        ([{"name": "w", "shape": [-1], "dtype": "<f4"}], 0),
        ([{"name": "w", "shape": [2], "dtype": "<f4"}] * 2, 1),
    ], ids=["missing-dtype", "unknown-dtype", "missing-name", "list-name",
            "fractional-shape", "negative-shape", "repeated-name"])
    def test_malformed_array_entry_names_the_file(self, tmp_path, entries,
                                                  index):
        header = json.dumps({"config": {}, "arrays": entries}).encode()
        path = tmp_path / "entry.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack(
            "<II", CHECKPOINT_VERSION, len(header)) + header + b"\x00" * 16)
        with pytest.raises(ValueError, match=f"entry.ckpt.*entry {index}"):
            load_checkpoint(path)

    def test_checksum_tracks_content(self):
        net = PolicyNetwork(escape_config(critic_width=128), seed=6)
        c1 = net.store.checksum()
        net.store["shared.core.W"].data += 1.0
        assert net.store.checksum() != c1


# one config of each architecture a checkpoint can hold
CHECKPOINT_CONFIGS = {
    "fight-attention": fight_config(critic_width=40),
    "fight-fc": fight_config(critic_width=40, fc_baseline=True),
    "escape": escape_config(critic_width=40),
    "commander-gru": commander_config(2, critic_width=40),
    "commander-sa": commander_config(3, critic_width=40, arch="sa"),
    "commander-fc": commander_config(2, critic_width=40, arch="fc"),
    "ctce-joint": ctce_config("fight", obs_width=2 * OBS_LAYOUTS["fight-AC1"],
                              head_arities=FIGHT_HEADS * 2, critic_width=40),
    "commander-glob": dataclasses.replace(ctce_config(
        "commander", obs_width=3 * OBS_LAYOUTS["commander-n2"],
        head_arities=(3,) * 3, critic_width=40), recurrent=True),
}


def _saved(tmp_path, config, seed=11):
    """A checkpoint of `config`'s network drawn from `seed`."""
    net = PolicyNetwork(config, seed=seed)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net.store, config.to_dict())
    return path


class TestCheckpointBuild:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("name", CHECKPOINT_CONFIGS)
    def test_is_the_seeded_network_with_the_files_weights(
            self, tmp_path, name, dtype):
        config = dataclasses.replace(CHECKPOINT_CONFIGS[name], dtype=dtype)
        path = _saved(tmp_path, config)
        old = PolicyNetwork(config)
        old.store.load_arrays(load_checkpoint(path)[0], source=path)
        new = load_policy(path)
        assert new.config == old.config
        assert list(new.store.params) == list(old.store.params)
        assert new.store.step_count == old.store.step_count == 0
        for key, tensor in old.store.params.items():
            for got, want in [(new.store[key].data, tensor.data),
                              (new.store.moment1[key], old.store.moment1[key]),
                              (new.store.moment2[key], old.store.moment2[key])]:
                assert got.dtype == want.dtype and got.shape == want.shape, key
                assert got.flags.c_contiguous, key
                assert got.tobytes() == want.tobytes(), key
        rng = np.random.default_rng(3)
        for inst in config.instances:
            obs = rng.uniform(-1, 1, (4, inst.obs_width))
            hidden = rng.uniform(-1, 1, (4, config.hidden_width))
            critic = rng.uniform(-1, 1, (4, inst.critic_width))
            a, b = (net.forward_actor(inst.name, obs, hidden, grad=False)
                    for net in (old, new))
            assert a.heads.tobytes() == b.heads.tobytes()
            if config.recurrent:
                assert a.hidden.tobytes() == b.hidden.tobytes()
            assert (old.forward_critic(inst.name, critic, grad=False).tobytes()
                    == new.forward_critic(inst.name, critic,
                                          grad=False).tobytes())

    @pytest.mark.parametrize("name", CHECKPOINT_CONFIGS)
    def test_draws_no_initial_weight(self, tmp_path, name, monkeypatch):
        path = _saved(tmp_path, CHECKPOINT_CONFIGS[name])
        arrays = load_checkpoint(path)[0]
        no_draws(monkeypatch)
        net = load_policy(path)
        for key, data in arrays.items():
            assert np.array_equal(net.store[key].data, data), key

    def test_names_that_differ_are_reported_as_load_arrays_reports_them(
            self, tmp_path):
        config = CHECKPOINT_CONFIGS["escape"]
        arrays, blob = load_checkpoint(_saved(tmp_path, config))
        arrays["ac1.extra.W"] = arrays.pop("ac2.heads.b")
        with pytest.raises(ValueError) as seeded:
            PolicyNetwork(config).store.load_arrays(arrays, source="f.ckpt")
        with pytest.raises(ValueError) as built:
            networks.policy_from_checkpoint(arrays, blob, source="f.ckpt")
        assert str(built.value) == str(seeded.value)
        assert str(built.value) == (
            "f.ckpt: parameters do not match the network: missing "
            "['ac2.heads.b'], unexpected ['ac1.extra.W']")

    def test_wrong_shape_names_the_file(self, tmp_path):
        config = CHECKPOINT_CONFIGS["fight-attention"]
        path = _saved(tmp_path, config)
        arrays, blob = load_checkpoint(path)
        arrays["shared.core.W"] = arrays["shared.core.W"][:3]
        save_arrays(path, arrays, blob)
        with pytest.raises(ValueError, match="net.ckpt: shape mismatch for "
                                             "shared.core.W"):
            load_policy(path)
        with pytest.raises(ValueError, match="net.ckpt: shape mismatch for "
                                             "shared.core.W"):
            PolicyNetwork(config).store.load_arrays(arrays, source=path)


class TestGradCheckSuite:
    # reduced-draw versions; the acceptance suite runs the full 100 draws
    def test_fight_architecture(self):
        report = check_network(fight_config(critic_width=40, dtype="float64"),
                               "ac1", draws=10, seed=0)
        assert report.passed, report

    def test_escape_architecture(self):
        report = check_network(escape_config(critic_width=40, dtype="float64"),
                               "ac2", draws=10, seed=1)
        assert report.passed, report

    def test_commander_gru_through_time(self):
        report = check_network(commander_config(2, critic_width=40, dtype="float64"),
                               "cmd", draws=10, seq_len=5, seed=2)
        assert report.passed, report

    def test_commander_attention(self):
        report = check_network(commander_config(2, critic_width=40, arch="sa",
                                                dtype="float64"),
                               "cmd", draws=10, seed=3)
        assert report.passed, report

    def test_fc_baseline(self):
        config = fight_config(critic_width=40, fc_baseline=True, dtype="float64")
        report = check_network(dataclasses.replace(config, fc_width=100),
                               "ac1", draws=10, seed=4)
        assert report.passed, report

    @pytest.mark.parametrize("k", range(5), ids=[
        "fight", "escape", "commander-gru", "commander-sa", "fight-fc"])
    def test_graph_free_probe_is_the_graph_probe(self, k):
        # the stencil's graph-free losses are the graph's to the bit
        _, config, instance, seq_len, rows = gradcheck.standard_suite()[k]
        net = PolicyNetwork(config, seed=0)
        probe = gradcheck._draw(np.random.default_rng(k), net, instance,
                                seq_len, rows)
        graph = gradcheck._probe_loss(*probe, grad=True).item()
        assert graph.hex() == gradcheck._probe_loss(*probe, grad=False).hex()

    def test_suite_runner(self):
        reports = run_standard_suite(draws=3, seed=7)
        assert [r.name for r in reports] == [
            "fight/ac1", "escape/ac2", "commander-gru/cmd", "commander-sa/cmd",
            "fight-fc/ac1"]
        assert all(r.passed for r in reports)
