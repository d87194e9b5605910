"""Finite-difference verification of the analytic gradients.

Runs the real architectures (fight with attention, escape MLP, commander
GRU over a multi-step sequence, commander attention, the wide tanh
baseline) at float64, and compares the five-point stencil's slope at
sampled parameter coordinates, (-f(+2h) + 8f(+h) - 8f(-h) + f(-2h)) / 12h,
against the backward pass of every node their
bodies use: the dense, attention and GRU blocks and the heads' log-softmax.
The scalar probe loss mixes every actor head, the PPO log-probabilities and
entropies of drawn actions, and the critic so every parameter influences
the output.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, head_log_prob_entropy, tmean, tsum
from .networks import (
    NetworkConfig,
    PolicyNetwork,
    commander_config,
    escape_config,
    fight_config,
)

COORDS_PER_DRAW = 8  # parameter coordinates perturbed per draw
H = 1e-3  # five-point stencil step
TOLERANCE = 1e-4  # largest relative error that passes


@dataclass
class GradCheckReport:
    name: str
    checks: int
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE


def _probe_loss(net: PolicyNetwork, instance: str, batches: list,
                critic_in: np.ndarray, seq_len: int) -> Tensor:
    """Scalar loss touching every parameter: for each batch of
    observations and `actions`, the mean of all head logits and the
    log-probabilities and entropies of the actions, chained through the
    observation sequence; plus the critic value."""
    arities = net.config.instance(instance).head_arities
    total = tsum(net.forward_critic(instance, critic_in))
    for obs, actions in batches:
        hidden = None
        for t in range(seq_len):
            out = net.forward_actor(instance, obs[t], hidden)
            hidden = out.hidden
            log_prob, entropy = head_log_prob_entropy(out.heads, arities,
                                                      actions[t])
            total = total + (tmean(log_prob) + tmean(entropy)
                             + tmean(out.heads))
    return total


def _relative_error(analytic: float, numeric: float) -> float:
    # The stencil on a loss of magnitude ~10 carries ~1e-12 absolute noise
    # at H=1e-3/float64, so gradients below ~1e-6 cannot be resolved to
    # 1e-4 relative; the denominator floor compares those absolutely.
    scale = max(abs(analytic), abs(numeric), 1e-6)
    return abs(analytic - numeric) / scale


def check_network(config: NetworkConfig, instance: str, *, draws: int,
                  seq_len: int = 1, rows: tuple[int, ...] = (2,),
                  seed: int) -> GradCheckReport:
    """Compare analytic and five-point-stencil gradients on random draws.

    Every draw re-randomizes parameters and inputs; per draw a set of
    parameter coordinates is sampled such that each named array is hit at
    least once across the run. The actor runs on one batch of each size in
    `rows`.
    """
    rng = np.random.default_rng(seed)
    max_err = 0.0
    checks = 0
    for draw in range(draws):
        net = PolicyNetwork(config, seed=int(rng.integers(1 << 31)))
        store = net.store
        for tensor in store.params.values():
            tensor.data = rng.normal(0.0, 0.5, tensor.data.shape)
        inst = config.instance(instance)
        critic_in = rng.uniform(0.0, 1.0, (2, inst.critic_width))
        batches = [(rng.uniform(0.0, 1.0, (seq_len, n, inst.obs_width)),
                    rng.integers(0, inst.head_arities,
                                 (seq_len, n, len(inst.head_arities))))
                   for n in rows]

        probe = (net, instance, batches, critic_in, seq_len)
        store.zero_grad()
        _probe_loss(*probe).backward()

        names = sorted(store.params)
        picks = [names[draw % len(names)]]  # cycle to cover every array
        picks += [names[int(rng.integers(len(names)))]
                  for _ in range(COORDS_PER_DRAW - 1)]
        for name in picks:
            tensor = store.params[name]
            flat_idx = int(rng.integers(tensor.data.size))
            idx = np.unravel_index(flat_idx, tensor.data.shape)
            analytic = float(tensor.grad[idx]) if tensor.grad is not None else 0.0
            original = tensor.data[idx]
            f = []
            for k in (2, 1, -1, -2):
                tensor.data[idx] = original + k * H
                f.append(_probe_loss(*probe).item())
            tensor.data[idx] = original
            numeric = (8.0 * (f[1] - f[2]) - (f[0] - f[3])) / (12.0 * H)
            max_err = max(max_err, _relative_error(analytic, numeric))
            checks += 1
    return GradCheckReport(name=f"{config.kind}/{instance}", checks=checks,
                           max_rel_error=max_err)


def run_standard_suite(draws: int, seed: int) -> list[GradCheckReport]:
    """Gradient checks for the production architectures at float64, with a
    40-wide critic input: fight attention, escape, commander GRU, commander
    attention (`sa`) and the tanh fight baseline (fc).

    The commander GRU check runs over a five-step sequence so gradients
    flow through time. The two attention networks also run a batch whose
    tokens outnumber the embed width, so both bodies of the attention
    block are checked.
    """
    fight = fight_config(critic_width=40, dtype="float64")
    sa = commander_config(senses=2, critic_width=40, arch="sa",
                          dtype="float64")
    suite = [
        ("fight", fight, "ac1", 1, (2, _folded_rows(fight, "ac1"))),
        ("escape", escape_config(critic_width=40, dtype="float64"), "ac2", 1,
         (2,)),
        ("commander-gru", commander_config(senses=2, critic_width=40,
                                           dtype="float64"), "cmd", 5, (2,)),
        ("commander-sa", sa, "cmd", 1, (2, _folded_rows(sa, "cmd"))),
        ("fight-fc", fight_config(critic_width=40, fc_baseline=True,
                                  dtype="float64"), "ac1", 1, (2,)),
    ]
    return [dataclasses.replace(
        check_network(config, instance, draws=draws, seq_len=seq_len,
                      rows=rows, seed=seed + k), name=f"{label}/{instance}")
            for k, (label, config, instance, seq_len, rows)
            in enumerate(suite)]


def _folded_rows(config: NetworkConfig, instance: str) -> int:
    """The fewest rows whose attention tokens outnumber the embed width:
    the smallest batch that takes the folded attention body."""
    tokens = len(config.instance(instance).token_splits)
    return config.embed_width // tokens + 1
