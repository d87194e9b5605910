"""Finite-difference verification of the analytic gradients.

Runs the real architectures (fight with attention, escape MLP, commander
GRU over a multi-step sequence, commander attention, the wide tanh
baseline) at float64, and compares the five-point stencil's slope at
sampled parameter coordinates, (-f(+2h) + 8f(+h) - 8f(-h) + f(-2h)) / 12h,
against the backward pass of every node their bodies use: the dense,
attention and GRU blocks, the heads' log-softmax and the PPO objective.
The probe loss is that objective, the one PPO differentiates, at every
step of the observation sequence, summed. It reads every head through the
log-probabilities and entropies of drawn actions, and the critic through
the value loss, so every parameter influences it. Its drawn ratios lie
below, inside and above the clip band, so both branches of the clip are
checked. The stencil's losses are evaluated graph-free, on the same
kernels; the analytic side runs the graph and its backward.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .autodiff import head_log_prob_entropy, node
from .blocks import ppo_objective
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
OBJECTIVE = {"clip_eps": 0.3, "value_coef": 0.5, "entropy_coef": 0.01}
# The drawn ratios' bands, below, inside and above the clip band
# [0.7, 1.3]: each lies at least 0.22 from a bound in log-ratio, twice the
# largest change a stencil point makes in a log-probability (0.108, on
# fight at seed 0), so no stencil crosses a kink of the clip or minimum.
RATIO_BANDS = ((0.35, 0.55), (0.88, 1.04), (1.65, 2.1))


@dataclass
class GradCheckReport:
    name: str
    checks: int
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE


def _steps(net: PolicyNetwork, instance: str, batches: list, grad: bool):
    """For each step of each batch's observation sequence, the critic's
    values and the log-probabilities and entropies of the drawn actions,
    the actor's hidden state chained through the sequence."""
    arities = net.config.instance(instance).head_arities
    for obs, actions, critic_in in batches:
        hidden = None
        for t in range(len(obs)):
            out = net.forward_actor(instance, obs[t], hidden, grad=grad)
            hidden = out.hidden
            yield (net.forward_critic(instance, critic_in[t], grad=grad),
                   *head_log_prob_entropy(out.heads, arities, actions[t]))


def _probe_loss(net: PolicyNetwork, instance: str, batches: list,
                targets: list, grad: bool):
    """The PPO objective at every step of `batches`, with that step's
    `targets` (old log-probabilities, advantages and returns), summed:
    a Tensor with `grad`, else the same sum as a float."""
    total = None
    for operands, target in zip(_steps(net, instance, batches, grad), targets):
        loss = (node(ppo_objective, operands, **target, **OBJECTIVE)[0] if grad
                else float(ppo_objective(*operands, **target, **OBJECTIVE)[0]))
        total = loss if total is None else total + loss
    return total


def _relative_error(analytic: float, numeric: float) -> float:
    # The stencil on a loss of magnitude ~10 carries ~1e-12 absolute noise
    # at H=1e-3/float64, so gradients below ~1e-6 cannot be resolved to
    # 1e-4 relative; the denominator floor compares those absolutely.
    scale = max(abs(analytic), abs(numeric), 1e-6)
    return abs(analytic - numeric) / scale


def _draw(rng: np.random.Generator, net: PolicyNetwork, instance: str,
          seq_len: int, rows: tuple[int, ...]) -> tuple:
    """New parameters for `net`, a batch of each size in `rows` (an
    observation sequence, actions and critic inputs) and the targets of
    every step: the probe's arguments. The old log-probabilities put each
    row's ratio in a band of `RATIO_BANDS`."""
    inst = net.config.instance(instance)
    for tensor in net.store.params.values():
        tensor.data = rng.normal(0.0, 0.5, tensor.data.shape)
    batches = [(rng.uniform(0.0, 1.0, (seq_len, n, inst.obs_width)),
                rng.integers(0, inst.head_arities,
                             (seq_len, n, len(inst.head_arities))),
                rng.uniform(0.0, 1.0, (seq_len, n, inst.critic_width)))
               for n in rows]
    targets = []
    for _, log_prob, _ in _steps(net, instance, batches, grad=False):
        bands = np.asarray(RATIO_BANDS)[rng.integers(len(RATIO_BANDS),
                                                     size=len(log_prob))]
        ratio = rng.uniform(bands[:, 0], bands[:, 1])
        targets.append({"log_prob_old": log_prob - np.log(ratio),
                        "advantages": rng.normal(0.0, 1.0, len(log_prob)),
                        "returns": rng.normal(0.0, 1.0, len(log_prob))})
    return net, instance, batches, targets


def check_network(config: NetworkConfig, instance: str, *, draws: int,
                  seq_len: int = 1, rows: tuple[int, ...] = (2,),
                  seed: int) -> GradCheckReport:
    """Compare analytic and five-point-stencil gradients on random draws.

    Every draw re-randomizes parameters, inputs and targets (`_draw`); per
    draw a set of parameter coordinates is sampled such that each named
    array is hit at least once across the run.
    """
    rng = np.random.default_rng(seed)
    max_err = 0.0
    checks = 0
    net = PolicyNetwork(config, seed=seed)  # every draw overwrites its init
    store = net.store
    for draw in range(draws):
        rng.integers(1 << 31)  # unused; drawn so the stream stays fixed
        probe = _draw(rng, net, instance, seq_len, rows)
        store.zero_grad()
        _probe_loss(*probe, grad=True).backward()

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
                f.append(_probe_loss(*probe, grad=False))
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
    return [dataclasses.replace(
        check_network(config, instance, draws=draws, seq_len=seq_len,
                      rows=rows, seed=seed + k), name=f"{label}/{instance}")
            for k, (label, config, instance, seq_len, rows)
            in enumerate(standard_suite())]


def standard_suite() -> list[tuple]:
    """The audited architectures: label, config, instance, sequence length
    and batch sizes of each."""
    fight = fight_config(critic_width=40, dtype="float64")
    sa = commander_config(senses=2, critic_width=40, arch="sa",
                          dtype="float64")
    return [
        ("fight", fight, "ac1", 1, (2, _folded_rows(fight, "ac1"))),
        ("escape", escape_config(critic_width=40, dtype="float64"), "ac2", 1,
         (2,)),
        ("commander-gru", commander_config(senses=2, critic_width=40,
                                           dtype="float64"), "cmd", 5, (2,)),
        ("commander-sa", sa, "cmd", 1, (2, _folded_rows(sa, "cmd"))),
        ("fight-fc", fight_config(critic_width=40, fc_baseline=True,
                                  dtype="float64"), "ac1", 1, (2,)),
    ]


def _folded_rows(config: NetworkConfig, instance: str) -> int:
    """The fewest rows whose attention tokens outnumber the embed width:
    the smallest batch that takes the folded attention body."""
    tokens = len(config.instance(instance).token_splits)
    return config.embed_width // tokens + 1
