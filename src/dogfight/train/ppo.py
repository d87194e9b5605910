"""Clipped-surrogate PPO update over a collected rollout buffer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.autodiff import Tensor, node
from ..nn.blocks import ppo_objective
from ..nn.networks import PolicyNetwork
from ..nn.params import adam_step
from .buffer import RolloutBuffer, compute_gae


@dataclass
class PPOConfig:
    lr: float = 1e-4
    gamma: float = 0.95
    clip_eps: float = 0.2
    batch_size: int = 2000  # low-level policies; 1000 for the commander
    update_epochs: int = 5
    minibatches: int = 4
    gae_lambda: float = 0.95
    entropy_coef: float = 0.0
    value_coef: float = 0.5
    max_grad_norm: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.clip_eps <= 0:
            raise ValueError("clip_eps must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


@dataclass
class UpdateStats:
    policy_loss: float = 0.0
    value_loss: float = 0.0
    entropy: float = 0.0
    mean_ratio_first_epoch: float = 0.0
    grad_norm: float = 0.0
    minibatches: int = 0

    def merge(self, other: "UpdateStats"):
        n = self.minibatches + other.minibatches
        if n == 0:
            return
        w0 = self.minibatches / n
        w1 = other.minibatches / n
        self.policy_loss = self.policy_loss * w0 + other.policy_loss * w1
        self.value_loss = self.value_loss * w0 + other.value_loss * w1
        self.entropy = self.entropy * w0 + other.entropy * w1
        self.mean_ratio_first_epoch = (self.mean_ratio_first_epoch * w0
                                       + other.mean_ratio_first_epoch * w1)
        self.grad_norm = self.grad_norm * w0 + other.grad_norm * w1
        self.minibatches = n


def _minibatch_loss(policy: PolicyNetwork, batch: dict, clip_eps: float,
                    value_coef: float, entropy_coef: float
                    ) -> tuple[Tensor, dict]:
    log_prob, entropy = policy.log_prob_entropy(
        batch["instance"], batch["obs"], batch["actions"],
        hidden_batch=batch["hidden"], head_mask=batch["head_mask"])
    values = policy.forward_critic(batch["instance"], batch["critic_inputs"])
    return node(ppo_objective, (values, log_prob, entropy),
                log_prob_old=batch["log_probs_old"],
                advantages=batch["advantages"], returns=batch["returns"],
                clip_eps=clip_eps, value_coef=value_coef,
                entropy_coef=entropy_coef)


def _gather_batch(buffer: RolloutBuffer, idx: np.ndarray, instance: str,
                  advantages: np.ndarray, returns: np.ndarray,
                  dtype) -> dict:
    rows = [buffer.transitions[i] for i in idx]
    batch = {
        "instance": instance,
        "obs": np.stack([t.obs for t in rows]).astype(dtype),
        "actions": np.stack([t.action for t in rows]),
        "log_probs_old": np.array([t.log_prob for t in rows], dtype=dtype),
        "advantages": advantages[idx].astype(dtype),
        "returns": returns[idx].astype(dtype),
        "critic_inputs": np.stack([t.critic_input for t in rows]).astype(dtype),
        "hidden": None,
        "head_mask": None,
    }
    if rows[0].hidden is not None:
        batch["hidden"] = np.concatenate([t.hidden for t in rows]).astype(dtype)
    if rows[0].head_mask is not None:
        batch["head_mask"] = np.stack([t.head_mask for t in rows]).astype(dtype)
    return batch


def _rows_of(batch: dict, rows: np.ndarray) -> dict:
    """The minibatch of `batch` at positions `rows`."""
    return {key: value if value is None or isinstance(value, str)
            else value[rows] for key, value in batch.items()}


def ppo_update(policy: PolicyNetwork, buffer: RolloutBuffer, config: PPOConfig,
               rng: np.random.Generator) -> UpdateStats:
    """Run K epochs of minibatched clipped-surrogate descent on the buffer.

    All network instances found in the buffer are updated in the same pass;
    gradients on shared parameters accumulate across instances before each
    optimizer step. The caller empties the buffer afterwards.
    """
    advantages, returns = compute_gae(buffer, config.gamma, config.gae_lambda)
    per_instance = {name: buffer.indices_for(name) for name in buffer.instances()}
    dtype = policy.store.dtype
    stats = UpdateStats()
    first_epoch_ratios: list[float] = []

    batches = {name: _gather_batch(buffer, idx, name, advantages, returns,
                                   dtype)
               for name, idx in per_instance.items()}

    for epoch in range(config.update_epochs):
        splits = {}
        for name, idx in per_instance.items():
            splits[name] = np.array_split(rng.permutation(len(idx)),
                                          config.minibatches)
        for m in range(config.minibatches):
            policy.store.zero_grad()
            any_data = False
            losses = []
            infos = []
            for name in per_instance:
                part = splits[name][m]
                if len(part) == 0:
                    continue
                any_data = True
                loss, info = _minibatch_loss(
                    policy, _rows_of(batches[name], part),
                    config.clip_eps, config.value_coef, config.entropy_coef)
                losses.append(loss)
                infos.append(info)
            if not any_data:
                continue
            total = losses[0]
            for extra in losses[1:]:
                total = total + extra
            if not np.isfinite(total.item()):
                raise RuntimeError(
                    f"non-finite PPO loss (epoch {epoch}, minibatch {m}): {infos}")
            total.backward()
            grad_norm = policy.store.clip_grad_norm(config.max_grad_norm)
            adam_step(policy.store, config.lr)
            if epoch == 0 and not first_epoch_ratios:
                # ratio before any parameter movement: 1 up to rounding, as
                # a minibatch may take the other attention body than the
                # decisions did (see `nn.blocks`)
                first_epoch_ratios += [i["mean_ratio"] for i in infos]
            stats.merge(UpdateStats(
                policy_loss=float(np.mean([i["policy_loss"] for i in infos])),
                value_loss=float(np.mean([i["value_loss"] for i in infos])),
                entropy=float(np.mean([i["entropy"] for i in infos])),
                grad_norm=grad_norm,
                minibatches=1,
            ))
            # free this minibatch's graph before the next one is built
            del total, loss, losses
    stats.mean_ratio_first_epoch = float(np.mean(first_epoch_ratios)) if first_epoch_ratios else 1.0
    return stats
