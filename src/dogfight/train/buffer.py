"""Rollout storage and generalized advantage estimation.

Transitions are appended in time order and grouped per (episode, agent) into
contiguous decision streams. Advantage propagation discounts by gamma raised
to the transition's duration, so commander options spanning several env
steps bootstrap with the proper semi-MDP decay. Episodes always end with a
done flag (the collector never truncates mid-episode), so streams never
bootstrap past their final transition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Transition:
    instance: str  # network instance that produced the action
    agent_id: int
    episode: int
    obs: np.ndarray
    action: np.ndarray  # per-head indices
    log_prob: float
    value: float
    reward: float
    done: bool
    critic_input: np.ndarray
    duration: int = 1  # env steps spanned (options > 1)
    hidden: np.ndarray | None = None  # recurrent actor state at decision time
    head_mask: np.ndarray | None = None  # joint networks: which heads acted


@dataclass
class RolloutBuffer:
    transitions: list[Transition] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.transitions)

    def clear(self):
        self.transitions.clear()

    def instances(self) -> list[str]:
        return sorted({t.instance for t in self.transitions})

    def indices_for(self, instance: str) -> np.ndarray:
        return np.array([i for i, t in enumerate(self.transitions)
                         if t.instance == instance], dtype=int)


def compute_gae(buffer: RolloutBuffer, gamma: float, lam: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Advantages and return targets for every buffered transition.

    Returns are advantages + values before normalization, so the raw
    advantages are `returns - values`; advantages are always normalized to
    zero mean and unit variance across the whole buffer.
    """
    if not buffer.transitions:
        raise ValueError("cannot compute advantages for an empty buffer")
    n = len(buffer.transitions)
    advantages = np.zeros(n, dtype=np.float64)

    streams: dict[tuple[int, int], list[int]] = {}
    for i, t in enumerate(buffer.transitions):
        streams.setdefault((t.episode, t.agent_id), []).append(i)

    for indices in streams.values():
        running = 0.0
        next_value = 0.0
        for i in reversed(indices):
            t = buffer.transitions[i]
            decay = gamma ** t.duration
            if t.done:
                delta = t.reward - t.value
                running = delta
            else:
                delta = t.reward + decay * next_value - t.value
                running = delta + decay * lam * running
            advantages[i] = running
            next_value = t.value

    values = np.array([t.value for t in buffer.transitions])
    returns = advantages + values
    std = advantages.std()
    return (advantages - advantages.mean()) / (std + 1e-8), returns
