"""Actor-critic networks for the fight, escape, and commander policies.

Each policy owns one ParamStore. Fight and escape policies hold two network
instances (one per aircraft type, differing input/output widths); the
commander holds a single instance. A core layer is stored once per policy
and reused by every instance's actor and critic, so updates through any path
move all of them (the parameter-sharing mechanism the architectures rely
on). The fight actor tokenizes its observation into entity blocks and runs
single-head scaled dot-product self-attention over them; the commander actor
carries a GRU hidden state across its invocations.

Every architecture's layers are written once, in terms of the autodiff
ops. `grad=True` runs them on the store's Tensors and records the graph
that PPO and the gradient check differentiate; `grad=False` runs the same
body on the store's raw arrays, which is how rollouts and evaluation make
their decisions: batched, and without building a single Tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..observations import (
    FIGHT_HEADS,
    OBS_LAYOUTS,
    commander_block_widths,
    fight_token_splits,
)
from .autodiff import (
    Tensor,
    add,
    log_softmax,
    matmul,
    mul,
    sigmoid,
    slice_cols,
    softmax,
    stack,
    tanh,
    tmean,
    transpose_last2,
    tsum,
)
from .params import ParamStore, orthogonal_init

EMBED_WIDTH = 100


@dataclass(frozen=True)
class InstanceSpec:
    """One network instance: its input layout and output heads."""

    name: str  # parameter prefix, e.g. "ac1"
    obs_width: int
    head_arities: tuple[int, ...]
    critic_width: int
    token_splits: tuple[int, ...] | None = None  # attention tokens, or None


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture description for one policy's networks."""

    kind: str  # fight | escape | commander | ctce
    instances: tuple[InstanceSpec, ...]
    embed_width: int = EMBED_WIDTH
    recurrent: bool = False
    hidden_width: int = EMBED_WIDTH
    fc_baseline: bool = False  # two wide tanh layers, no attention/GRU
    fc_width: int = 500
    dtype: str = "float32"

    def instance(self, name: str) -> InstanceSpec:
        for spec in self.instances:
            if spec.name == name:
                return spec
        raise KeyError(f"no instance {name!r} in {self.kind} network")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "embed_width": self.embed_width,
            "recurrent": self.recurrent,
            "hidden_width": self.hidden_width,
            "fc_baseline": self.fc_baseline,
            "fc_width": self.fc_width,
            "dtype": self.dtype,
            "instances": [
                {
                    "name": s.name,
                    "obs_width": s.obs_width,
                    "head_arities": list(s.head_arities),
                    "critic_width": s.critic_width,
                    "token_splits": list(s.token_splits) if s.token_splits else None,
                }
                for s in self.instances
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkConfig":
        instances = tuple(
            InstanceSpec(
                name=item["name"],
                obs_width=item["obs_width"],
                head_arities=tuple(item["head_arities"]),
                critic_width=item["critic_width"],
                token_splits=tuple(item["token_splits"]) if item["token_splits"] else None,
            )
            for item in data["instances"]
        )
        return cls(kind=data["kind"], instances=instances,
                   embed_width=data["embed_width"], recurrent=data["recurrent"],
                   hidden_width=data["hidden_width"],
                   fc_baseline=data["fc_baseline"], fc_width=data["fc_width"],
                   dtype=data["dtype"])


def fight_config(critic_width: int, fc_baseline: bool = False,
                 dtype: str = "float32") -> NetworkConfig:
    """Fight network: attention over entity tokens, or with `fc_baseline`
    two wide tanh layers."""
    instances = tuple(
        InstanceSpec(
            name=type_id.lower(),
            obs_width=OBS_LAYOUTS[f"fight-{type_id}"],
            head_arities=FIGHT_HEADS,
            critic_width=critic_width,
            token_splits=None if fc_baseline else fight_token_splits(type_id),
        )
        for type_id in ("AC1", "AC2")
    )
    return NetworkConfig(kind="fight", instances=instances,
                         fc_baseline=fc_baseline, dtype=dtype)


def escape_config(critic_width: int, dtype: str = "float32") -> NetworkConfig:
    instances = tuple(
        InstanceSpec(
            name=type_id.lower(),
            obs_width=OBS_LAYOUTS[f"escape-{type_id}"],
            head_arities=FIGHT_HEADS,
            critic_width=critic_width,
        )
        for type_id in ("AC1", "AC2")
    )
    return NetworkConfig(kind="escape", instances=instances, dtype=dtype)


def commander_config(senses: int, critic_width: int, arch: str = "gru",
                     opt: bool = True, dtype: str = "float32") -> NetworkConfig:
    """Commander network; `arch` selects gru (default), sa, or fc. Its one
    head picks escape or one of the `senses` sensed opponents, or with
    `opt` False (noOpt) escape or the closest opponent."""
    obs_width = OBS_LAYOUTS[f"commander-n{senses}"]
    spec = InstanceSpec(
        name="cmd",
        obs_width=obs_width,
        head_arities=(senses + 1 if opt else 2,),
        critic_width=critic_width,
        token_splits=commander_block_widths(senses) if arch == "sa" else None,
    )
    return NetworkConfig(kind="commander", instances=(spec,),
                         recurrent=(arch == "gru"),
                         fc_baseline=(arch == "fc"), dtype=dtype)


def ctce_config(kind: str, obs_width: int, head_arities: tuple[int, ...],
                critic_width: int, dtype: str = "float32") -> NetworkConfig:
    """Single joint network consuming team-concatenated observations and
    emitting every agent's heads."""
    spec = InstanceSpec(name="joint", obs_width=obs_width,
                        head_arities=head_arities, critic_width=critic_width)
    return NetworkConfig(kind=kind, instances=(spec,), dtype=dtype)


@dataclass
class ActorOutput:
    logits: list  # one [B, arity] Tensor (ndarray when graph-free) per head
    hidden: Tensor | np.ndarray | None  # [B, H] for recurrent actors


class PolicyNetwork:
    """Forward passes for one policy's actor/critic instances."""

    def __init__(self, config: NetworkConfig, seed: int = 0):
        self.config = config
        self.store = ParamStore(dtype=config.dtype, seed=seed)
        self._build()

    # -- parameter construction ---------------------------------------------

    def _build(self):
        """Create every parameter. A fused weight (attention q/k/v, GRU
        gates, heads) holds its blocks' `orthogonal_init` draws side by side
        along the columns, drawn in the order of one weight per block."""
        cfg, store = self.config, self.store

        def draws(*shapes):
            return [orthogonal_init(store.init_rng, shape) for shape in shapes]

        def linear(name, fan_in, *fan_outs):
            store.add(f"{name}.W", np.concatenate(
                draws(*[(fan_in, n) for n in fan_outs]), axis=1))
            store.add(f"{name}.b", np.zeros(sum(fan_outs)))

        embed, hidden = cfg.embed_width, cfg.hidden_width
        core_width = cfg.fc_width if cfg.fc_baseline else (
            hidden if cfg.recurrent else embed)
        # green core layer: one copy per policy, shared by every instance's
        # actor and critic
        linear("shared.core", core_width, core_width)
        for inst in cfg.instances:
            prefix = inst.name
            if cfg.fc_baseline:
                linear(f"{prefix}.embed", inst.obs_width, cfg.fc_width)
            elif inst.token_splits:
                for i, width in enumerate(inst.token_splits):
                    linear(f"{prefix}.embed{i}", width, embed)
                store.add(f"{prefix}.attn.qkv", np.concatenate(
                    draws(*[(embed, embed)] * 3), axis=1))
            else:
                linear(f"{prefix}.embed", inst.obs_width, embed)
            if cfg.recurrent:
                # drawn per gate z, r, n: input weight, then recurrent weight
                gates = draws(*[(embed, hidden), (hidden, hidden)] * 3)
                store.add(f"{prefix}.gru.W", np.concatenate(gates[0::2], axis=1))
                store.add(f"{prefix}.gru.U", np.concatenate(gates[1::2], axis=1))
                store.add(f"{prefix}.gru.b", np.zeros(3 * hidden))
            linear(f"{prefix}.heads", core_width, *inst.head_arities)
            critic_embed = cfg.fc_width if cfg.fc_baseline else embed
            if cfg.recurrent:
                critic_embed = hidden
            linear(f"{prefix}.critic.embed", inst.critic_width, critic_embed)
            linear(f"{prefix}.critic.value", core_width, 1)

    # -- forward helpers ------------------------------------------------------

    def _params(self, grad: bool) -> dict:
        """Parameter name -> Tensor (graph recorded) or its array."""
        return self.store.params if grad else self.store.state_arrays()

    @staticmethod
    def _affine(p: dict, name: str, x):
        return matmul(x, p[f"{name}.W"]) + p[f"{name}.b"]

    def _input(self, obs: np.ndarray, width: int, what: str) -> np.ndarray:
        x = np.asarray(obs, dtype=self.store.dtype)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[-1] != width:
            raise ValueError(f"{self.config.kind}/{what} expects width {width}, "
                             f"got {x.shape[-1]}")
        return x

    def _embed(self, p: dict, inst: InstanceSpec, x: np.ndarray):
        cfg = self.config
        if cfg.fc_baseline or not inst.token_splits:
            return tanh(self._affine(p, f"{inst.name}.embed", x))
        tokens = []
        offset = 0
        for i, width in enumerate(inst.token_splits):
            block = x[:, offset:offset + width]
            tokens.append(tanh(self._affine(p, f"{inst.name}.embed{i}", block)))
            offset += width
        seq = stack(tokens, axis=1)  # [B, T, E]
        width = cfg.embed_width
        qkv = matmul(seq, p[f"{inst.name}.attn.qkv"])  # [B, T, 3E]
        q, k, v = (slice_cols(qkv, i * width, (i + 1) * width) for i in range(3))
        # a scalar of the network's dtype keeps float32 networks in float32
        scale = self.store.dtype.type(1.0 / math.sqrt(width))
        scores = mul(matmul(q, transpose_last2(k)), scale)
        attended = matmul(softmax(scores, axis=-1), v)  # [B, T, E]
        return tmean(attended, axis=1)  # pool over entity tokens

    def _gru_step(self, p: dict, prefix: str, x, h):
        width = self.config.hidden_width
        one = self.store.dtype.type(1.0)
        gx = self._affine(p, f"{prefix}.gru", x)  # [B, 3H]: z, r, n inputs
        gh = matmul(h, p[f"{prefix}.gru.U"])
        zr = sigmoid(slice_cols(gx, 0, 2 * width) + slice_cols(gh, 0, 2 * width))
        z, r = slice_cols(zr, 0, width), slice_cols(zr, width, 2 * width)
        n = tanh(slice_cols(gx, 2 * width, 3 * width)
                 + mul(r, slice_cols(gh, 2 * width, 3 * width)))
        return add(mul(add(one, mul(-one, z)), n), mul(z, h))

    def initial_hidden(self, batch: int = 1) -> np.ndarray:
        return np.zeros((batch, self.config.hidden_width), dtype=self.store.dtype)

    def forward_actor(self, instance: str, obs: np.ndarray,
                      hidden: np.ndarray | Tensor | None = None, *,
                      grad: bool = True) -> ActorOutput:
        """Head logits for a batch of observations. Recurrent actors consume
        and return a hidden state; others ignore it. With `grad=False` the
        logits and hidden state are plain arrays and no graph is built."""
        inst = self.config.instance(instance)
        p = self._params(grad)
        features = self._embed(p, inst, self._input(obs, inst.obs_width, inst.name))
        new_hidden = None
        if self.config.recurrent:
            if hidden is None:
                hidden = self.initial_hidden(features.shape[0])
            if not isinstance(hidden, Tensor):
                hidden = np.asarray(hidden, dtype=self.store.dtype)
            new_hidden = self._gru_step(p, inst.name, features, hidden)
            features = new_hidden
        core = tanh(self._affine(p, "shared.core", features))
        heads = self._affine(p, f"{inst.name}.heads", core)  # [B, sum of arities]
        if not np.isfinite(heads.data if grad else heads).all():
            raise FloatingPointError("non-finite actor logits")
        logits, start = [], 0
        for arity in inst.head_arities:
            logits.append(slice_cols(heads, start, start + arity))
            start += arity
        return ActorOutput(logits=logits, hidden=new_hidden)

    def forward_critic(self, instance: str, critic_input: np.ndarray, *,
                       grad: bool = True):
        """State value [B, 1] from the global (observations + actions)
        concatenation; a plain array with `grad=False`."""
        inst = self.config.instance(instance)
        p = self._params(grad)
        x = self._input(critic_input, inst.critic_width, f"{instance} critic")
        features = tanh(self._affine(p, f"{inst.name}.critic.embed", x))
        core = tanh(self._affine(p, "shared.core", features))
        return self._affine(p, f"{inst.name}.critic.value", core)

    # -- action selection ------------------------------------------------------

    def log_prob_entropy(self, instance: str, obs_batch: np.ndarray,
                         action_batch: np.ndarray,
                         hidden_batch: np.ndarray | None = None,
                         head_mask: np.ndarray | None = None
                         ) -> tuple[Tensor, Tensor]:
        """Differentiable log-probabilities (summed over heads) and entropy
        for stored actions; used by the PPO surrogate.

        `head_mask` [B, n_heads] excludes heads that did not act (joint
        networks with destroyed agents)."""
        inst = self.config.instance(instance)
        out = self.forward_actor(instance, obs_batch, hidden_batch)
        log_probs = []
        entropies = []
        for j, logits in enumerate(out.logits):
            lsm = log_softmax(logits, axis=-1)
            actions = np.clip(action_batch[:, j].astype(int), 0,
                              inst.head_arities[j] - 1)
            onehot = np.eye(inst.head_arities[j], dtype=self.store.dtype)[actions]
            lp = tsum(lsm * onehot, axis=1)
            probs = softmax(logits, axis=-1)
            ent = -1.0 * tsum(probs * lsm, axis=1)
            if head_mask is not None:
                lp = lp * head_mask[:, j]
                ent = ent * head_mask[:, j]
            log_probs.append(lp)
            entropies.append(ent)
        total_lp = log_probs[0]
        total_ent = entropies[0]
        for lp in log_probs[1:]:
            total_lp = total_lp + lp
        for ent in entropies[1:]:
            total_ent = total_ent + ent
        return total_lp, total_ent


def sample_action(logits_per_head: list[np.ndarray], rng: np.random.Generator,
                  greedy: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Sample one categorical action per row and head from raw logits.

    `logits_per_head` holds one [B, arity] array per head. Sampling inverts
    each row's CDF at `rng.random((B, heads))`: the arithmetic of
    `Generator.choice(arity, p=probs)`, so the draws and the generator state
    equal those of per-head `choice` calls made row by row. Greedy takes the
    argmax and draws nothing.

    Returns the samples [B, heads] and the summed log-probabilities [B] of
    the samples.
    """
    rows = len(logits_per_head[0])
    # heads padded to the widest with -inf logits: a padded entry has
    # probability 0, so it adds exact zeros to the normalizing sums, and its
    # CDF value is 1, above every draw
    logits = np.full((rows, len(logits_per_head),
                      max(np.shape(lg)[-1] for lg in logits_per_head)), -np.inf)
    for j, head in enumerate(logits_per_head):
        head = np.asarray(head, dtype=np.float64)
        if not np.isfinite(head).all():
            raise FloatingPointError("non-finite logits in sample_action")
        logits[:, j, :head.shape[-1]] = head
    probs = np.exp(logits - logits.max(axis=2, keepdims=True))
    probs /= probs.sum(axis=2, keepdims=True)
    if greedy:
        samples = probs.argmax(axis=2)
    else:
        u = rng.random((rows, len(logits_per_head)))
        cdf = probs.cumsum(axis=2)
        cdf /= cdf[:, :, -1:]
        samples = (cdf <= u[:, :, None]).sum(axis=2)  # searchsorted "right"
    picked = np.log(np.take_along_axis(probs, samples[:, :, None], axis=2)[:, :, 0])
    log_prob = np.zeros(rows)
    for j in range(len(logits_per_head)):  # heads summed in order
        log_prob += picked[:, j]
    return samples, log_prob


def sample_slots(logits: list[np.ndarray], slots: list[int], width: int,
                 rng: np.random.Generator, greedy: bool = False):
    """`sample_action` over the listed agent slots of a one-row joint
    network whose head list gives each slot `width` consecutive heads;
    rows follow `slots`."""
    heads = [np.concatenate([logits[slot * width + j] for slot in slots])
             for j in range(width)]
    return sample_action(heads, rng, greedy)


def sample_rows(rows: list[tuple[PolicyNetwork, str, np.ndarray]],
                rng: np.random.Generator, greedy: bool = False
                ) -> tuple[np.ndarray, np.ndarray]:
    """Sample one action per `(policy, instance, observation)` row.

    Runs one graph-free forward per distinct (policy, instance) over its
    rows, then samples every row in one `sample_action` call in the given
    order, so the generator draws as it would row by row. All rows' heads
    must have equal arities. Returns samples [B, heads] and summed
    log-probabilities [B]."""
    groups: dict[tuple[int, str], list[int]] = {}
    for i, (policy, instance, _) in enumerate(rows):
        groups.setdefault((id(policy), instance), []).append(i)
    outputs = []
    for idx in groups.values():
        policy, instance, _ = rows[idx[0]]
        obs = np.stack([rows[i][2] for i in idx])
        outputs.append((idx, policy.forward_actor(instance, obs, grad=False).logits))
    if len(outputs) == 1:  # one group holds every row, in order
        logits = outputs[0][1]
    else:
        logits = [np.empty((len(rows), lg.shape[-1])) for lg in outputs[0][1]]
        for idx, group_logits in outputs:
            for head, lg in zip(logits, group_logits):
                head[idx] = lg
    return sample_action(logits, rng, greedy)
