"""Actor-critic networks for the fight, escape, and commander policies.

Each policy owns one ParamStore. Fight and escape policies hold two network
instances (one per aircraft type, differing input/output widths); the
commander holds a single instance. A core layer is stored once per policy
and reused by every instance's actor and critic, so updates through any path
move all of them (the parameter-sharing mechanism the architectures rely
on). The fight actor tokenizes its observation into entity blocks and runs
single-head scaled dot-product self-attention over them; the commander actor
carries a GRU hidden state across its invocations.

Every architecture is written once, from the numpy kernels of `blocks`:
dense layers, the attention embed and the GRU step. `grad=True` runs each
kernel as one autodiff node on the store's Tensors and records the graph
that PPO and the gradient check differentiate; `grad=False` calls the same
kernels on the store's arrays, which is how rollouts and evaluation make
their decisions: batched, and without building a single Tensor.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from ..observations import (
    FIGHT_HEADS,
    OBS_LAYOUTS,
    commander_block_widths,
    fight_token_splits,
)
from .autodiff import Tensor, head_log_prob_entropy, node
from .blocks import attention, dense, gru
from .params import ParamStore, check_arrays, load_checkpoint, orthogonal_init

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
        """The config's fields in JSON form (tuples as lists)."""
        return json.loads(json.dumps(dataclasses.asdict(self)))

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkConfig":
        """The config `to_dict` gave; keys that name no field (a commander
        checkpoint's `variant`) are ignored."""
        return cls(**{**_fields(cls, data), "instances": tuple(
            InstanceSpec(**_fields(InstanceSpec, item))
            for item in data["instances"])})


def _fields(cls, data: dict) -> dict:
    """The entries of `data` that name fields of `cls`, lists as tuples."""
    return {f.name: tuple(data[f.name]) if isinstance(data[f.name], list)
            else data[f.name]
            for f in dataclasses.fields(cls) if f.name in data}


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
                critic_width: int) -> NetworkConfig:
    """Single joint network consuming team-concatenated observations and
    emitting every agent's heads."""
    spec = InstanceSpec(name="joint", obs_width=obs_width,
                        head_arities=head_arities, critic_width=critic_width)
    return NetworkConfig(kind=kind, instances=(spec,))


@dataclass
class ActorOutput:
    heads: Tensor | np.ndarray  # [B, sum of arities], every head's logits
    hidden: Tensor | np.ndarray | None  # [B, H] for recurrent actors


class PolicyNetwork:
    """Forward passes for one policy's actor/critic instances."""

    def __init__(self, config: NetworkConfig, seed: int = 0):
        """A network whose weights are drawn from `seed`: one
        `orthogonal_init` draw per weight block, every bias zero."""
        rng = np.random.default_rng(seed)
        self._build(config, lambda name, shape, draw: draw(rng))

    # -- parameter construction ---------------------------------------------

    def _build(self, config: NetworkConfig, weight):
        """Create every parameter, in the store's order, from
        `weight(name, shape, draw)`: the array to store for `name`, whose
        initial value `draw(rng)` would give. A fused weight (attention
        q/k/v, GRU gates, heads) holds its blocks' `orthogonal_init` draws
        side by side along the columns, drawn in the order of one weight per
        block; a bias is zeros."""
        self.config = cfg = config
        self.store = store = ParamStore(config.dtype)

        def add(name, shape, blocks):
            store.add(name, weight(name, shape, lambda rng: np.concatenate(
                blocks(rng), axis=-1)))

        def draws(*shapes):
            return lambda rng: [orthogonal_init(rng, s) for s in shapes]

        def linear(name, fan_in, *fan_outs):
            width = sum(fan_outs)
            add(f"{name}.W", (fan_in, width),
                draws(*[(fan_in, n) for n in fan_outs]))
            add(f"{name}.b", (width,), lambda rng: [np.zeros(width)])

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
                add(f"{prefix}.attn.qkv", (embed, 3 * embed),
                    draws(*[(embed, embed)] * 3))
            else:
                linear(f"{prefix}.embed", inst.obs_width, embed)
            if cfg.recurrent:
                # drawn per gate z, r, n: input weight, then recurrent
                # weight; U takes the blocks that W's draw left
                gates = cache(draws(*[(embed, hidden), (hidden, hidden)] * 3))
                add(f"{prefix}.gru.W", (embed, 3 * hidden),
                    lambda rng: gates(rng)[0::2])
                add(f"{prefix}.gru.U", (hidden, 3 * hidden),
                    lambda rng: gates(rng)[1::2])
                add(f"{prefix}.gru.b", (3 * hidden,),
                    lambda rng: [np.zeros(3 * hidden)])
            linear(f"{prefix}.heads", core_width, *inst.head_arities)
            critic_embed = cfg.fc_width if cfg.fc_baseline else embed
            if cfg.recurrent:
                critic_embed = hidden
            linear(f"{prefix}.critic.embed", inst.critic_width, critic_embed)
            linear(f"{prefix}.critic.value", core_width, 1)

    # -- forward helpers ------------------------------------------------------

    def _block(self, grad: bool, kernel, inputs: tuple, names, **static):
        """`kernel` on `inputs` and the named parameters: one autodiff node
        on the store's Tensors with `grad`, else the kernel's output on
        their arrays."""
        params = self.store.params
        if grad:
            return node(kernel, (*inputs, *[params[n] for n in names]), **static)
        return kernel(*inputs, *[params[n].data for n in names], **static)[0]

    def _dense(self, grad: bool, x, name: str, squash: bool = True):
        return self._block(grad, dense, (x,), (f"{name}.W", f"{name}.b"),
                           squash=squash)

    def _input(self, obs: np.ndarray, width: int, what: str) -> np.ndarray:
        x = np.asarray(obs, dtype=self.store.dtype)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[-1] != width:
            raise ValueError(f"{self.config.kind}/{what} expects width {width}, "
                             f"got {x.shape[-1]}")
        return x

    def initial_hidden(self, batch: int = 1) -> np.ndarray:
        return np.zeros((batch, self.config.hidden_width), dtype=self.store.dtype)

    def forward_actor(self, instance: str, obs: np.ndarray,
                      hidden: np.ndarray | Tensor | None = None, *,
                      grad: bool = True) -> ActorOutput:
        """Head logits for a batch of observations. Recurrent actors consume
        and return a hidden state; others ignore it. With `grad=False` the
        logits and hidden state are plain arrays and no graph is built."""
        cfg, inst = self.config, self.config.instance(instance)
        x = self._input(obs, inst.obs_width, inst.name)
        if inst.token_splits and not cfg.fc_baseline:
            names = [f"{inst.name}.embed{i}.{w}"
                     for i in range(len(inst.token_splits)) for w in "Wb"]
            features = self._block(grad, attention, (x,),
                                   names + [f"{inst.name}.attn.qkv"])
        else:
            features = self._dense(grad, x, f"{inst.name}.embed")
        new_hidden = None
        if cfg.recurrent:
            if hidden is None:
                hidden = self.initial_hidden(len(x))
            if not isinstance(hidden, Tensor):
                hidden = np.asarray(hidden, dtype=self.store.dtype)
            features = new_hidden = self._block(
                grad, gru, (features, hidden),
                [f"{inst.name}.gru.{w}" for w in "WUb"])
        core = self._dense(grad, features, "shared.core")
        heads = self._dense(grad, core, f"{inst.name}.heads", squash=False)
        if not np.isfinite(heads.data if grad else heads).all():
            raise FloatingPointError("non-finite actor logits")
        return ActorOutput(heads=heads, hidden=new_hidden)

    def forward_critic(self, instance: str, critic_input: np.ndarray, *,
                       grad: bool = True):
        """State value [B, 1] from the global (observations + actions)
        concatenation; a plain array with `grad=False`."""
        inst = self.config.instance(instance)
        x = self._input(critic_input, inst.critic_width, f"{instance} critic")
        features = self._dense(grad, x, f"{inst.name}.critic.embed")
        core = self._dense(grad, features, "shared.core")
        return self._dense(grad, core, f"{inst.name}.critic.value", squash=False)

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
        return head_log_prob_entropy(out.heads, inst.head_arities,
                                     action_batch, head_mask)


def load_policy(path) -> PolicyNetwork:
    """The network a checkpoint holds, built from its config blob."""
    return policy_from_checkpoint(*load_checkpoint(path), source=path)


def policy_from_checkpoint(arrays: dict, config: dict, source) -> PolicyNetwork:
    """The network of a checkpoint already read (`load_checkpoint`'s
    arrays and config blob), built from its arrays: no initial weight is
    drawn. Names or shapes that differ from the network's raise a
    ValueError naming `source`, the file read."""
    shapes = {}

    def weight(name, shape, draw):
        shapes[name] = shape  # a missing name is reported after the walk
        return arrays[name] if name in arrays else np.zeros(shape)

    policy = PolicyNetwork.__new__(PolicyNetwork)
    policy._build(NetworkConfig.from_dict(config), weight)
    check_arrays(arrays, shapes, source)
    return policy


@lru_cache(maxsize=None)
def _head_mask(arities: tuple[int, ...]) -> np.ndarray:
    """[heads, widest arity], True where a head has that column: the cells
    that a [B, sum of arities] table fills, in its column order."""
    return np.arange(max(arities)) < np.asarray(arities)[:, None]


def sample_action(table: np.ndarray, arities: tuple[int, ...], u, greedy
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Sample one categorical action per row and head from raw logits.

    `table` [B, sum of arities] holds the heads' logits side by side.
    Sampling inverts each row's CDF at the uniform draws `u`: the arithmetic
    of `Generator.choice(arity, p=probs)`, so draws made as `rng.random((B,
    heads))` sample what per-head `choice` calls made row by row would.
    `greedy`, one bool or one flag per row, takes the argmax; `u` holds
    draws for the other rows only, in order, and is not read when every row
    is greedy.

    Returns the samples [B, heads] and the summed log-probabilities [B] of
    the samples.
    """
    logits = np.asarray(table, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits in sample_action")
    # heads padded to the widest with -inf logits: a padded entry has
    # probability 0, so it adds exact zeros to the normalizing sums, and its
    # CDF value is 1, above every draw. The array is C-contiguous, so each
    # head's sums run as on its own row.
    mask = _head_mask(tuple(arities))
    padded = np.full((len(logits),) + mask.shape, -np.inf)
    padded[:, mask] = logits
    probs = np.exp(padded - padded.max(axis=2, keepdims=True))
    probs /= probs.sum(axis=2, keepdims=True)
    every, some = ((greedy, False) if isinstance(greedy, bool)
                   else (greedy.all(), greedy.any()))
    if every:
        samples = probs.argmax(axis=2)
    else:
        cdf = (probs[~greedy] if some else probs).cumsum(axis=2)
        cdf /= cdf[:, :, -1:]
        samples = (cdf <= u[:, :, None]).sum(axis=2)  # searchsorted "right"
        if some:
            samples, drawn = probs.argmax(axis=2), samples
            samples[~greedy] = drawn
    width = mask.shape[1]
    picked = probs.reshape(-1)[np.arange(0, probs.size, width)
                               + samples.reshape(-1)]
    # below 8 heads numpy sums each row in column order, as a loop would
    log_prob = np.log(picked).reshape(samples.shape).sum(axis=1)
    return samples, log_prob


@dataclass
class Decision:
    """One decision-maker's rows in a batched decision (see `decide`).

    Each row is `(policy, instance, observation)`; rows of a recurrent
    network come with their `hidden` state [rows, H]. `ids` names the
    aircraft each sampled row acts for. A per-aircraft decision samples
    each row, so `ids` has one entry per row. A joint network's decision is
    one row whose heads give agent slot s the `slot_heads` heads from
    s * slot_heads on; it samples the acting slots that `ids` lists. `rng`
    is the generator this decision draws from; None decides greedily.
    `decide` fills in the samples [ids, heads], their summed
    log-probabilities [ids] and the new hidden state [rows, H]."""

    rows: list
    ids: list[int]
    rng: np.random.Generator | None
    hidden: np.ndarray | None = None
    slot_heads: int = 0
    samples: np.ndarray | None = None
    log_probs: np.ndarray | None = None
    new_hidden: np.ndarray | None = None


def decide(decisions: list[Decision]):
    """Decide every row of `decisions` at once: one graph-free forward per
    (policy, instance) over its rows, then one `sample_action` call. Every
    sampled row must have the same head arities, and either every decision
    or none carries a hidden state. Each sampled decision's draws come from
    its own generator, one `random((ids, heads))` call in list order, so a
    decision draws exactly what it would decided alone; a greedy decision
    draws nothing."""
    flat = [row for d in decisions for row in d.rows]
    if not flat:
        return
    first = decisions[0]
    arities = flat[0][0].config.instance(flat[0][1]).head_arities
    arities = arities[:first.slot_heads or len(arities)]
    width = sum(arities)
    hidden = (None if first.hidden is None
              else np.concatenate([d.hidden for d in decisions]))
    new_hidden = None
    groups: dict[tuple[int, str], list[int]] = {}
    for k, (policy, instance, _) in enumerate(flat):
        groups.setdefault((id(policy), instance), []).append(k)
    blocks, place, filled = [], [0] * len(flat), 0
    for idx in groups.values():
        policy, instance, _ = flat[idx[0]]
        out = policy.forward_actor(
            instance, np.stack([flat[k][2] for k in idx]),
            None if hidden is None else hidden[idx], grad=False)
        block = out.heads
        if block.shape[1] % width:
            raise ValueError("decide needs equal head arities on every "
                             "sampled row")
        span = block.shape[1] // width  # sampled rows a forward row holds
        blocks.append(block.reshape(-1, width))
        for i, k in enumerate(idx):
            place[k] = filled + i * span
        filled += len(idx) * span
        if out.hidden is not None:
            if new_hidden is None:
                new_hidden = np.empty((len(flat), out.hidden.shape[1]),
                                      dtype=out.hidden.dtype)
            new_hidden[idx] = out.hidden
    picks, row = [], 0
    for d in decisions:
        picks += ([place[row] + slot for slot in d.ids] if d.slot_heads
                  else place[row:row + len(d.rows)])
        row += len(d.rows)
    counts = [len(d.ids) for d in decisions]
    draws = [d.rng.random((n, len(arities)))
             for d, n in zip(decisions, counts) if d.rng is not None]
    greedy = [d.rng is None for d in decisions]
    samples, log_probs = sample_action(
        np.concatenate(blocks)[picks], arities,
        np.concatenate(draws) if len(draws) > 1 else (draws or [None])[0],
        np.repeat(greedy, counts) if any(greedy) else False)
    start = row = 0
    for d, n in zip(decisions, counts):
        d.samples = samples[start:start + n]
        d.log_probs = log_probs[start:start + n]
        if new_hidden is not None:
            d.new_hidden = new_hidden[row:row + len(d.rows)]
        start, row = start + n, row + len(d.rows)
