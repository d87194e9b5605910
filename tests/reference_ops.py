"""Reference autodiff ops and the kernels composed from them.

The kernels of `dogfight.nn.blocks` are each one node with an analytic
backward. Here the same kernels are written as chains of small ops
(broadcasting add and multiply, exp, sum, mean, minimum, clip, matmul,
transpose, tanh, sigmoid, softmax, column slices, stacking), each with its
own textbook backward and each checked by finite differences in
`test_nn.py`. The node tests compare values and gradients against these
chains: the network blocks, and `ppo_objective`, the PPO loss as a chain
of elementwise ops. `sample_action` is the earlier body of
`dogfight.nn.networks.sample_action`, the reference for its samples and
log-probability bits.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from dogfight.nn.autodiff import Tensor, _accumulate, _data, _make, _tracks_grad


def _unbroadcast(grad: np.ndarray, operand) -> np.ndarray:
    """Sum a broadcast gradient back down to the shape of `operand`'s
    data (an array or a scalar)."""
    shape = np.shape(operand)
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# Operands may be Tensors, ndarrays or Python scalars: numpy treats a
# Python scalar as weak, so a float32 chain computes in float32.


def add(a, b):
    da, db = _data(a), _data(b)
    data = da + db

    def backward(grad):
        if _tracks_grad(a):
            _accumulate(a, _unbroadcast(grad, da))
        if _tracks_grad(b):
            _accumulate(b, _unbroadcast(grad, db))

    return _make(data, (a, b), backward)


def mul(a, b):
    da, db = _data(a), _data(b)
    data = da * db

    def backward(grad):
        if _tracks_grad(a):
            _accumulate(a, _unbroadcast(grad * db, da))
        if _tracks_grad(b):
            _accumulate(b, _unbroadcast(grad * da, db))

    return _make(data, (a, b), backward)


def exp(a):
    data = np.exp(_data(a))

    def backward(grad):
        _accumulate(a, grad * data)

    return _make(data, (a,), backward)


def tsum(a, axis=None, keepdims: bool = False):
    da = _data(a)
    data = da.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, da.shape))

    return _make(data, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False):
    da = _data(a)
    data = da.mean(axis=axis, keepdims=keepdims)
    count = da.size if axis is None else da.shape[axis]

    def backward(grad):
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, da.shape) / count)

    return _make(data, (a,), backward)


def minimum(a, b):
    da, db = _data(a), _data(b)
    take_a = da <= db
    data = np.where(take_a, da, db)

    def backward(grad):
        if _tracks_grad(a):
            _accumulate(a, _unbroadcast(grad * take_a, da))
        if _tracks_grad(b):
            _accumulate(b, _unbroadcast(grad * ~take_a, db))

    return _make(data, (a, b), backward)


def clip(a, lo: float, hi: float):
    da = _data(a)
    inside = (da >= lo) & (da <= hi)
    data = np.clip(da, lo, hi)

    def backward(grad):
        _accumulate(a, grad * inside)

    return _make(data, (a,), backward)


def matmul(a, b):
    da, db = _data(a), _data(b)
    batched = None
    if db.ndim == 2 and da.ndim > 2:
        # a batched operand against a 2-D weight: one 2-D product over its
        # rows, as the attention's q/k/v projection makes it
        batched, da = da.shape, da.reshape(-1, da.shape[-1])
    data = da @ db
    if batched is not None:
        data = data.reshape(*batched[:-1], -1)

    def backward(grad):
        if batched is not None:
            grad = grad.reshape(-1, grad.shape[-1])
        if _tracks_grad(a):
            ga = _unbroadcast(grad @ np.swapaxes(db, -1, -2), da)
            _accumulate(a, ga if batched is None else ga.reshape(batched))
        if _tracks_grad(b):
            _accumulate(b, _unbroadcast(np.swapaxes(da, -1, -2) @ grad, db))

    return _make(data, (a, b), backward)


def transpose_last2(a):
    data = np.swapaxes(_data(a), -1, -2)

    def backward(grad):
        _accumulate(a, np.swapaxes(grad, -1, -2))

    return _make(data, (a,), backward)


def tanh(a):
    data = np.tanh(_data(a))

    def backward(grad):
        _accumulate(a, grad * (1.0 - data * data))

    return _make(data, (a,), backward)


def sigmoid(a):
    data = 1.0 / (1.0 + np.exp(-_data(a)))

    def backward(grad):
        _accumulate(a, grad * data * (1.0 - data))

    return _make(data, (a,), backward)


def softmax(a, axis: int = -1):
    da = _data(a)
    shifted = da - da.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(grad):
        inner = (grad * data).sum(axis=axis, keepdims=True)
        _accumulate(a, data * (grad - inner))

    return _make(data, (a,), backward)


def slice_cols(a, start: int, stop: int):
    """Columns `start:stop` of the last axis."""
    da = _data(a)
    data = da[..., start:stop]

    def backward(grad):
        full = np.zeros_like(da)
        full[..., start:stop] = grad
        _accumulate(a, full)

    return _make(data, (a,), backward)


def stack(tensors: list, axis: int = 1):
    data = np.stack([_data(t) for t in tensors], axis=axis)

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            _accumulate(t, piece.squeeze(axis=axis))

    return _make(data, tuple(tensors), backward)


# -- the blocks, composed ----------------------------------------------------


def dense(x, W, b, squash=True):
    out = add(matmul(x, W), b)
    return tanh(out) if squash else out


def _tokens(x, embeds):
    tokens, offset = [], 0
    for W, b in zip(embeds[0::2], embeds[1::2]):
        width = _data(W).shape[0]
        tokens.append(dense(_data(x)[:, offset:offset + width], W, b))
        offset += width
    return stack(tokens, axis=1)  # [B, T, E]


def attention(x, *weights):
    """The textbook body: q, k and v of every token."""
    *embeds, qkv_w = weights
    seq = _tokens(x, embeds)
    width = _data(qkv_w).shape[0]
    qkv = matmul(seq, qkv_w)  # [B, T, 3E]
    q, k, v = (slice_cols(qkv, i * width, (i + 1) * width) for i in range(3))
    scores = mul(matmul(q, transpose_last2(k)), 1.0 / math.sqrt(width))
    return tmean(matmul(softmax(scores, axis=-1), v), axis=1)


def attention_folded(x, *weights):
    """The folded body: scores `seq (Wq Wkᵀ / √E) seqᵀ`, and the value
    projection after the pool, `(p̄ seq) Wv`, with p̄ the attention each
    token receives averaged over the queries."""
    *embeds, qkv_w = weights
    seq = _tokens(x, embeds)
    width = _data(qkv_w).shape[0]
    wq, wk, wv = (slice_cols(qkv_w, i * width, (i + 1) * width)
                  for i in range(3))
    fold = mul(matmul(wq, transpose_last2(wk)), 1.0 / math.sqrt(width))
    scores = matmul(matmul(seq, fold), transpose_last2(seq))  # [B, T, T]
    received = tmean(softmax(scores, axis=-1), axis=1, keepdims=True)
    return matmul(tmean(matmul(received, seq), axis=1), wv)  # [B, E]


def gru(x, h, W, U, b):
    width = _data(U).shape[0]
    gx = add(matmul(x, W), b)  # [B, 3H]: z, r, n inputs
    gh = matmul(h, U)
    zr = sigmoid(add(slice_cols(gx, 0, 2 * width),
                     slice_cols(gh, 0, 2 * width)))
    z, r = slice_cols(zr, 0, width), slice_cols(zr, width, 2 * width)
    n = tanh(add(slice_cols(gx, 2 * width, 3 * width),
                 mul(r, slice_cols(gh, 2 * width, 3 * width))))
    return add(mul(add(1.0, mul(-1.0, z)), n), mul(z, h))


# -- the PPO objective, chained ------------------------------------------------


def ppo_objective(values, log_prob, entropy, *, log_prob_old, advantages,
                  returns, clip_eps, value_coef, entropy_coef):
    """The clipped surrogate, value loss and entropy bonus as separate
    ops, each with its own backward."""
    ratio = exp(add(log_prob, Tensor(-log_prob_old)))
    adv = Tensor(advantages)
    surrogate = minimum(mul(ratio, adv),
                        mul(clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps), adv))
    policy_loss = mul(tmean(surrogate), -1.0)
    diff = add(values, Tensor(-returns[:, None]))
    value_loss = tmean(mul(diff, diff))
    entropy_mean = tmean(entropy)
    return add(add(policy_loss, mul(value_loss, value_coef)),
               mul(entropy_mean, -entropy_coef))


# -- action sampling -----------------------------------------------------------


@lru_cache(maxsize=None)
def _padding(arities: tuple[int, ...]) -> np.ndarray:
    """Column indices [heads, widest arity] that lay the heads of a
    [B, sum of arities] table side by side, past a head's arity the index
    of one column after the table's last."""
    starts = np.cumsum((0,) + arities[:-1])[:, None]
    cols = np.arange(max(arities))
    return np.where(cols < np.asarray(arities)[:, None], starts + cols,
                    sum(arities))


def sample_action(table, arities, u, greedy):
    """Heads padded by `take` over an extra -inf column, the greedy flags
    broadcast to one per row, the samples' probabilities picked by
    `take_along_axis` and the heads summed in a loop."""
    logits = np.asarray(table, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits in sample_action")
    logits = np.take(np.concatenate(
        [logits, np.full((len(logits), 1), -np.inf)], axis=1),
        _padding(tuple(arities)), axis=1)
    probs = np.exp(logits - logits.max(axis=2, keepdims=True))
    probs /= probs.sum(axis=2, keepdims=True)
    greedy = np.broadcast_to(greedy, len(probs))
    if greedy.all():
        samples = probs.argmax(axis=2)
    else:
        some = greedy.any()
        cdf = (probs[~greedy] if some else probs).cumsum(axis=2)
        cdf /= cdf[:, :, -1:]
        samples = (cdf <= u[:, :, None]).sum(axis=2)  # searchsorted "right"
        if some:
            samples, drawn = probs.argmax(axis=2), samples
            samples[~greedy] = drawn
    picked = np.log(np.take_along_axis(probs, samples[:, :, None], axis=2)[:, :, 0])
    log_prob = np.zeros(len(probs))
    for j in range(len(arities)):  # heads summed in order
        log_prob += picked[:, j]
    return samples, log_prob
