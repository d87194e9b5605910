"""Reference autodiff ops and the network blocks composed from them.

The blocks of `dogfight.nn.blocks` are each one node with an analytic
backward. Here the same blocks are written as chains of small ops (matmul,
transpose, tanh, sigmoid, softmax, column slices, stacking, mean), each
with its own textbook backward and each checked by finite differences in
`test_nn.py`. The node tests compare values and gradients against these
chains.
"""

from __future__ import annotations

import math

import numpy as np

from dogfight.nn.autodiff import (
    _accumulate,
    _data,
    _make,
    _tracks_grad,
    _unbroadcast,
    add,
    mul,
    tmean,
)


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
    out = matmul(x, W) + b
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
    gx = matmul(x, W) + b  # [B, 3H]: z, r, n inputs
    gh = matmul(h, U)
    zr = sigmoid(slice_cols(gx, 0, 2 * width) + slice_cols(gh, 0, 2 * width))
    z, r = slice_cols(zr, 0, width), slice_cols(zr, width, 2 * width)
    n = tanh(slice_cols(gx, 2 * width, 3 * width)
             + mul(r, slice_cols(gh, 2 * width, 3 * width)))
    return add(mul(add(1.0, mul(-1.0, z)), n), mul(z, h))
