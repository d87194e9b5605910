"""The network blocks, each one plain numpy kernel with its analytic backward.

A kernel takes its operands' arrays and returns its output and a function
`backward(grad, needs)` that gives every operand's gradient, or None for an
operand `needs` marks as carrying none. Decisions call a kernel on the
parameter arrays and drop its backward; `autodiff.node` records the kernel
as one node of the PPO graph. Each backward makes the float operations, in
their order and on arrays of the same layout, of the elementwise, product,
softmax, slice, stack and mean ops the block is made of (the reference ops
of `tests/reference_ops.py`), so a float32 gradient is theirs to the bit.

The attention block has two bodies, chosen by the input's shape alone.
With N = B·T token rows of width E, the textbook body projects q, k and v
for every token, about 9·N·E² multiply-adds for its forward and backward.
The folded body regroups the same sums: the scores are `seq M seqᵀ` with
M = Wq Wkᵀ / √E, and the value projection follows the mean pool, which is
linear in v. It needs about 3·N·E² + 3·B·E² + 3·E³, fewer once N exceeds
E. Below that its [E, E] products, and its longer chain of small numpy
calls, cost more than they save. So N > E selects the folded body: PPO
minibatches take it, and decisions, at a few rows, keep the textbook one.
Each body is bit-equal to its own composition of the reference ops, and
the two agree to rounding, not to the bit.
"""

from __future__ import annotations

import math

import numpy as np


def dense(x, W, b, squash: bool = True):
    """`tanh(x @ W + b)` on [B, in] rows, or the affine map alone when not
    `squash`."""
    out = x @ W + b
    if squash:
        out = np.tanh(out)

    def backward(grad, needs):
        if squash:
            grad = grad * (1.0 - out * out)
        return (grad @ W.T if needs[0] else None), x.T @ grad, grad.sum(axis=0)

    return out, backward


def attention(x, *weights):
    """Token embeds, single-head scaled dot-product self-attention over the
    tokens, and their mean [B, E]. `weights` are every token's embed W and
    b, the tokens reading the columns of `x` in order, then the fused
    q/k/v projection [E, 3E]. Above the embed width in token rows the
    folded body runs, else the textbook one (see the module docstring)."""
    *embeds, qkv_w = weights
    width = qkv_w.shape[0]
    seq = np.empty((len(x), len(embeds) // 2, width), dtype=qkv_w.dtype)
    parts, start = [], 0
    for i, (w, b) in enumerate(zip(embeds[0::2], embeds[1::2])):
        parts.append(x[:, start:start + len(w)])
        start += len(w)
        seq[:, i] = np.tanh(parts[-1] @ w + b)  # token i [B, E]
    flat = seq.reshape(-1, width)  # one 2-D product over every token
    body = _folded if len(flat) > width else _textbook
    out, body_backward = body(seq, flat, qkv_w)

    def backward(grad, needs):
        g_seq, g_qkv_w = body_backward(grad)
        grads = [None]
        for i, part in enumerate(parts):
            g = g_seq[:, i] * (1.0 - seq[:, i] * seq[:, i])
            grads += [part.T @ g, g.sum(axis=0)]
        return grads + [g_qkv_w]

    return out, backward


def _softmax(scores):
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _textbook(seq, flat, qkv_w):
    """The mean pool of `softmax(q kᵀ / √E) v` over the tokens `seq`
    [B, T, E], with q, k and v projected for every token; its backward
    gives the gradients of `seq` and `qkv_w`."""
    width = len(qkv_w)
    qkv = (flat @ qkv_w).reshape(*seq.shape[:-1], -1)
    q, k, v = (qkv[..., i * width:(i + 1) * width] for i in range(3))
    scale = 1.0 / math.sqrt(width)
    probs = _softmax((q @ np.swapaxes(k, -1, -2)) * scale)
    attended = probs @ v

    def backward(grad):
        g_att = np.broadcast_to(grad[:, None], attended.shape) / seq.shape[1]
        g_probs = g_att @ np.swapaxes(v, -1, -2)
        g_scores = probs * (g_probs - (g_probs * probs).sum(
            axis=-1, keepdims=True)) * scale
        g_qkv = np.empty_like(qkv)  # the q, k and v gradients side by side
        g_qkv[..., :width] = g_scores @ k
        g_qkv[..., width:2 * width] = np.swapaxes(
            np.swapaxes(q, -1, -2) @ g_scores, -1, -2)
        g_qkv[..., 2 * width:] = np.swapaxes(probs, -1, -2) @ g_att
        g_flat = g_qkv.reshape(flat.shape[0], -1)
        return (g_flat @ qkv_w.T).reshape(seq.shape), flat.T @ g_flat

    return attended.sum(axis=1) / seq.shape[1], backward


def _folded(seq, flat, qkv_w):
    """`_textbook`'s function, regrouped: the scores are `seq M seqᵀ` with
    M = Wq Wkᵀ / √E, and since the pool is linear in v it is
    `(p̄ seq) Wv`, p̄ [B, 1, T] being the attention each token receives
    averaged over the queries. No per-token q, k or v is made."""
    width = len(qkv_w)
    wq, wk, wv = (qkv_w[:, i * width:(i + 1) * width] for i in range(3))
    scale = 1.0 / math.sqrt(width)
    fold = (wq @ wk.T) * scale
    left = (flat @ fold).reshape(seq.shape)
    probs = _softmax(left @ np.swapaxes(seq, -1, -2))
    received = probs.sum(axis=1, keepdims=True) / seq.shape[1]  # p̄
    pooled = (received @ seq)[:, 0]

    def backward(grad):
        g_pooled = (grad @ wv.T).reshape(len(grad), 1, width)
        g_probs = (g_pooled @ np.swapaxes(seq, -1, -2)) / seq.shape[1]
        g_scores = probs * (g_probs - (g_probs * probs).sum(
            axis=-1, keepdims=True))
        g_left = (g_scores @ seq).reshape(flat.shape)
        g_fold = (flat.T @ g_left) * scale
        g_qkv_w = np.empty_like(qkv_w)
        g_qkv_w[:, :width] = g_fold @ wk
        g_qkv_w[:, width:2 * width] = (wq.T @ g_fold).T
        g_qkv_w[:, 2 * width:] = pooled.T @ grad
        g_seq = (np.swapaxes(received, -1, -2) * g_pooled  # outer products
                 + (g_left @ fold.T).reshape(seq.shape)
                 + np.swapaxes(np.swapaxes(left, -1, -2) @ g_scores, -1, -2))
        return g_seq, g_qkv_w

    return pooled @ wv, backward


def gru(x, h, W, U, b):
    """One GRU step: the new hidden state [B, H] from input `x` and hidden
    state `h`, with the gates z, r, n side by side in `W` [in, 3H], `U`
    [H, 3H] and `b`."""
    width = U.shape[0]
    gx = x @ W + b
    gh = h @ U
    zr = 1.0 / (1.0 + np.exp(-(gx[:, :2 * width] + gh[:, :2 * width])))
    z, r = zr[:, :width], zr[:, width:]
    n = np.tanh(gx[:, 2 * width:] + r * gh[:, 2 * width:])

    def backward(grad, needs):
        g_n = grad * (1.0 - z) * (1.0 - n * n)
        g_zr = np.concatenate([grad * h - grad * n, g_n * gh[:, 2 * width:]],
                              axis=1) * zr * (1.0 - zr)
        g_gx = np.concatenate([g_zr, g_n], axis=1)
        g_gh = np.concatenate([g_zr, g_n * r], axis=1)
        return ((g_gx @ W.T if needs[0] else None),
                (grad * z + g_gh @ U.T if needs[1] else None),
                x.T @ g_gx, h.T @ g_gh, g_gx.sum(axis=0))

    return (1.0 - z) * n + z * h, backward
