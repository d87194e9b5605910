"""Minimal reverse-mode automatic differentiation on dense numpy arrays.

The tape holds kernel nodes. `node` records one kernel of `blocks` (a
dense layer, the attention embed, a GRU step, the PPO objective) with the
kernel's own analytic backward; `head_log_prob_entropy` gives the
log-probability and entropy of every categorical head from the fused heads
output; `add` sums two losses of one shape. The finite-difference audit in
gradcheck.py checks every node in situ, on the PPO objective.

A gradient handed to `_accumulate` becomes the tensor's own: no gradient
array is changed in place after that, so one array may be the gradient of
several tensors.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A node in the computation graph wrapping an ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def backward(self, grad=None):
        """Propagate gradients from this node to every reachable leaf."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("implicit gradient only for scalar outputs")
            grad = np.ones_like(self.data)
        backward_from([self], [np.asarray(grad, dtype=self.data.dtype)])

    # operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)


def _data(value):
    """An operand's array: a Tensor's data, or the array itself."""
    return value.data if isinstance(value, Tensor) else value


def _tracks_grad(value) -> bool:
    return isinstance(value, Tensor) and (
        value.requires_grad or value._backward is not None)


def _accumulate(tensor, grad: np.ndarray):
    if not _tracks_grad(tensor):
        return
    if tensor.grad is None:
        tensor.grad = grad  # owned from here on, never written in place
    else:
        tensor.grad = tensor.grad + grad


def backward_from(outputs: list[Tensor], output_grads: list[np.ndarray]):
    """Seed the given outputs with gradients and run the tape backward."""
    for out, g in zip(outputs, output_grads):
        _accumulate(out, np.broadcast_to(np.asarray(g, dtype=out.data.dtype),
                                         out.data.shape))
    ordered: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False) for out in outputs]
    while stack:
        node, processed = stack.pop()
        if processed:
            ordered.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    for node in reversed(ordered):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None  # spent: only leaves keep their gradient


def _make(data, parents, backward_fn):
    """The op's Tensor result, recording `backward_fn` when some operand
    carries gradient."""
    out = Tensor(data)
    if any(_tracks_grad(p) for p in parents):
        out._parents = tuple(p for p in parents if _tracks_grad(p))
        out._backward = backward_fn
        out.requires_grad = False  # only leaves mark requires_grad
    return out


def node(kernel, operands, **static):
    """`kernel` (a block of `blocks`) run on the operands' arrays, as one
    node whose backward hands every operand that carries gradient its
    part. Figures a kernel returns after its backward (the PPO
    objective's) come back beside the node."""
    out, backward, *figures = kernel(*[_data(v) for v in operands], **static)
    needs = [_tracks_grad(v) for v in operands]

    def backward_fn(grad):
        for v, g in zip(operands, backward(grad, needs)):
            _accumulate(v, g)

    result = _make(out, operands, backward_fn)
    return (result, *figures) if figures else result


def add(a, b):
    """The sum of two Tensors of one shape, as PPO adds the losses of its
    network instances."""
    data = a.data + b.data

    def backward(grad):
        _accumulate(a, grad)
        _accumulate(b, grad)

    return _make(data, (a, b), backward)


def head_log_prob_entropy(z, arities, actions: np.ndarray, mask=None):
    """Per-row log-probability of `actions` [B, heads] and entropy, each
    summed over the categorical heads whose logits lie side by side in
    `z` [B, sum of arities]; `mask` [B, heads] weights each head (0 for a
    head that did not act). One node for all heads: a log-softmax per
    segment, with the analytic backwards d lp/dz = m_j (onehot - p) and
    dH/dz = -m_j p (log p + H_j) on head j's segment."""
    dz = _data(z)
    starts = np.cumsum((0,) + tuple(arities[:-1]))
    peak = np.repeat(np.maximum.reduceat(dz, starts, axis=1), arities, axis=1)
    shifted = dz - peak
    log_z = np.log(np.add.reduceat(np.exp(shifted), starts, axis=1))
    log_p = shifted - np.repeat(log_z, arities, axis=1)
    p = np.exp(log_p)
    picked = starts + np.clip(actions.astype(int), 0, np.asarray(arities) - 1)
    head_lp = np.take_along_axis(log_p, picked, axis=1)  # [B, heads]
    head_ent = -np.add.reduceat(p * log_p, starts, axis=1)
    weight = (np.ones_like(head_lp) if mask is None
              else np.asarray(mask, dtype=dz.dtype))
    log_prob = (head_lp * weight).sum(axis=1)
    entropy = (head_ent * weight).sum(axis=1)
    if not isinstance(z, Tensor):
        return log_prob, entropy
    weight_cols = np.repeat(weight, arities, axis=1)

    def lp_backward(grad):
        g = -p * (grad[:, None] * weight_cols)
        g[np.arange(len(g))[:, None], picked] += grad[:, None] * weight
        _accumulate(z, g)

    def ent_backward(grad):
        _accumulate(z, -(grad[:, None] * weight_cols) * p
                    * (log_p + np.repeat(head_ent, arities, axis=1)))

    return (_make(log_prob, (z,), lp_backward),
            _make(entropy, (z,), ent_backward))
