"""Reverse-mode autodiff over numpy float64 arrays.

Each op builds a node holding its parents and a closure that routes the
output gradient back to them. backward() walks the graph once in reverse
topological order and consumes it: each node it passes drops its parents and
its closure, so the arrays the closure captured are freed during the walk,
and a later backward that reaches the node raises RuntimeError before any
gradient is written. Every op validates that its result is finite. The
closures of the binary ops `add`, `mul`, `matmul` and `minimum` compute an
operand's gradient only if that operand requires one, so a constant input
(a feature batch, a mask, a scalar) costs no backward work. Inside a
`no_grad()` block ops compute and check the same arrays but attach no
parents, so inference keeps no graph.

GELU, LayerNorm, causal attention, softmax and log-softmax keep their
forward in a private array function (`_gelu`, `_layer_norm`, `_attention`,
`_softmax`, `_log_softmax`) that the decoder behind `amprl.policy.sample`
calls too. That decoder builds no nodes, so it checks finiteness once per
step at its outputs, not per op.
"""
from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Sequence

import numpy as np

Arrayish = "Tensor | np.ndarray | float | int"


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    # keep numpy from absorbing Tensor operands into object arrays
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _consumed:
                _consumed(None)
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        # keyed by id(): every key belongs to a node that `topo` still holds
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            backward = node._backward
            if backward is not None:
                node._backward, node._parents = _consumed, ()
            if g is None:
                continue
            if node.requires_grad and backward is None:
                node.grad = g if node.grad is None else node.grad + g
            if backward is not None:
                for parent, pg in backward(g):
                    if not parent.requires_grad:
                        continue
                    if parent._backward is None:
                        parent.grad = pg if parent.grad is None else parent.grad + pg
                    else:
                        prev = grads.get(id(parent))
                        grads[id(parent)] = pg if prev is None else prev + pg

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(other, mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return mul(self, _power(_wrap(other), -1.0))

    def __rtruediv__(self, other):
        return mul(other, _power(self, -1.0))

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, exponent):
        return _power(self, exponent)

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _consumed(g):
    raise RuntimeError("backward reached a node whose graph an earlier backward consumed; build the loss again")


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


_recording = contextvars.ContextVar("recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Record no autodiff graph inside the block, which nests and is undone on
    any exit; it holds in the calling thread or task only, and decorates too."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    if not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite result in op {op!r}")
    out = Tensor(data)
    if _recording.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data

    def backward(g):
        for t in (a, b):
            if t.requires_grad:
                yield t, _unbroadcast(g, t.data.shape)

    return _node(data, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            yield a, _unbroadcast(g * b.data, a.data.shape)
        if b.requires_grad:
            yield b, _unbroadcast(g * a.data, b.data.shape)

    return _node(data, (a, b), backward, "mul")


def _power(a: Tensor, exponent: float) -> Tensor:
    data = a.data ** exponent

    def backward(g):
        return ((a, g * exponent * a.data ** (exponent - 1.0)),)

    return _node(data, (a,), backward, "pow")


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            yield a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)
        if b.requires_grad:
            yield b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)

    return _node(data, (a, b), backward, "matmul")


def exp(a) -> Tensor:
    a = _wrap(a)
    data = np.exp(a.data)

    def backward(g):
        return ((a, g * data),)

    return _node(data, (a,), backward, "exp")


def log(a) -> Tensor:
    a = _wrap(a)
    data = np.log(a.data)

    def backward(g):
        return ((a, g / a.data),)

    return _node(data, (a,), backward, "log")


def relu(a) -> Tensor:
    a = _wrap(a)
    data = np.maximum(a.data, 0.0)

    def backward(g):
        return ((a, g * (a.data > 0.0)),)

    return _node(data, (a,), backward, "relu")


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    x = a.data
    data = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        return ((a, g * data * (1.0 - data)),)

    return _node(data, (a,), backward, "sigmoid")


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-form GELU of an array, and the tanh term its derivative reuses."""
    t = np.tanh((x + x * x * x * 0.044715) * _GELU_C)
    return x * 0.5 * (t + 1.0), t


def gelu(a) -> Tensor:
    """Tanh-form Gaussian error linear unit."""
    a = _wrap(a)
    x = a.data
    data, t = _gelu(x)

    def backward(g):
        slope = 0.5 * (t + 1.0) + x * 0.5 * (1.0 - t * t) * _GELU_C * (1.0 + x * x * (3.0 * 0.044715))
        return ((a, g * slope),)

    return _node(data, (a,), backward, "gelu")


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return ((a, np.broadcast_to(g, a.data.shape).copy()),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return ((a, np.broadcast_to(g_exp, a.data.shape).copy()),)

    return _node(data, (a,), backward, "sum")


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    data = a.data.reshape(shape)

    def backward(g):
        return ((a, g.reshape(a.data.shape)),)

    return _node(data, (a,), backward, "reshape")


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    data = _softmax(a.data, axis)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return ((a, data * (g - dot)),)

    return _node(data, (a,), backward, "softmax")


def _log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    data = _log_softmax(a.data, axis)
    probs = np.exp(data)

    def backward(g):
        return ((a, g - probs * g.sum(axis=axis, keepdims=True)),)

    return _node(data, (a,), backward, "log_softmax")


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient is 1 strictly inside, 0 at and beyond bounds."""
    a = _wrap(a)
    data = np.clip(a.data, lo, hi)

    def backward(g):
        return ((a, g * ((a.data > lo) & (a.data < hi))),)

    return _node(data, (a,), backward, "clamp")


def minimum(a, b) -> Tensor:
    """Elementwise min; ties route the gradient to the first argument."""
    a, b = _wrap(a), _wrap(b)
    take_a = a.data <= b.data
    data = np.where(take_a, a.data, b.data)

    def backward(g):
        if a.requires_grad:
            yield a, _unbroadcast(g * take_a, a.data.shape)
        if b.requires_grad:
            yield b, _unbroadcast(g * ~take_a, b.data.shape)

    return _node(data, (a, b), backward, "minimum")


def embedding(table, ids: np.ndarray) -> Tensor:
    """Row lookup: output shape ids.shape + (dim,).

    The gradient scatter-adds by one bincount over table cells, which sums
    each cell's terms in row order from 0.0, as `np.add.at` does, bit for bit.
    """
    table = _wrap(table)
    idx = np.asarray(ids)
    data = table.data[idx]

    def backward(g):
        rows, dim = table.data.shape
        cells = idx.reshape(-1, 1) * dim + np.arange(dim)
        gt = np.bincount(cells.ravel(), weights=g.ravel(), minlength=rows * dim)
        return ((table, gt.reshape(rows, dim)),)

    return _node(data, (table,), backward, "embedding")


def gather_last(a, ids: np.ndarray) -> Tensor:
    """Pick one entry along the last axis per leading position."""
    a = _wrap(a)
    idx = np.asarray(ids)
    if idx.shape != a.data.shape[:-1]:
        raise ValueError(f"index shape {idx.shape} must match {a.data.shape[:-1]}")
    data = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, idx[..., None], g[..., None], axis=-1)
        return ((a, ga),)

    return _node(data, (a,), backward, "gather_last")


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5):
    """LayerNorm of an array's last axis: (output, normalized input, 1/std)."""
    scale = 1.0 / x.shape[-1]
    centered = x + x.sum(axis=-1, keepdims=True) * scale * -1.0
    inv = ((centered * centered).sum(axis=-1, keepdims=True) * scale + eps) ** -0.5
    normed = centered * inv
    return normed * gamma + beta, normed, inv


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale/shift."""
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    data, normed, inv = _layer_norm(x.data, gamma.data, beta.data, eps)

    def backward(g):
        g_normed = g * gamma.data
        mean_g = g_normed.mean(axis=-1, keepdims=True)
        mean_gn = (g_normed * normed).mean(axis=-1, keepdims=True)
        return (
            (x, inv * (g_normed - mean_g - normed * mean_gn)),
            (gamma, _unbroadcast(g * normed, gamma.data.shape)),
            (beta, _unbroadcast(g, beta.data.shape)),
        )

    return _node(data, (x, gamma, beta), backward, "layer_norm")


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Causal softmax(q·kᵀ/√d)·v over (..., T, d) arrays, and the weights P.

    The last query sits at the last key, so query i sees keys up to
    i + len(k) - len(q): a whole sequence is masked causally, and one
    decoding step sees its entire cache. Masked weights are exactly 0.
    """
    tq, tk = q.shape[-2], k.shape[-2]
    scores = np.matmul(q, np.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    if tq > 1:  # a lone query sits at the last key and sees them all
        np.copyto(scores, -np.inf, where=np.arange(tk) > np.arange(tq)[:, None] + (tk - tq))
    p = _softmax(scores)
    return np.matmul(p, v), p


def causal_attention(q, k, v, rows: np.ndarray, shape: tuple[int, int], heads: int) -> Tensor:
    """Multi-head causal attention over packed (N, D) rows, as one node.

    `rows` are the flat indices of the N real tokens on the (B, T) grid
    `shape`. Q, K and V go onto that grid with zeros at PAD, each head runs
    `_attention`, and the real rows come back packed; PAD only follows real
    tokens, so the causal mask hides every PAD key from every real query.
    The analytic backward (dV = Pᵀ·dO, dS = P∘(dP − rowsum(dP∘P))·scale,
    dQ = dS·K, dK = (Qᵀ·dS)ᵀ) keeps the operation order of the elementary
    ops it replaces, so both give the same bits.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    b, t = shape
    d = q.data.shape[-1]
    scale = 1.0 / np.sqrt(d // heads)

    def grid(a: np.ndarray) -> np.ndarray:
        flat = np.zeros((b * t, d))
        flat[rows] = a
        return np.transpose(flat.reshape((b, t, heads, d // heads)), (0, 2, 1, 3))

    def packed(a: np.ndarray) -> np.ndarray:
        return np.transpose(a, (0, 2, 1, 3)).reshape((b * t, d))[rows]

    qg, kg, vg = grid(q.data), grid(k.data), grid(v.data)
    out, p = _attention(qg, kg, vg)

    def backward(g):
        dout = grid(g)
        if v.requires_grad:
            yield v, packed(np.matmul(np.swapaxes(p, -1, -2), dout))
        if q.requires_grad or k.requires_grad:
            dp = np.matmul(dout, np.swapaxes(vg, -1, -2))
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
            if q.requires_grad:
                yield q, packed(np.matmul(ds, kg))
            if k.requires_grad:
                yield k, packed(np.swapaxes(np.matmul(np.swapaxes(qg, -1, -2), ds), -1, -2))

    return _node(packed(out), (q, k, v), backward, "causal_attention")
