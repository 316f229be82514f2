"""Reverse-mode autodiff over numpy float64 arrays.

The graph is kept apart from the tensors. An op whose output needs a
gradient gives it a node record (`_Record`) holding two things: one entry
per operand, and a backward closure. An operand's entry is its own record
if it has one, the operand itself if it is a leaf that requires a gradient
(a parameter), and None if it is a constant. The closure captures only
the arrays and shapes its formula reads, and the operands' `requires_grad`
flags as they stood when the op ran; it never captures a `Tensor`. Given
the output gradient it returns one gradient per operand, None where an
operand needs none. So the records keep alive exactly what backward reads:
a matmul keeps its inputs but not its output, an add keeps only shapes,
`gelu` its input and tanh term, `exp`, `sigmoid` and `softmax` their output,
`log_softmax` its probabilities, `layer_norm` gamma and its normalized input
and inverse std, and `causal_attention` the gridded Q, K and V it needs and
the weights P. Any other intermediate is freed as soon as its caller drops
its `Tensor`. The binary ops `add`, `mul`, `matmul` and `minimum` keep and
compute an operand's gradient only if that operand requires one, so a
constant input (a feature batch, a mask, a scalar) costs no memory or
backward work.

backward() walks the records once in reverse topological order and consumes
them: each record it passes drops its entries and its closure, so the arrays
the closure captured are freed during the walk, and a later backward that
reaches the record raises RuntimeError before any gradient is written.
Every op validates that its result is finite. Inside a `no_grad()` block
ops compute and check the same arrays but attach no record, so inference
keeps no graph.

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


class _Record:
    """One op in the graph: an entry per operand (a `_Record`, a leaf
    `Tensor` that requires a gradient, or None) and the backward closure."""

    __slots__ = ("parents", "backward")

    def __init__(self, parents: tuple, backward: Callable[[np.ndarray], tuple]):
        self.parents = parents
        self.backward = backward


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_record")

    # keep numpy from absorbing Tensor operands into object arrays
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._record: _Record | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.data.shape}")
        # the walk starts at a record that hands the seed gradient to this tensor's
        # entry, so a leaf takes it as a parameter would
        root = _Record((_entry(self),), lambda g: (g,))
        topo: list[_Record] = []
        seen: set[int] = set()
        stack: list[tuple[_Record, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node.backward is _consumed:
                _consumed(None)
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if type(parent) is _Record and id(parent) not in seen:
                    stack.append((parent, False))
        # keyed by id(): every key belongs to a record that `topo` still holds
        grads: dict[int, np.ndarray] = {id(root): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            backward, parents = node.backward, node.parents
            node.backward, node.parents = _consumed, ()
            if g is None:
                continue
            for parent, pg in zip(parents, backward(g), strict=True):
                if parent is None or pg is None:
                    continue
                if type(parent) is _Record:
                    prev = grads.get(id(parent))
                    grads[id(parent)] = pg if prev is None else prev + pg
                else:
                    parent.grad = pg if parent.grad is None else parent.grad + pg

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
        out._record = _Record(tuple(map(_entry, parents)), backward)
    return out


def _entry(t: Tensor):
    """What a node record holds for an operand: its record, itself if it is a
    leaf that requires a gradient, else None."""
    return t._record if t._record is not None else t if t.requires_grad else None


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
    shapes = tuple(t.data.shape if t.requires_grad else None for t in (a, b))

    def backward(g):
        return tuple(None if shape is None else _unbroadcast(g, shape) for shape in shapes)

    return _node(data, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data
    shape_a, shape_b = a.data.shape, b.data.shape
    # each operand's gradient reads the other operand
    for_a = b.data if a.requires_grad else None
    for_b = a.data if b.requires_grad else None

    def backward(g):
        return (
            None if for_a is None else _unbroadcast(g * for_a, shape_a),
            None if for_b is None else _unbroadcast(g * for_b, shape_b),
        )

    return _node(data, (a, b), backward, "mul")


def _power(a: Tensor, exponent: float) -> Tensor:
    x = a.data
    data = x**exponent

    def backward(g):
        return (g * exponent * x ** (exponent - 1.0),)

    return _node(data, (a,), backward, "pow")


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = np.matmul(a.data, b.data)
    shape_a, shape_b = a.data.shape, b.data.shape
    # each operand's gradient reads the other operand
    for_a = b.data if a.requires_grad else None
    for_b = a.data if b.requires_grad else None

    def backward(g):
        return (
            None if for_a is None else _unbroadcast(np.matmul(g, np.swapaxes(for_a, -1, -2)), shape_a),
            None if for_b is None else _unbroadcast(np.matmul(np.swapaxes(for_b, -1, -2), g), shape_b),
        )

    return _node(data, (a, b), backward, "matmul")


def exp(a) -> Tensor:
    a = _wrap(a)
    data = np.exp(a.data)

    def backward(g):
        return (g * data,)

    return _node(data, (a,), backward, "exp")


def log(a) -> Tensor:
    a = _wrap(a)
    x = a.data
    data = np.log(x)

    def backward(g):
        return (g / x,)

    return _node(data, (a,), backward, "log")


def relu(a) -> Tensor:
    a = _wrap(a)
    x = a.data
    data = np.maximum(x, 0.0)

    def backward(g):
        return (g * (x > 0.0),)

    return _node(data, (a,), backward, "relu")


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    x = a.data
    data = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        return (g * data * (1.0 - data),)

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
        return (g * slope,)

    return _node(data, (a,), backward, "gelu")


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, shape).copy(),)

    return _node(data, (a,), backward, "sum")


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    data = a.data.reshape(shape)
    shape_a = a.data.shape

    def backward(g):
        return (g.reshape(shape_a),)

    return _node(data, (a,), backward, "reshape")


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    data = _softmax(a.data, axis)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return _node(data, (a,), backward, "softmax")


def _log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    data = _log_softmax(a.data, axis)
    probs = np.exp(data)

    def backward(g):
        return (g - probs * g.sum(axis=axis, keepdims=True),)

    return _node(data, (a,), backward, "log_softmax")


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient is 1 strictly inside, 0 at and beyond bounds."""
    a = _wrap(a)
    x = a.data
    data = np.clip(x, lo, hi)

    def backward(g):
        return (g * ((x > lo) & (x < hi)),)

    return _node(data, (a,), backward, "clamp")


def minimum(a, b) -> Tensor:
    """Elementwise min; ties route the gradient to the first argument."""
    a, b = _wrap(a), _wrap(b)
    take_a = a.data <= b.data
    data = np.where(take_a, a.data, b.data)
    shape_a = a.data.shape if a.requires_grad else None
    shape_b = b.data.shape if b.requires_grad else None

    def backward(g):
        return (
            None if shape_a is None else _unbroadcast(g * take_a, shape_a),
            None if shape_b is None else _unbroadcast(g * ~take_a, shape_b),
        )

    return _node(data, (a, b), backward, "minimum")


def embedding(table, ids: np.ndarray) -> Tensor:
    """Row lookup: output shape ids.shape + (dim,).

    The gradient scatter-adds by one bincount over table cells, which sums
    each cell's terms in row order from 0.0, as `np.add.at` does, bit for bit.
    """
    table = _wrap(table)
    idx = np.asarray(ids)
    data = table.data[idx]
    rows, dim = table.data.shape

    def backward(g):
        cells = idx.reshape(-1, 1) * dim + np.arange(dim)
        gt = np.bincount(cells.ravel(), weights=g.ravel(), minlength=rows * dim)
        return (gt.reshape(rows, dim),)

    return _node(data, (table,), backward, "embedding")


def gather_last(a, ids: np.ndarray) -> Tensor:
    """Pick one entry along the last axis per leading position."""
    a = _wrap(a)
    idx = np.asarray(ids)
    if idx.shape != a.data.shape[:-1]:
        raise ValueError(f"index shape {idx.shape} must match {a.data.shape[:-1]}")
    data = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]
    shape = a.data.shape

    def backward(g):
        ga = np.zeros(shape)
        np.put_along_axis(ga, idx[..., None], g[..., None], axis=-1)
        return (ga,)

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
    for_x = gamma.data if x.requires_grad else None
    shape_gamma = gamma.data.shape if gamma.requires_grad else None
    shape_beta = beta.data.shape if beta.requires_grad else None

    def backward(g):
        if for_x is None:
            gx = None
        else:
            g_normed = g * for_x
            mean_g = g_normed.mean(axis=-1, keepdims=True)
            mean_gn = (g_normed * normed).mean(axis=-1, keepdims=True)
            gx = inv * (g_normed - mean_g - normed * mean_gn)
        return (
            gx,
            None if shape_gamma is None else _unbroadcast(g * normed, shape_gamma),
            None if shape_beta is None else _unbroadcast(g, shape_beta),
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
    need_v = v.requires_grad
    # dQ reads K and dK reads Q; both read V through dP
    for_q = kg if q.requires_grad else None
    for_k = qg if k.requires_grad else None
    for_qk = vg if q.requires_grad or k.requires_grad else None

    def backward(g):
        dout = grid(g)
        gv = packed(np.matmul(np.swapaxes(p, -1, -2), dout)) if need_v else None
        gq = gk = None
        if for_qk is not None:
            dp = np.matmul(dout, np.swapaxes(for_qk, -1, -2))
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
            if for_q is not None:
                gq = packed(np.matmul(ds, for_q))
            if for_k is not None:
                gk = packed(np.swapaxes(np.matmul(np.swapaxes(for_k, -1, -2), ds), -1, -2))
        return gq, gk, gv

    return _node(packed(out), (q, k, v), backward, "causal_attention")
