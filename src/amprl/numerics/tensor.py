"""Reverse-mode autodiff over numpy float64 arrays.

Each op builds a node holding its parents and a closure that routes the
output gradient back to them. backward() walks the graph once in reverse
topological order. Every op validates that its result is finite. The
closures of the binary ops `add`, `mul`, `matmul` and `minimum` compute an
operand's gradient only if that operand requires one, so a constant input
(a feature batch, a mask, a scalar) costs no backward work.

GELU, LayerNorm, softmax and log-softmax keep their forward in a private
array function (`_gelu`, `_layer_norm`, `_softmax`, `_log_softmax`) that the
no-grad decoder behind `amprl.policy.sample` calls too. That decoder builds
no nodes, so it checks finiteness once per step at the logits, not per op.
"""
from __future__ import annotations

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
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is not None:
                for parent, pg in node._backward(g):
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

    def __radd__(self, other):
        return add(other, self)

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

    def __matmul__(self, other):
        return matmul(self, other)

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


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    if not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite result in op {op!r}")
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
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


def tanh(a) -> Tensor:
    a = _wrap(a)
    data = np.tanh(a.data)

    def backward(g):
        return ((a, g * (1.0 - data * data)),)

    return _node(data, (a,), backward, "tanh")


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


def transpose(a, axes=None) -> Tensor:
    a = _wrap(a)
    if axes is None:
        data = np.swapaxes(a.data, -1, -2)

        def backward(g):
            return ((a, np.swapaxes(g, -1, -2)),)

    else:
        inverse = np.argsort(axes)
        data = np.transpose(a.data, axes)

        def backward(g):
            return ((a, np.transpose(g, inverse)),)

    return _node(data, (a,), backward, "transpose")


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
    """Row lookup: output shape ids.shape + (dim,). Gradient scatter-adds."""
    table = _wrap(table)
    idx = np.asarray(ids)
    data = table.data[idx]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        return ((table, gt),)

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


def place_rows(a, rows: np.ndarray, n: int) -> Tensor:
    """Row i of `a` at row rows[i] of an n-row zero array; rows must be distinct.

    The gradient gathers those rows back; `take_rows` is the inverse.
    """
    a = _wrap(a)
    data = np.zeros((n,) + a.data.shape[1:])
    data[rows] = a.data

    def backward(g):
        return ((a, g[rows]),)

    return _node(data, (a,), backward, "place_rows")


def take_rows(a, rows: np.ndarray) -> Tensor:
    """Rows `rows` of `a`, which must be distinct; the gradient places them back."""
    a = _wrap(a)
    data = a.data[rows]

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[rows] = g
        return ((a, ga),)

    return _node(data, (a,), backward, "take_rows")


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


def causal_mask(t: int) -> np.ndarray:
    """Additive attention mask: 0 at or before the query position, -1e9 after."""
    mask = np.zeros((t, t), dtype=np.float64)
    mask[np.triu_indices(t, k=1)] = -1e9
    return mask


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-5, atol: float = 1e-8) -> float:
    """Max over coordinates of |AD - FD| / max(atol, |AD| + |FD|).

    f must rebuild the scalar loss from the current parameter values on every
    call; central finite differences perturb each coordinate in place. Central
    differences carry an absolute noise floor near 1e-10 for O(1) losses, so
    coordinates whose true derivative sits below that floor cannot be compared
    in purely relative terms; raising atol shifts them to an absolute check.
    """
    for p in params:
        p.grad = None
    loss = f()
    if loss.data.size != 1:
        raise ValueError("grad_check requires a scalar function")
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, ad in zip(params, analytic):
        flat = p.data.reshape(-1)
        ad_flat = ad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = float(f().data)
            flat[i] = keep - eps
            down = float(f().data)
            flat[i] = keep
            fd = (up - down) / (2.0 * eps)
            rel = abs(ad_flat[i] - fd) / max(atol, abs(ad_flat[i]) + abs(fd))
            worst = max(worst, rel)
    return worst
