"""Autodiff ops that `amprl.numerics` does not carry, for tests only.

The binary ops are as they were before their backward skipped constant
operands: each backward computes the gradient of both operands, and
`Tensor.backward` discards the one that does not require a gradient. Their
closures capture the operand `Tensor`s, as every op's did before the graph
kept only the arrays its backward reads.
`test_numerics.py` checks that the pruned ops give the trainable operand the
same gradient bit for bit. `tanh` builds the composed GELU that the fused
`nm.gelu` is checked against. `embedding` scatters its gradient with
`np.add.at`, as `nm.embedding` did before its one bincount.
"""
import numpy as np

from amprl.numerics.tensor import _node, _unbroadcast, _wrap


def add(a, b):
    a, b = _wrap(a), _wrap(b)

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(a.data + b.data, (a, b), backward, "add")


def mul(a, b):
    a, b = _wrap(a), _wrap(b)

    def backward(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _node(a.data * b.data, (a, b), backward, "mul")


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _node(np.matmul(a.data, b.data), (a, b), backward, "matmul")


def minimum(a, b):
    a, b = _wrap(a), _wrap(b)
    take_a = a.data <= b.data

    def backward(g):
        return _unbroadcast(g * take_a, a.data.shape), _unbroadcast(g * ~take_a, b.data.shape)

    return _node(np.where(take_a, a.data, b.data), (a, b), backward, "minimum")


def tanh(a):
    a = _wrap(a)
    data = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - data * data),)

    return _node(data, (a,), backward, "tanh")


def embedding(table, ids):
    """`nm.embedding` with the `np.add.at` scatter its backward replaced."""
    table = _wrap(table)
    idx = np.asarray(ids)
    data = table.data[idx]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        return (gt,)

    return _node(data, (table,), backward, "embedding")
