"""Adam with bias correction, and the early-stopping loop both trainers run."""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor


class Adam:
    """Adam (Kingma & Ba 2015), updating moments and parameters in place.

    Each step evaluates m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p -= (lr * (m/(1-b1^t))) / (sqrt(v/(1-b2^t)) + eps) in that order, so the
    result is bit-identical to the out-of-place expressions. A step
    allocates no arrays: intermediates go to two scratch buffers sized to
    the largest parameter and shared by all of them.
    """

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        size = max((p.data.size for p in self.params), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """One update; parameters whose gradient is None are left untouched."""
        self.step_count += 1
        t = self.step_count
        m_scale = 1.0 - self.beta1**t
        v_scale = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
            a, b = (s[: g.size].reshape(g.shape) for s in self._scratch)
            np.multiply(m, self.beta1, out=m)
            np.multiply(g, 1.0 - self.beta1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, self.beta2, out=v)
            np.multiply(g, 1.0 - self.beta2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            np.divide(v, v_scale, out=a)
            np.sqrt(a, out=a)
            np.add(a, self.eps, out=a)
            np.divide(m, m_scale, out=b)
            np.multiply(b, self.lr, out=b)
            np.divide(b, a, out=b)
            np.subtract(p.data, b, out=p.data)


def check_schedule(schedule) -> None:
    """Reject an `lr`, `epochs`, `batch_size` or `patience` that `train_epochs` cannot run."""
    for key in ("epochs", "batch_size", "patience"):
        if type(getattr(schedule, key)) is not int or getattr(schedule, key) < 1:
            raise ValueError(f"{key} must be an integer >= 1, got {getattr(schedule, key)!r}")
    if not schedule.lr > 0.0:
        raise ValueError(f"lr must be positive, got {schedule.lr}")


def train_epochs(
    params: Sequence[Tensor], n: int, batch_loss: Callable, validate: Callable, schedule, rng: np.random.Generator
) -> tuple[list[dict], int, float]:
    """Adam over shuffled minibatches of n rows, stopped early; `schedule` gives lr, epochs, batch_size, patience.

    Each epoch steps once per `batch_size` chunk of one `rng.permutation(n)`.
    `batch_loss(rows)` returns (loss tensor, value, weight): the epoch's
    train loss is the summed value over the summed weight. `validate()`
    returns (score, fields), higher being better; fields join the history
    row. The best epoch is the first that scores strictly above all earlier
    ones. Training stops `patience` epochs after it, and its weights are put
    back. Returns (history, best epoch, best score).
    """
    opt = Adam(params, lr=schedule.lr)
    history: list[dict] = []
    best_score, best_epoch = -math.inf, 0
    best_state = [p.data.copy() for p in params]
    for epoch in range(1, schedule.epochs + 1):
        order = rng.permutation(n)
        total, weight = 0.0, 0
        for start in range(0, n, schedule.batch_size):
            loss, value, w = batch_loss(order[start : start + schedule.batch_size])
            opt.zero_grad()
            loss.backward()
            opt.step()
            total += value
            weight += w
        score, fields = validate()
        history.append({"epoch": epoch, "train_loss": total / weight, **fields})
        if score > best_score:
            best_score, best_epoch = score, epoch
            best_state = [p.data.copy() for p in params]
        if epoch - best_epoch >= schedule.patience:
            break
    for p, saved in zip(params, best_state):
        p.data = saved
    return history, best_epoch, best_score
