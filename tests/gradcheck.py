"""Central finite-difference check of autodiff gradients."""
import numpy as np


def grad_check(f, params, eps=1e-5, atol=1e-8):
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
