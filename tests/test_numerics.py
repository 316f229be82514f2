"""Autodiff tensor library: gradients, guards, checkpointing, optimizer."""
import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest

import adam_oracle
import amprl.numerics as nm
import autodiff_oracle
from amprl.numerics.optim import Adam
from amprl.numerics.tensor import _power, add, mul, reduce_mean, tanh

TOL = 1e-4  # relative error bound for central finite differences


def _param(rng, *shape):
    return nm.tensor(rng.normal(size=shape), requires_grad=True)


def test_add_mul_sub_div_grads():
    rng = np.random.default_rng(0)
    a = _param(rng, 3, 4)
    b = _param(rng, 3, 4)

    def f():
        return ((a + b) * a - b / (a * a + nm.tensor(2.0))).sum()

    assert nm.grad_check(f, [a, b]) < TOL


def test_broadcasting_grads():
    rng = np.random.default_rng(1)
    a = _param(rng, 4, 5)
    row = _param(rng, 5)
    col = _param(rng, 4, 1)

    def f():
        return ((a + row) * col).mean()

    assert nm.grad_check(f, [a, row, col]) < TOL


def test_matmul_grads():
    rng = np.random.default_rng(2)
    a = _param(rng, 3, 4)
    b = _param(rng, 4, 2)

    def f():
        return nm.matmul(a, b).sum()

    assert nm.grad_check(f, [a, b]) < TOL


def test_batched_matmul_grads():
    rng = np.random.default_rng(3)
    a = _param(rng, 2, 3, 4)
    b = _param(rng, 2, 4, 3)

    def f():
        return nm.matmul(a, b).mean()

    assert nm.grad_check(f, [a, b]) < TOL


@pytest.mark.parametrize("op", [nm.exp, nm.sigmoid, nm.gelu, nm.softmax, nm.log_softmax])
def test_smooth_unary_grads(op):
    rng = np.random.default_rng(4)
    a = _param(rng, 5, 6)
    # weighted sum: a plain softmax(a).sum() is constant in a
    w = nm.tensor(rng.normal(size=(5, 6)))

    def f():
        return (op(a) * w).sum()

    assert nm.grad_check(f, [a]) < TOL


def test_log_grad_on_positive_inputs():
    rng = np.random.default_rng(5)
    a = nm.tensor(rng.uniform(0.5, 3.0, size=(4, 4)), requires_grad=True)

    def f():
        return nm.log(a).sum()

    assert nm.grad_check(f, [a]) < TOL


def test_relu_and_clamp_grads_away_from_kinks():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(5, 5))
    for kink in (0.0, -0.5, 0.5):  # keep clear of the hinge points
        data[np.abs(data - kink) < 0.05] = 0.25
    a = nm.tensor(data, requires_grad=True)

    def f():
        return (nm.relu(a) + nm.clamp(a, -0.5, 0.5)).sum()

    assert nm.grad_check(f, [a]) < TOL


def test_minimum_grads_away_from_ties():
    rng = np.random.default_rng(7)
    a = _param(rng, 6)
    b = nm.tensor(a.data + np.where(rng.normal(size=6) > 0, 1.0, -1.0), requires_grad=True)

    def f():
        return nm.minimum(a, b).sum()

    assert nm.grad_check(f, [a, b]) < TOL


def test_layer_norm_grads():
    rng = np.random.default_rng(8)
    x = _param(rng, 3, 8)
    gamma = nm.tensor(np.ones(8), requires_grad=True)
    beta = nm.tensor(np.zeros(8), requires_grad=True)
    w = nm.tensor(rng.normal(size=(3, 8)))

    def f():
        return (nm.layer_norm(x, gamma, beta) * w).sum()

    assert nm.grad_check(f, [x, gamma, beta]) < TOL


def test_layer_norm_output_is_standardized():
    rng = np.random.default_rng(9)
    x = nm.tensor(rng.normal(size=(4, 16)) * 3 + 5)
    y = nm.layer_norm(x, nm.tensor(np.ones(16)), nm.tensor(np.zeros(16)))
    assert np.allclose(y.data.mean(axis=-1), 0.0, atol=1e-7)
    assert np.allclose(y.data.std(axis=-1), 1.0, atol=1e-3)


def _composed_gelu(a):
    """GELU built from elementary ops, as it was before it became one node."""
    inner = mul(add(a, mul(_power(a, 3.0), 0.044715)), np.sqrt(2.0 / np.pi))
    return mul(mul(a, 0.5), add(tanh(inner), 1.0))


def _composed_layer_norm(x, gamma, beta, eps=1e-5):
    """LayerNorm built from elementary ops, as it was before it became one node."""
    mu = reduce_mean(x, axis=-1, keepdims=True)
    centered = add(x, mul(mu, -1.0))
    var = reduce_mean(mul(centered, centered), axis=-1, keepdims=True)
    return add(mul(mul(centered, _power(add(var, eps), -0.5)), gamma), beta)


def test_fused_gelu_matches_composed_ops():
    rng = np.random.default_rng(21)
    x = nm.tensor(rng.normal(size=(4, 7, 33)) * 3.0, requires_grad=True)
    w = rng.normal(size=x.shape)
    fused = nm.gelu(x)
    composed = _composed_gelu(x)
    assert np.max(np.abs(fused.data - composed.data)) <= 1e-14
    (fused * w).sum().backward()
    g_fused = x.grad
    x.grad = None
    (composed * w).sum().backward()
    assert np.allclose(g_fused, x.grad, rtol=1e-12, atol=1e-13)


def test_fused_layer_norm_matches_composed_ops():
    rng = np.random.default_rng(22)
    x = nm.tensor(rng.normal(size=(3, 5, 24)) * 4.0 + 2.0, requires_grad=True)
    gamma = nm.tensor(rng.uniform(0.5, 1.5, 24), requires_grad=True)
    beta = nm.tensor(rng.normal(size=24), requires_grad=True)
    w = rng.normal(size=x.shape)
    fused = nm.layer_norm(x, gamma, beta)
    composed = _composed_layer_norm(x, gamma, beta)
    assert np.array_equal(fused.data, composed.data)
    (fused * w).sum().backward()
    grads = [t.grad for t in (x, gamma, beta)]
    for t in (x, gamma, beta):
        t.grad = None
    (composed * w).sum().backward()
    for g, t in zip(grads, (x, gamma, beta)):
        assert np.allclose(g, t.grad, rtol=1e-11, atol=1e-12)


def test_embedding_and_gather_grads():
    rng = np.random.default_rng(10)
    table = _param(rng, 7, 4)
    ids = rng.integers(0, 7, size=(2, 5))
    picks = rng.integers(0, 4, size=(2, 5))

    def f():
        e = nm.embedding(table, ids)
        return nm.gather_last(e, picks).sum()

    assert nm.grad_check(f, [table]) < TOL


def test_reshape_mean_sum_grads():
    rng = np.random.default_rng(11)
    a = _param(rng, 2, 6)

    def f():
        return a.reshape(3, 4).mean(axis=0).sum() + a.sum(axis=1, keepdims=True).mean()

    assert nm.grad_check(f, [a]) < TOL


def test_gradient_accumulates_when_tensor_is_reused():
    x = nm.tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x  # dy/dx = 2x + 1 = 5
    y.backward()
    assert x.grad[0] == pytest.approx(5.0)


def test_backward_requires_scalar():
    a = nm.tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (a * 2).backward()


def test_nonfinite_result_trips_error():
    a = nm.tensor(np.array([-1.0]), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(FloatingPointError):
            nm.log(a)


def test_softmax_rows_normalize():
    rng = np.random.default_rng(12)
    s = nm.softmax(nm.tensor(rng.normal(size=(3, 9)) * 10))
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
    assert np.allclose(np.exp(nm.log_softmax(nm.tensor(rng.normal(size=(3, 9)))).data).sum(axis=-1), 1.0)


def test_softmax_is_shift_stable():
    x = np.array([[1000.0, 1000.5, 999.0]])
    s = nm.softmax(nm.tensor(x))
    assert np.isfinite(s.data).all()
    assert s.data.sum() == pytest.approx(1.0)


def test_causal_mask_blocks_future_positions():
    m = nm.causal_mask(5)
    assert m.shape == (5, 5)
    for i in range(5):
        for j in range(5):
            if j <= i:
                assert m[i, j] == 0.0
            else:
                assert m[i, j] <= -1e8


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    tensors = {"w": rng.normal(size=(3, 3)), "b": rng.normal(size=3)}
    path = tmp_path / "model.ckpt"
    nm.save_checkpoint(path, tensors, meta={"note": "fixture", "step": 7})
    loaded, meta = nm.load_checkpoint(path)
    assert meta["note"] == "fixture" and meta["step"] == 7
    assert set(loaded) == {"w", "b"}
    assert np.array_equal(loaded["w"], tensors["w"])
    assert loaded["w"].dtype == np.float64
    # atomic write leaves no temp files behind, only the array blob + meta sidecar
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "model.ckpt.json"]
    manifest = json.loads((tmp_path / "model.ckpt.json").read_text())
    assert manifest["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(OSError):
        nm.load_checkpoint(tmp_path / "absent.ckpt")


def test_adam_descends_quadratic():
    target = np.array([1.0, -2.0, 3.0])
    x = nm.tensor(np.zeros(3), requires_grad=True)
    opt = Adam([x], lr=0.1)
    first = None
    for step in range(200):
        opt.zero_grad()
        diff = x - nm.tensor(target)
        loss = (diff * diff).sum()
        if first is None:
            first = loss.item()
        loss.backward()
        opt.step()
    assert loss.item() < 1e-4 < first
    assert np.allclose(x.data, target, atol=0.02)


@pytest.mark.parametrize("hyper", [{}, {"lr": 3e-3, "beta1": 0.8, "beta2": 0.99, "eps": 1e-6}])
def test_adam_matches_oracle_bit_for_bit(hyper):
    rng = np.random.default_rng(11)
    shapes = [(425, 256), (256,), (64,), ()]
    start = [rng.normal(size=shape) for shape in shapes]
    params = [nm.tensor(x.copy(), requires_grad=True) for x in start]
    oracle_params = [nm.tensor(x.copy(), requires_grad=True) for x in start]
    opt = Adam(params, **hyper)
    oracle = adam_oracle.Adam(oracle_params, **hyper)
    pools = [[rng.normal(size=shape) for _ in range(4)] for shape in shapes]
    pools[0].append(rng.normal(size=(256, 425)).T)  # a non-contiguous gradient
    skipped = 0
    for step in range(300):
        for p, q, pool in zip(params, oracle_params, pools):
            if step % 7 == 3 and rng.random() < 0.5:
                g = None  # this parameter sat out the step's loss
                skipped += 1
            else:
                g = pool[rng.integers(len(pool))] * 10.0 ** rng.integers(-6, 3)
            p.grad = q.grad = g
        opt.step()
        oracle.step()
    assert skipped > 0
    for p, q, m, om, v, ov in zip(params, oracle_params, opt._m, oracle._m, opt._v, oracle._v):
        assert np.array_equal(p.data, q.data)
        assert np.array_equal(m, om)
        assert np.array_equal(v, ov)


def test_adam_step_allocates_no_parameter_sized_temporaries():
    rng = np.random.default_rng(12)
    weight = nm.tensor(rng.normal(size=(425, 256)), requires_grad=True)
    bias = nm.tensor(rng.normal(size=256), requires_grad=True)
    opt = Adam([weight, bias])
    weight.grad = rng.normal(size=weight.shape)
    bias.grad = rng.normal(size=bias.shape)
    opt.step()
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < weight.data.nbytes


def _const(rng, *shape):
    return nm.tensor(rng.normal(size=shape))


PRUNED_CASES = {
    "add_bias": ("add", lambda rng: (_param(rng, 5, 3), _const(rng, 3))),
    "add_const_first": ("add", lambda rng: (_const(rng, 5, 3), _param(rng, 5, 3))),
    "mul_broadcast": ("mul", lambda rng: (_param(rng, 4, 3), _const(rng, 4, 1))),
    "mul_const_first": ("mul", lambda rng: (_const(rng, 3), _param(rng, 4, 3))),
    "mul_scalar": ("mul", lambda rng: (_param(rng, 4, 3), nm.tensor(-1.0))),
    "matmul_2d_weight": ("matmul", lambda rng: (_const(rng, 6, 5), _param(rng, 5, 3))),
    "matmul_2d_input": ("matmul", lambda rng: (_param(rng, 6, 5), _const(rng, 5, 3))),
    "matmul_batched_weight": ("matmul", lambda rng: (_const(rng, 2, 6, 5), _param(rng, 5, 3))),
    "matmul_batched_input": ("matmul", lambda rng: (_param(rng, 2, 6, 5), _const(rng, 5, 3))),
    "matmul_batched_both": ("matmul", lambda rng: (_const(rng, 2, 6, 5), _param(rng, 2, 5, 3))),
    "minimum_with_ties": ("minimum", lambda rng: (_param(rng, 4, 5), nm.tensor(np.zeros(5)))),
    "minimum_const_first": ("minimum", lambda rng: (_const(rng, 5), _param(rng, 3, 5))),
}


@pytest.mark.parametrize("case", sorted(PRUNED_CASES))
def test_pruned_backward_matches_oracle_for_the_trainable_operand(case):
    rng = np.random.default_rng(sorted(PRUNED_CASES).index(case))
    op, make = PRUNED_CASES[case]
    a, b = make(rng)
    if op == "minimum" and a.requires_grad:
        a.data[0, :2] = 0.0  # ties route the gradient to the first argument
    trainable = a if a.requires_grad else b
    twin = nm.tensor(trainable.data.copy(), requires_grad=True)
    out = {"add": add, "mul": mul, "matmul": nm.matmul, "minimum": nm.minimum}[op](a, b)
    oracle_args = (twin, b) if trainable is a else (a, twin)
    expected = getattr(autodiff_oracle, op)(*oracle_args)
    assert np.array_equal(out.data, expected.data)
    weights = nm.tensor(rng.normal(size=out.shape))
    (out * weights).sum().backward()
    (expected * weights).sum().backward()
    assert np.array_equal(trainable.grad, twin.grad)
    constant = b if trainable is a else a
    assert constant.grad is None
    # the backward closure yields a gradient for the trainable operand only
    assert [t is trainable for t, _ in out._backward(np.ones_like(out.data))] == [True]


def test_grad_check_flags_missing_gradient_paths():
    # sanity: the checker must notice when part of the loss bypasses autodiff
    a = nm.tensor(np.zeros(3), requires_grad=True)

    def honest():
        return (a * a).sum()

    def leaky():
        # second term reads the raw buffer, so AD never sees it
        return (a * a).sum() + nm.tensor(float(a.data.sum()))

    assert nm.grad_check(honest, [a]) < TOL
    assert nm.grad_check(leaky, [a]) > 0.1
