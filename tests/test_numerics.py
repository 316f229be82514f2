"""Autodiff tensor library: gradients, guards, checkpointing, optimizer."""
import hashlib
import json
import platform
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import adam_oracle
import amprl.numerics as nm
import autodiff_oracle
import trunk_oracle
from amprl.numerics.optim import Adam
from amprl.numerics.tensor import _attention, _power, add, mul, reduce_mean
from autodiff_oracle import tanh
from gradcheck import grad_check

TOL = 1e-4  # relative error bound for central finite differences


def _param(rng, *shape):
    return nm.Tensor(rng.normal(size=shape), requires_grad=True)


def test_add_mul_sub_div_grads():
    rng = np.random.default_rng(0)
    a = _param(rng, 3, 4)
    b = _param(rng, 3, 4)

    def f():
        return ((a + b) * a - b / (a * a + nm.Tensor(2.0))).sum()

    assert grad_check(f, [a, b]) < TOL


def test_broadcasting_grads():
    rng = np.random.default_rng(1)
    a = _param(rng, 4, 5)
    row = _param(rng, 5)
    col = _param(rng, 4, 1)

    def f():
        return ((a + row) * col).mean()

    assert grad_check(f, [a, row, col]) < TOL


def test_matmul_grads():
    rng = np.random.default_rng(2)
    a = _param(rng, 3, 4)
    b = _param(rng, 4, 2)

    def f():
        return nm.matmul(a, b).sum()

    assert grad_check(f, [a, b]) < TOL


def test_batched_matmul_grads():
    rng = np.random.default_rng(3)
    a = _param(rng, 2, 3, 4)
    b = _param(rng, 2, 4, 3)

    def f():
        return nm.matmul(a, b).mean()

    assert grad_check(f, [a, b]) < TOL


@pytest.mark.parametrize("op", [nm.exp, nm.sigmoid, nm.gelu, nm.softmax, nm.log_softmax])
def test_smooth_unary_grads(op):
    rng = np.random.default_rng(4)
    a = _param(rng, 5, 6)
    # weighted sum: a plain softmax(a).sum() is constant in a
    w = nm.Tensor(rng.normal(size=(5, 6)))

    def f():
        return (op(a) * w).sum()

    assert grad_check(f, [a]) < TOL


def test_log_grad_on_positive_inputs():
    rng = np.random.default_rng(5)
    a = nm.Tensor(rng.uniform(0.5, 3.0, size=(4, 4)), requires_grad=True)

    def f():
        return nm.log(a).sum()

    assert grad_check(f, [a]) < TOL


def test_relu_and_clamp_grads_away_from_kinks():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(5, 5))
    for kink in (0.0, -0.5, 0.5):  # keep clear of the hinge points
        data[np.abs(data - kink) < 0.05] = 0.25
    a = nm.Tensor(data, requires_grad=True)

    def f():
        return (nm.relu(a) + nm.clamp(a, -0.5, 0.5)).sum()

    assert grad_check(f, [a]) < TOL


def test_minimum_grads_away_from_ties():
    rng = np.random.default_rng(7)
    a = _param(rng, 6)
    b = nm.Tensor(a.data + np.where(rng.normal(size=6) > 0, 1.0, -1.0), requires_grad=True)

    def f():
        return nm.minimum(a, b).sum()

    assert grad_check(f, [a, b]) < TOL


def test_layer_norm_grads():
    rng = np.random.default_rng(8)
    x = _param(rng, 3, 8)
    gamma = nm.Tensor(np.ones(8), requires_grad=True)
    beta = nm.Tensor(np.zeros(8), requires_grad=True)
    w = nm.Tensor(rng.normal(size=(3, 8)))

    def f():
        return (nm.layer_norm(x, gamma, beta) * w).sum()

    assert grad_check(f, [x, gamma, beta]) < TOL


def test_layer_norm_output_is_standardized():
    rng = np.random.default_rng(9)
    x = nm.Tensor(rng.normal(size=(4, 16)) * 3 + 5)
    y = nm.layer_norm(x, nm.Tensor(np.ones(16)), nm.Tensor(np.zeros(16)))
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
    x = nm.Tensor(rng.normal(size=(4, 7, 33)) * 3.0, requires_grad=True)
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
    x = nm.Tensor(rng.normal(size=(3, 5, 24)) * 4.0 + 2.0, requires_grad=True)
    gamma = nm.Tensor(rng.uniform(0.5, 1.5, 24), requires_grad=True)
    beta = nm.Tensor(rng.normal(size=24), requires_grad=True)
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

    assert grad_check(f, [table]) < TOL


def test_embedding_scatter_matches_add_at_bit_for_bit():
    # repeated ids, magnitudes from 1e-8 to 1e8 and signed zeros: each table
    # cell must sum its terms in the order and from the start np.add.at does
    rng = np.random.default_rng(16)
    for _ in range(100):
        rows, dim = int(rng.integers(1, 40)), int(rng.integers(1, 9))
        ids = rng.integers(0, rows, size=(int(rng.integers(1, 901)),))
        if rng.random() < 0.5:
            ids = ids.reshape(-1, 1) if ids.size % 2 else ids.reshape(2, -1)
        g = rng.normal(size=ids.shape + (dim,)) * 10.0 ** rng.uniform(-8, 8, size=ids.shape + (dim,))
        g[rng.random(g.shape) < 0.3] = -0.0
        table = nm.Tensor(rng.normal(size=(rows, dim)), requires_grad=True)
        (got,) = nm.embedding(table, ids)._record.backward(g)
        (want,) = autodiff_oracle.embedding(table, ids)._record.backward(g)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_place_rows():
    rng = np.random.default_rng(13)
    packed = _param(rng, 4, 3)
    rows = np.array([0, 2, 3, 5])
    placed = trunk_oracle.place_rows(packed, rows, 6)
    assert placed.shape == (6, 3)
    assert np.array_equal(placed.data[rows], packed.data)
    assert np.all(placed.data[[1, 4]] == 0.0)
    w = rng.normal(size=(6, 3))
    assert grad_check(lambda: (trunk_oracle.place_rows(packed, rows, 6) * w).sum(), [packed]) < TOL


# (row lengths, grid width, heads): PAD follows the real tokens of each row
ATTENTION_CASES = {
    "unequal_rows": ([5, 2, 4], 5, 2),
    "length_one_rows": ([1, 4, 1], 4, 2),
    "trailing_pad_columns": ([3, 2, 1], 6, 2),
    "one_full_row_one_head": ([4], 4, 1),
}


def _packed_rows(lengths, width):
    return np.flatnonzero(np.arange(width) < np.array(lengths)[:, None])


def _attention_block(h, p, attend, rows, shape, heads):
    """Attention sublayer of the policy trunk with LoRA on all four projections."""

    def proj(x, name):
        return nm.matmul(x, p[name] + nm.matmul(p[name + ".a"], p[name + ".b"]) * 0.5)

    ctx = attend(proj(h, "wq") + p["qb"], proj(h, "wk"), proj(h, "wv") + p["vb"], rows, shape, heads)
    return proj(ctx, "wo")


def _out_and_grads(loss_of, leaves, w):
    """Output of `loss_of()` and the leaf gradients of (output * w).sum()."""
    out = loss_of()
    (out * w).sum().backward()
    grads = [t.grad for t in leaves]
    for t in leaves:
        t.grad = None
    return out.data, grads


@pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
def test_causal_attention_matches_composed_ops_bit_for_bit(case):
    lengths, width, heads = ATTENTION_CASES[case]
    rng = np.random.default_rng(40 + sorted(ATTENTION_CASES).index(case))
    rows = _packed_rows(lengths, width)
    shape, n, d = (len(lengths), width), rows.size, 4 * heads
    ops = (nm.causal_attention, trunk_oracle.composed_attention)

    # Q, K and V as leaves, and again with K constant as under frozen LoRA
    for k_trainable in (True, False):
        qkv = [_param(rng, n, d) for _ in range(3)]
        qkv[1].requires_grad = k_trainable
        w = rng.normal(size=(n, d))
        (got, got_grads), (want, want_grads) = (
            _out_and_grads(lambda: attend(*qkv, rows, shape, heads), qkv, w) for attend in ops
        )
        assert np.array_equal(got, want)
        for g, e in zip(got_grads, want_grads):
            assert (g is None and e is None) or np.array_equal(g, e)
        assert (got_grads[1] is None) is not k_trainable

    # the same through projections that carry LoRA deltas on wq, wk, wv and wo
    p = {"qb": _param(rng, d), "vb": _param(rng, d)}
    for name in ("wq", "wk", "wv", "wo"):
        p[name] = _param(rng, d, d)
        p[name + ".a"], p[name + ".b"] = _param(rng, d, 2), _param(rng, 2, d)
    h = _param(rng, n, d)
    leaves = [h, *p.values()]
    w = rng.normal(size=(n, d))
    (got, got_grads), (want, want_grads) = (
        _out_and_grads(lambda: _attention_block(h, p, attend, rows, shape, heads), leaves, w) for attend in ops
    )
    assert np.array_equal(got, want)
    for g, e in zip(got_grads, want_grads):
        assert np.array_equal(g, e)


def test_causal_attention_grad_check():
    rng = np.random.default_rng(45)
    rows = _packed_rows([3, 1, 2], 4)
    qkv = [_param(rng, rows.size, 4) for _ in range(3)]
    w = rng.normal(size=(rows.size, 4))
    assert grad_check(lambda: (nm.causal_attention(*qkv, rows, (3, 4), 2) * w).sum(), qkv) < TOL


def test_attention_masks_the_keys_after_each_query():
    rng = np.random.default_rng(46)
    k, v = rng.normal(size=(2, 3, 5, 4)), rng.normal(size=(2, 3, 5, 4))
    for tq in (5, 2, 1):
        q = rng.normal(size=(2, 3, tq, 4))
        out, p = _attention(q, k, v)
        assert out.shape == q.shape and p.shape == (2, 3, tq, 5)
        # query i sits at key position i + 5 - tq and sees no key after it
        for i in range(tq):
            at = i + 5 - tq
            assert np.all(p[..., i, at + 1 :] == 0.0)
            assert np.all(p[..., i, : at + 1] > 0.0)
            assert np.allclose(p[..., i, :].sum(axis=-1), 1.0, atol=1e-12)
        later = k.copy(), v.copy()
        for a in later:
            a[..., 5 - tq + 1 :, :] += 1.0  # keys after the first query only
        assert np.array_equal(_attention(q, *later)[0][..., 0, :], out[..., 0, :])


def test_decoder_step_attention_matches_the_full_causal_row():
    # the decoder's call: one query row over a cache that holds keys 0..t
    rng = np.random.default_rng(47)
    n, heads, steps, dh = 3, 2, 9, 4
    q, k, v = (rng.normal(size=(n, heads, steps, dh)) for _ in range(3))
    full = _attention(q, k, v)[0]
    k_cache, v_cache = np.zeros_like(k), np.zeros_like(v)
    for t in range(steps):
        k_cache[:, :, t], v_cache[:, :, t] = k[:, :, t], v[:, :, t]
        row = q[:, :, t].reshape((n, heads, 1, dh))
        step = _attention(row, k_cache[:, :, : t + 1], v_cache[:, :, : t + 1])[0]
        # one row is a BLAS gemv and the full grid a gemm, so rounding may differ
        assert np.max(np.abs(step[:, :, 0] - full[:, :, t])) <= 1e-14


def test_reshape_mean_sum_grads():
    rng = np.random.default_rng(11)
    a = _param(rng, 2, 6)

    def f():
        return a.reshape(3, 4).mean(axis=0).sum() + a.sum(axis=1, keepdims=True).mean()

    assert grad_check(f, [a]) < TOL


def test_gradient_accumulates_when_tensor_is_reused():
    x = nm.Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x  # dy/dx = 2x + 1 = 5
    y.backward()
    assert x.grad[0] == pytest.approx(5.0)


def test_backward_requires_scalar():
    a = nm.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (a * 2).backward()


def test_backward_consumes_its_graph_and_a_second_backward_raises():
    w = nm.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    hidden = nm.gelu(w * 3.0)
    loss = (hidden * hidden).sum()
    loss.backward()
    first = w.grad.copy()
    assert hidden._record.parents == () and loss._record.parents == ()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    assert np.array_equal(w.grad, first)


@pytest.mark.parametrize("built_before", [True, False])
def test_backward_through_a_consumed_subgraph_raises_before_any_gradient(built_before):
    w = nm.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    v = nm.Tensor(np.array([0.5, 3.0]), requires_grad=True)
    shared = nm.gelu(w * 3.0)

    def other():  # reaches the shared subgraph and a leaf of its own
        return (v * v).sum() + (shared * v).sum()

    later = other() if built_before else None
    (shared * 2.0).sum().backward()
    first = w.grad.copy()
    with pytest.raises(RuntimeError, match="consumed"):
        (later if built_before else other()).backward()
    assert np.array_equal(w.grad, first) and v.grad is None


def test_backward_on_a_leaf_scalar_sets_its_grad():
    w = nm.Tensor(np.array(3.0), requires_grad=True)
    w.backward()
    assert w.grad.shape == () and w.grad == 1.0
    w.backward()  # a leaf has no graph to consume, so its gradient accumulates
    assert w.grad == 2.0
    constant = nm.Tensor(2.0)
    constant.backward()
    assert constant.grad is None


def test_a_matmul_output_that_feeds_a_bias_add_is_freed_and_gradients_hold():
    rng = np.random.default_rng(33)
    x, w, bias = _param(rng, 6, 5), _param(rng, 5, 3), _param(rng, 3)
    twins = [nm.Tensor(t.data.copy(), requires_grad=True) for t in (x, w, bias)]
    product = nm.matmul(x, w)
    out = product + bias
    freed = weakref.ref(product.data)
    del product  # neither the add's backward nor the matmul's reads it
    assert freed() is None
    weights = nm.Tensor(rng.normal(size=out.shape))
    (out * weights).sum().backward()
    expected = autodiff_oracle.add(autodiff_oracle.matmul(twins[0], twins[1]), twins[2])
    (expected * weights).sum().backward()
    for t, twin in zip((x, w, bias), twins, strict=True):
        assert t.grad.tobytes() == twin.grad.tobytes()


def test_nonfinite_result_trips_error():
    a = nm.Tensor(np.array([-1.0]), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(FloatingPointError):
            nm.log(a)


def test_no_grad_tensor_has_no_parents_and_the_same_data():
    w = nm.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    recorded = nm.gelu(w * 3.0 + 1.0)
    with nm.no_grad():
        out = nm.gelu(w * 3.0 + 1.0)
    assert out._record is None and not out.requires_grad
    assert out.data.tobytes() == recorded.data.tobytes()
    with warnings.catch_warnings(), nm.no_grad():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(FloatingPointError):  # the finite checks still run
            nm.log(w - 5.0)


def test_no_grad_nests_and_decorates():
    w = nm.Tensor(np.ones(3), requires_grad=True)

    @nm.no_grad()
    def doubled():
        return w * 2.0

    with nm.no_grad():
        with nm.no_grad():
            inner = w * w
        after_inner = w * w  # leaving the inner block keeps the outer one in force
        decorated = doubled()
    assert not (inner.requires_grad or after_inner.requires_grad or decorated.requires_grad)
    assert doubled()._record is None and (w * 2.0)._record is not None


def test_no_grad_is_restored_after_an_exception():
    w = nm.Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(RuntimeError, match="inside"):
        with nm.no_grad():
            raise RuntimeError("inside")
    assert (w * w).requires_grad


def test_no_grad_holds_only_in_its_own_thread():
    w = nm.Tensor(np.ones(2), requires_grad=True)
    seen = []
    worker = threading.Thread(target=lambda: seen.append((w * w).requires_grad))
    with nm.no_grad():
        worker.start()
        worker.join(timeout=30)
    assert not worker.is_alive() and seen == [True]


def test_backward_works_after_a_no_grad_block():
    w = nm.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with nm.no_grad():
        frozen = w * w
    loss = (w * w * 3.0).sum() + (frozen * w).sum()  # frozen enters as a constant
    loss.backward()
    assert np.array_equal(w.grad, 6.0 * w.data + frozen.data)


def test_softmax_rows_normalize():
    rng = np.random.default_rng(12)
    s = nm.softmax(nm.Tensor(rng.normal(size=(3, 9)) * 10))
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
    assert np.allclose(np.exp(nm.log_softmax(nm.Tensor(rng.normal(size=(3, 9)))).data).sum(axis=-1), 1.0)


def test_softmax_is_shift_stable():
    x = np.array([[1000.0, 1000.5, 999.0]])
    s = nm.softmax(nm.Tensor(x))
    assert np.isfinite(s.data).all()
    assert s.data.sum() == pytest.approx(1.0)


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


def test_checkpoint_with_a_manifest_that_is_not_json_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    nm.save_checkpoint(path, {"w": np.ones(3)})
    (tmp_path / "model.ckpt.json").write_text("{not json")
    with pytest.raises(ValueError, match="model.ckpt: its manifest model.ckpt.json is not valid JSON"):
        nm.load_checkpoint(path)


@pytest.mark.parametrize("text", ["5", "[]", '"sha256"', "{}"])
def test_checkpoint_with_a_manifest_that_is_no_object_with_a_sha256_is_rejected(tmp_path, text):
    path = tmp_path / "model.ckpt"
    nm.save_checkpoint(path, {"w": np.ones(3)})
    (tmp_path / "model.ckpt.json").write_text(text)
    with pytest.raises(ValueError, match="model.ckpt: model.ckpt.json records no sha256 of the checkpoint"):
        nm.load_checkpoint(path)


def test_checkpoint_without_its_manifest_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    nm.save_checkpoint(path, {"w": np.ones(3)}, meta={"step": 1})
    (tmp_path / "model.ckpt.json").unlink()
    with pytest.raises(ValueError, match="its manifest model.ckpt.json is missing"):
        nm.load_checkpoint(path)


def test_adam_descends_quadratic():
    target = np.array([1.0, -2.0, 3.0])
    x = nm.Tensor(np.zeros(3), requires_grad=True)
    opt = Adam([x], lr=0.1)
    first = None
    for step in range(200):
        opt.zero_grad()
        diff = x - nm.Tensor(target)
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
    params = [nm.Tensor(x.copy(), requires_grad=True) for x in start]
    oracle_params = [nm.Tensor(x.copy(), requires_grad=True) for x in start]
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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is glibc's mallopt; elsewhere it is a no-op")
def test_importing_the_engine_sets_the_glibc_allocator_policy():
    # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD both accepted: freed graph memory stays in the heap
    assert nm._MALLOPT_RESULTS == (1, 1)


def test_adam_step_allocates_no_parameter_sized_temporaries():
    rng = np.random.default_rng(12)
    weight = nm.Tensor(rng.normal(size=(425, 256)), requires_grad=True)
    bias = nm.Tensor(rng.normal(size=256), requires_grad=True)
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
    return nm.Tensor(rng.normal(size=shape))


PRUNED_CASES = {
    "add_bias": ("add", lambda rng: (_param(rng, 5, 3), _const(rng, 3))),
    "add_const_first": ("add", lambda rng: (_const(rng, 5, 3), _param(rng, 5, 3))),
    "mul_broadcast": ("mul", lambda rng: (_param(rng, 4, 3), _const(rng, 4, 1))),
    "mul_const_first": ("mul", lambda rng: (_const(rng, 3), _param(rng, 4, 3))),
    "mul_scalar": ("mul", lambda rng: (_param(rng, 4, 3), nm.Tensor(-1.0))),
    "matmul_2d_weight": ("matmul", lambda rng: (_const(rng, 6, 5), _param(rng, 5, 3))),
    "matmul_2d_input": ("matmul", lambda rng: (_param(rng, 6, 5), _const(rng, 5, 3))),
    "matmul_batched_weight": ("matmul", lambda rng: (_const(rng, 2, 6, 5), _param(rng, 5, 3))),
    "matmul_batched_input": ("matmul", lambda rng: (_param(rng, 2, 6, 5), _const(rng, 5, 3))),
    "matmul_batched_both": ("matmul", lambda rng: (_const(rng, 2, 6, 5), _param(rng, 2, 5, 3))),
    "minimum_with_ties": ("minimum", lambda rng: (_param(rng, 4, 5), nm.Tensor(np.zeros(5)))),
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
    twin = nm.Tensor(trainable.data.copy(), requires_grad=True)
    out = {"add": add, "mul": mul, "matmul": nm.matmul, "minimum": nm.minimum}[op](a, b)
    oracle_args = (twin, b) if trainable is a else (a, twin)
    expected = getattr(autodiff_oracle, op)(*oracle_args)
    assert np.array_equal(out.data, expected.data)
    # the record holds the trainable operand only, and its closure returns a gradient for
    # that operand only (checked before backward, which consumes the record)
    assert out._record.parents == tuple(t if t is trainable else None for t in (a, b))
    grads = out._record.backward(np.ones_like(out.data))
    assert [g is not None for g in grads] == [t is trainable for t in (a, b)]
    weights = nm.Tensor(rng.normal(size=out.shape))
    (out * weights).sum().backward()
    (expected * weights).sum().backward()
    assert np.array_equal(trainable.grad, twin.grad)
    constant = b if trainable is a else a
    assert constant.grad is None


def test_grad_check_flags_missing_gradient_paths():
    # sanity: the checker must notice when part of the loss bypasses autodiff
    a = nm.Tensor(np.zeros(3), requires_grad=True)

    def honest():
        return (a * a).sum()

    def leaky():
        # second term reads the raw buffer, so AD never sees it
        return (a * a).sum() + nm.Tensor(float(a.data.sum()))

    assert grad_check(honest, [a]) < TOL
    assert grad_check(leaky, [a]) > 0.1
