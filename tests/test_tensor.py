import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlrc import kernels, tensor as T


def test_matmul_identity():
    a = T.Tensor(np.eye(2, dtype=np.float32))
    b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(a, b)
    np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])


def test_matmul_hand_case():
    out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_zero_case():
    out = T.matmul(T.Tensor(np.zeros((2, 3), dtype=np.float32)),
                   T.Tensor(np.ones((3, 4), dtype=np.float32)))
    assert out.data.shape == (2, 4)
    assert np.all(out.data == 0)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 5))))


def test_cross_entropy_certainty():
    # one scorching-hot logit => probability ~1 on the target
    logits = T.Tensor(np.array([[50.0, 0.0, 0.0]], dtype=np.float32))
    loss = T.cross_entropy(logits, np.array([0]))
    assert abs(float(loss.data)) < 1e-6


def test_cross_entropy_uniform_closed_form():
    logits = T.Tensor(np.zeros((3, 16), dtype=np.float32))
    loss = T.cross_entropy(logits, np.array([0, 5, 15]))
    assert abs(float(loss.data) - np.log(16.0)) < 1e-6


def test_cross_entropy_out_of_range_id():
    logits = T.Tensor(np.zeros((1, 4), dtype=np.float32))
    with pytest.raises(IndexError):
        T.cross_entropy(logits, np.array([4]))


def test_softmax_symmetry():
    out = T.softmax(T.Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_zero_axis_error():
    with pytest.raises(T.ShapeError):
        T.softmax(T.Tensor(np.zeros((2, 0), dtype=np.float32)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.integers(1, 9))
def test_softmax_rows_sum_to_one(seed, rows, cols):
    rng = np.random.default_rng(seed)
    x = T.Tensor(rng.standard_normal((rows, cols)).astype(np.float32) * 5)
    out = T.softmax(x, axis=-1).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 8))
def test_rms_norm_unit_rms(seed, cols):
    # O(1)-scale rows: the eps term is negligible there, as in real use
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 3.0, (3, cols)) * rng.choice([-1.0, 1.0], (3, cols))
    out = kernels.rms_rows(x.astype(np.float32), np.ones(cols, dtype=np.float32))
    rms = np.sqrt(np.mean(np.square(out.astype(np.float64)), axis=-1))
    np.testing.assert_allclose(rms, 1.0, atol=1e-5)


def test_backward_linear():
    w = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    T.backward(T.sum_(w))
    np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])


def test_backward_square():
    w = T.Tensor([3.0], requires_grad=True)
    T.backward(T.sum_(T.mul(w, w)))
    np.testing.assert_allclose(w.grad, [6.0])


def test_backward_non_scalar_rejected():
    w = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(T.GradError):
        T.backward(T.mul(w, 2.0))


def test_backward_twice_rejected():
    w = T.Tensor([2.0], requires_grad=True)
    loss = T.sum_(T.mul(w, w))
    T.backward(loss)
    with pytest.raises(T.GradError):
        T.backward(loss)


def test_backward_frees_each_node_after_its_backward():
    # leaf -> first -> last: the sweep runs last's backward first, and has
    # released last's saved array by the time it reaches first
    refs, alive = [], []

    def last_fn(a, saved=None):
        tmp = a * 2.0
        if saved is not None:
            saved["tmp"] = tmp
            refs.append(weakref.ref(tmp))
        return np.asarray(tmp.sum())

    def last_bw(g, a, saved):
        return (np.full_like(a, 2.0 * float(g)),)

    def first_fn(a, saved=None):
        return a + 1.0

    def first_bw(g, a, saved):
        alive.append(refs[0]() is not None)
        return (g,)

    w = T.Tensor(np.ones(4), requires_grad=True)
    loss = T.fused(last_fn, last_bw, [T.fused(first_fn, first_bw, [w])])
    T.backward(loss)
    assert len(refs) == 1 and alive == [False]
    np.testing.assert_array_equal(w.grad, np.full(4, 2.0, dtype=np.float32))


def test_backward_empty_tape_rejected():
    with pytest.raises(T.GradError):
        T.backward(T.Tensor([1.0]))


def test_embedding_lookup_and_grad():
    table = T.Tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
    ids = np.array([0, 2, 2])
    out = T.embedding_lookup(table, ids)
    np.testing.assert_array_equal(out.data[1], out.data[2])
    T.backward(T.sum_(out))
    expected = np.zeros((4, 3), dtype=np.float32)
    expected[0] = 1
    expected[2] = 2
    np.testing.assert_array_equal(table.grad, expected)


def test_embedding_out_of_range():
    table = T.Tensor(np.zeros((4, 3), dtype=np.float32))
    with pytest.raises(IndexError):
        T.embedding_lookup(table, np.array([4]))


# -- gradient fidelity: autodiff vs central finite differences ------------

def _random_graph(seed):
    """A small random net mixing the op set; returns (params, loss_fn)."""
    rng = np.random.default_rng(seed)
    din, dh, dout = rng.integers(2, 6), rng.integers(2, 8), rng.integers(2, 5)
    x = rng.standard_normal((3, din)) * 0.8
    tgt = rng.integers(0, dout, size=3)
    kind = seed % 3

    def loss_fn(w1, w2, g):
        h = T.silu(T.matmul(T.Tensor(x.astype(w1.dtype), dtype=w1.dtype), w1))
        h = T.fused(kernels.rms_rows, kernels.rms_rows_backward, (h, g))
        logits = T.matmul(h, w2)
        if kind == 0:
            return T.cross_entropy(logits, tgt)
        if kind == 1:
            p = T.softmax(logits, -1)
            return T.mean(T.square(T.sub(p, 0.3)))
        return T.mean(T.mul(T.exp(T.mul(logits, 0.1)), logits))

    shapes = [(din, dh), (dh, dout), (dh,)]
    inits = [rng.standard_normal(s) * 0.5 for s in shapes]
    return inits, loss_fn


@pytest.mark.parametrize("seed", range(20))
def test_gradient_fidelity_finite_differences(seed):
    inits, loss_fn = _random_graph(seed)
    params32 = [T.Tensor(w.astype(np.float32), requires_grad=True) for w in inits]
    T.backward(loss_fn(*params32))
    h = 1e-3
    for pi, w in enumerate(inits):
        ad = params32[pi].grad
        fd = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            params64 = [T.Tensor(v.copy(), dtype=np.float64) for v in inits]
            params64[pi].data[idx] += h
            up = float(loss_fn(*params64).data)
            params64 = [T.Tensor(v.copy(), dtype=np.float64) for v in inits]
            params64[pi].data[idx] -= h
            down = float(loss_fn(*params64).data)
            fd[idx] = (up - down) / (2 * h)
        rel = np.abs(ad - fd) / np.maximum(np.abs(fd), 1e-3)
        assert rel.max() < 1e-3, f"param {pi}: max rel err {rel.max()}"


def test_determinism_same_seed_bit_identical():
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(1234)
        x = T.Tensor(rng.standard_normal((4, 8)).astype(np.float32))
        w = T.Tensor(rng.standard_normal((8, 8)).astype(np.float32))
        outs.append(T.softmax(T.matmul(x, w), -1).data)
    np.testing.assert_array_equal(outs[0], outs[1])


# -- adam -------------------------------------------------------------------

def test_adam_zero_grad_noop():
    p = T.Tensor([1.0, -2.0], requires_grad=True)
    st_ = T.OptimizerState([p], lr=0.1)
    p.grad = np.zeros(2, dtype=np.float32)
    T.adam_step(st_)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_magnitude():
    p = T.Tensor([0.0], requires_grad=True)
    st_ = T.OptimizerState([p], lr=0.1)
    p.grad = np.ones(1, dtype=np.float32)
    T.adam_step(st_)
    # bias correction makes mhat = vhat = 1 on step one
    assert abs(abs(float(p.data[0])) - 0.1) < 1e-6


def test_adam_step_counter_and_grad_clear():
    p = T.Tensor([0.0], requires_grad=True)
    st_ = T.OptimizerState([p])
    for i in range(3):
        p.grad = np.ones(1, dtype=np.float32)
        T.adam_step(st_)
        assert st_.step_count == i + 1
        assert p.grad is None


def test_adam_missing_grad_rejected():
    p = T.Tensor([0.0], requires_grad=True)
    with pytest.raises(T.GradError):
        T.adam_step(T.OptimizerState([p]))


def test_no_grad_blocks_graph():
    w = T.Tensor([1.0], requires_grad=True)
    with T.no_grad():
        out = T.mul(w, w)
    assert not out.requires_grad


def test_backward_in_chunks_matches_one_pass():
    # 70 rows: two full chunks and a partial one; the loss is a row mean
    rng = np.random.default_rng(0)
    x = rng.standard_normal((70, 5)).astype(np.float32)
    y = rng.standard_normal((70, 3)).astype(np.float32)
    w = T.Tensor(rng.standard_normal((5, 3)), requires_grad=True)

    def row_mean(r0, r1):
        err = T.sub(T.matmul(T.Tensor(x[r0:r1]), w), y[r0:r1])
        return T.mean(T.sum_(T.square(err), axis=1))

    ref = row_mean(0, 70)
    T.backward(ref)
    ref_grad, w.grad = w.grad, None
    spans = []

    def loss_fn(r0, r1):
        spans.append((r0, r1))
        loss = row_mean(r0, r1)
        return loss, T.mul(loss, 2.0), float(r1 - r0)

    loss, doubled, rows = T.backward_in_chunks(loss_fn, 70)
    assert spans == [(0, 32), (32, 64), (64, 70)]
    assert loss == pytest.approx(float(ref.data), rel=1e-6)
    assert doubled == pytest.approx(2 * loss, rel=1e-12)
    assert rows == pytest.approx((32 * 32 + 32 * 32 + 6 * 6) / 70)
    np.testing.assert_allclose(w.grad, ref_grad, rtol=1e-5, atol=1e-6)
