import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlrc import kernels, tensor as T
from rlrc.model import (
    ModelConfig, PolicyModel, ValueHead, batch_logprob_value, forward, init_model, init_value_head,
)


def _dot(x, r, saved=None):
    return np.asarray(np.sum(x * r))


def _dot_backward(g, x, r, saved):
    return (g * r,)


def dot(x, r):
    """Test-local scalarization node: sum(x * r) for a fixed array r."""
    return T.fused(_dot, _dot_backward, (x,), r)


def node(fn, *inputs_and_args):
    """One fused node of kernel ``fn`` (its backward is ``fn_backward``)."""
    return T.fused(fn, getattr(kernels, fn.__name__ + "_backward"), *inputs_and_args)


def assert_grads_match_fd(loss, tensors, rng=None, picks=None):
    """Compare each tensor's ``grad`` with float64 central differences of
    ``loss()``, a float, over the tensor's data: at every entry, or at
    ``picks`` random entries per tensor; |fd - grad| <= 1e-7 + 1e-6 |fd|."""
    eps = 1e-6
    for ti, t in enumerate(tensors):
        assert t.grad is not None and t.grad.dtype == np.float64, ti
        idxs = list(np.ndindex(t.shape)) if picks is None else \
            [tuple(rng.integers(0, n) for n in t.shape) for _ in range(picks)]
        for idx in idxs:
            orig = t.data[idx]
            with T.no_grad():
                t.data[idx] = orig + eps
                up = loss()
                t.data[idx] = orig - eps
                down = loss()
            t.data[idx] = orig
            fd = (up - down) / (2 * eps)
            assert abs(fd - t.grad[idx]) <= 1e-7 + 1e-6 * abs(fd), (ti, idx, fd, t.grad[idx])


def assert_node_matches_fd(fn, arrays, *args, seed=0):
    """Backpropagate sum(r * output) of one fused node of kernel ``fn`` over
    float64 ``arrays`` (r fixed and random) and check every input gradient
    against central differences."""
    inputs = [T.Tensor(a, dtype=np.float64) for a in arrays]
    out = node(fn, inputs, *args)
    r = np.random.default_rng(seed).standard_normal(out.shape)
    T.backward(dot(out, r))
    assert_grads_match_fd(lambda: float(np.sum(fn(*[t.data for t in inputs], *args) * r)),
                          inputs)


def ppo_rows(rng, logits, ratios, signs):
    """(actions, old log-probs, advantages, returns) for float64 (N, A)
    logits whose probability ratios are ``ratios`` and whose advantages
    have ``signs``; no ratio sits within 0.05 of a clip bound."""
    n, a = logits.shape
    actions = rng.integers(0, a, n)
    lp = kernels.log_softmax(logits)[np.arange(n), actions]
    adv = np.asarray(signs) * rng.uniform(0.2, 1.5, n)
    return actions, lp - np.log(ratios), adv, rng.standard_normal(n)


# closed forms of the kernels -------------------------------------------------

def test_matmul_identity():
    w = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    np.testing.assert_array_equal(kernels.linear(np.eye(2, dtype=np.float32), w), w)


def test_matmul_hand_case():
    out = kernels.linear(np.array([[[1.0, 2.0]]]), np.array([[3.0], [4.0]]))
    np.testing.assert_array_equal(out, [[[11.0]]])


def test_matmul_zero_case():
    out = kernels.linear(np.zeros((2, 3), dtype=np.float32), np.ones((3, 4), dtype=np.float32))
    assert out.shape == (2, 4)
    assert np.all(out == 0)


def test_cross_entropy_certainty():
    # one scorching-hot logit => probability ~1 on the target
    loss = kernels.nll(np.array([[50.0, 0.0, 0.0]], dtype=np.float32), np.array([0]))
    assert loss.dtype == np.float32 and abs(float(loss)) < 1e-6


def test_cross_entropy_uniform_closed_form():
    loss = kernels.nll(np.zeros((3, 1, 16), dtype=np.float32), np.array([0, 5, 15]))
    assert abs(float(loss) - np.log(16.0)) < 1e-6


def test_cross_entropy_out_of_range_id():
    # a negative id would silently wrap around under numpy indexing
    logits = np.zeros((1, 4), dtype=np.float32)
    for bad in (4, -1):
        with pytest.raises(IndexError, match=r"out of range \[0, 4\)"):
            kernels.nll(logits, np.array([bad]))
    with pytest.raises(T.ShapeError):
        kernels.nll(logits, np.array([0, 1]))


def test_softmax_symmetry():
    np.testing.assert_allclose(np.exp(kernels.log_softmax(np.zeros(2))), [0.5, 0.5])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.integers(1, 9))
def test_softmax_rows_sum_to_one(seed, rows, cols):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols)).astype(np.float32) * 5
    saved = {}
    log_p = kernels.log_softmax(x, saved)
    assert log_p.dtype == np.float32 and np.all(log_p <= 0)
    np.testing.assert_allclose(np.exp(log_p.astype(np.float64)).sum(axis=-1), 1.0, atol=1e-6)
    np.testing.assert_allclose(saved["p"].sum(axis=-1), 1.0, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 8))
def test_rms_norm_unit_rms(seed, cols):
    # O(1)-scale rows: the eps term is negligible there, as in real use
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 3.0, (3, cols)) * rng.choice([-1.0, 1.0], (3, cols))
    out = kernels.rms_rows(x.astype(np.float32), np.ones(cols, dtype=np.float32))
    rms = np.sqrt(np.mean(np.square(out.astype(np.float64)), axis=-1))
    np.testing.assert_allclose(rms, 1.0, atol=1e-5)


def test_embedding_lookup_and_grad():
    tok = T.Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
    pos = T.Tensor(np.zeros((5, 3), dtype=np.float32))
    ids = np.array([[0, 2, 2]])
    out = node(kernels.embed, (tok, pos), ids)
    np.testing.assert_array_equal(out.data[0, 1], out.data[0, 2])
    np.testing.assert_array_equal(out.data[0, 1], tok.data[2])
    T.backward(dot(out, np.ones((1, 3, 3))))
    expected = np.zeros((4, 3), dtype=np.float32)
    expected[0] = 1
    expected[2] = 2
    np.testing.assert_array_equal(tok.grad, expected)
    np.testing.assert_array_equal(pos.grad, [[1] * 3] * 3 + [[0] * 3] * 2)


# the graph ---------------------------------------------------------------------

def test_backward_linear():
    # d/dw of sum(x @ w) is x^T 1
    x = np.arange(6, dtype=np.float32).reshape(2, 3)
    w = T.Tensor(np.ones((3, 2)))
    T.backward(dot(node(kernels.linear, (x, w)), np.ones((2, 2))))
    np.testing.assert_array_equal(w.grad, x.T @ np.ones((2, 2)))


def test_backward_non_scalar_rejected():
    w = T.Tensor(np.ones((2, 2)))
    with pytest.raises(T.GradError, match="scalar"):
        T.backward(node(kernels.linear, (np.ones((1, 2)), w)))


def test_backward_twice_rejected():
    logits = T.Tensor(np.zeros((2, 3)))
    loss = node(kernels.nll, (logits,), np.array([0, 2]))
    T.backward(loss)
    with pytest.raises(T.GradError, match="twice"):
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

    w = T.Tensor(np.ones(4))
    loss = T.fused(last_fn, last_bw, [T.fused(first_fn, first_bw, [w])])
    T.backward(loss)
    assert len(refs) == 1 and alive == [False]
    np.testing.assert_array_equal(w.grad, np.full(4, 2.0, dtype=np.float32))


def test_backward_empty_tape_rejected():
    with pytest.raises(T.GradError):
        T.backward(T.Tensor([1.0]))


def test_backward_scale_seeds_the_loss_gradient():
    logits = T.Tensor(np.array([[1.0, -1.0, 0.5]]))
    T.backward(node(kernels.nll, (logits,), np.array([1])))
    once, logits.grad = logits.grad, None
    T.backward(node(kernels.nll, (logits,), np.array([1])), scale=0.25)
    np.testing.assert_allclose(logits.grad, 0.25 * once, rtol=1e-6)


def test_no_grad_blocks_graph():
    w = T.Tensor(np.ones((2, 2)))
    with T.no_grad():
        out = node(kernels.linear, (np.ones((1, 2)), w))
        loss = dot(out, np.ones((1, 2)))
    with pytest.raises(T.GradError, match="empty tape"):
        T.backward(loss)
    # a no-grad output is a leaf: a graph built on it with grad enabled
    # stops there, and the parameter behind it receives nothing
    T.backward(dot(out, np.ones((1, 2))))
    assert w.grad is None and out.grad is not None
    # with grad enabled the same node records, and the parameter receives
    T.backward(dot(node(kernels.linear, (np.ones((1, 2)), w)), np.ones((1, 2))))
    np.testing.assert_array_equal(w.grad, np.ones((2, 2)))


def test_determinism_same_seed_bit_identical():
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(1234)
        x = rng.standard_normal((4, 8)).astype(np.float32)
        w = T.Tensor(rng.standard_normal((8, 8)).astype(np.float32))
        loss = node(kernels.nll, (node(kernels.linear, (x, w)),), np.arange(4))
        T.backward(loss)
        outs.append((kernels.log_softmax(x @ w.data), loss.data, w.grad))
    for a, b in zip(*outs):
        np.testing.assert_array_equal(a, b)


def test_backward_in_chunks_matches_one_pass():
    # 70 rows: two full chunks and a partial one; the loss is a row mean
    rng = np.random.default_rng(0)
    x = rng.standard_normal((70, 5)).astype(np.float32)
    y = rng.integers(0, 3, 70)
    w = T.Tensor(rng.standard_normal((5, 3)))

    def row_mean(r0, r1):
        return node(kernels.nll, (node(kernels.linear, (x[r0:r1], w)),), y[r0:r1])

    ref = row_mean(0, 70)
    T.backward(ref)
    ref_grad, w.grad = w.grad, None
    spans = []

    def loss_fn(r0, r1):
        spans.append((r0, r1))
        loss = row_mean(r0, r1)
        return loss, 2.0 * float(loss.data), float(r1 - r0)

    loss, doubled, rows = T.backward_in_chunks(loss_fn, 70, 32)
    assert spans == [(0, 32), (32, 64), (64, 70)]
    assert loss == pytest.approx(float(ref.data), rel=1e-6)
    assert doubled == pytest.approx(2 * loss, rel=1e-12)
    assert rows == pytest.approx((32 * 32 + 32 * 32 + 6 * 6) / 70)
    np.testing.assert_allclose(w.grad, ref_grad, rtol=1e-5, atol=1e-6)


def test_backward_in_chunks_rejects_an_empty_batch():
    for n, rows in ((0, 32), (70, 0)):
        with pytest.raises(T.GradError, match=f"at least 1 row, got {n} in chunks of {rows}"):
            T.backward_in_chunks(lambda r0, r1: pytest.fail("called"), n, rows)


# gradient fidelity: hand-written backwards vs central finite differences -----

def _random_case(seed):
    """A kernel with random float64 inputs of random sizes: (fn, arrays, args)."""
    rng = np.random.default_rng(seed)
    b, s, d, a = (int(rng.integers(lo, hi)) for lo, hi in ((1, 4), (1, 5), (2, 6), (2, 7)))

    def normal(*shape):
        return rng.standard_normal(shape)

    kind = seed % 5
    if kind == 0:  # ids repeat, so a row sums several gradients
        vocab = int(rng.integers(2, 6))
        ids = rng.integers(0, vocab, (b, s))
        return kernels.embed, [normal(vocab, d), normal(s + 2, d)], (ids,)
    if kind == 1:
        return kernels.linear, [normal(b, s, d), normal(d, a)], ()
    if kind == 2:
        width = int(rng.integers(2, 8))
        return kernels.value_mlp, [normal(b, 1, d), normal(d, width), normal(width),
                                   normal(width, 1), normal(1)], ()
    if kind == 3:
        return kernels.nll, [2 * normal(b * s, 1, a)], (rng.integers(0, a, b * s),)
    logits, values = 2 * normal(b * s, a), normal(b * s)
    rows = ppo_rows(rng, logits, rng.choice([0.5, 0.9, 1.1, 1.5], b * s),
                    rng.choice([-1.0, 1.0], b * s))
    return kernels.ppo_objective, [logits, values], rows + (0.2, 0.5, 0.05, {})


@pytest.mark.parametrize("seed", range(20))
def test_gradient_fidelity_finite_differences(seed):
    fn, arrays, args = _random_case(seed)
    assert_node_matches_fd(fn, arrays, *args, seed=seed)


def test_ppo_objective_gradients_match_finite_differences():
    # ratios clipped above and below the range and inside it, each with
    # both signs of advantage
    rng = np.random.default_rng(3)
    ratios = np.repeat([0.5, 0.7, 1.0, 1.1, 1.4, 2.0], 2)
    signs = np.tile([1.0, -1.0], 6)
    logits = 2 * rng.standard_normal((12, 1, 5))
    rows = ppo_rows(rng, logits.reshape(12, 5), ratios, signs)
    terms = {}
    assert_node_matches_fd(kernels.ppo_objective, [logits, rng.standard_normal(12)], *rows,
                           0.25, 0.5, 0.1, terms)
    assert set(terms) == {"surrogate", "value_loss", "entropy"} and terms["entropy"] > 0


def test_ppo_objective_through_the_shared_backbone_matches_finite_differences():
    # the critic reads the backbone's hidden state, so the backbone's
    # gradient holds the value term's share as well as the policy terms'
    cfg = ModelConfig(d_model=8, n_layers=1, n_heads_base=2, d_ff_base=6,
                      observation_vocab=12, action_vocab=6, max_seq_len=8)

    def float64(named):
        return {name: T.Tensor(p.data.astype(np.float64), dtype=np.float64)
                for name, p in named}

    m = PolicyModel(cfg, float64(init_model(cfg, seed=2).named_params()))
    vh = ValueHead(float64(init_value_head(cfg.d_model, seed=4).named_params()))
    rng = np.random.default_rng(1)
    ctx = np.concatenate([rng.integers(0, 12, (8, 4)), np.full((8, 1), cfg.bos_action_id)], 1)
    with T.no_grad():
        logits0, _ = forward(m, ctx)
    rows = ppo_rows(rng, logits0.data[:, -1], np.repeat([0.6, 1.0, 1.5, 1.05], 2),
                    np.tile([1.0, -1.0], 4))

    def objective(logits, values):
        return T.fused(kernels.ppo_objective, kernels.ppo_objective_backward, (logits, values),
                       *rows, 0.2, 0.5, 0.01, {})

    T.backward(objective(*batch_logprob_value(m, vh, ctx)))

    def loss():
        return float(objective(*batch_logprob_value(m, vh, ctx)).data)

    assert_grads_match_fd(loss, m.params() + vh.params(), rng, picks=3)


# adam -------------------------------------------------------------------------

def test_adam_zero_grad_noop():
    p = T.Tensor([1.0, -2.0])
    st_ = T.OptimizerState([p], lr=0.1)
    p.grad = np.zeros(2, dtype=np.float32)
    T.adam_step(st_)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_magnitude():
    p = T.Tensor([0.0])
    st_ = T.OptimizerState([p], lr=0.1)
    p.grad = np.ones(1, dtype=np.float32)
    T.adam_step(st_)
    # bias correction makes mhat = vhat = 1 on step one
    assert abs(abs(float(p.data[0])) - 0.1) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_steps_equal_plain_formula(dtype):
    # the in-place update rounds exactly as the formula written out
    rng = np.random.default_rng(5)
    p = T.Tensor(rng.standard_normal((4, 3)), dtype=dtype)
    st_ = T.OptimizerState([p], lr=0.01)
    lr, b1, b2, eps = st_.lr, T.ADAM_B1, T.ADAM_B2, T.ADAM_EPS
    w, m, v = p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)
    for t in range(1, 6):
        g = rng.standard_normal(w.shape).astype(dtype)
        p.grad = g.copy()
        T.adam_step(st_)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        w = w - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        assert p.data.dtype == dtype
        np.testing.assert_array_equal(st_.m[0], m)
        np.testing.assert_array_equal(st_.v[0], v)
        np.testing.assert_array_equal(p.data, w)


def test_adam_step_counter_and_grad_clear():
    p = T.Tensor([0.0])
    st_ = T.OptimizerState([p], lr=0.1)
    for i in range(3):
        p.grad = np.ones(1, dtype=np.float32)
        T.adam_step(st_)
        assert st_.step_count == i + 1
        assert p.grad is None


def test_adam_missing_grad_rejected():
    p = T.Tensor([0.0])
    with pytest.raises(T.GradError):
        T.adam_step(T.OptimizerState([p], lr=0.1))
