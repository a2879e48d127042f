import hashlib
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import rlrc
from rlrc import kernels, model as model_module
from rlrc.model import (
    ModelConfig,
    PolicyModel,
    batch_logprob_value,
    build_contexts,
    chunk_rows,
    forward,
    greedy_actions,
    ValueHead,
    init_model,
    init_value_head,
    param_shapes,
)
from rlrc.tensor import GradError, ShapeError, Tensor, backward, fused, no_grad


def _dot(x, r, saved=None):
    return np.asarray(np.sum(x * r))


def _dot_backward(g, x, r, saved):
    return (g * r,)


def dot(x, r):
    """Test-local scalarization node: sum(x * r) for a fixed array r."""
    return fused(_dot, _dot_backward, (x,), r)


def tiny_config(**kw):
    base = dict(d_model=16, n_layers=2, n_heads_base=2, d_ff_base=24,
                observation_vocab=12, action_vocab=6, max_seq_len=16, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def layer_weights(m, li, *names):
    """The arrays of layer ``li``'s parameters ``names``, in that order."""
    params = dict(m.named_params())
    return [params[f"layers.{li}.{name}"].data for name in names]


def ctx_for(cfg, length=5, seed=0):
    """A (1, length + 1) batch: random observation tokens, then the marker."""
    rng = np.random.default_rng(seed)
    toks = rng.integers(0, cfg.observation_vocab, size=length)
    return np.append(toks, cfg.bos_action_id)[None]


def test_init_deterministic():
    cfg = tiny_config(seed=3)
    a, b = init_model(cfg), init_model(cfg)
    for (na, pa), (_, pb) in zip(a.named_params(), b.named_params()):
        np.testing.assert_array_equal(pa.data, pb.data, err_msg=na)


def test_models_hold_their_own_config():
    cfg = tiny_config()
    m = init_model(cfg)
    cfg.d_ff[0] = 1  # the caller's config is not the model's
    assert m.config == tiny_config()
    c = m.copy()
    assert c.config == m.config and c.config is not m.config
    assert c.config.d_ff is not m.config.d_ff


def test_constructors_name_a_missing_or_unexpected_parameter():
    cfg = tiny_config()
    params = dict(init_model(cfg).named_params())
    head = dict(init_value_head(cfg.d_model, seed=0).named_params())
    without_wk = {n: p for n, p in params.items() if n != "layers.1.wk"}
    renumbered = {n.replace("layers.1.", "layers.2."): p for n, p in params.items()}
    for build, what in (
            (lambda: PolicyModel(cfg, without_wk), "missing ['layers.1.wk'], unexpected []"),
            (lambda: PolicyModel(cfg, {**params, **head}),
             f"missing [], unexpected {list(head)}"),
            (lambda: PolicyModel(cfg, renumbered),
             f"missing {[n for n in params if n.startswith('layers.1.')]}, "
             f"unexpected {[n for n in renumbered if n.startswith('layers.2.')]}"),
            (lambda: ValueHead({**head, "tok_emb": params["tok_emb"]}),
             "missing [], unexpected ['tok_emb']"),
            (lambda: ValueHead({n: p for n, p in head.items() if n != "value_head.b2"}),
             "missing ['value_head.b2'], unexpected []")):
        with pytest.raises(ValueError, match=re.escape(what)):
            build()


def test_parameters_are_held_in_param_shapes_order():
    cfg = tiny_config()
    params = dict(reversed(list(init_model(cfg).named_params())))
    m = PolicyModel(cfg, params)
    assert [n for n, _ in m.named_params()] == list(param_shapes(cfg))
    assert all(p is params[n] for n, p in m.named_params())


def test_init_values_pinned():
    # perfbench's models are init_model outputs: a fixed seed keeps its values
    h = hashlib.sha256()
    cfg = ModelConfig(n_heads=[4, 3, 1, 1, 2, 4], d_ff=[512, 5, 1, 1, 9, 512], seed=11)
    for _, p in init_model(cfg).named_params():
        h.update(p.data.tobytes())
    for _, p in init_value_head(128, seed=3).named_params():
        h.update(p.data.tobytes())
    assert h.hexdigest() == "7d252043056c0979d062e7482cc57a9882c8bd3a530109b6d4999d82e4d5c90f"


def test_init_different_seeds_differ():
    cfg = tiny_config()
    a, b = init_model(tiny_config(seed=0)), init_model(tiny_config(seed=1))
    ctx = ctx_for(cfg)
    la, _ = forward(a, ctx)
    lb, _ = forward(b, ctx)
    assert np.abs(la.data - lb.data).max() > 1e-4


def test_param_count_closed_form_default():
    cfg = ModelConfig()
    m = init_model(cfg)
    d, hd = cfg.d_model, cfg.head_dim
    per_layer = 4 * d * (cfg.n_heads_base * hd) + 3 * d * cfg.d_ff_base + 2 * d
    expected = (cfg.total_vocab * d + cfg.max_seq_len * d
                + cfg.n_layers * per_layer + d + d * cfg.action_vocab)
    assert m.num_params() == expected


def test_chunk_rows_fit_the_activation_budget():
    def width(cfg):
        """Summed output widths of wq wk wv wo wup wgate wdown."""
        return sum(3 * h * cfg.head_dim + 2 * f + 2 * cfg.d_model
                   for h, f in zip(cfg.n_heads, cfg.d_ff))

    budget = model_module._CHUNK_VALUES
    recipe = ModelConfig(n_heads=[4, 3, 1, 1, 1, 4], d_ff=[512, 1, 1, 1, 1, 512])
    assert (width(ModelConfig()), width(recipe)) == (9984, 4936)
    assert (chunk_rows(ModelConfig(), 16), chunk_rows(recipe, 16)) == (15, 32)
    huge = ModelConfig(d_model=1024, n_layers=8, n_heads_base=8, d_ff_base=16384)
    assert 16 * width(huge) > budget and chunk_rows(huge, 16) == 1
    rng = np.random.default_rng(0)
    for _ in range(200):
        heads, n_layers = (int(v) for v in rng.integers(1, 9, size=2))
        cfg = ModelConfig(d_model=heads * int(rng.integers(1, 65)), n_layers=n_layers,
                          n_heads_base=heads,
                          n_heads=[int(h) for h in rng.integers(1, heads + 1, n_layers)],
                          d_ff=[int(f) for f in rng.integers(1, 4097, n_layers)])
        context = int(rng.integers(1, 33))
        rows, one_row = chunk_rows(cfg, context), context * width(cfg)
        if one_row > budget:
            assert rows == 1
        else:
            assert rows * one_row <= budget < (rows + 1) * one_row


def test_invalid_dims_rejected():
    with pytest.raises(ValueError):
        ModelConfig(d_model=0)
    with pytest.raises(ValueError):
        ModelConfig(d_model=10, n_heads_base=4)


def test_forward_shapes():
    cfg = tiny_config()
    m = init_model(cfg)
    ctx = ctx_for(cfg, 7)
    # the last position only, keeping a length-1 position axis
    logits, hidden = forward(m, ctx)
    assert logits.data.shape == (1, 1, cfg.action_vocab)
    assert hidden.data.shape == (1, 1, cfg.d_model)
    logits, hidden = forward(m, np.concatenate([ctx, ctx]))
    assert logits.data.shape == (2, 1, cfg.action_vocab)
    assert hidden.data.shape == (2, 1, cfg.d_model)


def test_forward_rejects_overlong_and_bad_ids():
    cfg = tiny_config(max_seq_len=4)
    m = init_model(cfg)
    with pytest.raises(ShapeError):
        forward(m, np.zeros((1, 5), dtype=np.int64))
    with pytest.raises(ShapeError):
        forward(m, np.zeros((2, 0), dtype=np.int64))
    with pytest.raises(IndexError):
        forward(m, np.array([[cfg.total_vocab]]))
    # tokens are a (B, S) batch only: any other rank is refused by shape
    for shape in ((3,), (2, 1, 3)):
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            forward(m, np.zeros(shape, dtype=np.int64))


def test_forward_same_with_and_without_grad():
    cfg = tiny_config(n_heads=[2, 1], d_ff=[24, 7], seed=5)
    m = init_model(cfg)
    ctx = np.concatenate([ctx_for(cfg, 6, seed=i) for i in range(4)])
    logits, hidden = forward(m, ctx)
    with no_grad():
        logits_ng, hidden_ng = forward(m, ctx)
        with pytest.raises(GradError, match="empty tape"):
            backward(dot(logits_ng, np.ones(logits_ng.shape)))
    np.testing.assert_array_equal(logits.data, logits_ng.data)
    np.testing.assert_array_equal(hidden.data, hidden_ng.data)
    backward(dot(logits, np.ones(logits.shape)))
    assert all(p.grad is not None for p in m.params())


def attn_block_rows(monkeypatch):
    """Batch size of every `kernels.attn_block` call from here on."""
    rows = []
    real = kernels.attn_block

    def counted(x, *args, **kw):
        rows.append(x.shape[0])
        return real(x, *args, **kw)

    monkeypatch.setattr(kernels, "attn_block", counted)
    return rows


def test_no_grad_forward_decodes_large_batches_in_slices(monkeypatch):
    # 150 contexts: two full 64-row slices and a partial one; layer 1 has one
    # MLP channel, so it runs the inner-dimension-1 products too
    cfg = tiny_config(n_heads=[2, 1], d_ff=[24, 1], seed=5)
    m = init_model(cfg)
    ctx = np.concatenate([ctx_for(cfg, 6, seed=i) for i in range(150)])
    rows = attn_block_rows(monkeypatch)
    with no_grad():
        logits, hidden = forward(m, ctx)
        assert rows == [64, 64, 64, 64, 22, 22]
        rows.clear()
        pieces = [forward(m, ctx[r:r + 64]) for r in (0, 64, 128)]
        assert rows == [64, 64, 64, 64, 22, 22]  # a serving batch of 64 is one piece
    assert logits.shape == (150, 1, cfg.action_vocab) and hidden.shape == (150, 1, cfg.d_model)
    assert logits.dtype == hidden.dtype == np.float32
    np.testing.assert_array_equal(logits.data, np.concatenate([lg.data for lg, _ in pieces]))
    np.testing.assert_array_equal(hidden.data, np.concatenate([h.data for _, h in pieces]))


def test_grad_forward_is_one_graph_over_all_rows(monkeypatch):
    cfg = tiny_config(n_heads=[2, 1], d_ff=[24, 1], seed=5)
    m = init_model(cfg)
    ctx = np.concatenate([ctx_for(cfg, 6, seed=i) for i in range(150)])
    rows = attn_block_rows(monkeypatch)
    logits, hidden = forward(m, ctx)
    assert rows == [150, 150]
    backward(dot(logits, np.ones(logits.shape)))
    assert all(p.grad is not None for p in m.params())
    with no_grad():
        logits_ng, hidden_ng = forward(m, ctx)
    np.testing.assert_allclose(logits.data, logits_ng.data, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(hidden.data, hidden_ng.data, rtol=1e-6, atol=1e-6)


def reference_logits(m, tokens):
    """Plain float64 numpy decoder, one attention head at a time."""
    cfg = m.config
    w = {name: p.data.astype(np.float64) for name, p in m.named_params()}
    s = tokens.shape[-1]
    hd = cfg.head_dim
    causal = np.tril(np.ones((s, s), dtype=bool))

    def norm(x, gain):
        return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6) * gain

    x = w["tok_emb"][tokens] + w["pos_emb"][:s]
    for li in range(cfg.n_layers):
        lw = {name.split(".")[-1]: a for name, a in w.items()
              if name.startswith(f"layers.{li}.")}
        xn = norm(x, lw["attn_gain"])
        q, k, v = xn @ lw["wq"], xn @ lw["wk"], xn @ lw["wv"]
        heads = []
        for h in range(cfg.n_heads[li]):
            cols = slice(h * hd, (h + 1) * hd)
            scores = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2) / np.sqrt(hd)
            scores = np.where(causal, scores, -np.inf)
            p = np.exp(scores - scores.max(axis=-1, keepdims=True))
            heads.append(p / p.sum(axis=-1, keepdims=True) @ v[..., cols])
        x = x + np.concatenate(heads, axis=-1) @ lw["wo"]
        xn = norm(x, lw["mlp_gain"])
        gate = xn @ lw["wgate"]
        x = x + (xn @ lw["wup"] * gate / (1.0 + np.exp(-gate))) @ lw["wdown"]
    return norm(x, w["final_gain"]) @ w["w_act"]


def test_forward_matches_float64_reference():
    cfg = tiny_config(n_heads=[2, 1], d_ff=[24, 7], seed=3)
    m = init_model(cfg)
    ctx = np.concatenate([ctx_for(cfg, 9, seed=i) for i in range(3)])
    logits, _ = forward(m, ctx)
    assert logits.data.shape == (3, 1, cfg.action_vocab)
    assert np.abs(logits.data[:, 0] - reference_logits(m, ctx)[:, -1]).max() < 1e-5


def test_causality_prefixes_match_reference():
    # the output for a prefix is the full sequence's reference row at its end:
    # no position reads a later one
    cfg = tiny_config(n_heads=[2, 1], d_ff=[24, 7], seed=1)
    m = init_model(cfg)
    ctx = ctx_for(cfg, 8)
    ref = reference_logits(m, ctx)[0]
    for j in range(1, ctx.shape[1] + 1):
        logits, _ = forward(m, ctx[:, :j])
        assert logits.data.shape == (1, 1, cfg.action_vocab)
        assert np.abs(logits.data[0, 0] - ref[j - 1]).max() < 1e-5, j


def test_attn_block_query_rows_match_full_block():
    # float32: a 1-row mask gives the full block's last row, and its backward
    # the full backward of a gradient that is zero off the last row
    cfg = tiny_config(n_heads=[2, 1], d_ff=[24, 7], seed=4)
    m = init_model(cfg)
    rng = np.random.default_rng(1)
    b, s, d = 3, 7, cfg.d_model
    x = rng.standard_normal((b, s, d)).astype(np.float32)
    dout = rng.standard_normal((b, 1, d)).astype(np.float32)
    dout_full = np.zeros((b, s, d), dtype=np.float32)
    dout_full[:, -1:] = dout
    mask = np.triu(np.full((s, s), -1e9, dtype=np.float32), k=1)

    def close(got, want):
        assert got.shape == want.shape and got.dtype == np.float32
        return np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    for li in range(cfg.n_layers):
        weights = layer_weights(m, li, "attn_gain", "wq", "wk", "wv", "wo")
        args = (cfg.n_heads[li], cfg.head_dim)
        saved_full, saved_row = {}, {}
        full = kernels.attn_block(x, *weights, *args, mask, saved=saved_full)
        row = kernels.attn_block(x, *weights, *args, mask[-1:], saved=saved_row)
        assert close(row, full[:, -1:]), li
        grads_full = kernels.attn_block_backward(dout_full, x, *weights, *args, mask, saved_full)
        grads_row = kernels.attn_block_backward(dout, x, *weights, *args, mask[-1:], saved_row)
        for name, g_row, g_full in zip(("x", "gain", "wq", "wk", "wv", "wo"),
                                       grads_row, grads_full):
            assert close(g_row, g_full), (li, name)


# The decoder kernels as plain expressions, most operations allocating a
# fresh array.  `kernels` computes the same operations in place, in the same
# order, so its results must be bit-identical to these.

def ref_inv_rms(x2):
    ms = np.vecdot(x2, x2)[..., None] / x2.shape[-1]
    return 1.0 / np.sqrt(ms + 1e-6)


def ref_rms_rows(x2, gain):
    return x2 * ref_inv_rms(x2) * gain


def ref_rms_rows_backward(g2, x2, gain):
    inv = ref_inv_rms(x2)
    dgain = (g2 * (x2 * inv)).sum(axis=0)
    gn = g2 * gain
    gx = np.vecdot(gn, x2)[..., None]
    return gn * inv - x2 * (inv ** 3) * (gx / x2.shape[-1]), dgain


def ref_attn_block(x, gain, wq, wk, wv, wo, n_heads, head_dim, mask):
    b, s, d = x.shape
    t = mask.shape[0]
    xn = ref_rms_rows(x.reshape(b * s, d), gain)
    xq = xn.reshape(b, s, d)[:, s - t:].reshape(b * t, d)
    q = (xq @ wq).reshape(b, t, n_heads, head_dim).transpose(0, 2, 1, 3)
    k = (xn @ wk).reshape(b, s, n_heads, head_dim).transpose(0, 2, 1, 3)
    v = (xn @ wv).reshape(b, s, n_heads, head_dim).transpose(0, 2, 1, 3)
    # scores and probabilities keys outermost: C-ordered (S, B, H, T), the
    # kernel's layout, which its products on transposed views round by
    scores = np.matmul(k, q.transpose(0, 1, 3, 2)).transpose(2, 0, 1, 3).copy()
    scores = scores * x.dtype.type(1.0 / np.sqrt(head_dim))
    scores = scores + mask.T[:, None, None, :]
    scores -= scores.max(axis=0)
    p = np.exp(scores)
    p /= p.sum(axis=0)
    ctx = np.matmul(p.transpose(1, 2, 3, 0), v)
    ctx = ctx.transpose(0, 2, 1, 3).reshape(b * t, n_heads * head_dim)
    return x[:, s - t:] + (ctx @ wo).reshape(b, t, d), (xn, xq, q, k, v, p, ctx)


def ref_attn_block_backward(dout, x, gain, wq, wk, wv, wo, n_heads, head_dim, mask, saved):
    b, s, d = x.shape
    t = mask.shape[0]
    xn, xq, q, k, v, p, ctx = saved
    g2 = dout.reshape(b * t, d)
    dctx = (g2 @ wo.T).reshape(b, t, n_heads, head_dim).transpose(0, 2, 1, 3)
    dp = np.matmul(v, dctx.transpose(0, 1, 3, 2)).transpose(2, 0, 1, 3).copy()
    dscores = p * (dp - (dp * p).sum(axis=0))
    dscores *= x.dtype.type(1.0 / np.sqrt(head_dim))
    dscores = dscores.transpose(1, 2, 0, 3)  # (B, H, S, T)

    def rows(a):
        return a.transpose(0, 2, 1, 3).reshape(-1, n_heads * head_dim)

    dq = rows(np.matmul(dscores.transpose(0, 1, 3, 2), k))
    dk = rows(np.matmul(dscores, q))
    dv = rows(np.matmul(p.transpose(1, 2, 0, 3), dctx))
    dxn = dk @ wk.T
    dxn.reshape(b, s, d)[:, s - t:] += (dq @ wq.T).reshape(b, t, d)
    dxn += dv @ wv.T
    dx, dgain = ref_rms_rows_backward(dxn, x.reshape(b * s, d), gain)
    dx = dx.reshape(b, s, d)
    dx[:, s - t:] += dout
    return dx, dgain, xq.T @ dq, xn.T @ dk, xn.T @ dv, ctx.T @ g2


def ref_mlp_block(x, gain, wup, wgate, wdown):
    b, s, d = x.shape
    xn = ref_rms_rows(x.reshape(b * s, d), gain)
    u = xn @ wup
    g = xn @ wgate
    h = u * (g / (1.0 + np.exp(-g)))
    return x + np.dot(h, wdown).reshape(b, s, d), (xn, u, g, h)


def ref_mlp_block_backward(dout, x, gain, wup, wgate, wdown, saved):
    b, s, d = x.shape
    xn, u, g, h = saved
    g2 = dout.reshape(b * s, d)
    dh = g2 @ wdown.T
    sig = 1.0 / (1.0 + np.exp(-g))
    du = dh * (g * sig)
    dg = dh * u * (sig * (1.0 + g * (1.0 - sig)))
    dx, dgain = ref_rms_rows_backward(np.dot(du, wup.T) + np.dot(dg, wgate.T),
                                      x.reshape(b * s, d), gain)
    return dout + dx.reshape(b, s, d), dgain, xn.T @ du, xn.T @ dg, h.T @ g2


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", ["full", "marker"])
def test_kernels_bit_identical_to_plain_expressions(dtype, rows):
    # layer 1 is pruned to one head and one MLP channel
    cfg = tiny_config(n_heads=[2, 1], d_ff=[24, 1], seed=8)
    m = init_model(cfg)
    rng = np.random.default_rng(2)
    b, s, d = 3, 7, cfg.d_model
    x = rng.standard_normal((b, s, d)).astype(dtype)
    mask = np.triu(np.full((s, s), -1e9, dtype=dtype), k=1)
    if rows == "marker":
        mask = mask[-1:]
    t = mask.shape[0]
    dout_attn = rng.standard_normal((b, t, d)).astype(dtype)
    dout_mlp = rng.standard_normal((b, s, d)).astype(dtype)

    def same(got, want):
        assert len(got) == len(want)
        for a, w in zip(got, want):
            assert a.dtype == w.dtype == dtype
            np.testing.assert_array_equal(a, w)

    for li in range(cfg.n_layers):
        attn_w = [a.astype(dtype) for a in
                  layer_weights(m, li, "attn_gain", "wq", "wk", "wv", "wo")]
        args = (cfg.n_heads[li], cfg.head_dim, mask)
        saved = {}
        out = kernels.attn_block(x, *attn_w, *args, saved=saved)
        want, ref_saved = ref_attn_block(x, *attn_w, *args)
        same([out], [want])
        same(kernels.attn_block_backward(dout_attn, x, *attn_w, *args, saved),
             ref_attn_block_backward(dout_attn, x, *attn_w, *args, ref_saved))

        mlp_w = [a.astype(dtype) for a in
                 layer_weights(m, li, "mlp_gain", "wup", "wgate", "wdown")]
        assert mlp_w[1].shape[1] == cfg.d_ff[li]
        saved = {}
        out = kernels.mlp_block(x, *mlp_w, saved=saved)
        want, ref_saved = ref_mlp_block(x, *mlp_w)
        same([out], [want])
        # serving saves nothing and builds h in g's buffer: the same output
        same([kernels.mlp_block(x, *mlp_w)], [want])
        assert sorted(saved) == ["g", "u", "xn"]  # h is recomputed, not kept
        same(kernels.mlp_block_backward(dout_mlp, x, *mlp_w, saved),
             ref_mlp_block_backward(dout_mlp, x, *mlp_w, ref_saved))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rms_rows_on_marker_rows_equals_2d(dtype):
    # the output norm runs on forward's (B, 1, D) marker rows; its gain
    # gradient sums over every leading axis, as the 2-d blocks' does
    rng = np.random.default_rng(4)
    b, d = 5, 16
    x = rng.standard_normal((b, 1, d)).astype(dtype)
    g = rng.standard_normal((b, 1, d)).astype(dtype)
    gain = rng.standard_normal(d).astype(dtype)
    np.testing.assert_array_equal(kernels.rms_rows(x, gain).reshape(b, d),
                                  kernels.rms_rows(x.reshape(b, d), gain))
    dx3, dgain3 = kernels.rms_rows_backward(g, x, gain)
    dx2, dgain2 = kernels.rms_rows_backward(g.reshape(b, d), x.reshape(b, d), gain)
    assert dx3.shape == (b, 1, d) and dgain3.shape == (d,)
    np.testing.assert_array_equal(dx3.reshape(b, d), dx2)
    np.testing.assert_array_equal(dgain3, dgain2)


def test_rms_rows_float32_within_4_ulps_of_float64_formula():
    # rows over 10^±5 of dynamic range: each row scaled by 10^U(-3,3), each
    # entry by 10^U(-2,2); the statistics accumulate in float32
    rng = np.random.default_rng(6)
    n, d = 4096, 128
    x = (rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
         * 10.0 ** rng.uniform(-2, 2, (n, d))).astype(np.float32)
    got = kernels.rms_rows(x, np.ones(d, dtype=np.float32))
    assert got.dtype == np.float32
    x64 = x.astype(np.float64)
    want = x64 / np.sqrt((x64 * x64).mean(axis=1, keepdims=True) + 1e-6)
    assert (np.abs(got - want) <= 4 * 2.0 ** -23 * np.abs(want)).all()


@pytest.mark.parametrize("rows", ["full", "marker"])
def test_attn_block_probabilities_are_keys_outermost(rows):
    cfg = tiny_config(n_heads=[2, 1], d_ff=[24, 7], seed=5)
    m = init_model(cfg)
    rng = np.random.default_rng(7)
    b, s = 3, 7
    x = rng.standard_normal((b, s, cfg.d_model)).astype(np.float32)
    mask = np.triu(np.full((s, s), -1e9, dtype=np.float32), k=1)
    if rows == "marker":
        mask = mask[-1:]
    t = mask.shape[0]
    for li in range(cfg.n_layers):
        saved = {}
        kernels.attn_block(x, *layer_weights(m, li, "attn_gain", "wq", "wk", "wv", "wo"),
                           cfg.n_heads[li], cfg.head_dim, mask, saved=saved)
        p = saved["p"]
        assert p.shape == (s, b, cfg.n_heads[li], t)
        np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-6)
        for i in range(t):  # query i sits at position s - t + i
            assert (p[s - t + i + 1:, :, :, i] == 0).all(), (li, i)


def test_forward_gradients_match_finite_differences():
    # 2 layers, 2 heads, the second layer pruned to 1 head; float64 end to end
    cfg = tiny_config(d_model=8, n_heads=[2, 1], d_ff=[6, 3], max_seq_len=8, seed=2)
    m32 = init_model(cfg)
    m = PolicyModel(cfg, {
        name: Tensor(p.data.astype(np.float64), dtype=np.float64)
        for name, p in m32.named_params()})
    rng = np.random.default_rng(0)
    ctx = np.concatenate([ctx_for(cfg, 4, seed=i) for i in range(2)])
    # shaped as forward's outputs, the last position only
    r_logits = rng.standard_normal((2, 1, cfg.action_vocab))
    r_hidden = rng.standard_normal((2, 1, cfg.d_model))

    def loss():
        logits, hidden = forward(m, ctx)
        assert logits.data.shape == r_logits.shape and hidden.data.shape == r_hidden.shape
        return fused(lambda lg, h, saved=None: _dot(lg, r_logits) + _dot(h, r_hidden),
                     lambda g, lg, h, saved: (g * r_logits, g * r_hidden), (logits, hidden))

    backward(loss())
    used_rows = np.unique(ctx)
    kinds = {"tok_emb", "pos_emb", "final_gain", "w_act"}
    kinds |= {f"layers.{li}.{n}" for li in range(2) for n in
              ("attn_gain", "mlp_gain", "wq", "wk", "wv", "wo", "wup", "wgate", "wdown")}
    eps = 1e-6
    for name, p in m.named_params():
        assert name in kinds
        assert p.grad is not None and p.grad.dtype == np.float64, name
        for _ in range(3):
            idx = tuple(rng.integers(0, n) for n in p.data.shape)
            if name == "tok_emb":
                idx = (rng.choice(used_rows),) + idx[1:]
            elif name == "pos_emb":
                idx = (rng.integers(0, ctx.shape[1]),) + idx[1:]
            orig = p.data[idx]
            with no_grad():
                p.data[idx] = orig + eps
                up = float(loss().data)
                p.data[idx] = orig - eps
                down = float(loss().data)
            p.data[idx] = orig
            fd = (up - down) / (2 * eps)
            assert abs(fd - p.grad[idx]) <= 1e-7 + 1e-6 * abs(fd), (name, idx, fd, p.grad[idx])


def logprobs(m, ctx):
    """(B, A) action log-probs at the marker, on the PPO update's path."""
    logits, _ = batch_logprob_value(m, init_value_head(m.config.d_model, seed=0), ctx)
    return kernels.log_softmax(logits.data[:, -1, :])


def test_greedy_sampling_deterministic():
    cfg = tiny_config()
    m = init_model(cfg)
    ctx = np.concatenate([ctx_for(cfg, seed=i) for i in range(4)])
    a1 = greedy_actions(m, ctx)
    np.testing.assert_array_equal(a1, greedy_actions(m, ctx))
    # the greedy action is the most probable one under the autodiff path
    np.testing.assert_array_equal(a1, logprobs(m, ctx).argmax(axis=1))


def test_action_logprob_uniform_closed_form():
    cfg = tiny_config()
    m = init_model(cfg)
    dict(m.named_params())["w_act"].data[:] = 0.0  # uniform over the 6 actions
    lps = logprobs(m, ctx_for(cfg))
    np.testing.assert_allclose(lps, np.log(1.0 / 6.0), atol=1e-6)


def test_action_logprob_is_valid_probability():
    cfg = tiny_config()
    m = init_model(cfg)
    lps = logprobs(m, ctx_for(cfg))[0]
    assert np.all(lps <= 0.0)
    assert abs(np.exp(lps.astype(np.float64)).sum() - 1.0) < 1e-5


def test_action_logprob_rejects_bad_token():
    cfg = tiny_config()
    m = init_model(cfg)
    logits, values = batch_logprob_value(m, init_value_head(cfg.d_model, seed=0), ctx_for(cfg))
    zero = np.zeros(1, dtype=np.float32)
    for bad in (cfg.action_vocab, -1):
        with pytest.raises(IndexError, match="action id out of range"):
            fused(kernels.ppo_objective, kernels.ppo_objective_backward, (logits, values),
                  np.array([bad]), zero, zero, zero, 0.2, 0.5, 0.01, {})


def test_value_zero_head_outputs_zero():
    cfg = tiny_config()
    m = init_model(cfg)
    vh = init_value_head(cfg.d_model, seed=0)
    for p in vh.params():
        p.data[:] = 0.0
    _, v = batch_logprob_value(m, vh, ctx_for(cfg))
    assert v.shape == (1,) and float(v.data[0]) == 0.0


def test_value_is_differentiable_into_backbone():
    cfg = tiny_config()
    m = init_model(cfg)
    vh = init_value_head(cfg.d_model, seed=1)
    _, v = batch_logprob_value(m, vh, ctx_for(cfg))
    backward(dot(v, np.ones(v.shape)))
    grad = dict(m.named_params())["layers.0.wq"].grad
    assert all(p.grad is not None for p in vh.params())
    assert grad is not None and np.abs(grad).sum() > 0


def test_build_contexts():
    cfg = tiny_config()
    obs = np.zeros((3, 5), dtype=np.int64)
    ctx = build_contexts(cfg, obs)
    assert ctx.shape == (3, 6)
    assert np.all(ctx[:, -1] == cfg.bos_action_id)


def test_serving_loads_no_scipy():
    # numpy/BLAS is the one backend: serving a dense and a 4-bit model loads
    # no scipy (whose import costs about 28 MiB of RSS); run in a fresh
    # interpreter, as this one may have imported scipy for other tests
    code = """
import importlib, pkgutil, sys
import numpy as np
import rlrc
for info in pkgutil.iter_modules(rlrc.__path__):
    importlib.import_module("rlrc." + info.name)
from rlrc.model import ModelConfig, fast_logits_last, init_model
from rlrc.quant import quantize_model
m = init_model(ModelConfig(d_model=16, n_layers=2, n_heads_base=2, d_ff_base=24,
                           observation_vocab=12, action_vocab=6, max_seq_len=16))
ctx = np.array([[1, 2, 3, m.config.bos_action_id]])
fast_logits_last(m, ctx)
fast_logits_last(quantize_model(m, 4, 16), ctx)
print(sorted(n for n in sys.modules if n.split(".")[0] == "scipy"))
"""
    src = str(pathlib.Path(rlrc.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
