import hashlib

import numpy as np
import pytest

from rlrc import kernels
from rlrc.model import (
    ModelConfig,
    PolicyModel,
    batch_logprob_value,
    build_contexts,
    forward,
    greedy_actions,
    init_model,
    init_value_head,
)
from rlrc.tensor import ShapeError, Tensor, add, backward, mul, no_grad, sum_


def tiny_config(**kw):
    base = dict(d_model=16, n_layers=2, n_heads_base=2, d_ff_base=24,
                observation_vocab=12, action_vocab=6, max_seq_len=16, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def ctx_for(cfg, length=5, seed=0):
    rng = np.random.default_rng(seed)
    toks = rng.integers(0, cfg.observation_vocab, size=length)
    return np.append(toks, cfg.bos_action_id)


def test_init_deterministic():
    cfg = tiny_config()
    a, b = init_model(cfg, seed=3), init_model(cfg, seed=3)
    for (na, pa), (_, pb) in zip(a.named_params(), b.named_params()):
        np.testing.assert_array_equal(pa.data, pb.data, err_msg=na)


def test_init_values_pinned():
    # perfbench's models are init_model outputs: a fixed seed keeps its values
    h = hashlib.sha256()
    cfg = ModelConfig(n_heads=[4, 3, 1, 1, 2, 4], d_ff=[512, 5, 1, 1, 9, 512])
    for _, p in init_model(cfg, seed=11).named_params():
        h.update(p.data.tobytes())
    for _, p in init_value_head(128, seed=3).named_params():
        h.update(p.data.tobytes())
    assert h.hexdigest() == "7d252043056c0979d062e7482cc57a9882c8bd3a530109b6d4999d82e4d5c90f"


def test_init_different_seeds_differ():
    cfg = tiny_config()
    a, b = init_model(cfg, seed=0), init_model(cfg, seed=1)
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


def test_invalid_dims_rejected():
    with pytest.raises(ValueError):
        ModelConfig(d_model=0)
    with pytest.raises(ValueError):
        ModelConfig(d_model=10, n_heads_base=4)
    with pytest.raises(ValueError, match="unknown ModelConfig key.*'n_experts'"):
        ModelConfig.from_dict({**ModelConfig().to_dict(), "n_experts": 2})


def test_forward_shapes():
    cfg = tiny_config()
    m = init_model(cfg)
    ctx = ctx_for(cfg, 7)
    # the last position only; a batch keeps a length-1 position axis
    logits, hidden = forward(m, ctx)
    assert logits.data.shape == (1, cfg.action_vocab)
    assert hidden.data.shape == (1, cfg.d_model)
    batch = np.stack([ctx, ctx])
    logits, hidden = forward(m, batch)
    assert logits.data.shape == (2, 1, cfg.action_vocab)
    assert hidden.data.shape == (2, 1, cfg.d_model)


def test_forward_rejects_overlong_and_bad_ids():
    cfg = tiny_config(max_seq_len=4)
    m = init_model(cfg)
    with pytest.raises(ShapeError):
        forward(m, np.zeros(5, dtype=np.int64))
    with pytest.raises(ShapeError):
        forward(m, np.zeros((2, 0), dtype=np.int64))
    with pytest.raises(IndexError):
        forward(m, np.array([cfg.total_vocab]))


def test_forward_same_with_and_without_grad():
    cfg = tiny_config(n_heads=[2, 1], d_ff=[24, 7])
    m = init_model(cfg, seed=5)
    ctx = np.stack([ctx_for(cfg, 6, seed=i) for i in range(4)])
    logits, hidden = forward(m, ctx)
    assert logits.requires_grad and hidden.requires_grad
    with no_grad():
        logits_ng, hidden_ng = forward(m, ctx)
    np.testing.assert_array_equal(logits.data, logits_ng.data)
    np.testing.assert_array_equal(hidden.data, hidden_ng.data)


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
    cfg = tiny_config(n_heads=[2, 1], d_ff=[24, 7])
    m = init_model(cfg, seed=3)
    ctx = np.stack([ctx_for(cfg, 9, seed=i) for i in range(3)])
    logits, _ = forward(m, ctx)
    assert logits.data.shape == (3, 1, cfg.action_vocab)
    assert np.abs(logits.data[:, 0] - reference_logits(m, ctx)[:, -1]).max() < 1e-5


def test_causality_prefixes_match_reference():
    # the output for a prefix is the full sequence's reference row at its end:
    # no position reads a later one
    cfg = tiny_config(n_heads=[2, 1], d_ff=[24, 7])
    m = init_model(cfg, seed=1)
    ctx = ctx_for(cfg, 8)
    ref = reference_logits(m, ctx)
    for j in range(1, len(ctx) + 1):
        logits, _ = forward(m, ctx[:j])
        assert logits.data.shape == (1, cfg.action_vocab)
        assert np.abs(logits.data[0] - ref[j - 1]).max() < 1e-5, j


def test_attn_block_query_rows_match_full_block():
    # float32: a 1-row mask gives the full block's last row, and its backward
    # the full backward of a gradient that is zero off the last row
    cfg = tiny_config(n_heads=[2, 1], d_ff=[24, 7])
    m = init_model(cfg, seed=4)
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

    for li, layer in enumerate(m.layers):
        weights = [p.data for p in (layer.attn_gain, layer.wq, layer.wk, layer.wv, layer.wo)]
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


def test_forward_gradients_match_finite_differences():
    # 2 layers, 2 heads, the second layer pruned to 1 head; float64 end to end
    cfg = tiny_config(d_model=8, n_heads=[2, 1], d_ff=[6, 3], max_seq_len=8)
    m32 = init_model(cfg, seed=2)
    m = PolicyModel.from_params(cfg, {
        name: Tensor(p.data.astype(np.float64), requires_grad=True, dtype=np.float64)
        for name, p in m32.named_params()})
    rng = np.random.default_rng(0)
    ctx = np.stack([ctx_for(cfg, 4, seed=i) for i in range(2)])
    # shaped as forward's outputs, the last position only
    r_logits = rng.standard_normal((2, 1, cfg.action_vocab))
    r_hidden = rng.standard_normal((2, 1, cfg.d_model))

    def loss():
        logits, hidden = forward(m, ctx)
        assert logits.data.shape == r_logits.shape and hidden.data.shape == r_hidden.shape
        return add(sum_(mul(logits, r_logits)), sum_(mul(hidden, r_hidden)))

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


def test_greedy_sampling_deterministic():
    cfg = tiny_config()
    m = init_model(cfg)
    ctx = np.stack([ctx_for(cfg, seed=i) for i in range(4)])
    a1 = greedy_actions(m, ctx)
    np.testing.assert_array_equal(a1, greedy_actions(m, ctx))
    # the greedy action is the most probable one under the autodiff path
    lps = np.stack([batch_logprob_value(m, None, ctx, np.full(4, a))[0].data
                    for a in range(cfg.action_vocab)])
    np.testing.assert_array_equal(a1, lps.argmax(axis=0))


def test_action_logprob_uniform_closed_form():
    cfg = tiny_config()
    m = init_model(cfg)
    m.w_act.data[:] = 0.0  # uniform over the 6 actions
    lps, _, _ = batch_logprob_value(m, None, ctx_for(cfg)[None], [2])
    assert abs(float(lps.data[0]) - np.log(1.0 / 6.0)) < 1e-6


def test_action_logprob_is_valid_probability():
    cfg = tiny_config()
    m = init_model(cfg)
    ctx = np.stack([ctx_for(cfg)] * cfg.action_vocab)
    lps, _, _ = batch_logprob_value(m, None, ctx, np.arange(cfg.action_vocab))
    assert np.all(lps.data <= 0.0)
    assert abs(np.exp(lps.data.astype(np.float64)).sum() - 1.0) < 1e-5


def test_action_logprob_rejects_bad_token():
    cfg = tiny_config()
    m = init_model(cfg)
    with pytest.raises(IndexError):
        batch_logprob_value(m, None, ctx_for(cfg)[None], [cfg.action_vocab])


def test_value_zero_head_outputs_zero():
    cfg = tiny_config()
    m = init_model(cfg)
    vh = init_value_head(cfg.d_model, seed=0)
    for p in vh.params():
        p.data[:] = 0.0
    _, v, _ = batch_logprob_value(m, vh, ctx_for(cfg)[None], [0])
    assert float(v.data[0]) == 0.0


def test_value_is_differentiable_into_backbone():
    cfg = tiny_config()
    for detach in (False, True):
        m = init_model(cfg)
        vh = init_value_head(cfg.d_model, seed=1)
        _, v, _ = batch_logprob_value(m, vh, ctx_for(cfg)[None], [0],
                                      detach_value_input=detach)
        backward(sum_(v))
        grad = m.layers[0].wq.grad
        if detach:
            assert grad is None or not np.any(grad)
        else:
            assert grad is not None and np.abs(grad).sum() > 0


def test_build_contexts():
    cfg = tiny_config()
    obs = np.zeros((3, 5), dtype=np.int64)
    ctx = build_contexts(cfg, obs)
    assert ctx.shape == (3, 6)
    assert np.all(ctx[:, -1] == cfg.bos_action_id)
