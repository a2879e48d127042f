import numpy as np
import pytest

from rlrc.model import (
    ModelConfig,
    batch_logprob_value,
    build_contexts,
    fast_hidden,
    fast_logits_last,
    forward,
    greedy_actions,
    init_model,
    init_value_head,
)
from rlrc.tensor import ShapeError, backward, sum_


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
    logits, hidden = forward(m, ctx)
    assert logits.data.shape == (8, cfg.action_vocab)
    assert hidden.data.shape == (8, cfg.d_model)
    batch = np.stack([ctx, ctx])
    logits, hidden = forward(m, batch)
    assert logits.data.shape == (2, 8, cfg.action_vocab)
    assert hidden.data.shape == (2, 8, cfg.d_model)


def test_forward_rejects_overlong_and_bad_ids():
    cfg = tiny_config(max_seq_len=4)
    m = init_model(cfg)
    with pytest.raises(ShapeError):
        forward(m, np.zeros(5, dtype=np.int64))
    with pytest.raises(IndexError):
        forward(m, np.array([cfg.total_vocab]))


def test_causality_exact():
    cfg = tiny_config()
    m = init_model(cfg)
    a = ctx_for(cfg, 8)
    b = a.copy()
    b[-2:] = (b[-2:] + 1) % cfg.observation_vocab
    la, _ = forward(m, a)
    lb, _ = forward(m, b)
    np.testing.assert_array_equal(la.data[:-3], lb.data[:-3])
    fa = fast_hidden(m, a[None, :])
    fb = fast_hidden(m, b[None, :])
    np.testing.assert_array_equal(fa[0, :-3], fb[0, :-3])


def test_fast_path_matches_autodiff_path():
    cfg = tiny_config()
    m = init_model(cfg, seed=5)
    ctx = np.stack([ctx_for(cfg, 6, seed=i) for i in range(4)])
    logits, hidden = forward(m, ctx)
    fh = fast_hidden(m, ctx)
    assert np.abs(fh - hidden.data).max() < 1e-4
    fl = fast_logits_last(m, ctx)
    assert np.abs(fl - logits.data[:, -1, :]).max() < 1e-4


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
