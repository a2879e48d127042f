import re
import tracemalloc

import numpy as np
import pytest
from scipy.stats import spearmanr

from rlrc.env import EnvConfig, generate_demos, make_task_suite
from rlrc.model import ModelConfig, chunk_rows, forward, init_model
from rlrc.pruning import (
    KIND_ATTN, KIND_MLP,
    ImportanceTable, PruningError,
    apply_prune, build_dependency_groups, default_exempt_layers,
    param_counts, select_prune_groups, taylor_importance,
)
from rlrc.tensor import backward
from rlrc.training import demo_arrays, sft_loss, train_sft
from rlrc.training import SftConfig


def tiny_model(seed=0, n_layers=3, d_ff=8, heads=2, d_model=16):
    cfg = ModelConfig(d_model=d_model, n_layers=n_layers, n_heads_base=heads,
                      d_ff_base=d_ff, observation_vocab=21, action_vocab=6,
                      max_seq_len=20, seed=seed)
    return init_model(cfg)


def calib_batch(n=64, seed=0):
    """The first n steps of at least 8 expert episodes, one IND task after
    another."""
    suite = make_task_suite(0)
    cfg = EnvConfig()
    demos = []
    from rlrc.env import run_expert_episode

    i = steps = 0
    while i < 8 or steps < n:
        demos.append(run_expert_episode(cfg, suite["IND"][i % len(suite["IND"])], seed + i))
        steps += len(demos[-1].steps)
        i += 1
    obs, acts = demo_arrays(demos)
    return obs[:n], acts[:n]


def model_chunk_rows(model):
    """Rows per chunk `taylor_importance` takes on ``model``."""
    return chunk_rows(model.config, EnvConfig().obs_len + 1)


def test_group_count_default_config():
    m = init_model(ModelConfig())
    groups = build_dependency_groups(m)
    assert len(groups) == 6 * 512 + 6 * 4 == 3096


def test_groups_stay_within_their_layer():
    m = tiny_model()
    for g in build_dependency_groups(m):
        for name, *_ in g.members:
            assert name.startswith(f"layers.{g.layer}.")


def test_group_sizes():
    m = tiny_model()
    cfg = m.config
    for g in build_dependency_groups(m):
        if g.kind == KIND_ATTN:
            assert g.size == 4 * cfg.d_model * cfg.head_dim
        else:
            assert g.size == 3 * cfg.d_model


def test_single_group_removal_never_breaks_forward():
    m = tiny_model()
    groups = build_dependency_groups(m)
    ctx = np.array([[1, 2, 3, m.config.bos_action_id]])
    rng = np.random.default_rng(0)
    for g in rng.choice(len(groups), size=6, replace=False):
        g = groups[int(g)]
        plan = _plan_for(m, [g])
        pruned = apply_prune(m, plan)
        logits, _ = forward(pruned, ctx)
        assert logits.data.shape == (1, 1, m.config.action_vocab)


def _plan_for(model, groups, exempt=()):
    from rlrc.pruning import PrunePlan

    prunable = sum(g.size for g in build_dependency_groups(model)
                   if g.layer not in set(exempt))
    removed = sum(g.size for g in groups)
    return PrunePlan(groups=list(groups), target_ratio=0.0,
                     achieved_ratio=removed / prunable, exempt_layers=sorted(exempt),
                     prunable_params=prunable, removed_params=removed)


def test_taylor_zero_weight_group_scores_zero():
    m = tiny_model()
    groups = build_dependency_groups(m)
    g = next(g for g in groups if g.kind == KIND_MLP and g.layer == 1 and g.index == 2)
    params = dict(m.named_params())
    params["layers.1.wup"].data[:, 2] = 0
    params["layers.1.wgate"].data[:, 2] = 0
    params["layers.1.wdown"].data[2, :] = 0
    obs, acts = calib_batch(32)
    table = taylor_importance(m, obs, acts)
    assert table.scores[g.key] == 0.0
    assert all(v >= 0 and np.isfinite(v) for v in table.scores.values())


def test_taylor_two_param_analytic_ranking():
    # |w * dL/dw| for L = w1^2 + w2^2 at w=(1,2) is (2, 8)
    from rlrc import tensor as T

    w = T.Tensor([1.0, 2.0])
    T.backward(T.fused(lambda a, saved=None: np.asarray(np.sum(a * a)),
                       lambda g, a, saved: (2 * a * g,), (w,)))
    scores = np.abs(w.data * w.grad)
    np.testing.assert_allclose(scores, [2.0, 8.0])
    assert scores[1] > scores[0]


def test_taylor_duplicated_batch_keeps_ranking():
    m = tiny_model(seed=3)
    obs, acts = calib_batch(32)
    t1 = taylor_importance(m, obs, acts)
    t2 = taylor_importance(m, np.concatenate([obs, obs]), np.concatenate([acts, acts]))
    keys = sorted(t1.scores)
    r1 = np.argsort([t1.scores[k] for k in keys])
    r2 = np.argsort([t2.scores[k] for k in keys])
    np.testing.assert_array_equal(r1, r2)


def one_pass_importance(model, obs, acts):
    """Reference scores: one full-batch SFT backward, then float64 |w * g|."""
    for p in model.params():
        p.grad = None
    loss = sft_loss(model, obs, acts)
    backward(loss)
    params = dict(model.named_params())
    scores = {}
    for g in build_dependency_groups(model):
        acc = 0.0
        for name, axis, start, stop in g.members:
            sl = [slice(None)] * params[name].data.ndim
            sl[axis] = slice(start, stop)
            w = params[name].data[tuple(sl)].astype(np.float64)
            acc += float(np.sum(np.abs(w * params[name].grad[tuple(sl)].astype(np.float64))))
        scores[g.key] = acc
    for p in model.params():
        p.grad = None
    return ImportanceTable(scores, obs.shape[0], None, float(loss.data))


@pytest.mark.parametrize("make_model", [
    lambda: tiny_model(seed=6, n_layers=4, d_ff=64, heads=4),
    lambda: init_model(ModelConfig(seed=6)),
], ids=["tiny", "default"])
def test_chunked_importance_matches_one_pass(make_model):
    # two full chunks and a partial one, at the model's own chunk rows
    m = make_model()
    rows = model_chunk_rows(m)
    n = 2 * rows + max(1, rows // 2)
    obs, acts = calib_batch(n)
    assert obs.shape[0] == n and n % rows != 0
    ref = one_pass_importance(m, obs, acts)
    table = taylor_importance(m, obs, acts)
    assert table.batch_size == n
    assert table.loss == pytest.approx(ref.loss, rel=1e-6)
    keys = sorted(ref.scores)
    np.testing.assert_allclose([table.scores[k] for k in keys],
                               [ref.scores[k] for k in keys], rtol=1e-5, atol=0)
    plan = select_prune_groups(m, table, 0.9)
    ref_plan = select_prune_groups(m, ref, 0.9)
    assert {g.key for g in plan.groups} == {g.key for g in ref_plan.groups}
    cfg, ref_cfg = apply_prune(m, plan).config, apply_prune(m, ref_plan).config
    assert (cfg.n_heads, cfg.d_ff) == (ref_cfg.n_heads, ref_cfg.d_ff)


def test_importance_peak_memory_independent_of_batch():
    # numpy reports its buffers to tracemalloc; scoring 8 chunks' rows must
    # peak at about one chunk's graph, not 8 of them
    m = tiny_model()
    obs, acts = calib_batch(model_chunk_rows(m))
    taylor_importance(m, obs, acts)  # warm up one-time allocations
    peaks = []
    for reps in (1, 8):
        tracemalloc.start()
        try:
            taylor_importance(m, np.tile(obs, (reps, 1)), np.tile(acts, reps))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], f"peak grows with the batch: {peaks}"


def test_importance_peak_memory_on_the_dense_default_model():
    # a dense row saves twice the activations of a 90%-pruned row, so the
    # dense model is scored in chunks of half the rows: one chunk's graph
    # (about 10 MiB) plus the float32 gradients (6 MiB), not a 32-row
    # chunk's 22 MiB graph
    m = init_model(ModelConfig(seed=6))
    obs, acts = calib_batch(64)
    taylor_importance(m, obs[:8], acts[:8])  # warm up one-time allocations
    tracemalloc.start()
    try:
        taylor_importance(m, obs, acts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20, f"taylor_importance peaks at {peak / 2 ** 20:.1f} MiB"


def test_select_minimum_scores_first():
    m = tiny_model(n_layers=3, d_ff=3, heads=1)
    groups = build_dependency_groups(m)
    scores = {g.key: 100.0 for g in groups}
    mlp1 = [g for g in groups if g.layer == 1 and g.kind == KIND_MLP]
    scores[mlp1[0].key] = 0.1
    scores[mlp1[1].key] = 0.5
    scores[mlp1[2].key] = 0.3
    table = ImportanceTable(scores, 1, 0, 0.0)
    prunable = sum(g.size for g in groups if g.layer == 1)
    plan = select_prune_groups(m, table, mlp1[0].size / prunable, exempt_layers={0, 2})
    assert [g.key for g in plan.groups] == [mlp1[0].key]


def test_select_zero_ratio_empty_plan():
    m = tiny_model()
    table = ImportanceTable({g.key: 1.0 for g in build_dependency_groups(m)}, 1, 0, 0.0)
    plan = select_prune_groups(m, table, 0.0)
    assert plan.groups == []
    assert plan.achieved_ratio == 0.0


def test_select_rejects_bad_ratio():
    m = tiny_model()
    table = ImportanceTable({g.key: 1.0 for g in build_dependency_groups(m)}, 1, 0, 0.0)
    with pytest.raises(PruningError):
        select_prune_groups(m, table, 1.0)
    with pytest.raises(PruningError):
        select_prune_groups(m, table, -0.1)


def test_select_rejects_out_of_range_exempt_layers():
    m = tiny_model()  # 3 layers
    table = ImportanceTable({g.key: 1.0 for g in build_dependency_groups(m)}, 1, 0, 0.0)
    for exempt in ([7], [0, -1]):
        with pytest.raises(PruningError, match=re.escape(
                f"exempt layer {exempt[-1]} outside [0, n_layers=3)")):
            select_prune_groups(m, table, 0.3, exempt_layers=exempt)


def test_param_counts_rejects_out_of_range_exempt_layers():
    m = tiny_model()  # 3 layers
    for exempt in ([7], [0, -1]):
        with pytest.raises(PruningError, match=re.escape(
                f"exempt layer {exempt[-1]} outside [0, n_layers=3)")):
            param_counts(m, exempt)


def test_select_unreachable_ratio():
    m = tiny_model(n_layers=2)
    table = ImportanceTable({g.key: 1.0 for g in build_dependency_groups(m)}, 1, 0, 0.0)
    with pytest.raises(PruningError, match="unreachable|no prunable"):
        select_prune_groups(m, table, 0.5, exempt_layers={0, 1})


def test_select_deterministic_tiebreak():
    m = tiny_model()
    table = ImportanceTable({g.key: 1.0 for g in build_dependency_groups(m)}, 1, 0, 0.0)
    p1 = select_prune_groups(m, table, 0.3)
    p2 = select_prune_groups(m, table, 0.3)
    assert [g.key for g in p1.groups] == [g.key for g in p2.groups]


def test_select_scale_invariance():
    m = tiny_model(seed=5)
    obs, acts = calib_batch(32)
    table = taylor_importance(m, obs, acts)
    scaled = ImportanceTable({k: 7.5 * v for k, v in table.scores.items()},
                             table.batch_size, table.seed, table.loss)
    p1 = select_prune_groups(m, table, 0.4)
    p2 = select_prune_groups(m, scaled, 0.4)
    assert [g.key for g in p1.groups] == [g.key for g in p2.groups]


def test_select_monotone_achieved_ratio():
    m = tiny_model(seed=1, d_ff=32, heads=4)
    obs, acts = calib_batch(32)
    table = taylor_importance(m, obs, acts)
    last = -1.0
    for r in (0.0, 0.2, 0.4, 0.6, 0.8):
        plan = select_prune_groups(m, table, r)
        assert plan.achieved_ratio >= last
        assert plan.achieved_ratio >= r
        last = plan.achieved_ratio


def test_default_config_ninety_percent_plan():
    m = init_model(ModelConfig())
    obs, acts = calib_batch(64)
    table = taylor_importance(m, obs, acts)
    plan = select_prune_groups(m, table, 0.9)
    assert plan.exempt_layers == [0, 5]
    counts = param_counts(m)
    assert plan.prunable_params == counts["prunable"]
    pruned = apply_prune(m, plan)
    before = counts["total"]
    after = pruned.num_params()
    assert before - after == plan.removed_params
    assert plan.achieved_ratio >= 0.9
    # external interface intact
    ctx = np.array([[1, 2, 3, m.config.bos_action_id]])
    logits, hidden = forward(pruned, ctx)
    assert logits.data.shape == (1, 1, 6)
    assert hidden.data.shape == (1, 1, 128)


def test_exempt_layers_never_pruned():
    m = tiny_model(seed=2, d_ff=32, heads=4)
    obs, acts = calib_batch(32)
    table = taylor_importance(m, obs, acts)
    plan = select_prune_groups(m, table, 0.8)
    assert default_exempt_layers(m.config) == {0, 2}
    assert all(g.layer not in (0, 2) for g in plan.groups)


def reference_apply_prune(model, plan):
    """apply_prune by its former per-layer slicing table: (arrays, n_heads, d_ff)."""
    cfg = model.config
    hd = cfg.head_dim
    drop_heads = [set() for _ in range(cfg.n_layers)]
    drop_channels = [set() for _ in range(cfg.n_layers)]
    for g in plan.groups:
        (drop_heads if g.kind == KIND_ATTN else drop_channels)[g.layer].add(g.index)
    arrays = {name: p.data for name, p in model.named_params()}
    n_heads, d_ff = [], []
    for li in range(cfg.n_layers):
        keep_h = [h for h in range(cfg.n_heads[li]) if h not in drop_heads[li]]
        keep_c = np.array([c for c in range(cfg.d_ff[li]) if c not in drop_channels[li]])
        col_idx = np.concatenate([np.arange(h * hd, (h + 1) * hd) for h in keep_h])
        for name, keep, axis in (("wq", col_idx, 1), ("wk", col_idx, 1), ("wv", col_idx, 1),
                                 ("wo", col_idx, 0), ("wup", keep_c, 1),
                                 ("wgate", keep_c, 1), ("wdown", keep_c, 0)):
            key = f"layers.{li}.{name}"
            arrays[key] = np.take(arrays[key], keep, axis=axis)
        n_heads.append(len(keep_h))
        d_ff.append(len(keep_c))
    return arrays, n_heads, d_ff


def assert_prunes_like_reference(model, plan):
    pruned = apply_prune(model, plan)
    arrays, n_heads, d_ff = reference_apply_prune(model, plan)
    assert (pruned.config.n_heads, pruned.config.d_ff) == (n_heads, d_ff)
    got = dict(pruned.named_params())
    assert list(got) == list(arrays)
    for name, want in arrays.items():
        assert got[name].data.dtype == want.dtype, name
        np.testing.assert_array_equal(got[name].data, want, err_msg=name)
    return pruned


def test_apply_matches_slicing_table_on_ninety_percent_plan():
    m = init_model(ModelConfig())
    obs, acts = calib_batch(64)
    plan = select_prune_groups(m, taylor_importance(m, obs, acts), 0.9)
    assert_prunes_like_reference(m, plan)


def random_plan(model, rng, exempt=(0,)):
    """Random heads and channels of every non-exempt layer, in random order,
    never a layer's last head or channel."""
    groups = build_dependency_groups(model)
    chosen = []
    for li in range(model.config.n_layers):
        if li in exempt:
            continue
        for kind in (KIND_ATTN, KIND_MLP):
            mine = [g for g in groups if g.layer == li and g.kind == kind]
            k = int(rng.integers(0, len(mine)))
            chosen += [mine[int(i)] for i in rng.choice(len(mine), size=k, replace=False)]
    rng.shuffle(chosen)
    return _plan_for(model, chosen, exempt=exempt)


@pytest.mark.parametrize("seed", range(4))
def test_apply_matches_slicing_table_on_random_mixed_plans(seed):
    # a second plan prunes the already pruned model, whose layers differ in width
    rng = np.random.default_rng(seed)
    m = tiny_model(seed=seed, n_layers=4, d_ff=12, heads=4)
    for _ in range(2):
        m = assert_prunes_like_reference(m, random_plan(m, rng))


def test_apply_zero_groups_exact_equivalence():
    m = tiny_model(seed=4, n_layers=3, d_ff=8, heads=2)
    groups = build_dependency_groups(m)
    victims = [g for g in groups if g.layer == 1 and
               ((g.kind == KIND_MLP and g.index in (1, 5)) or
                (g.kind == KIND_ATTN and g.index == 0))]
    layer = {name.split(".")[-1]: p.data for name, p in m.named_params()
             if name.startswith("layers.1.")}
    hd = m.config.head_dim
    layer["wup"][:, [1, 5]] = 0
    layer["wgate"][:, [1, 5]] = 0
    layer["wdown"][[1, 5], :] = 0
    layer["wq"][:, :hd] = 0
    layer["wk"][:, :hd] = 0
    layer["wv"][:, :hd] = 0
    layer["wo"][:hd, :] = 0
    pruned = apply_prune(m, _plan_for(m, victims, exempt=(0, 2)))
    rng = np.random.default_rng(0)
    for _ in range(5):
        ctx = np.append(rng.integers(0, 21, size=6), m.config.bos_action_id)[None]
        la, _ = forward(m, ctx)
        lb, _ = forward(pruned, ctx)
        assert np.abs(la.data - lb.data).max() <= 1e-6


def test_apply_rejects_emptying_layer():
    m = tiny_model(n_layers=3, d_ff=4, heads=2)
    groups = [g for g in build_dependency_groups(m)
              if g.layer == 1 and g.kind == KIND_MLP]
    with pytest.raises(PruningError, match="empty"):
        apply_prune(m, _plan_for(m, groups, exempt=(0, 2)))


def test_apply_rejects_stale_plan():
    m = tiny_model(n_layers=3)
    groups = [g for g in build_dependency_groups(m)
              if g.layer == 1 and g.kind == KIND_MLP][:2]
    plan = _plan_for(m, groups, exempt=(0, 2))
    smaller = apply_prune(m, plan)
    with pytest.raises(PruningError, match="stale|range"):
        apply_prune(smaller, _plan_for(m, [g for g in build_dependency_groups(m)
                                           if g.kind == KIND_MLP and g.layer == 1
                                           and g.index == m.config.d_ff[1] - 1],
                                       exempt=(0, 2)))


def test_param_counts_formula_and_embedding_exclusion():
    m = init_model(ModelConfig())
    counts = param_counts(m)
    d = 128
    per_layer_mats = 4 * d * d + 3 * d * 512
    # layers 1..4; embeddings, gains and the action head live in total only
    assert counts == {"total": m.num_params(), "prunable": 4 * per_layer_mats}
    assert param_counts(m, exempt_layers=())["prunable"] == 6 * per_layer_mats


def test_prunable_drop_after_ninety_percent():
    m = init_model(ModelConfig())
    obs, acts = calib_batch(64)
    table = taylor_importance(m, obs, acts)
    plan = select_prune_groups(m, table, 0.9)
    pruned = apply_prune(m, plan)
    before = param_counts(m)["prunable"]
    after = param_counts(pruned)["prunable"]
    assert after <= 0.1 * before


def test_taylor_brute_force_spearman(tmp_path):
    # tiny 2-layer model, trained briefly so the loss surface is meaningful
    cfg = ModelConfig(d_model=16, n_layers=2, n_heads_base=2, d_ff_base=16,
                      observation_vocab=21, action_vocab=6, max_seq_len=20, seed=0)
    m = init_model(cfg)
    suite = make_task_suite(0)
    env_cfg = EnvConfig()
    demos = generate_demos(env_cfg, suite["IND"], 2, 0, str(tmp_path / "_fid_demos.jsonl"))
    m, _ = train_sft(m, demos, SftConfig(max_steps=300, eval_interval=300,
                                         eval_episodes=1, seed=0),
                     env_cfg, suite["IND"][:2])
    obs, acts = demo_arrays(demos)
    obs, acts = obs[:128], acts[:128]
    table = taylor_importance(m, obs, acts)
    base = float(sft_loss(m, obs, acts).data)
    groups = build_dependency_groups(m)
    deltas = []
    scores = []
    params = dict(m.named_params())
    for g in groups:
        saved = []
        for name, axis, start, stop in g.members:
            arr = params[name].data
            sl = [slice(None)] * arr.ndim
            sl[axis] = slice(start, stop)
            saved.append((name, tuple(sl), arr[tuple(sl)].copy()))
            arr[tuple(sl)] = 0.0
        masked = float(sft_loss(m, obs, acts).data)
        for name, sl, val in saved:
            params[name].data[sl] = val
        deltas.append(masked - base)
        scores.append(table.scores[g.key])
    rho = spearmanr(scores, deltas).statistic
    assert rho >= 0.8, f"Taylor fidelity too low: rho={rho:.3f}"
