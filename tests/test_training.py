import inspect
import json
import re
import tracemalloc

import numpy as np
import pytest

from rlrc.env import EnvConfig, VecEnv, generate_demos, make_task_suite
from rlrc.model import (
    ModelConfig, batch_logprob_value, build_contexts, chunk_rows, forward, init_model,
    init_value_head,
)
from rlrc.config import ConfigError, PipelineConfig
from rlrc.tensor import backward, backward_in_chunks, fused, no_grad
from rlrc import kernels, training
from rlrc.training import (
    EvalResult,
    ExpertPolicyWrapper,
    ModelPolicy,
    PpoConfig,
    SftConfig,
    TrainingError,
    TrajectoryBuffer,
    collect_rollouts,
    compute_gae,
    demo_arrays,
    evaluate,
    ppo_backward,
    sft_loss,
    train_ppo,
    train_sft,
)

ENV = EnvConfig()


def tiny_model(seed=0):
    cfg = ModelConfig(d_model=16, n_layers=2, n_heads_base=2, d_ff_base=24,
                      observation_vocab=ENV.obs_vocab, action_vocab=6,
                      max_seq_len=ENV.obs_len + 2, seed=seed)
    return init_model(cfg)


def make_demos(tmpdir, n_per_task=2, tasks=4, seed=0):
    suite = make_task_suite(0)
    return generate_demos(ENV, suite["IND"][:tasks], n_per_task, seed,
                          f"{tmpdir}/_train_demos.jsonl")


# -- sft loss ---------------------------------------------------------------

def test_sft_loss_uniform_closed_form(tmp_path):
    m = tiny_model()
    dict(m.named_params())["w_act"].data[:] = 0.0
    demos = make_demos(tmp_path)
    obs, acts = demo_arrays(demos)
    loss = float(sft_loss(m, obs[:32], acts[:32]).data)
    assert abs(loss - np.log(6.0)) < 1e-6


def test_sft_loss_nonnegative(tmp_path):
    m = tiny_model(seed=1)
    demos = make_demos(tmp_path)
    obs, acts = demo_arrays(demos)
    assert float(sft_loss(m, obs[:16], acts[:16]).data) >= 0.0


def test_sft_loss_empty_batch_rejected():
    m = tiny_model()
    with pytest.raises(TrainingError):
        sft_loss(m, np.zeros((0, ENV.obs_len), dtype=np.int64), np.zeros(0, dtype=np.int64))


def test_sft_loss_rejects_out_of_range_actions(tmp_path):
    obs, acts = demo_arrays(make_demos(tmp_path))
    for bad in (6, -1):
        acts[3] = bad
        with pytest.raises(IndexError, match=r"action id out of range \[0, 6\)"):
            sft_loss(tiny_model(), obs[:8], acts[:8])


def test_sft_memorizes_single_demo(tmp_path):
    m = tiny_model(seed=2)
    demos = make_demos(tmp_path, n_per_task=1, tasks=1)
    suite = make_task_suite(0)
    cfg = SftConfig(max_steps=800, eval_interval=800, eval_episodes=1, seed=0,
                    batch_size=16, lr=1e-3)
    m, rows = train_sft(m, demos, cfg, ENV, suite["IND"][:1])
    obs, acts = demo_arrays(demos)
    assert float(sft_loss(m, obs, acts).data) < 0.05


def test_train_sft_deterministic(tmp_path):
    suite = make_task_suite(0)
    demos = make_demos(tmp_path)
    curves = []
    for _ in range(2):
        m = tiny_model(seed=3)
        cfg = SftConfig(max_steps=60, eval_interval=20, eval_episodes=2, seed=5,
                        batch_size=16)
        _, rows = train_sft(m, demos, cfg, ENV, suite["IND"][:4])
        curves.append([(r["step"], r.get("loss"), r.get("ind_sr")) for r in rows])
    assert curves[0] == curves[1]


def test_train_sft_log_starts_fresh(tmp_path):
    suite = make_task_suite(0)
    demos = make_demos(tmp_path)
    log = tmp_path / "metrics.jsonl"
    for steps in (2, 4):
        cfg = SftConfig(max_steps=steps, eval_interval=steps, eval_episodes=1, seed=0,
                        batch_size=8)
        _, rows = train_sft(tiny_model(), demos, cfg, ENV, suite["IND"][:1], log_path=log)
    logged = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["step"] for r in logged] == [r["step"] for r in rows] == [4, 4]


def sft_eval_steps(tmp_path, **kw):
    """The steps at which a 20-step SFT run with an eval every 2 steps evaluated."""
    suite = make_task_suite(0)
    cfg = SftConfig(max_steps=20, eval_interval=2, eval_episodes=1, seed=0, batch_size=8, **kw)
    _, rows = train_sft(tiny_model(seed=4), make_demos(tmp_path), cfg, ENV, suite["IND"][:1])
    return [r["step"] for r in rows if r["phase"] == "sft"]


def test_train_sft_early_stops(tmp_path, monkeypatch):
    # SftConfig refuses lr=0, so the eval score is held fixed instead: the
    # second eval cannot improve on the first
    monkeypatch.setattr(training, "evaluate",
                        lambda *args, **kw: EvalResult(0.5, 0.0, 1.0, 1))
    assert sft_eval_steps(tmp_path, patience=1) == [2, 4]
    assert sft_eval_steps(tmp_path) == list(range(2, 21, 2))


def test_train_sft_empty_dataset_rejected():
    with pytest.raises(TrainingError):
        train_sft(tiny_model(), [], SftConfig(), ENV, [])


def test_train_sft_without_eval_tasks_rejected_before_any_step(tmp_path):
    m = tiny_model()
    before = {n: p.data.copy() for n, p in m.named_params()}
    with pytest.raises(TrainingError, match="at least one eval task"):
        train_sft(m, make_demos(tmp_path), SftConfig(max_steps=4, eval_interval=2,
                                                     batch_size=8), ENV, [])
    for n, p in m.named_params():
        np.testing.assert_array_equal(p.data, before[n], err_msg=n)


# -- gae ---------------------------------------------------------------------

def _buffer_from(rewards, values, dones, next_values):
    rewards = np.asarray(rewards, dtype=np.float64)
    n, h = rewards.shape
    return TrajectoryBuffer(
        obs=np.zeros((n, h, 1), dtype=np.int64),
        actions=np.zeros((n, h), dtype=np.int64),
        logprobs=np.zeros((n, h), dtype=np.float32),
        values=np.asarray(values, dtype=np.float32),
        rewards=rewards,
        dones=np.asarray(dones, dtype=np.float64),
        trunc_values=np.zeros((n, h), dtype=np.float64),
        next_values=np.asarray(next_values, dtype=np.float64),
    )


def gae_brute_force(rewards, values, dones, next_values, gamma, lam):
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    n, h = rewards.shape
    adv = np.zeros((n, h))
    for i in range(n):
        for t in range(h):
            acc = 0.0
            w = 1.0
            for l in range(t, h):
                nv = next_values[i] if l == h - 1 else values[i, l + 1]
                delta = rewards[i, l] + gamma * nv * (1 - dones[i, l]) - values[i, l]
                acc += w * delta
                if dones[i, l]:
                    break
                w *= gamma * lam
            adv[i, t] = acc
    return adv


def test_gae_single_step_terminal():
    buf = _buffer_from([[1.0]], [[0.0]], [[1.0]], [0.0])
    for gamma in (0.0, 0.5, 0.99, 1.0):
        adv, ret = compute_gae(buf, gamma, 0.95)
        assert adv[0, 0] == pytest.approx(1.0)
        assert ret[0, 0] == pytest.approx(1.0)


def test_gae_hand_case():
    buf = _buffer_from([[0.0, 1.0]], [[0.0, 0.0]], [[0.0, 1.0]], [0.0])
    adv, ret = compute_gae(buf, 0.5, 1.0)
    np.testing.assert_allclose(ret[0], [0.5, 1.0])


def test_gae_reward_to_go_reduction():
    rng = np.random.default_rng(0)
    rewards = rng.random((2, 6))
    dones = np.zeros((2, 6))
    dones[:, -1] = 1.0
    buf = _buffer_from(rewards, np.zeros((2, 6)), dones, [0.0, 0.0])
    adv, ret = compute_gae(buf, 1.0, 1.0)
    expected = np.cumsum(rewards[:, ::-1], axis=1)[:, ::-1]
    np.testing.assert_allclose(ret, expected, atol=1e-9)


def test_gae_matches_brute_force_random_grid():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = int(rng.integers(1, 4))
        h = int(rng.integers(1, 17))
        rewards = rng.standard_normal((n, h))
        values = rng.standard_normal((n, h))
        dones = (rng.random((n, h)) < 0.2).astype(np.float64)
        nv = rng.standard_normal(n)
        gamma = float(rng.uniform(0, 1))
        lam = float(rng.uniform(0, 1))
        buf = _buffer_from(rewards, values, dones, nv)
        adv, ret = compute_gae(buf, gamma, lam)
        brute = gae_brute_force(rewards, buf.values, dones, nv, gamma, lam)
        assert np.abs(adv - brute).max() < 1e-6
        np.testing.assert_allclose(ret, adv + buf.values.astype(np.float64), atol=1e-9)


def test_gae_truncation_bootstraps_from_critic():
    buf = _buffer_from([[0.0]], [[0.3]], [[1.0]], [99.0])
    buf.trunc_values[0, 0] = 2.0  # critic value at the truncated terminal state
    adv, ret = compute_gae(buf, 0.5, 0.9)
    assert adv[0, 0] == pytest.approx(0.0 + 0.5 * 2.0 - 0.3)


# -- ppo loss ------------------------------------------------------------------

def ppo_loss(ratio, advantage, eps):
    """Clipped surrogate term min(r*A, clip(r, 1-eps, 1+eps)*A): the numpy
    reference of the surrogate `kernels.ppo_objective` averages."""
    r = np.asarray(ratio, dtype=np.float64)
    if np.any(r <= 0):
        raise ValueError("probability ratio must be positive")
    a = np.asarray(advantage, dtype=np.float64)
    return np.minimum(r * a, np.clip(r, 1.0 - eps, 1.0 + eps) * a)


def test_ppo_loss_ratio_one_identity():
    assert ppo_loss(1.0, 2.0, 0.2) == pytest.approx(2.0, abs=1e-7)


def test_ppo_loss_clips_high_ratio():
    assert ppo_loss(2.0, 1.0, 0.2) == pytest.approx(1.2, abs=1e-7)


def test_ppo_loss_clips_low_ratio_negative_advantage():
    assert ppo_loss(0.5, -1.0, 0.2) == pytest.approx(-0.8, abs=1e-7)


def test_ppo_loss_rejects_nonpositive_ratio():
    with pytest.raises(ValueError):
        ppo_loss(0.0, 1.0, 0.2)


def test_ppo_objective_terms_match_numpy_reference():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((40, 6)).astype(np.float32) * 2
    values, ret = rng.standard_normal((2, 40)).astype(np.float32)
    acts = rng.integers(0, 6, 40)
    old = rng.normal(-1.8, 0.5, 40).astype(np.float32)
    adv = rng.standard_normal(40).astype(np.float32)
    terms = {}
    total = kernels.ppo_objective(logits, values, acts, old, adv, ret, 0.2, 0.5, 0.01, terms)
    lg = logits.astype(np.float64)
    log_p = lg - np.log(np.exp(lg).sum(axis=1, keepdims=True))
    ratio = np.exp(log_p[np.arange(40), acts] - old)
    assert ratio.min() < 0.8 and ratio.max() > 1.2
    ref = {"surrogate": ppo_loss(ratio, adv, 0.2).mean(),
           "value_loss": np.mean((values.astype(np.float64) - ret) ** 2),
           "entropy": -np.mean(np.sum(np.exp(log_p) * log_p, axis=1))}
    for k, v in ref.items():
        assert terms[k] == pytest.approx(v, rel=1e-5), k
    assert total.dtype == np.float64
    assert float(total) == pytest.approx(
        -ref["surrogate"] + 0.5 * ref["value_loss"] - 0.01 * ref["entropy"], rel=1e-5)


# -- rollouts ------------------------------------------------------------------

def _rollout_setup(seed=0):
    suite = make_task_suite(0)
    model = tiny_model(seed=seed)
    vhead = init_value_head(model.config.d_model, seed=seed)
    vec = VecEnv(ENV, suite["IND"], 4, seed=seed)
    rng = np.random.default_rng(seed)
    return model, vhead, vec, rng


def test_collect_rewards_alphabet_and_logprob_sign():
    model, vhead, vec, rng = _rollout_setup()
    buf, _ = collect_rollouts(model, vhead, vec, 32, rng)
    assert set(np.unique(buf.rewards)) <= {0.0, 0.1, 1.0}
    assert np.all(buf.logprobs <= 0)
    assert buf.obs.shape == (4, 32, ENV.obs_len)


def test_collect_logprobs_match_recomputation_exactly():
    model, vhead, vec, rng = _rollout_setup(seed=1)
    buf, last_obs = collect_rollouts(model, vhead, vec, 8, rng)
    for i in (0, 3):
        for t in (0, 5):
            ctx = np.append(buf.obs[i, t], model.config.bos_action_id)
            logits, _ = batch_logprob_value(model, vhead, ctx[None])
            lp = kernels.log_softmax(logits.data[:, -1, :])[0, buf.actions[i, t]]
            assert lp == buf.logprobs[i, t]
    # stored values are the critic's on each step's batch, and so is the end bootstrap
    for t in range(8):
        _, values = batch_logprob_value(model, vhead, build_contexts(model.config, buf.obs[:, t]))
        np.testing.assert_array_equal(buf.values[:, t], values.data)
    _, values = batch_logprob_value(model, vhead, build_contexts(model.config, last_obs))
    np.testing.assert_array_equal(buf.next_values, values.data.astype(np.float64))


def test_collect_truncation_bootstraps_are_the_final_obs_values():
    suite = make_task_suite(0)
    model = tiny_model(seed=2)
    vhead = init_value_head(model.config.d_model, seed=2)
    vec = VecEnv(EnvConfig(max_steps=5), suite["IND"], 4, seed=2)
    infos = []  # each step's infos
    vec_step = vec.vec_step

    def recording(actions):
        out = vec_step(actions)
        infos.append(out[3])
        return out

    vec.vec_step = recording
    buf, _ = collect_rollouts(model, vhead, vec, 16, np.random.default_rng(2))
    finals = {(i, t): info["final_obs"] for t, step_infos in enumerate(infos)
              for i, info in enumerate(step_infos) if info.get("truncated")}
    assert finals  # episodes of 5 steps truncate inside the 16-step horizon
    assert set(zip(*np.nonzero(buf.trunc_values))) == set(finals)
    for t in range(16):
        slots = [i for i in range(4) if (i, t) in finals]
        if slots:
            ctx = build_contexts(model.config, np.stack([finals[i, t] for i in slots]))
            _, values = batch_logprob_value(model, vhead, ctx)
            np.testing.assert_array_equal(buf.trunc_values[slots, t],
                                          values.data.astype(np.float64))


def test_first_epoch_ratio_is_one():
    model, vhead, vec, rng = _rollout_setup(seed=3)
    buf, _ = collect_rollouts(model, vhead, vec, 16, rng)
    nh = 4 * 16
    ctx = build_contexts(model.config, buf.obs.reshape(nh, -1))
    acts = buf.actions.reshape(nh)
    old = buf.logprobs.reshape(nh)
    sel = np.random.default_rng(0).permutation(nh)[:24]
    logits, values = batch_logprob_value(model, vhead, ctx[sel])
    lps = kernels.log_softmax(logits.data[:, -1, :])[np.arange(24), acts[sel]]
    ratio = np.exp(lps - old[sel])
    assert np.abs(ratio - 1.0).max() < 1e-6
    # so the objective's surrogate at advantages of one is one
    terms = {}
    ones = np.ones(24, dtype=np.float32)
    fused(kernels.ppo_objective, kernels.ppo_objective_backward, (logits, values),
          acts[sel], old[sel], ones, ones, 0.2, 0.5, 0.01, terms)
    assert terms["surrogate"] == pytest.approx(1.0, abs=1e-6)


def test_advantage_normalization_stats():
    model, vhead, vec, rng = _rollout_setup(seed=4)
    buf, _ = collect_rollouts(model, vhead, vec, 32, rng)
    adv, _ = compute_gae(buf, 0.99, 0.95)
    flat = adv.reshape(-1)
    norm = (flat - flat.mean()) / (flat.std() + 1e-8)
    assert abs(norm.mean()) < 1e-6
    assert abs(norm.std() - 1.0) < 1e-3


def ppo_minibatch(model, rows, seed=0):
    """(contexts, actions, old log-probs, advantages, returns) of ``rows``
    random steps; old log-probs are the current ones jittered, so some
    ratios fall outside the clip range."""
    rng = np.random.default_rng(seed)
    obs = rng.integers(0, ENV.obs_vocab, size=(rows, ENV.obs_len))
    ctx = build_contexts(model.config, obs)
    acts = rng.integers(0, model.config.action_vocab, size=rows)
    with no_grad():
        logits, _ = forward(model, ctx)
    lps = kernels.log_softmax(logits.data[:, -1, :])[np.arange(rows), acts]
    old = (lps + rng.normal(0.0, 0.3, size=rows)).astype(np.float32)
    adv = rng.standard_normal(rows).astype(np.float32)
    ret = rng.standard_normal(rows).astype(np.float32)
    return ctx, acts, old, adv, ret


def one_pass_ppo(model, vhead, batch, cfg):
    """Reference: the PPO loss of the whole minibatch in one graph."""
    ctx, acts, old, adv, ret = batch
    terms = {}
    backward(fused(kernels.ppo_objective, kernels.ppo_objective_backward,
                   batch_logprob_value(model, vhead, ctx), acts, old, adv, ret,
                   cfg.clip_eps, cfg.value_coef, cfg.entropy_coef, terms))
    return terms


def model_chunk_rows(model):
    """Rows per chunk of a training pass on ``model``'s contexts."""
    return chunk_rows(model.config, ENV.obs_len + 1)


def take_grads(params):
    grads = [p.grad for p in params]
    for p in params:
        p.grad = None
    return grads


def test_ppo_backward_matches_one_pass():
    # two full chunks and a partial one, at the model's own chunk rows
    model = tiny_model(seed=11)
    vhead = init_value_head(model.config.d_model, seed=11)
    params = model.params() + vhead.params()
    cfg = PpoConfig()
    rows = model_chunk_rows(model)
    batch = ppo_minibatch(model, 2 * rows + rows // 2)
    ref = one_pass_ppo(model, vhead, batch, cfg)
    ref_grads = take_grads(params)
    parts = ppo_backward(model, vhead, *batch, cfg, env_steps=0)
    grads = take_grads(params)
    assert parts.pop("chunk_rows") == rows
    assert parts.keys() == ref.keys()
    for k in ref:
        assert parts[k] == pytest.approx(ref[k], rel=1e-5, abs=1e-7), k
    for (name, _), g, r in zip(list(model.named_params()) + list(vhead.named_params()),
                               grads, ref_grads):
        assert np.abs(g - r).max() <= 1e-5 * np.abs(r).max(), name


def test_ppo_backward_peak_memory_independent_of_batch():
    # numpy reports its buffers to tracemalloc; a minibatch of four chunks
    # must peak at about what a one-chunk one does, not at four times its graph
    model = tiny_model(seed=12)
    vhead = init_value_head(model.config.d_model, seed=12)
    params = model.params() + vhead.params()
    cfg = PpoConfig()
    one = model_chunk_rows(model)
    batches = {rows: ppo_minibatch(model, rows) for rows in (one, 4 * one)}
    ppo_backward(model, vhead, *batches[one], cfg, env_steps=0)  # warm up
    take_grads(params)
    peaks = []
    for rows in (one, 4 * one):
        tracemalloc.start()
        try:
            ppo_backward(model, vhead, *batches[rows], cfg, env_steps=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        take_grads(params)
    assert peaks[1] < 1.5 * peaks[0], f"peak grows with the minibatch: {peaks}"


def test_ppo_backward_divergence_names_step_and_parts():
    model = tiny_model(seed=13)
    vhead = init_value_head(model.config.d_model, seed=13)
    rows = model_chunk_rows(model)
    ctx, acts, old, adv, ret = ppo_minibatch(model, rows + 8)
    ret[rows + 3] = np.nan  # in the second chunk
    with pytest.raises(TrainingError, match=r"env_steps=4096: surrogate=.*value_loss=nan"):
        ppo_backward(model, vhead, ctx, acts, old, adv, ret, PpoConfig(), env_steps=4096)


def test_ppo_backward_rejects_out_of_range_actions():
    model = tiny_model(seed=13)
    vhead = init_value_head(model.config.d_model, seed=13)
    rows = model_chunk_rows(model)
    ctx, acts, old, adv, ret = ppo_minibatch(model, rows + 8)
    for bad in (model.config.action_vocab, -1):
        acts[rows + 3] = bad  # in the second chunk
        with pytest.raises(IndexError, match=r"action id out of range \[0, 6\)"):
            ppo_backward(model, vhead, ctx, acts, old, adv, ret, PpoConfig(), env_steps=0)


# -- evaluate ------------------------------------------------------------------

class RowCountingExpert(ExpertPolicyWrapper):
    """The expert, recording how many episodes each step decodes."""

    def __init__(self):
        self.rows = []

    def act(self, obs_batch, states):
        assert len(obs_batch) == len(states) and not any(s.done for s in states)
        self.rows.append(len(states))
        return super().act(obs_batch, states)


def evaluate_every_row(policy, tasks, episodes_per_task, env_config, seed=7):
    """Reference: decode every episode at every step, finished ones too."""
    from rlrc.env import reset, step

    states, obs = [], []
    for task in tasks:
        for e in range(episodes_per_task):
            s, o = reset(env_config, task, 100_000 * seed + e)
            states.append(s)
            obs.append(o)
    obs = np.stack(obs)
    n = len(states)
    returns, lengths = np.zeros(n), np.zeros(n, dtype=np.int64)
    successes, active = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    for _ in range(env_config.max_steps):
        if not active.any():
            break
        actions = policy.act(obs, states)
        for i in np.flatnonzero(active):
            res = step(states[i], int(actions[i]))
            obs[i] = res.obs
            returns[i] += res.reward
            lengths[i] += 1
            if res.done:
                active[i] = False
                successes[i] = states[i].success
    return successes.mean(), returns.mean(), lengths.mean()


@pytest.mark.parametrize("split", ["IND", "OOD"])
def test_evaluate_decodes_only_running_episodes(split):
    suite = make_task_suite(0)
    policy = RowCountingExpert()
    r = evaluate(policy, suite[split], 3, ENV, seed=3)
    sr, ret, length = evaluate_every_row(ExpertPolicyWrapper(), suite[split], 3, ENV, seed=3)
    assert (r.success_rate, r.mean_return, r.mean_length) == (sr, ret, length)
    # the expert's episodes end at different steps, so later steps shrink
    assert policy.rows[0] == r.episodes > policy.rows[-1]
    assert sum(policy.rows) == r.mean_length * r.episodes


def test_evaluate_rejects_an_empty_grid():
    suite = make_task_suite(0)
    for tasks, episodes in (([], 2), (suite["IND"][:2], 0)):
        with pytest.raises(TrainingError, match=f"got {len(tasks)} tasks and "
                                                f"episodes_per_task={episodes}"):
            evaluate(ExpertPolicyWrapper(), tasks, episodes, ENV)


class RowCountingModelPolicy(ModelPolicy):
    """Greedy decoding, recording how many episodes each step decodes."""

    def __init__(self, model):
        super().__init__(model)
        self.rows = []

    def act(self, obs_batch, states):
        self.rows.append(len(obs_batch))
        return super().act(obs_batch, states)


def test_evaluate_model_matches_every_row_reference():
    suite = make_task_suite(0)
    m = tiny_model(seed=7)  # untrained: its greedy episodes loop
    for split in ("IND", "OOD"):
        policy = RowCountingModelPolicy(m)
        r = evaluate(policy, suite[split], 2, ENV)
        sr, ret, length = evaluate_every_row(ModelPolicy(m), suite[split], 2, ENV)
        assert r == EvalResult(sr, ret, length, 2 * len(suite[split]))
        # a looping episode stops at its first repeated state, scored as a time-out
        assert sum(policy.rows) < r.mean_length * r.episodes

def test_evaluate_expert_perfect_on_both_splits():
    suite = make_task_suite(0)
    for split in ("IND", "OOD"):
        r = evaluate(ExpertPolicyWrapper(), suite[split], 3, ENV)
        assert r.success_rate == 1.0
        assert r.mean_return == pytest.approx(1.1)


def test_evaluate_untrained_model_floor():
    suite = make_task_suite(0)
    r = evaluate(tiny_model(seed=6), suite["IND"], 3, ENV)
    assert 0.0 <= r.success_rate <= 0.25


def test_evaluate_deterministic():
    suite = make_task_suite(0)
    m = tiny_model(seed=7)
    a = evaluate(m, suite["IND"], 2, ENV)
    b = evaluate(m, suite["IND"], 2, ENV)
    assert a.success_rate == b.success_rate
    assert a.mean_return == b.mean_return


# -- ppo trainer ----------------------------------------------------------------

def micro_ppo_config(**kw):
    base = dict(n_envs=2, horizon=8, total_env_steps=16, epochs=1, minibatches=1,
                eval_interval_steps=10_000, eval_episodes=1, seed=0)
    base.update(kw)
    return PpoConfig(**base)


def test_train_ppo_zero_lr_keeps_params():
    suite = make_task_suite(0)
    m = tiny_model(seed=8)
    before = {n: p.data.copy() for n, p in m.named_params()}
    out, _, _ = train_ppo(m, None, suite["IND"][:4], micro_ppo_config(lr=0.0), ENV,
                          eval_tasks_ind=suite["IND"][:2], eval_tasks_ood=[])
    for n, p in out.named_params():
        np.testing.assert_array_equal(p.data, before[n], err_msg=n)


def test_train_ppo_early_stops_after_patience_evals():
    # an eval after every 16-step iteration; with lr=0 the second cannot improve
    suite = make_task_suite(0)
    for patience, evals in ((1, [16, 32]), (1_000_000, [16, 32, 48, 64, 80])):
        cfg = micro_ppo_config(lr=0.0, total_env_steps=80, eval_interval_steps=16,
                               early_stop_patience=patience)
        _, _, rows = train_ppo(tiny_model(seed=8), None, suite["IND"][:4], cfg, ENV,
                               eval_tasks_ind=suite["IND"][:1], eval_tasks_ood=[])
        assert [r["step"] for r in rows if r["phase"] == "ppo"] == evals


def test_training_rows_record_the_chunk_rows_used(tmp_path, monkeypatch):
    used = []

    def recording(loss_fn, n, rows):
        used.append(rows)
        return backward_in_chunks(loss_fn, n, rows)

    monkeypatch.setattr(training, "backward_in_chunks", recording)
    suite = make_task_suite(0)
    m = tiny_model(seed=8)
    _, sft_rows = train_sft(m, make_demos(tmp_path), SftConfig(
        max_steps=2, eval_interval=2, eval_episodes=1, batch_size=8), ENV, suite["IND"][:1])
    _, _, ppo_rows = train_ppo(m, None, suite["IND"][:4], micro_ppo_config(), ENV,
                               eval_tasks_ind=suite["IND"][:1], eval_tasks_ood=[])
    rows = model_chunk_rows(m)
    assert used and set(used) == {rows}
    evals = [r for r in sft_rows + ppo_rows if r["phase"] in ("sft", "ppo")]
    assert len(evals) >= 2 and {r["chunk_rows"] for r in evals} == {rows}
    # each evaluation's wall seconds, within the run's
    assert all(0.0 < r["eval_s"] < r["wallclock"] for r in evals)


def test_train_ppo_refuses_ood_tasks():
    suite = make_task_suite(0)
    with pytest.raises(TrainingError):
        train_ppo(tiny_model(), None, suite["OOD"][:1], micro_ppo_config(), ENV,
                  suite["IND"][:1], suite["OOD"][:1])


def test_train_ppo_refuses_no_ind_eval_tasks(monkeypatch):
    # every evaluation would score 0, so the first one's weights would win
    def refuse(*args, **kwargs):
        raise AssertionError("train_ppo collected a rollout")

    monkeypatch.setattr(training, "collect_rollouts", refuse)
    suite = make_task_suite(0)
    for ind in (None, []):
        with pytest.raises(TrainingError, match="at least one IND eval task"):
            train_ppo(tiny_model(), None, suite["IND"][:1], micro_ppo_config(), ENV,
                      ind, suite["OOD"][:1])


def test_train_ppo_deterministic():
    suite = make_task_suite(0)
    outs = []
    for _ in range(2):
        m = tiny_model(seed=9)
        out, _, rows = train_ppo(m, None, suite["IND"][:4],
                                 micro_ppo_config(total_env_steps=32, lr=1e-3), ENV,
                                 eval_tasks_ind=suite["IND"][:2], eval_tasks_ood=[])
        outs.append(np.concatenate([p.data.reshape(-1) for p in out.params()]))
    np.testing.assert_array_equal(outs[0], outs[1])


def test_train_sft_returns_the_best_evals_weights(tmp_path, monkeypatch):
    # the first of three evals scores best: its weights come back, not the last
    seen = []

    def scored(model, *args, **kw):
        seen.append([p.data.copy() for p in model.params()])
        return EvalResult(1.0 / len(seen), 0.0, 1.0, 1)

    monkeypatch.setattr(training, "evaluate", scored)
    suite = make_task_suite(0)
    m = tiny_model(seed=4)
    cfg = SftConfig(max_steps=6, eval_interval=2, eval_episodes=1, seed=0, batch_size=8)
    demos = make_demos(tmp_path)
    out, _ = train_sft(m, demos, cfg, ENV, suite["IND"][:1])
    assert len(seen) == 3
    for p, best, last in zip(out.params(), seen[0], m.params()):
        np.testing.assert_array_equal(p.data, best)
        assert not np.shares_memory(p.data, last.data)
    # the returned weights are trainable: a backward pass reaches every one
    backward(sft_loss(out, *[a[:4] for a in demo_arrays(demos)]))
    assert all(p.grad is not None for p in out.params())
    assert any(np.any(p.data != last.data) for p, last in zip(out.params(), m.params()))


def test_train_ppo_returns_the_best_evals_weights(monkeypatch):
    seen = []
    m = tiny_model(seed=8)
    vh = init_value_head(m.config.d_model, seed=8)

    def scored(model, *args, **kw):
        seen.append([p.data.copy() for p in model.params() + vh.params()])
        return EvalResult(1.0 / len(seen), 0.0, 1.0, 1)

    monkeypatch.setattr(training, "evaluate", scored)
    suite = make_task_suite(0)
    cfg = micro_ppo_config(lr=1e-3, total_env_steps=48, eval_interval_steps=16)
    out, out_vh, rows = train_ppo(m, vh, suite["IND"][:4], cfg, ENV,
                                  eval_tasks_ind=suite["IND"][:1], eval_tasks_ood=[])
    assert len(seen) == 3
    # the last row names the chosen evaluation, not the last one
    assert [r["ind_sr"] for r in rows if r["phase"] == "ppo"] == [1.0, 0.5, 1.0 / 3]
    assert {k: rows[-1][k] for k in ("phase", "step", "ind_sr", "ood_sr")} == \
        {"phase": "ppo_best", "step": 16, "ind_sr": 1.0, "ood_sr": 0.0}
    params, trained = out.params() + out_vh.params(), m.params() + vh.params()
    for p, best, last in zip(params, seen[0], trained):
        np.testing.assert_array_equal(p.data, best)
        assert not np.shares_memory(p.data, last.data)
    assert any(np.any(p.data != last.data) for p, last in zip(params, trained))


def test_train_ppo_selects_on_ind_success_alone(monkeypatch):
    # the second evaluation has the higher IND + OOD sum, the first the higher IND
    scores = {"IND": [0.5, 0.25], "OOD": [0.0, 1.0]}
    seen = []
    m = tiny_model(seed=8)
    vh = init_value_head(m.config.d_model, seed=8)

    def scored(model, tasks, *args, **kw):
        if tasks[0].split == "IND":
            seen.append([p.data.copy() for p in model.params() + vh.params()])
        return EvalResult(scores[tasks[0].split][len(seen) - 1], 0.0, 1.0, 1)

    monkeypatch.setattr(training, "evaluate", scored)
    suite = make_task_suite(0)
    cfg = micro_ppo_config(lr=1e-3, total_env_steps=32, eval_interval_steps=16)
    out, out_vh, rows = train_ppo(m, vh, suite["IND"][:4], cfg, ENV,
                                  eval_tasks_ind=suite["IND"][:1],
                                  eval_tasks_ood=suite["OOD"][:1])
    # OOD is still logged at every evaluation, and for the chosen one
    assert [(r["ind_sr"], r["ood_sr"]) for r in rows if r["phase"] == "ppo"] == \
        [(0.5, 0.0), (0.25, 1.0)]
    assert {k: rows[-1][k] for k in ("phase", "step", "ind_sr", "ood_sr")} == \
        {"phase": "ppo_best", "step": 16, "ind_sr": 0.5, "ood_sr": 0.0}
    for p, best in zip(out.params() + out_vh.params(), seen[0]):
        np.testing.assert_array_equal(p.data, best)


def test_trainers_never_select_on_the_reported_episodes(tmp_path, monkeypatch):
    seeds = []
    real = training.evaluate

    def recorded(*args, **kw):
        bound = inspect.signature(real).bind(*args, **kw)
        bound.apply_defaults()
        seeds.append(bound.arguments["seed"])
        return real(*args, **kw)

    monkeypatch.setattr(training, "evaluate", recorded)
    suite = make_task_suite(0)
    cfg = SftConfig(max_steps=4, eval_interval=2, eval_episodes=1, seed=0, batch_size=8)
    model, _ = train_sft(tiny_model(), make_demos(tmp_path), cfg, ENV, suite["IND"][:1])
    train_ppo(model, None, suite["IND"][:2], micro_ppo_config(), ENV,
              eval_tasks_ind=suite["IND"][:1], eval_tasks_ood=suite["OOD"][:1])
    assert len(seeds) == 4 and set(seeds) == {training.SELECTION_SEED}
    assert PipelineConfig.default().eval.seed not in seeds
    # a report at the selection seed would read the episodes that chose the weights
    with pytest.raises(ConfigError, match=re.escape(
            f"bad values in section eval: seed must differ from the trainers' selection "
            f"seed training.SELECTION_SEED = {training.SELECTION_SEED}, "
            f"got {training.SELECTION_SEED}")):
        PipelineConfig.from_dict({"eval": {"seed": training.SELECTION_SEED}})


# -- configs --------------------------------------------------------------------

@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("minibatches", 0), ("n_envs", 0), ("horizon", -1),
    ("total_env_steps", 0), ("eval_interval_steps", 0), ("eval_episodes", 0),
    ("lr", -1e-4), ("lam", 1.5), ("lam", -0.1), ("gamma", 1.01), ("clip_eps", 0.0),
    ("early_stop_patience", 0),
])
def test_ppo_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=f"{field} .*{value}"):
        PpoConfig(**{field: value})


def test_ppo_config_rejects_more_minibatches_than_rows():
    with pytest.raises(ValueError, match="minibatches=32 exceeds .* = 16 rows"):
        PpoConfig(n_envs=2, horizon=8, minibatches=32)
    assert PpoConfig(n_envs=2, horizon=8, minibatches=16, lr=0.0).minibatches == 16
    with pytest.raises(ConfigError, match="bad values in section ppo: minibatches=32"):
        PipelineConfig.from_dict({"ppo": {"n_envs": 2, "horizon": 8, "minibatches": 32}})


def test_sft_config_rejects_no_eval_episodes():
    with pytest.raises(ValueError, match="eval_episodes must be >= 1, got 0"):
        SftConfig(eval_episodes=0)


@pytest.mark.parametrize("value", [0, -3])
def test_sft_config_rejects_patience_below_one(value):
    # at 0 the stall check would stop SFT after an improving first evaluation
    with pytest.raises(ValueError, match=f"patience must be >= 1, got {value}"):
        SftConfig(patience=value)
