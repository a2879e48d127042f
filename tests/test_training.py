import json

import numpy as np
import pytest

from rlrc.env import EnvConfig, VecEnv, generate_demos, make_task_suite
from rlrc.model import (
    ModelConfig, batch_logprob_value, build_contexts, init_model, init_value_head,
)
from rlrc.tensor import exp, sub
from rlrc.training import (
    ExpertPolicyWrapper,
    PpoConfig,
    SftConfig,
    TrainingError,
    TrajectoryBuffer,
    collect_rollouts,
    compute_gae,
    demo_arrays,
    evaluate,
    ppo_loss,
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


def make_demos(n_per_task=2, tasks=4, seed=0, tmpdir="/tmp"):
    suite = make_task_suite(0)
    return generate_demos(ENV, suite["IND"][:tasks], n_per_task, seed,
                          f"{tmpdir}/_train_demos.jsonl")


# -- sft loss ---------------------------------------------------------------

def test_sft_loss_uniform_closed_form():
    m = tiny_model()
    m.w_act.data[:] = 0.0
    demos = make_demos()
    obs, acts = demo_arrays(demos)
    loss = float(sft_loss(m, obs[:32], acts[:32]).data)
    assert abs(loss - np.log(6.0)) < 1e-6


def test_sft_loss_nonnegative():
    m = tiny_model(seed=1)
    demos = make_demos()
    obs, acts = demo_arrays(demos)
    assert float(sft_loss(m, obs[:16], acts[:16]).data) >= 0.0


def test_sft_loss_empty_batch_rejected():
    m = tiny_model()
    with pytest.raises(TrainingError):
        sft_loss(m, np.zeros((0, ENV.obs_len), dtype=np.int64), np.zeros(0, dtype=np.int64))


def test_sft_memorizes_single_demo():
    m = tiny_model(seed=2)
    demos = make_demos(n_per_task=1, tasks=1)
    suite = make_task_suite(0)
    cfg = SftConfig(max_steps=800, eval_interval=800, eval_episodes=1, seed=0,
                    batch_size=16, lr=1e-3)
    m, rows = train_sft(m, demos, cfg, ENV, suite["IND"][:1])
    obs, acts = demo_arrays(demos)
    assert float(sft_loss(m, obs, acts).data) < 0.05


def test_train_sft_deterministic():
    suite = make_task_suite(0)
    demos = make_demos()
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
    demos = make_demos(tmpdir=tmp_path)
    log = tmp_path / "metrics.jsonl"
    for steps in (2, 4):
        cfg = SftConfig(max_steps=steps, eval_interval=steps, eval_episodes=1, seed=0,
                        batch_size=8)
        _, rows = train_sft(tiny_model(), demos, cfg, ENV, suite["IND"][:1], log_path=log)
    logged = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["step"] for r in logged] == [r["step"] for r in rows] == [4, 4]


def test_train_sft_empty_dataset_rejected():
    with pytest.raises(TrainingError):
        train_sft(tiny_model(), [], SftConfig(), ENV, [])


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
        task_ids=np.zeros((n, h), dtype=np.int64),
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

def test_ppo_loss_ratio_one_identity():
    assert ppo_loss(1.0, 2.0, 0.2) == pytest.approx(2.0, abs=1e-7)


def test_ppo_loss_clips_high_ratio():
    assert ppo_loss(2.0, 1.0, 0.2) == pytest.approx(1.2, abs=1e-7)


def test_ppo_loss_clips_low_ratio_negative_advantage():
    assert ppo_loss(0.5, -1.0, 0.2) == pytest.approx(-0.8, abs=1e-7)


def test_ppo_loss_rejects_nonpositive_ratio():
    with pytest.raises(ValueError):
        ppo_loss(0.0, 1.0, 0.2)


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
    buf, _ = collect_rollouts(model, vhead, vec, 8, rng)
    for i in (0, 3):
        for t in (0, 5):
            ctx = np.append(buf.obs[i, t], model.config.bos_action_id)
            lps, _, _ = batch_logprob_value(model, None, ctx[None], [int(buf.actions[i, t])])
            lp = float(lps.data[0])
            assert lp == float(buf.logprobs[i, t])


def test_collect_task_ids_all_ind():
    model, vhead, vec, rng = _rollout_setup(seed=2)
    buf, _ = collect_rollouts(model, vhead, vec, 16, rng)
    assert buf.task_ids.min() >= 0
    assert buf.task_ids.max() < len(vec.tasks)
    assert all(t.split == "IND" for t in vec.tasks)


def test_first_epoch_ratio_is_one():
    model, vhead, vec, rng = _rollout_setup(seed=3)
    buf, _ = collect_rollouts(model, vhead, vec, 16, rng)
    nh = 4 * 16
    ctx = build_contexts(model.config, buf.obs.reshape(nh, -1))
    acts = buf.actions.reshape(nh)
    old = buf.logprobs.reshape(nh)
    sel = np.random.default_rng(0).permutation(nh)[:24]
    lps, _, _ = batch_logprob_value(model, vhead, ctx[sel], acts[sel])
    ratio = exp(sub(lps, old[sel])).data
    assert np.abs(ratio - 1.0).max() < 1e-6


def test_advantage_normalization_stats():
    model, vhead, vec, rng = _rollout_setup(seed=4)
    buf, _ = collect_rollouts(model, vhead, vec, 32, rng)
    adv, _ = compute_gae(buf, 0.99, 0.95)
    flat = adv.reshape(-1)
    norm = (flat - flat.mean()) / (flat.std() + 1e-8)
    assert abs(norm.mean()) < 1e-6
    assert abs(norm.std() - 1.0) < 1e-3


# -- evaluate ------------------------------------------------------------------

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
                          eval_tasks_ind=suite["IND"][:2])
    for n, p in out.named_params():
        np.testing.assert_array_equal(p.data, before[n], err_msg=n)


def test_train_ppo_refuses_ood_tasks():
    suite = make_task_suite(0)
    with pytest.raises(TrainingError):
        train_ppo(tiny_model(), None, suite["OOD"][:1], micro_ppo_config(), ENV)


def test_train_ppo_deterministic():
    suite = make_task_suite(0)
    outs = []
    for _ in range(2):
        m = tiny_model(seed=9)
        out, _, rows = train_ppo(m, None, suite["IND"][:4],
                                 micro_ppo_config(total_env_steps=32, lr=1e-3), ENV,
                                 eval_tasks_ind=suite["IND"][:2])
        outs.append(np.concatenate([p.data.reshape(-1) for p in out.params()]))
    np.testing.assert_array_equal(outs[0], outs[1])


def test_train_ppo_stop_gradient_switch():
    suite = make_task_suite(0)
    m = tiny_model(seed=10)
    before = {n: p.data.copy() for n, p in m.named_params()}
    cfg = micro_ppo_config(stop_value_backbone_grad=True, lr=1e-3)
    out, vh, _ = train_ppo(m, None, suite["IND"][:4], cfg, ENV,
                           eval_tasks_ind=suite["IND"][:2])
    # parameters still move (policy loss flows), smoke only
    moved = any(np.abs(p.data - before[n]).max() > 0 for n, p in out.named_params())
    assert moved
