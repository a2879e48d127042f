"""Two-stage recovery training and evaluation.

SFT minimizes mean negative log-likelihood of expert actions; PPO runs
clipped-surrogate updates with GAE over sparse-reward rollouts from the
vectorized env, critic sharing the transformer backbone.  Evaluation is
batched greedy rollout over a deterministic (task, seed) grid and is the
single scorer used by every pipeline stage.

Every loss, rollout and value here reads the policy at the marker, the
last context position, which is the one position `model.forward` computes:
its (B, 1, A) logits and (B, 1, D) hidden states are reshaped or indexed
at ``[:, -1, :]``.
"""

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .env import VecEnv, reset, step as env_step, expert_policy
from .model import (
    PolicyModel,
    batch_logprob_value,
    build_contexts,
    forward,
    greedy_actions,
    init_value_head,
)
from .tensor import (
    OptimizerState,
    Tensor,
    adam_step,
    add,
    backward,
    check_finite,
    clip,
    cross_entropy,
    exp,
    log_softmax,
    mean,
    minimum,
    mul,
    neg,
    no_grad,
    reshape,
    square,
    sub,
)


class TrainingError(RuntimeError):
    pass


@dataclass
class SftConfig:
    lr: float = 3e-4
    batch_size: int = 64
    max_steps: int = 10_000
    eval_interval: int = 200
    eval_episodes: int = 4
    seed: int = 0
    # stop once eval success clears this, or after `patience` evals
    # without improvement; best checkpoint is returned either way
    early_stop_success: float = 1.01
    patience: int = 1_000_000

    def __post_init__(self):
        if min(self.lr, self.batch_size, self.max_steps, self.eval_interval) <= 0:
            raise ValueError("SftConfig values must be positive")


@dataclass
class PpoConfig:
    gamma: float = 0.99
    lam: float = 0.95
    clip_eps: float = 0.2
    epochs: int = 4
    minibatches: int = 4
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    n_envs: int = 16
    horizon: int = 64
    total_env_steps: int = 300_000
    lr: float = 1e-4
    seed: int = 0
    eval_interval_steps: int = 8_192
    eval_episodes: int = 4
    stop_value_backbone_grad: bool = False
    early_stop_patience: int = 1_000_000

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.clip_eps <= 0:
            raise ValueError(f"clip_eps must be positive, got {self.clip_eps}")


@dataclass
class TrajectoryBuffer:
    """(envs x horizon) rollout grid plus bootstrap values."""
    obs: np.ndarray        # (N, H, L) int64
    actions: np.ndarray    # (N, H) int64
    logprobs: np.ndarray   # (N, H) f32
    values: np.ndarray     # (N, H) f32
    rewards: np.ndarray    # (N, H) f64
    dones: np.ndarray      # (N, H) f64, success terminal or truncation
    trunc_values: np.ndarray  # (N, H) f64, critic bootstrap at truncations
    next_values: np.ndarray   # (N,) f64, bootstrap at rollout end
    task_ids: np.ndarray   # (N, H) int64
    advantages: np.ndarray = None
    returns: np.ndarray = None


def demo_arrays(demos):
    """Flatten demonstrations to (obs, action) step arrays."""
    obs = []
    acts = []
    for d in demos:
        for o, a in d.steps:
            obs.append(o)
            acts.append(a)
    return np.asarray(obs, dtype=np.int64), np.asarray(acts, dtype=np.int64)


def sft_loss(model, obs_batch, action_batch):
    """Mean negative log-likelihood of the demonstrated actions."""
    obs = np.asarray(obs_batch, dtype=np.int64)
    if obs.ndim == 1:
        obs = obs[None, :]
    if obs.shape[0] == 0:
        raise TrainingError("sft_loss on an empty batch")
    actions = np.asarray(action_batch, dtype=np.int64).reshape(-1)
    contexts = build_contexts(model.config, obs)
    logits, _ = forward(model, contexts)
    return cross_entropy(reshape(logits, (-1, model.config.action_vocab)), actions)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalResult:
    success_rate: float
    mean_return: float
    mean_length: float
    episodes: int
    per_task: dict = field(default_factory=dict)


class ModelPolicy:
    """Greedy action decoder: `model.greedy_actions`, the decoder under no_grad."""

    def __init__(self, model):
        self.model = model

    def act(self, obs_batch, states):
        return greedy_actions(self.model, build_contexts(self.model.config, obs_batch))


class ExpertPolicyWrapper:
    """Scripted expert driven through the evaluation harness."""

    def act(self, obs_batch, states):
        return np.array([expert_policy(s) for s in states], dtype=np.int64)


def evaluate(policy, tasks, episodes_per_task, env_config, seed=7):
    """Deterministic greedy rollouts over a (task, episode-seed) grid."""
    if isinstance(policy, PolicyModel):
        policy = ModelPolicy(policy)
    states = []
    obs_rows = []
    owners = []
    for ti, task in enumerate(tasks):
        for e in range(episodes_per_task):
            s, o = reset(env_config, task, 100_000 * seed + e)
            states.append(s)
            obs_rows.append(o)
            owners.append(ti)
    n = len(states)
    obs = np.stack(obs_rows)
    returns = np.zeros(n)
    lengths = np.zeros(n, dtype=np.int64)
    successes = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    for _ in range(env_config.max_steps):
        if not active.any():
            break
        actions = policy.act(obs, states)
        for i in range(n):
            if not active[i]:
                continue
            res = env_step(states[i], int(actions[i]))
            obs[i] = res.obs
            returns[i] += res.reward
            lengths[i] += 1
            if res.done:
                active[i] = False
                successes[i] = states[i].success
    per_task = {}
    for ti, task in enumerate(tasks):
        m = np.asarray(owners) == ti
        per_task[(task.object_type, task.plate_id)] = float(successes[m].mean())
    return EvalResult(
        success_rate=float(successes.mean()),
        mean_return=float(returns.mean()),
        mean_length=float(lengths.mean()),
        episodes=n,
        per_task=per_task,
    )


# ---------------------------------------------------------------------------
# SFT
# ---------------------------------------------------------------------------

class MetricsLogger:
    """Metric rows in memory and, given a path, as JSON lines in a file the
    logger starts afresh, so a rerun never mixes its rows with an old run's."""

    def __init__(self, path=None):
        self.path = path
        self.rows = []
        self._t0 = time.perf_counter()
        if path:
            open(path, "w", encoding="utf-8").close()

    def log(self, **row):
        row.setdefault("wallclock", time.perf_counter() - self._t0)
        self.rows.append(row)
        if self.path:
            with open(self.path, "a", encoding="utf-8") as f:
                f.write(json.dumps(row) + "\n")
        return row


def train_sft(model, demos, config, env_config, eval_tasks, log_path=None):
    """SFT with periodic greedy evaluation and best-checkpoint selection.

    Deterministic per seed.  Returns (best model, metric rows).
    """
    if not demos:
        raise TrainingError("empty demonstration dataset")
    obs_all, act_all = demo_arrays(demos)
    rng = np.random.default_rng(config.seed)
    params = model.params()
    opt = OptimizerState(params, lr=config.lr)
    logger = MetricsLogger(log_path)
    best_sr = -1.0
    best_params = [p.data.copy() for p in params]
    best_step = 0
    stall = 0
    m = obs_all.shape[0]
    for it in range(1, config.max_steps + 1):
        idx = rng.integers(0, m, size=config.batch_size)
        loss = sft_loss(model, obs_all[idx], act_all[idx])
        check_finite(loss, "sft loss")
        backward(loss)
        adam_step(opt)
        if it % config.eval_interval == 0 or it == config.max_steps:
            sr = evaluate(model, eval_tasks, config.eval_episodes, env_config).success_rate
            logger.log(step=it, phase="sft", loss=float(loss.data), ind_sr=sr)
            if sr > best_sr:
                best_sr = sr
                best_params = [p.data.copy() for p in params]
                best_step = it
                stall = 0
            else:
                stall += 1
            if sr >= config.early_stop_success or stall >= config.patience:
                break
    out = model.copy()
    for p, b in zip(out.params(), best_params):
        p.data = b.copy()
    logger.log(step=best_step, phase="sft_best", ind_sr=best_sr)
    return out, logger.rows


# ---------------------------------------------------------------------------
# PPO
# ---------------------------------------------------------------------------

def _values_at_marker(model, value_head, obs):
    contexts = build_contexts(model.config, obs)
    with no_grad():
        _, hidden = forward(model, contexts)
        v = value_head.apply(Tensor(hidden.data[:, -1, :]))
    return v.data.astype(np.float64)


def collect_rollouts(model, value_head, vec_env, horizon, rng, obs=None):
    """Gather an (envs x horizon) buffer under the frozen current policy.

    Stored log-probs and values come from the same ops the PPO update
    replays, so the first-epoch ratio is exactly one.  Returns
    (buffer, last observations) for seamless continuation.
    """
    if obs is None:
        obs = vec_env.vec_reset()
    n = vec_env.n
    length = vec_env.config.obs_len
    buf = TrajectoryBuffer(
        obs=np.zeros((n, horizon, length), dtype=np.int64),
        actions=np.zeros((n, horizon), dtype=np.int64),
        logprobs=np.zeros((n, horizon), dtype=np.float32),
        values=np.zeros((n, horizon), dtype=np.float32),
        rewards=np.zeros((n, horizon), dtype=np.float64),
        dones=np.zeros((n, horizon), dtype=np.float64),
        trunc_values=np.zeros((n, horizon), dtype=np.float64),
        next_values=np.zeros(n, dtype=np.float64),
        task_ids=np.zeros((n, horizon), dtype=np.int64),
    )
    task_index = {(t.object_type, t.plate_id): i for i, t in enumerate(vec_env.tasks)}
    for t in range(horizon):
        contexts = build_contexts(model.config, obs)
        with no_grad():
            logits, hidden = forward(model, contexts)
            vals = value_head.apply(Tensor(hidden.data[:, -1, :])).data
            lp_rows = log_softmax(logits.data[:, -1, :], -1).data
        p = np.exp(lp_rows.astype(np.float64))
        p /= p.sum(axis=1, keepdims=True)
        u = rng.random(n)
        acts = (p.cumsum(axis=1) < u[:, None]).sum(axis=1)
        acts = np.minimum(acts, model.config.action_vocab - 1).astype(np.int64)
        buf.obs[:, t] = obs
        buf.actions[:, t] = acts
        buf.logprobs[:, t] = lp_rows[np.arange(n), acts]
        buf.values[:, t] = vals
        for i, s in enumerate(vec_env.states):
            buf.task_ids[i, t] = task_index[(s.task.object_type, s.task.plate_id)]
        obs, rewards, dones, infos = vec_env.vec_step(acts)
        buf.rewards[:, t] = rewards
        buf.dones[:, t] = dones.astype(np.float64)
        trunc_rows = [i for i, inf in enumerate(infos) if inf.get("truncated")]
        if trunc_rows:
            finals = np.stack([infos[i]["final_obs"] for i in trunc_rows])
            tv = _values_at_marker(model, value_head, finals)
            for j, i in enumerate(trunc_rows):
                buf.trunc_values[i, t] = tv[j]
    buf.next_values = _values_at_marker(model, value_head, obs)
    return buf, obs


def compute_gae(buffer, gamma, lam):
    """GAE advantages and returns; truncations bootstrap from the critic,
    success terminals bootstrap zero."""
    rewards = buffer.rewards + gamma * buffer.trunc_values
    values = buffer.values.astype(np.float64)
    n, h = rewards.shape
    adv = np.zeros((n, h), dtype=np.float64)
    acc = np.zeros(n, dtype=np.float64)
    for t in range(h - 1, -1, -1):
        nv = buffer.next_values if t == h - 1 else values[:, t + 1]
        nonterm = 1.0 - buffer.dones[:, t]
        delta = rewards[:, t] + gamma * nv * nonterm - values[:, t]
        acc = delta + gamma * lam * nonterm * acc
        adv[:, t] = acc
    ret = adv + values
    buffer.advantages = adv
    buffer.returns = ret
    return adv, ret


def train_ppo(model, value_head, tasks, config, env_config,
              eval_tasks_ind=None, eval_tasks_ood=None, log_path=None):
    """Clipped-surrogate PPO on IND tasks with a shared-backbone critic.

    Iterates collect -> GAE -> epochs x minibatches of
    -surrogate + c_v * value_error^2 - c_e * entropy, evaluates IND/OOD at
    intervals, and returns the best checkpoint by IND+OOD success.
    """
    for t in tasks:
        if t.split != "IND":
            raise TrainingError(f"train_ppo refuses non-IND task {t}")
    if value_head is None:
        value_head = init_value_head(model.config.d_model, seed=config.seed)
    params = model.params() + value_head.params()
    opt = OptimizerState(params, lr=config.lr)
    rng_collect = np.random.default_rng([config.seed, 101])
    rng_update = np.random.default_rng([config.seed, 202])
    vec = VecEnv(env_config, tasks, config.n_envs, seed=config.seed)
    obs = None
    logger = MetricsLogger(log_path)
    env_steps = 0
    next_eval = 0
    best_key = -1.0
    best = ([p.data.copy() for p in params], 0)
    stall = 0
    nh = config.n_envs * config.horizon

    def run_eval():
        ind = evaluate(model, eval_tasks_ind, config.eval_episodes, env_config).success_rate \
            if eval_tasks_ind else 0.0
        ood = evaluate(model, eval_tasks_ood, config.eval_episodes, env_config).success_rate \
            if eval_tasks_ood else 0.0
        return ind, ood

    while env_steps < config.total_env_steps:
        buf, obs = collect_rollouts(model, value_head, vec, config.horizon, rng_collect, obs)
        env_steps += nh
        adv, ret = compute_gae(buf, config.gamma, config.lam)
        flat_ctx = build_contexts(model.config, buf.obs.reshape(nh, -1))
        flat_act = buf.actions.reshape(nh)
        flat_old = buf.logprobs.reshape(nh).astype(np.float32)
        flat_adv = adv.reshape(nh)
        flat_adv = (flat_adv - flat_adv.mean()) / (flat_adv.std() + 1e-8)
        flat_adv = flat_adv.astype(np.float32)
        flat_ret = ret.reshape(nh).astype(np.float32)
        mb_size = nh // config.minibatches
        loss_row = {}
        for ep in range(config.epochs):
            perm = rng_update.permutation(nh)
            for mb in range(config.minibatches):
                sel = perm[mb * mb_size:(mb + 1) * mb_size]
                lps, values, entropy = batch_logprob_value(
                    model, value_head, flat_ctx[sel], flat_act[sel],
                    detach_value_input=config.stop_value_backbone_grad)
                ratio = exp(sub(lps, flat_old[sel]))
                a = flat_adv[sel]
                surr = mean(minimum(mul(ratio, a),
                                    mul(clip(ratio, 1.0 - config.clip_eps, 1.0 + config.clip_eps), a)))
                vloss = mean(square(sub(values, flat_ret[sel])))
                total = add(add(neg(surr), mul(vloss, config.value_coef)),
                            mul(entropy, -config.entropy_coef))
                if not np.isfinite(total.data):
                    raise TrainingError(
                        f"ppo diverged at env_steps={env_steps}: "
                        f"surrogate={float(surr.data)}, value_loss={float(vloss.data)}, "
                        f"entropy={float(entropy.data)}"
                    )
                loss_row = {"surrogate": float(surr.data), "value_loss": float(vloss.data),
                            "entropy": float(entropy.data)}
                backward(total)
                adam_step(opt)
        if env_steps >= next_eval or env_steps >= config.total_env_steps:
            next_eval = env_steps + config.eval_interval_steps
            ind, ood = run_eval()
            logger.log(step=env_steps, phase="ppo", ind_sr=ind, ood_sr=ood,
                       mean_reward=float(buf.rewards.mean()), **loss_row)
            key = ind + ood
            if key > best_key:
                best_key = key
                best = ([p.data.copy() for p in params], env_steps)
                stall = 0
            else:
                stall += 1
            if stall >= config.early_stop_patience:
                break
    out_model = model.copy()
    out_head = value_head.copy()
    n_model = len(model.params())
    for p, b in zip(out_model.params(), best[0][:n_model]):
        p.data = b.copy()
    for p, b in zip(out_head.params(), best[0][n_model:]):
        p.data = b.copy()
    logger.log(step=best[1], phase="ppo_best", best_key=best_key)
    return out_model, out_head, logger.rows
