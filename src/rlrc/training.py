"""Two-stage recovery training and evaluation.

SFT minimizes mean negative log-likelihood of expert actions; PPO runs
clipped-surrogate updates with GAE over sparse-reward rollouts from the
vectorized env; the critic shares the transformer backbone and trains
it too.  Evaluation runs a deterministic policy over a non-empty (task,
seed) grid through `env.run_episodes`, returns each episode's success,
and is the single scorer of every stage.

Both trainers evaluate, log and select their best weights in one step
(`_Best`): it scores the policy at `SELECTION_SEED`, whose episodes the
config keeps out of the reported grid and the demos, logs the metric row with each
grid's success rate (the mean) and the evaluation's seconds as ``eval_s``, and
keeps copies of the trained objects when IND success beats every earlier
score.  Training stops after ``patience`` evaluations in a row that do not,
and the trainer returns the copies and logs that evaluation's success rates
again as its last metric row.  PPO logs OOD success too but never selects
on it.  Both need IND eval tasks.

Every loss, rollout and value here reads the policy at the marker, the
last context position, which is the one position `model.forward` computes.
Each loss is one autodiff node over the (B, 1, A) logits `forward`
returns: ``kernels.nll`` for SFT, ``kernels.ppo_objective`` for PPO, which
reads the critic's values too.  Rollouts and value bootstraps read logits
and values through `model.batch_logprob_value` under `no_grad`, the PPO
update's own forward, and store ``kernels.log_softmax`` of the logits, the
log-softmax both losses apply.

No batch size sets peak memory.  Each loss is a mean over rows, so an SFT
step and a PPO minibatch update backpropagate it a chunk of rows at a time
(`tensor.backward_in_chunks`), their gradients summing to those of the
whole batch.  A chunk holds as many rows as fit one budget of activation
values at the model's widths (`model.chunk_rows`), and the metric rows of
`train_sft` and `train_ppo` record that row count as ``chunk_rows``.
Evaluation, rollouts, value bootstraps and held-out losses run
`model.forward` under `no_grad`, which decodes large batches in fixed-size
slices.
"""

import json
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .env import VecEnv, grid_seeds, run_episodes
from .env import step as env_step  # never called here; perfbench's tracer test reads the name
from .model import (PolicyModel, batch_logprob_value, build_contexts, chunk_rows, forward,
                    greedy_actions, init_value_head)
from .tensor import OptimizerState, adam_step, backward_in_chunks, fused, no_grad


class TrainingError(RuntimeError):
    pass


# the evaluation seed the trainers select their weights at
SELECTION_SEED = 1234
# the stride of an evaluation's grid of episode seeds (`env.grid_seeds`)
EVAL_SEED_STRIDE = 100_000


@dataclass
class SftConfig:
    """SFT recovery: Adam steps on the mean NLL of ``batch_size`` sampled
    demonstration steps.  A step's gradient is accumulated a chunk of rows
    at a time, the rows sized to the model's widths, so the batch size does
    not set peak memory."""
    lr: float = 3e-4
    batch_size: int = 64
    max_steps: int = 10_000
    eval_interval: int = 200
    eval_episodes: int = 4
    seed: int = 0
    # stop after `patience` evals without improvement; the best checkpoint
    # is returned either way
    patience: int = 1_000_000

    def __post_init__(self):
        for name in ("lr", "batch_size", "max_steps", "eval_interval"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("eval_episodes", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class PpoConfig:
    """PPO recovery: each iteration collects ``n_envs x horizon`` env steps,
    then makes ``epochs x minibatches`` Adam steps on minibatches of
    ``n_envs * horizon / minibatches`` rows, which takes each row once an
    epoch; the value loss trains the shared backbone too.  A minibatch's
    gradient is accumulated a chunk of rows at a time, the rows sized to
    the model's widths, so the minibatch size does not set peak memory."""
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
    early_stop_patience: int = 1_000_000

    def __post_init__(self):
        for name in ("epochs", "minibatches", "n_envs", "horizon", "total_env_steps",
                     "eval_interval_steps", "eval_episodes", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("gamma", "lam"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if self.clip_eps <= 0:
            raise ValueError(f"clip_eps must be positive, got {self.clip_eps}")
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        rows = self.n_envs * self.horizon
        if rows % self.minibatches:
            raise ValueError(f"minibatches={self.minibatches} exceeds or does not divide the "
                             f"n_envs * horizon = {rows} rows of an iteration")


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


def demo_arrays(demos):
    """Flatten demonstrations to (obs, action) step arrays."""
    steps = [s for d in demos for s in d.steps]
    return (np.asarray([o for o, _ in steps], dtype=np.int64),
            np.asarray([a for _, a in steps], dtype=np.int64))


def sft_loss(model, obs_batch, action_batch):
    """Mean negative log-likelihood of the demonstrated actions of a
    (B, obs_len) observation batch."""
    obs = np.asarray(obs_batch, dtype=np.int64)
    if obs.shape[0] == 0:
        raise TrainingError("sft_loss on an empty batch")
    actions = np.asarray(action_batch, dtype=np.int64).reshape(-1)
    logits, _ = forward(model, build_contexts(model.config, obs))
    return fused(kernels.nll, kernels.nll_backward, (logits,), actions)


def _finite(loss, what):
    """``loss``; a NaN or Inf one raises TrainingError naming ``what``."""
    if not np.isfinite(loss.data):
        raise TrainingError(f"{what} contains NaN or Inf")
    return loss


def sft_backward(model, obs, actions, what):
    """Accumulate the gradients of the mean `sft_loss` of an (n, obs_len)
    batch, `model.chunk_rows` rows at a time; returns (the mean loss, the rows
    per chunk).  A non-finite chunk loss raises TrainingError naming ``what``."""
    rows = chunk_rows(model.config, obs.shape[1] + 1)
    loss, = backward_in_chunks(
        lambda r0, r1: (_finite(sft_loss(model, obs[r0:r1], actions[r0:r1]), what),),
        len(obs), rows)
    return loss, rows


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class ModelPolicy:
    """Greedy action decoder: `model.greedy_actions`, the decoder under no_grad."""

    def __init__(self, model):
        self.model = model

    def act(self, obs_batch, states):
        return greedy_actions(self.model, build_contexts(self.model.config, obs_batch))


def evaluate(policy, tasks, episodes_per_task, env_config, seed):
    """A bool array of each episode's success on the (task, episode seed)
    grid of ``seed``, `env.grid_seeds` at `EVAL_SEED_STRIDE` for each task,
    in grid order (task-major), run by `env.run_episodes`.
    ``policy`` is a `PolicyModel`, decoded greedily by `ModelPolicy`, or a
    deterministic ``act(obs_batch, states)``; an empty grid raises TrainingError."""
    if not tasks or episodes_per_task < 1:
        raise TrainingError(f"evaluate needs at least one (task, episode): got "
                            f"{len(tasks)} tasks and episodes_per_task={episodes_per_task}")
    act = ModelPolicy(policy).act if isinstance(policy, PolicyModel) else policy
    seeds = grid_seeds(EVAL_SEED_STRIDE, seed, episodes_per_task)
    episodes = run_episodes(act, env_config, [(task, s) for task in tasks for s in seeds])
    return np.array([e.success for e in episodes])


# ---------------------------------------------------------------------------
# SFT
# ---------------------------------------------------------------------------

class _Best:
    """The trainers' one evaluate-log-select step.  Metric rows are kept in
    ``rows`` and, given a path, written as JSON lines to a file started
    afresh, so a rerun never mixes its rows with an old run's.  ``grids``
    names the task grids each evaluation scores; IND success (``ind``)
    alone selects."""

    def __init__(self, patience, env_config, episodes, log_path, **grids):
        self.patience, self.env_config, self.episodes = patience, env_config, episodes
        self.path, self.grids = log_path, grids
        self.rows = []
        self.best = None  # the metric row of the best evaluation
        self.stall = 0  # evaluations since the best
        self._t0 = time.perf_counter()
        if log_path:
            open(log_path, "w", encoding="utf-8").close()

    def _log(self, **row):
        row["wallclock"] = time.perf_counter() - self._t0
        self.rows.append(row)
        if self.path:
            with open(self.path, "a", encoding="utf-8") as f:
                f.write(json.dumps(row) + "\n")
        return row

    def evaluate(self, trained, **row):
        """Score ``trained[0]`` at `SELECTION_SEED` on each grid (its mean
        success; an empty one scores 0.0), log ``row`` with ``<name>_sr`` and ``eval_s``, and
        keep copies of ``trained`` (`PolicyModel.copy`, `ValueHead.copy`)
        when IND success beats every earlier evaluation's; True once
        ``patience`` evaluations in a row have not."""
        t0 = time.perf_counter()
        for name, grid in self.grids.items():
            row[f"{name}_sr"] = float(evaluate(trained[0], grid, self.episodes, self.env_config,
                                               seed=SELECTION_SEED).mean()) if grid else 0.0
        row = self._log(**row, eval_s=time.perf_counter() - t0)
        if self.best is None or row["ind_sr"] > self.best["ind_sr"]:
            self.best, self.stall = row, 0
            self.copies = tuple(t.copy() for t in trained)
        else:
            self.stall += 1
        return self.stall >= self.patience

    def finish(self, phase):
        """Log the best evaluation's step and success rates as ``phase``;
        returns (*copies, rows)."""
        self._log(step=self.best["step"], phase=phase,
                  **{f"{name}_sr": self.best[f"{name}_sr"] for name in self.grids})
        return (*self.copies, self.rows)


def train_sft(model, demos, config, env_config, eval_tasks, log_path=None):
    """SFT with periodic greedy evaluation and best-checkpoint selection.

    Deterministic per seed.  Trains ``model`` itself, in place, so it ends
    with the last step's weights; returns (a copy holding the best weights,
    metric rows).  No demonstrations or no eval tasks raise TrainingError
    before the first step.
    """
    if not demos:
        raise TrainingError("empty demonstration dataset")
    if not eval_tasks:
        raise TrainingError("train_sft needs at least one eval task")
    obs_all, act_all = demo_arrays(demos)
    rng = np.random.default_rng(config.seed)
    opt = OptimizerState(model.params(), lr=config.lr)
    best = _Best(config.patience, env_config, config.eval_episodes, log_path, ind=eval_tasks)
    m = obs_all.shape[0]
    for it in range(1, config.max_steps + 1):
        idx = rng.integers(0, m, size=config.batch_size)
        loss, rows = sft_backward(model, obs_all[idx], act_all[idx], f"sft loss at step {it}")
        adam_step(opt)
        if it % config.eval_interval == 0 or it == config.max_steps:
            if best.evaluate((model,), step=it, phase="sft", loss=loss, chunk_rows=rows):
                break
    return best.finish("sft_best")


# ---------------------------------------------------------------------------
# PPO
# ---------------------------------------------------------------------------

def _values_at_marker(model, value_head, obs):
    with no_grad():
        _, values = batch_logprob_value(model, value_head, build_contexts(model.config, obs))
    return values.data.astype(np.float64)


def collect_rollouts(model, value_head, vec_env, horizon, rng, obs=None):
    """Gather an (envs x horizon) buffer under the frozen current policy.

    Logits and values come from `model.batch_logprob_value` under
    `no_grad`, the PPO update's forward.  Stored log-probs are
    `kernels.log_softmax` of those logits, the function
    ``kernels.ppo_objective`` applies to the same logits, so the first-epoch
    ratio is one.  Returns (buffer, last observations) for seamless
    continuation.
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
    )
    for t in range(horizon):
        with no_grad():
            logits, vals = batch_logprob_value(model, value_head,
                                               build_contexts(model.config, obs))
        lp_rows = kernels.log_softmax(logits.data[:, -1, :])
        p = np.exp(lp_rows.astype(np.float64))
        p /= p.sum(axis=1, keepdims=True)
        u = rng.random(n)
        acts = (p.cumsum(axis=1) < u[:, None]).sum(axis=1)
        acts = np.minimum(acts, model.config.action_vocab - 1).astype(np.int64)
        buf.obs[:, t] = obs
        buf.actions[:, t] = acts
        buf.logprobs[:, t] = lp_rows[np.arange(n), acts]
        buf.values[:, t] = vals.data
        obs, rewards, dones, cut = vec_env.vec_step(acts)
        buf.rewards[:, t] = rewards
        buf.dones[:, t] = dones
        if cut:  # a time-limit cut bootstraps from the critic at its final observation
            buf.trunc_values[list(cut), t] = _values_at_marker(model, value_head,
                                                               np.stack(list(cut.values())))
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
    return adv, adv + values


def ppo_backward(model, value_head, contexts, actions, old_logprobs, advantages, returns,
                 config, env_steps):
    """Accumulate the gradients of one PPO minibatch's loss into the parameters.

    The loss is -surrogate + value_coef * value_error^2 - entropy_coef *
    entropy, each term a mean over the rows, so it is backpropagated a chunk
    of rows at a time (`tensor.backward_in_chunks`), `model.chunk_rows`
    rows per chunk, and peak memory is one chunk's graph whatever the
    minibatch size.  A chunk is `model.batch_logprob_value` followed by one
    ``kernels.ppo_objective`` node, which also reports the chunk's three
    terms and its two diagnostics, ``approx_kl`` and ``clip_fraction``.
    Returns the row-weighted means of those five and ``chunk_rows``, the
    rows per chunk; a chunk whose loss is not finite raises TrainingError
    naming ``env_steps`` and the chunk's terms.
    """
    names = ("surrogate", "value_loss", "entropy", "approx_kl", "clip_fraction")

    def chunk_loss(r0, r1):
        logits, values = batch_logprob_value(model, value_head, contexts[r0:r1])
        terms = {}
        total = fused(kernels.ppo_objective, kernels.ppo_objective_backward, (logits, values),
                      actions[r0:r1], old_logprobs[r0:r1], advantages[r0:r1], returns[r0:r1],
                      config.clip_eps, config.value_coef, config.entropy_coef, terms)
        _finite(total, f"ppo loss at env_steps={env_steps}: "
                + ", ".join(f"{k}={v}" for k, v in terms.items()))
        return (total, *(terms[k] for k in names))

    rows = chunk_rows(model.config, contexts.shape[1])
    _, *means = backward_in_chunks(chunk_loss, len(actions), rows)
    return {**dict(zip(names, means)), "chunk_rows": rows}


def train_ppo(model, value_head, tasks, config, env_config,
              eval_tasks_ind, eval_tasks_ood, log_path=None):
    """Clipped-surrogate PPO on IND tasks with a shared-backbone critic.

    Iterates collect -> GAE -> epochs x minibatches of
    -surrogate + c_v * value_error^2 - c_e * entropy, evaluates IND/OOD at
    intervals, and returns the best checkpoint by IND success.  With
    ``value_head=None`` the critic starts from
    ``init_value_head(d_model, seed=config.seed)``.  A metric row also holds
    the last minibatch's `ppo_backward` terms and ``grad_norm`` before its
    Adam step, and the iteration's ``adv_mean`` and ``adv_std`` before
    normalization and ``explained_variance``, 1 - var(returns - values) /
    var(returns), left out when the returns do not vary.
    Trains ``model`` and ``value_head`` themselves, in place, so they end
    with the last update's weights; returns copies holding the best
    weights, then the metric rows.  A non-IND training task or no IND eval
    tasks raise TrainingError before the first rollout.
    """
    for t in tasks:
        if t.split != "IND":
            raise TrainingError(f"train_ppo refuses non-IND task {t}")
    if not eval_tasks_ind:
        raise TrainingError("train_ppo needs at least one IND eval task")
    if value_head is None:
        value_head = init_value_head(model.config.d_model, seed=config.seed)
    opt = OptimizerState(model.params() + value_head.params(), lr=config.lr)
    rng_collect = np.random.default_rng([config.seed, 101])
    rng_update = np.random.default_rng([config.seed, 202])
    vec = VecEnv(env_config, tasks, config.n_envs, seed=config.seed)
    obs = None
    best = _Best(config.early_stop_patience, env_config, config.eval_episodes, log_path,
                 ind=eval_tasks_ind, ood=eval_tasks_ood)
    env_steps = 0
    next_eval = 0
    nh = config.n_envs * config.horizon
    while env_steps < config.total_env_steps:
        buf, obs = collect_rollouts(model, value_head, vec, config.horizon, rng_collect, obs)
        env_steps += nh
        adv, ret = compute_gae(buf, config.gamma, config.lam)
        flat_ctx = build_contexts(model.config, buf.obs.reshape(nh, -1))
        flat_act = buf.actions.reshape(nh)
        flat_old = buf.logprobs.reshape(nh)
        flat_adv = adv.reshape(nh)
        adv_mean, adv_std = flat_adv.mean(), flat_adv.std()
        flat_adv = ((flat_adv - adv_mean) / (adv_std + 1e-8)).astype(np.float32)
        flat_ret = ret.reshape(nh).astype(np.float32)
        mb_size = nh // config.minibatches
        loss_row = {}
        for ep in range(config.epochs):
            perm = rng_update.permutation(nh)
            for mb in range(config.minibatches):
                sel = perm[mb * mb_size:(mb + 1) * mb_size]
                loss_row = ppo_backward(model, value_head, flat_ctx[sel], flat_act[sel],
                                        flat_old[sel], flat_adv[sel], flat_ret[sel],
                                        config, env_steps)
                loss_row["grad_norm"] = float(np.sqrt(sum(float(np.vdot(p.grad, p.grad))
                                                          for p in opt.params)))
                adam_step(opt)
        if env_steps >= next_eval or env_steps >= config.total_env_steps:
            next_eval = env_steps + config.eval_interval_steps
            row = dict(step=env_steps, phase="ppo", mean_reward=float(buf.rewards.mean()),
                       **loss_row, adv_mean=float(adv_mean), adv_std=float(adv_std))
            if ret.var() > 0:  # else undefined: left out rather than logged as NaN
                row["explained_variance"] = float(1.0 - (ret - buf.values).var() / ret.var())
            if best.evaluate((model, value_head), **row):
                break
    return best.finish("ppo_best")
