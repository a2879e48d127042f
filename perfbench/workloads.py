"""Workloads of the rlrc benchmark: set-up, the timed job, and output checks.

The policy is the default ``ModelConfig`` with its own fixed init seed, so
decode cost depends only on tensor shapes.

Each job runs a fixed amount of work for a given ``--seconds``: the number
of decode calls follows from the budget and constant rates below, never
from which actions the policy picks, and the training budget is fixed.
Every call into ``rlrc`` goes through a module attribute
(``training.train_sft``), so the traced run sees it.
"""

import os
import time
from dataclasses import dataclass

import numpy as np

from rlrc import checkpoint, env, model, pruning, quant, tensor, training

PRUNE_RATIO = 0.9
QUANT_BITS = 4
QUANT_BLOCK = 64
# The task suite, the expert demonstrations and the held-out demo batch are
# a fixed dataset; the workload seed picks the calibration rows, the SFT
# batch order, PPO's sampling and every env episode the policy serves.
DATA_SEED = 0
HELDOUT_SEED = 7919  # episode seeds of the held-out batch, disjoint from the demos'
B16, B64 = 16, 64

# A greedy action may differ from the reference argmax only where the
# reference's top-2 logit margin is below this.  The smallest margin seen on
# these workloads is about 1e-3; q4 and its dequantized reference differ by
# at most about 1e-6 relative.
TIE_TOL = 1e-4
CHECKED_CALLS = 8  # decode calls per phase whose outputs are checked
ROUNDS = 10  # the decode phases are interleaved in this many rounds

# decode calls per phase never drop below these; at batch 1, 100 calls leave
# ten latency samples beyond each of the reported p10 and p90
MIN_CALLS = (100, 5, 3)
TRACED_MIN_CALLS = (20, 3, 2)  # the traced run reports no latencies


@dataclass(frozen=True)
class Sizes:
    model: dict  # ModelConfig overrides
    demo_episodes: int  # expert episodes per IND task
    heldout_episodes: int
    calib_rows: int  # Taylor-importance calibration batch
    sft_steps: int
    sft_batch: int
    sft_eval_episodes: int  # per IND task: 16 tasks x 4 = one batch of 64
    ppo_iters: int
    ppo_horizon: int
    ppo_epochs: int
    ppo_minibatches: int
    min_calls: tuple


FULL = Sizes(model={}, demo_episodes=16, heldout_episodes=2, calib_rows=256,
             sft_steps=60, sft_batch=64, sft_eval_episodes=4, ppo_iters=2, ppo_horizon=32,
             ppo_epochs=2, ppo_minibatches=2, min_calls=MIN_CALLS)
# for the benchmark's own smoke tests; d_ff 256 leaves enough prunable
# weights in the one non-exempt layer to reach the 90% ratio
TINY = Sizes(model=dict(d_model=32, n_layers=3, n_heads_base=2, d_ff_base=256),
             demo_episodes=1, heldout_episodes=1, calib_rows=32, sft_steps=2, sft_batch=8,
             sft_eval_episodes=1, ppo_iters=1, ppo_horizon=4, ppo_epochs=1,
             ppo_minibatches=1, min_calls=(3, 2, 2))


@dataclass(frozen=True)
class Workload:
    """A workload; why each was chosen is in BENCHMARK.json."""
    name: str
    loop: str
    setup_repeats: int
    # decode calls per second of budget for the (1-env, 16-env, batch-64) phases
    calls_per_s: tuple


SERVE_LOOP = ("closed loop, 1 client (1 env); closed loop, 16 clients "
              "(16 lockstep envs); offline batch of 64 contexts, decoded repeatedly")

WORKLOADS = {w.name: w for w in (
    Workload("control-dense", SERVE_LOOP, setup_repeats=9, calls_per_s=(150.0, 13.0, 4.5)),
    Workload("control-q4", SERVE_LOOP, setup_repeats=3, calls_per_s=(5.0, 0.8, 0.33)),
    Workload("recover",
             "fixed training budget (SFT batch 64, then PPO with 16 envs); "
             + SERVE_LOOP + "; served before SFT, after SFT and after PPO",
             setup_repeats=3, calls_per_s=(60.0, 15.0, 12.0)),
)}


class Ops:
    """Operations attempted, checked and failed; a failure never stops the run.

    ``checked`` counts the operations whose outcome is known: each output
    check of a sampled decode call, each training stage, and each call that
    raised.  Every failure is one of them, so the share that passed is
    ``1 - failed / checked``, and a single failure moves it by several
    percent instead of being diluted over thousands of unchecked calls.
    """

    def __init__(self):
        self.attempted = 0
        self.checked = 0
        self.failed = 0
        self.errors = []

    def fail(self, what, err):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {type(err).__name__}: {err}")


@dataclass
class State:
    """What set-up hands to the job."""
    env_cfg: object
    suite: dict
    demos: list
    heldout: tuple  # (obs, actions)
    model: object  # served model (control) or pruned model to recover


@dataclass
class Outcome:
    metrics: dict
    served: object
    samples: list  # (model, obs batch, actions) of checked decode calls
    details: list  # lines for the report


def decode_calls(workload, seconds, sizes, traced=False):
    """Timed calls of the (1-env, 16-env, batch-64) phases for a budget."""
    mins = sizes.min_calls
    if traced:
        mins = tuple(min(a, b) for a, b in zip(mins, TRACED_MIN_CALLS))
    return tuple(max(m, round(rate * seconds)) for m, rate in zip(mins, workload.calls_per_s))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload, seed, sizes, workdir):
    """Build the workload's inputs and model; returns a State."""
    env_cfg = env.EnvConfig()
    suite = env.make_task_suite(DATA_SEED)
    demos = env.generate_demos(env_cfg, suite["IND"], sizes.demo_episodes, DATA_SEED,
                               os.path.join(workdir, "demos.jsonl"))
    held = env.generate_demos(env_cfg, suite["IND"], sizes.heldout_episodes, HELDOUT_SEED,
                              os.path.join(workdir, "heldout.jsonl"))
    heldout = training.demo_arrays(held)
    dense = model.init_model(model.ModelConfig(**sizes.model))
    if workload.name == "control-dense":
        served = _reload(dense, workdir, "dense")
    else:
        obs, act = training.demo_arrays(demos)
        rows = np.random.default_rng(seed).choice(
            obs.shape[0], size=min(sizes.calib_rows, obs.shape[0]), replace=False)
        table = pruning.taylor_importance(dense, obs[rows], act[rows], seed=seed)
        plan = pruning.select_prune_groups(dense, table, PRUNE_RATIO)
        served = pruning.apply_prune(dense, plan)
        if workload.name == "control-q4":
            served = _reload(quant.quantize_model(served, QUANT_BITS, QUANT_BLOCK),
                             workdir, "quant")
    return State(env_cfg, suite, demos, heldout, served)


def _reload(m, workdir, stage):
    path = os.path.join(workdir, f"{stage}.ckpt")
    checkpoint.save_checkpoint(m, path, meta={"stage": stage})
    return checkpoint.load_checkpoint(path).model


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def run_job(workload, state, seed, seconds, sizes, ops, traced=False):
    """The timed part of a workload; returns an Outcome.

    A control workload serves its model, and ``job_s`` is the wall time of
    all its decode calls.  recover serves the model it recovers in three
    slices: before SFT, after SFT and after PPO.  The three have the same
    shapes and so the same decode cost; the slices spread the decode samples
    over the whole job.  Its ``job_s`` is the wall time of ``train_sft`` and
    ``train_ppo`` alone, whose budget is fixed, so it does not depend on
    ``--seconds``.
    """
    start = time.perf_counter()
    server = _Server(state, seed, decode_calls(workload, seconds, sizes, traced), ops)
    details = []
    if workload.name == "recover":
        served, job_s = _recover(state, seed, sizes, ops, server, details)
    else:
        served = state.model
        server.serve(served, 1.0)
        job_s = time.perf_counter() - start
    metrics = {"job_s": job_s, **server.metrics()}
    return Outcome(metrics, served, server.samples, details + server.details())


def _recover(state, seed, sizes, ops, server, details):
    """A fixed budget of train_sft then train_ppo, with their own evaluations.

    Both train their input model in place, so each slice serves a copy.
    Returns the recovered model and the seconds the two stages took.
    """
    steps = sizes.sft_steps
    env_steps = B16 * sizes.ppo_horizon * sizes.ppo_iters
    sft_cfg = training.SftConfig(batch_size=sizes.sft_batch, max_steps=steps,
                                 eval_interval=steps, eval_episodes=sizes.sft_eval_episodes,
                                 seed=seed)
    ppo_cfg = training.PpoConfig(n_envs=B16, horizon=sizes.ppo_horizon,
                                 total_env_steps=env_steps, epochs=sizes.ppo_epochs,
                                 minibatches=sizes.ppo_minibatches,
                                 eval_interval_steps=env_steps, eval_episodes=1, seed=seed)
    ind, ood = state.suite["IND"], state.suite["OOD"]
    clock = time.perf_counter
    server.serve(state.model.copy(), 1 / 3)
    sft_model = state.model
    ops.attempted += 1
    ops.checked += 1
    t0 = clock()
    try:
        sft_model, rows = training.train_sft(state.model, state.demos, sft_cfg,
                                             state.env_cfg, ind)
        _check_rows_finite("train_sft", rows)
        _check_params_finite("train_sft", sft_model.params())
    except Exception as err:  # counted as a failed operation
        ops.fail("train_sft", err)
    t_sft = clock() - t0
    details.append(f"train_sft: {steps} steps x {sizes.sft_batch} = "
                   f"{steps * sizes.sft_batch} samples in {t_sft:.3f} s "
                   f"({steps * sizes.sft_batch / t_sft:.1f} samples/s, one eval)")
    server.serve(sft_model.copy(), 2 / 3)
    ppo_model = sft_model
    ops.attempted += 1
    ops.checked += 1
    t0 = clock()
    try:
        ppo_model, head, rows = training.train_ppo(sft_model, None, ind, ppo_cfg,
                                                   state.env_cfg, ind, ood)
        _check_rows_finite("train_ppo", rows)
        _check_params_finite("train_ppo", ppo_model.params() + head.params())
    except Exception as err:  # counted as a failed operation
        ops.fail("train_ppo", err)
        ppo_model = sft_model
    t_ppo = clock() - t0
    details.append(f"train_ppo: {sizes.ppo_iters} x {B16} envs x {sizes.ppo_horizon} steps"
                   f" = {env_steps} env steps in {t_ppo:.3f} s "
                   f"({env_steps / t_ppo:.1f} env steps/s, with evals)")
    server.serve(ppo_model, 1.0)
    return ppo_model, t_sft + t_ppo


def _check_rows_finite(stage, rows):
    for row in rows:
        for key, value in row.items():
            if isinstance(value, float) and not np.isfinite(value):
                raise FloatingPointError(f"{stage} logged {key}={value} at step {row.get('step')}")


def _check_params_finite(stage, params):
    for i, p in enumerate(params):
        if not np.all(np.isfinite(p.data)):
            raise FloatingPointError(f"{stage}: parameter {i} is not finite")


class _Server:
    """Greedy decoding through ModelPolicy.act in three phases: closed loops
    of 1 and 16 autoreset envs, and an offline batch of 64 contexts.

    The phases run interleaved in rounds, so a slow spell of the machine
    falls on all of them alike instead of on whichever phase was running.
    Each phase makes one untimed warm-up call first.
    """

    def __init__(self, state, seed, n_calls, ops):
        tasks = state.suite["IND"] + state.suite["OOD"]
        self.samples = []
        self.n_calls = n_calls
        self.rounds = min(ROUNDS, *n_calls)
        self.done = 0
        self.phases = [_Phase(env.VecEnv(state.env_cfg, tasks, n, seed=seed), closed, calls,
                              ops, self.samples)
                       for n, closed, calls in zip((1, B16, B64), (True, True, False), n_calls)]

    def serve(self, m, upto):
        """Serve ``m`` until ``upto`` (a fraction) of the rounds are done."""
        policy = training.ModelPolicy(m)
        for phase in self.phases:
            phase.model, phase.policy = m, policy
            if not phase.calls:
                phase.call()
        end = round(upto * self.rounds)
        rounds = self.rounds
        for r in range(self.done, end):
            for phase, n in zip(self.phases, self.n_calls):
                for _ in range(n * (r + 1) // rounds - n * r // rounds):
                    phase.call()
        self.done = end

    def _timed(self):
        """Per-call seconds of the timed calls of each phase."""
        return self.phases[0].decode_s, self.phases[1].step_s, self.phases[2].decode_s

    def metrics(self):
        """Mean time per call, from the total time of each phase's calls.

        On a shared 2-vCPU host, speed drifts by about 30% every few
        seconds.  A mean over calls spread through the whole run averages
        that drift out; a percentile such as p10 or p50 instead jumps between
        the fast and the slow speed from run to run.  Percentiles go to the
        report lines.
        """
        b1, b16, b64 = (np.mean(xs) if xs else np.nan for xs in self._timed())
        return {
            "decode_b1_mean_ms": 1e3 * b1,
            "control_b16_steps_per_s": B16 / b16,
            "decode_b64_per_s": B64 / b64,
        }

    def details(self):
        names = ("decode x1", "decode+env step x16", "decode x64")
        lines = []
        for what, xs in zip(names, self._timed()):
            if not xs:
                continue
            p10, p50, p90 = 1e3 * np.percentile(xs, [10, 50, 90])
            lines.append(f"{what}: mean {1e3 * np.mean(xs):.4f}, p10 {p10:.4f}, p50 {p50:.4f}, "
                         f"p90 {p90:.4f} ms, p90/p10 {p90 / p10:.3f}, over {len(xs)} calls")
        return lines


class _Phase:
    """Repeated greedy decoding of one VecEnv's observations.

    In a closed loop every call's actions step the (autoreset) envs; offline,
    the same batch is decoded again.  Call 0 is the warm-up and is not timed.
    """

    def __init__(self, vec, closed, calls, ops, samples):
        self.vec, self.closed = vec, closed
        self.ops, self.samples = ops, samples
        self.model = self.policy = None  # set by _Server.serve
        self.obs = vec.vec_reset()
        self.checked = set(np.linspace(0, calls, min(CHECKED_CALLS, calls + 1))
                           .round().astype(int))
        self.decode_s, self.step_s = [], []
        self.calls = 0

    def call(self):
        i = self.calls
        self.calls += 1
        self.ops.attempted += 1
        clock = time.perf_counter
        t0 = clock()
        try:
            actions = self.policy.act(self.obs, self.vec.states)
            t1 = clock()
            next_obs = self.vec.vec_step(actions)[0] if self.closed else self.obs
        except Exception as err:  # counted; the phase goes on from fresh episodes
            self.ops.checked += 1
            self.ops.fail(f"decode x{self.vec.n}, call {i}", err)
            self.obs = self.vec.vec_reset()
            return
        t2 = clock()
        if i:
            self.decode_s.append(t1 - t0)
            self.step_s.append(t2 - t0)
        if i in self.checked:
            self.samples.append((self.model, self.obs, actions))
        self.obs = next_obs


# ---------------------------------------------------------------------------
# output checks (outside the timed region)
# ---------------------------------------------------------------------------

def reference_model(served):
    """The autodiff model the served policy must agree with."""
    if isinstance(served, quant.QuantizedModel):
        return quant.dequantize_model(served)
    return served


def reference_logits(ref, obs):
    contexts = model.build_contexts(ref.config, obs)
    with tensor.no_grad():
        logits, _ = model.forward(ref, contexts)
    return logits.data[:, -1, :]


def bad_rows(actions, ref_logits, tie_tol=TIE_TOL):
    """Rows whose greedy action is wrong, out of range, or whose logits are
    not finite.  A mismatch is excused only where the reference's top-2
    margin is under ``tie_tol``."""
    actions = np.asarray(actions).reshape(-1)
    ref_logits = np.asarray(ref_logits, dtype=np.float64)
    bad = ~np.all(np.isfinite(ref_logits), axis=1)
    bad |= (actions < 0) | (actions >= ref_logits.shape[1])
    top2 = np.sort(np.where(np.isfinite(ref_logits), ref_logits, -np.inf), axis=1)[:, -2:]
    margin = top2[:, 1] - top2[:, 0]
    mismatch = actions != np.argmax(ref_logits, axis=1)
    return bad | (mismatch & ~(margin < tie_tol))


def check_samples(samples, ops):
    """Compare every checked call with its model's reference; a bad call fails."""
    refs = {}
    for m, obs, actions in samples:
        ops.checked += 1
        try:
            if id(m) not in refs:
                refs[id(m)] = reference_model(m)
            bad = bad_rows(actions, reference_logits(refs[id(m)], obs))
        except Exception as err:  # counted as a failed operation
            ops.fail("reference check", err)
            continue
        if bad.any():
            ops.fail("output check", ValueError(
                f"{int(bad.sum())} of {bad.size} greedy actions disagree with the reference"))


def heldout_loss(served, heldout):
    """Held-out demo NLL (nats) of the served policy, on the reference path."""
    ref = reference_model(served)
    with tensor.no_grad():
        return float(training.sft_loss(ref, *heldout).data)
