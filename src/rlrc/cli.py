"""Command line pipeline driver.

Subcommands: gen-demos, then the recipe's stages train-dense, prune, sft,
rl and quantize, then eval, bench and pipeline.  `STAGES` is the one
statement of the recipe's order; the stage commands, `rlrc pipeline`,
bench's default inputs and the manifest all read it.  A stage reads its
recipe parent's checkpoint, or with ``--input`` any earlier stage's, which
makes the rows the recipe skips a step in: ``rl --input pruned.ckpt`` (PPO
with no SFT) writes ``rl_pruned.ckpt``.

A run is its config: every command echoes the fully resolved config into
the output directory as ``resolved_config.json``, whose SHA-256 each stage
checkpoint records, and takes every setting from it.  No flag overrides a
setting: the flags name input paths and modes, and ``--seed`` and
``--output-dir`` are written into the config's JSON before it is resolved
and echoed; a prune-ratio sweep is one config per ratio.  The task split
(one for every seed) and the demonstrations are built by each command that
needs them and rewritten to ``suite.json`` and ``demos.jsonl`` as records,
never read back.  The training stages write a JSONL metrics log,
``metrics_<stem>.jsonl`` after their checkpoint's stem.  ``bench`` writes
``bench_report.csv``/``.json`` over the recipe's checkpoints, and over named
``--inputs`` a report named after their stems, ``bench_report_dense_sft``.

RLRC_THREADS, when set, sets the math-kernel thread count, overriding any
inherited OPENBLAS/OMP/MKL_NUM_THREADS; it must be honored before numpy
loads, so the heavy imports happen inside main().
"""

import argparse
import functools
import json
import os
import sys
from typing import NamedTuple


class CliError(RuntimeError):
    pass


# the variables the BLAS builds numpy may load read their thread count from
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _setup_threads():
    n = os.environ.get("RLRC_THREADS")
    if n:
        for var in BLAS_THREAD_VARS:
            os.environ[var] = n


def _load_config(args):
    """Resolve the ``--config`` JSON (or ``{}``) once, with ``--seed`` and
    ``--output-dir`` written into it as if the file held them: stage seeds
    the file leaves unset follow the master seed, and pinned ones stay."""
    from .config import PipelineConfig

    raw = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            try:
                raw = json.load(f)
            except json.JSONDecodeError as e:
                raise CliError(f"config {args.config} is not JSON: {e}") from e
    if isinstance(raw, dict):  # from_dict names any other root
        for key, value in (("seed", args.seed), ("output_dir", args.output_dir)):
            if value is not None:
                raw[key] = value
    cfg = PipelineConfig.from_dict(raw)
    os.makedirs(cfg.output_dir, exist_ok=True)
    cfg.write_resolved(os.path.join(cfg.output_dir, "resolved_config.json"))
    return cfg


def _p(cfg, name):
    return os.path.join(cfg.output_dir, name)


def _config_sha256(cfg):
    """The SHA-256 of the bytes of this run's ``resolved_config.json``."""
    import hashlib

    with open(_p(cfg, "resolved_config.json"), "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _suite(cfg):
    """The IND/OOD task split of seed 0, recorded in ``suite.json``: every
    seed of a run trains and evaluates on the same tasks, as the paper's
    fixed suites do."""
    from .env import make_task_suite, save_task_suite

    suite = make_task_suite(0)
    save_task_suite(suite, _p(cfg, "suite.json"))
    return suite


def _demos(cfg, suite):
    """The config's expert demos of ``suite``'s IND tasks, in ``demos.jsonl``."""
    from .env import generate_demos

    return generate_demos(cfg.env, suite["IND"], cfg.demos.episodes_per_task,
                          cfg.demos.seed, _p(cfg, "demos.jsonl"))


def cmd_gen_demos(cfg, args):
    suite = _suite(cfg)
    demos = _demos(cfg, suite)
    print(f"suite: {len(suite['IND'])} IND / {len(suite['OOD'])} OOD tasks")
    print(f"demos: {len(demos)} episodes -> {_p(cfg, 'demos.jsonl')}")


def _train(cfg, loaded, log_path):
    """SFT on the demos: of a new model for train-dense, of its input for sft."""
    from .model import init_model
    from .training import train_sft

    suite = _suite(cfg)
    demos = _demos(cfg, suite)
    model = init_model(cfg.model) if loaded is None else loaded.model
    model, rows = train_sft(model, demos, cfg.sft, cfg.env, suite["IND"], log_path=log_path)
    return model, {}, f"best IND SR {rows[-1].get('ind_sr'):.3f}"


def _prune_stage(cfg, loaded, log_path):
    """Score the model on ``cfg.prune.calib_batch`` demo steps drawn with
    ``cfg.prune.seed``, remove its lowest-importance groups up to
    ``cfg.prune.ratio`` and record the plan in ``prune_plan.json``."""
    import numpy as np

    from .pruning import apply_prune, select_prune_groups, taylor_importance
    from .training import demo_arrays

    model, c = loaded.model, cfg.prune
    obs, acts = demo_arrays(_demos(cfg, _suite(cfg)))
    idx = np.random.default_rng(c.seed).choice(
        obs.shape[0], size=min(c.calib_batch, obs.shape[0]), replace=False)
    table = taylor_importance(model, obs[idx], acts[idx], seed=c.seed,
                              exempt_layers=c.exempt_layers)
    plan = select_prune_groups(model, table, c.ratio, c.exempt_layers)
    with open(_p(cfg, "prune_plan.json"), "w", encoding="utf-8") as f:
        f.write(plan.to_json())
    return apply_prune(model, plan), {"ratio": plan.achieved_ratio}, (
        f"achieved ratio {plan.achieved_ratio:.4f}, "
        f"{plan.removed_params}/{plan.prunable_params} prunable params removed")


def _rl(cfg, loaded, log_path):
    from .training import train_ppo

    suite = _suite(cfg)
    # a checkpoint holds no critic: train_ppo starts a fresh one
    model, _, rows = train_ppo(
        loaded.model, None, suite["IND"], cfg.ppo, cfg.env,
        eval_tasks_ind=suite["IND"], eval_tasks_ood=suite["OOD"], log_path=log_path)
    best = rows[-1]
    return model, {}, f"best IND SR {best['ind_sr']:.3f}, OOD SR {best['ood_sr']:.3f}"


def _quantize(cfg, loaded, log_path):
    from .quant import quantize_model

    bits = cfg.quant.bits
    return quantize_model(loaded.model, bits, cfg.quant.block_size), {}, f"{bits}-bit"


class Stage(NamedTuple):
    """One step of the recipe.  ``rlrc <command>`` loads a checkpoint of an
    earlier stage (none for the first step): ``<parent>.ckpt`` in the output
    directory, or ``--input``.  It calls ``body(cfg, loaded, log_path)`` for
    (model, extra meta, summary) and writes that model alone, whose payload
    is exactly ``quant.memory_bytes(model)["total_bytes"]``, to
    ``<stage>.ckpt`` from the recipe's parent and to ``<stage>_<input
    stage>.ckpt`` from another stage.  Every setting a body uses comes from
    ``cfg``, the echoed config; a training body logs its metric rows to
    ``log_path``, ``metrics_<stem>.jsonl`` after the output's stem."""
    command: str
    stage: str
    parent: str
    body: object


# the recipe, in the order it runs
STAGES = (
    Stage("train-dense", "dense", None, _train),
    Stage("prune", "pruned", "dense", _prune_stage),
    Stage("sft", "sft", "pruned", _train),
    Stage("rl", "rl", "sft", _rl),
    Stage("quantize", "quant", "rl", _quantize),
)


def _load_input(row, cfg, path):
    """Load the input of ``row``'s command: ``path``, else the recipe
    parent's checkpoint in the output directory.  Either must come from a
    stage before ``row``; returns (loaded, path)."""
    from .checkpoint import load_checkpoint

    if path is None:
        path = _p(cfg, f"{row.parent}.ckpt")
        if not os.path.exists(path):
            raise CliError(f"missing input checkpoint for {row.command}: expected "
                           f"{row.parent}.ckpt in {cfg.output_dir}")
    if not os.path.exists(path):
        raise CliError(f"checkpoint not found: {path}")
    loaded = load_checkpoint(path)
    earlier = [s.stage for s in STAGES[:STAGES.index(row)]]
    got = loaded.meta.get("stage")
    if got not in earlier:
        raise CliError(f"stage-order violation: {row.command} takes a checkpoint from "
                       f"{', '.join(earlier)}; got {got!r} ({path})")
    return loaded, path


def _run_stage(row, cfg, args):
    """Run one row of `STAGES` and save its checkpoint.  The meta records
    the stage, the master seed, the echoed config's SHA-256 and, for a step
    with an input, that checkpoint's path and stage."""
    from .checkpoint import save_checkpoint

    meta = {"stage": row.stage, "seed": cfg.seed, "config_sha256": _config_sha256(cfg)}
    loaded, stem = None, row.stage
    if row.parent:
        loaded, meta["parent"] = _load_input(row, cfg, args.input)
        meta["parent_stage"] = loaded.meta["stage"]
        if meta["parent_stage"] != row.parent:
            stem = f"{row.stage}_{meta['parent_stage']}"
    model, extra, summary = row.body(cfg, loaded, _p(cfg, f"metrics_{stem}.jsonl"))
    path = _p(cfg, f"{stem}.ckpt")
    save_checkpoint(model, path, meta={**meta, **extra})
    print(f"{row.stage} checkpoint: {path} ({summary})")


def cmd_eval(cfg, args):
    from .env import expert_actions
    from .training import evaluate

    suite = _suite(cfg)
    if args.expert:
        policy = expert_actions
        name = "expert"
    else:
        if not args.input:
            raise CliError("eval needs --input CHECKPOINT or --expert")
        from .checkpoint import load_checkpoint

        policy = load_checkpoint(args.input).model
        name = os.path.splitext(os.path.basename(args.input))[0]
    out = {}
    for split in ("IND", "OOD"):
        r = evaluate(policy, suite[split], cfg.eval.episodes_per_task, cfg.env,
                     seed=cfg.eval.seed)
        out[split] = {"success_rate": r.success_rate, "mean_return": r.mean_return,
                      "mean_length": r.mean_length, "episodes": r.episodes}
        print(f"{name} {split}: SR={r.success_rate:.4f} return={r.mean_return:.3f} "
              f"len={r.mean_length:.1f} ({r.episodes} episodes)")
    with open(_p(cfg, f"eval_{name}.json"), "w", encoding="utf-8") as f:
        json.dump(out, f, indent=2)


def cmd_bench(cfg, args):
    from .bench import report_header, variant_row, write_report
    from .checkpoint import load_checkpoint
    from .training import evaluate

    suite = _suite(cfg)
    inputs = args.inputs or [
        _p(cfg, f"{s.stage}.ckpt") for s in STAGES if os.path.exists(_p(cfg, f"{s.stage}.ckpt"))
    ]
    if not inputs:
        raise CliError("bench found no checkpoints; pass --inputs")
    names = [os.path.splitext(os.path.basename(path))[0] for path in inputs]
    rows = []
    for path, name in zip(inputs, names):
        model = load_checkpoint(path).model
        ind, ood = (evaluate(model, suite[split], cfg.eval.episodes_per_task, cfg.env,
                             seed=cfg.eval.seed).success_rate for split in ("IND", "OOD"))
        rows.append(variant_row(name, model, cfg.env, suite["IND"][0], ind, ood,
                                cfg.prune.exempt_layers))
        print(f"benched {name}: {rows[-1]['latency_ms']:.3f} ms, "
              f"{rows[-1]['throughput_sps']:.1f} decodes/s")
    # named inputs get a report of their own, so the pipeline's is never overwritten
    report = "_".join(["bench_report", *names]) if args.inputs else "bench_report"
    csv_path, _ = write_report(_p(cfg, report), report_header(), rows)
    print(f"report: {csv_path}")


def cmd_pipeline(cfg, args):
    """Run gen-demos, every stage and bench, each as its command given no
    options, then write the manifest."""
    parser = build_parser()
    for command in ("gen-demos", *(s.command for s in STAGES), "bench"):
        _COMMANDS[command](cfg, parser.parse_args([command]))
    manifest = {
        "checkpoints": {s.stage: f"{s.stage}.ckpt" for s in STAGES},
        "reports": ["bench_report.csv", "bench_report.json"],
        "config": "resolved_config.json",
        "config_sha256": _config_sha256(cfg),
        "suite": "suite.json",
        "demos": "demos.jsonl",
    }
    with open(_p(cfg, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
    print(f"pipeline complete: {cfg.output_dir}")


def build_parser():
    p = argparse.ArgumentParser(prog="rlrc",
                                description="prune / recover / quantize pipeline")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--seed", type=int, help="override master seed")
    p.add_argument("--output-dir", help="override output directory")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-demos")
    for stage in STAGES:
        sp = sub.add_parser(stage.command)
        if stage.parent:
            sp.add_argument("--input")
    sp = sub.add_parser("eval")
    sp.add_argument("--input")
    sp.add_argument("--expert", action="store_true")
    sp = sub.add_parser("bench")
    sp.add_argument("--inputs", nargs="*")
    sub.add_parser("pipeline")
    return p


_COMMANDS = {
    "gen-demos": cmd_gen_demos,
    **{s.command: functools.partial(_run_stage, s) for s in STAGES},
    "eval": cmd_eval,
    "bench": cmd_bench,
    "pipeline": cmd_pipeline,
}


def main(argv=None):
    _setup_threads()
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        _COMMANDS[args.command](cfg, args)
    except Exception as e:  # uniform nonzero exit with diagnostic
        if os.environ.get("RLRC_DEBUG"):
            raise
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
