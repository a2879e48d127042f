"""Command line pipeline driver.

Subcommands: gen-demos, then the recipe's stages train-dense, prune, sft,
rl and quantize, then eval, bench, pipeline and sweep.  `STAGES` is the
one statement of the recipe's order: each row names a stage command, the
stage it writes (``<stage>.ckpt``, whose ``meta["stage"]`` it is), the
parent stage whose checkpoint it reads (checked against that checkpoint's
metadata) and the body that does the work.  The stage commands, `rlrc
pipeline`, bench's default inputs and the manifest all read that table.

A run is its config: every command echoes the fully resolved config into
the output directory as ``resolved_config.json`` and takes every setting
from it.  No flag overrides a setting: the flags name input paths,
modes and sweep's own axes, and ``--seed`` and ``--output-dir`` are
applied before the echo.  The task split (one for every seed) and the
demonstrations are built by each command that needs them and rewritten
to ``suite.json`` and ``demos.jsonl`` as records, never read back.  The
training stages write a JSONL metrics log, ``metrics_<stem>.jsonl`` after
their checkpoint's stem.

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
    from .config import PipelineConfig

    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig.default()
    if args.seed is not None:
        cfg = cfg.override_seed(args.seed)
    if args.output_dir:
        cfg.output_dir = args.output_dir
    os.makedirs(cfg.output_dir, exist_ok=True)
    cfg.write_resolved(os.path.join(cfg.output_dir, "resolved_config.json"))
    return cfg


def _p(cfg, name):
    return os.path.join(cfg.output_dir, name)


def _load_ckpt_for(cfg, stage, parent, path):
    """Load the input of the command ``stage``: ``path``, else the
    ``parent`` stage's checkpoint in the output directory.  Either must
    come from the parent stage."""
    from .checkpoint import load_checkpoint

    if path is None:
        path = _p(cfg, f"{parent}.ckpt")
        if not os.path.exists(path):
            raise CliError(f"missing input checkpoint for {stage}: expected "
                           f"{parent}.ckpt in {cfg.output_dir}")
    if not os.path.exists(path):
        raise CliError(f"checkpoint not found: {path}")
    loaded = load_checkpoint(path)
    got = loaded.meta.get("stage")
    if got != parent:
        raise CliError(
            f"stage-order violation: {stage} expects a checkpoint from "
            f"{parent}, got {got!r} ({path})"
        )
    return loaded, path


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
    """SFT on the demos: of a new model for train-dense, of the pruned one
    for sft."""
    from .model import init_model
    from .training import train_sft

    suite = _suite(cfg)
    demos = _demos(cfg, suite)
    model = init_model(cfg.model) if loaded is None else loaded.model
    model, rows = train_sft(model, demos, cfg.sft, cfg.env, suite["IND"], log_path=log_path)
    return model, None, {}, f"best IND SR {rows[-1].get('ind_sr'):.3f}"


def _prune(cfg, model, demos, ratio, table=None):
    """Remove the lowest-importance groups of ``model`` up to ``ratio``.

    Unless ``table`` is given, scores ``model`` on ``cfg.prune.calib_batch``
    demo steps drawn with ``cfg.prune.seed``.  Returns (table, plan, pruned).
    """
    import numpy as np

    from .pruning import apply_prune, select_prune_groups, taylor_importance
    from .training import demo_arrays

    if table is None:
        obs, acts = demo_arrays(demos)
        rng = np.random.default_rng(cfg.prune.seed)
        idx = rng.choice(obs.shape[0], size=min(cfg.prune.calib_batch, obs.shape[0]),
                         replace=False)
        table = taylor_importance(model, obs[idx], acts[idx], seed=cfg.prune.seed)
    plan = select_prune_groups(model, table, ratio, cfg.prune.exempt_layers)
    return table, plan, apply_prune(model, plan)


def _prune_stage(cfg, loaded, log_path):
    _, plan, pruned = _prune(cfg, loaded.model, _demos(cfg, _suite(cfg)), cfg.prune.ratio)
    with open(_p(cfg, "prune_plan.json"), "w", encoding="utf-8") as f:
        f.write(plan.to_json())
    return pruned, None, {"ratio": plan.achieved_ratio}, (
        f"achieved ratio {plan.achieved_ratio:.4f}, "
        f"{plan.removed_params}/{plan.prunable_params} prunable params removed")


def _rl(cfg, loaded, log_path):
    from .training import train_ppo

    suite = _suite(cfg)
    # without a value head in the checkpoint, train_ppo initialises one
    model, vhead, rows = train_ppo(
        loaded.model, loaded.value_head, suite["IND"], cfg.ppo, cfg.env,
        eval_tasks_ind=suite["IND"], eval_tasks_ood=suite["OOD"], log_path=log_path)
    best = rows[-1]
    return model, vhead, {}, f"best IND SR {best['ind_sr']:.3f}, OOD SR {best['ood_sr']:.3f}"


def _quantize(cfg, loaded, log_path):
    from .quant import quantize_model

    bits = cfg.quant.bits
    return (quantize_model(loaded.model, bits, cfg.quant.block_size), None, {"bits": bits},
            f"{bits}-bit")


class Stage(NamedTuple):
    """One step of the recipe.  ``rlrc <command>`` loads the checkpoint of
    ``parent`` (none for the first step), calls ``body(cfg, loaded,
    log_path)`` on it for (model, value head or None, extra meta, summary)
    and writes ``<stage>.ckpt``.  Every setting a body uses comes from
    ``cfg``, the echoed config; a training body logs its metric rows to
    ``log_path``, ``metrics_<stem>.jsonl``.  A step with a ``cold_parent``
    also takes ``--cold-start``: it then reads that stage instead, writes
    ``<stage>_cold.ckpt`` and logs to ``metrics_<stage>_cold.jsonl``."""
    command: str
    stage: str
    parent: str
    body: object
    cold_parent: str = None


# the recipe, in the order it runs
STAGES = (
    Stage("train-dense", "dense", None, _train),
    Stage("prune", "pruned", "dense", _prune_stage),
    Stage("sft", "sft", "pruned", _train),
    Stage("rl", "rl", "sft", _rl, cold_parent="pruned"),
    Stage("quantize", "quant", "rl", _quantize),
)


def _run_stage(row, cfg, args):
    """Run one row of `STAGES` and save its checkpoint.  The meta records
    the stage, the master seed, the parent's path and, for a step with a
    cold start, whether it took one."""
    from .checkpoint import save_checkpoint

    command, parent, stem = row.command, row.parent, row.stage
    cold = row.cold_parent is not None and args.cold_start
    if cold:
        command, parent, stem = f"{command} --cold-start", row.cold_parent, f"{stem}_cold"
    meta = {"stage": row.stage, "seed": cfg.seed}
    loaded = None
    if parent:
        loaded, meta["parent"] = _load_ckpt_for(cfg, command, parent, args.input)
    if row.cold_parent:
        meta["cold_start"] = cold
    model, value_head, extra, summary = row.body(cfg, loaded, _p(cfg, f"metrics_{stem}.jsonl"))
    path = _p(cfg, f"{stem}.ckpt")
    save_checkpoint(model, path, value_head=value_head, meta={**meta, **extra})
    print(f"{row.stage} checkpoint: {path} ({summary})")


def cmd_eval(cfg, args):
    from .training import ExpertPolicyWrapper, evaluate

    suite = _suite(cfg)
    if args.expert:
        policy = ExpertPolicyWrapper()
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


def _bench_variant(cfg, name, model, suite):
    from .bench import variant_row
    from .training import evaluate

    ind, ood = (evaluate(model, suite[split], cfg.eval.episodes_per_task, cfg.env,
                         seed=cfg.eval.seed).success_rate for split in ("IND", "OOD"))
    return variant_row(name, model, cfg.env, suite["IND"][0], ind, ood,
                       cfg.prune.exempt_layers)


def cmd_bench(cfg, args):
    from .bench import report_header, write_report
    from .checkpoint import load_checkpoint

    suite = _suite(cfg)
    inputs = args.inputs or [
        _p(cfg, f"{s.stage}.ckpt") for s in STAGES if os.path.exists(_p(cfg, f"{s.stage}.ckpt"))
    ]
    if not inputs:
        raise CliError("bench found no checkpoints; pass --inputs")
    rows = []
    for path in inputs:
        loaded = load_checkpoint(path)
        name = os.path.splitext(os.path.basename(path))[0]
        rows.append(_bench_variant(cfg, name, loaded.model, suite))
        print(f"benched {name}: {rows[-1]['latency_ms']:.3f} ms, "
              f"{rows[-1]['throughput_sps']:.1f} decodes/s")
    csv_path, _ = write_report(_p(cfg, "bench_report"), report_header(), rows)
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
        "suite": "suite.json",
        "demos": "demos.jsonl",
    }
    with open(_p(cfg, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
    print(f"pipeline complete: {cfg.output_dir}")


def cmd_sweep(cfg, args):
    from .bench import report_header, write_report
    from .checkpoint import load_checkpoint, save_checkpoint
    from .quant import quantize_model
    from .training import train_sft

    ratios = [float(r) for r in args.ratios.split(",")]
    if any(not 0.0 <= r < 1.0 for r in ratios):
        raise CliError(f"ratios must lie in [0, 1): {ratios}")
    quants = [q.strip() for q in args.quant.split(",")]
    for q in quants:
        if q not in ("none", "4", "8"):
            raise CliError(f"quant modes are none|4|8, got {q!r}")
    suite = _suite(cfg)
    demos = _demos(cfg, suite)
    dense_path = _p(cfg, "dense.ckpt")
    if not os.path.exists(dense_path):
        _run_stage(STAGES[0], cfg, args)
    dense = load_checkpoint(dense_path).model
    table = None  # every ratio prunes the same dense model: score it once
    rows = []
    for ratio in ratios:
        if ratio == 0.0:
            model = dense.copy()
        else:
            table, _, model = _prune(cfg, dense, demos, ratio, table)
            model, _ = train_sft(model, demos, cfg.sft, cfg.env, suite["IND"])
        save_checkpoint(model, _p(cfg, f"sweep_r{ratio:g}.ckpt"),
                        meta={"stage": "sft" if ratio else "dense", "seed": cfg.seed,
                              "ratio": ratio})
        for q in quants:
            variant = model if q == "none" else quantize_model(model, int(q),
                                                               cfg.quant.block_size)
            name = f"ratio{ratio:g}_{'fp32' if q == 'none' else q + 'bit'}"
            row = _bench_variant(cfg, name, variant, suite)
            row["ratio"] = ratio
            row["quant"] = q
            rows.append(row)
            print(f"sweep {name}: mem={row['total_bytes']} "
                  f"thr={row['throughput_sps']:.1f} IND={row['ind_sr']:.3f}")
    csv_path, _ = write_report(_p(cfg, "sweep_report"), report_header(), rows)
    print(f"sweep report: {csv_path}")


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
        if stage.cold_parent:
            sp.add_argument("--cold-start", action="store_true")
    sp = sub.add_parser("eval")
    sp.add_argument("--input")
    sp.add_argument("--expert", action="store_true")
    sp = sub.add_parser("bench")
    sp.add_argument("--inputs", nargs="*")
    sub.add_parser("pipeline")
    sp = sub.add_parser("sweep")
    sp.add_argument("--ratios", default="0,0.5,0.9")
    sp.add_argument("--quant", default="none,4")
    return p


_COMMANDS = {
    "gen-demos": cmd_gen_demos,
    **{s.command: functools.partial(_run_stage, s) for s in STAGES},
    "eval": cmd_eval,
    "bench": cmd_bench,
    "pipeline": cmd_pipeline,
    "sweep": cmd_sweep,
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
