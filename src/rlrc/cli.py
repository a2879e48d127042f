"""Command line pipeline driver.

Subcommands: gen-demos, train-dense, prune, sft, rl, quantize, eval,
bench, pipeline, sweep.  Each stage consumes the previous
stage's checkpoint (validated via checkpoint metadata), writes its own
checkpoint plus a JSONL metrics log, and echoes the fully resolved config
into the output directory.

RLRC_THREADS, when set, sets the math-kernel thread count, overriding any
inherited OPENBLAS/OMP/MKL_NUM_THREADS; it must be honored before numpy
loads, so the heavy imports happen inside main().
"""

import argparse
import json
import os
import sys

_STAGE_INPUTS = {
    "prune": ("dense",),
    "sft": ("pruned",),
    "rl": ("sft", "pruned"),
    "quantize": ("rl", "sft"),
}


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


def _load_ckpt_for(cfg, stage, path=None):
    from .checkpoint import load_checkpoint

    allowed = _STAGE_INPUTS.get(stage)
    if path is None:
        if allowed is None:
            raise CliError(f"stage {stage} needs an explicit --input")
        for cand in allowed:
            p = _p(cfg, f"{cand}.ckpt")
            if os.path.exists(p):
                path = p
                break
        if path is None:
            raise CliError(
                f"missing input checkpoint for {stage}: looked for "
                f"{[c + '.ckpt' for c in allowed]} in {cfg.output_dir}"
            )
    if not os.path.exists(path):
        raise CliError(f"checkpoint not found: {path}")
    loaded = load_checkpoint(path)
    got = loaded.meta.get("stage")
    if allowed is not None and got not in allowed:
        raise CliError(
            f"stage-order violation: {stage} expects a checkpoint from "
            f"{allowed}, got {got!r} ({path})"
        )
    return loaded, path


def _suite(cfg):
    from .env import load_task_suite, make_task_suite, save_task_suite

    path = _p(cfg, "suite.json")
    if os.path.exists(path):
        return load_task_suite(path)
    suite = make_task_suite(cfg.seed)
    save_task_suite(suite, path)
    return suite


def _demos(cfg):
    from .env import generate_demos, load_demos

    path = _p(cfg, "demos.jsonl")
    if not os.path.exists(path):
        suite = _suite(cfg)
        generate_demos(cfg.env, suite["IND"], cfg.demos.episodes_per_task,
                       cfg.demos.seed, path)
    return load_demos(path)


def cmd_gen_demos(cfg, args):
    suite = _suite(cfg)
    demos = _demos(cfg)
    print(f"suite: {len(suite['IND'])} IND / {len(suite['OOD'])} OOD tasks")
    print(f"demos: {len(demos)} episodes -> {_p(cfg, 'demos.jsonl')}")


def cmd_train_dense(cfg, args):
    from .checkpoint import save_checkpoint
    from .model import init_model
    from .training import train_sft

    suite = _suite(cfg)
    demos = _demos(cfg)
    model = init_model(cfg.model)
    model, rows = train_sft(model, demos, cfg.sft, cfg.env, suite["IND"],
                            log_path=_p(cfg, "metrics_dense.jsonl"))
    save_checkpoint(model, _p(cfg, "dense.ckpt"),
                    meta={"stage": "dense", "seed": cfg.seed})
    print(f"dense checkpoint: {_p(cfg, 'dense.ckpt')} "
          f"(best IND SR {rows[-1].get('ind_sr'):.3f})")


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


def cmd_prune(cfg, args):
    from .checkpoint import save_checkpoint

    loaded, src = _load_ckpt_for(cfg, "prune", args.input)
    ratio = cfg.prune.ratio if args.ratio is None else args.ratio
    _, plan, pruned = _prune(cfg, loaded.model, _demos(cfg), ratio)
    with open(_p(cfg, "prune_plan.json"), "w", encoding="utf-8") as f:
        f.write(plan.to_json())
    save_checkpoint(pruned, _p(cfg, "pruned.ckpt"),
                    meta={"stage": "pruned", "seed": cfg.seed, "parent": src,
                          "ratio": plan.achieved_ratio})
    print(f"pruned checkpoint: {_p(cfg, 'pruned.ckpt')} "
          f"(achieved ratio {plan.achieved_ratio:.4f}, "
          f"{plan.removed_params}/{plan.prunable_params} prunable params removed)")


def cmd_sft(cfg, args):
    from .checkpoint import save_checkpoint
    from .training import train_sft

    loaded, src = _load_ckpt_for(cfg, "sft", args.input)
    suite = _suite(cfg)
    demos = _demos(cfg)
    model, rows = train_sft(loaded.model, demos, cfg.sft, cfg.env, suite["IND"],
                            log_path=_p(cfg, "metrics_sft.jsonl"))
    save_checkpoint(model, _p(cfg, "sft.ckpt"),
                    meta={"stage": "sft", "seed": cfg.seed, "parent": src})
    print(f"sft checkpoint: {_p(cfg, 'sft.ckpt')} "
          f"(best IND SR {rows[-1].get('ind_sr'):.3f})")


def cmd_rl(cfg, args):
    from .checkpoint import save_checkpoint
    from .model import init_value_head
    from .training import train_ppo

    if args.cold_start:
        loaded, src = _load_ckpt_for(cfg, "rl", args.input or _p(cfg, "pruned.ckpt"))
    else:
        loaded, src = _load_ckpt_for(cfg, "rl", args.input)
    suite = _suite(cfg)
    vhead = loaded.value_head or init_value_head(loaded.model.config.d_model,
                                                 seed=cfg.ppo.seed)
    model, vhead, rows = train_ppo(
        loaded.model, vhead, suite["IND"], cfg.ppo, cfg.env,
        eval_tasks_ind=suite["IND"], eval_tasks_ood=suite["OOD"],
        log_path=_p(cfg, "metrics_rl.jsonl"))
    out = _p(cfg, "rl_cold.ckpt" if args.cold_start else "rl.ckpt")
    save_checkpoint(model, out, value_head=vhead,
                    meta={"stage": "rl", "seed": cfg.seed, "parent": src,
                          "cold_start": bool(args.cold_start)})
    evals = [r for r in rows if r.get("phase") == "ppo"]
    last = evals[-1] if evals else {}
    print(f"rl checkpoint: {out} (last IND {last.get('ind_sr')}, OOD {last.get('ood_sr')})")


def cmd_quantize(cfg, args):
    from .checkpoint import save_checkpoint
    from .quant import quantize_model

    loaded, src = _load_ckpt_for(cfg, "quantize", args.input)
    bits = args.bits or cfg.quant.bits
    qm = quantize_model(loaded.model, bits, cfg.quant.block_size)
    save_checkpoint(qm, _p(cfg, "quant.ckpt"),
                    meta={"stage": "quant", "seed": cfg.seed, "parent": src,
                          "bits": bits})
    print(f"quant checkpoint: {_p(cfg, 'quant.ckpt')} ({bits}-bit)")


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
    episodes = args.episodes or cfg.eval.episodes_per_task
    out = {}
    for split in ("IND", "OOD"):
        r = evaluate(policy, suite[split], episodes, cfg.env, seed=cfg.eval.seed)
        out[split] = {"success_rate": r.success_rate, "mean_return": r.mean_return,
                      "mean_length": r.mean_length, "episodes": r.episodes}
        print(f"{name} {split}: SR={r.success_rate:.4f} return={r.mean_return:.3f} "
              f"len={r.mean_length:.1f} ({r.episodes} episodes)")
    with open(_p(cfg, f"eval_{name}.json"), "w", encoding="utf-8") as f:
        json.dump(out, f, indent=2)


def _bench_variant(cfg, name, model, suite, episodes):
    from .bench import measure_latency_throughput, variant_row
    from .training import evaluate

    timing = measure_latency_throughput(
        model, cfg.env, suite["IND"][0], tuple(cfg.bench.batch_sizes),
        cfg.bench.warmup_iters, cfg.bench.timed_iters)
    ind = evaluate(model, suite["IND"], episodes, cfg.env, seed=cfg.eval.seed)
    ood = evaluate(model, suite["OOD"], episodes, cfg.env, seed=cfg.eval.seed)
    return variant_row(name, model, timing, ind.success_rate, ood.success_rate,
                       cfg.prune.exempt_layers)


def cmd_bench(cfg, args):
    from .bench import report_header, write_report
    from .checkpoint import load_checkpoint

    suite = _suite(cfg)
    inputs = args.inputs or [
        _p(cfg, f"{s}.ckpt") for s in ("dense", "pruned", "sft", "rl", "quant")
        if os.path.exists(_p(cfg, f"{s}.ckpt"))
    ]
    if not inputs:
        raise CliError("bench found no checkpoints; pass --inputs")
    rows = []
    for path in inputs:
        loaded = load_checkpoint(path)
        name = os.path.splitext(os.path.basename(path))[0]
        rows.append(_bench_variant(cfg, name, loaded.model, suite,
                                   cfg.eval.episodes_per_task))
        print(f"benched {name}: {rows[-1]['latency_ms']:.3f} ms, "
              f"{rows[-1]['throughput_sps']:.1f} decodes/s")
    csv_path, _ = write_report(_p(cfg, "bench_report"), report_header(), rows)
    print(f"report: {csv_path}")


def cmd_pipeline(cfg, args):
    ns = argparse.Namespace(input=None, ratio=None, bits=None, cold_start=False,
                            expert=False, episodes=None, inputs=None)
    cmd_gen_demos(cfg, ns)
    cmd_train_dense(cfg, ns)
    cmd_prune(cfg, ns)
    cmd_sft(cfg, ns)
    cmd_rl(cfg, ns)
    stages = ["dense", "pruned", "sft", "rl"]
    if cfg.quant.enabled:
        ns.input = _p(cfg, "rl.ckpt")
        cmd_quantize(cfg, ns)
        stages.append("quant")
    ns.inputs = [_p(cfg, f"{s}.ckpt") for s in stages]
    cmd_bench(cfg, ns)
    manifest = {
        "checkpoints": {s: f"{s}.ckpt" for s in stages},
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
    demos = _demos(cfg)
    dense_path = _p(cfg, "dense.ckpt")
    if not os.path.exists(dense_path):
        cmd_train_dense(cfg, args)
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
            row = _bench_variant(cfg, name, variant, suite, cfg.eval.episodes_per_task)
            row["ratio"] = ratio
            row["quant"] = q
            rows.append(row)
            print(f"sweep {name}: mem={row['total_bytes']} "
                  f"thr={row['throughput_sps']:.1f} IND={row['ind_sr']:.3f}")
    csv_path, _ = write_report(_p(cfg, "sweep_report"), report_header(), rows,
                               extra_columns=("ratio", "quant"))
    print(f"sweep report: {csv_path}")


def build_parser():
    p = argparse.ArgumentParser(prog="rlrc",
                                description="prune / recover / quantize pipeline")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--seed", type=int, help="override master seed")
    p.add_argument("--output-dir", help="override output directory")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-demos")
    sub.add_parser("train-dense")
    sp = sub.add_parser("prune")
    sp.add_argument("--input")
    sp.add_argument("--ratio", type=float)
    sp = sub.add_parser("sft")
    sp.add_argument("--input")
    sp = sub.add_parser("rl")
    sp.add_argument("--input")
    sp.add_argument("--cold-start", action="store_true")
    sp = sub.add_parser("quantize")
    sp.add_argument("--input")
    sp.add_argument("--bits", type=int, choices=(4, 8))
    sp = sub.add_parser("eval")
    sp.add_argument("--input")
    sp.add_argument("--expert", action="store_true")
    sp.add_argument("--episodes", type=int)
    sp = sub.add_parser("bench")
    sp.add_argument("--inputs", nargs="*")
    sub.add_parser("pipeline")
    sp = sub.add_parser("sweep")
    sp.add_argument("--ratios", default="0,0.5,0.9")
    sp.add_argument("--quant", default="none,4")
    return p


_COMMANDS = {
    "gen-demos": cmd_gen_demos,
    "train-dense": cmd_train_dense,
    "prune": cmd_prune,
    "sft": cmd_sft,
    "rl": cmd_rl,
    "quantize": cmd_quantize,
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
