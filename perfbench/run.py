"""Benchmark of the rlrc policy: serving dense and 4-bit policies, and recovery training.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload control-dense --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each was chosen):

    control-dense  greedy control with the fp32 policy
    control-q4     greedy control with the 90%-pruned 4-bit policy
    recover        SFT then PPO on the 90%-pruned fp32 policy, then serving it

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries per-layer metrics from
a traced run of the same workload, and every span is written to
``perfbench/out/``.  Lines before it, starting with ``#``, describe the
machine and the run.  The program is imported from ``src/`` of the checkout
this file sits in; without it the benchmark exits with status 2.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# BLAS threads, pinned before numpy loads.  The matrices here are at most
# 1024 x 512, where a second thread gains little and widens the run-to-run
# spread.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "decode_b1_mean_ms": "ms",
    "control_b16_steps_per_s": "steps/s",
    "decode_b64_per_s": "decodes/s",
    "job_s": "s",
    "heldout_loss": "nats",
    "model_bytes": "B",
    "peak_rss_mb": "MiB",
    "ok_rate": "fraction",
}


class MissingProgram(RuntimeError):
    pass


def pin_blas_threads():
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def use_checkout_program():
    """Import rlrc from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "rlrc", "__init__.py")):
        raise MissingProgram(f"no rlrc sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import rlrc

    if os.path.dirname(os.path.dirname(os.path.abspath(rlrc.__file__))) != SRC:
        raise MissingProgram(f"rlrc was imported from {rlrc.__file__}, not from {SRC}")


def measure(workload_name, seed, seconds, trace, sizes=None):
    """Run one workload; returns (result dict, report lines)."""
    import workloads as wl

    sizes = sizes or wl.FULL
    workload = wl.WORKLOADS[workload_name]
    ops = wl.Ops()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUT)
    try:
        if trace:
            metrics, lines, outcomes = _traced(wl, workload, seed, seconds, sizes, ops, workdir)
        else:
            metrics, lines, outcomes = _untraced(wl, workload, seed, seconds, sizes, ops, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for outcome in outcomes:
        wl.check_samples(outcome.samples, ops)
    lines += [f"error: {e}" for e in ops.errors]
    if "ok_rate" in metrics:
        metrics["ok_rate"]["value"] = 1 - ops.failed / max(ops.checked, 1)
    for m in metrics.values():  # a phase whose every call failed has no timing
        if not math.isfinite(m["value"]):
            m["value"] = None
    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed, "metrics": metrics}
    return result, lines


def _untraced(wl, workload, seed, seconds, sizes, ops, workdir):
    from rlrc import quant

    setup_s = []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        state = wl.setup(workload, seed, sizes, workdir)
        setup_s.append(time.perf_counter() - t0)
    outcome = wl.run_job(workload, state, seed, seconds, sizes, ops)
    values = dict(outcome.metrics)
    values["setup_s"] = statistics.median(setup_s)
    values["heldout_loss"] = wl.heldout_loss(outcome.served, state.heldout)
    values["model_bytes"] = quant.memory_bytes(outcome.served)["total_bytes"]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["ok_rate"] = None  # set by measure() once the outputs are checked
    lines = [f"setup runs: {len(setup_s)}, seconds: "
             + ", ".join(f"{s:.4f}" for s in setup_s)] + outcome.details
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, lines, [outcome]


def _traced(wl, workload, seed, seconds, sizes, ops, workdir):
    import spans

    half = seconds / 2
    wl.setup(workload, seed, sizes, workdir)  # warm-up, so neither pass pays first-use costs
    t0 = time.perf_counter()
    plain = wl.run_job(workload, wl.setup(workload, seed, sizes, workdir), seed, half,
                       sizes, ops, traced=True)
    untraced_wall = time.perf_counter() - t0
    tracer = spans.Tracer()
    with tracer:
        t0 = time.perf_counter()
        state = wl.setup(workload, seed, sizes, workdir)
        if hasattr(state.model, "named_quant_tensors"):
            tracer.name_quant_tensors(state.model)
        traced = wl.run_job(workload, state, seed, half, sizes, ops, traced=True)
        traced_wall = time.perf_counter() - t0
    metrics = tracer.metrics(traced_wall, untraced_wall)
    path = os.path.join(OUT, f"trace_{workload.name}_seed{seed}.jsonl")
    tracer.write(path)
    lines = [f"trace: {len(tracer.spans)} spans -> {os.path.relpath(path, ROOT)}",
             f"trace: wall untraced {untraced_wall:.3f} s, traced {traced_wall:.3f} s",
             "trace: absent targets: " + (", ".join(tracer.absent) or "none")]
    act = tracer.inclusive_s("training.ModelPolicy.act")
    if act:
        inside = tracer.self_within_s("quant.qmatmul", "training.ModelPolicy.act")
        lines.append(f"trace: quant.qmatmul self time is {100 * inside / act:.1f}% "
                     "of time inside training.ModelPolicy.act")
    lines.append("trace: gflop and mbytes are computed from tensor shapes, not measured")
    lines += _span_table(metrics)
    return metrics, lines, [plain, traced]


def _span_table(metrics):
    rows = []
    for name, m in metrics.items():
        if name.endswith(".calls") and m["value"]:
            base = name[: -len(".calls")]
            rows.append(f"span {base:<40} calls {m['value']:>8}  "
                        f"self {metrics[base + '.self_ms']['value']:>11.2f} ms  "
                        f"share {metrics[base + '.share']['value']:.4f}")
    return rows


def header(workload_name, seed, seconds, trace, threads):
    import numpy as np
    import workloads as wl

    w = wl.WORKLOADS[workload_name]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        why = {x["name"]: x["why"] for x in json.load(f)["workloads"]}[w.name]
    return [
        f"cpu: {_cpu_model()}",
        f"nproc: {os.cpu_count()}, BLAS threads pinned to {threads} ({', '.join(BLAS_VARS)})",
        f"numpy: {np.__version__}, BLAS: {_blas_build(np)}",
        f"python: {platform.python_version()} ({platform.python_implementation()})",
        f"git rev: {_git_rev()}",
        f"workload: {w.name}, seed {seed}, seconds {seconds:g}, trace {int(trace)}",
        f"loop: {w.loop}",
        f"why: {why}",
    ]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_build(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return " ".join(str(blas.get(k, "")) for k in ("name", "version", "openblas configuration"))


def _git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("control-dense", "control-q4", "recover"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    threads = pin_blas_threads()
    try:
        use_checkout_program()
    except MissingProgram as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    for line in header(args.workload, args.seed, args.seconds, args.trace, threads):
        print("# " + line)
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print("# " + line)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
