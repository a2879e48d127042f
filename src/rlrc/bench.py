"""Measurement harness: latency, throughput, memory and success-rate rows.

Latency is the median wall time of one greedy action decode at batch 1
over the configured timed iterations, after the configured warmups;
throughput is decodes per second at the largest configured batch.
Throughput here always means greedy env-action decodes per second.  Memory numbers come from
quant.memory_bytes and reconcile exactly with serialized checkpoints.
"""

import csv
import json
import os
import platform
import statistics
import time

import numpy as np

from .cli import BLAS_THREAD_VARS
from .env import reset
from .model import build_contexts, greedy_actions
from .pruning import param_counts
from .quant import memory_bytes

REPORT_COLUMNS = [
    "variant", "total_params", "prunable_params", "weights_bytes",
    "scales_bytes", "total_bytes", "latency_ms", "latency_cv", "unstable",
    "throughput_sps", "throughput_batch", "ind_sr", "ood_sr",
]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def report_header():
    return {
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "throughput_definition": "greedy action decodes per second at the stated batch size",
        "latency_definition": "median wall ms of one greedy decode at batch 1",
        # the thread counts BLAS was started with, after RLRC_THREADS applied
        **{var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
    }


def probe_contexts(model, env_config, batch, task):
    obs = np.stack([reset(env_config, task, i)[1] for i in range(batch)])
    return build_contexts(model.config, obs)


def measure_latency_throughput(model, env_config, task, batch_sizes=(1, 16),
                               warmup=10, iters=50):
    """Timing rows of the smallest and the largest batch size, the two a
    report reads; flags rows with cv >= 15% as unstable."""
    rows = []
    for batch in sorted({min(batch_sizes), max(batch_sizes)}):
        contexts = probe_contexts(model, env_config, batch, task)
        for _ in range(warmup):
            greedy_actions(model, contexts)
        times = []
        for _ in range(iters):
            t0 = time.perf_counter()
            greedy_actions(model, contexts)
            times.append(time.perf_counter() - t0)
        med = statistics.median(times)
        mu = statistics.fmean(times)
        cv = statistics.pstdev(times) / mu if mu > 0 else 0.0
        rows.append({
            "batch_size": batch,
            "latency_ms": med * 1e3,
            "latency_cv": cv,
            "unstable": cv >= 0.15,
            "throughput_sps": batch * iters / sum(times),
            "iters": iters,
        })
    return rows


def variant_row(name, model, timing_rows, ind_sr=None, ood_sr=None, exempt_layers=None):
    """One BenchReport row; memory fields come straight from memory_bytes."""
    mem = memory_bytes(model)
    counts = param_counts(model, exempt_layers)
    batch1 = min(timing_rows, key=lambda r: r["batch_size"])
    batchmax = max(timing_rows, key=lambda r: r["batch_size"])
    return {
        "variant": name,
        "total_params": counts["total"],
        "prunable_params": counts["prunable"],
        "weights_bytes": mem["weights_bytes"],
        "scales_bytes": mem["scales_bytes"],
        "total_bytes": mem["total_bytes"],
        "latency_ms": batch1["latency_ms"],
        "latency_cv": batch1["latency_cv"],
        "unstable": batch1["unstable"],
        "throughput_sps": batchmax["throughput_sps"],
        "throughput_batch": batchmax["batch_size"],
        "ind_sr": ind_sr,
        "ood_sr": ood_sr,
    }


def write_report(prefix, header, rows, extra_columns=()):
    """Emit <prefix>.csv and <prefix>.json with a fixed column order."""
    columns = REPORT_COLUMNS + [c for c in extra_columns if c not in REPORT_COLUMNS]
    csv_path = prefix + ".csv"
    json_path = prefix + ".json"
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        for k, v in header.items():
            f.write(f"# {k}: {v}\n")
        w = csv.DictWriter(f, fieldnames=columns, extrasaction="ignore")
        w.writeheader()
        for r in rows:
            w.writerow(r)
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump({"header": header, "columns": columns, "rows": rows}, f, indent=2)
    return csv_path, json_path

