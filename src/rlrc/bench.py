"""Measurement harness: latency, throughput, memory and success-rate rows.

Every row times greedy action decodes at two fixed batch sizes, each
with 10 untimed warm-up decodes and then 50 timed ones.  Latency is the
median wall time of one decode at batch 1; throughput is decodes per
second at batch 16.  Throughput here always means greedy env-action
decodes per second.  Memory numbers come from quant.memory_bytes:
``total_bytes`` is exactly the payload of the variant's checkpoint,
which holds the policy alone.
"""

import csv
import json
import os
import platform
import statistics
import time

import numpy as np

from . import HEAP_PIN
from .cli import BLAS_THREAD_VARS
from .env import reset
from .model import build_contexts, greedy_actions
from .pruning import param_counts
from .quant import memory_bytes

LATENCY_BATCH = 1
THROUGHPUT_BATCH = 16
WARMUP_ITERS = 10
TIMED_ITERS = 50


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
        "throughput_definition": f"greedy action decodes per second at batch {THROUGHPUT_BATCH}",
        "latency_definition": f"median wall ms of one greedy decode at batch {LATENCY_BATCH}",
        # the thread counts BLAS was started with, after RLRC_THREADS applied
        **{var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "heap_pin": HEAP_PIN,  # glibc's heap settings applied at import, or why none were
    }


def _decode_times(model, env_config, task, batch):
    """Wall seconds of each timed greedy decode of the contexts of
    ``batch`` episodes of ``task``, reset at seeds 0 .. batch - 1."""
    obs = np.stack([reset(env_config, task, i)[1] for i in range(batch)])
    contexts = build_contexts(model.config, obs)
    for _ in range(WARMUP_ITERS):
        greedy_actions(model, contexts)
    times = []
    for _ in range(TIMED_ITERS):
        t0 = time.perf_counter()
        greedy_actions(model, contexts)
        times.append(time.perf_counter() - t0)
    return times


def variant_row(name, model, env_config, task, ind_sr, ood_sr, exempt_layers):
    """One report row: memory straight from memory_bytes, then the decodes
    of ``task``'s contexts timed; a latency cv >= 15% flags it unstable."""
    mem = memory_bytes(model)
    counts = param_counts(model, exempt_layers)
    latency = _decode_times(model, env_config, task, LATENCY_BATCH)
    throughput = _decode_times(model, env_config, task, THROUGHPUT_BATCH)
    mu = statistics.fmean(latency)
    cv = statistics.pstdev(latency) / mu if mu > 0 else 0.0
    return {
        "variant": name,
        "total_params": counts["total"],
        "prunable_params": counts["prunable"],
        "weights_bytes": mem["weights_bytes"],
        "scales_bytes": mem["scales_bytes"],
        "total_bytes": mem["total_bytes"],
        "latency_ms": statistics.median(latency) * 1e3,
        "latency_cv": cv,
        "unstable": cv >= 0.15,
        "throughput_sps": THROUGHPUT_BATCH * TIMED_ITERS / sum(throughput),
        "throughput_batch": THROUGHPUT_BATCH,
        "ind_sr": ind_sr,
        "ood_sr": ood_sr,
    }


def write_report(prefix, header, rows):
    """Emit <prefix>.csv and <prefix>.json; the columns are the first
    row's keys, in order."""
    columns = list(rows[0])
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

