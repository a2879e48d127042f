"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of ``rlrc`` where their callers look them
up: the defining module or class, plus every other ``rlrc`` module that
imported the same function object under any name (``rlrc.training.forward``
and ``rlrc.training.env_step`` are the same objects as ``rlrc.model.forward``
and ``rlrc.env.step``).  Each call records a span (name, start, end, self
time, parent).  Self time is the span's duration minus the time covered by
its child spans.  Spans stay in memory until ``write`` is called.

A target that no longer exists is reported in ``absent`` and skipped.
``uninstall`` puts every patched name back.
"""

import functools
import importlib
import json
import sys
import time

# (span name, defining module, attribute or Class.method)
TARGETS = (
    ("env.generate_demos", "rlrc.env", "generate_demos"),
    ("env.VecEnv.vec_step", "rlrc.env", "VecEnv.vec_step"),
    ("env.step", "rlrc.env", "step"),
    ("model.init_model", "rlrc.model", "init_model"),
    ("model.forward", "rlrc.model", "forward"),
    ("model.fast_logits_last", "rlrc.model", "fast_logits_last"),
    ("kernels.attn_block", "rlrc.kernels", "attn_block"),
    ("kernels.mlp_block", "rlrc.kernels", "mlp_block"),
    ("kernels.rms_rows", "rlrc.kernels", "rms_rows"),
    ("quant.quantize_model", "rlrc.quant", "quantize_model"),
    ("quant.QuantizedModel.logits_last", "rlrc.quant", "QuantizedModel.logits_last"),
    ("quant.qmatmul", "rlrc.quant", "qmatmul"),
    ("pruning.taylor_importance", "rlrc.pruning", "taylor_importance"),
    ("pruning.apply_prune", "rlrc.pruning", "apply_prune"),
    ("checkpoint.save_checkpoint", "rlrc.checkpoint", "save_checkpoint"),
    ("checkpoint.load_checkpoint", "rlrc.checkpoint", "load_checkpoint"),
    ("tensor.backward", "rlrc.tensor", "backward"),
    ("tensor.adam_step", "rlrc.tensor", "adam_step"),
    ("training.ModelPolicy.act", "rlrc.training", "ModelPolicy.act"),
    ("training.train_sft", "rlrc.training", "train_sft"),
    ("training.train_ppo", "rlrc.training", "train_ppo"),
    ("training.sft_loss", "rlrc.training", "sft_loss"),
    ("training.evaluate", "rlrc.training", "evaluate"),
    ("training.collect_rollouts", "rlrc.training", "collect_rollouts"),
    ("training.compute_gae", "rlrc.training", "compute_gae"),
    # defined in rlrc.model, called by the PPO update in rlrc.training
    ("training.batch_logprob_value", "rlrc.model", "batch_logprob_value"),
)

QMATMUL = "quant.qmatmul"
QMATRICES = ("wq", "wk", "wv", "wo", "wup", "wgate", "wdown")


def metric_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name, _, _ in TARGETS:
        units.update({f"{name}.calls": "count", f"{name}.self_ms": "ms",
                      f"{name}.share": "fraction"})
    for m in QMATRICES:
        name = f"{QMATMUL}.{m}"
        units.update({f"{name}.calls": "count", f"{name}.self_ms": "ms",
                      f"{name}.share": "fraction",
                      # operation counts and bytes follow from tensor shapes;
                      # they are computed, not measured
                      f"{name}.gflop": "GFLOP.computed",
                      f"{name}.mbytes": "MB.computed"})
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.absent = []
        # [span name, matrix tag, start, end, self seconds, parent index]
        self.spans = []
        self._stack = []  # [span index, seconds covered by children]
        self._patched = []  # (owner, attribute, original)
        self._matrix = {}  # id(QuantizedTensor) -> matrix name
        self._named_models = []  # keeps named tensors alive, so ids stay unique
        self._qwork = {m: [0, 0] for m in QMATRICES}  # flops, bytes

    # -- installing -------------------------------------------------------

    def install(self):
        for span, modname, attr in self.targets:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.append(span)
                continue
            owner, name = module, attr
            if "." in attr:
                cls_name, name = attr.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = vars(owner).get(name) if owner is not None else None
            if not callable(original):
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original)
            self._patch(owner, name, original, wrapper)
            if owner is module:
                for mod in _program_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original and not (mod is owner and key == name):
                            self._patch(mod, key, original, wrapper)
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, owner, name, original, wrapper):
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    def name_quant_tensors(self, qmodel):
        """Key the per-matrix qmatmul spans through ``named_quant_tensors``."""
        self._named_models.append(qmodel)
        for full, qt in qmodel.named_quant_tensors():
            self._matrix[id(qt)] = full.rsplit(".", 1)[-1]

    # -- recording --------------------------------------------------------

    def _wrap(self, span, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_qmatmul = span == QMATMUL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = self._qmatmul_tag(args) if is_qmatmul else None
            index = len(spans)
            spans.append([span, tag, 0.0, 0.0, 0.0, stack[-1][0] if stack else -1])
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                record = spans[index]
                record[2], record[3], record[4] = start, end, duration - frame[1]

        return wrapper

    def _qmatmul_tag(self, args):
        qt, x = (args + (None, None))[:2]
        tag = self._matrix.get(id(qt))
        if tag is None:
            return None
        try:
            k, n = qt.shape
            rows = x.size // k
        except (AttributeError, TypeError, ValueError, ZeroDivisionError):
            return tag  # the call itself reports the bad arguments
        work = self._qwork[tag]
        work[0] += 2 * rows * k * n
        work[1] += qt.packed.nbytes + qt.scales.nbytes + 4 * rows * (k + n)
        return tag

    # -- reporting --------------------------------------------------------

    def metrics(self, wall_s, untraced_wall_s):
        """Per-layer metrics: calls, self time and share of ``wall_s``."""
        calls, self_s = {}, {}
        for name, tag, _, _, own, _ in self.spans:
            for key in (name, f"{name}.{tag}") if tag else (name,):
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + own
        out = {}
        for name, unit in metric_units().items():
            base, _, field = name.rpartition(".")
            if field == "calls":
                value = calls.get(base, 0)
            elif field == "self_ms":
                value = 1e3 * self_s.get(base, 0.0)
            elif field == "share":
                value = self_s.get(base, 0.0) / wall_s
            elif field == "gflop":
                value = self._qwork[base.rsplit(".", 1)[1]][0] / 1e9
            elif field == "mbytes":
                value = self._qwork[base.rsplit(".", 1)[1]][1] / 1e6
            else:  # trace.overhead_pct
                value = 100.0 * (wall_s - untraced_wall_s) / untraced_wall_s
            out[name] = {"value": value, "unit": unit}
        return out

    def inclusive_s(self, name):
        """Total time inside outermost calls of ``name``."""
        total = 0.0
        for index, (span, _, start, end, _, parent) in enumerate(self.spans):
            if span == name and not self._has_ancestor(parent, name):
                total += end - start
        return total

    def self_within_s(self, name, ancestor):
        """Self time of ``name`` spans that run inside an ``ancestor`` span."""
        return sum(rec[4] for rec in self.spans
                   if rec[0] == name and self._has_ancestor(rec[5], ancestor))

    def _has_ancestor(self, index, name):
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][5]
        return False

    def write(self, path):
        """Write every span as one JSON line, times relative to the first."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for index, (name, tag, start, end, own, parent) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": index, "name": name, "matrix": tag, "parent": parent,
                    "start_ms": round(1e3 * (start - t0), 4),
                    "end_ms": round(1e3 * (end - t0), 4),
                    "self_ms": round(1e3 * own, 4),
                }) + "\n")


def _program_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "rlrc" or n.startswith("rlrc."))]
