"""Structured pruning: coupled dependency groups, first-order Taylor
importance, lowest-score group selection with layer exemptions, and
physical shrinking of the interior widths.  Every layer's external
d_model interface survives untouched; only head counts and MLP channel
counts change.  `apply_prune` slices the named parameters and rebuilds
the model with `PolicyModel.from_params`.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig, PolicyModel
from .tensor import Tensor, backward_in_chunks, check_finite

KIND_ATTN = "attn_head"
KIND_MLP = "mlp_channel"


class PruningError(RuntimeError):
    pass


@dataclass(frozen=True)
class DependencyGroup:
    """One removable unit: an attention head or an MLP channel.

    ``members`` lists (param name, axis, start, stop) slices that must be
    deleted together; ``size`` is their total parameter count.
    """
    kind: str
    layer: int
    index: int
    members: tuple
    size: int

    @property
    def key(self):
        return (self.kind, self.layer, self.index)


@dataclass
class ImportanceTable:
    scores: dict  # (kind, layer, index) -> float
    batch_size: int
    seed: object
    loss: float


@dataclass
class PrunePlan:
    groups: list
    target_ratio: float
    achieved_ratio: float
    exempt_layers: list
    prunable_params: int
    removed_params: int
    scores: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps({
            "target_ratio": self.target_ratio,
            "achieved_ratio": self.achieved_ratio,
            "exempt_layers": list(self.exempt_layers),
            "prunable_params": self.prunable_params,
            "removed_params": self.removed_params,
            "groups": [
                {"kind": g.kind, "layer": g.layer, "index": g.index, "size": g.size,
                 "score": self.scores.get(g.key)}
                for g in self.groups
            ],
        }, indent=2)


def default_exempt_layers(config):
    """First and last decoder layers are kept intact."""
    return {0, config.n_layers - 1}


def build_dependency_groups(model):
    """One group per attention head and per MLP channel, every layer."""
    cfg = model.config
    d = cfg.d_model
    hd = cfg.head_dim
    groups = []
    for li, layer in enumerate(model.layers):
        for name in ("wq", "wk", "wv", "wo", "wup", "wgate", "wdown"):
            if not hasattr(layer, name):
                raise PruningError(f"unknown parameter layout: layer {li} lacks {name}")
        for h in range(cfg.n_heads[li]):
            lo, hi = h * hd, (h + 1) * hd
            members = (
                (f"layers.{li}.wq", 1, lo, hi),
                (f"layers.{li}.wk", 1, lo, hi),
                (f"layers.{li}.wv", 1, lo, hi),
                (f"layers.{li}.wo", 0, lo, hi),
            )
            groups.append(DependencyGroup(KIND_ATTN, li, h, members, 4 * d * hd))
        for c in range(cfg.d_ff[li]):
            members = (
                (f"layers.{li}.wup", 1, c, c + 1),
                (f"layers.{li}.wgate", 1, c, c + 1),
                (f"layers.{li}.wdown", 0, c, c + 1),
            )
            groups.append(DependencyGroup(KIND_MLP, li, c, members, 3 * d))
    return groups


def _param_map(model):
    return dict(model.named_params())


def _member_view(params, member):
    name, axis, start, stop = member
    arr = params[name]
    data = arr.data if isinstance(arr, Tensor) else arr
    if stop > data.shape[axis]:
        raise PruningError(f"stale plan: slice {member} exceeds shape {data.shape}")
    sl = [slice(None)] * data.ndim
    sl[axis] = slice(start, stop)
    return data[tuple(sl)]


def taylor_importance(model, calibration_obs, calibration_actions, seed=None):
    """First-order Taylor scores: I(g) = sum over g of |w * dL/dw|.

    L is the SFT loss, the mean over all calibration rows.  Its gradient is
    accumulated a fixed-size chunk of rows at a time
    (`tensor.backward_in_chunks`), so peak memory is one chunk's graph,
    independent of the batch size.  Scores cover every group (exemptions
    apply at selection time), and ``loss`` is the mean over all rows.
    Parameter gradients are cleared afterwards.
    """
    from .training import sft_loss  # local import; training pulls in env

    obs = np.asarray(calibration_obs)
    if obs.size == 0:
        raise PruningError("empty calibration batch")
    actions = np.asarray(calibration_actions)
    n = obs.shape[0]
    for p in model.params():
        p.grad = None
    loss, = backward_in_chunks(
        lambda r0, r1: (check_finite(sft_loss(model, obs[r0:r1], actions[r0:r1]),
                                     "calibration loss"),), n)
    params = _param_map(model)
    grads = {name: (p.grad if p.grad is not None else np.zeros_like(p.data))
             for name, p in params.items()}
    scores = {}
    for g in build_dependency_groups(model):
        acc = 0.0
        for member in g.members:
            w = _member_view(params, member)
            gr = _member_view(grads, member)
            acc += float(np.sum(np.abs(w.astype(np.float64) * gr.astype(np.float64))))
        scores[g.key] = acc
    for p in model.params():
        p.grad = None
    return ImportanceTable(scores=scores, batch_size=n, seed=seed, loss=loss)


def select_prune_groups(model, table, target_ratio, exempt_layers=None):
    """Greedy lowest-score selection until the removed fraction of prunable
    parameters first reaches the target.

    Ties break on (layer, kind, index).  Groups that would empty a layer's
    last head or channel are skipped so every plan stays applicable.
    """
    cfg = model.config
    if not 0.0 <= target_ratio < 1.0:
        raise PruningError(f"target ratio must be in [0, 1), got {target_ratio}")
    exempt = set(default_exempt_layers(cfg) if exempt_layers is None else exempt_layers)
    groups = build_dependency_groups(model)
    candidates = [g for g in groups if g.layer not in exempt]
    prunable = sum(g.size for g in candidates)
    if prunable == 0:
        raise PruningError("no prunable parameters outside the exempt layers")
    for g in candidates:
        if g.key not in table.scores:
            raise PruningError(f"importance table missing group {g.key}")
        s = table.scores[g.key]
        if not np.isfinite(s) or s < 0:
            raise PruningError(f"bad importance score for {g.key}: {s}")
    candidates.sort(key=lambda g: (table.scores[g.key], g.layer, g.kind, g.index))
    live = {}
    for g in candidates:
        live.setdefault((g.layer, g.kind), 0)
        live[(g.layer, g.kind)] += 1
    chosen = []
    removed = 0
    goal = target_ratio * prunable
    for g in candidates:
        if removed >= goal:
            break
        if live[(g.layer, g.kind)] <= 1:
            continue
        chosen.append(g)
        live[(g.layer, g.kind)] -= 1
        removed += g.size
    if removed < goal:
        raise PruningError(
            f"target ratio {target_ratio} unreachable with exempt layers {sorted(exempt)}"
        )
    return PrunePlan(
        groups=chosen, target_ratio=float(target_ratio),
        achieved_ratio=removed / prunable, exempt_layers=sorted(exempt),
        prunable_params=prunable, removed_params=removed,
        scores={g.key: table.scores[g.key] for g in chosen},
    )


def apply_prune(model, plan):
    """Physically remove the planned groups; returns a new, smaller model."""
    cfg = model.config
    hd = cfg.head_dim
    params = _param_map(model)
    drop_heads = [set() for _ in range(cfg.n_layers)]
    drop_channels = [set() for _ in range(cfg.n_layers)]
    exempt = set(plan.exempt_layers)
    for g in plan.groups:
        if g.layer in exempt:
            raise PruningError(f"plan contains exempt-layer group {g.key}")
        for member in g.members:
            _member_view(params, member)  # shape validation
        if g.kind == KIND_ATTN:
            if g.index >= cfg.n_heads[g.layer]:
                raise PruningError(f"stale plan: head {g.key} out of range")
            drop_heads[g.layer].add(g.index)
        else:
            if g.index >= cfg.d_ff[g.layer]:
                raise PruningError(f"stale plan: channel {g.key} out of range")
            drop_channels[g.layer].add(g.index)
    for li in range(cfg.n_layers):
        if len(drop_heads[li]) >= cfg.n_heads[li]:
            raise PruningError(f"plan would empty layer {li} of attention heads")
        if len(drop_channels[li]) >= cfg.d_ff[li]:
            raise PruningError(f"plan would empty layer {li} of MLP channels")

    new_cfg = ModelConfig.from_dict(cfg.to_dict())
    arrays = {name: p.data for name, p in params.items()}
    for li in range(cfg.n_layers):
        keep_h = [h for h in range(cfg.n_heads[li]) if h not in drop_heads[li]]
        keep_c = np.array([c for c in range(cfg.d_ff[li]) if c not in drop_channels[li]])
        col_idx = np.concatenate([np.arange(h * hd, (h + 1) * hd) for h in keep_h])
        for name, keep, axis in (("wq", col_idx, 1), ("wk", col_idx, 1), ("wv", col_idx, 1),
                                 ("wo", col_idx, 0), ("wup", keep_c, 1),
                                 ("wgate", keep_c, 1), ("wdown", keep_c, 0)):
            key = f"layers.{li}.{name}"
            arrays[key] = np.take(arrays[key], keep, axis=axis)
        new_cfg.n_heads[li] = len(keep_h)
        new_cfg.d_ff[li] = len(keep_c)
    return PolicyModel.from_params(
        new_cfg, {name: Tensor(a.copy(), requires_grad=True) for name, a in arrays.items()})


def param_counts(model, exempt_layers=None):
    """Exact parameter accounting: totals, prunable share, per-layer rows.

    Prunable = interior-width-dependent matrices of non-exempt layers;
    embeddings, norms and heads never count as prunable.
    """
    cfg = model.config
    exempt = set(default_exempt_layers(cfg) if exempt_layers is None else exempt_layers)
    per_layer = []
    prunable = 0
    total = model.num_params()
    for li, layer in enumerate(model.layers):
        attn = sum(getattr(layer, n).size for n in ("wq", "wk", "wv", "wo"))
        mlp = sum(getattr(layer, n).size for n in ("wup", "wgate", "wdown"))
        gains = layer.attn_gain.size + layer.mlp_gain.size
        row = {"layer": li, "attn": attn, "mlp": mlp, "gains": gains,
               "total": attn + mlp + gains, "exempt": li in exempt}
        row["prunable"] = 0 if li in exempt else attn + mlp
        prunable += row["prunable"]
        per_layer.append(row)
    return {"total": total, "prunable": prunable, "per_layer": per_layer}
