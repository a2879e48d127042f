"""Structured pruning: coupled dependency groups, first-order Taylor
importance, lowest-score group selection with layer exemptions, and
physical shrinking of the interior widths.  Every layer's external
d_model interface survives untouched; only head counts and MLP channel
counts change.

A group's ``members`` are the one statement of its geometry: Taylor
scores sum over them, `apply_prune` deletes exactly them from the named
parameters (and builds the smaller `PolicyModel` from what is left), and
`param_counts` sums group sizes.  A new group kind is taught to
`build_dependency_groups` alone.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig, PolicyModel, chunk_rows
from .tensor import Tensor, backward_in_chunks, check_finite

KIND_ATTN = "attn_head"
KIND_MLP = "mlp_channel"

# the ModelConfig per-layer width list each group kind counts
_WIDTHS = {KIND_ATTN: "n_heads", KIND_MLP: "d_ff"}


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


def _exempt_set(config, exempt_layers):
    """The exempt layer set, the first and last layers by default; a layer
    outside [0, n_layers) raises PruningError."""
    exempt = set(default_exempt_layers(config) if exempt_layers is None else exempt_layers)
    for li in sorted(exempt):
        if not 0 <= li < config.n_layers:
            raise PruningError(f"exempt layer {li} outside [0, n_layers={config.n_layers})")
    return exempt


def build_dependency_groups(model):
    """One group per attention head and per MLP channel, every layer."""
    cfg = model.config
    d = cfg.d_model
    hd = cfg.head_dim
    groups = []
    for li in range(cfg.n_layers):
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


def _member_view(arr, member):
    """The slice of ``arr`` a (name, axis, start, stop) member covers."""
    _, axis, start, stop = member
    return arr[(slice(None),) * axis + (slice(start, stop),)]


def taylor_importance(model, calibration_obs, calibration_actions, seed=None):
    """First-order Taylor scores: I(g) = sum over g of |w * dL/dw|.

    L is the SFT loss, the mean over all calibration rows.  Its gradient is
    accumulated a chunk of rows at a time (`tensor.backward_in_chunks`),
    the rows sized to the model's widths (`model.chunk_rows`), so peak
    memory is one chunk's graph, independent of the batch size, and about
    the same for a dense model as for a pruned one.  The saliency
    |w * dL/dw| is formed in float64 one parameter at a time, and each
    group member's slice sum is added to its group's score in member
    order.  Scores cover every group (exemptions apply at selection time),
    and ``loss`` is the mean over all rows.  Parameter gradients are
    cleared afterwards.
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
                                     "calibration loss"),),
        n, chunk_rows(model.config, obs.shape[1] + 1))
    groups = build_dependency_groups(model)
    scores = {g.key: 0.0 for g in groups}
    members = {}  # param name -> (group key, member) in member order
    for g in groups:
        for member in g.members:
            members.setdefault(member[0], []).append((g.key, member))
    # parameters come in member order (wq wk wv wo, then wup wgate wdown)
    for name, p in model.named_params():
        if name not in members or p.grad is None:
            continue
        saliency = p.data.astype(np.float64)
        saliency *= p.grad
        np.abs(saliency, out=saliency)
        for key, member in members[name]:
            scores[key] += float(np.sum(_member_view(saliency, member)))
    for p in model.params():
        p.grad = None
    return ImportanceTable(scores=scores, batch_size=n, seed=seed, loss=loss)


def select_prune_groups(model, table, target_ratio, exempt_layers=None):
    """Greedy lowest-score selection until the removed fraction of prunable
    parameters first reaches the target.

    Ties break on (layer, kind, index).  Groups that would empty a layer's
    last head or channel are skipped so every plan stays applicable.  An
    exempt layer outside [0, n_layers) raises PruningError.
    """
    cfg = model.config
    if not 0.0 <= target_ratio < 1.0:
        raise PruningError(f"target ratio must be in [0, 1), got {target_ratio}")
    exempt = _exempt_set(cfg, exempt_layers)
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
    """Physically remove the planned groups; returns a new, smaller model.

    Each (parameter, axis) keeps, in order, the indices that no planned
    group's members delete, and each layer's ``n_heads`` / ``d_ff`` shrinks
    by its number of planned groups of that kind.
    """
    arrays = {name: p.data for name, p in model.named_params()}
    exempt = set(plan.exempt_layers)
    groups = {g.key: g for g in plan.groups}.values()  # a repeated group counts once
    deleted = {}  # (name, axis) -> indices the members delete
    new_cfg = ModelConfig.from_dict(model.config.to_dict())
    for g in groups:
        if g.layer in exempt:
            raise PruningError(f"plan contains exempt-layer group {g.key}")
        for name, axis, start, stop in g.members:
            size = arrays[name].shape[axis]
            if stop > size:
                raise PruningError(f"stale plan: group {g.key} deletes {name}[{start}:{stop}] "
                                   f"on axis {axis} of size {size}")
            deleted.setdefault((name, axis), set()).update(range(start, stop))
        getattr(new_cfg, _WIDTHS[g.kind])[g.layer] -= 1
    for kind, attr in _WIDTHS.items():
        for li, width in enumerate(getattr(new_cfg, attr)):
            if width < 1:
                raise PruningError(f"plan would empty layer {li} of {kind} groups")
    for (name, axis), gone in deleted.items():
        keep = [i for i in range(arrays[name].shape[axis]) if i not in gone]
        arrays[name] = np.take(arrays[name], keep, axis=axis)
    return PolicyModel(new_cfg, {name: Tensor(a.copy()) for name, a in arrays.items()})


def param_counts(model, exempt_layers=None):
    """Exact parameter accounting: the total, and the prunable share, the
    summed size of the dependency groups outside the exempt layers
    (embeddings, norm gains and heads are in no group).  An exempt layer
    outside [0, n_layers) raises PruningError."""
    exempt = _exempt_set(model.config, exempt_layers)
    prunable = sum(g.size for g in build_dependency_groups(model) if g.layer not in exempt)
    return {"total": model.num_params(), "prunable": prunable}
