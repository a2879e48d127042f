"""Minimal reverse-mode autodiff over numpy arrays.

Dense float32 tensors (float64 allowed for oracle-grade checks), a tape
recorded implicitly as a graph of parent links, and the ops of the policy's
losses, embeddings, output norm, action head and value head: matmul,
elementwise arithmetic, silu, softmax, rms_norm, embedding lookup and cross
entropy.  `fused` makes one node of a numpy function with a hand-written
backward; the decoder blocks of rlrc.kernels run through it.  Reductions
accumulate in float64 so finite-difference gradient checks stay meaningful
in float32.

Set RLRC_CHECK_FINITE=1 to assert finiteness after every op (slow; losses
and optimizer steps are always checked).
"""

import os

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; message names both."""


class GradError(RuntimeError):
    """Raised on autodiff misuse (non-scalar loss, double backward, ...)."""


class NonFiniteError(FloatingPointError):
    """Raised when a guarded value contains NaN or Inf."""


_CHECK_FINITE = os.environ.get("RLRC_CHECK_FINITE", "0") == "1"


def _as_array(data, dtype):
    arr = np.asarray(data, dtype=dtype)
    return arr


class Tensor:
    """N-d array with optional gradient buffer and parent links for backward.

    ``data`` is row-major (C order) float32 unless explicitly built as
    float64.  ``grad`` is allocated lazily with the same shape.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw", "_spent")

    def __init__(self, data, requires_grad=False, dtype=np.float32):
        self.data = _as_array(data, dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._bw = None
        self._spent = False

    # graph-internal constructor
    @staticmethod
    def _op(data, parents, bw):
        t = Tensor.__new__(Tensor)
        t.data = data
        t.grad = None
        t.requires_grad = True
        t._parents = tuple(parents)
        t._bw = bw
        t._spent = False
        if _CHECK_FINITE and not np.all(np.isfinite(data)):
            raise NonFiniteError("non-finite values produced by an op")
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def detach(self):
        """Constant view of this tensor's data (cuts the graph)."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def _accum(self, g):
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


_GRAD_ENABLED = True


class no_grad:
    """Context manager: ops inside run the same numpy math but record no
    graph, so inference through the training path stays bit-identical."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def grad_enabled():
    """False inside a `no_grad` block."""
    return _GRAD_ENABLED


def _needs_grad(*ts):
    return _GRAD_ENABLED and any(isinstance(t, Tensor) and t.requires_grad for t in ts)


def _data(t):
    return t.data if isinstance(t, Tensor) else np.asarray(t)


def _unbroadcast(g, shape):
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def check_finite(value, name="value"):
    arr = value.data if isinstance(value, Tensor) else np.asarray(value)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains NaN or Inf")
    return value


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def add(a, b):
    ad, bd = _data(a), _data(b)
    out = ad + bd
    if not _needs_grad(a, b):
        return Tensor(out, dtype=out.dtype)

    def bw(g):
        if isinstance(a, Tensor) and a.requires_grad:
            a._accum(_unbroadcast(g, ad.shape))
        if isinstance(b, Tensor) and b.requires_grad:
            b._accum(_unbroadcast(g, bd.shape))

    return Tensor._op(out, [t for t in (a, b) if isinstance(t, Tensor)], bw)


def sub(a, b):
    ad, bd = _data(a), _data(b)
    out = ad - bd
    if not _needs_grad(a, b):
        return Tensor(out, dtype=out.dtype)

    def bw(g):
        if isinstance(a, Tensor) and a.requires_grad:
            a._accum(_unbroadcast(g, ad.shape))
        if isinstance(b, Tensor) and b.requires_grad:
            b._accum(-_unbroadcast(g, bd.shape))

    return Tensor._op(out, [t for t in (a, b) if isinstance(t, Tensor)], bw)


def mul(a, b):
    ad, bd = _data(a), _data(b)
    out = ad * bd
    if not _needs_grad(a, b):
        return Tensor(out, dtype=out.dtype)

    def bw(g):
        if isinstance(a, Tensor) and a.requires_grad:
            a._accum(_unbroadcast(g * bd, ad.shape))
        if isinstance(b, Tensor) and b.requires_grad:
            b._accum(_unbroadcast(g * ad, bd.shape))

    return Tensor._op(out, [t for t in (a, b) if isinstance(t, Tensor)], bw)


def neg(a):
    return mul(a, -1.0)


def exp(a):
    ad = _data(a)
    out = np.exp(ad)
    if not _needs_grad(a):
        return Tensor(out, dtype=out.dtype)

    def bw(g):
        a._accum(g * out)

    return Tensor._op(out, [a], bw)


def square(a):
    return mul(a, a)


def matmul(a, b):
    """Matrix product of (..., m, k) and a 2-d (k, n); leading dims of the
    left side are flattened through the contraction."""
    ad, bd = _data(a), _data(b)
    if ad.ndim < 2 or bd.ndim != 2:
        raise ShapeError(f"matmul needs (..., m, k) x (k, n) operands, got {ad.shape} x {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {ad.shape} x {bd.shape}")
    a2 = ad.reshape(-1, ad.shape[-1])
    out = (a2 @ bd).reshape(*ad.shape[:-1], bd.shape[1])
    if not _needs_grad(a, b):
        return Tensor(out, dtype=out.dtype)

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        if isinstance(a, Tensor) and a.requires_grad:
            a._accum((g2 @ bd.T).reshape(ad.shape))
        if isinstance(b, Tensor) and b.requires_grad:
            b._accum(a2.T @ g2)

    return Tensor._op(out, [t for t in (a, b) if isinstance(t, Tensor)], bw)


def reshape(a, shape):
    ad = _data(a)
    out = ad.reshape(shape)
    if not _needs_grad(a):
        return Tensor(out, dtype=out.dtype)

    def bw(g):
        a._accum(g.reshape(ad.shape))

    return Tensor._op(out, [a], bw)


def silu(a):
    ad = _data(a)
    sig = 1.0 / (1.0 + np.exp(-ad))
    out = ad * sig
    if not _needs_grad(a):
        return Tensor(out, dtype=out.dtype)

    def bw(g):
        a._accum(g * (sig * (1.0 + ad * (1.0 - sig))))

    return Tensor._op(out, [a], bw)


def softmax(a, axis=-1):
    ad = _data(a)
    if ad.shape[axis] == 0:
        raise ShapeError(f"softmax over zero-length axis {axis} of shape {ad.shape}")
    shifted = ad - ad.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    if not _needs_grad(a):
        return Tensor(out, dtype=out.dtype)

    def bw(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        a._accum(out * (g - dot))

    return Tensor._op(out, [a], bw)


def rms_norm(a, axis=-1, eps=1e-6):
    """Normalize so the root-mean-square along ``axis`` is 1 (no gain).

    The mean square accumulates in float64; apply a learned gain with
    ``mul`` afterwards.
    """
    ad = _data(a)
    if ad.shape[axis] == 0:
        raise ShapeError(f"rms_norm over zero-length axis {axis} of shape {ad.shape}")
    ms = np.mean(np.square(ad, dtype=np.float64), axis=axis, keepdims=True)
    inv = (1.0 / np.sqrt(ms + eps)).astype(ad.dtype)
    out = ad * inv
    if not _needs_grad(a):
        return Tensor(out, dtype=out.dtype)
    n = ad.shape[axis]

    def bw(g):
        gx = (g * ad).sum(axis=axis, keepdims=True)
        a._accum(g * inv - ad * (inv ** 3) * (gx / n))

    return Tensor._op(out, [a], bw)


def embedding_lookup(table, ids):
    """Rows of ``table`` selected by integer array ``ids``."""
    td = _data(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= td.shape[0]):
        raise IndexError(
            f"token id out of range [0, {td.shape[0]}): ids span "
            f"[{ids.min()}, {ids.max()}]"
        )
    out = td[ids]
    if not _needs_grad(table):
        return Tensor(out, dtype=out.dtype)

    def bw(g):
        dt = np.zeros_like(td)
        np.add.at(dt, ids, g)
        table._accum(dt)

    return Tensor._op(out, [table], bw)


def fused(fn, fn_backward, inputs, *args):
    """One graph node for ``fn(*arrays, *args)``, a numpy function whose
    gradients ``fn_backward`` computes by hand.

    ``inputs`` are the operands that can carry gradients; a Tensor is
    passed as its data, anything else (a quantized weight) as itself.
    Without grad, fn runs as-is and nothing is recorded.  With grad, fn
    also gets ``saved={}`` to keep the intermediates it computes anyway, and
    ``fn_backward(g, *arrays, *args, saved)`` returns one gradient per input.
    """
    arrays = [t.data if isinstance(t, Tensor) else t for t in inputs]
    if not _needs_grad(*inputs):
        out = fn(*arrays, *args)
        return Tensor(out, dtype=out.dtype)
    saved = {}
    out = fn(*arrays, *args, saved=saved)

    def bw(g):
        for t, gt in zip(inputs, fn_backward(g, *arrays, *args, saved)):
            if isinstance(t, Tensor) and t.requires_grad:
                t._accum(gt)

    return Tensor._op(out, [t for t in inputs if isinstance(t, Tensor)], bw)


def log_softmax_gather(logits, ids):
    """Per-row log-softmax probability of the id in that row.

    ``logits`` is (N, V), ``ids`` is (N,); returns (N,).  This is the
    differentiable core shared by cross entropy and action log-probs.
    """
    ld = _data(logits)
    ids = np.asarray(ids)
    if ld.ndim != 2 or ids.shape != (ld.shape[0],):
        raise ShapeError(f"log_softmax_gather: logits {ld.shape} vs ids {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= ld.shape[1]):
        raise IndexError(f"target id out of range [0, {ld.shape[1]})")
    m = ld.max(axis=1, keepdims=True)
    shifted = ld - m
    lse = np.log(np.exp(shifted).sum(axis=1, dtype=np.float64)).astype(ld.dtype)
    rows = np.arange(ld.shape[0])
    out = shifted[rows, ids] - lse
    if not _needs_grad(logits):
        return Tensor(out, dtype=out.dtype)

    def bw(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        d = -p * g[:, None]
        d[rows, ids] += g
        logits._accum(d)

    return Tensor._op(out, [logits], bw)


def log_softmax(a, axis=-1):
    ad = _data(a)
    if ad.shape[axis] == 0:
        raise ShapeError(f"log_softmax over zero-length axis {axis} of shape {ad.shape}")
    m = ad.max(axis=axis, keepdims=True)
    shifted = ad - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True, dtype=np.float64)).astype(ad.dtype)
    out = shifted - lse
    if not _needs_grad(a):
        return Tensor(out, dtype=out.dtype)

    def bw(g):
        p = np.exp(out)
        a._accum(g - p * g.sum(axis=axis, keepdims=True))

    return Tensor._op(out, [a], bw)


def cross_entropy(logits, target_ids):
    """Mean negative log-probability of ``target_ids`` under ``logits`` rows."""
    lp = log_softmax_gather(logits, target_ids)
    n = lp.data.shape[0]
    if n == 0:
        raise ShapeError("cross_entropy on an empty batch")
    loss = -float(np.sum(lp.data, dtype=np.float64)) / n
    out = np.asarray(loss, dtype=lp.data.dtype)
    if not lp.requires_grad:
        return Tensor(out, dtype=out.dtype)

    def bw(g):
        lp._accum(np.full(lp.data.shape, -float(g) / n, dtype=lp.data.dtype))

    return Tensor._op(out, [lp], bw)


def minimum(a, b):
    ad, bd = _data(a), _data(b)
    out = np.minimum(ad, bd)
    if not _needs_grad(a, b):
        return Tensor(out, dtype=out.dtype)
    take_a = ad <= bd

    def bw(g):
        if isinstance(a, Tensor) and a.requires_grad:
            a._accum(_unbroadcast(g * take_a, ad.shape))
        if isinstance(b, Tensor) and b.requires_grad:
            b._accum(_unbroadcast(g * ~take_a, bd.shape))

    return Tensor._op(out, [t for t in (a, b) if isinstance(t, Tensor)], bw)


def clip(a, lo, hi):
    ad = _data(a)
    out = np.clip(ad, lo, hi)
    if not _needs_grad(a):
        return Tensor(out, dtype=out.dtype)
    inside = (ad >= lo) & (ad <= hi)

    def bw(g):
        a._accum(g * inside)

    return Tensor._op(out, [a], bw)


def mean(a, axis=None):
    ad = _data(a)
    out = np.mean(ad, axis=axis, dtype=np.float64).astype(ad.dtype)
    if not _needs_grad(a):
        return Tensor(out, dtype=out.dtype)
    n = ad.size if axis is None else ad.shape[axis]

    def bw(g):
        if axis is None:
            a._accum(np.full(ad.shape, float(g) / n, dtype=ad.dtype))
        else:
            a._accum(np.broadcast_to(np.expand_dims(g / n, axis), ad.shape).astype(ad.dtype))

    return Tensor._op(out, [a], bw)


def sum_(a, axis=None):
    ad = _data(a)
    out = np.sum(ad, axis=axis, dtype=np.float64).astype(ad.dtype)
    if not _needs_grad(a):
        return Tensor(out, dtype=out.dtype)

    def bw(g):
        if axis is None:
            a._accum(np.full(ad.shape, float(g), dtype=ad.dtype))
        else:
            a._accum(np.broadcast_to(np.expand_dims(g, axis), ad.shape).astype(ad.dtype))

    return Tensor._op(out, [a], bw)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def backward(loss):
    """Accumulate gradients of a scalar ``loss`` into every reachable leaf.

    The recorded op graph is replayed once in reverse topological order;
    a second call on the same graph raises GradError.
    """
    if not isinstance(loss, Tensor):
        raise GradError("backward expects a Tensor")
    if loss.data.size != 1:
        raise GradError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if loss._bw is None and not loss._parents:
        raise GradError("backward on a tensor with an empty tape")
    if loss._spent:
        raise GradError("backward called twice on the same graph")

    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._bw is not None and node.grad is not None:
            node._bw(node.grad)
        node._spent = True
    # intermediate grads are not needed after the sweep
    for node in topo:
        if node._bw is not None:
            node.grad = None
            node._parents = ()
            node._bw = None
    loss._spent = True


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class OptimizerState:
    """Adam moments for a fixed parameter list.

    Standard defaults (b1=0.9, b2=0.999, eps=1e-8) with bias correction.
    """

    def __init__(self, params, lr=3e-4, b1=0.9, b2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.b1, self.b2, self.eps = b1, b2, eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


def adam_step(state):
    """One Adam update over ``state.params``; gradients must be populated.

    Parameters with ``grad is None`` raise; gradients are zeroed after use.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2, eps, lr = state.b1, state.b2, state.eps, state.lr
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for i, p in enumerate(state.params):
        if p.grad is None:
            raise GradError(f"adam_step: parameter {i} has no gradient")
        g = p.grad
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * (g * g)
        mhat = state.m[i] / c1
        vhat = state.v[i] / c2
        p.data -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(p.data.dtype)
        p.grad = None
    if _CHECK_FINITE:
        for p in state.params:
            check_finite(p, "parameter after adam_step")
