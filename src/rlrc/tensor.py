"""Minimal reverse-mode autodiff over numpy arrays.

Dense float32 tensors (float64 allowed for oracle-grade checks) and one
kind of graph node: `fused` makes a node of a numpy function whose
gradients a hand-written function computes.  The policy's every
differentiable step is such a node, with its forward and backward in
rlrc.kernels: the embeddings, the decoder blocks, the output norm, the
action and value heads, and the SFT and PPO losses.  `backward` replays
the recorded nodes once, in reverse, freeing each as it goes;
`backward_in_chunks` backpropagates a mean-over-rows loss a chunk of rows
at a time, so a training step's peak memory does not grow with its batch;
its callers size the chunks by the activation values a row saves
(`model.chunk_rows`), so one chunk's graph is about the same size whatever
the model's widths.  `adam_step` updates the parameters.

`no_grad` is the one switch of recording: with grad enabled a node with
a Tensor input is recorded and each Tensor input gets its gradient.
Losses are checked where they are built (`check_finite`).
"""

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; message names both."""


class GradError(RuntimeError):
    """Raised on autodiff misuse (non-scalar loss, double backward, ...)."""


class NonFiniteError(FloatingPointError):
    """Raised when a guarded value contains NaN or Inf."""


class Tensor:
    """N-d array with optional gradient buffer and parent links for backward.

    ``data`` is row-major (C order) float32 unless explicitly built as
    float64.  ``grad`` is allocated lazily with the same shape.
    """

    __slots__ = ("data", "grad", "_parents", "_bw", "_spent")

    def __init__(self, data, dtype=np.float32):
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self._parents = ()
        self._bw = None
        self._spent = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def _accum(self, g):
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


_GRAD_ENABLED = True


class no_grad:
    """Context manager: nodes inside run the same numpy math but record no
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


def check_finite(value, name="value"):
    arr = value.data if isinstance(value, Tensor) else np.asarray(value)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains NaN or Inf")
    return value


def fused(fn, fn_backward, inputs, *args):
    """One graph node for ``fn(*arrays, *args)``, a numpy function whose
    gradients ``fn_backward`` computes by hand.

    ``inputs`` are the operands that can carry gradients; a Tensor is
    passed as its data, anything else (a quantized weight) as itself.
    ``args`` pass through unchanged (ids, masks, coefficients).  Under
    `no_grad`, or with no Tensor input, fn runs as-is and nothing is
    recorded.  Otherwise fn also gets ``saved={}`` to keep the
    intermediates it computes anyway, and ``fn_backward(g, *arrays, *args,
    saved)`` returns one gradient per input, which each Tensor input
    receives.  This is the only constructor of a graph node.
    """
    arrays = [t.data if isinstance(t, Tensor) else t for t in inputs]
    if not (_GRAD_ENABLED and any(isinstance(t, Tensor) for t in inputs)):
        out = fn(*arrays, *args)
        return Tensor(out, dtype=out.dtype)
    saved = {}
    out = fn(*arrays, *args, saved=saved)

    def bw(g):
        for t, gt in zip(inputs, fn_backward(g, *arrays, *args, saved)):
            if isinstance(t, Tensor):
                t._accum(gt)

    node = Tensor(out, dtype=out.dtype)
    node._parents = tuple(t for t in inputs if isinstance(t, Tensor))
    node._bw = bw
    return node


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def backward(loss, scale=1.0):
    """Accumulate gradients of ``scale`` * a scalar ``loss`` into every
    reachable leaf.

    The loss gradient is seeded with ``scale`` (in the loss's dtype) and the
    recorded graph replayed once in reverse topological order.  Each node
    is released as soon as its backward has run (its closure
    with the arrays it saved, its gradient and its parent links), so the
    sweep's memory falls as it goes; a second call on the same graph raises
    GradError.
    """
    if not isinstance(loss, Tensor):
        raise GradError("backward expects a Tensor")
    if loss.data.size != 1:
        raise GradError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if loss._spent:
        raise GradError("backward called twice on the same graph")
    if loss._bw is None:
        raise GradError("backward on a tensor with an empty tape")

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

    loss.grad = np.full_like(loss.data, scale)
    topo.reverse()
    for i, node in enumerate(topo):
        # drop the sweep's own reference, so a node whose backward has run
        # is freed with its closure, saved arrays and gradient
        topo[i] = None
        if node._bw is not None:
            if node.grad is not None:
                node._bw(node.grad)
            node.grad = None
            node._parents = ()
            node._bw = None
        node._spent = True


def backward_in_chunks(loss_fn, n, rows):
    """Accumulate the gradients of a mean-over-rows loss, ``rows`` rows at
    a time.

    ``loss_fn(r0, r1)`` builds the graph of rows r0 .. r1-1 of an n-row
    batch and returns a tuple: their mean loss, a scalar Tensor, then any
    further per-chunk means to report, as numbers.  Each chunk's loss is
    backpropagated with its share of the rows, (r1 - r0) / n, as the seed
    of `backward`, so the gradients summed into the leaves are those of the
    mean loss over all n rows, and only one chunk's graph is alive at a
    time; ``rows`` is chosen by the caller to bound that graph
    (`model.chunk_rows`).  Returns the row-weighted means of everything
    ``loss_fn`` returned, as floats.  Fewer than one row in the batch or
    per chunk raises GradError.
    """
    if n < 1 or rows < 1:
        raise GradError(f"backward_in_chunks needs at least 1 row, got {n} in chunks of {rows}")
    means = None
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        share = (r1 - r0) / n
        loss, *rest = loss_fn(r0, r1)
        backward(loss, scale=share)
        part = [share * float(v) for v in (loss.data, *rest)]
        means = part if means is None else [a + b for a, b in zip(means, part)]
    return means


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

# Adam's standard moment decays and epsilon
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


class OptimizerState:
    """Adam moments for a fixed parameter list, with bias correction."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = float(lr)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


def adam_step(state):
    """One Adam update over ``state.params``; gradients must be populated.

    Parameters with ``grad is None`` raise; gradients are zeroed after use.
    The moments are updated in place and the step is built in one buffer,
    by the operations of the plain formula in its order; the gradient's
    buffer holds the second-moment increment.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2, eps, lr = ADAM_B1, ADAM_B2, ADAM_EPS, state.lr
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for i, p in enumerate(state.params):
        if p.grad is None:
            raise GradError(f"adam_step: parameter {i} has no gradient")
        g, m, v = p.grad, state.m[i], state.v[i]
        m *= b1
        m += (1.0 - b1) * g
        g *= g
        g *= 1.0 - b2
        v *= b2
        v += g
        # lr * (m / c1) / (sqrt(v / c2) + eps)
        step = m / c1
        step *= lr
        step /= np.sqrt(v / c2) + eps
        p.data -= step
        p.grad = None
