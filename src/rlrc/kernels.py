"""Numeric kernels of the policy and its losses, on numpy/BLAS.

Each kernel is a numpy function with a hand-written backward next to it,
and ``tensor.fused`` makes it one autodiff node, the only kind there is:
`embed`, `attn_block`, `mlp_block`, `rms_rows` and `linear` are the
decoder ``model.forward`` runs, `value_mlp` the critic, `nll` the SFT loss
and `ppo_objective` the PPO loss.  Serving, rollouts and training run the
same code.  `log_softmax` is the one log-softmax: `nll` and
`ppo_objective` apply it, and so does rollout collection for the log-probs
it stores, so stored and recomputed log-probs agree bit for bit.
`rms_rows` is the one RMS norm: the blocks apply it to their inputs and
``model.forward`` to the last block's output, with one epsilon.
`attn_block` takes its query rows from the mask: with a (T, S) mask it
attends from the last T positions over all S and returns those T rows, so
the last layer computes keys and values for every position and the rest
for the marker row only.
The blocks keep the input dtype (float32 in use, float64 for gradient
checks) and apply each weight as ``x @ W``, so a weight is either an
array or a ``quant.QuantizedTensor``, which ``quant`` decodes and applies.

The blocks' reductions avoid numpy's slow path, a reduction along a
short contiguous axis.  Attention builds its scores keys-major, ``k @
q^T`` of shape (B, H, S, T) for S keys and T queries: the softmax's max
and sum reduce over axis -2, the keys, while numpy's inner loop runs
along the contiguous queries, and the probabilities ``p`` it saves keep
that layout; the context is ``p^T @ v``.  The rms statistics are row dot
products (``np.vecdot``): the mean square of one float64 copy of the
rows, so it accumulates in float64, and in the backward the row sums of
the gain-scaled gradient times the input.

Given a ``saved`` dict, a block also keeps the intermediates it computed
anyway; its hand-written backward (`attn_block_backward`,
`mlp_block_backward`) reads them and recomputes the cheap rest (the rms
factors, the sigmoid), so the forward does no extra arithmetic.  The MLP
keeps only ``xn, u, g``: its backward recomputes the gated activation
``h`` by the forward's own expression rather than hold it until the sweep
reaches the block, and ``tensor.backward`` frees each node's saved arrays
as soon as its backward has run.  Elementwise chains run in place
(``out=``, ``*=``) in the order of the plain expressions, so they round
the same and allocate one temporary, not one per operation.  The MLP
computes the gate first and, without ``saved`` (serving), frees it before
the up projection, so the up projection, the gate and the activation are
never alive together.

The losses check their action ids (one per row, in [0, A)) and take their
means over rows in float64; their backwards are the gradients of those
formulas, each row's share of a mean's gradient computed once.
"""

import numpy as np

from .tensor import ShapeError

_EPS_NORM = 1e-6


def _inv_rms(x2):
    """1 / rms of each row (last axis).  The mean square is a row dot
    product (``np.vecdot``) of one float64 copy of the rows with itself."""
    x64 = x2.astype(np.float64)
    ms = np.vecdot(x64, x64)[..., None]
    ms /= x2.shape[-1]
    ms += _EPS_NORM
    np.sqrt(ms, out=ms)
    return np.divide(1.0, ms, out=ms).astype(x2.dtype)


def rms_rows(x2, gain, saved=None):
    """RMS normalization with gain of each row (last axis) of ``x2``.

    Keeps nothing in ``saved``: the backward recomputes the rms factors.
    """
    out = x2 * _inv_rms(x2)
    out *= gain
    return out


def rms_rows_backward(g2, x2, gain, saved=None):
    """Gradients (d x2, d gain) of `rms_rows` for output gradient ``g2``;
    ``dgain`` sums over every leading axis."""
    inv = _inv_rms(x2)
    t = x2 * inv
    t *= g2
    dgain = t.reshape(-1, x2.shape[-1]).sum(axis=0)
    gn = g2 * gain
    gx = np.vecdot(gn, x2)[..., None]  # the row sums of gn * x2
    # gn * inv - x2 * inv**3 * (gx / D), in that order
    np.multiply(x2, inv ** 3, out=t)
    t *= gx / x2.shape[-1]
    gn *= inv
    gn -= t
    return gn, dgain


def attn_block(x, gain, wq, wk, wv, wo, n_heads, head_dim, mask, saved=None):
    """Pre-norm causal self-attention block with residual.

    ``mask`` is the (T, S) additive causal mask of the last T of the S
    positions: keys and values come from every position, queries only from
    those T.  Returns the new residual stream at those T positions,
    (B, T, D); ``model.forward`` passes T = S except in the last layer,
    where T = 1, the marker row.

    The scores and probabilities are keys-major, (B, H, S, T): ``k @ q^T``
    plus ``mask.T``, with the softmax's max and sum taken over axis -2,
    the keys.  ``saved["p"]`` keeps that layout.
    """
    b, s, d = x.shape
    t = mask.shape[0]
    xn = rms_rows(x.reshape(b * s, d), gain)
    xq = xn.reshape(b, s, d)[:, s - t:].reshape(b * t, d)
    q = (xq @ wq).reshape(b, t, n_heads, head_dim).transpose(0, 2, 1, 3)
    k = (xn @ wk).reshape(b, s, n_heads, head_dim).transpose(0, 2, 1, 3)
    v = (xn @ wv).reshape(b, s, n_heads, head_dim).transpose(0, 2, 1, 3)
    scores = np.matmul(k, q.transpose(0, 1, 3, 2))
    scores *= np.float32(1.0 / np.sqrt(head_dim))
    scores += mask.T
    scores -= scores.max(axis=-2, keepdims=True)
    p = np.exp(scores, out=scores)
    p /= p.sum(axis=-2, keepdims=True)
    ctx = np.matmul(p.transpose(0, 1, 3, 2), v)
    ctx = ctx.transpose(0, 2, 1, 3).reshape(b * t, n_heads * head_dim)
    if saved is not None:
        saved.update(xn=xn, xq=xq, q=q, k=k, v=v, p=p, ctx=ctx)
    out = (ctx @ wo).reshape(b, t, d)
    out += x[:, s - t:]
    return out


def attn_block_backward(dout, x, gain, wq, wk, wv, wo, n_heads, head_dim, mask, saved):
    """Gradients (dx, dgain, dwq, dwk, dwv, dwo) of `attn_block`.

    ``dout`` is (B, T, D), for the query rows; ``dx`` covers all S rows.
    The score gradient is keys-major, (B, H, S, T), like the saved ``p``.
    """
    b, s, d = x.shape
    t = mask.shape[0]
    xn, xq, q, k, v, p, ctx = (saved[n] for n in ("xn", "xq", "q", "k", "v", "p", "ctx"))
    g2 = dout.reshape(b * t, d)
    dctx = (g2 @ wo.T).reshape(b, t, n_heads, head_dim).transpose(0, 2, 1, 3)
    # dscores = p * (dp - sum over keys of dp * p) * scale, built in dp
    dscores = np.matmul(v, dctx.transpose(0, 1, 3, 2))
    dscores -= (dscores * p).sum(axis=-2, keepdims=True)
    dscores *= p
    dscores *= np.float32(1.0 / np.sqrt(head_dim))

    def rows(a):  # (B, H, R, hd) -> (B*R, H*hd)
        return a.transpose(0, 2, 1, 3).reshape(-1, n_heads * head_dim)

    dq = rows(np.matmul(dscores.transpose(0, 1, 3, 2), k))
    dk = rows(np.matmul(dscores, q))
    dv = rows(np.matmul(p, dctx))
    dxn = dk @ wk.T
    dxn.reshape(b, s, d)[:, s - t:] += (dq @ wq.T).reshape(b, t, d)
    dxn += dv @ wv.T
    dx, dgain = rms_rows_backward(dxn, x.reshape(b * s, d), gain)
    dx = dx.reshape(b, s, d)
    dx[:, s - t:] += dout
    return dx, dgain, xq.T @ dq, xn.T @ dk, xn.T @ dv, ctx.T @ g2


def _one_plus_exp_neg(g):
    """1 + exp(-g): the silu gate is g / this, its sigmoid 1 / this."""
    t = np.negative(g)
    np.exp(t, out=t)
    t += 1.0
    return t


def mlp_block(x, gain, wup, wgate, wdown, saved=None):
    """Pre-norm gated MLP block (silu gate) with residual; returns new x."""
    b, s, d = x.shape
    xn = rms_rows(x.reshape(b * s, d), gain)
    g = xn @ wgate
    h = _one_plus_exp_neg(g)  # becomes h = u * (g / (1 + exp(-g))) in place
    np.divide(g, h, out=h)
    if saved is None:
        del g  # serving: u, g and h are never alive together
        h *= xn @ wup
    else:
        saved.update(xn=xn, g=g, u=xn @ wup)
        h *= saved["u"]
    # np.dot calls BLAS even for an inner dimension of 1 (a one-channel
    # MLP), where @ takes a loop about 10x slower; a quantized wdown keeps @
    out = np.dot(h, wdown) if isinstance(wdown, np.ndarray) else h @ wdown
    out = out.reshape(b, s, d)
    out += x
    return out


def mlp_block_backward(dout, x, gain, wup, wgate, wdown, saved):
    """Gradients (dx, dgain, dwup, dwgate, dwdown) of `mlp_block`.

    The gated activation h is recomputed as the forward computed it, not
    saved, so ``dwdown`` is the same.
    """
    b, s, d = x.shape
    xn, u, g = (saved[n] for n in ("xn", "u", "g"))
    g2 = dout.reshape(b * s, d)
    t = _one_plus_exp_neg(g)
    h = np.divide(g, t)
    h *= u
    dwdown = h.T @ g2
    del h
    sig = np.divide(1.0, t, out=t)
    dh = g2 @ wdown.T
    du = g * sig
    du *= dh
    # dg = dh * u * (sig * (1 + g * (1 - sig))), in that order, built in dh
    c = 1.0 - sig
    c *= g
    c += 1.0
    c *= sig
    dh *= u
    dh *= c
    dg = dh
    # np.dot, not @, for the inner dimension of 1 of a one-channel MLP
    dxn = np.dot(du, wup.T)
    dxn += np.dot(dg, wgate.T)
    dx, dgain = rms_rows_backward(dxn, x.reshape(b * s, d), gain)
    dx = dx.reshape(b, s, d)
    dx += dout
    return dx, dgain, xn.T @ du, xn.T @ dg, dwdown


def embed(tok_emb, pos_emb, tokens, saved=None):
    """Token plus position embedding of checked (B, S) ids: (B, S, D)."""
    out = tok_emb[tokens]
    out += pos_emb[:tokens.shape[1]]
    return out


def embed_backward(g, tok_emb, pos_emb, tokens, saved):
    """Gradients (d tok_emb, d pos_emb) of `embed`; a token row used more
    than once sums its gradients in id order (``np.add.at``)."""
    dtok = np.zeros_like(tok_emb)
    np.add.at(dtok, tokens, g)
    dpos = np.zeros_like(pos_emb)
    dpos[:tokens.shape[1]] += g.sum(axis=0)
    return dtok, dpos


def linear(x, w, saved=None):
    """x @ w over the last axis of x: (..., k) x (k, n) -> (..., n)."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[1])


def linear_backward(g, x, w, saved):
    """Gradients (dx, dw) of `linear`."""
    g2 = g.reshape(-1, g.shape[-1])
    return (g2 @ w.T).reshape(x.shape), x.reshape(-1, x.shape[-1]).T @ g2


def value_mlp(x, w1, b1, w2, b2, saved=None):
    """The critic: silu(x @ w1 + b1) @ w2 + b2 per row (last axis) of x,
    one value per row, the leading axes flattened: (..., d) -> (rows,)."""
    h = x.reshape(-1, x.shape[-1]) @ w1
    h += b1
    sig = 1.0 / (1.0 + np.exp(-h))
    s = h * sig
    if saved is not None:
        saved.update(h=h, sig=sig, s=s)
    out = s @ w2
    out += b2
    return out.reshape(-1)


def value_mlp_backward(g, x, w1, b1, w2, b2, saved):
    """Gradients (dx, dw1, db1, dw2, db2) of `value_mlp`."""
    h, sig, s = saved["h"], saved["sig"], saved["s"]
    g2 = g.reshape(-1, 1)
    dh = (g2 @ w2.T) * (sig * (1.0 + h * (1.0 - sig)))
    dx = (dh @ w1.T).reshape(x.shape)
    return dx, x.reshape(-1, x.shape[-1]).T @ dh, dh.sum(axis=0), s.T @ g2, g2.sum(axis=0)


def log_softmax(x, saved=None):
    """Log-softmax over the last axis of x, the one used for rollout
    log-probs, the SFT NLL and PPO.

    The log-sum-exp sums in float64 and is rounded to x's dtype.  Given a
    ``saved`` dict, also keeps the softmax there as ``p`` (its row sums
    taken in x's dtype).
    """
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    shifted -= np.log(e.sum(axis=-1, keepdims=True, dtype=np.float64)).astype(x.dtype)
    if saved is not None:
        e /= e.sum(axis=-1, keepdims=True)
        saved["p"] = e
    return shifted


def _check_ids(ids, logits):
    """The rows of (..., A) logits as (N, A), after checking that ids holds
    one id in [0, A) per row; numpy indexing would wrap a negative id."""
    lg = logits.reshape(-1, logits.shape[-1])
    if ids.shape != lg.shape[:1]:
        raise ShapeError(f"{ids.shape} ids for logits of shape {logits.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= lg.shape[1]):
        raise IndexError(f"action id out of range [0, {lg.shape[1]}): "
                         f"ids span [{ids.min()}, {ids.max()}]")
    return lg


def nll(logits, ids, saved=None):
    """Mean negative log-likelihood of ``ids``, one per row of (..., A)
    logits: the SFT loss, a 0-d array of the logits' dtype.  The sum over
    rows is taken in float64."""
    lg = _check_ids(ids, logits)
    n = lg.shape[0]
    lp = log_softmax(lg, saved)[np.arange(n), ids]
    return np.asarray(-float(np.sum(lp, dtype=np.float64)) / n, dtype=logits.dtype)


def nll_backward(g, logits, ids, saved):
    """Gradient (dlogits,) of `nll`: (p - onehot) * g / N, built as -p * g/N
    plus g/N at each id."""
    n = ids.shape[0]
    glp = np.full(n, -float(g) / n, dtype=logits.dtype)
    d = -saved["p"] * glp[:, None]
    d[np.arange(n), ids] += glp
    return (d.reshape(logits.shape),)


def ppo_objective(logits, values, actions, old_logprobs, advantages, returns,
                  clip_eps, value_coef, entropy_coef, terms, saved=None):
    """The PPO loss of a batch of rows, a 0-d float64 array:
    -surrogate + value_coef * value_loss - entropy_coef * entropy.

    surrogate = mean(min(r * A, clip(r, 1 - clip_eps, 1 + clip_eps) * A))
    with r = exp(log p(action) - old log-prob); value_loss = mean((values -
    returns)^2); entropy = mean(-sum p log p).  ``logits`` are (..., A),
    one row per action; ``values`` one per row; every float array of one
    dtype.  Each term is a float64 mean; the terms are written to the
    ``terms`` dict as floats (``surrogate``, ``value_loss``, ``entropy``).
    """
    lg = _check_ids(actions, logits)
    n = lg.shape[0]
    parts = {}
    log_p = log_softmax(lg, parts)
    p = parts["p"]
    ratio = np.exp(log_p[np.arange(n), actions] - old_logprobs)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * advantages
    surrogate = np.mean(np.minimum(unclipped, clipped), dtype=np.float64)
    err = values - returns
    value_loss = np.mean(err * err, dtype=np.float64)
    entropy = -np.mean(np.sum(p * log_p, axis=1, dtype=np.float64))
    terms.update(surrogate=float(surrogate), value_loss=float(value_loss),
                 entropy=float(entropy))
    if saved is not None:
        saved.update(log_p=log_p, p=p, ratio=ratio, err=err,
                     take_unclipped=unclipped <= clipped)
    return np.asarray(-surrogate + value_coef * value_loss - entropy_coef * entropy)


def ppo_objective_backward(g, logits, values, actions, old_logprobs, advantages, returns,
                           clip_eps, value_coef, entropy_coef, terms, saved):
    """Gradients (dlogits, dvalues) of `ppo_objective`, in the logits' dtype."""
    log_p, p, ratio, err = saved["log_p"], saved["p"], saved["ratio"], saved["err"]
    n = ratio.shape[0]
    share = float(g) / n  # each row's share of a mean's gradient
    # surrogate: the min passes its gradient to the branch it took, and the
    # clipped branch reaches r only inside the clip range
    inside = (ratio >= 1.0 - clip_eps) & (ratio <= 1.0 + clip_eps)
    g_lp = advantages * ratio * (saved["take_unclipped"] | inside)
    g_lp *= -share
    dlogits = -p * g_lp[:, None]
    dlogits[np.arange(n), actions] += g_lp
    # entropy: d(sum p log p) / d logits = p * (log p - sum p log p)
    dlogits += (share * entropy_coef) * p * (log_p - (p * log_p).sum(axis=-1, keepdims=True))
    dvalues = (2 * share * value_coef) * err
    return dlogits.reshape(logits.shape), dvalues
