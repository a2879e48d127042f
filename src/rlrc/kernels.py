"""Numeric kernels of the decoder, on numpy/BLAS.

`attn_block`, `mlp_block` and `rms_rows` are the decoder's arithmetic;
``model.forward`` applies them as autodiff nodes (`tensor.fused`), so
serving, rollouts and training run the same code.  `attn_block` takes its
query rows from the mask: with a (T, S) mask it attends from the last T
positions over all S and returns those T rows, so the last layer computes
keys and values for every position and the rest for the marker row only.
The blocks keep the input dtype (float32 in use, float64 for gradient
checks), with float64 accumulators in the rms statistics, and apply each
weight as ``x @ W``, so a weight is either an array or a
``quant.QuantizedTensor``, whose ``__rmatmul__`` calls `qdot4` or `qdot8`.

Given a ``saved`` dict, a block also keeps the intermediates it computed
anyway; its hand-written backward (`attn_block_backward`,
`mlp_block_backward`) reads them and recomputes the cheap rest (the rms
factors, the sigmoid), so the forward does no extra arithmetic.

`qdot4` and `qdot8` dequantize a tile of whole weight rows at a time to
float32, add it into a float64 output with one BLAS dgemm, and round the
sum to float32 once.
"""

import numpy as np

_EPS_NORM = 1e-6


def _inv_rms(x2):
    """Per-row 1 / rms of a 2-d array, the mean square taken in float64."""
    ms = np.mean(np.square(x2, dtype=np.float64), axis=-1, keepdims=True)
    return (1.0 / np.sqrt(ms + _EPS_NORM)).astype(x2.dtype)


def rms_rows(x2, gain):
    """Row-wise rms normalization with gain (2-d input)."""
    return x2 * _inv_rms(x2) * gain


def rms_rows_backward(g2, x2, gain):
    """Gradients (d x2, d gain) of `rms_rows` for output gradient ``g2``."""
    inv = _inv_rms(x2)
    dgain = (g2 * (x2 * inv)).sum(axis=0)
    gn = g2 * gain
    gx = (gn * x2).sum(axis=-1, keepdims=True)
    return gn * inv - x2 * (inv ** 3) * (gx / x2.shape[-1]), dgain


def attn_block(x, gain, wq, wk, wv, wo, n_heads, head_dim, mask, saved=None):
    """Pre-norm causal self-attention block with residual.

    ``mask`` is the (T, S) additive causal mask of the last T of the S
    positions: keys and values come from every position, queries only from
    those T.  Returns the new residual stream at those T positions,
    (B, T, D); ``model.forward`` passes T = S except in the last layer,
    where T = 1, the marker row.
    """
    b, s, d = x.shape
    t = mask.shape[0]
    xn = rms_rows(x.reshape(b * s, d), gain)
    xq = xn.reshape(b, s, d)[:, s - t:].reshape(b * t, d)
    q = (xq @ wq).reshape(b, t, n_heads, head_dim).transpose(0, 2, 1, 3)
    k = (xn @ wk).reshape(b, s, n_heads, head_dim).transpose(0, 2, 1, 3)
    v = (xn @ wv).reshape(b, s, n_heads, head_dim).transpose(0, 2, 1, 3)
    scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * np.float32(1.0 / np.sqrt(head_dim))
    scores = scores + mask
    scores -= scores.max(axis=-1, keepdims=True)
    p = np.exp(scores)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = np.matmul(p, v).transpose(0, 2, 1, 3).reshape(b * t, n_heads * head_dim)
    if saved is not None:
        saved.update(xn=xn, xq=xq, q=q, k=k, v=v, p=p, ctx=ctx)
    return x[:, s - t:] + (ctx @ wo).reshape(b, t, d)


def attn_block_backward(dout, x, gain, wq, wk, wv, wo, n_heads, head_dim, mask, saved):
    """Gradients (dx, dgain, dwq, dwk, dwv, dwo) of `attn_block`.

    ``dout`` is (B, T, D), for the query rows; ``dx`` covers all S rows.
    """
    b, s, d = x.shape
    t = mask.shape[0]
    xn, xq, q, k, v, p, ctx = (saved[n] for n in ("xn", "xq", "q", "k", "v", "p", "ctx"))
    g2 = dout.reshape(b * t, d)
    dctx = (g2 @ wo.T).reshape(b, t, n_heads, head_dim).transpose(0, 2, 1, 3)
    dp = np.matmul(dctx, v.transpose(0, 1, 3, 2))
    dscores = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    dscores *= np.float32(1.0 / np.sqrt(head_dim))

    def rows(a):  # (B, H, R, hd) -> (B*R, H*hd)
        return a.transpose(0, 2, 1, 3).reshape(-1, n_heads * head_dim)

    dq = rows(np.matmul(dscores, k))
    dk = rows(np.matmul(dscores.transpose(0, 1, 3, 2), q))
    dv = rows(np.matmul(p.transpose(0, 1, 3, 2), dctx))
    dxn = dk @ wk.T
    dxn.reshape(b, s, d)[:, s - t:] += (dq @ wq.T).reshape(b, t, d)
    dxn += dv @ wv.T
    dx, dgain = rms_rows_backward(dxn, x.reshape(b * s, d), gain)
    dx = dx.reshape(b, s, d)
    dx[:, s - t:] += dout
    return dx, dgain, xq.T @ dq, xn.T @ dk, xn.T @ dv, ctx.T @ g2


def mlp_block(x, gain, wup, wgate, wdown, saved=None):
    """Pre-norm gated MLP block (silu gate) with residual; returns new x."""
    b, s, d = x.shape
    xn = rms_rows(x.reshape(b * s, d), gain)
    u = xn @ wup
    g = xn @ wgate
    h = u * (g / (1.0 + np.exp(-g)))
    if saved is not None:
        saved.update(xn=xn, u=u, g=g, h=h)
    return x + (h @ wdown).reshape(b, s, d)


def mlp_block_backward(dout, x, gain, wup, wgate, wdown, saved):
    """Gradients (dx, dgain, dwup, dwgate, dwdown) of `mlp_block`."""
    b, s, d = x.shape
    xn, u, g, h = (saved[n] for n in ("xn", "u", "g", "h"))
    g2 = dout.reshape(b * s, d)
    dh = g2 @ wdown.T
    sig = 1.0 / (1.0 + np.exp(-g))
    du = dh * (g * sig)
    dg = dh * u * (sig * (1.0 + g * (1.0 - sig)))
    dx, dgain = rms_rows_backward(du @ wup.T + dg @ wgate.T, x.reshape(b * s, d), gain)
    return dout + dx.reshape(b, s, d), dgain, xn.T @ du, xn.T @ dg, h.T @ g2


# transient-buffer audit hook for qdot4/qdot8, which work one tile at a time
_alloc_hook = None


def set_alloc_hook(fn):
    """Install fn(num_elements) called per transient weight tile."""
    global _alloc_hook
    _alloc_hook = fn


# weight values dequantized per tile (whole rows; one row if a row is longer):
# 64 KiB once widened to float64, so a tile stays in cache for its GEMM
_TILE_VALUES = 8192

# float32 (low, high) code values of each byte: two two's-complement nibbles
_NIBBLE_VALUES = np.array([0, 1, 2, 3, 4, 5, 6, 7, -8, -7, -6, -5, -4, -3, -2, -1],
                          dtype=np.float32)
_BYTE_VALUES = np.stack([_NIBBLE_VALUES[np.arange(256) & 0xF],
                         _NIBBLE_VALUES[np.arange(256) >> 4]], axis=1)


def _qdot_tiles(x, scales, n, block, codes):
    """x @ W, where flat element j of W is scales[j // block] * code j.

    codes(start, stop) gives the codes of flat elements start .. stop-1.  W
    is dequantized a tile of whole rows at a time, to float32 exactly as
    ``quant.dequantize`` does; only the tile is widened to float64 and added
    into a float64 output by one BLAS dgemm.  The sum is rounded to float32
    once, at the end.
    """
    # deferred: importing scipy.linalg adds ~28 MiB RSS to every process,
    # including the ones that never serve a quantized model
    from scipy.linalg.blas import dgemm

    m, k = x.shape
    if m * n * k == 0:  # dgemm rejects empty operands
        return np.zeros((m, n), dtype=np.float32)
    # dgemm updates out.T in place because it is Fortran-ordered (with any
    # other layout f2py would update a copy), and rounding the C-ordered out
    # to float32 is then a plain copy, not a transpose
    out = np.empty((m, n), dtype=np.float64)
    x64 = np.asfortranarray(x, dtype=np.float64)
    rows = max(1, _TILE_VALUES // n)
    for r0 in range(0, k, rows):
        r1 = min(k, r0 + rows)
        start, stop = r0 * n, r1 * n
        # the scale of each element: the tile's blocks, each repeated
        tile = np.repeat(scales[start // block : -(-stop // block)], block)
        tile = tile[start % block :][: stop - start]
        tile *= codes(start, stop)
        if _alloc_hook is not None:
            _alloc_hook(tile.size)
        # out.T = tile.T @ x[:, r0:r1].T (+ out.T after the first tile); both
        # operands are Fortran-ordered views, so f2py copies neither
        w64 = tile.astype(np.float64).reshape(r1 - r0, n)
        dgemm(1.0, w64.T, x64[:, r0:r1], beta=float(r0 > 0), c=out.T, trans_b=1,
              overwrite_c=1)
    return out.astype(np.float32)


def qdot4(x, packed, scales, n, block):
    """x @ W for a 4-bit packed weight of logical shape (x.shape[1], n).

    Dequantizes W a tile of whole rows at a time to float32 (the values
    ``quant.dequantize`` gives) and never materializes the dense matrix.
    Each tile is added into a float64 output by one GEMM; the float32 result
    is the exact product rounded once, so within 1e-5 relative of it.
    """
    def codes(start, stop):
        # both nibbles of every byte the span touches, then the span's own
        pairs = _BYTE_VALUES.take(packed[start >> 1 : (stop + 1) >> 1], axis=0)
        lo = start & 1
        return pairs.reshape(-1)[lo : lo + stop - start]

    return _qdot_tiles(x, scales, n, block, codes)


def qdot8(x, codes, scales, n, block):
    """x @ W for an 8-bit weight of logical shape (x.shape[1], n).

    Tile-at-a-time dequantization and a float64 GEMM, as in `qdot4`.
    """
    return _qdot_tiles(x, scales, n, block, lambda start, stop: codes[start:stop])
