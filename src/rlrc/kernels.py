"""No-grad numeric kernels of the inference forward, on numpy/BLAS.

`attn_block`, `mlp_block` and `rms_rows` compute the decoder in float32,
with float64 accumulators in the rms statistics.  They apply each weight
as ``x @ W``, so a weight is either a float32 array or a
``quant.QuantizedTensor``, whose ``__rmatmul__`` calls `qdot4` or `qdot8`.

`qdot4` and `qdot8` dequantize a tile of whole weight rows at a time to
float32, add it into a float64 output with one BLAS dgemm, and round the
sum to float32 once.  Training-side autodiff lives in tensor.py.
"""

import numpy as np

_EPS_NORM = 1e-6


def rms_rows(x2, gain):
    """Row-wise rms normalization with gain (2-d input)."""
    ms = np.mean(np.square(x2, dtype=np.float64), axis=-1, keepdims=True)
    inv = (1.0 / np.sqrt(ms + _EPS_NORM)).astype(np.float32)
    return x2 * inv * gain


def attn_block(x, gain, wq, wk, wv, wo, n_heads, head_dim, mask):
    """Pre-norm causal self-attention block with residual; returns new x.

    ``mask`` is the (S, S) additive causal mask, built once per forward.
    """
    b, s, d = x.shape
    xn = rms_rows(x.reshape(b * s, d), gain)
    q = (xn @ wq).reshape(b, s, n_heads, head_dim).transpose(0, 2, 1, 3)
    k = (xn @ wk).reshape(b, s, n_heads, head_dim).transpose(0, 2, 1, 3)
    v = (xn @ wv).reshape(b, s, n_heads, head_dim).transpose(0, 2, 1, 3)
    scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * np.float32(1.0 / np.sqrt(head_dim))
    scores = scores + mask
    scores -= scores.max(axis=-1, keepdims=True)
    p = np.exp(scores)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = np.matmul(p, v).transpose(0, 2, 1, 3).reshape(b * s, n_heads * head_dim)
    return x + (ctx @ wo).reshape(b, s, d)


def mlp_block(x, gain, wup, wgate, wdown):
    """Pre-norm gated MLP block (silu gate) with residual; returns new x."""
    b, s, d = x.shape
    xn = rms_rows(x.reshape(b * s, d), gain)
    u = xn @ wup
    g = xn @ wgate
    h = u * (g / (1.0 + np.exp(-g)))
    return x + (h @ wdown).reshape(b, s, d)


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
