"""Hot numeric kernels.

The decoder blocks, the rms normalization and the GAE scan are implemented
twice: once with numba @njit and once in plain vectorized numpy.
RLRC_KERNELS selects their backend:

    RLRC_KERNELS=auto    use numba when importable (default)
    RLRC_KERNELS=numba   require numba
    RLRC_KERNELS=numpy   pure numpy fallback

Both backends compute the same math at the same precisions: float32 in and
out, with float64 accumulators in the rms statistics; the GAE scan runs in
float64 throughout.  Equivalence is covered by tests and `rlrc bench-kernels`
reports the speed difference.

The dequantize-matmuls `qdot4` and `qdot8` have one implementation, on
numpy/BLAS: they dequantize a tile of whole weight rows at a time to
float32, add it into a float64 output with one BLAS dgemm, and round the
sum to float32 once.  Training-side autodiff (tensor.py) always runs on
numpy/BLAS and is unaffected by the flag.
"""

import os

import numpy as np

_EPS_NORM = 1e-6

_env = os.environ.get("RLRC_KERNELS", "auto").lower()
if _env not in ("auto", "numba", "numpy"):
    raise ValueError(f"RLRC_KERNELS must be auto|numba|numpy, got {_env!r}")

_HAS_NUMBA = False
if _env != "numpy":
    try:
        import numba
        from numba import njit

        _HAS_NUMBA = True
    except ImportError:
        if _env == "numba":
            raise

_BACKEND = "numba" if _HAS_NUMBA else "numpy"


def backend():
    """Name of the active backend ('numba' or 'numpy')."""
    return _BACKEND


def set_backend(name):
    """Switch backend at runtime (used by tests and the kernel benchmark)."""
    global _BACKEND
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown kernel backend {name!r}")
    if name == "numba" and not _HAS_NUMBA:
        raise RuntimeError("numba backend requested but numba is unavailable")
    _BACKEND = name


# ---------------------------------------------------------------------------
# numpy implementations
# ---------------------------------------------------------------------------

def _rms_rows_np(x2, gain):
    ms = np.mean(np.square(x2, dtype=np.float64), axis=-1, keepdims=True)
    inv = (1.0 / np.sqrt(ms + _EPS_NORM)).astype(np.float32)
    return x2 * inv * gain


def _attn_block_np(x, gain, wq, wk, wv, wo, n_heads, head_dim):
    b, s, d = x.shape
    xn = _rms_rows_np(x.reshape(b * s, d), gain)
    q = (xn @ wq).reshape(b, s, n_heads, head_dim).transpose(0, 2, 1, 3)
    k = (xn @ wk).reshape(b, s, n_heads, head_dim).transpose(0, 2, 1, 3)
    v = (xn @ wv).reshape(b, s, n_heads, head_dim).transpose(0, 2, 1, 3)
    scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * np.float32(1.0 / np.sqrt(head_dim))
    mask = np.triu(np.full((s, s), -1e9, dtype=np.float32), k=1)
    scores = scores + mask
    scores -= scores.max(axis=-1, keepdims=True)
    p = np.exp(scores)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = np.matmul(p, v).transpose(0, 2, 1, 3).reshape(b * s, n_heads * head_dim)
    return x + (ctx @ wo).reshape(b, s, d)


def _mlp_block_np(x, gain, wup, wgate, wdown):
    b, s, d = x.shape
    xn = _rms_rows_np(x.reshape(b * s, d), gain)
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


def _gae_scan_np(rewards, values, dones, next_values, gamma, lam):
    n, h = rewards.shape
    adv = np.zeros((n, h), dtype=np.float64)
    acc = np.zeros(n, dtype=np.float64)
    for t in range(h - 1, -1, -1):
        nv = next_values if t == h - 1 else values[:, t + 1]
        nonterm = 1.0 - dones[:, t]
        delta = rewards[:, t] + gamma * nv * nonterm - values[:, t]
        acc = delta + gamma * lam * nonterm * acc
        adv[:, t] = acc
    return adv


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if _HAS_NUMBA:

    @njit(cache=True, fastmath=True)
    def _rms_rows_nb(x2, gain, out):
        r, d = x2.shape
        for i in range(r):
            ms = 0.0
            for c in range(d):
                v = x2[i, c]
                ms += v * v
            inv = 1.0 / np.sqrt(ms / d + _EPS_NORM)
            for c in range(d):
                out[i, c] = np.float32(x2[i, c] * inv) * gain[c]

    @njit(cache=True, fastmath=True)
    def _attn_block_nb(x, gain, wq, wk, wv, wo, n_heads, head_dim):
        b, s, d = x.shape
        x2 = x.reshape(b * s, d)
        xn = np.empty_like(x2)
        _rms_rows_nb(x2, gain, xn)
        q = np.dot(xn, wq)
        k = np.dot(xn, wk)
        v = np.dot(xn, wv)
        hd = n_heads * head_dim
        ctx = np.empty((b * s, hd), dtype=np.float32)
        scale = np.float32(1.0 / np.sqrt(head_dim))
        scores = np.empty(s, dtype=np.float32)
        for bi in range(b):
            base = bi * s
            for h in range(n_heads):
                off = h * head_dim
                for i in range(s):
                    mx = np.float32(-1e30)
                    for j in range(i + 1):
                        acc = np.float32(0.0)
                        for dd in range(head_dim):
                            acc += q[base + i, off + dd] * k[base + j, off + dd]
                        acc *= scale
                        scores[j] = acc
                        if acc > mx:
                            mx = acc
                    den = np.float32(0.0)
                    for j in range(i + 1):
                        e = np.exp(scores[j] - mx)
                        scores[j] = e
                        den += e
                    for dd in range(head_dim):
                        acc = np.float32(0.0)
                        for j in range(i + 1):
                            acc += scores[j] * v[base + j, off + dd]
                        ctx[base + i, off + dd] = acc / den
        out = np.dot(ctx, wo)
        return (x2 + out).reshape(b, s, d)

    @njit(cache=True, fastmath=True)
    def _mlp_block_nb(x, gain, wup, wgate, wdown):
        b, s, d = x.shape
        x2 = x.reshape(b * s, d)
        xn = np.empty_like(x2)
        _rms_rows_nb(x2, gain, xn)
        u = np.dot(xn, wup)
        g = np.dot(xn, wgate)
        r, f = u.shape
        for i in range(r):
            for c in range(f):
                gv = g[i, c]
                u[i, c] = u[i, c] * (gv / (1.0 + np.exp(-gv)))
        out = np.dot(u, wdown)
        return (x2 + out).reshape(b, s, d)

    @njit(cache=True)
    def _gae_scan_nb(rewards, values, dones, next_values, gamma, lam):
        n, h = rewards.shape
        adv = np.zeros((n, h), dtype=np.float64)
        for i in range(n):
            acc = 0.0
            for t in range(h - 1, -1, -1):
                if t == h - 1:
                    nv = next_values[i]
                else:
                    nv = values[i, t + 1]
                nonterm = 1.0 - dones[i, t]
                delta = rewards[i, t] + gamma * nv * nonterm - values[i, t]
                acc = delta + gamma * lam * nonterm * acc
                adv[i, t] = acc
        return adv


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def attn_block(x, gain, wq, wk, wv, wo, n_heads, head_dim):
    """Pre-norm causal self-attention block with residual; returns new x."""
    if _BACKEND == "numba":
        return _attn_block_nb(x, gain, wq, wk, wv, wo, n_heads, head_dim)
    return _attn_block_np(x, gain, wq, wk, wv, wo, n_heads, head_dim)


def mlp_block(x, gain, wup, wgate, wdown):
    """Pre-norm gated MLP block (silu gate) with residual; returns new x."""
    if _BACKEND == "numba":
        return _mlp_block_nb(x, gain, wup, wgate, wdown)
    return _mlp_block_np(x, gain, wup, wgate, wdown)


def rms_rows(x2, gain):
    """Row-wise rms normalization with gain (2-d input)."""
    if _BACKEND == "numba":
        out = np.empty_like(x2)
        _rms_rows_nb(x2, gain, out)
        return out
    return _rms_rows_np(x2, gain)


def gae_scan(rewards, values, dones, next_values, gamma, lam):
    """Reverse-time GAE recursion over an (envs, horizon) grid (float64)."""
    rewards = np.ascontiguousarray(rewards, dtype=np.float64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    dones = np.ascontiguousarray(dones, dtype=np.float64)
    next_values = np.ascontiguousarray(next_values, dtype=np.float64)
    if _BACKEND == "numba":
        return _gae_scan_nb(rewards, values, dones, next_values, gamma, lam)
    return _gae_scan_np(rewards, values, dones, next_values, gamma, lam)


def warmup():
    """Trigger jit compilation of every numba kernel (no-op on the numpy backend)."""
    if _BACKEND != "numba":
        return
    x = np.zeros((1, 2, 8), dtype=np.float32)
    gain = np.ones(8, dtype=np.float32)
    w = np.zeros((8, 8), dtype=np.float32)
    attn_block(x, gain, w, w, w, w, 2, 4)
    mlp_block(x, gain, w, w, w.copy())
    gae_scan(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)),
             np.zeros(1), 0.99, 0.95)
