"""Post-training blockwise symmetric quantization (4 or 8 bit).

Per block of ``block_size`` weights (the config's ``quant`` section sets
it and ``bits``): scale s = max|w| / q_max, codes
round-half-away-from-zero(w / s) clamped to [-q_max, q_max]; an all-zero
block gets s = 1.  4-bit codes pack two per byte.

This module alone knows that storage layout.  `stored_sizes` gives the
lengths of a weight's two arrays; a `QuantizedTensor` checks its arrays
against them when built, and ``checkpoint`` sizes a file's arrays by them
and stores the arrays as they are.  `QuantizedTensor.values` is the one
place codes are decoded: `dequantize` and `qmatmul` read weights through
it.

A `QuantizedTensor` is a weight in another storage format: ``x @ qt``
calls `qmatmul`, the one function that applies it.  It decodes a tile of
whole weight rows at a time, widens it to float64 and applies it with
numpy's GEMM, so the dense matrix materializes only one tile at a time,
no larger than the cap `_TILE_VALUES` or than the float64 output the call
allocates.  A `QuantizedModel` is a `PolicyModel` whose decoder matrices
are QuantizedTensors; its embeddings, norm gains and action head stay
float32 Tensors.  It has no state of its own and runs on the one decoder,
``model.forward``, under ``no_grad``, as a dense model serves through
``model.fast_logits_last``; with grad enabled ``forward`` rejects it,
since nothing trains quantized weights.
"""

from dataclasses import dataclass

import numpy as np

from .model import PolicyModel, fast_logits_last
from .tensor import Tensor

Q_MAX = {4: 7, 8: 127}


def is_quantized(name):
    """Whether `quantize_model` quantizes ``name``: a decoder layer's matrix, not a gain."""
    return name.startswith("layers.") and not name.endswith("_gain")


class QuantError(ValueError):
    pass


def stored_sizes(bits, block_size, n):
    """(scale count, code byte count) of ``n`` weights stored at ``bits``
    in blocks of ``block_size``: one scale per block, codes two per byte at
    4 bits and one at 8."""
    if bits not in Q_MAX:
        raise QuantError(f"bits must be one of {sorted(Q_MAX)}, got {bits}")
    if block_size < 1:
        raise QuantError(f"block_size must be >= 1, got {block_size}")
    return -(-n // block_size), (n + 1) // 2 if bits == 4 else n


# float32 (low, high) code values of each byte: two two's-complement nibbles
_NIBBLE_VALUES = np.array([0, 1, 2, 3, 4, 5, 6, 7, -8, -7, -6, -5, -4, -3, -2, -1],
                          dtype=np.float32)
_BYTE_VALUES = np.stack([_NIBBLE_VALUES[np.arange(256) & 0xF],
                         _NIBBLE_VALUES[np.arange(256) >> 4]], axis=1)


@dataclass
class QuantizedTensor:
    """A weight stored as blockwise codes; checked when built.

    ``packed`` holds the codes of the row-major flattening: two per uint8
    byte at 4 bits (`pack4`), one int8 each at 8; its bytes are viewed as
    that dtype.  ``scales`` holds one float32 scale per block.
    """

    bits: int
    block_size: int
    shape: tuple
    scales: np.ndarray
    packed: np.ndarray

    # numpy defers ``ndarray @ qt`` to __rmatmul__ instead of treating qt
    # as an object scalar
    __array_ufunc__ = None

    def __post_init__(self):
        n_scales, n_packed = stored_sizes(self.bits, self.block_size, self.size)
        self.packed = np.asarray(self.packed).view(np.uint8 if self.bits == 4 else np.int8)
        for field, got, want in (("packed", self.packed.size, n_packed),
                                 ("scales", self.scales.size, n_scales)):
            if got != want:
                raise QuantError(f"{field} size {got} != expected {want}")

    def __rmatmul__(self, x):
        # looked up as a module global on each call, so a wrapper installed
        # on quant.qmatmul sees every product
        return qmatmul(self, x)

    @property
    def size(self):
        return int(np.prod(self.shape))

    def values(self, start, stop):
        """Float32 weights of flat elements start .. stop-1: each code
        times its block's scale."""
        block = self.block_size
        # the scale of each element: the span's blocks, each repeated
        out = np.repeat(self.scales[start // block : -(-stop // block)], block)
        out = out[start % block :][: stop - start]
        if self.bits == 4:
            # both nibbles of every byte the span touches, then the span's own
            pairs = _BYTE_VALUES.take(self.packed[start >> 1 : (stop + 1) >> 1], axis=0)
            lo = start & 1
            out *= pairs.reshape(-1)[lo : lo + stop - start]
        else:
            out *= self.packed[start:stop]
        return out


def _round_half_away(x):
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def pack4(codes):
    """Two signed 4-bit codes per byte: even index low nibble, odd high."""
    c = codes.astype(np.int8)
    if c.size % 2:
        c = np.concatenate([c, np.zeros(1, dtype=np.int8)])
    lo = c[0::2].astype(np.uint8) & 0xF
    hi = c[1::2].astype(np.uint8) & 0xF
    return (lo | (hi << 4)).astype(np.uint8)


def quantize_tensor(weights, bits, block_size):
    w = np.asarray(weights, dtype=np.float32)
    n = w.size
    n_blocks, _ = stored_sizes(bits, block_size, n)
    if not np.all(np.isfinite(w)):
        raise QuantError("cannot quantize non-finite weights")
    qmax = Q_MAX[bits]
    flat = np.zeros(n_blocks * block_size, dtype=np.float32)
    flat[:n] = w.reshape(-1)
    blocks = flat.reshape(n_blocks, block_size)
    scales = np.abs(blocks).max(axis=1) / np.float32(qmax)
    scales = np.where(scales == 0.0, np.float32(1.0), scales).astype(np.float32)
    codes = _round_half_away(blocks / scales[:, None])
    codes = np.clip(codes, -qmax, qmax).astype(np.int8).reshape(-1)[:n]
    return QuantizedTensor(bits=bits, block_size=int(block_size), shape=tuple(w.shape),
                           scales=scales, packed=pack4(codes) if bits == 4 else codes)


def dequantize(qt):
    """Reconstruct s_block * code at the original shape."""
    return qt.values(0, qt.size).reshape(qt.shape)


# weight values dequantized per tile (whole rows; one row if a row is longer),
# unless the float64 output the call allocates anyway is larger: 256 KiB once
# widened to float64, so a tile stays in L2 cache for its GEMM
_TILE_VALUES = 32768


def qmatmul(qt, activations):
    """activations @ W for a quantized W of logical shape (k, n).

    W is decoded a tile of whole rows at a time, and never whole unless it
    fits in a tile: max(_TILE_VALUES, m * n) values for m activation rows.
    Each tile is widened to float64 and applied by numpy's GEMM to one
    C-ordered float64 copy of the activations; the tiles' products are
    summed in float64 and the sum is rounded to float32 once, so the result
    is within 1e-5 relative (floor 1e-3) of the exact product of the
    activations with ``dequantize(qt)``.
    """
    if len(qt.shape) != 2:
        raise QuantError(f"qmatmul expects a 2-d weight, got shape {qt.shape}")
    k, n = qt.shape
    x = np.asarray(activations, dtype=np.float32)
    if x.shape[-1] != k:
        raise QuantError(f"qmatmul shape mismatch: activations {x.shape} vs weight {qt.shape}")
    lead = x.shape[:-1]
    # C-ordered, so every layout of x gives the same GEMM operands
    x64 = np.array(x, dtype=np.float64, order="C").reshape(-1, k)
    m = x64.shape[0]
    if m * n * k == 0:
        return np.zeros((*lead, n), dtype=np.float32)
    rows = max(1, max(_TILE_VALUES, m * n) // n)
    out = part = None
    for r0 in range(0, k, rows):
        r1 = min(k, r0 + rows)
        w64 = qt.values(r0 * n, r1 * n).astype(np.float64).reshape(r1 - r0, n)
        if out is None:
            out = np.dot(x64[:, r0:r1], w64)
        else:
            part = np.dot(x64[:, r0:r1], w64, out=part)
            out += part
    return out.astype(np.float32).reshape(*lead, n)


class QuantizedModel(PolicyModel):
    """A PolicyModel whose decoder matrices are QuantizedTensors.

    Inference only: it serves through ``model.fast_logits_last``, the same
    decoder under ``no_grad`` as a dense model.  `logits_last` calls that
    function; nothing serves through it, and it stays while perfbench's
    span tracer lists it as a target.
    """

    def logits_last(self, tokens):
        return fast_logits_last(self, tokens)

    def named_quant_tensors(self):
        for name, p in self.named_params():
            if isinstance(p, QuantizedTensor):
                yield name, p


def quantize_model(model, bits, block_size):
    """Quantize every decoder-layer matrix; keep the rest float32."""
    params = {
        name: (quantize_tensor(p.data, bits, block_size)
               if is_quantized(name)
               else Tensor(p.data.copy()))
        for name, p in model.named_params()
    }
    return QuantizedModel(model.config, params)


def dequantize_model(qm):
    """Dense PolicyModel with every quantized matrix reconstructed."""
    params = {
        name: Tensor(dequantize(p) if isinstance(p, QuantizedTensor) else p.data.copy())
        for name, p in qm.named_params()
    }
    return PolicyModel(qm.config, params)


def memory_bytes(m):
    """Exact storage accounting for the weight payload.

    4 bytes per float32 parameter; a quantized matrix counts its packed
    code bytes, plus 4 bytes per block scale under ``scales_bytes``.
    ``total_bytes`` is exactly the size of the model's checkpoint payload,
    the bytes after its header: a checkpoint holds the policy alone.
    """
    w = s = 0
    for _, p in m.named_params():
        if isinstance(p, QuantizedTensor):
            w += p.packed.nbytes
            s += p.scales.nbytes
        else:
            w += 4 * p.size
    return {"weights_bytes": w, "scales_bytes": s, "total_bytes": w + s}
