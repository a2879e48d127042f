"""Post-training blockwise symmetric quantization (4 or 8 bit).

Per block of 64 weights (default): scale s = max|w| / q_max, codes
round-half-away-from-zero(w / s) clamped to [-q_max, q_max]; an all-zero
block gets s = 1.  4-bit codes pack two per byte.

A `QuantizedTensor` is a weight in another storage format: ``x @ qt``
calls `qmatmul`, which dequantizes a tile of whole weight rows at a time
and applies it with a float64 GEMM (see rlrc.kernels), so the dense matrix
never materializes.  A `QuantizedModel` is a `PolicyModel` whose decoder
matrices are QuantizedTensors; its embeddings, norm gains and action head
stay float32 Tensors.  It has no state of its own and runs on the same
inference forward as a dense model, ``model.fast_logits_last``.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import ModelConfig, PolicyModel, fast_logits_last
from .tensor import Tensor

Q_MAX = {4: 7, 8: 127}
DEFAULT_BLOCK = 64

QUANT_MATRICES = ("wq", "wk", "wv", "wo", "wup", "wgate", "wdown")


class QuantError(ValueError):
    pass


@dataclass
class QuantizedTensor:
    bits: int
    block_size: int
    shape: tuple
    scales: np.ndarray  # float32, one per block of the row-major flattening
    packed: np.ndarray  # uint8 nibble pairs (4-bit) or int8 codes (8-bit)

    # numpy defers ``ndarray @ qt`` to __rmatmul__ instead of treating qt
    # as an object scalar
    __array_ufunc__ = None

    def __rmatmul__(self, x):
        # looked up as a module global on each call, so a wrapper installed
        # on quant.qmatmul sees every product
        return qmatmul(self, x)

    @property
    def size(self):
        return int(np.prod(self.shape))

    def packed_bytes(self):
        return self.packed.nbytes

    def scales_bytes(self):
        return self.scales.nbytes


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


def unpack4(packed, n):
    lo = (packed & 0xF).astype(np.int8)
    hi = ((packed >> 4) & 0xF).astype(np.int8)
    lo = np.where(lo >= 8, lo - 16, lo)
    hi = np.where(hi >= 8, hi - 16, hi)
    out = np.empty(packed.size * 2, dtype=np.int8)
    out[0::2] = lo
    out[1::2] = hi
    return out[:n]


def quantize_tensor(weights, bits=4, block_size=DEFAULT_BLOCK):
    if bits not in Q_MAX:
        raise QuantError(f"bits must be 4 or 8, got {bits}")
    if block_size < 1:
        raise QuantError(f"block_size must be >= 1, got {block_size}")
    w = np.asarray(weights, dtype=np.float32)
    if not np.all(np.isfinite(w)):
        raise QuantError("cannot quantize non-finite weights")
    qmax = Q_MAX[bits]
    n = w.size
    n_blocks = -(-n // block_size)
    flat = np.zeros(n_blocks * block_size, dtype=np.float32)
    flat[:n] = w.reshape(-1)
    blocks = flat.reshape(n_blocks, block_size)
    scales = np.abs(blocks).max(axis=1) / np.float32(qmax)
    scales = np.where(scales == 0.0, np.float32(1.0), scales).astype(np.float32)
    codes = _round_half_away(blocks / scales[:, None])
    codes = np.clip(codes, -qmax, qmax).astype(np.int8).reshape(-1)[:n]
    if bits == 4:
        packed = pack4(codes)
    else:
        packed = codes
    return QuantizedTensor(bits=bits, block_size=int(block_size), shape=tuple(w.shape),
                           scales=scales, packed=packed)


def dequantize(qt):
    """Reconstruct s_block * code at the original shape."""
    n = qt.size
    if qt.bits == 4:
        expected = (n + 1) // 2
        if qt.packed.size != expected:
            raise QuantError(f"corrupted pack: {qt.packed.size} bytes, expected {expected}")
        codes = unpack4(qt.packed, n)
    else:
        if qt.packed.size != n:
            raise QuantError(f"corrupted pack: {qt.packed.size} codes, expected {n}")
        codes = qt.packed
    n_scales = -(-n // qt.block_size)
    if qt.scales.size != n_scales:
        raise QuantError(f"corrupted scales: {qt.scales.size}, expected {n_scales}")
    idx = np.arange(n) // qt.block_size
    return (qt.scales[idx] * codes).astype(np.float32).reshape(qt.shape)


def qmatmul(qt, activations):
    """activations @ W for a quantized W of logical shape (k, n).

    Dequantizes a tile of whole weight rows at a time and adds each tile's
    product into a float64 output with one GEMM, so the float32 result is
    within 1e-5 relative (floor 1e-3) of the exact product of the
    activations with ``dequantize(qt)``.
    """
    if len(qt.shape) != 2:
        raise QuantError(f"qmatmul expects a 2-d weight, got shape {qt.shape}")
    k, n = qt.shape
    x = np.asarray(activations, dtype=np.float32)
    if x.shape[-1] != k:
        raise QuantError(f"qmatmul shape mismatch: activations {x.shape} vs weight {qt.shape}")
    lead = x.shape[:-1]
    x2 = np.ascontiguousarray(x.reshape(-1, k))
    if qt.bits == 4:
        out = kernels.qdot4(x2, qt.packed, qt.scales, n, qt.block_size)
    else:
        out = kernels.qdot8(x2, qt.packed, qt.scales, n, qt.block_size)
    return out.reshape(*lead, n)


class QuantizedModel(PolicyModel):
    """A PolicyModel whose decoder matrices are QuantizedTensors.

    Inference only: greedy logits via ``logits_last``, the same kernel
    forward as a dense model.
    """

    @property
    def bits(self):
        return next(self.named_quant_tensors())[1].bits

    @property
    def block_size(self):
        return next(self.named_quant_tensors())[1].block_size

    def logits_last(self, tokens):
        return fast_logits_last(self, tokens)

    def named_quant_tensors(self):
        for name, p in self.named_params():
            if isinstance(p, QuantizedTensor):
                yield name, p


def quantize_model(model, bits=4, block_size=DEFAULT_BLOCK):
    """Quantize every decoder-layer matrix; keep the rest float32."""
    cfg = ModelConfig.from_dict(model.config.to_dict())
    params = {
        name: (quantize_tensor(p.data, bits, block_size)
               if name.rsplit(".", 1)[-1] in QUANT_MATRICES
               else Tensor(p.data.copy(), requires_grad=True))
        for name, p in model.named_params()
    }
    return QuantizedModel.from_params(cfg, params)


def dequantize_model(qm):
    """Dense PolicyModel with every quantized matrix reconstructed."""
    cfg = ModelConfig.from_dict(qm.config.to_dict())
    params = {
        name: Tensor(dequantize(p) if isinstance(p, QuantizedTensor) else p.data.copy(),
                     requires_grad=True)
        for name, p in qm.named_params()
    }
    return PolicyModel.from_params(cfg, params)


def memory_bytes(m):
    """Exact storage accounting for the weight payload.

    4 bytes per float32 parameter; a quantized matrix counts its packed
    code bytes, plus 4 bytes per block scale under ``scales_bytes``.
    Matches the serialized checkpoint payload byte-for-byte.
    """
    w = s = 0
    for _, p in m.named_params():
        if isinstance(p, QuantizedTensor):
            w += p.packed_bytes()
            s += p.scales_bytes()
        else:
            w += 4 * p.size
    return {"weights_bytes": w, "scales_bytes": s, "total_bytes": w + s}
