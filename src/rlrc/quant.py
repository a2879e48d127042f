"""Post-training blockwise symmetric quantization (4 or 8 bit).

Per block of 64 weights (default): scale s = max|w| / q_max, codes
round-half-away-from-zero(w / s) clamped to [-q_max, q_max]; an all-zero
block gets s = 1.  4-bit codes pack two per byte.  Decoder-layer matrices
quantize; embeddings, norm gains and output heads stay full precision.

A `QuantizedTensor` is a weight in another storage format: ``x @ qt``
calls `qmatmul`, which dequantizes a tile of whole weight rows at a time
and applies it with a float64 GEMM (see rlrc.kernels), so the dense matrix
never materializes.  A `QuantizedModel` therefore runs on the same
inference forward as a dense model, ``model.fast_logits_last``.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import DecoderLayer, ModelConfig, PolicyModel, fast_logits_last
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
    def n_elements(self):
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
    n = qt.n_elements
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


class QuantizedModel:
    """Policy with quantized decoder matrices; same external contract.

    Inference only: greedy logits via ``logits_last``, the same kernel
    forward as a dense model.  Embeddings, norm gains, action head and any
    value head stay float32.
    """

    def __init__(self, config, bits, block_size, tok_emb, pos_emb, layers, final_gain, w_act):
        self.config = config
        self.bits = bits
        self.block_size = block_size
        self.tok_emb = tok_emb
        self.pos_emb = pos_emb
        self.layers = layers
        self.final_gain = final_gain
        self.w_act = w_act

    def logits_last(self, tokens):
        return fast_logits_last(self, tokens)

    def named_quant_tensors(self):
        for i, layer in enumerate(self.layers):
            for name in QUANT_MATRICES:
                yield f"layers.{i}.{name}", getattr(layer, name)

    def named_dense_arrays(self):
        yield "tok_emb", self.tok_emb
        yield "pos_emb", self.pos_emb
        for i, layer in enumerate(self.layers):
            yield f"layers.{i}.attn_gain", layer.attn_gain
            yield f"layers.{i}.mlp_gain", layer.mlp_gain
        yield "final_gain", self.final_gain
        yield "w_act", self.w_act


def quantize_model(model, bits=4, block_size=DEFAULT_BLOCK):
    """Quantize every decoder-layer matrix; keep the rest float32."""
    cfg = ModelConfig.from_dict(model.config.to_dict())
    layers = []
    for layer in model.layers:
        kw = {}
        for name in QUANT_MATRICES:
            kw[name] = quantize_tensor(getattr(layer, name).data, bits, block_size)
        kw["attn_gain"] = layer.attn_gain.data.copy()
        kw["mlp_gain"] = layer.mlp_gain.data.copy()
        layers.append(DecoderLayer(**kw))
    return QuantizedModel(
        cfg, bits, int(block_size),
        model.tok_emb.data.copy(), model.pos_emb.data.copy(), layers,
        model.final_gain.data.copy(), model.w_act.data.copy(),
    )


def dequantize_model(qm):
    """Dense PolicyModel with every quantized matrix reconstructed."""
    def t(a):
        return Tensor(np.ascontiguousarray(a), requires_grad=True)

    layers = []
    for layer in qm.layers:
        kw = {name: t(dequantize(getattr(layer, name))) for name in QUANT_MATRICES}
        kw["attn_gain"] = t(layer.attn_gain.copy())
        kw["mlp_gain"] = t(layer.mlp_gain.copy())
        layers.append(DecoderLayer(**kw))
    cfg = ModelConfig.from_dict(qm.config.to_dict())
    return PolicyModel(cfg, t(qm.tok_emb.copy()), t(qm.pos_emb.copy()), layers,
                       t(qm.final_gain.copy()), t(qm.w_act.copy()))


def memory_bytes(m):
    """Exact storage accounting for the weight payload.

    Dense model: 4 bytes per parameter, no scales.  Quantized model:
    packed code bytes plus 4 bytes per block scale plus full-precision
    leftovers.  Matches the serialized checkpoint payload byte-for-byte.
    """
    if isinstance(m, PolicyModel):
        w = sum(p.data.size for p in m.params()) * 4
        return {"weights_bytes": w, "scales_bytes": 0, "total_bytes": w}
    if isinstance(m, QuantizedModel):
        w = sum(a.size * 4 for _, a in m.named_dense_arrays())
        s = 0
        for _, qt in m.named_quant_tensors():
            w += qt.packed_bytes()
            s += qt.scales_bytes()
        return {"weights_bytes": w, "scales_bytes": s, "total_bytes": w + s}
    raise TypeError(f"memory_bytes: unsupported model type {type(m)!r}")
