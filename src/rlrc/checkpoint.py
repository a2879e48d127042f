"""Binary checkpoint container.

Layout: magic "RLRC", version u32, header length u32, JSON header
(model config, metadata, and the bits and block size of a quantized
model), entry count u32, then one named entry per parameter, written by
its weight type: a Tensor as raw little-endian float32, a QuantizedTensor
as {bits, block_size, shape, scales, packed codes}.  Round-trips are
bit-exact.

Saving writes a temp file next to the target and renames it into place,
so a crash never leaves a truncated checkpoint at the target path.
Loading is strict: a missing, unknown or leftover tensor, or one whose
kind, shape or quantized layout does not match the config, is an error
that names the tensor.
"""

import io
import json
import os
import struct

import numpy as np

from .model import ModelConfig, PolicyModel, ValueHead, param_shapes, value_head_shapes
from .quant import Q_MAX, QuantizedModel, QuantizedTensor, QUANT_MATRICES
from .tensor import Tensor

MAGIC = b"RLRC"
VERSION = 1

KIND_DENSE = 0
KIND_QUANT = 1


class CheckpointError(IOError):
    pass


def _w_u32(f, v):
    f.write(struct.pack("<I", v))


def _w_u8(f, v):
    f.write(struct.pack("<B", v))


def _read(f, n):
    b = f.read(n)
    if len(b) != n:
        raise CheckpointError(f"truncated checkpoint: wanted {n} bytes, got {len(b)}")
    return b


def _r_u32(f):
    return struct.unpack("<I", _read(f, 4))[0]


def _r_u8(f):
    return struct.unpack("<B", _read(f, 1))[0]


def _write_dense(f, name, arr):
    nb = name.encode("utf-8")
    _w_u32(f, len(nb))
    f.write(nb)
    _w_u8(f, KIND_DENSE)
    arr = np.asarray(arr, dtype=np.float32)
    _w_u32(f, arr.ndim)
    for e in arr.shape:
        _w_u32(f, e)
    f.write(np.ascontiguousarray(arr).astype("<f4").tobytes())


def _write_quant(f, name, qt):
    nb = name.encode("utf-8")
    _w_u32(f, len(nb))
    f.write(nb)
    _w_u8(f, KIND_QUANT)
    _w_u32(f, qt.bits)
    _w_u32(f, qt.block_size)
    _w_u32(f, len(qt.shape))
    for e in qt.shape:
        _w_u32(f, e)
    _w_u32(f, qt.scales.size)
    f.write(qt.scales.astype("<f4").tobytes())
    _w_u32(f, qt.packed.nbytes)
    f.write(qt.packed.tobytes())


def _read_entry(f):
    name = _read(f, _r_u32(f)).decode("utf-8")
    kind = _r_u8(f)
    if kind == KIND_DENSE:
        rank = _r_u32(f)
        shape = tuple(_r_u32(f) for _ in range(rank))
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(_read(f, 4 * n), dtype="<f4").reshape(shape).astype(np.float32)
        return name, ("dense", arr)
    if kind == KIND_QUANT:
        bits = _r_u32(f)
        block = _r_u32(f)
        rank = _r_u32(f)
        shape = tuple(_r_u32(f) for _ in range(rank))
        n_scales = _r_u32(f)
        scales = np.frombuffer(_read(f, 4 * n_scales), dtype="<f4").astype(np.float32)
        packed_len = _r_u32(f)
        raw = _read(f, packed_len)
        dtype = np.uint8 if bits == 4 else np.int8
        packed = np.frombuffer(raw, dtype=dtype).copy()
        return name, ("quant", QuantizedTensor(bits, block, shape, scales, packed))
    raise CheckpointError(f"unknown entry kind {kind} for tensor {name!r}")


def save_checkpoint(model, path, value_head=None, meta=None):
    """Serialize a PolicyModel or QuantizedModel (plus optional value head)."""
    quant = None
    if isinstance(model, QuantizedModel):
        quant = {"bits": model.bits, "block_size": model.block_size}
    header = {
        "config": model.config.to_dict(),
        "meta": dict(meta or {}),
        "quant": quant,
        "has_value_head": value_head is not None,
    }
    hb = json.dumps(header).encode("utf-8")
    entries = list(model.named_params())
    if value_head is not None:
        entries.extend(value_head.named_params())
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            _w_u32(f, VERSION)
            _w_u32(f, len(hb))
            f.write(hb)
            _w_u32(f, len(entries))
            for name, p in entries:
                if isinstance(p, QuantizedTensor):
                    _write_quant(f, name, p)
                else:
                    _write_dense(f, name, p.data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class LoadedCheckpoint:
    def __init__(self, model, value_head, meta, config):
        self.model = model
        self.value_head = value_head
        self.meta = meta
        self.config = config


def _take(tensors, name, kind):
    if name not in tensors:
        raise CheckpointError(f"checkpoint missing tensor {name}")
    got, payload = tensors.pop(name)
    if got != kind:
        raise CheckpointError(f"tensor {name} is {got}, expected {kind}")
    return payload


def _take_dense(tensors, name, shape):
    arr = _take(tensors, name, "dense")
    if arr.shape != shape:
        raise CheckpointError(f"tensor {name} shape {arr.shape} != expected {shape}")
    return arr.copy()


def _take_quant(tensors, name, shape, bits, block):
    qt = _take(tensors, name, "quant")
    n = int(np.prod(shape))
    for key, got, want in (("shape", qt.shape, shape), ("bits", qt.bits, bits),
                           ("block size", qt.block_size, block),
                           ("packed size", qt.packed.size, (n + 1) // 2 if bits == 4 else n),
                           ("scales size", qt.scales.size, -(-n // block))):
        if got != want:
            raise CheckpointError(f"quantized tensor {name} {key} {got} != expected {want}")
    return qt


def load_checkpoint(path):
    with open(path, "rb") as fh:
        f = io.BytesIO(fh.read())
    if _read(f, 4) != MAGIC:
        raise CheckpointError(f"bad magic in {path!r}: not a checkpoint file")
    version = _r_u32(f)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} (expected {VERSION})")
    try:
        header = json.loads(_read(f, _r_u32(f)).decode("utf-8"))
        config = ModelConfig.from_dict(header["config"])
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointError(f"corrupt checkpoint header: {e}") from e
    n_entries = _r_u32(f)
    tensors = dict(_read_entry(f) for _ in range(n_entries))

    value_head = None
    if header.get("has_value_head"):
        value_head = ValueHead(*(Tensor(_take_dense(tensors, name, shape), requires_grad=True)
                                 for name, shape in value_head_shapes(config.d_model).items()))

    quant = header.get("quant")
    if quant:
        bits, block = quant.get("bits"), quant.get("block_size")
        if bits not in Q_MAX or not isinstance(block, int) or block < 1:
            raise CheckpointError(f"corrupt checkpoint header: quant {quant}")
    params = {}
    for name, shape in param_shapes(config).items():
        if quant and name.rsplit(".", 1)[-1] in QUANT_MATRICES:
            params[name] = _take_quant(tensors, name, shape, bits, block)
        else:
            params[name] = Tensor(_take_dense(tensors, name, shape), requires_grad=True)
    if tensors:
        raise CheckpointError(f"checkpoint has unexpected tensor(s) {sorted(tensors)}")
    model = (QuantizedModel if quant else PolicyModel).from_params(config, params)
    return LoadedCheckpoint(model, value_head, header.get("meta", {}), config)
