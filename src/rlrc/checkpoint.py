"""Binary checkpoint container.

Layout: magic "RLRC", version u32, header length u32, JSON header
(model config, metadata, and the bits and block size of a quantized
model), entry count u32, then one named entry per parameter, written by
its weight type: a Tensor as raw little-endian float32, a QuantizedTensor
as {bits, block_size, shape, scales, packed code bytes}.  Round-trips are
bit-exact.  The code layout is ``quant``'s: this module stores and reads
the arrays as bytes, and a loaded entry becomes a QuantizedTensor, which
checks them, once its bits, block size and shape match the header.

Saving writes a temp file next to the target and renames it into place,
so a crash never leaves a truncated checkpoint at the target path.
Loading is strict: a missing, repeated, unknown or leftover tensor, or
one whose kind, shape or quantized layout does not match the config, is
an error that names the tensor.
"""

import io
import json
import os
import struct

import numpy as np

from .model import ModelConfig, PolicyModel, ValueHead, param_shapes, value_head_shapes
from .quant import Q_MAX, QuantError, QuantizedModel, QuantizedTensor, QUANT_MATRICES
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


def _read_array(f, n, dtype):
    """``n`` values of ``dtype`` read from ``f`` straight into a new array."""
    nbytes = n * np.dtype(dtype).itemsize
    pos = f.tell()
    left = f.seek(0, io.SEEK_END) - pos
    f.seek(pos)
    # checked before allocating, so a corrupt size cannot ask for a huge array
    if not 0 <= nbytes <= left:
        raise CheckpointError(f"truncated checkpoint: wanted {nbytes} bytes, got {left}")
    arr = np.empty(n, dtype=dtype)
    got = f.readinto(memoryview(arr).cast("B"))
    if got != nbytes:
        raise CheckpointError(f"truncated checkpoint: wanted {nbytes} bytes, got {got}")
    return arr


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
        return name, ("dense", _read_array(f, n, "<f4").reshape(shape))
    if kind == KIND_QUANT:
        bits = _r_u32(f)
        block = _r_u32(f)
        rank = _r_u32(f)
        shape = tuple(_r_u32(f) for _ in range(rank))
        scales = _read_array(f, _r_u32(f), "<f4")
        packed = _read_array(f, _r_u32(f), np.uint8)
        # _take_quant builds the QuantizedTensor once the header agrees
        return name, ("quant", (bits, block, shape, scales, packed))
    raise CheckpointError(f"unknown entry kind {kind} for tensor {name!r}")


def save_checkpoint(model, path, value_head=None, meta=None):
    """Serialize a model (plus optional value head); the header's bits and
    block size are those of its first quantized weight, if it has one."""
    qt = next((p for _, p in model.named_params() if isinstance(p, QuantizedTensor)), None)
    quant = None if qt is None else {"bits": qt.bits, "block_size": qt.block_size}
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
    def __init__(self, model, value_head, meta):
        self.model = model
        self.value_head = value_head
        self.meta = meta


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
    return arr


def _take_quant(tensors, name, shape, bits, block):
    got_bits, got_block, got_shape, scales, packed = _take(tensors, name, "quant")
    for key, got, want in (("shape", got_shape, shape), ("bits", got_bits, bits),
                           ("block size", got_block, block)):
        if got != want:
            raise CheckpointError(f"quantized tensor {name} {key} {got} != expected {want}")
    try:
        return QuantizedTensor(got_bits, got_block, got_shape, scales, packed)
    except QuantError as e:
        raise CheckpointError(f"quantized tensor {name} {e}") from e


def load_checkpoint(path):
    """Load a checkpoint, reading each tensor straight into its own array."""
    with open(path, "rb") as f:
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
        tensors = {}
        for _ in range(n_entries):
            name, entry = _read_entry(f)
            if name in tensors:
                raise CheckpointError(f"checkpoint repeats tensor {name}")
            tensors[name] = entry

    value_head = None
    if header.get("has_value_head"):
        value_head = ValueHead(*(Tensor(_take_dense(tensors, name, shape))
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
            params[name] = Tensor(_take_dense(tensors, name, shape))
    if tensors:
        raise CheckpointError(f"checkpoint has unexpected tensor(s) {sorted(tensors)}")
    model = (QuantizedModel if quant else PolicyModel).from_params(config, params)
    return LoadedCheckpoint(model, value_head, header.get("meta", {}))
