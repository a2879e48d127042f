"""Binary checkpoint container: a policy and nothing else.

Layout: magic "RLRC", version u32, header length u32, a JSON header of
exactly the keys config, meta (an object), quant (the bits and block
size of a quantized model, or null) and tensors (the parameter names in
file order), then the raw little-endian arrays of every parameter in
`named_params` order: a Tensor's float32 data, a QuantizedTensor's
float32 scales and then its code bytes.  The payload, the bytes after
the header, is exactly ``quant.memory_bytes(model)["total_bytes"]``.
The header is the one statement of the layout: the config fixes every
shape (``model.param_shapes``) and ``quant.stored_sizes`` the lengths of
a quantized weight's arrays, so saving rejects by name a tensor that
differs from them.  Round-trips are bit-exact.

Saving writes a temp file next to the target and renames it into place,
so a crash never leaves a truncated checkpoint at the target path.
Loading is strict, and a wrong version, header or payload size is an
error that names the file: the config is read by the rules of a run's
``model`` section, the quant format, both keys required, by its
``quant`` section's, the tensor names must equal ``param_shapes``' in
order (the first position that differs is named), and a payload of
another size than the header lays out is refused before any allocation.
"""

import json
import math
import os
import struct
from collections import namedtuple
from itertools import zip_longest

import numpy as np

from .config import QuantSection, _build
from .model import ModelConfig, PolicyModel, param_shapes
from .quant import QuantizedModel, QuantizedTensor, is_quantized, stored_sizes
from .tensor import Tensor

MAGIC = b"RLRC"
VERSION = 3
HEADER_KEYS = ["config", "meta", "quant", "tensors"]
QUANT_KEYS = ["bits", "block_size"]


class CheckpointError(IOError):
    pass


def _read(f, n):
    b = f.read(n)
    if len(b) != n:
        raise CheckpointError(f"truncated checkpoint: wanted {n} bytes, got {len(b)}")
    return b


def _read_array(f, n, dtype):
    """``n`` values of ``dtype`` read from ``f`` straight into a new array."""
    arr = np.empty(n, dtype=dtype)
    got = f.readinto(arr)
    if got != arr.nbytes:
        raise CheckpointError(f"truncated checkpoint: wanted {arr.nbytes} bytes, got {got}")
    return arr


def _quant_format(p):
    return {"bits": p.bits, "block_size": p.block_size} if isinstance(p, QuantizedTensor) else None


def save_checkpoint(model, path, meta=None):
    """Serialize a model.  Every tensor must be as the header lays it out:
    of its config's shape and, if the model is quantized, a decoder matrix
    at the bits and block size of the first."""
    entries = list(model.named_params())
    shapes = param_shapes(model.config)
    quant = next(filter(None, map(_quant_format, model.params())), None)
    for name, p in entries:
        got = (tuple(p.shape), _quant_format(p))
        want = (shapes.get(name), quant if is_quantized(name) else None)
        if got != want:
            raise CheckpointError(f"cannot save tensor {name}: shape and quant format "
                                  f"{got}, its config lays out {want}")
    header = {
        "config": model.config.to_dict(),
        "meta": dict(meta or {}),
        "quant": quant,
        "tensors": [name for name, _ in entries],
    }
    hb = json.dumps(header).encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC + struct.pack("<II", VERSION, len(hb)) + hb)
            for _, p in entries:
                if isinstance(p, QuantizedTensor):
                    f.write(np.ascontiguousarray(p.scales, dtype="<f4"))
                    f.write(np.ascontiguousarray(p.packed))
                else:
                    f.write(np.ascontiguousarray(p.data, dtype="<f4"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


LoadedCheckpoint = namedtuple("LoadedCheckpoint", "model meta")


def _layout(header):
    """The config and quant format a header states and, in file order,
    each tensor's name, shape and arrays as (dtype, count) pairs."""
    if sorted(header) != HEADER_KEYS:
        raise ValueError(f"header keys {sorted(header)}, expected {HEADER_KEYS}")
    for key, kind, what in (("meta", dict, "an object"), ("tensors", list, "a list")):
        if not isinstance(header[key], kind):
            raise ValueError(f"{key} must be {what}, got {header[key]!r}")
    config = _build(ModelConfig, header["config"], "model")
    shapes = param_shapes(config)
    for i, (got, want) in enumerate(zip_longest(header["tensors"], shapes)):
        if got != want:
            raise ValueError(f"tensor {i} is {got!r}, its config lays out {want!r}")
    quant = header["quant"]
    if quant is not None:
        if sorted(quant) != QUANT_KEYS:
            raise ValueError(f"quant keys {sorted(quant)}, expected {QUANT_KEYS}")
        section = _build(QuantSection, quant, "quant")
        quant = (section.bits, section.block_size)
    layout = []
    for name, shape in shapes.items():
        n = math.prod(shape)
        if quant and is_quantized(name):
            arrays = tuple(zip(("<f4", np.uint8), stored_sizes(*quant, n)))
        else:
            arrays = (("<f4", n),)
        layout.append((name, shape, arrays))
    return config, quant, layout


def load_checkpoint(path):
    """Load a checkpoint, reading each array straight into its own buffer."""
    where = os.fspath(path)
    with open(path, "rb") as f:
        if _read(f, 4) != MAGIC:
            raise CheckpointError(f"bad magic in {where!r}: not a checkpoint file")
        version, header_len = struct.unpack("<II", _read(f, 8))
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version} in {where!r} "
                                  f"(expected {VERSION})")
        try:
            header = json.loads(_read(f, header_len).decode("utf-8"))
            config, quant, layout = _layout(header)
        except (ValueError, KeyError, TypeError) as e:
            raise CheckpointError(f"corrupt checkpoint header in {where!r}: {e}") from e
        # checked before allocating, so a corrupt config cannot ask for huge arrays
        want = sum(np.dtype(dtype).itemsize * n for *_, arrays in layout for dtype, n in arrays)
        got = os.fstat(f.fileno()).st_size - f.tell()
        if got != want:
            what = "truncated" if got < want else "trailing bytes in"
            raise CheckpointError(f"{what} checkpoint {where!r}: {got} bytes after "
                                  f"the header, its config lays out {want}")
        params = {}
        for name, shape, arrays in layout:
            data = [_read_array(f, n, dtype) for dtype, n in arrays]
            params[name] = (QuantizedTensor(*quant, shape, *data) if len(data) == 2
                            else Tensor(data[0].reshape(shape)))
    model = (QuantizedModel if quant else PolicyModel)(config, params)
    return LoadedCheckpoint(model, header["meta"])
