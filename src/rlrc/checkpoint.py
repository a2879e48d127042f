"""Binary checkpoint container.

Layout: magic "RLRC", version u32, header length u32, a JSON header
(config, meta, quant: the bits and block size of a quantized model,
has_value_head, and tensors: the parameter names in file order), then
the raw little-endian arrays of every parameter in `named_params` order,
the model's and then the value head's: a Tensor's float32 data, a
QuantizedTensor's float32 scales and then its code bytes.  The header is
the one statement of the layout: the config fixes every shape
(``model.param_shapes``) and ``quant.stored_sizes`` the lengths of a
quantized weight's arrays, so saving rejects by name a tensor that
differs from them.  Round-trips are bit-exact.

Saving writes a temp file next to the target and renames it into place,
so a crash never leaves a truncated checkpoint at the target path.
Loading is strict: a missing, repeated or unexpected tensor name is an
error that names the tensor, and a payload of another size than the
header lays out one that names the file, raised before any allocation.
The value head takes the ``value_head.*`` tensors and the model the rest,
each constructor checking that it got exactly its own names.
"""

import json
import math
import os
import struct
from collections import namedtuple

import numpy as np

from .model import ModelConfig, PolicyModel, ValueHead, param_shapes, value_head_shapes
from .quant import QuantError, QuantizedModel, QuantizedTensor, is_quantized, stored_sizes
from .tensor import Tensor

MAGIC = b"RLRC"
VERSION = 2


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


def save_checkpoint(model, path, value_head=None, meta=None):
    """Serialize a model (plus optional value head).  Every tensor must be
    as the header lays it out: of its config's shape and, if the model is
    quantized, a decoder matrix at the bits and block size of the first."""
    entries = list(model.named_params())
    shapes = param_shapes(model.config)
    if value_head is not None:
        entries.extend(value_head.named_params())
        shapes.update(value_head_shapes(model.config.d_model))
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
        "has_value_head": value_head is not None,
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


LoadedCheckpoint = namedtuple("LoadedCheckpoint", "model value_head meta")


def _layout(header):
    """The config and quant format a header states and, in file order,
    each tensor's name, shape and arrays as (dtype, count) pairs."""
    config = ModelConfig.from_dict(header["config"])
    shapes = param_shapes(config)
    if header["has_value_head"]:
        shapes.update(value_head_shapes(config.d_model))
    seen = set()
    for name in header["tensors"]:
        if name in seen or name not in shapes:
            what = "repeats" if name in seen else "has unexpected"
            raise CheckpointError(f"checkpoint {what} tensor {name}")
        seen.add(name)
    missing = [name for name in shapes if name not in seen]
    if missing:
        raise CheckpointError(f"checkpoint missing tensor {missing[0]}")
    quant = header["quant"] and (header["quant"]["bits"], header["quant"]["block_size"])
    if quant and not isinstance(quant[1], int):
        raise TypeError(f"quant block_size {quant[1]!r} is not an int")
    layout = []
    for name in header["tensors"]:
        n = math.prod(shapes[name])
        if quant and is_quantized(name):
            # a QuantError (a ValueError) here names unusable bits or block size
            arrays = tuple(zip(("<f4", np.uint8), stored_sizes(*quant, n)))
        else:
            arrays = (("<f4", n),)
        layout.append((name, shapes[name], arrays))
    return config, quant, layout


def load_checkpoint(path):
    """Load a checkpoint, reading each array straight into its own buffer."""
    with open(path, "rb") as f:
        if _read(f, 4) != MAGIC:
            raise CheckpointError(f"bad magic in {path!r}: not a checkpoint file")
        version, header_len = struct.unpack("<II", _read(f, 8))
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version} (expected {VERSION})")
        try:
            header = json.loads(_read(f, header_len).decode("utf-8"))
            config, quant, layout = _layout(header)
        except (ValueError, KeyError, TypeError) as e:
            raise CheckpointError(f"corrupt checkpoint header: {e}") from e
        # checked before allocating, so a corrupt config cannot ask for huge arrays
        want = sum(np.dtype(dtype).itemsize * n for *_, arrays in layout for dtype, n in arrays)
        got = os.fstat(f.fileno()).st_size - f.tell()
        if got != want:
            what = "truncated" if got < want else "trailing bytes in"
            raise CheckpointError(f"{what} checkpoint {os.fspath(path)!r}: {got} bytes after "
                                  f"the header, its config lays out {want}")
        params = {}
        for name, shape, arrays in layout:
            data = [_read_array(f, n, dtype) for dtype, n in arrays]
            try:
                params[name] = (QuantizedTensor(*quant, shape, *data) if len(data) == 2
                                else Tensor(data[0].reshape(shape)))
            except QuantError as e:
                raise CheckpointError(f"quantized tensor {name} {e}") from e
    head = value_head_shapes(config.d_model) if header["has_value_head"] else {}
    value_head = ValueHead({name: params.pop(name) for name in head}) if head else None
    model = (QuantizedModel if quant else PolicyModel)(config, params)
    return LoadedCheckpoint(model, value_head, header["meta"])
