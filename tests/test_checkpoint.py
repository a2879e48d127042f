import json
import struct
import tracemalloc

import numpy as np
import pytest

from rlrc import checkpoint, model as model_module
from rlrc.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from rlrc.model import ModelConfig, PolicyModel, forward, init_model, init_value_head
from rlrc.quant import QuantizedModel, quantize_model
from rlrc.tensor import Tensor


def tiny_model(seed=0, **kw):
    base = dict(d_model=16, n_layers=2, n_heads_base=2, d_ff_base=24,
                observation_vocab=12, action_vocab=6, max_seq_len=16, seed=seed)
    base.update(kw)
    return init_model(ModelConfig(**base))


def test_roundtrip_bit_identical(tmp_path):
    m = tiny_model(seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path, meta={"stage": "dense", "seed": 1})
    loaded = load_checkpoint(path)
    assert loaded.meta == {"stage": "dense", "seed": 1}
    for (name, a), (_, b) in zip(m.named_params(), loaded.model.named_params()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
    ctx = np.array([[1, 2, 3, m.config.bos_action_id]])
    la, _ = forward(m, ctx)
    lb, _ = forward(loaded.model, ctx)
    np.testing.assert_array_equal(la.data, lb.data)


def test_pruned_widths_restored(tmp_path):
    cfg = ModelConfig(d_model=16, n_layers=3, n_heads_base=2, d_ff_base=24,
                      observation_vocab=12, action_vocab=6, max_seq_len=16,
                      n_heads=[2, 1, 2], d_ff=[24, 7, 24])
    m = init_model(cfg, seed=0)
    path = tmp_path / "p.ckpt"
    save_checkpoint(m, path)
    loaded = load_checkpoint(path)
    assert loaded.model.config.n_heads == [2, 1, 2]
    assert loaded.model.config.d_ff == [24, 7, 24]
    assert loaded.model.layers[1].wup.data.shape == (16, 7)


def test_value_head_roundtrip(tmp_path):
    m = tiny_model()
    vh = init_value_head(m.config.d_model, seed=3)
    path = tmp_path / "v.ckpt"
    save_checkpoint(m, path, value_head=vh, meta={"stage": "rl"})
    loaded = load_checkpoint(path)
    assert loaded.value_head is not None
    for (n, a), (_, b) in zip(vh.named_params(), loaded.value_head.named_params()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=n)


@pytest.mark.parametrize("bits", [4, 8])
def test_quantized_roundtrip(tmp_path, bits):
    m = tiny_model(seed=2)
    qm = quantize_model(m, bits=bits, block_size=16)
    path = tmp_path / "q.ckpt"
    save_checkpoint(qm, path, meta={"stage": "quant"})
    loaded = load_checkpoint(path)
    assert isinstance(loaded.model, QuantizedModel)
    assert isinstance(loaded.model, PolicyModel)
    ctx = np.array([[1, 2, 3, m.config.bos_action_id]])
    np.testing.assert_array_equal(qm.logits_last(ctx), loaded.model.logits_last(ctx))
    for (n, a), (_, b) in zip(qm.named_quant_tensors(), loaded.model.named_quant_tensors()):
        assert (b.bits, b.block_size) == (bits, 16), n
        np.testing.assert_array_equal(a.packed, b.packed, err_msg=n)
        np.testing.assert_array_equal(a.scales, b.scales, err_msg=n)


def test_load_builds_no_random_model(tmp_path, monkeypatch):
    m = tiny_model(seed=4, n_heads=[2, 1], d_ff=[24, 5])
    vh = init_value_head(m.config.d_model, seed=5)
    dense, quant = tmp_path / "d.ckpt", tmp_path / "q.ckpt"
    save_checkpoint(m, dense, value_head=vh)
    save_checkpoint(quantize_model(m, 4, 16), quant)

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint initialised a model")

    for name in ("init_model", "init_value_head"):
        monkeypatch.setattr(model_module, name, refuse)
        monkeypatch.setattr(checkpoint, name, refuse, raising=False)
    loaded = load_checkpoint(dense)
    for (name, a), (_, b) in zip(m.named_params(), loaded.model.named_params()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
    for (name, a), (_, b) in zip(vh.named_params(), loaded.value_head.named_params()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
    assert isinstance(load_checkpoint(quant).model, QuantizedModel)


def test_load_reads_each_tensor_once(tmp_path):
    # each tensor is read straight into its final array: no whole-file
    # buffer, no decoded copy, so the peak is about the payload itself
    m = init_model(ModelConfig())
    payload = m.num_params() * 4
    path = tmp_path / "dense.ckpt"
    save_checkpoint(m, path)
    del m
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.model.num_params() * 4 == payload
    assert peak <= 1.25 * payload, peak / payload


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path):
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_corrupt_header_rejected(tmp_path):
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    raw = bytearray(path.read_bytes())
    raw[12] = ord("X")  # clobber the JSON header start
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    # a header naming a config key this version does not have: one never
    # defined, or instruction_vocab, which checkpoints of older versions carry
    for key in ("n_experts", "instruction_vocab"):
        save_checkpoint(m, path)
        raw = path.read_bytes()
        n = struct.unpack("<I", raw[8:12])[0]
        header = json.loads(raw[12:12 + n])
        header["config"][key] = 2
        hb = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<I", len(hb)) + hb + raw[12 + n:])
        with pytest.raises(CheckpointError, match=f"unknown ModelConfig key.*'{key}'"):
            load_checkpoint(path)


def test_save_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model(seed=1), path)
    before = path.read_bytes()
    write_dense = checkpoint._write_dense
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) > 1:
            raise OSError("disk full")
        write_dense(*args)

    monkeypatch.setattr(checkpoint, "_write_dense", failing)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(tiny_model(seed=2), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


def _saved_entries(tmp_path, model, extra=()):
    """Save ``model`` with ``extra`` (name, array) entries appended."""
    path = tmp_path / "x.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    n = struct.unpack("<I", raw[8:12])[0]
    count_at = 12 + n
    count = struct.unpack("<I", raw[count_at:count_at + 4])[0]
    raw[count_at:count_at + 4] = struct.pack("<I", count + len(extra))
    with open(path, "wb") as f:
        f.write(raw)
        for name, arr in extra:
            checkpoint._write_dense(f, name, arr)
    return path


def test_load_rejects_unknown_tensor(tmp_path):
    for m in (tiny_model(), quantize_model(tiny_model(), 4, 16)):
        path = _saved_entries(tmp_path, m, [("layers.9.wq", np.zeros(3, np.float32))])
        with pytest.raises(CheckpointError, match="layers.9.wq"):
            load_checkpoint(path)


def test_load_rejects_missing_tensor(tmp_path, monkeypatch):
    for m in (tiny_model(), quantize_model(tiny_model(), 4, 16)):
        full = type(m).named_params
        monkeypatch.setattr(type(m), "named_params",
                            lambda self: (e for e in full(self) if e[0] != "layers.1.wk"))
        save_checkpoint(m, tmp_path / "x.ckpt")
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="missing tensor layers.1.wk"):
            load_checkpoint(tmp_path / "x.ckpt")


def test_load_rejects_repeated_tensor(tmp_path, monkeypatch):
    # a second entry of one name would replace the first and still leave
    # no tensor over, so it is rejected by name
    m = tiny_model()
    full = type(m).named_params
    altered = Tensor(m.tok_emb.data + 1.0)
    monkeypatch.setattr(type(m), "named_params",
                        lambda self: iter([*full(self), ("tok_emb", altered)]))
    save_checkpoint(m, tmp_path / "x.ckpt")
    monkeypatch.undo()
    with pytest.raises(CheckpointError, match="repeats tensor tok_emb"):
        load_checkpoint(tmp_path / "x.ckpt")


def test_load_rejects_mismatched_quantized_tensor(tmp_path):
    qm = quantize_model(tiny_model(), 4, 16)
    wup = qm.layers[0].wup
    for field, value, what in (("shape", (24, 16), "shape"),
                               ("bits", 8, "bits"),
                               ("block_size", 32, "block size"),
                               ("packed", wup.packed[:-1], "packed size"),
                               ("scales", wup.scales[:-1], "scales size")):
        good = getattr(wup, field)
        setattr(wup, field, value)
        save_checkpoint(qm, tmp_path / "q.ckpt")
        setattr(wup, field, good)
        with pytest.raises(CheckpointError, match=f"layers.0.wup {what}"):
            load_checkpoint(tmp_path / "q.ckpt")


def test_load_rejects_unknown_bits(tmp_path):
    # the header takes its bits from layers.0.wq; a later entry's own bits
    # are checked against it before the entry becomes a QuantizedTensor
    qm = quantize_model(tiny_model(), 4, 16)
    qm.layers[0].wup.bits = 5
    save_checkpoint(qm, tmp_path / "q.ckpt")
    with pytest.raises(CheckpointError, match="layers.0.wup bits 5 != expected 4"):
        load_checkpoint(tmp_path / "q.ckpt")
