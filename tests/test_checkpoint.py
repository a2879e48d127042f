import io
import json
import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlrc import checkpoint, model as model_module
from rlrc.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from rlrc.model import (ModelConfig, PolicyModel, fast_logits_last, forward, init_model,
                        init_value_head)
from rlrc.quant import QuantizedModel, QuantizedTensor, quantize_model
from rlrc.tensor import Tensor


def tiny_model(seed=0, **kw):
    base = dict(d_model=16, n_layers=2, n_heads_base=2, d_ff_base=24,
                observation_vocab=12, action_vocab=6, max_seq_len=16, seed=seed)
    base.update(kw)
    return init_model(ModelConfig(**base))


def rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of the checkpoint at ``path`` and
    write it back before the same payload."""
    raw = path.read_bytes()
    n = struct.unpack("<I", raw[8:12])[0]
    header = json.loads(raw[12:12 + n])
    edit(header)
    hb = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(hb)) + hb + raw[12 + n:])


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
    assert dict(loaded.model.named_params())["layers.1.wup"].data.shape == (16, 7)


def test_value_head_roundtrip(tmp_path):
    m = tiny_model()
    vh = init_value_head(m.config.d_model, seed=3)
    path = tmp_path / "v.ckpt"
    save_checkpoint(m, path, value_head=vh, meta={"stage": "rl"})
    loaded = load_checkpoint(path)
    assert loaded.value_head is not None
    for (n, a), (_, b) in zip(vh.named_params(), loaded.value_head.named_params()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=n)


@pytest.mark.parametrize("bits", [None, 4])
def test_value_head_and_model_load_disjoint_tensors(tmp_path, bits):
    # the head takes the value_head.* tensors and the model the rest; each
    # constructor refuses a name that is not its own
    m = tiny_model(seed=4)
    if bits:
        m = quantize_model(m, bits, 16)
    save_checkpoint(m, tmp_path / "v.ckpt", value_head=init_value_head(m.config.d_model))
    loaded = load_checkpoint(tmp_path / "v.ckpt")
    model_names = [n for n, _ in loaded.model.named_params()]
    head_names = [n for n, _ in loaded.value_head.named_params()]
    assert model_names == list(model_module.param_shapes(m.config))
    assert head_names == list(model_module.value_head_shapes(m.config.d_model))
    assert isinstance(loaded.model, QuantizedModel) == bool(bits)
    held = {id(p) for p in loaded.model.params()}
    assert not held & {id(p) for p in loaded.value_head.params()}


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
    np.testing.assert_array_equal(fast_logits_last(qm, ctx),
                                  fast_logits_last(loaded.model, ctx))
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
    # version 1 wrote a record per tensor; 99 was never written
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    for version in (1, 99):
        save_checkpoint(m, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"version {version} "):
            load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError, match="truncated checkpoint .*m.ckpt"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model(), path)
    payload = os.path.getsize(path) - 12 - struct.unpack("<I", path.read_bytes()[8:12])[0]
    with open(path, "ab") as f:
        f.write(b"\xab" * 29)
    with pytest.raises(CheckpointError, match=f"trailing bytes in checkpoint .*m.ckpt.*: "
                                              f"{payload + 29} bytes .* lays out {payload}$"):
        load_checkpoint(path)


def test_oversized_config_rejected_before_allocating(tmp_path):
    # a corrupt config whose arrays need gigabytes fails on the byte count
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model(), path)
    rewrite_header(path, lambda h: h["config"].update(observation_vocab=10 ** 9))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated checkpoint"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


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
        rewrite_header(path, lambda h: h["config"].update({key: 2}))
        with pytest.raises(CheckpointError, match=f"unknown ModelConfig key.*'{key}'"):
            load_checkpoint(path)
    # a config no model has, whose position table would have a negative size
    save_checkpoint(m, path)
    rewrite_header(path, lambda h: h["config"].update(max_seq_len=-1))
    with pytest.raises(CheckpointError, match="corrupt checkpoint header: .*max_seq_len=-1"):
        load_checkpoint(path)


def test_save_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model(seed=1), path)
    before = path.read_bytes()
    calls = []

    class DiskFull(io.FileIO):
        """A file whose second write, the first array's, fails."""

        def write(self, b):
            calls.append(1)
            if len(calls) > 1:
                raise OSError("disk full")
            return super().write(b)

    monkeypatch.setattr(checkpoint, "open", DiskFull, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(tiny_model(seed=2), path)
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


def test_load_rejects_unknown_tensor(tmp_path):
    for m in (tiny_model(), quantize_model(tiny_model(), 4, 16)):
        save_checkpoint(m, tmp_path / "x.ckpt")
        rewrite_header(tmp_path / "x.ckpt", lambda h: h["tensors"].insert(3, "layers.9.wq"))
        with pytest.raises(CheckpointError, match="unexpected tensor layers.9.wq"):
            load_checkpoint(tmp_path / "x.ckpt")


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
    altered = Tensor(dict(m.named_params())["tok_emb"].data + 1.0)
    monkeypatch.setattr(type(m), "named_params",
                        lambda self: iter([*full(self), ("tok_emb", altered)]))
    save_checkpoint(m, tmp_path / "x.ckpt")
    monkeypatch.undo()
    with pytest.raises(CheckpointError, match="repeats tensor tok_emb"):
        load_checkpoint(tmp_path / "x.ckpt")


def test_load_rejects_mismatched_quantized_tensor(tmp_path):
    # arrays of another length than the header lays out change the
    # payload's byte count
    qm = quantize_model(tiny_model(), 4, 16)
    wup = dict(qm.named_params())["layers.0.wup"]
    longer = np.append(wup.packed, wup.packed[:2])
    for field, value, what in (("packed", wup.packed[:-1], "truncated"),
                               ("scales", wup.scales[:-1], "truncated"),
                               ("packed", longer, "trailing bytes in")):
        good = getattr(wup, field)
        setattr(wup, field, value)
        save_checkpoint(qm, tmp_path / "q.ckpt")
        setattr(wup, field, good)
        with pytest.raises(CheckpointError, match=f"{what} checkpoint .*q.ckpt"):
            load_checkpoint(tmp_path / "q.ckpt")


def test_load_rejects_unknown_bits(tmp_path):
    save_checkpoint(quantize_model(tiny_model(), 4, 16), tmp_path / "q.ckpt")
    for quant, what in (({"bits": 5, "block_size": 16}, "bits must be one of .*got 5"),
                        ({"bits": 4, "block_size": 0}, "block_size must be >= 1, got 0"),
                        ({"bits": 4, "block_size": 16.0}, "block_size 16.0 is not an int")):
        rewrite_header(tmp_path / "q.ckpt", lambda h: h.update(quant=quant))
        with pytest.raises(CheckpointError, match=f"corrupt checkpoint header: .*{what}"):
            load_checkpoint(tmp_path / "q.ckpt")


def test_save_rejects_what_the_header_would_misstate(tmp_path):
    # the file holds one bits and block size and the config's shapes, so a
    # tensor that differs from them is refused by name, leaving no file
    qm = quantize_model(tiny_model(), 4, 16)
    wup = dict(qm.named_params())["layers.0.wup"]
    for field, value in (("shape", (24, 16)), ("bits", 8), ("block_size", 32)):
        good = getattr(wup, field)
        setattr(wup, field, value)
        with pytest.raises(CheckpointError, match="cannot save tensor layers.0.wup"):
            save_checkpoint(qm, tmp_path / "q.ckpt")
        setattr(wup, field, good)
    qm = type(qm)(qm.config, {**dict(qm.named_params()),
                              "layers.1.wdown": Tensor(np.zeros((24, 16), np.float32))})
    with pytest.raises(CheckpointError, match="cannot save tensor layers.1.wdown"):
        save_checkpoint(qm, tmp_path / "q.ckpt")
    assert list(tmp_path.iterdir()) == []


def _params(model):
    """(name, arrays, format) of every parameter, as compared bit for bit."""
    for name, p in model.named_params():
        if isinstance(p, QuantizedTensor):
            yield name, (p.scales, p.packed), (p.bits, p.block_size, p.shape)
        else:
            yield name, (p.data,), p.data.shape


@st.composite
def saved_models(draw):
    """A small model of random pruned widths, dense or quantized at a
    random block size, with or without a value head."""
    heads_base = draw(st.integers(1, 3))
    n_layers = draw(st.integers(1, 3))
    layer_ints = lambda hi: st.lists(st.integers(1, hi), min_size=n_layers, max_size=n_layers)
    cfg = ModelConfig(d_model=heads_base * draw(st.integers(1, 4)), n_layers=n_layers,
                      n_heads_base=heads_base, d_ff_base=8,
                      observation_vocab=draw(st.integers(1, 6)),
                      action_vocab=draw(st.integers(1, 4)), max_seq_len=draw(st.integers(1, 5)),
                      n_heads=draw(layer_ints(heads_base)), d_ff=draw(layer_ints(8)))
    model = init_model(cfg, seed=draw(st.integers(0, 99)))
    bits = draw(st.sampled_from([None, 4, 8]))
    if bits:
        model = quantize_model(model, bits, draw(st.integers(1, 40)))
    value_head = init_value_head(cfg.d_model, seed=1) if draw(st.booleans()) else None
    return model, value_head


@settings(max_examples=50, deadline=None)
@given(saved_models(), st.data())
def test_roundtrip_and_damage_property(saved, data):
    model, value_head = saved
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        save_checkpoint(model, path, value_head=value_head, meta={"k": 1})
        loaded = load_checkpoint(path)
        assert type(loaded.model) is type(model)
        assert loaded.model.config == model.config and loaded.meta == {"k": 1}
        for (name, a, fa), (_, b, fb) in zip(_params(model), _params(loaded.model), strict=True):
            assert fa == fb, name
            for x, y in zip(a, b, strict=True):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert (loaded.value_head is None) == (value_head is None)
        if value_head is not None:
            for p, q in zip(value_head.params(), loaded.value_head.params(), strict=True):
                assert p.data.tobytes() == q.data.tobytes()

        with open(path, "rb") as f:
            raw = f.read()
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        extra = data.draw(st.binary(min_size=1, max_size=64), label="extra")
        for damaged in (raw[:cut], raw + extra):
            with open(path, "wb") as f:
                f.write(damaged)
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
