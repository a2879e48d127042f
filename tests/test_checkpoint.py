import io
import json
import os
import re
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlrc import checkpoint, model as model_module
from rlrc.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from rlrc.model import ModelConfig, PolicyModel, fast_logits_last, forward, init_model
from rlrc.quant import QuantizedModel, QuantizedTensor, memory_bytes, quantize_model
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
                      n_heads=[2, 1, 2], d_ff=[24, 7, 24], seed=0)
    m = init_model(cfg)
    path = tmp_path / "p.ckpt"
    save_checkpoint(m, path)
    loaded = load_checkpoint(path)
    assert loaded.model.config.n_heads == [2, 1, 2]
    assert loaded.model.config.d_ff == [24, 7, 24]
    assert dict(loaded.model.named_params())["layers.1.wup"].data.shape == (16, 7)


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
    dense, quant = tmp_path / "d.ckpt", tmp_path / "q.ckpt"
    save_checkpoint(m, dense)
    save_checkpoint(quantize_model(m, 4, 16), quant)

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint initialised a model")

    monkeypatch.setattr(model_module, "init_model", refuse)
    monkeypatch.setattr(checkpoint, "init_model", refuse, raising=False)
    loaded = load_checkpoint(dense)
    for (name, a), (_, b) in zip(m.named_params(), loaded.model.named_params()):
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
    # version 1 wrote a record per tensor, version 2 a value head after the
    # model's arrays; 99 was never written
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    for version in (1, 2, 99):
        save_checkpoint(m, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"version {version} in .*m.ckpt"):
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
        with pytest.raises(CheckpointError, match=f"unknown key.*'{key}'"):
            load_checkpoint(path)
    # a config no model has, whose position table would have a negative size
    save_checkpoint(m, path)
    rewrite_header(path, lambda h: h["config"].update(max_seq_len=-1))
    with pytest.raises(CheckpointError, match="corrupt checkpoint header in .*m.ckpt.*: "
                                              ".*max_seq_len=-1"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, what", [
    (lambda h: h.pop("meta"), re.escape("header keys ['config', 'quant', 'tensors']")),
    (lambda h: h.update(meta=[1]), re.escape("meta must be an object, got [1]")),
    (lambda h: h.update(has_value_head=False), "header keys .*'has_value_head'"),
    (lambda h: h.update(tensors="tok_emb"), "tensors must be a list"),
], ids=["no-meta", "list-meta", "value-head-flag", "string-tensors"])
def test_header_keys_and_meta_checked(tmp_path, edit, what):
    # the header holds exactly its four keys, and meta is an object: the
    # loader fails on the header, naming the file, before reading an array
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model(), path, meta={"stage": "dense"})
    rewrite_header(path, edit)
    with pytest.raises(CheckpointError, match=f"corrupt checkpoint header in .*m.ckpt.*: {what}"):
        load_checkpoint(path)


@pytest.mark.parametrize("field, value, what", [
    ("d_model", 16.0, "d_model must be an int, got 16.0"),
    ("n_heads", [2.0, 2], "n_heads must be a list of ints, got [2.0, 2]"),
    ("seed", 1.5, "seed must be an int, got 1.5"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("d_ff", None, "d_ff must be a list of ints, got None"),
])
def test_header_config_read_by_the_config_rules(tmp_path, field, value, what):
    # the header's config is checked as a run's model section is
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model(), path)
    rewrite_header(path, lambda h: h["config"].update({field: value}))
    with pytest.raises(CheckpointError, match=re.escape(f"bad values in section model: {what}")):
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


def _swap(names, i, j):
    names[i], names[j] = names[j], names[i]


@pytest.mark.parametrize("edit, want", [
    (lambda names: names.insert(3, "layers.9.wq"),
     "tensor 3 is 'layers.9.wq', its config lays out 'layers.0.wk'"),
    (lambda names: names.remove("layers.1.wk"),
     "tensor 12 is 'layers.1.wv', its config lays out 'layers.1.wk'"),
    # a repeated name would replace the first and leave no tensor over
    (lambda names: names.append("tok_emb"), "tensor 22 is 'tok_emb', its config lays out None"),
    (lambda names: _swap(names, 1, 2), "tensor 1 is 'layers.0.wq', its config lays out 'pos_emb'"),
], ids=["unknown", "missing", "repeated", "reordered"])
def test_load_rejects_a_tensor_list_its_config_does_not_lay_out(tmp_path, edit, want):
    # one rule: the header's names equal param_shapes' in order, and the
    # error names the first position that differs
    for m in (tiny_model(), quantize_model(tiny_model(), 4, 16)):
        save_checkpoint(m, tmp_path / "x.ckpt")
        rewrite_header(tmp_path / "x.ckpt", lambda h: edit(h["tensors"]))
        with pytest.raises(CheckpointError, match="corrupt checkpoint header in .*x.ckpt.*: "
                                                  + re.escape(want)):
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
    # the quant format is read by the rules of a run's quant section, and
    # both its keys, nothing else, are required
    save_checkpoint(quantize_model(tiny_model(), 4, 16), tmp_path / "q.ckpt")
    for quant, what in (({"bits": 5, "block_size": 16}, "bits must be one of .*got 5"),
                        ({"bits": 4, "block_size": 0}, "block_size must be >= 1, got 0"),
                        ({"bits": 4, "block_size": 16.0},
                         re.escape("bad values in section quant: block_size must be an int, "
                                   "got 16.0")),
                        ({"bits": 4.0, "block_size": 16},
                         re.escape("bad values in section quant: bits must be an int, got 4.0")),
                        ({"bits": 4, "block_size": 16, "junk": 1},
                         re.escape("quant keys ['bits', 'block_size', 'junk'], expected "
                                   "['bits', 'block_size']")),
                        ({}, re.escape("quant keys [], expected ['bits', 'block_size']"))):
        rewrite_header(tmp_path / "q.ckpt", lambda h: h.update(quant=quant))
        with pytest.raises(CheckpointError, match=f"corrupt checkpoint header in .*q.ckpt.*: "
                                                  f".*{what}"):
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
    random block size."""
    heads_base = draw(st.integers(1, 3))
    n_layers = draw(st.integers(1, 3))
    layer_ints = lambda hi: st.lists(st.integers(1, hi), min_size=n_layers, max_size=n_layers)
    cfg = ModelConfig(d_model=heads_base * draw(st.integers(1, 4)), n_layers=n_layers,
                      n_heads_base=heads_base, d_ff_base=8,
                      observation_vocab=draw(st.integers(1, 6)),
                      action_vocab=draw(st.integers(1, 4)), max_seq_len=draw(st.integers(1, 5)),
                      n_heads=draw(layer_ints(heads_base)), d_ff=draw(layer_ints(8)),
                      seed=draw(st.integers(0, 99)))
    model = init_model(cfg)
    bits = draw(st.sampled_from([None, 4, 8]))
    if bits:
        model = quantize_model(model, bits, draw(st.integers(1, 40)))
    return model


@settings(max_examples=50, deadline=None)
@given(saved_models(), st.data())
def test_roundtrip_and_damage_property(model, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        save_checkpoint(model, path, meta={"k": 1})
        loaded = load_checkpoint(path)
        assert type(loaded.model) is type(model)
        assert loaded.model.config == model.config and loaded.meta == {"k": 1}
        for (name, a, fa), (_, b, fb) in zip(_params(model), _params(loaded.model), strict=True):
            assert fa == fb, name
            for x, y in zip(a, b, strict=True):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name

        with open(path, "rb") as f:
            raw = f.read()
        # the payload is the model's arrays alone
        assert len(raw) - 12 - struct.unpack("<I", raw[8:12])[0] == \
            memory_bytes(model)["total_bytes"]
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        extra = data.draw(st.binary(min_size=1, max_size=64), label="extra")
        for damaged in (raw[:cut], raw + extra):
            with open(path, "wb") as f:
                f.write(damaged)
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
