import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlrc import kernels, quant
from rlrc.checkpoint import save_checkpoint
from rlrc.model import ModelConfig, fast_logits_last, forward, init_model
from rlrc.quant import (
    Q_MAX,
    QuantError,
    QuantizedModel,
    QuantizedTensor,
    dequantize,
    dequantize_model,
    memory_bytes,
    pack4,
    qmatmul,
    quantize_model,
    quantize_tensor,
)
from rlrc.tensor import GradError, ShapeError, Tensor, backward, fused, no_grad


def tiny_model(seed=0):
    cfg = ModelConfig(d_model=16, n_layers=2, n_heads_base=2, d_ff_base=24,
                      observation_vocab=12, action_vocab=6, max_seq_len=16, seed=seed)
    return init_model(cfg)


def test_all_zero_block():
    qt = quantize_tensor(np.zeros(64, dtype=np.float32), 4, 64)
    assert np.all(qt.scales == 1.0)
    np.testing.assert_array_equal(dequantize(qt), np.zeros(64, dtype=np.float32))


def test_representable_values_roundtrip_exact():
    vals = np.arange(-3.5, 3.51, 0.5, dtype=np.float32)  # multiples of 0.5
    qt = quantize_tensor(vals, 4, block_size=vals.size)
    assert qt.scales[0] == np.float32(0.5)
    np.testing.assert_array_equal(dequantize(qt), vals)


def test_hand_case_scale_and_error():
    block = np.array([3.5, 1.23] + [0.0] * 62, dtype=np.float32)
    qt = quantize_tensor(block, 4, 64)
    assert qt.scales[0] == np.float32(0.5)
    deq = dequantize(qt)
    assert deq[1] == np.float32(1.0)
    assert abs(float(block[1] - deq[1])) <= 0.25


def test_round_half_away_from_zero():
    block = np.array([7.0, 2.5, -2.5, 0.0], dtype=np.float32)  # s = 1
    qt = quantize_tensor(block, 4, 4)
    assert qt.scales[0] == np.float32(1.0)
    np.testing.assert_array_equal(dequantize(qt), [7, 3, -3, 0])


def test_rejects_non_finite():
    with pytest.raises(QuantError):
        quantize_tensor(np.array([1.0, np.nan]), 4, 64)
    with pytest.raises(QuantError):
        quantize_tensor(np.array([np.inf]), 8, 64)


def test_rejects_bad_bits_and_block():
    with pytest.raises(QuantError):
        quantize_tensor(np.ones(4), 3, 64)
    with pytest.raises(QuantError):
        quantize_tensor(np.ones(4), 4, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([4, 8]), st.integers(1, 96))
def test_error_bound_half_scale(seed, bits, n):
    rng = np.random.default_rng(seed)
    w = (rng.standard_normal(n) * rng.uniform(0.01, 10)).astype(np.float32)
    qt = quantize_tensor(w, bits, 32)
    deq = dequantize(qt)
    scales = qt.scales[np.arange(n) // 32].astype(np.float64)
    err = np.abs(w.astype(np.float64) - deq.astype(np.float64))
    assert np.all(err <= scales / 2 + np.abs(deq) * 1e-6 + 1e-12)


def test_pack_unpack_bit_exact():
    # packed codes decode to themselves under unit scales
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 64, 101):
        codes = rng.integers(-7, 8, size=n).astype(np.int8)
        qt = QuantizedTensor(4, 64, (n,), np.ones(-(-n // 64), np.float32), pack4(codes))
        np.testing.assert_array_equal(dequantize(qt), codes)


def test_quantize_idempotent_codes():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((24, 16)).astype(np.float32)
    for bits in (4, 8):
        q1 = quantize_tensor(w, bits, 16)
        q2 = quantize_tensor(dequantize(q1), bits, 16)
        np.testing.assert_array_equal(q1.packed, q2.packed)


def test_eight_bit_error_below_four_bit():
    rng = np.random.default_rng(4)
    w = rng.standard_normal(256).astype(np.float32)
    e4 = np.abs(w - dequantize(quantize_tensor(w, 4, 64))).reshape(4, 64).max(axis=1)
    e8 = np.abs(w - dequantize(quantize_tensor(w, 8, 64))).reshape(4, 64).max(axis=1)
    assert np.all(e8 <= e4)


def test_corrupted_pack_rejected():
    # a QuantizedTensor checks its layout when built, naming the bad field
    qt = quantize_tensor(np.ones(64, dtype=np.float32), 4, 16)
    for bits, block, scales, packed, field in ((3, 16, qt.scales, qt.packed, "bits"),
                                               (4, 0, qt.scales, qt.packed, "block_size"),
                                               (4, 16, qt.scales, qt.packed[:-1], "packed"),
                                               (4, 16, qt.scales[:-1], qt.packed, "scales")):
        with pytest.raises(QuantError, match=f"^{field} "):
            QuantizedTensor(bits, block, (64,), scales, packed)


def test_values_of_any_span():
    # spans that start and stop mid-byte and mid-block decode to code *
    # scale, for weights built from the integer codes quantize_tensor
    # rounds them to: each block holds +-q_max, so its scale is exact
    rng = np.random.default_rng(11)
    k, n, block = 7, 9, 16
    n_blocks = -(-k * n // block)
    for bits in (4, 8):
        qmax = Q_MAX[bits]
        codes = rng.integers(-qmax, qmax + 1, size=n_blocks * block)
        codes[::block] = qmax * rng.choice([-1, 1], size=n_blocks)
        scales = np.float32(2.0) ** rng.integers(-6, 3, size=n_blocks)
        w = (codes * np.repeat(scales, block)).astype(np.float32)[:k * n]
        qt = quantize_tensor(w.reshape(k, n), bits, block)
        np.testing.assert_array_equal(qt.scales, scales)
        for start, stop in ((0, k * n), (1, k * n), (3, 20), (15, 33), (17, 18), (16, 48),
                            (31, 31), (62, 63)):
            got = qt.values(start, stop)
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, w[start:stop], err_msg=f"{bits} {start}:{stop}")


def test_qmatmul_matches_dense_dequant():
    # the reference is the exact (float64) product of the same float32
    # operands: a float32 BLAS product rounds by about as much as the bound
    rng = np.random.default_rng(5)
    # (m, k, n, block): a general case; rows starting mid-byte with a block
    # that does not divide n; the 128x1 and 1x128 matrices of a 90%-pruned
    # MLP; weights of several tiles at the rows of a batch-64 decode; tiles
    # starting mid-byte and mid-block
    for m, k, n, block in ((7, 40, 24, 16), (7, 33, 9, 16), (7, 128, 1, 64), (7, 1, 128, 64),
                           (64 * 16, 512, 128, 64), (64 * 16, 128, 512, 64),
                           (7, 700, 49, 16)):
        for bits in (4, 8):
            w = rng.standard_normal((k, n)).astype(np.float32)
            x = rng.standard_normal((m, k)).astype(np.float32)
            qt = quantize_tensor(w, bits, block)
            ref = x.astype(np.float64) @ dequantize(qt).astype(np.float64)
            out = qmatmul(qt, x)
            denom = np.maximum(np.abs(ref), 1e-3)
            err = (np.abs(out - ref) / denom).max()
            assert err < 1e-5, f"{k}x{n} block {block} {bits}-bit: {err:.3g}"


def test_qmatmul_any_activation_layout():
    # Fortran-ordered and strided (sliced-view) activations give exactly the
    # product of a C-ordered copy, on weights of one tile and of several
    rng = np.random.default_rng(8)
    for k, n in ((40, 24), (700, 49)):
        for bits in (4, 8):
            qt = quantize_tensor(rng.standard_normal((k, n)).astype(np.float32), bits, 16)
            wide = rng.standard_normal((14, 2 * k)).astype(np.float32)
            for x in (np.asfortranarray(wide[:7, :k]), wide[::2, ::2], wide[1::2, k:]):
                ref = qmatmul(qt, np.ascontiguousarray(x))
                np.testing.assert_array_equal(qmatmul(qt, x), ref)


def test_qmatmul_zero_activations():
    qt = quantize_tensor(np.ones((8, 8), dtype=np.float32), 4, 8)
    out = qmatmul(qt, np.zeros((3, 8), dtype=np.float32))
    np.testing.assert_array_equal(out, np.zeros((3, 8), dtype=np.float32))


def test_qmatmul_shape_mismatch():
    qt = quantize_tensor(np.ones((8, 8), dtype=np.float32), 4, 8)
    with pytest.raises(QuantError, match="mismatch"):
        qmatmul(qt, np.zeros((3, 9), dtype=np.float32))


def test_qmatmul_transient_buffer_one_tile(monkeypatch):
    # qmatmul dequantizes one tile of whole rows at a time; audit it on a
    # weight of several tiles whose tiles start mid-byte and mid-block
    k, n = 700, 49
    sizes = []
    values = QuantizedTensor.values

    def counted(self, start, stop):
        tile = values(self, start, stop)
        sizes.append(tile.size)
        return tile

    monkeypatch.setattr(QuantizedTensor, "values", counted)
    rng = np.random.default_rng(6)
    qt = quantize_tensor(rng.standard_normal((k, n)).astype(np.float32), 4, 16)
    qmatmul(qt, rng.standard_normal((5, k)).astype(np.float32))
    assert len(sizes) > 1 and sum(sizes) == k * n
    assert max(sizes) <= max(quant._TILE_VALUES, n) and max(sizes) < k * n
    # with more activation rows a tile may grow to the float64 output's own
    # size, m * n values, and no further
    m, k = 1024, 2100
    sizes.clear()
    qt = quantize_tensor(rng.standard_normal((k, n)).astype(np.float32), 4, 16)
    qmatmul(qt, rng.standard_normal((m, k)).astype(np.float32))
    assert len(sizes) > 1 and sum(sizes) == k * n
    assert quant._TILE_VALUES < max(sizes) <= m * n


def test_quantize_model_shapes_and_idempotence():
    m = tiny_model(seed=7)
    qm = quantize_model(m, 4, 16)
    ctx = np.array([[1, 2, 3, m.config.bos_action_id]])
    logits = fast_logits_last(qm, ctx)
    assert logits.shape == (1, m.config.action_vocab)
    qm2 = quantize_model(dequantize_model(qm), 4, 16)
    for (n, a), (_, b) in zip(qm.named_quant_tensors(), qm2.named_quant_tensors()):
        np.testing.assert_array_equal(a.packed, b.packed, err_msg=n)


def test_quantized_forward_close_to_dense():
    m = tiny_model(seed=8)
    qm = quantize_model(m, 8, 32)
    ctx = np.array([[1, 2, 3, 4, m.config.bos_action_id]] * 3)
    dense = fast_logits_last(m, ctx)
    quantized = fast_logits_last(qm, ctx)
    assert np.abs(dense - quantized).max() < 0.15  # 8-bit stays close
    # the quantized forward is the dense forward of the dequantized weights
    assert np.abs(quantized - fast_logits_last(dequantize_model(qm), ctx)).max() < 1e-4


def test_quantized_forward_serves_under_no_grad():
    m = tiny_model(seed=6)
    qm = quantize_model(m, 4, 16)
    ref = dequantize_model(qm)
    ctx = np.array([[1, 2, 3, 4, m.config.bos_action_id]] * 2)
    with no_grad():
        logits, hidden = forward(qm, ctx)
        ref_logits, ref_hidden = forward(ref, ctx)
        with pytest.raises(GradError, match="empty tape"):
            backward(fused(kernels.nll, kernels.nll_backward, (logits,), np.zeros(2, np.int64)))
    assert np.abs(logits.data - ref_logits.data).max() < 1e-5
    assert np.abs(hidden.data - ref_hidden.data).max() < 1e-5


def test_quantized_forward_with_grad_names_the_weight():
    m = tiny_model(seed=6)
    qm = quantize_model(m, 4, 16)
    with pytest.raises(GradError, match=r"layers\.0\.wq .*inference-only"):
        forward(qm, np.array([[1, 2, m.config.bos_action_id]]))


def test_quantized_copy_is_identical_and_independent():
    m = tiny_model(seed=4)
    qm = quantize_model(m, 4, 16)
    cp = qm.copy()
    assert isinstance(cp, QuantizedModel)
    ctx = np.array([[1, 2, 3, 4, m.config.bos_action_id]] * 3)
    np.testing.assert_array_equal(fast_logits_last(cp, ctx), fast_logits_last(qm, ctx))
    for (name, a), (_, b) in zip(qm.named_params(), cp.named_params()):
        if isinstance(a, Tensor):
            assert not np.shares_memory(a.data, b.data), name
    dict(cp.named_params())["tok_emb"].data[:] = 0.0
    assert np.any(dict(qm.named_params())["tok_emb"].data)


def test_quantized_decode_validates_tokens():
    m = tiny_model(seed=8)
    qm = quantize_model(m, 4, 16)
    with pytest.raises(IndexError):
        fast_logits_last(qm, np.array([[1, 2, -1, m.config.bos_action_id]]))
    with pytest.raises(ShapeError):
        fast_logits_last(qm, np.ones((1, m.config.max_seq_len + 1), dtype=np.int64))


def test_memory_bytes_formulas():
    n = 4096
    w = np.random.default_rng(0).standard_normal(n).astype(np.float32).reshape(64, 64)
    qt4 = quantize_tensor(w, 4, 64)
    assert qt4.packed.nbytes == n // 2 == 2048
    assert qt4.scales.nbytes == (n // 64) * 4 == 256
    assert (n * 4) / (qt4.packed.nbytes + qt4.scales.nbytes) == pytest.approx(16384 / 2304)
    qt8 = quantize_tensor(w, 8, 64)
    assert qt8.packed.nbytes == n
    assert qt8.scales.nbytes == 256


def test_memory_dense_formula():
    m = tiny_model()
    mem = memory_bytes(m)
    assert mem["weights_bytes"] == m.num_params() * 4
    assert mem["scales_bytes"] == 0
    assert mem["total_bytes"] == mem["weights_bytes"]


def weight_payload_bytes(path):
    """Bytes after a checkpoint's header: the file less its 12-byte
    preamble (magic, version, header length) and the JSON header."""
    raw = path.read_bytes()
    return len(raw) - 12 - struct.unpack("<I", raw[8:12])[0]


def test_memory_reconciles_with_serialized_payload(tmp_path):
    m = tiny_model(seed=9)
    for target, name in ((m, "dense.ckpt"), (quantize_model(m, 4, 16), "q.ckpt")):
        path = tmp_path / name
        save_checkpoint(target, path)
        assert weight_payload_bytes(path) == memory_bytes(target)["total_bytes"]


def test_odd_sized_matrix_padding():
    # n not divisible by block or by 2: ceil rules apply
    w = np.random.default_rng(1).standard_normal((5, 7)).astype(np.float32)
    qt = quantize_tensor(w, 4, 16)
    assert qt.packed.nbytes == (35 + 1) // 2
    assert qt.scales.size == -(-35 // 16)
    np.testing.assert_allclose(dequantize(qt), w, atol=float(qt.scales.max()) / 2 + 1e-6)
