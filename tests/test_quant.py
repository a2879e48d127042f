import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlrc import checkpoint, kernels
from rlrc.checkpoint import save_checkpoint
from rlrc.model import ModelConfig, fast_logits_last, forward, init_model
from rlrc.quant import (
    QuantError,
    QuantizedModel,
    dequantize,
    dequantize_model,
    memory_bytes,
    pack4,
    qmatmul,
    quantize_model,
    quantize_tensor,
    unpack4,
)
from rlrc.tensor import GradError, ShapeError, Tensor, no_grad


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
    codes = unpack4(qt.packed, 4)
    np.testing.assert_array_equal(codes, [7, 3, -3, 0])


def test_rejects_non_finite():
    with pytest.raises(QuantError):
        quantize_tensor(np.array([1.0, np.nan]), 4)
    with pytest.raises(QuantError):
        quantize_tensor(np.array([np.inf]), 8)


def test_rejects_bad_bits_and_block():
    with pytest.raises(QuantError):
        quantize_tensor(np.ones(4), 3)
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
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 64, 101):
        codes = rng.integers(-7, 8, size=n).astype(np.int8)
        np.testing.assert_array_equal(unpack4(pack4(codes), n), codes)


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
    qt = quantize_tensor(np.ones(64, dtype=np.float32), 4, 64)
    qt.packed = qt.packed[:-1]
    with pytest.raises(QuantError, match="corrupted"):
        dequantize(qt)


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


def test_qmatmul_zero_activations():
    qt = quantize_tensor(np.ones((8, 8), dtype=np.float32), 4, 8)
    out = qmatmul(qt, np.zeros((3, 8), dtype=np.float32))
    np.testing.assert_array_equal(out, np.zeros((3, 8), dtype=np.float32))


def test_qmatmul_shape_mismatch():
    qt = quantize_tensor(np.ones((8, 8), dtype=np.float32), 4, 8)
    with pytest.raises(QuantError, match="mismatch"):
        qmatmul(qt, np.zeros((3, 9), dtype=np.float32))


def test_qmatmul_transient_buffer_one_tile():
    # qmatmul dequantizes one tile of whole rows at a time; audit it on a
    # weight of several tiles whose tiles start mid-byte and mid-block
    k, n = 700, 49
    sizes = []
    kernels.set_alloc_hook(sizes.append)
    try:
        rng = np.random.default_rng(6)
        qt = quantize_tensor(rng.standard_normal((k, n)).astype(np.float32), 4, 16)
        qmatmul(qt, rng.standard_normal((5, k)).astype(np.float32))
    finally:
        kernels.set_alloc_hook(None)
    assert len(sizes) > 1 and sum(sizes) == k * n
    assert max(sizes) <= max(kernels._TILE_VALUES, n) and max(sizes) < k * n


def test_quantize_model_shapes_and_idempotence():
    m = tiny_model(seed=7)
    qm = quantize_model(m, 4, 16)
    ctx = np.array([[1, 2, 3, m.config.bos_action_id]])
    logits = qm.logits_last(ctx)
    assert logits.shape == (1, m.config.action_vocab)
    qm2 = quantize_model(dequantize_model(qm), 4, 16)
    for (n, a), (_, b) in zip(qm.named_quant_tensors(), qm2.named_quant_tensors()):
        np.testing.assert_array_equal(a.packed, b.packed, err_msg=n)


def test_quantized_forward_close_to_dense():
    m = tiny_model(seed=8)
    qm = quantize_model(m, 8, 32)
    ctx = np.array([[1, 2, 3, 4, m.config.bos_action_id]] * 3)
    dense = fast_logits_last(m, ctx)
    quant = qm.logits_last(ctx)
    assert np.abs(dense - quant).max() < 0.15  # 8-bit stays close
    # the quantized forward is the dense forward of the dequantized weights
    assert np.abs(quant - fast_logits_last(dequantize_model(qm), ctx)).max() < 1e-4


def test_quantized_forward_serves_under_no_grad():
    m = tiny_model(seed=6)
    qm = quantize_model(m, 4, 16)
    ref = dequantize_model(qm)
    ctx = np.array([[1, 2, 3, 4, m.config.bos_action_id]] * 2)
    with no_grad():
        logits, hidden = forward(qm, ctx)
        ref_logits, ref_hidden = forward(ref, ctx)
    assert not logits.requires_grad
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
    cp.tok_emb.data[:] = 0.0
    assert np.any(qm.tok_emb.data)


def test_quantized_decode_validates_tokens():
    m = tiny_model(seed=8)
    qm = quantize_model(m, 4, 16)
    with pytest.raises(IndexError):
        qm.logits_last(np.array([[1, 2, -1, m.config.bos_action_id]]))
    with pytest.raises(ShapeError):
        qm.logits_last(np.ones((1, m.config.max_seq_len + 1), dtype=np.int64))


def test_memory_bytes_formulas():
    n = 4096
    w = np.random.default_rng(0).standard_normal(n).astype(np.float32).reshape(64, 64)
    qt4 = quantize_tensor(w, 4, 64)
    assert qt4.packed_bytes() == n // 2 == 2048
    assert qt4.scales_bytes() == (n // 64) * 4 == 256
    assert (n * 4) / (qt4.packed_bytes() + qt4.scales_bytes()) == pytest.approx(16384 / 2304)
    qt8 = quantize_tensor(w, 8, 64)
    assert qt8.packed_bytes() == n
    assert qt8.scales_bytes() == 256


def test_memory_dense_formula():
    m = tiny_model()
    mem = memory_bytes(m)
    assert mem["weights_bytes"] == m.num_params() * 4
    assert mem["scales_bytes"] == 0
    assert mem["total_bytes"] == mem["weights_bytes"]


def weight_payload_bytes(path):
    """Raw tensor payload bytes of a checkpoint (names and headers excluded),
    read from the file as `memory_bytes` would count them."""
    with open(path, "rb") as fh:
        f = io.BytesIO(fh.read())
    assert checkpoint._read(f, 4) == checkpoint.MAGIC
    checkpoint._r_u32(f)
    checkpoint._read(f, checkpoint._r_u32(f))
    weights = scales = 0
    for _ in range(checkpoint._r_u32(f)):
        _, (kind, payload) = checkpoint._read_entry(f)
        if kind == "dense":
            weights += payload.nbytes
        else:
            weights += payload.packed.nbytes
            scales += payload.scales.nbytes
    return {"weights_bytes": weights, "scales_bytes": scales, "total_bytes": weights + scales}


def test_memory_reconciles_with_serialized_payload(tmp_path):
    m = tiny_model(seed=9)
    for target, name in ((m, "dense.ckpt"), (quantize_model(m, 4, 16), "q.ckpt")):
        path = tmp_path / name
        save_checkpoint(target, path)
        assert weight_payload_bytes(path) == memory_bytes(target)


def test_odd_sized_matrix_padding():
    # n not divisible by block or by 2: ceil rules apply
    w = np.random.default_rng(1).standard_normal((5, 7)).astype(np.float32)
    qt = quantize_tensor(w, 4, 16)
    assert qt.packed_bytes() == (35 + 1) // 2
    assert qt.scales.size == -(-35 // 16)
    np.testing.assert_allclose(dequantize(qt), w, atol=float(qt.scales.max()) / 2 + 1e-6)
