import numpy as np
import pytest

from rlrc import kernels


pytestmark = pytest.mark.skipif(
    kernels.backend() != "numba", reason="numba backend unavailable; nothing to compare"
)


@pytest.fixture
def both_backends():
    prev = kernels.backend()
    yield
    kernels.set_backend(prev)


def _run_both(fn):
    kernels.set_backend("numba")
    a = fn()
    kernels.set_backend("numpy")
    b = fn()
    return a, b


def test_attn_block_backends_agree(both_backends):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 5, 16)).astype(np.float32)
    gain = rng.uniform(0.5, 1.5, 16).astype(np.float32)
    w = (rng.standard_normal((16, 16)) / 4).astype(np.float32)
    wo = (rng.standard_normal((16, 16)) / 4).astype(np.float32)
    a, b = _run_both(lambda: kernels.attn_block(x, gain, w, w.copy(), w.copy(), wo, 2, 8))
    assert np.abs(a - b).max() < 1e-5


def test_mlp_block_backends_agree(both_backends):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 5, 16)).astype(np.float32)
    gain = np.ones(16, dtype=np.float32)
    wup = (rng.standard_normal((16, 24)) / 4).astype(np.float32)
    wdown = (rng.standard_normal((24, 16)) / 4).astype(np.float32)
    a, b = _run_both(lambda: kernels.mlp_block(x, gain, wup, wup.copy(), wdown))
    assert np.abs(a - b).max() < 1e-5


def test_gae_backends_bitwise_equal(both_backends):
    rng = np.random.default_rng(3)
    rewards = rng.random((4, 32))
    values = rng.random((4, 32))
    dones = (rng.random((4, 32)) < 0.1).astype(np.float64)
    nv = rng.random(4)
    a, b = _run_both(lambda: kernels.gae_scan(rewards, values, dones, nv, 0.97, 0.9))
    np.testing.assert_array_equal(a, b)


def test_set_backend_validation():
    with pytest.raises(ValueError):
        kernels.set_backend("cuda")


def test_warmup_smoke(both_backends):
    kernels.set_backend("numba")
    kernels.warmup()
