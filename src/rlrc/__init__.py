"""rlrc: structured pruning, SFT+PPO recovery, and blockwise quantization
for a small decoder-only transformer policy, plus a benchmark harness."""

import ctypes

__version__ = "0.1.0"

# glibc's heap, pinned once for every entry point.  By default glibc maps
# each allocation over a dynamic threshold (128 KiB at first) fresh and
# trims freed memory at the top of the heap, so every call of a kernel
# whose temporaries are MiBs takes a page fault on each of their pages
# again: 1,120 per dense B=64 `kernels.mlp_block` call, about 40k per
# Taylor scoring of 256 rows.  Setting either parameter switches the dynamic
# threshold off, so both are set: the trim threshold alone leaves every
# array over 128 KiB mmapped (still 1,797 faults per `mlp_block` call).
# 32 MiB is glibc's ceiling for M_MMAP_THRESHOLD on 64-bit.  The trade is
# that freed pages stay with the process, so RSS stays at its high-water
# mark: perfbench control-q4 `peak_rss_mb` reads about 2.9% higher.
# Only which pages back each array changes, never its values.  Importing
# numpy here would defeat RLRC_THREADS, so only ctypes is used.
_HEAP_PARAMS = (("M_MMAP_THRESHOLD", -3, 32 << 20), ("M_TRIM_THRESHOLD", -1, 1 << 30))


def _pin_heap():
    """Apply `_HEAP_PARAMS` through glibc's mallopt; returns what was done."""
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # present in glibc alone
        mallopt = libc.mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: CDLL(None) on Windows
        return "not pinned: no glibc mallopt"
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for name, param, value in _HEAP_PARAMS:
        if mallopt(param, value) != 1:
            return f"not pinned: mallopt({name}, {value}) refused"
    return " ".join(f"{name}={value}" for name, _, value in _HEAP_PARAMS)


# the settings applied, or why none were; bench reports record it
HEAP_PIN = _pin_heap()
