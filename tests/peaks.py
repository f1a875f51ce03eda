"""Traced memory peaks of test calls, in n x n float64 arrays."""

import tracemalloc


def traced_peak(fn, n: int) -> float:
    """Traced high-water mark of fn(), over the level before the call, in
    n x n float64 arrays; what fn returns is dropped."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / (8 * n * n)
