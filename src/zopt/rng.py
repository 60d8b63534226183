"""Counter-based random substreams.

Every draw in this package is reproducible from a 64-bit root seed and a
counter in [0, 2**64): substream(seed, k) always yields the same sequence, and
distinct counters yield statistically independent streams.  Parallel workers
therefore only need disjoint counter ranges, never shared RNG state.

Implemented on top of the Philox counter-based generator: substream k starts
the 256-bit Philox counter at k * 2**64, leaving 2**64 blocks of room per
substream.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

__all__ = ["substream", "SubstreamSampler"]

_COUNTER_STRIDE_BITS = 64


def _check_u64(value, name: str) -> int:
    """value as a Python int in [0, 2**64); a float or other non-integer raises."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value!r}") from None
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value}")
    return value


def _check_count(value, name: str, low: int) -> int:
    """value as a Python int >= low; a float or other non-integer raises."""
    try:
        count = operator.index(value)
    except TypeError:
        count = low - 1  # refused below, as an integer out of range is
    if count < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return count


def _check_real(value, name: str, positive: bool = True) -> float:
    """value as a finite float, > 0 when positive else >= 0; a str or None raises."""
    try:
        real = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int past the largest float
        real = math.inf
    if not (math.isfinite(real) and (real > 0 if positive else real >= 0)):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be {kind} and finite, got {value!r}")
    return real


def substream(seed: int, counter: int = 0) -> np.random.Generator:
    """Generator for substream `counter` of the stream rooted at `seed`."""
    seed = _check_u64(seed, "seed")
    counter = _check_u64(counter, "counter")
    bitgen = np.random.Philox(key=seed, counter=counter << _COUNTER_STRIDE_BITS)
    return np.random.Generator(bitgen)


class SubstreamSampler:
    """Reusable sampler for hot loops.

    standard_normal(counter, size) starts substream(seed, counter) afresh,
    without the cost of constructing a Generator, unless counter is the
    previous call's: then it reads on where that call stopped, so the
    stacked draws of consecutive calls are bit for bit those of one call
    that draws them all.  Not thread-safe; each worker should own its own
    instance.
    """

    def __init__(self, seed: int):
        self._bitgen = np.random.Philox(key=_check_u64(seed, "seed"))
        self._gen = np.random.Generator(self._bitgen)
        # the fresh state of substream 0; a reset rewrites only counter word
        # 1 (substream k starts at k * 2**64) and assigns this same dict back.
        # Its uint64 arrays are held as lists of Python ints, which the state
        # setter reads about four times faster.
        self._state = self._bitgen.state
        self._state["state"] = {k: v.tolist() for k, v in self._state["state"].items()}
        self._state["buffer"] = self._state["buffer"].tolist()
        self._counter = self._state["state"]["counter"]
        self._previous = None

    def standard_normal(self, counter: int, size) -> np.ndarray:
        counter = _check_u64(counter, "counter")
        if counter != self._previous:
            self._counter[1] = counter
            self._bitgen.state = self._state
            self._previous = counter
        return self._gen.standard_normal(size)
