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

import numpy as np

_COUNTER_STRIDE_BITS = 64


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _check_counter(counter: int) -> int:
    counter = int(counter)
    if not 0 <= counter < 2**64:
        raise ValueError(f"counter must be a 64-bit unsigned integer, got {counter}")
    return counter


def substream(seed: int, counter: int = 0) -> np.random.Generator:
    """Generator for substream `counter` of the stream rooted at `seed`."""
    seed = _check_seed(seed)
    counter = _check_counter(counter)
    bitgen = np.random.Philox(key=seed, counter=counter << _COUNTER_STRIDE_BITS)
    return np.random.Generator(bitgen)


class SubstreamSampler:
    """Reusable sampler for hot loops.

    Produces draws bit-identical to substream(seed, counter) while avoiding
    the per-call cost of constructing a fresh Generator.  Not thread-safe;
    each worker should own its own instance.
    """

    def __init__(self, seed: int):
        self._seed = _check_seed(seed)
        self._bitgen = np.random.Philox(key=self._seed)
        self._gen = np.random.Generator(self._bitgen)
        # the fresh state of substream 0; a reset rewrites only counter word
        # 1 (substream k starts at k * 2**64) and assigns this same dict back.
        # Its uint64 arrays are held as lists of Python ints, which the state
        # setter reads about four times faster.
        self._state = self._bitgen.state
        self._state["state"] = {k: v.tolist() for k, v in self._state["state"].items()}
        self._state["buffer"] = self._state["buffer"].tolist()
        self._counter = self._state["state"]["counter"]

    def standard_normal(self, counter: int, size) -> np.ndarray:
        self._counter[1] = _check_counter(counter)
        self._bitgen.state = self._state
        return self._gen.standard_normal(size)


class SubstreamReader:
    """One substream, read on from call to call.

    The draws of consecutive calls, stacked, are bit for bit those of one
    call on substream(seed, counter) that draws them all.  A call for any
    other counter raises.
    """

    def __init__(self, seed: int, counter: int):
        self._counter = _check_counter(counter)
        self._gen = substream(seed, self._counter)

    def standard_normal(self, counter: int, size) -> np.ndarray:
        if counter != self._counter:
            raise ValueError(
                f"this reader continues substream {self._counter}, not {counter}"
            )
        return self._gen.standard_normal(size)
