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
    """value as a Python int in [0, 2**64); a bool, float or other non-integer raises."""
    try:
        index = operator.index(value)
    except TypeError:
        index = -1  # refused below, as an integer out of range is
    if 0 <= index < 2**64 and type(value) is not bool:
        return index
    raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value!r}")


def _check_count(value, name: str, low: int) -> int:
    """value as a Python int in [low, 2**53] (each exact as a float, so no
    formula overflows converting it); a bool, float or other non-integer raises."""
    try:
        count = operator.index(value)
    except TypeError:
        count = low - 1  # refused below, as an integer out of range is
    if low <= count <= 2**53 and type(value) is not bool:
        return count
    limit = "<= 2**53" if count > 2**53 else f">= {low}"
    raise ValueError(f"{name} must be an integer {limit}, got {value!r}")


def _check_real(value, name: str, positive: bool = True) -> float:
    """value as a finite float, > 0 when positive else >= 0; a bool, str or None raises."""
    is_real = isinstance(value, numbers.Real) and type(value) is not bool
    try:
        real = float(value) if is_real else math.nan
    except OverflowError:  # an int past the largest float
        real = math.inf
    if not (math.isfinite(real) and (real > 0 if positive else real >= 0)):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be {kind} and finite, got {value!r}")
    return real


class _ClosedFormError(ValueError):
    """A closed form with no value of its kind: args are (what, inputs).
    Its message names the inputs as the library's arguments; renamed(names)
    names them as the caller's (a CLI's flags, say)."""

    def __str__(self) -> str:
        return self.renamed({})

    def renamed(self, names: dict[str, str]) -> str:
        what, inputs = self.args
        named = ", ".join(f"{names.get(name, name)}={arg!r}" for name, arg in inputs.items())
        return f"{named} give no {what}"


def _closed_form(what: str, formula, _positive: bool = False, **inputs) -> float:
    """formula() as a finite float, > 0 with _positive; else one
    _ClosedFormError naming the inputs.  Float ** and / by an underflowed 0
    raise where the other float operators give inf, so each overflow ends
    here."""
    try:
        value = float(formula())
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not (math.isfinite(value) and (value > 0 or not _positive)):
        kind = "positive finite" if _positive else "finite"
        raise _ClosedFormError(f"{kind} {what}", inputs)
    return value


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

    def standard_normal(self, counter: int, size=None, out=None) -> np.ndarray:
        """Normals of shape size, or written into out and returned in it.

        out, a writable C-contiguous float64 array, gets the bits a new
        array of its shape would; size, when also given, must be its shape.
        """
        counter = _check_u64(counter, "counter")
        if out is not None and not (
            isinstance(out, np.ndarray)
            and out.dtype == np.float64
            and out.flags.c_contiguous
            and out.flags.writeable
        ):
            raise ValueError("out must be a writable C-contiguous float64 array")
        if counter != self._previous:
            self._counter[1] = counter
            self._bitgen.state = self._state
            self._previous = counter
        return self._gen.standard_normal(size, out=out)
