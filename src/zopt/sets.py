"""Convex feasible sets with exact Euclidean projection.

Three set kinds are shipped: the whole space, axis-aligned boxes, and
Euclidean balls.  The contract is open: any object with dim, project,
contains, diameter, and sample can be used wherever a FeasibleSet is
expected, as long as project is the exact Euclidean projection.  A config's
[set] spec describes a box, the one kind whose run can be certified.

project accepts arrays of shape (..., dim) and maps points along the last
axis, so Monte Carlo code can project whole batches at once.  contains
takes one point (a bool) or a (k, dim) stack (a bool per row), and
gradient_map takes one point or a stack; the solvers and the verification
checks work on stacks and rely on each row's answer, and each projected
row, being bit for bit that of the row alone.  sample(gen, num) draws num
points as the rows of one array, equal to num single calls and leaving gen
where they would.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import _check_count, _check_real

__all__ = [
    "MEMBERSHIP_TOL",
    "SET_KEYS",
    "FeasibleSet",
    "WholeSpace",
    "Box",
    "Ball",
    "gradient_map",
    "set_from_spec",
    "spec_diameter",
]

# Projections land exactly on boundaries; strict membership tests would flap.
MEMBERSHIP_TOL = 1e-12
# below this norm the squares summed under the root are subnormal or 0
_TINY_NORM = math.sqrt(np.finfo(float).tiny)

# the keys a set spec holds: it describes a box
SET_KEYS = ("kind", "lower", "upper")


class FeasibleSet:
    """Base class: immutable convex set in R^dim with exact projection."""

    kind = "abstract"

    def __init__(self, dim: int):
        self.dim = _check_count(dim, "dim", 1)

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"point has dimension {x.shape[-1]}, set has {self.dim}")
        return x

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x: np.ndarray) -> bool | np.ndarray:
        raise NotImplementedError

    def diameter(self) -> float:
        raise NotImplementedError

    def sample(self, gen: np.random.Generator, num: int | None = None) -> np.ndarray:
        """A random feasible point (distribution is kind-specific).

        With num, a (num, dim) stack whose rows are, bit for bit, num single
        calls in order, and gen is left where those calls would leave it.
        """
        raise NotImplementedError


class WholeSpace(FeasibleSet):
    kind = "whole_space"

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.array(self._check(x), dtype=float)

    def contains(self, x: np.ndarray) -> bool | np.ndarray:
        x = self._check(x)
        return True if x.ndim == 1 else np.ones(x.shape[:-1], dtype=bool)

    def diameter(self) -> float:
        return math.inf

    def sample(self, gen: np.random.Generator, num: int | None = None) -> np.ndarray:
        # one call fills the rows in order, as num calls would
        return gen.standard_normal(self.dim if num is None else (num, self.dim))


class Box(FeasibleSet):
    """Axis-aligned box {x : lower <= x <= upper}, bounds componentwise."""

    kind = "box"

    def __init__(self, lower, upper, dim: int | None = None):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if dim is not None:
            dim = _check_count(dim, "dim", 1)
        if lower.ndim == 0 or upper.ndim == 0:
            if dim is None:
                raise ValueError("dim is required when bounds are scalars")
            lower = np.broadcast_to(lower, (dim,))
            upper = np.broadcast_to(upper, (dim,))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be vectors of equal length")
        if dim is not None and lower.size != dim:
            raise ValueError(f"dim is {dim} but the bounds have length {lower.size}")
        if not np.all(lower < upper):
            raise ValueError("box requires lower < upper componentwise")
        super().__init__(lower.size)
        # read-only copies, so the widened bounds below cannot go stale
        self.lower = np.array(lower)
        self.upper = np.array(upper)
        self.lower.flags.writeable = self.upper.flags.writeable = False
        # (lower, upper, widened lower, widened upper) as vectors for a point
        # and as (1, dim) rows for a stack: a one-row stack (a single solver
        # run) then meets its bounds shape for shape, which numpy runs
        # without its slower broadcasting loop
        bounds = (self.lower, self.upper, self.lower - MEMBERSHIP_TOL, self.upper + MEMBERSHIP_TOL)
        self._bounds = (bounds, tuple(b[None, :] for b in bounds))

    def project(self, x: np.ndarray) -> np.ndarray:
        # equals np.clip bit for bit, without its Python-level dispatch; the
        # second pass reuses the first one's buffer, so a batch costs one copy
        x = self._check(x)
        lower, upper, _, _ = self._bounds[x.ndim > 1]
        y = np.maximum(x, lower)
        return np.minimum(y, upper, out=y)

    def contains(self, x: np.ndarray) -> bool | np.ndarray:
        x = self._check(x)
        _, _, lower, upper = self._bounds[x.ndim > 1]
        inside = ((x >= lower) & (x <= upper)).all(axis=-1)
        return bool(inside) if x.ndim == 1 else inside

    def diameter(self) -> float:
        # the squares overflow before the root does, or underflow: rescale by
        # the largest width then, and only then, so every other norm keeps
        # its bits; a diameter past the largest float is inf, as in plain
        # arithmetic
        with np.errstate(over="ignore"):
            width = self.upper - self.lower
            norm = float(np.linalg.norm(width))
            if not _TINY_NORM <= norm < math.inf and np.isfinite(width).all():
                scale = float(width.max())
                norm = scale * float(np.linalg.norm(width / scale))
        return norm

    def sample(self, gen: np.random.Generator, num: int | None = None) -> np.ndarray:
        # one call fills the rows in order, as num calls would
        return gen.uniform(self.lower, self.upper, None if num is None else (num, self.dim))

    def spec(self) -> dict:
        return {
            "kind": self.kind,
            "lower": ",".join(repr(float(v)) for v in self.lower),
            "upper": ",".join(repr(float(v)) for v in self.upper),
        }


class Ball(FeasibleSet):
    """Euclidean ball {x : ||x - center|| <= radius}."""

    kind = "ball"

    def __init__(self, center, radius: float):
        center = np.asarray(center, dtype=float)
        if center.ndim != 1:
            raise ValueError("center must be a vector")
        if not radius > 0:
            raise ValueError(f"radius must be positive, got {radius}")
        super().__init__(center.size)
        self.center = np.array(center)  # read-only copy: the caller cannot move the ball
        self.center.flags.writeable = False
        self.radius = float(radius)

    def project(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        offset = x - self.center
        norm = np.linalg.norm(offset, axis=-1, keepdims=True)
        # a few ulps of slack keep the projection exactly idempotent: the
        # rescaled point's recomputed norm can round a hair above the radius
        threshold = self.radius * (1.0 + 8.0 * np.finfo(float).eps)
        scale = np.where(norm > threshold, self.radius / np.maximum(norm, 1e-300), 1.0)
        return self.center + offset * scale

    def contains(self, x: np.ndarray) -> bool | np.ndarray:
        offset = self._check(x) - self.center
        slack = MEMBERSHIP_TOL * max(1.0, self.radius)
        # sqrt of a dot per row: np.linalg.norm of each row, bit for bit
        inside = np.sqrt(np.vecdot(offset, offset)) <= self.radius + slack
        return bool(inside) if offset.ndim == 1 else inside

    def diameter(self) -> float:
        return 2.0 * self.radius

    def sample(self, gen: np.random.Generator, num: int | None = None) -> np.ndarray:
        if num is not None:  # each point interleaves a normal and a uniform draw
            return np.array([self.sample(gen) for _ in range(num)]).reshape(num, self.dim)
        z = gen.standard_normal(self.dim)
        z /= max(np.linalg.norm(z), 1e-300)
        r = self.radius * gen.uniform() ** (1.0 / self.dim)
        return self.center + r * z


def gradient_map(
    feasible_set: FeasibleSet, x: np.ndarray, g: np.ndarray, h: float
) -> np.ndarray:
    """Projected-step direction (x - project(x - h g)) / h.

    Coincides with g whenever the step x - h g stays feasible; requires a
    feasible x and a positive h.  x and g may be (k, n) stacks: row i is
    then bit for bit the call on x[i] and g[i], and one infeasible row
    raises.
    """
    h = _check_real(h, "h")
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if x.shape != g.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs g {g.shape}")
    if not np.all(feasible_set.contains(x)):
        raise ValueError("x must be feasible for the gradient map")
    step = x - h * g
    projected = feasible_set.project(step)
    # inactive projection: the map is g itself, skip the lossy h round trip
    inactive = (projected == step).all(axis=-1, keepdims=True)
    return np.where(inactive, g, (x - projected) / h)


def _parse_values(text: str, dim: int, name: str) -> float | np.ndarray:
    """One number as a float, or dim numbers as a vector."""
    try:
        values = [float(p) for p in str(text).replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"{name} must be a number or a list of numbers, got {text!r}") from None
    if len(values) == 1:
        return values[0]
    if len(values) != dim:
        raise ValueError(f"{name} has {len(values)} entries, expected 1 or {dim}")
    return np.array(values)


def _box_bounds(spec: dict, dim: int) -> tuple[float | np.ndarray, float | np.ndarray]:
    """A box spec's (lower, upper); a bound of one number stays a float."""
    if str(spec.get("kind", "")).strip().lower() != "box":
        raise ValueError(f"unknown set kind {spec.get('kind')!r}")
    extra = [key for key in spec if key not in SET_KEYS]
    if extra:
        raise ValueError(f"box set does not take {', '.join(map(repr, extra))}")
    if "lower" not in spec or "upper" not in spec:
        raise ValueError("box set requires 'lower' and 'upper'")
    return _parse_values(spec["lower"], dim, "lower"), _parse_values(spec["upper"], dim, "upper")


def set_from_spec(spec: dict, dim: int) -> Box:
    """Build the box of a flat kind + bounds description.

    A ValueError about one key's value starts with that key's name.
    """
    return Box(*_box_bounds(spec, dim), dim=dim)


def spec_diameter(spec: dict, dim: int) -> float:
    """The diameter of set_from_spec(spec, dim), after the same checks.

    When both bounds are one number, the checks run on the same box in one
    dimension, so no dim-vector is built and a spec of any dimension costs
    the same.  The diameter is then sqrt(dim * width**2), or
    width * sqrt(dim) when the squares overflow or underflow, as the built
    box computes it; both are inf at the same widths, up to rounding in the
    last bits.
    """
    lower, upper = _box_bounds(spec, dim)
    if np.ndim(lower) or np.ndim(upper):
        return Box(lower, upper, dim=dim).diameter()
    Box(lower, upper, dim=1)  # the box's checks, in one dimension
    width = upper - lower  # Python floats: inf, no warning
    diameter = math.sqrt(dim * (width * width))
    if not _TINY_NORM <= diameter < math.inf and math.isfinite(width):
        diameter = width * math.sqrt(dim)
    return diameter
