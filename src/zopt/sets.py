"""Convex feasible sets with exact Euclidean projection.

Three set kinds are shipped: the whole space, axis-aligned boxes, and
Euclidean balls.  The contract is open: any object with dim, project,
contains, diameter, and sample can be used wherever a FeasibleSet is
expected, as long as project is the exact Euclidean projection.

project accepts arrays of shape (..., dim) and maps points along the last
axis, so Monte Carlo code can project whole batches at once.  contains
takes one point (a bool) or a (k, dim) stack (a bool per row); the solvers
advance runs in stacks and rely on each row's answer, and each projected
row, being bit for bit that of the row alone.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MEMBERSHIP_TOL",
    "SET_KEYS",
    "FeasibleSet",
    "WholeSpace",
    "Box",
    "Ball",
    "gradient_map",
    "set_from_spec",
]

# Projections land exactly on boundaries; strict membership tests would flap.
MEMBERSHIP_TOL = 1e-12

# the keys a spec of each kind may hold (a ball's center defaults to 0)
SET_KEYS = {
    "whole_space": ("kind",),
    "box": ("kind", "lower", "upper"),
    "ball": ("kind", "center", "radius"),
}


class FeasibleSet:
    """Base class: immutable convex set in R^dim with exact projection."""

    kind = "abstract"

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = int(dim)

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

    def sample(self, gen: np.random.Generator) -> np.ndarray:
        """A random feasible point (distribution is kind-specific)."""
        raise NotImplementedError

    def spec(self) -> dict:
        """Flat kind + parameters description, embeddable in config files."""
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

    def sample(self, gen: np.random.Generator) -> np.ndarray:
        return gen.standard_normal(self.dim)

    def spec(self) -> dict:
        return {"kind": self.kind}


class Box(FeasibleSet):
    """Axis-aligned box {x : lower <= x <= upper}, bounds componentwise."""

    kind = "box"

    def __init__(self, lower, upper, dim: int | None = None):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.ndim == 0 or upper.ndim == 0:
            if dim is None:
                raise ValueError("dim is required when bounds are scalars")
            lower = np.broadcast_to(lower, (dim,))
            upper = np.broadcast_to(upper, (dim,))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be vectors of equal length")
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
        if x.ndim == 1:
            return bool((x >= lower).all() and (x <= upper).all())
        return ((x >= lower) & (x <= upper)).all(axis=-1)

    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def sample(self, gen: np.random.Generator) -> np.ndarray:
        return gen.uniform(self.lower, self.upper)

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

    def sample(self, gen: np.random.Generator) -> np.ndarray:
        z = gen.standard_normal(self.dim)
        z /= max(np.linalg.norm(z), 1e-300)
        r = self.radius * gen.uniform() ** (1.0 / self.dim)
        return self.center + r * z

    def spec(self) -> dict:
        return {
            "kind": self.kind,
            "center": ",".join(repr(float(v)) for v in self.center),
            "radius": repr(self.radius),
        }


def gradient_map(
    feasible_set: FeasibleSet, x: np.ndarray, g: np.ndarray, h: float
) -> np.ndarray:
    """Projected-step direction (x - project(x - h g)) / h.

    Coincides with g whenever the step x - h g stays feasible; requires a
    feasible x and a positive h.
    """
    if not h > 0:
        raise ValueError(f"h must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if x.shape != g.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs g {g.shape}")
    if not feasible_set.contains(x):
        raise ValueError("x must be feasible for the gradient map")
    step = x - h * g
    projected = feasible_set.project(step)
    if np.array_equal(projected, step):
        # inactive projection: the map is g itself, skip the lossy h round trip
        return g.copy()
    return (x - projected) / h


def _parse_vector(text: str, dim: int, name: str) -> np.ndarray:
    try:
        values = np.array([float(p) for p in str(text).replace(",", " ").split()], dtype=float)
    except ValueError:
        raise ValueError(f"{name} must be a number or a list of numbers, got {text!r}") from None
    if values.size == 1:
        return np.full(dim, values[0])
    if values.size != dim:
        raise ValueError(f"{name} has {values.size} entries, expected 1 or {dim}")
    return values


def set_from_spec(spec: dict, dim: int) -> FeasibleSet:
    """Build a set from a flat kind + parameters description.

    A ValueError about one key's value starts with that key's name.
    """
    kind = str(spec.get("kind", "")).strip().lower()
    if kind not in SET_KEYS:
        raise ValueError(f"unknown set kind {spec.get('kind')!r}")
    extra = [key for key in spec if key not in SET_KEYS[kind]]
    if extra:
        raise ValueError(f"{kind} set does not take {', '.join(map(repr, extra))}")
    if kind == "whole_space":
        return WholeSpace(dim)
    if kind == "box":
        if "lower" not in spec or "upper" not in spec:
            raise ValueError("box set requires 'lower' and 'upper'")
        lower = _parse_vector(spec["lower"], dim, "lower")
        upper = _parse_vector(spec["upper"], dim, "upper")
        return Box(lower, upper)
    if "radius" not in spec:
        raise ValueError("ball set requires 'radius'")
    center = _parse_vector(spec.get("center", "0"), dim, "center")
    try:
        radius = float(spec["radius"])
    except ValueError:
        raise ValueError(f"radius must be a number, got {spec['radius']!r}") from None
    return Ball(center, radius)
