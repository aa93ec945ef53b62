"""Target probability measures with the three queries the quantizer needs:
splitting a rectangle restriction at a mass fraction along an axis,
rectangle-restricted sampling, and the restriction's mean (clipped into
the cell, the representative of conditional-mean selection).

Two exact backends cover everything:

* weighted atom clouds, where boundary atoms are split fractionally between
  adjacent cells so restricted masses come out exact, and
* products of per-axis quantile functions, where restrictions live in
  CDF space and every quantile is a direct evaluation.

Densities on a box and uniform balls are backed by a fine-grid atom cloud
built once at construction (the grid resolution is the declared accuracy of
that surrogate); their global samplers stay exact or jittered-smooth.  Point
arrays (atom clouds and configurations) pass one validator, _as_points, and
box corners another, _box.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .quadrature import _gauss, _tensor_grid, _tensor_rule

_FULL = (-math.inf, math.inf)


def _floats(values, what: str) -> np.ndarray:  # values as a new float array
    try:
        return np.array(values, dtype=float)
    except ValueError:  # lists of unequal lengths
        raise ValidationError(f"{what} must be a regular array of numbers") from None


def _as_points(points, what: str = "points") -> np.ndarray:
    pts = _floats(points, what)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] < 1:  # the pair pass builds distances from axis 0 on
        raise ValidationError(f"{what} must be an (n, dim >= 1) array, got shape {pts.shape}")
    if pts.size and not np.all(np.isfinite(pts)):
        raise ValidationError(f"{what} must have finite coordinates")
    pts.setflags(write=False)
    return pts


def _box(lo, hi):
    """Box corners as float arrays: matching, 1-d, nonempty, finite, and with
    positive extent on every axis."""
    lo = np.atleast_1d(_floats(lo, "box corners"))
    hi = np.atleast_1d(_floats(hi, "box corners"))
    if lo.shape != hi.shape or lo.ndim != 1 or not lo.size:
        raise ValidationError("box corners must be matching nonempty 1-d arrays")
    if np.any(hi <= lo) or not np.all(np.isfinite(lo) & np.isfinite(hi)):
        raise ValidationError("box must have finite positive extent on every axis")
    return lo, hi


def _full_rect(dim: int) -> np.ndarray:
    return np.array([_FULL] * dim, dtype=float)


# ---------------------------------------------------------------------------
# restrictions: the recursive handles the partition splits
# ---------------------------------------------------------------------------


class Restriction(abc.ABC):
    """A measure restricted to a closed rectangle, with exact mass tracking."""

    rect: np.ndarray  # (dim, 2) closed bounds, +-inf allowed
    mass: float

    @property
    def dim(self) -> int:
        return self.rect.shape[0]

    @abc.abstractmethod
    def split_fraction(self, axis: int, fraction: float):
        """Split at the fraction-quantile along an axis.

        Returns (left, right, threshold); the left part receives exactly
        fraction * mass, splitting boundary atoms fractionally if needed.
        """

    @abc.abstractmethod
    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw points of the restriction; always inside the closed rect."""

    @abc.abstractmethod
    def mean_point(self) -> np.ndarray:
        """The restriction's mean, finite on every cell: product restrictions take
        it by a Gauss rule whose nodes lie strictly inside the CDF interval."""

    def _split_rects(self, axis: int, t: float):
        """The rect cut at t along an axis: (left rect, right rect)."""
        left, right = self.rect.copy(), self.rect.copy()
        left[axis, 1] = min(left[axis, 1], t)
        right[axis, 0] = max(right[axis, 0], t)
        return left, right


class AtomicRestriction(Restriction):
    """Weighted atoms inside a rectangle; splits carry fractional weights."""

    def __init__(self, points: np.ndarray, weights: np.ndarray,
                 rect: np.ndarray, mass: float):
        self.points = points
        self.weights = weights
        self.rect = rect
        self.mass = float(mass)

    def axis_threshold(self, axis: int, fraction: float) -> float:
        """Minimal t at which the renormalized axis-marginal CDF reaches
        ``fraction``; the minimum sits on an atom."""
        order = np.argsort(self.points[:, axis], kind="stable")
        cum = np.cumsum(self.weights[order])
        target = fraction * self.mass
        eps = 1e-12 * max(self.mass, 1.0)
        pos = int(np.searchsorted(cum, target - eps, side="left"))
        pos = min(pos, len(order) - 1)
        return float(self.points[order[pos], axis])

    def split_fraction(self, axis: int, fraction: float):
        t = self.axis_threshold(axis, fraction)
        left_mass = fraction * self.mass
        vals = self.points[:, axis]
        below = vals < t
        at = vals == t
        below_mass = float(self.weights[below].sum())
        at_mass = float(self.weights[at].sum())
        need = min(max(left_mass - below_mass, 0.0), at_mass)
        left_w = np.where(below, self.weights, 0.0)
        right_w = np.where(below, 0.0, self.weights)
        if at_mass > 0.0:
            frac = need / at_mass
            left_w = np.where(at, self.weights * frac, left_w)
            right_w = np.where(at, self.weights * (1.0 - frac), right_w)
        rect_l, rect_r = self._split_rects(axis, t)
        keep_l = left_w > 0.0
        keep_r = right_w > 0.0
        left = AtomicRestriction(self.points[keep_l], left_w[keep_l], rect_l, left_mass)
        right = AtomicRestriction(self.points[keep_r], right_w[keep_r], rect_r,
                                  self.mass - left_mass)
        if left.points.shape[0] == 0 or right.points.shape[0] == 0:
            raise NumericalError(
                f"degenerate split along axis {axis} at t={t}: a side came out empty"
            )
        return left, right, t

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        p = self.weights / self.weights.sum()
        idx = rng.choice(len(p), size=count, p=p)
        return self.points[idx]

    def mean_point(self) -> np.ndarray:
        return (self.weights @ self.points) / self.weights.sum()


class ProductRestriction(Restriction):
    """Restriction of a product-of-quantile-functions measure, tracked as a
    per-axis interval in CDF space; all quantiles are direct evaluations."""

    def __init__(self, quantiles: Sequence[Callable], u_rect: np.ndarray,
                 rect: np.ndarray, mass: float):
        self.quantiles = quantiles
        self.u_rect = u_rect
        self.rect = rect
        self.mass = float(mass)

    def _q(self, axis: int, u):
        return np.asarray(self.quantiles[axis](np.asarray(u)), dtype=float)

    def split_fraction(self, axis: int, fraction: float):
        lo, hi = self.u_rect[axis]
        u_mid = lo + fraction * (hi - lo)
        t = float(self._q(axis, u_mid))
        u_l = self.u_rect.copy()
        u_l[axis, 1] = u_mid
        u_r = self.u_rect.copy()
        u_r[axis, 0] = u_mid
        rect_l, rect_r = self._split_rects(axis, t)
        left = ProductRestriction(self.quantiles, u_l, rect_l, fraction * self.mass)
        right = ProductRestriction(self.quantiles, u_r, rect_r, (1.0 - fraction) * self.mass)
        return left, right, t

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random((self.dim, count))  # per-axis rng.uniform's bits, lo + (hi - lo) u
        out = np.empty((count, self.dim))
        for axis, (lo, hi) in enumerate(self.u_rect.tolist()):
            out[:, axis] = self._q(axis, lo + (hi - lo) * u[axis])
        return out

    def mean_point(self) -> np.ndarray:
        nodes, weights = _gauss(32)
        out = np.empty(self.dim)
        for axis in range(self.dim):
            lo, hi = self.u_rect[axis]
            u = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
            out[axis] = 0.5 * float(weights @ self._q(axis, u))
        return out


# ---------------------------------------------------------------------------
# target measures
# ---------------------------------------------------------------------------


class TargetMeasure(abc.ABC):
    """A probability measure accessible by sampling and by conditional
    quantiles along coordinate axes."""

    dim: int

    @abc.abstractmethod
    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        ...

    @abc.abstractmethod
    def root_restriction(self) -> Restriction:
        ...

    @abc.abstractmethod
    def discretize(self, target_count: int):
        """Deterministic weighted-atom stand-in for distance estimation:
        (points, weights)."""


class AtomicMeasure(TargetMeasure):
    """A finite weighted atom cloud (empirical sample clouds, atom mixes)."""

    def __init__(self, points, weights=None):
        pts = _as_points(points, "atom positions")
        if pts.shape[0] < 1:
            raise ValidationError("atom cloud must be nonempty")
        if weights is None:
            wts = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            wts = _floats(weights, "atom weights")
            if wts.shape != (pts.shape[0],):
                raise ValidationError("weights must match the number of atoms")
            if np.any(wts < 0) or not np.all(np.isfinite(wts)):
                raise ValidationError("weights must be finite and nonnegative")
            total = float(wts.sum())
            if abs(total - 1.0) > 1e-6:
                raise ValidationError(f"weights must sum to 1, got {total}")
            wts = wts / total
        self.points = pts
        self.weights = wts
        self.dim = pts.shape[1]

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(len(self.weights), size=count, p=self.weights)
        return self.points[idx]

    def root_restriction(self) -> AtomicRestriction:
        return AtomicRestriction(self.points, self.weights.copy(),
                                 _full_rect(self.dim), 1.0)

    def discretize(self, target_count: int):
        return self.points, self.weights


class ProductQuantileMeasure(TargetMeasure):
    """Independent product measure given by one quantile function per axis.

    Each quantile function maps u in [0, 1] (vectorized) to a position; it
    is the generalized inverse CDF of that axis marginal.
    """

    def __init__(self, quantile_fns: Sequence[Callable]):
        if not quantile_fns:
            raise ValidationError("need at least one quantile function")
        self.quantiles = tuple(quantile_fns)
        self.dim = len(self.quantiles)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.uniform(0.0, 1.0, size=(count, self.dim))
        cols = [np.asarray(self.quantiles[k](u[:, k]), dtype=float) for k in range(self.dim)]
        return np.column_stack(cols)

    def root_restriction(self) -> ProductRestriction:
        u_rect = np.array([(0.0, 1.0)] * self.dim)
        return ProductRestriction(self.quantiles, u_rect, _full_rect(self.dim), 1.0)

    def discretize(self, target_count: int):
        per_axis = max(1, round(target_count ** (1.0 / self.dim)))
        u = (np.arange(per_axis) + 0.5) / per_axis
        pts = _tensor_grid([np.asarray(q(u), dtype=float) for q in self.quantiles])
        return pts, np.full(pts.shape[0], 1.0 / pts.shape[0])


class UniformBoxMeasure(ProductQuantileMeasure):
    """Uniform probability on an axis-aligned box."""

    def __init__(self, lo, hi):
        lo, hi = _box(lo, hi)

        def make_q(a: float, b: float):
            return lambda u: a + np.asarray(u, dtype=float) * (b - a)

        super().__init__([make_q(float(a), float(b)) for a, b in zip(lo, hi)])


def _cell_grid(lo: np.ndarray, hi: np.ndarray, cells_per_axis: int):
    """The cells_per_axis^dim grid of cells on the box [lo, hi] and a Gauss
    rule for them: (cell centers, per-axis cell widths, the 4^dim tensor
    nodes on [-1, 1]^dim, their weights)."""
    edges = [np.linspace(a, b, cells_per_axis + 1) for a, b in zip(lo, hi)]
    cell_centers = _tensor_grid([0.5 * (e[1:] + e[:-1]) for e in edges])
    steps = np.array([e[1] - e[0] for e in edges])
    return (cell_centers, steps, *_tensor_rule([-1.0] * lo.size, [1.0] * lo.size, 4))


class DensityBoxMeasure(AtomicMeasure):
    """A density on a box, held as a fine-grid atom surrogate.

    Cell masses come from a per-cell Gauss rule at construction; quantile
    and mass queries are then exact for the surrogate, whose resolution is
    the declared accuracy.  Sampling smooths atoms back out by uniform
    jitter inside their grid cells.
    """

    def __init__(self, density: Callable, lo, hi, cells_per_axis: Optional[int] = None,
                 normalize: bool = False):
        lo, hi = _box(lo, hi)
        dim = lo.size
        if cells_per_axis is None:
            cells_per_axis = {1: 4096, 2: 256, 3: 40}.get(dim, 16)
        cell_centers, steps, offs, wts = _cell_grid(lo, hi, cells_per_axis)
        masses = np.zeros(cell_centers.shape[0])
        cell_vol = float(np.prod(steps / 2.0))
        for j in range(offs.shape[0]):
            pts = cell_centers + offs[j] * (steps / 2.0)
            masses += wts[j] * np.asarray(density(pts), dtype=float)
        masses *= cell_vol
        if np.any(masses < -1e-12) or not np.all(np.isfinite(masses)):
            raise ValidationError("density must be finite and nonnegative on the box")
        masses = np.maximum(masses, 0.0)
        total = float(masses.sum())
        if not normalize and abs(total - 1.0) > 1e-9:
            raise ValidationError(
                f"density mass on the box is {total:.12g}, not 1; pass normalize=True to rescale"
            )
        if total <= 0:
            raise ValidationError("density carries no mass on the box")
        keep = masses > 0
        super().__init__(cell_centers[keep], masses[keep] / total)
        self._steps = steps

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(len(self.weights), size=count, p=self.weights)
        jitter = rng.uniform(-0.5, 0.5, size=(count, self.dim)) * self._steps
        return self.points[idx] + jitter


class UniformBallMeasure(AtomicMeasure):
    """Uniform probability on a Euclidean ball.

    Global sampling is exact (polar); partition queries run against a
    normalized indicator-grid surrogate over the bounding box.
    """

    def __init__(self, center, radius: float, cells_per_axis: Optional[int] = None):
        center = np.atleast_1d(_floats(center, "ball center"))
        if center.ndim != 1 or not center.size:
            raise ValidationError(f"ball center must be one point, got shape {center.shape}")
        if not (radius > 0 and math.isfinite(radius)):
            raise ValidationError("ball radius must be positive and finite")
        dim = center.size
        if cells_per_axis is None:
            cells_per_axis = {1: 2048, 2: 128, 3: 32}.get(dim, 12)
        cell_centers, _, offs, wts = _cell_grid(center - radius, center + radius, cells_per_axis)
        step = 2.0 * radius / cells_per_axis
        wts = wts / wts.sum()
        masses = np.zeros(cell_centers.shape[0])
        for j in range(offs.shape[0]):
            pts = cell_centers + offs[j] * (step / 2.0)
            inside = np.linalg.norm(pts - center[None, :], axis=1) <= radius
            masses += wts[j] * inside
        keep = masses > 0
        super().__init__(cell_centers[keep], masses[keep] / masses.sum())
        self.center = center
        self.radius = float(radius)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        direction = rng.normal(size=(count, self.dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        r = self.radius * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / self.dim)
        return self.center[None, :] + direction * r


def single_atom(position) -> AtomicMeasure:
    pos = np.atleast_1d(np.asarray(position, dtype=float))
    return AtomicMeasure(pos.reshape(1, -1), [1.0])
