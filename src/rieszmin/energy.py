"""Discrete pair energies, cross/partial energies, potentials, and the
Monte-Carlo continuum energy.

Every pair sum reduces the blocks of one schedule, _pair_pass, which builds
each cache-sized block's distances (and for a gradient one difference plane
per axis) in buffers its thread keeps, possibly on worker threads
(worker_threads), and hands them to a reducer its caller owns; a reducer
writes only its block's slots, so results do not depend on the schedule.  One
pass over the triangle tiles gives a configuration's energy, extent and
gradient.  Sums over a family run in its canonical point order (lexicographic
sort of the coordinates), so results are bit-identical under permutation of
the input points.  Desk scale (n up to ~10^4) keeps the O(n^2) sums practical.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import GradientUndefinedError, UsageError, ValidationError
from .io import _read_rows, _write_rows
from .kernels import Kernel
from .measures import _as_points

_BLOCK_ELEMENTS = 2**16  # pairs per block: its few float buffers fit a 2 MB L2 cache
_TILE = math.isqrt(_BLOCK_ELEMENTS)  # the side of a triangle pass's square tiles
# the pool getter of the enclosing worker_threads block; worker threads see None
_POOL: ContextVar = ContextVar("rieszmin_pair_pool", default=None)
_SCRATCH = threading.local()  # each thread's block buffers, kept from pass to pass


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Configuration:
    """n labeled points carrying implicit weight 1/n each."""

    points: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points)
        if pts.shape[0] < 1:
            raise ValidationError("a configuration needs at least one point")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class SubConfiguration:
    """A family of n1 <= n points weighted 1/n against an ambient count n."""

    points: np.ndarray
    denominator: int

    def __post_init__(self):
        pts = _as_points(self.points, "sub-configuration points")
        object.__setattr__(self, "points", pts)
        if self.denominator < max(1, pts.shape[0]):
            raise ValidationError(
                f"denominator {self.denominator} smaller than the point count {pts.shape[0]}"
            )

    @property
    def n1(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class EnergyValue:
    value: float
    pair_count: int
    min_pair_distance: float

    def as_dict(self) -> dict:
        return asdict(self)


def _check_kernel_dim(kernel: Kernel, dim: int):
    if kernel.dim != dim:
        raise ValidationError(f"kernel dimension {kernel.dim} != configuration dimension {dim}")


def _canonical_order(points: np.ndarray) -> np.ndarray:
    keys = tuple(points[:, k] for k in range(points.shape[1] - 1, -1, -1))
    return np.lexsort(keys)


@contextmanager
def worker_threads(count: int):
    """Run the tasks of _on_workers calls made in the with-block on this thread on
    ``count`` worker threads, at most one per core; results are the same for any count.
    The pool starts with the first call that has two tasks or more: the blocks of a
    pass (two per greedy-sweep chunk) or bl_distance's slices."""
    count = min(count, os.cpu_count() or 1)
    pools = []

    def pool():
        if not pools:
            from concurrent.futures import ThreadPoolExecutor

            pools.append(ThreadPoolExecutor(count, thread_name_prefix="pair-pass"))
        return pools[0]

    token = _POOL.set(pool if count > 1 else None)
    try:
        yield
    finally:
        _POOL.reset(token)
        for made in pools:
            made.shutdown()


def _on_workers(task, *args) -> list:
    """[task(*a) for a in zip(*args)] in order, on the worker_threads block's threads for two tasks
    or more (pass blocks, BL slices), each under the caller's np.errstate (a worker inherits
    neither it nor the pool)."""
    errstate, pool = np.geterr(), _POOL.get()

    def run(*a):
        with np.errstate(**errstate):
            return task(*a)

    return list((map if pool is None or len(args[0]) < 2 else pool().map)(run, *args))


def _scratch(name: str, shape: tuple) -> np.ndarray:
    """This thread's buffer ``name`` as a C-contiguous array of ``shape``; it
    grows to the largest block yet, never below _BLOCK_ELEMENTS, and is kept; a
    thread's first pass makes it even for an empty block."""
    size = math.prod(shape)
    if len(getattr(_SCRATCH, name, ())) < max(size, 1):
        setattr(_SCRATCH, name, np.empty(max(size, _BLOCK_ELEMENTS)))
    return getattr(_SCRATCH, name)[:size].reshape(shape)


def _self_pairs(i: int, j: int, shape: tuple):
    """(rows, cols) in a one-family block of rows i, ... by cols j, ... of its pairs i == j."""
    lo, hi = max(i, j), min(i + shape[0], j + shape[1])
    if lo >= hi:  # the row and col ranges do not overlap: no pairs, and no index arrays
        return slice(0), slice(0)
    k = np.arange(lo, hi)
    return k - i, k - j


def _pair_pass(rows: np.ndarray, cols: np.ndarray, reduce, order: Optional[np.ndarray] = None,
               reach=None, tiles: bool = False, grad: bool = False) -> list:
    """The one block schedule of point pairs (rows[i], cols[j]): the list of reduce(d, i, j),
    or with grad=True of reduce(d, i, j, diffs), in block order; d is the distance block of
    rows i, ... by cols j, ..., diffs[k, a, b] = rows[i + a, k] - cols[j + b, k], buffers the
    reducer may overwrite, not keep; so is the block's _scratch("part", d.shape), dead once d
    is formed (kernel.radial(d, out=...) may fill it).  A given ``order`` says rows and cols are
    both points[order], one family, whose pairs i == j sit at d = +inf.  Blocks are rows by all
    cols; a ``reach`` (a scalar or one per row; rows and cols sorted on their first coordinate)
    narrows each to the cols within a row's reach of it on the first coordinate, keeping every
    pair within it; with tiles=True (one family) they are the _TILE x _TILE tiles (I, J), I <= J."""
    axes = np.ascontiguousarray(cols.T)
    step = _TILE if tiles else max(1, _BLOCK_ELEMENTS // max(1, len(cols)))

    first, last = np.zeros(len(rows), int), np.full(len(rows), len(cols))
    if reach is not None:
        # a computed distance is at least the first coordinates' difference less a few
        # rounding units, or less 1e-150 where squares underflow, so the widened reach
        # keeps every col within the reach
        wide = np.asarray(reach) * (1.0 + 1e-9) + 1e-150
        first = np.searchsorted(axes[0], rows[:, 0] - wide)
        last = np.searchsorted(axes[0], rows[:, 0] + wide, side="right")

    def spans(step):  # each block's first row, first col and col count
        if tiles:  # row by row
            return list(zip(*[(a, b, min(step, len(cols) - b)) for a in range(0, len(rows), step)
                              for b in range(a, len(rows), step)])) or [()]  # no points, no tiles
        starts = np.arange(0, len(rows), step)
        heads = np.minimum.reduceat(first, starts)
        return [span.tolist() for span in (starts, heads, np.maximum.reduceat(last, starts) - heads)]

    while (reach is not None and step < len(rows)
           and 2 * step * max(spans(2 * step)[2]) <= _BLOCK_ELEMENTS):
        step *= 2  # more rows to a block, while it meets few enough pairs

    def block(start, head, width):
        chunk = rows[start:start + step]
        shape = (len(chunk), width)
        d, part = _scratch("d", shape), _scratch("part", shape)
        # a gradient pass keeps the differences r_i - c_j, one C-contiguous plane per
        # axis; squares summed in axis order, as np.linalg.norm sums them for dim < 8
        diffs = _scratch("diffs", (rows.shape[1],) + shape) if grad else None
        for k in range(rows.shape[1]):
            into = part if k else d
            diff = diffs[k] if grad else into
            np.copyto(diff, chunk[:, k, None])  # r_i - c_j, with np.subtract.outer's bits
            np.subtract(diff, axes[k, head:head + width], out=diff)  # at half its cost
            np.square(diff, out=into)
            if k:
                d += part
        np.sqrt(d, out=d)
        if order is not None:
            d[_self_pairs(start, head, shape)] = math.inf
        return reduce(d, start, head, diffs) if grad else reduce(d, start, head)

    return _on_workers(block, *spans(step))  # in block order, so the first error wins


def _potentials(points: np.ndarray, kernel: Kernel, grad: bool = False):
    """Each point's sum of g over the others in canonical order, that order, the min and max
    distance and, with grad=True, each point's sum of g'(d)/d (p - q) over the others q.  Tile
    (I, J) sums its rows into parts[J, rows of I] and, if I < J, its columns into parts[I, rows
    of J]; a point's sum adds its column of parts in tile order.  The forces' terms w * diffs[k]
    are antisymmetric, so their negated column sums go to the rows of J, on the diagonal too."""
    order = _canonical_order(points)
    pts = points[order]
    parts = np.empty((-(-len(pts) // _TILE), len(pts)))
    forces = np.full((pts.shape[1],) + parts.shape, math.nan) if grad else None

    def tile(d, i, j, diffs=None):
        eye = _self_pairs(i, j, d.shape)
        lo = float(d.min(initial=math.inf))
        if grad and lo == 0.0:
            a, b = np.argwhere(d == 0.0)[0]
            raise GradientUndefinedError(f"coincident points {order[i + a]} and {order[j + b]}: "
                                         "gradient undefined at zero separation")
        d[eye] = 0.0  # the distance of a skipped pair, for the max
        hi = float(d.max(initial=0.0))
        d[eye] = 1.0  # any finite placeholder; its term is zeroed below
        vals = kernel.radial(d, out=_scratch("part", d.shape))
        vals[eye] = 0.0
        np.sum(vals, axis=1, out=parts[j // _TILE, i:i + len(d)])
        if i != j:
            np.sum(vals, axis=0, out=parts[i // _TILE, j:j + d.shape[1]])
        if grad and np.isfinite(parts[j // _TILE, i:i + len(d)]).all():  # else NaN forces
            w = np.divide(kernel.radial_prime(d, out=vals), d, out=d)
            w[eye] = 0.0
            for k, diff in enumerate(diffs):
                np.multiply(w, diff, out=diff)
                if i != j:
                    np.sum(diff, axis=1, out=forces[k, j // _TILE, i:i + len(d)])
                col = np.sum(diff, axis=0, out=forces[k, i // _TILE, j:j + d.shape[1]])
                np.negative(col, out=col)
        return lo, hi

    lows, highs = zip((math.inf, 0.0), *_pair_pass(pts, pts, tile, order, tiles=True, grad=grad))
    found = parts.sum(axis=0), order, min(lows), max(highs)
    return found + (forces.sum(axis=1).T,) if grad else found


def pair_interaction_sum(points: np.ndarray, kernel: Kernel) -> Tuple[float, float, float]:
    """Sum of g(x_i - x_j) over ordered pairs i != j, in canonical order.

    Returns (sum, min distance, max distance).  The sum is +inf when a pair
    hits a +inf kernel value.
    """
    sums, _, lo, hi = _potentials(points, kernel)
    return float(sums.sum()), lo, hi


def _energy_stats(points: np.ndarray, kernel: Kernel) -> Tuple[float, float, float]:
    """(pair sum / n^2, min distance, max distance) of n points."""
    total, lo, hi = pair_interaction_sum(points, kernel)
    return total / len(points)**2, lo, hi


def discrete_energy(cfg: Configuration, kernel: Kernel) -> EnergyValue:
    """(1/n^2) sum over ordered pairs i != j of g(x_i - x_j)."""
    _check_kernel_dim(kernel, cfg.dim)
    value, lo, _ = _energy_stats(cfg.points, kernel)
    return EnergyValue(value=value, pair_count=cfg.n * (cfg.n - 1), min_pair_distance=lo)


def cross_energy(a: SubConfiguration, b: SubConfiguration, kernel: Kernel) -> float:
    """(1/n^2) sum over all pairs (P_i, Q_j) of g(P_i - Q_j), no exclusions.

    The two families are distinct, so coincident points across them under a
    singular kernel legitimately produce +inf.
    """
    if a.denominator != b.denominator:
        raise ValidationError("cross energy needs matching denominators")
    if a.dim != b.dim:
        raise ValidationError("cross energy needs matching dimensions")
    _check_kernel_dim(kernel, a.dim)
    pa = a.points[_canonical_order(a.points)]
    pb = b.points[_canonical_order(b.points)]
    return float(potential_grid(pb, 1.0, kernel, pa).sum()) / a.denominator**2


def partial_energy(a: SubConfiguration, kernel: Kernel) -> float:
    """Internal ordered-pair sum of the family, weighted by the ambient 1/n^2.

    Satisfies partial_energy(a) = (n1/n)^2 * discrete_energy(a as its own
    configuration).
    """
    _check_kernel_dim(kernel, a.dim)
    total, _, _ = pair_interaction_sum(a.points, kernel)
    return total / a.denominator**2


def gradient(cfg: Configuration, kernel: Kernel) -> np.ndarray:
    """Gradient of the discrete energy: row i is (2/n^2) sum_{j != i} of the
    kernel gradient at x_i - x_j.  Requires all pair distances positive."""
    _check_kernel_dim(kernel, cfg.dim)
    return gradient_of_points(cfg.points, kernel)[0]


def gradient_of_points(points: np.ndarray, kernel: Kernel) -> tuple:
    """(gradient, energy, min distance, diameter) of n points from one pass over the tiles,
    the last three with _energy_stats' bits; coincident points raise GradientUndefinedError."""
    sums, order, lo, hi, forces = _potentials(points, kernel, grad=True)
    n2 = len(points)**2
    return (2.0 / n2) * forces[np.argsort(order)], float(sums.sum()) / n2, lo, hi


def potential(source, kernel: Kernel, x, exclude: Optional[int] = None) -> float:
    """Weighted potential sum_i w g(x_i - x) of a configuration at x.

    The weight is 1/n for a configuration and 1/denominator for a
    sub-configuration.  ``exclude`` skips one index (self-potential at a
    particle) without changing the weight, matching the self-exclusion of
    the discrete energy.
    """
    if isinstance(source, Configuration):
        pts, denom = source.points, source.n
    elif isinstance(source, SubConfiguration):
        pts, denom = source.points, source.denominator
    else:
        raise ValidationError("potential source must be a configuration or sub-configuration")
    _check_kernel_dim(kernel, pts.shape[1])
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (pts.shape[1],):
        raise ValidationError(f"probe point has dimension {x.shape[0]}, expected {pts.shape[1]}")
    if exclude is not None:
        if not 0 <= exclude < len(pts):
            raise ValidationError(f"exclude index {exclude} is out of range for {len(pts)} points")
        pts = np.delete(pts, exclude, axis=0)
    return float(potential_grid(pts, 1.0, kernel, x[None, :])[0]) / denom


def potential_grid(points: np.ndarray, weight: float, kernel: Kernel,
                   probes: np.ndarray) -> np.ndarray:
    """Vectorized potential of a weighted point family at many probes,
    summed over the points in the order given."""
    values = np.empty(len(probes))

    def row_sums(d, i, j):
        np.sum(kernel.radial(d, out=_scratch("part", d.shape)), axis=1, out=values[i:i + len(d)])

    _pair_pass(probes, points, row_sums)
    return values * weight


@dataclass(frozen=True)
class MonteCarloEnergy:
    """Monte-Carlo estimate of the continuum double integral."""

    estimate: float
    std_error: float
    sample_count: int
    reliable: bool
    note: str = ""


def continuum_energy_mc(mu, kernel: Kernel, sample_count: int, seed: int) -> MonteCarloEnergy:
    """Unbiased estimate of the double integral of g(x - y) against mu x mu
    from independent pair samples; deterministic for a fixed seed.

    Non-finite draws (a singular kernel meeting an atom of mu) mark the
    estimate unreliable instead of silently averaging infinities.
    """
    if sample_count < 2:
        raise ValidationError("need at least 2 Monte-Carlo samples")
    _check_kernel_dim(kernel, mu.dim)
    rng = np.random.default_rng(seed)
    diff = mu.sample(sample_count, rng)  # x, then x - y and its squares, then the kernel values
    np.subtract(diff, mu.sample(sample_count, rng), out=diff)
    r = np.add.reduce(np.square(diff, out=diff), axis=1)
    np.sqrt(r, out=r)  # np.linalg.norm(x - y, axis=1)'s operations, so its bits
    vals = np.asarray(kernel.radial(r, out=diff.reshape(-1)[:sample_count]), dtype=float)
    finite = np.isfinite(vals)
    if not np.all(finite):
        bad = int((~finite).sum())
        return MonteCarloEnergy(
            estimate=math.inf, std_error=math.inf, sample_count=sample_count,
            reliable=False,
            note=f"{bad} of {sample_count} pair samples hit a non-finite kernel value",
        )
    estimate = float(vals.mean())
    std_error = float(vals.std(ddof=1) / math.sqrt(sample_count))
    # crude stabilization check: batch means should scatter like the error bar
    batches = np.array_split(vals, 8)
    spread = max(abs(float(b.mean()) - estimate) for b in batches)
    reliable = spread <= 30.0 * max(std_error, 1e-300) + 1e-12
    note = "" if reliable else "running mean not stabilizing; heavy-tailed integrand"
    return MonteCarloEnergy(estimate, std_error, sample_count, reliable, note)


def continuum_energy_quadrature_1d(mu, kernel: Kernel) -> float:
    """Deterministic continuum energy for one-dimensional measures.

    Atomic measures get the exact finite double sum (self-pairs included,
    as in the continuum integral).  Quantile-backed measures are integrated
    in CDF space: substituting the separation of quantile ranks turns the
    double integral into an integral over (0, 1] whose only singularity
    sits at rank separation zero, where the geometric panel refinement
    already used for kernel averages applies.  Monte Carlo stays the
    default in higher dimension.
    """
    from .measures import AtomicMeasure, ProductQuantileMeasure
    from .quadrature import _gauss, refining_radial_integral

    _check_kernel_dim(kernel, 1)
    if mu.dim != 1:
        raise ValidationError("the quadrature path only covers one-dimensional measures")
    if isinstance(mu, AtomicMeasure):
        rows = np.empty(len(mu.weights))  # each atom's weighted sum over all atoms

        def weighted(d, i, j):
            rows[i:i + len(d)] = kernel.radial(d) @ mu.weights

        _pair_pass(mu.points, mu.points, weighted)
        return float(mu.weights @ rows)
    if isinstance(mu, ProductQuantileMeasure):
        quantile = mu.quantiles[0]
        nodes, weights = _gauss(32)

        def rank_gap_integrand(w: np.ndarray) -> np.ndarray:
            out = np.empty_like(w)
            for i, gap in enumerate(w):
                u = 0.5 * (1.0 - gap) * (nodes + 1.0)
                seps = np.abs(np.asarray(quantile(u + gap), dtype=float)
                              - np.asarray(quantile(u), dtype=float))
                vals = np.asarray(kernel.radial(seps), dtype=float)
                out[i] = 0.5 * (1.0 - gap) * float(weights @ vals)
            return out

        return 2.0 * refining_radial_integral(rank_gap_integrand, 1.0)
    raise ValidationError(f"no quadrature path for a {type(mu).__name__}")


def truncated_energy_gap(cfg: Configuration, kernel: Kernel, level: float) -> Tuple[float, float]:
    """Both sides of the truncation inequality.

    lhs: full double sum of the capped kernel including self pairs, over n^2;
    rhs: discrete energy under the capped kernel plus level/n.
    The inequality lhs <= rhs holds with margin level - min(g(0), level) >= 0.
    """
    from .kernels import TruncatedKernel

    _check_kernel_dim(kernel, cfg.dim)
    capped = TruncatedKernel(inner=kernel, level=level)
    n = cfg.n
    offdiag, _, _ = pair_interaction_sum(cfg.points, capped)
    g0 = min(kernel.value_at_zero, level)
    lhs = (offdiag + n * g0) / n**2
    # same value as offdiag/n^2 + level/n, assembled as lhs plus an exactly
    # nonnegative margin so the float inequality lhs <= rhs cannot flip
    rhs = lhs + (level - g0) / n
    return lhs, rhs


# ---------------------------------------------------------------------------
# CSV round trip for configurations
# ---------------------------------------------------------------------------


def save_configuration_csv(cfg: Configuration, path) -> None:
    """First line 'dim,n', then one point per line, 17 significant digits."""
    _write_rows(path, [(cfg.dim, cfg.n), *cfg.points])


def load_configuration_csv(path) -> Configuration:
    """The file save_configuration_csv writes: a 'dim,n' header row, then n points."""
    (first, head), *rows = _read_rows(path)
    if len(head) != 2 or not all(x.is_integer() and x >= 0 for x in head):
        raise UsageError(f"{path}:{first}: expected header 'dim,n'")
    dim, n = int(head[0]), int(head[1])
    for lineno, cells in rows:
        if len(cells) != dim:
            raise UsageError(f"{path}:{lineno}: expected {dim} coordinates, got {len(cells)}")
    if len(rows) != n:
        raise UsageError(f"{path}: header promised {n} points, file has {len(rows)}")
    return Configuration(np.asarray([cells for _, cells in rows]))
