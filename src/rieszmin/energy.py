"""Discrete pair energies, cross/partial energies, potentials, and the
Monte-Carlo continuum energy.

Every pair sum goes through one blocked pass, _pair_pass, whose cache-sized
blocks may run on worker threads (worker_threads); each block writes its own
rows, so results do not depend on the schedule; a one-family kernel sum
meets each unordered pair once, in the 256 x 256 tiles on and above the
diagonal, whose row and column sums fill a (tiles, n) partials array that
is summed per row in tile order.  A block builds its distances, and a
gradient's differences, one axis at a time in buffers its thread keeps; a
caller's per-block reducer may take its own reduction of those distances,
and a pass over points sorted on their first coordinate may meet only the
pairs within a reach.
Sums over a family run in its canonical point order (lexicographic sort of
the coordinates), so results are bit-identical under permutation of the
input points.  Desk scale (n up to ~10^4) keeps the O(n^2) sums practical.
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
from .io import _read_rows
from .kernels import Kernel

_BLOCK_ELEMENTS = 2**16  # pairs per block: its few float buffers fit a 2 MB L2 cache
# the pool getter of the enclosing worker_threads block; worker threads see None
_POOL: ContextVar = ContextVar("rieszmin_pair_pool", default=None)
_SCRATCH = threading.local()  # each thread's block buffers, kept from pass to pass


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


def _as_points(points, what: str = "points") -> np.ndarray:
    pts = np.array(points, dtype=float, copy=True)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] < 1:  # the pair pass builds distances from axis 0 on
        raise ValidationError(f"{what} must be an (n, dim >= 1) array, got shape {pts.shape}")
    if pts.size and not np.all(np.isfinite(pts)):
        raise ValidationError(f"{what} must have finite coordinates")
    pts.setflags(write=False)
    return pts


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
    """Run the blocks of the pair passes made in the with-block on this
    thread on ``count`` worker threads, at most one per core; results are
    the same for any count.  The pool starts with the first pass that has
    more than one block."""
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


def _scratch(name: str, shape: tuple) -> np.ndarray:
    """This thread's buffer ``name`` as a C-contiguous array of ``shape``; it
    grows to the largest block yet, never below _BLOCK_ELEMENTS, and is kept."""
    size = math.prod(shape)
    if len(getattr(_SCRATCH, name, ())) < size:
        setattr(_SCRATCH, name, np.empty(max(size, _BLOCK_ELEMENTS)))
    return getattr(_SCRATCH, name)[:size].reshape(shape)


def _pair_pass(rows: np.ndarray, cols: np.ndarray, kernel: Optional[Kernel] = None,
               order: Optional[np.ndarray] = None, grad: bool = False,
               extent: bool = False, each=None, reach=None):
    """The one blocked pass over point pairs (rows[i], cols[j]).

    Each distance block, B rows by len(cols) unless a reach narrows it, is
    computed once, and only the reductions asked for are taken from it:
    with a kernel, the per-row sums of g(|r_i - c_j|), or with grad=True the
    per-row sums of g'(d)/d (r_i - c_j); with extent=True the min and max
    distance; with ``each``, each(d, i, j) of the block of rows i, i + 1, ...
    against the cols j, j + 1, ..., instead of a kernel's sums (it must not
    keep d, a reused buffer).  A given ``reach`` (a scalar or one per row;
    rows and cols sorted on their first coordinate) narrows each block to
    the cols whose first coordinate lies within a row's reach of that row's;
    every pair whose distance is within its row's reach stays.  A given
    ``order`` says rows and cols are both points[order], one family (the
    pair sums pass it in canonical order): the pairs i == j are skipped
    (each sees them at +inf), and coincident points met by the gradient are
    named by their indices in points (the first such pair of the first
    failing block in block order, for any schedule).  A one-family kernel
    sum (no grad, each or reach) has g(d_ij) = g(d_ji), so its blocks are the
    T x T tiles (I, J), I <= J, T = isqrt(_BLOCK_ELEMENTS): tile (I, J) writes
    its row sums into parts[J, rows of I] and, if I < J, its column sums into
    parts[I, rows of J]; each slot of the (tiles, n) partials has one writer,
    and a row's value is its column of parts summed in tile order.

    Returns (per-row values, the list of each's results in block order, or
    None; min distance; max distance).
    """
    triangle = kernel is not None and order is not None and not grad and each is None and reach is None
    values = None if kernel is None or triangle else np.empty(rows.shape if grad else len(rows))
    axes = np.ascontiguousarray(cols.T)
    step = math.isqrt(_BLOCK_ELEMENTS) if triangle else max(1, _BLOCK_ELEMENTS // max(1, len(cols)))
    parts = np.empty((-(-len(rows) // step), len(rows))) if triangle else None
    errstate = np.geterr()  # worker threads do not inherit the caller's

    first, last = np.zeros(len(rows), int), np.full(len(rows), len(cols))
    if reach is not None:
        # a computed distance is at least the first coordinates' difference less a few
        # rounding units, or less 1e-150 where squares underflow, so the widened reach
        # keeps every col within the reach
        wide = np.asarray(reach) * (1.0 + 1e-9) + 1e-150
        first = np.searchsorted(axes[0], rows[:, 0] - wide)
        last = np.searchsorted(axes[0], rows[:, 0] + wide, side="right")

    def spans(step):  # each block's first row, first col and col count
        if triangle:  # the tiles (I, J), I <= J, row by row
            tiles = [(a, b, min(step, len(cols) - b))
                     for a in range(0, len(rows), step) for b in range(a, len(rows), step)]
            return list(zip(*tiles)) or [()]  # no points, no tiles
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
        # a gradient pass keeps the differences r_i - c_j, with the bits and C layout of
        # broadcasting; squares summed in axis order, as np.linalg.norm sums them for dim < 8
        diffs = _scratch("diffs", shape + (rows.shape[1],)) if grad else None
        for k in range(rows.shape[1]):
            into = part if k else d
            diff = np.subtract.outer(chunk[:, k], axes[k, head:head + width],
                                     out=diffs[:, :, k] if grad else into)
            np.square(diff, out=into)
            if k:
                d += part
        np.sqrt(d, out=d)
        # the skipped pairs i == j of this block, the k among both its rows and its cols
        k = np.arange(max(start, head), min(start + len(chunk), head + width))
        eye = (k - start, k - head) if order is not None else (k[:0], k[:0])  # two families: none
        lo, hi = math.inf, 0.0
        if extent:
            hi = float(d.max(initial=0.0))  # a skipped pair sits at distance 0
            d[eye] = math.inf
            lo = float(d.min(initial=math.inf))
        if each is not None:
            d[eye] = math.inf
            return each(d, start, head), lo, hi
        if kernel is None:
            return None, lo, hi
        d[eye] = 1.0  # any finite placeholder; its term is zeroed below
        if grad:
            if np.any(d == 0.0):
                i, j = np.argwhere(d == 0.0)[0]
                raise GradientUndefinedError(
                    f"coincident points {order[start + i]} and {order[j]}: "
                    "gradient undefined at zero separation"
                )
            w = np.divide(kernel.radial_prime(d), d, out=part)
            w[eye] = 0.0
            np.einsum("ij,ijk->ik", w, diffs, out=values[start:start + len(chunk)])
        else:
            vals = np.asarray(kernel.radial(d), dtype=float)
            vals[eye] = 0.0
            into = parts[head // step] if triangle else values
            np.sum(vals, axis=1, out=into[start:start + len(chunk)])
            if triangle and head != start:
                np.sum(vals, axis=0, out=parts[start // step, head:head + width])
        return None, lo, hi

    def task(*span):
        with np.errstate(**errstate):
            return block(*span)

    blocks = spans(step)
    pool = _POOL.get()
    bounds = map(block, *blocks) if pool is None or len(blocks[0]) < 2 else pool().map(task, *blocks)
    outs, lo, hi = [], math.inf, 0.0
    for out, block_lo, block_hi in bounds:  # in block order, so the first error wins
        outs.append(out)
        lo, hi = min(lo, block_lo), max(hi, block_hi)
    values = parts.sum(axis=0) if triangle else values
    return (values if each is None else outs), lo, hi


def pair_interaction_sum(points: np.ndarray, kernel: Kernel) -> Tuple[float, float, float]:
    """Sum of g(x_i - x_j) over ordered pairs i != j, in canonical order.

    Returns (sum, min distance, max distance).  The sum is +inf when a pair
    hits a +inf kernel value.
    """
    order = _canonical_order(points)
    pts = points[order]
    row_sums, lo, hi = _pair_pass(pts, pts, kernel, order, extent=True)
    return float(row_sums.sum()), lo, hi


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
    row_sums, _, _ = _pair_pass(pa, pb, kernel)
    return float(row_sums.sum()) / a.denominator**2


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
    return gradient_of_points(cfg.points, kernel)


def gradient_of_points(points: np.ndarray, kernel: Kernel) -> np.ndarray:
    order = _canonical_order(points)
    pts = points[order]
    rows, _, _ = _pair_pass(pts, pts, kernel, order, grad=True)
    return (2.0 / len(points)**2) * rows[np.argsort(order)]


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
    row_sums, _, _ = _pair_pass(probes, points, kernel)
    return row_sums * weight


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
    xs = mu.sample(sample_count, rng)
    ys = mu.sample(sample_count, rng)
    vals = np.asarray(kernel.radial(np.linalg.norm(xs - ys, axis=1)), dtype=float)
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
        x = mu.points[:, 0]
        d = np.abs(x[:, None] - x[None, :])
        vals = np.asarray(kernel.radial(d), dtype=float)
        return float(mu.weights @ vals @ mu.weights)
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
    with open(path, "w", newline="") as fh:
        fh.write(f"{cfg.dim},{cfg.n}\n")
        for row in cfg.points:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


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
