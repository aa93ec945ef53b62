"""Quantization of a probability measure into an n-point configuration.

The construction splits space into l^dim closed rectangles of equal mass
(l = ceil(n^(1/dim))) by recursive axis-by-axis quantile strips, picks one
representative per cell, and keeps the first n cells in lexicographic order
of their split indices, dropping the last l^dim - n.

Representative selection goes beyond the clipped cell mean with a kernel:
best-of-k tuples drawn from the product of the cell measures, each tuple's
pair pass run whole on one worker thread (energy.worker_threads), optionally
followed by a greedy per-cell improvement sweep whose cells share one pair
pass per chunk, two blocks that two workers compute side by side, with the
normalized pair sum reported next to a Monte-Carlo estimate of its average
so the selection quality can be asserted statistically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .energy import _BLOCK_ELEMENTS, Configuration, _energy_stats, _on_workers, _pair_pass
from .errors import QuantizeError, ValidationError
from .kernels import Kernel
from .measures import Restriction, TargetMeasure

STRATEGIES = ("conditional-mean", "best-of-k", "hybrid")


def side_count(n: int, dim: int) -> int:
    """Smallest integer l with l^dim >= n (integer-exact)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    l = max(1, int(round(n ** (1.0 / dim))))
    while l ** dim < n:
        l += 1
    while l > 1 and (l - 1) ** dim >= n:
        l -= 1
    return l


@dataclass
class PartitionCell:
    rect: np.ndarray
    mass: float
    restriction: Restriction
    index: Tuple[int, ...]
    representative: Optional[np.ndarray] = None


@dataclass
class SelectionInfo:
    achieved_G: float
    bound_estimate: Optional[float]
    bound_stderr: Optional[float]
    greedy_improvements: int = 0


@dataclass
class MassPartition:
    """The l^dim equal-mass closed rectangles of the measure, cells ordered
    lexicographically by their per-axis split indices."""

    cells: List[PartitionCell]
    split_count: int
    dim: int
    selection: Optional[SelectionInfo] = None

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def representatives(self) -> np.ndarray:
        if any(c.representative is None for c in self.cells):
            raise ValidationError("representatives not selected yet")
        return np.vstack([c.representative for c in self.cells])


def partition(mu: TargetMeasure, n: int) -> MassPartition:
    """Axis-recursive equal-mass partition into l^dim cells of mass l^-dim.

    Mass sitting exactly on a threshold is split fractionally between the
    adjacent cells, so cell masses are exact for atom clouds too.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    dim = mu.dim
    l = side_count(n, dim)
    cells = [PartitionCell(rect=mu.root_restriction().rect,
                           mass=1.0,
                           restriction=mu.root_restriction(),
                           index=())]
    for axis in range(dim):
        new_cells: List[PartitionCell] = []
        for cell in cells:
            remainder = cell.restriction
            for h in range(l - 1):
                fraction = 1.0 / (l - h)
                left, remainder, _ = remainder.split_fraction(axis, fraction)
                new_cells.append(PartitionCell(rect=left.rect, mass=left.mass,
                                               restriction=left,
                                               index=cell.index + (h,)))
            new_cells.append(PartitionCell(rect=remainder.rect, mass=remainder.mass,
                                           restriction=remainder,
                                           index=cell.index + (l - 1,)))
        cells = new_cells
    return MassPartition(cells=cells, split_count=l, dim=dim)


def select_representatives(part: MassPartition, kernel: Optional[Kernel] = None,
                           strategy: str = "hybrid", k: int = 32,
                           seed: int = 0) -> MassPartition:
    """Fill in one representative per cell (in place; also returned).

    conditional-mean: the cell mean (for products of quantile functions, the
    Gauss-rule mean), clipped into the closed cell.
    best-of-k: k tuples from the product of the cell measures, keep the one
    with the lowest normalized pair sum.
    hybrid: best-of-k plus one greedy sweep that re-draws single cells and
    keeps strict improvements.
    """
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    if strategy != "conditional-mean" and kernel is None:
        raise ValidationError(f"strategy {strategy!r} needs a kernel")
    if kernel is not None and kernel.dim != part.dim:
        raise ValidationError("kernel dimension does not match the partition")
    if strategy != "conditional-mean" and k < 1:
        raise ValidationError(f"strategy {strategy!r} needs k >= 1, got {k}")

    cells = part.cells
    m = len(cells)

    if strategy == "conditional-mean" or m == 1:
        for cell in cells:
            rep = np.clip(cell.restriction.mean_point(), cell.rect[:, 0], cell.rect[:, 1])
            cell.representative = rep
        achieved = (_energy_stats(part.representatives(), kernel)[0]
                    if kernel is not None and m > 1 else 0.0)
        part.selection = SelectionInfo(achieved_G=achieved, bound_estimate=None,
                                       bound_stderr=None)
        return part

    rng = np.random.default_rng(seed)
    streams = rng.spawn(m)

    finite_values: List[float] = []
    for _ in range(k):
        draws = np.empty((k, m, part.dim))
        for i, cell in enumerate(cells):
            draws[:, i, :] = cell.restriction.sample(k, streams[i])
        values = np.array(_on_workers(lambda points: _energy_stats(points, kernel)[0], draws))
        finite = np.isfinite(values)
        finite_values.extend(values[finite].tolist())
        if np.any(finite):
            break
        # all k tuples hit +inf (coincident draws under a singular kernel):
        # re-draw; give up after k rounds
    else:
        raise QuantizeError(
            f"representative selection failed: {k} rounds of {k} tuples "
            "all produced non-finite pair sums"
        )
    j = int(np.argmin(np.where(finite, values, math.inf)))
    best_value = float(values[j])
    best_points = draws[j].copy()

    bound_estimate = float(np.mean(finite_values)) if finite_values else None
    bound_stderr = (float(np.std(finite_values, ddof=1) / math.sqrt(len(finite_values)))
                    if len(finite_values) > 1 else 0.0)

    improvements = 0
    if strategy == "hybrid":
        ys = np.array([c.restriction.sample(1, stream)[0] for c, stream in zip(cells, streams)])
        # chunk cells: the most c with 2 c (m + c) <= 2 _BLOCK_ELEMENTS, two blocks for two workers
        step = min(m, max(1, (math.isqrt(m * m + 4 * _BLOCK_ELEMENTS) - m) // 2))
        grid, pair = np.empty((2 * step, m + step)), np.empty((2, m - 1))

        def fill(d, i, j):  # a block's kernel values, into its rows of the chunk's grid
            grid[i:i + len(d), :d.shape[1]] = kernel.radial(d)

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for s in range(0, m, step):
                # rows best[i], ys[i] of the chunk's cells i; cols best, then their ys
                chunk = np.hstack([best_points[s:s + step], ys[s:s + step]]).reshape(-1, part.dim)
                _pair_pass(chunk, np.concatenate([best_points, chunk[1::2]]), fill)
                for i in range(s, s + len(chunk) // 2):
                    a = 2 * (i - s)  # cell i's rows; its own column goes, as potential_grid's
                    pair[:, :i], pair[:, i:] = grid[a:a + 2, :i], grid[a:a + 2, i + 1:m]
                    old, new = pair.sum(axis=1)
                    delta = 2.0 * (new - old) / m**2
                    if math.isfinite(delta) and delta < 0.0:
                        best_points[i] = ys[i]
                        improvements += 1
                        grid[a + 2:, i] = grid[a + 2:, m - s + i]  # later cells see the move
        best_value = _energy_stats(best_points, kernel)[0]

    for cell, rep in zip(cells, best_points):
        cell.representative = rep
    part.selection = SelectionInfo(achieved_G=best_value,
                                   bound_estimate=bound_estimate,
                                   bound_stderr=bound_stderr,
                                   greedy_improvements=improvements)
    return part


@dataclass(frozen=True)
class QuantizeResult:
    config: Configuration
    split_count: int
    dropped: int
    achieved_G: float
    bound_estimate: Optional[float]
    bound_stderr: Optional[float]

    def sidecar(self) -> dict:
        return {
            "l": self.split_count,
            "dropped": self.dropped,
            "achieved_G": self.achieved_G,
            "bound_estimate": self.bound_estimate,
            "bound_stderr": self.bound_stderr,
        }


def quantize(mu: TargetMeasure, n: int, kernel: Optional[Kernel] = None,
             strategy: str = "hybrid", k: int = 32, seed: int = 0) -> QuantizeResult:
    """Partition the measure, select representatives, and keep the first n
    of them in cell order (the last l^dim - n cells are dropped)."""
    if kernel is None:
        strategy = "conditional-mean"
    part = partition(mu, n)
    select_representatives(part, kernel, strategy=strategy, k=k, seed=seed)
    reps = part.representatives()[:n]
    sel = part.selection
    return QuantizeResult(
        config=Configuration(reps),
        split_count=part.split_count,
        dropped=part.cell_count - n,
        achieved_G=sel.achieved_G,
        bound_estimate=sel.bound_estimate,
        bound_stderr=sel.bound_stderr,
    )
