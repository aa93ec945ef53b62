"""Quantization of a probability measure into an n-point configuration.

The construction splits space into n closed rectangles of mass 1/n each by
recursive axis-by-axis quantile strips; the cells are the measure's
restrictions to those rectangles, and each gives one point.

Representative selection goes beyond the clipped cell mean with a kernel:
hybrid draws one tuple from the product of the cell measures, every cell in
one batch, whose pair sum estimates the product's average and is reported,
then lowers it by SWEEPS greedy per-cell sweeps whose cells share one pair
pass per chunk, two blocks that two workers compute side by side
(energy.worker_threads).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .energy import (_BLOCK_ELEMENTS, Configuration, EnergyValue, _check_kernel_dim,
                     _energy_stats, _pair_pass)
from .errors import QuantizeError, ValidationError
from .kernels import Kernel
from .measures import Restriction, TargetMeasure

STRATEGIES = ("conditional-mean", "hybrid")
SWEEPS = 2  # hybrid's greedy sweeps after its one product draw


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
class SelectionInfo:
    """The first three are the selected points' _energy_stats, from one pass."""

    achieved_G: Optional[float]
    min_distance: Optional[float] = None
    diameter: Optional[float] = None
    bound_estimate: Optional[float] = None
    greedy_improvements: int = 0


@dataclass(frozen=True)
class QuantizeResult:
    config: Configuration
    selection: SelectionInfo

    def sidecar(self) -> dict:
        """quantize.json's payload; with a kernel, the energy from achieved_G's pass."""
        sel, n = self.selection, self.config.n
        payload = {"achieved_G": sel.achieved_G, "bound_estimate": sel.bound_estimate}
        if sel.achieved_G is not None:
            payload["energy"] = EnergyValue(sel.achieved_G, n * (n - 1), sel.min_distance).as_dict()
        return payload


def partition(mu: TargetMeasure, n: int) -> List[Restriction]:
    """The measure's restrictions to n closed rectangles of mass 1/n each, by
    axis-recursive equal-mass splits, in row-major order of their split indices
    (at n = l^dim, cell i's are np.unravel_index(i, (l,) * dim)).

    A remainder owed c cells, with r axes still to split, splits into
    side_count(c, r) strips; strip h takes c // (strips - h) of the cells still
    owed, so the last axis ends with one cell per strip.  At n = l^dim every
    remainder splits into l strips of l^(r-1) cells.  Mass sitting exactly on
    a threshold is split fractionally between the adjacent cells, so cell
    masses are exact for atom clouds too.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    dim = mu.dim
    cells = [(mu.root_restriction(), n)]
    for axis in range(dim):
        new_cells = []
        for remainder, c in cells:
            strips = side_count(c, dim - axis)
            for h in range(strips - 1):
                take = c // (strips - h)
                left, remainder, _ = remainder.split_fraction(axis, take / c)
                new_cells.append((left, take))
                c -= take
            new_cells.append((remainder, c))
        cells = new_cells
    return [cell for cell, _ in cells]


def select_representatives(cells: List[Restriction], kernel: Optional[Kernel] = None,
                           strategy: str = "hybrid", k: int = 32,
                           seed: int = 0) -> QuantizeResult:
    """One representative per cell, in cell order; every draw comes from one
    np.random.default_rng(seed), a round of all the cells at a time.

    conditional-mean: the cell mean (for products of quantile functions, the
    Gauss-rule mean), clipped into the closed cell.
    hybrid: one tuple from the product of the cell measures (k bounds its
    re-draws while its normalized pair sum is not finite), then SWEEPS greedy
    sweeps that each try one fresh draw per cell and keep strict improvements.
    """
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    if strategy != "conditional-mean" and kernel is None:
        raise ValidationError(f"strategy {strategy!r} needs a kernel")
    if kernel is not None:
        _check_kernel_dim(kernel, cells[0].dim)
    if strategy != "conditional-mean" and k < 1:
        raise ValidationError(f"strategy {strategy!r} needs k >= 1, got {k}")

    m, dim = len(cells), cells[0].dim

    if strategy == "conditional-mean" or m == 1:
        points = np.array([np.clip(cell.mean_point(), cell.rect[:, 0], cell.rect[:, 1])
                           for cell in cells])
        stats = _energy_stats(points, kernel) if kernel is not None else (None,) * 3
        return QuantizeResult(Configuration(points), SelectionInfo(*stats))

    rng = np.random.default_rng(seed)
    for _ in range(k):
        best_points = cells[0].sample_cells(cells, rng, 1)[0]
        bound_estimate = _energy_stats(best_points, kernel)[0]
        if math.isfinite(bound_estimate):
            break
        # coincident draws under a singular kernel: draw again, up to k times
    else:
        raise QuantizeError(f"representative selection failed: {k} draws all produced "
                            "non-finite pair sums")

    improvements = 0
    # chunk cells: the most c with 2 c (m + c) <= 2 _BLOCK_ELEMENTS, two blocks for two workers
    step = min(m, max(1, (math.isqrt(m * m + 4 * _BLOCK_ELEMENTS) - m) // 2))
    grid, pair = np.empty((2 * step, m + step)), np.empty((2, m - 1))

    def fill(d, i, j):  # a block's kernel values, into its rows of the chunk's grid
        kernel.radial(d, out=grid[i:i + len(d), :d.shape[1]])

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for s in list(range(0, m, step)) * SWEEPS:
            if s == 0:  # a sweep starts: one fresh candidate per cell
                ys = cells[0].sample_cells(cells, rng, 1)[0]
            # rows best[i], ys[i] of the chunk's cells i; cols best, then their ys
            chunk = np.hstack([best_points[s:s + step], ys[s:s + step]]).reshape(-1, dim)
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
    stats = _energy_stats(best_points, kernel)
    return QuantizeResult(Configuration(best_points),
                          SelectionInfo(*stats, bound_estimate, improvements))


def quantize(mu: TargetMeasure, n: int, kernel: Optional[Kernel] = None,
             strategy: str = "hybrid", k: int = 32, seed: int = 0) -> QuantizeResult:
    """Partition the measure into n cells and select one representative each."""
    if kernel is None and strategy in STRATEGIES:
        strategy = "conditional-mean"
    return select_representatives(partition(mu, n), kernel, strategy=strategy, k=k, seed=seed)
