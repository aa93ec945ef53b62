import math
import sys
from unittest import mock

import numpy as np
import pytest

from rieszmin import (
    AtomicMeasure,
    Configuration,
    MorseKernel,
    PowerLawKernel,
    ProductQuantileMeasure,
    TabulatedKernel,
    UniformBoxMeasure,
    ValidationError,
    discrete_energy,
    partition,
    quantize,
    select_representatives,
    side_count,
    single_atom,
)
from rieszmin import energy, quantizer
from rieszmin.energy import _energy_stats, potential_grid

PL1 = PowerLawKernel(1, 2, dim=1)


class TestSideCount:
    @pytest.mark.parametrize("n,dim,expected", [
        (1, 1, 1), (4, 2, 2), (5, 2, 3), (8, 3, 2), (9, 3, 3),
        (1000, 3, 10), (1024, 2, 32), (16, 4, 2), (17, 4, 3),
    ])
    def test_integer_exact_nth_root_ceiling(self, n, dim, expected):
        assert side_count(n, dim) == expected


class TestPartition:
    def test_uniform_square_quarters(self):
        part = partition(UniformBoxMeasure([0.0, 0.0], [1.0, 1.0]), 4)
        assert part.split_count == 2
        assert part.cell_count == 4
        assert [c.index for c in part.cells] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for cell in part.cells:
            assert cell.mass == pytest.approx(0.25, abs=1e-12)
        # interior thresholds at 0.5 on both axes
        assert part.cells[0].rect[0, 1] == pytest.approx(0.5)
        assert part.cells[0].rect[1, 1] == pytest.approx(0.5)

    def test_single_cell_covers_everything(self):
        part = partition(UniformBoxMeasure([0.0], [1.0]), 1)
        assert part.cell_count == 1
        assert part.cells[0].mass == 1.0
        assert part.cells[0].rect[0, 0] == -math.inf
        assert part.cells[0].rect[0, 1] == math.inf

    def test_cloud_cells_have_exact_masses(self):
        rng = np.random.default_rng(1)
        mu = AtomicMeasure(rng.normal(size=(5000, 2)))
        part = partition(mu, 9)
        masses = np.array([c.mass for c in part.cells])
        assert abs(masses.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(masses - 1.0 / 9.0)) <= 1e-9
        # the restriction weights back the bookkept mass
        for cell in part.cells:
            assert cell.restriction.weights.sum() == pytest.approx(cell.mass, abs=1e-12)

    def test_atom_heavy_cloud_splits_fractionally(self):
        # half the mass sits on a single repeated location
        pts = np.vstack([np.zeros((5, 1)), np.arange(1.0, 6.0).reshape(-1, 1)])
        mu = AtomicMeasure(pts)
        part = partition(mu, 4)
        masses = [c.mass for c in part.cells]
        assert np.allclose(masses, 0.25, atol=1e-12)


class TestSelectRepresentatives:
    def test_single_cell_mean(self):
        part = partition(UniformBoxMeasure([0.0], [1.0]), 1)
        select_representatives(part, PL1, strategy="conditional-mean")
        assert part.cells[0].representative[0] == pytest.approx(0.5, abs=1e-12)
        assert part.selection.achieved_G == 0.0

    def test_conditional_means_of_uniform_quarters(self):
        part = partition(UniformBoxMeasure([0.0], [1.0]), 4)
        select_representatives(part, strategy="conditional-mean")
        reps = part.representatives()[:, 0]
        assert np.allclose(reps, [0.125, 0.375, 0.625, 0.875], atol=1e-12)

    def test_best_of_k_beats_the_sampled_mean(self):
        mu = UniformBoxMeasure([0.0, 0.0], [1.0, 1.0])
        k2 = PowerLawKernel(1, 2, dim=2)
        part = partition(mu, 16)
        select_representatives(part, k2, strategy="best-of-k", k=64, seed=3)
        sel = part.selection
        assert sel.achieved_G <= sel.bound_estimate + 1e-12

    def test_containment_in_closed_cells(self):
        rng = np.random.default_rng(4)
        mu = AtomicMeasure(rng.normal(size=(2000, 2)))
        k2 = PowerLawKernel(1, 2, dim=2)
        for strategy in ("conditional-mean", "best-of-k", "hybrid"):
            part = partition(mu, 25)
            select_representatives(part, k2, strategy=strategy, k=8, seed=5)
            for cell in part.cells:
                assert np.all(cell.representative >= cell.rect[:, 0])
                assert np.all(cell.representative <= cell.rect[:, 1])

    def test_unknown_strategy_rejected(self):
        part = partition(UniformBoxMeasure([0.0], [1.0]), 2)
        with pytest.raises(ValidationError):
            select_representatives(part, PL1, strategy="annealing")


def reference_hybrid(part, kernel, k, seed):
    """Hybrid selection with the greedy sweep as one potential_grid call per cell over the
    others: best-of-k, then each cell's candidate from its stream after one round of k draws
    (every tuple here has a finite pair sum)."""
    sel = select_representatives(part, kernel, strategy="best-of-k", k=k, seed=seed).selection
    best = part.representatives().copy()
    m, improvements = len(best), 0
    streams = np.random.default_rng(seed).spawn(m)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i, (cell, stream) in enumerate(zip(part.cells, streams)):
            cell.restriction.sample(k, stream)
            y = cell.restriction.sample(1, stream)[0]
            old, new = potential_grid(np.delete(best, i, axis=0), 1.0, kernel,
                                      np.stack([best[i], y]))
            delta = 2.0 * (new - old) / m**2
            if math.isfinite(delta) and delta < 0.0:
                best[i] = y
                improvements += 1
    return best, improvements, _energy_stats(best, kernel)[0], sel.bound_estimate


SWEEP_KERNELS = {
    "pl(1,2)": lambda dim: PowerLawKernel(1, 2, dim=dim),
    "pl(-0.5,2)": lambda dim: PowerLawKernel(-0.5, 2, dim=dim),
    "morse": lambda dim: MorseKernel(4, 1, 0.5, 2, dim=dim),
    "tabulated": lambda dim: TabulatedKernel(radii=(0.0, 0.1, 0.5, 1.0, 2.0),
                                             values=(math.inf, 3.0, 1.0, 0.5, 0.7), dim=dim),
}


class TestGreedySweep:
    # m = 30, 25 and 27 cells; none is a multiple of the 7-cell chunks
    @pytest.mark.parametrize("dim, n", [(1, 30), (2, 25), (3, 27)])
    @pytest.mark.parametrize("kernel", sorted(SWEEP_KERNELS))
    @pytest.mark.parametrize("chunks", ["one-short", "one-exact", "ragged", "ragged-row-blocks"])
    def test_chunked_sweep_is_the_per_cell_sweep_bit_for_bit(self, dim, n, kernel, chunks):
        """The cells of a chunk share one pair pass; every decision, and so every
        bit, is the per-cell sweep's, for 1, 2 and 3 worker threads.  A chunk of
        c cells spans 2 c (m + c) pairs; the block sizes below make it the whole
        partition and more, exactly the partition, or 4 cells (with row blocks of
        one probe in the last case)."""
        g = SWEEP_KERNELS[kernel](dim)
        mu = UniformBoxMeasure([0.0] * dim, [1.0] * dim)
        m = partition(mu, n).cell_count
        sizes = {"one-short": 2 * (m + 1) * (2 * m + 1), "one-exact": 4 * m * m,
                 "ragged": 8 * (m + 4), "ragged-row-blocks": 8 * (m + 4)}
        want, improvements, achieved, bound = reference_hybrid(partition(mu, n), g, 4, 7)
        assert improvements > 0
        block = m + 4 if chunks.endswith("row-blocks") else energy._BLOCK_ELEMENTS
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # frequent thread switches, so that a race would show
        try:
            for count in (1, 2, 3):
                with mock.patch.object(quantizer, "_BLOCK_ELEMENTS", sizes[chunks]), \
                        mock.patch.object(energy, "_BLOCK_ELEMENTS", block), \
                        mock.patch.object(energy.os, "cpu_count", return_value=count), \
                        energy.worker_threads(count):
                    part = select_representatives(partition(mu, n), g, "hybrid", k=4, seed=7)
                sel = part.selection
                assert part.representatives().tobytes() == want.tobytes()
                assert sel.greedy_improvements == improvements
                assert sel.achieved_G == achieved and sel.bound_estimate == bound
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("dim, n", [(1, 30), (2, 25), (3, 27)])
    @pytest.mark.parametrize("kernel", sorted(SWEEP_KERNELS))
    def test_two_block_chunks_are_the_per_cell_sweep_bit_for_bit(self, dim, n, kernel):
        """With one block size for the chunks and their passes, as outside tests, a
        chunk of c cells, 2 c (m + c) <= 2 * 8 (m + 4) pairs, is 7 cells and, but for
        the last, two row blocks of 7 probes, which the workers fill side by side; every
        decision, and so every bit, is the per-cell sweep's, for 1, 2 and 3 workers."""
        g = SWEEP_KERNELS[kernel](dim)
        mu = UniformBoxMeasure([0.0] * dim, [1.0] * dim)
        m = partition(mu, n).cell_count
        want, improvements, achieved, bound = reference_hybrid(partition(mu, n), g, 4, 7)
        real, blocks = quantizer._pair_pass, []

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            blocks.append(len(out))
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # frequent thread switches, so that a race would show
        try:
            for count in (1, 2, 3):
                blocks.clear()
                with mock.patch.object(quantizer, "_BLOCK_ELEMENTS", 8 * (m + 4)), \
                        mock.patch.object(energy, "_BLOCK_ELEMENTS", 8 * (m + 4)), \
                        mock.patch.object(quantizer, "_pair_pass", counting), \
                        mock.patch.object(energy.os, "cpu_count", return_value=count), \
                        energy.worker_threads(count):
                    part = select_representatives(partition(mu, n), g, "hybrid", k=4, seed=7)
                sel = part.selection
                assert part.representatives().tobytes() == want.tobytes()
                assert sel.greedy_improvements == improvements
                assert sel.achieved_G == achieved and sel.bound_estimate == bound
                assert len(blocks) == -(-m // 7) and blocks[:m // 7] == [2] * (m // 7)
        finally:
            sys.setswitchinterval(interval)

    def test_one_pair_pass_per_chunk(self):
        """A hybrid selection makes k tuple passes, one pass per chunk of the sweep
        and one final energy pass, not one pass per cell; a chunk is two blocks."""
        part = partition(UniformBoxMeasure([0.0, 0.0], [1.0, 1.0]), 1024)
        m, k = part.cell_count, 2
        chunk = max(c for c in range(1, m + 1) if 2 * c * (m + c) <= 2 * energy._BLOCK_ELEMENTS)
        real, passes = energy._pair_pass, []

        def counting(*args, **kwargs):
            passes.append(args)
            return real(*args, **kwargs)

        with mock.patch.object(energy, "_pair_pass", counting), \
                mock.patch.object(quantizer, "_pair_pass", counting):
            select_representatives(part, PowerLawKernel(1, 2, dim=2), strategy="hybrid", k=k)
        assert chunk < m and len(passes) <= k + -(-m // chunk) + 1


class TestQuantize:
    def test_exact_power_keeps_all_cells(self):
        result = quantize(UniformBoxMeasure([0.0, 0.0], [1.0, 1.0]), 16,
                          PowerLawKernel(1, 2, dim=2), seed=0)
        assert result.dropped == 0
        assert result.config.n == 16

    def test_dropped_count(self):
        result = quantize(UniformBoxMeasure([0.0, 0.0], [1.0, 1.0]), 10,
                          strategy="conditional-mean")
        assert result.split_count == 4
        assert result.dropped == 16 - 10
        assert result.config.n == 10

    @pytest.mark.parametrize("n", [2, 7, 64])
    def test_conditional_mean_is_finite_on_heavy_tails(self, n):
        """Cauchy end cells are half-lines on which the mean does not exist;
        the Gauss-rule mean is finite there, and clipped into the cell."""
        mu = ProductQuantileMeasure([lambda u: np.tan(np.pi * (u - 0.5))])
        points = quantize(mu, n, strategy="conditional-mean").config.points
        cells = partition(mu, n).cells
        assert cells[0].rect[0, 0] == -math.inf and cells[-1].rect[0, 1] == math.inf
        assert np.all(np.isfinite(points))
        for point, cell in zip(points, cells):
            lo, hi = cell.rect[:, 0], cell.rect[:, 1]
            assert np.all(lo <= point) and np.all(point <= hi)
            assert np.array_equal(point, np.clip(cell.restriction.mean_point(), lo, hi))

    def test_point_mass_quantizes_to_copies(self):
        result = quantize(single_atom([2.0, -1.0]), 7, strategy="conditional-mean")
        assert np.allclose(result.config.points, [2.0, -1.0])

    def test_uniform_1000_energy_near_continuum(self):
        result = quantize(UniformBoxMeasure([0.0], [1.0]), 1000, PL1, seed=1)
        energy = discrete_energy(result.config, PL1).value
        assert abs(energy - (-0.25)) < 0.01

    def test_seed_determinism(self):
        mu = UniformBoxMeasure([0.0, 0.0], [1.0, 1.0])
        k2 = PowerLawKernel(1, 2, dim=2)
        a = quantize(mu, 50, k2, seed=42)
        b = quantize(mu, 50, k2, seed=42)
        assert np.array_equal(a.config.points, b.config.points)
        c = quantize(mu, 50, k2, seed=43)
        assert not np.array_equal(a.config.points, c.config.points)

    def test_weak_star_proxy_decay(self):
        from rieszmin.diagnostics import bl_distance

        mu = UniformBoxMeasure([0.0, 0.0], [1.0, 1.0])
        k2 = PowerLawKernel(1, 2, dim=2)
        d16 = bl_distance(quantize(mu, 16, k2, seed=7).config, mu)
        d1024 = bl_distance(quantize(mu, 1024, k2, seed=7).config, mu)
        assert d1024 * 3.0 <= d16

    def test_recovery_trend_toward_continuum(self):
        energies = []
        for n in (16, 64, 256, 1024):
            cfg = quantize(UniformBoxMeasure([0.0], [1.0]), n, PL1, seed=2).config
            energies.append(discrete_energy(cfg, PL1).value)
        gaps = [abs(e - (-0.25)) for e in energies]
        assert gaps[-1] < 0.01
        assert gaps[-1] < gaps[0]
