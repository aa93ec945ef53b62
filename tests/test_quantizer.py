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
    QuantizeError,
    TabulatedKernel,
    UniformBallMeasure,
    UniformBoxMeasure,
    ValidationError,
    bl_distance,
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
        cells = partition(UniformBoxMeasure([0.0, 0.0], [1.0, 1.0]), 4)
        assert len(cells) == 4
        # row-major split indices (0, 0), (0, 1), (1, 0), (1, 1), read off the lower corners
        lower = [tuple(c.rect[:, 0]) for c in cells]
        assert lower == [(-math.inf, -math.inf), (-math.inf, 0.5), (0.5, -math.inf), (0.5, 0.5)]
        for cell in cells:
            assert cell.mass == pytest.approx(0.25, abs=1e-12)
        # interior thresholds at 0.5 on both axes
        assert cells[0].rect[0, 1] == pytest.approx(0.5)
        assert cells[0].rect[1, 1] == pytest.approx(0.5)

    def test_single_cell_covers_everything(self):
        cells = partition(UniformBoxMeasure([0.0], [1.0]), 1)
        assert len(cells) == 1
        assert cells[0].mass == 1.0
        assert cells[0].rect[0, 0] == -math.inf
        assert cells[0].rect[0, 1] == math.inf

    def test_cloud_cells_have_exact_masses(self):
        rng = np.random.default_rng(1)
        mu = AtomicMeasure(rng.normal(size=(5000, 2)))
        cells = partition(mu, 9)
        masses = np.array([c.mass for c in cells])
        assert abs(masses.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(masses - 1.0 / 9.0)) <= 1e-9
        # the restriction weights back the bookkept mass
        for cell in cells:
            assert cell.weights.sum() == pytest.approx(cell.mass, abs=1e-12)

    def test_atom_heavy_cloud_splits_fractionally(self):
        # half the mass sits on a single repeated location
        pts = np.vstack([np.zeros((5, 1)), np.arange(1.0, 6.0).reshape(-1, 1)])
        mu = AtomicMeasure(pts)
        masses = [c.mass for c in partition(mu, 4)]
        assert np.allclose(masses, 0.25, atol=1e-12)


class TestSelectRepresentatives:
    def test_single_cell_mean(self):
        result = select_representatives(partition(UniformBoxMeasure([0.0], [1.0]), 1), PL1,
                                        strategy="conditional-mean")
        assert result.config.points[0][0] == pytest.approx(0.5, abs=1e-12)
        assert result.selection.achieved_G == 0.0

    def test_conditional_means_of_uniform_quarters(self):
        result = select_representatives(partition(UniformBoxMeasure([0.0], [1.0]), 4),
                                        strategy="conditional-mean")
        reps = result.config.points[:, 0]
        assert np.allclose(reps, [0.125, 0.375, 0.625, 0.875], atol=1e-12)

    def test_containment_in_closed_cells(self):
        rng = np.random.default_rng(4)
        mu = AtomicMeasure(rng.normal(size=(2000, 2)))
        k2 = PowerLawKernel(1, 2, dim=2)
        for strategy in ("conditional-mean", "hybrid"):
            cells = partition(mu, 25)
            result = select_representatives(cells, k2, strategy=strategy, k=8, seed=5)
            for cell, point in zip(cells, result.config.points):
                assert np.all(point >= cell.rect[:, 0])
                assert np.all(point <= cell.rect[:, 1])

    def test_selection_gives_up_after_k_rounds(self):
        """Five atoms cannot hold nine cells' draws apart: under a singular kernel every
        tuple has coincident points, and selection gives up after k draws."""
        corners = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]]
        mu = AtomicMeasure(np.array(corners), np.full(5, 0.2))
        with pytest.raises(QuantizeError, match="32 draws all"):
            quantize(mu, 9, PowerLawKernel(-0.5, 2, dim=2), strategy="hybrid")

    def test_hybrid_draws_an_infinite_first_tuple_again(self):
        """A first tuple with a non-finite pair sum is drawn again from the same generator;
        the sweeps start from the second, whose pair sum is the bound."""
        mu, kernel = UniformBoxMeasure([0.0, 0.0], [1.0, 1.0]), PowerLawKernel(1, 2, dim=2)
        real, calls = quantizer._energy_stats, []

        def first_infinite(points, kern):
            calls.append(points.copy())
            return (math.inf,) * 3 if len(calls) == 1 else real(points, kern)

        cells = partition(mu, 16)
        with mock.patch.object(quantizer, "_energy_stats", first_infinite):
            result = select_representatives(cells, kernel, "hybrid", k=4, seed=5)
        sel = result.selection
        assert len(calls) == 3  # two draws and the final pass
        rng = np.random.default_rng(5)
        draws = [cells[0].sample_cells(cells, rng, 1)[0] for _ in range(2)]
        assert calls[0].tobytes() == draws[0].tobytes()
        assert calls[1].tobytes() == draws[1].tobytes()
        assert sel.bound_estimate == real(draws[1], kernel)[0]
        assert sel.achieved_G == real(result.config.points, kernel)[0] <= sel.bound_estimate

    def test_unknown_strategy_rejected(self):
        for strategy in ("annealing", "best-of-k"):
            with pytest.raises(ValidationError, match=f"unknown strategy '{strategy}'"):
                select_representatives(partition(UniformBoxMeasure([0.0], [1.0]), 2), PL1,
                                       strategy=strategy)

    @pytest.mark.parametrize("kernel", [PL1, None])
    def test_quantize_rejects_an_unknown_strategy_with_or_without_a_kernel(self, kernel):
        with pytest.raises(ValidationError, match="unknown strategy 'annealing'"):
            quantize(UniformBoxMeasure([0.0], [1.0]), 2, kernel, strategy="annealing")


def reference_hybrid(cells, kernel, seed):
    """Hybrid selection with each greedy sweep as one potential_grid call per cell over the
    others: one tuple from the product of the cell measures (its pair sum finite here), then
    SWEEPS sweeps, each trying one fresh draw per cell; every round of draws comes from one
    generator, in the selection's order."""
    m, rng = len(cells), np.random.default_rng(seed)
    best = cells[0].sample_cells(cells, rng, 1)[0]
    first, improvements = _energy_stats(best, kernel)[0], 0
    assert math.isfinite(first)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(quantizer.SWEEPS):
            for i, y in enumerate(cells[0].sample_cells(cells, rng, 1)[0]):
                old, new = potential_grid(np.delete(best, i, axis=0), 1.0, kernel,
                                          np.stack([best[i], y]))
                delta = 2.0 * (new - old) / m**2
                if math.isfinite(delta) and delta < 0.0:
                    best[i] = y
                    improvements += 1
    return best, improvements, _energy_stats(best, kernel)[0], first


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
        m = len(partition(mu, n))
        sizes = {"one-short": 2 * (m + 1) * (2 * m + 1), "one-exact": 4 * m * m,
                 "ragged": 8 * (m + 4), "ragged-row-blocks": 8 * (m + 4)}
        want, improvements, achieved, bound = reference_hybrid(partition(mu, n), g, 7)
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
                    result = select_representatives(partition(mu, n), g, "hybrid", k=4, seed=7)
                sel = result.selection
                assert result.config.points.tobytes() == want.tobytes()
                assert sel.greedy_improvements == improvements
                assert sel.achieved_G == achieved and sel.bound_estimate == bound
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("dim, n", [(1, 30), (2, 25), (3, 27)])
    @pytest.mark.parametrize("kernel", sorted(SWEEP_KERNELS))
    def test_two_block_chunks_are_the_per_cell_sweep_bit_for_bit(self, dim, n, kernel):
        """With one block size for the chunks and their passes, as outside tests, a
        chunk of c cells, 2 c (m + c) <= 2 * 8 (m + 4) pairs, is 7 cells and, but for
        the last, two row blocks of 7 probes, which the workers fill side by side, in each
        sweep; every decision, and so every bit, is the per-cell sweep's, for 1, 2 and 3
        workers."""
        g = SWEEP_KERNELS[kernel](dim)
        mu = UniformBoxMeasure([0.0] * dim, [1.0] * dim)
        m = len(partition(mu, n))
        want, improvements, achieved, bound = reference_hybrid(partition(mu, n), g, 7)
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
                    result = select_representatives(partition(mu, n), g, "hybrid", k=4, seed=7)
                sel = result.selection
                assert result.config.points.tobytes() == want.tobytes()
                assert sel.greedy_improvements == improvements
                assert sel.achieved_G == achieved and sel.bound_estimate == bound
                chunks = -(-m // 7)  # per sweep
                assert len(blocks) == quantizer.SWEEPS * chunks
                for p in range(0, len(blocks), chunks):
                    assert blocks[p:p + m // 7] == [2] * (m // 7)
        finally:
            sys.setswitchinterval(interval)

    def test_one_pair_pass_per_chunk(self):
        """A hybrid selection makes one tuple pass, one pass per chunk of each of its
        SWEEPS sweeps and one final energy pass, not one pass per cell; a chunk is two
        blocks."""
        cells = partition(UniformBoxMeasure([0.0, 0.0], [1.0, 1.0]), 1024)
        m, k = len(cells), 2
        chunk = max(c for c in range(1, m + 1) if 2 * c * (m + c) <= 2 * energy._BLOCK_ELEMENTS)
        real, passes = energy._pair_pass, []

        def counting(*args, **kwargs):
            passes.append(args)
            return real(*args, **kwargs)

        with mock.patch.object(energy, "_pair_pass", counting), \
                mock.patch.object(quantizer, "_pair_pass", counting):
            select_representatives(cells, PowerLawKernel(1, 2, dim=2), strategy="hybrid", k=k)
        assert chunk < m and len(passes) <= 1 + quantizer.SWEEPS * -(-m // chunk) + 1


class TestQuantize:
    def test_exact_power_keeps_all_cells(self):
        result = quantize(UniformBoxMeasure([0.0, 0.0], [1.0, 1.0]), 16,
                          PowerLawKernel(1, 2, dim=2), seed=0)
        assert result.config.n == 16

    def test_non_square_n_gives_n_cells_of_mass_one_over_n(self):
        cells = partition(UniformBoxMeasure([0.0, 0.0], [1.0, 1.0]), 10)
        assert len(cells) == 10
        for cell in cells:
            assert cell.mass == pytest.approx(0.1, abs=1e-12)
        result = quantize(UniformBoxMeasure([0.0, 0.0], [1.0, 1.0]), 10,
                          strategy="conditional-mean")
        assert result.config.n == 10

    @pytest.mark.parametrize("dim,square,n", [
        (2, 225, 230), (2, 225, 240), (2, 1024, 1050), (2, 1024, 1080),
        (3, 1000, 1001), (3, 1000, 1100),
    ])
    def test_non_square_n_is_as_close_to_the_measure(self, dim, square, n):
        """Weak-* convergence does not stall between squares: the conditional-mean
        points at a non-square n are at most 1.25 times as far from the measure,
        in the bl_distance surrogate, as those at the square n just below."""
        mu = UniformBoxMeasure([0.0] * dim, [1.0] * dim)
        at_square, at_n = (bl_distance(quantize(mu, m, strategy="conditional-mean").config, mu)
                           for m in (square, n))
        assert at_n <= 1.25 * at_square

    @pytest.mark.parametrize("n", [2, 7, 64])
    def test_conditional_mean_is_finite_on_heavy_tails(self, n):
        """Cauchy end cells are half-lines on which the mean does not exist;
        the Gauss-rule mean is finite there, and clipped into the cell."""
        mu = ProductQuantileMeasure([lambda u: np.tan(np.pi * (u - 0.5))])
        points = quantize(mu, n, strategy="conditional-mean").config.points
        cells = partition(mu, n)
        assert cells[0].rect[0, 0] == -math.inf and cells[-1].rect[0, 1] == math.inf
        assert np.all(np.isfinite(points))
        for point, cell in zip(points, cells):
            lo, hi = cell.rect[:, 0], cell.rect[:, 1]
            assert np.all(lo <= point) and np.all(point <= hi)
            assert np.array_equal(point, np.clip(cell.mean_point(), lo, hi))

    @pytest.mark.parametrize("seed", range(5))
    def test_singular_kernel_quantizes_the_ball(self, seed):
        """The ball's grid-surrogate cells draw apart, so under PL(-0.5,2) no draw of
        n = 1024 points has coincident ones and hybrid selection succeeds."""
        mu = UniformBallMeasure([0.0, 0.0], 1.0)
        result = quantize(mu, 1024, PowerLawKernel(-0.5, 2, dim=2), "hybrid", 32, seed)
        assert math.isfinite(result.selection.bound_estimate)
        assert len(np.unique(result.config.points, axis=0)) == 1024

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
