import math

import numpy as np
import pytest

from rieszmin import (
    AtomicMeasure,
    DensityBoxMeasure,
    ProductQuantileMeasure,
    UniformBallMeasure,
    UniformBoxMeasure,
    ValidationError,
    partition,
    single_atom,
)


class TestAtomicMeasure:
    def test_equal_weights_by_default(self):
        mu = AtomicMeasure(np.arange(8.0).reshape(-1, 1))
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bad_weights_rejected(self):
        with pytest.raises(ValidationError):
            AtomicMeasure([[0.0], [1.0]], weights=[0.9, 0.3])
        with pytest.raises(ValidationError):
            AtomicMeasure([[0.0], [1.0]], weights=[1.2, -0.2])

    def test_threshold_sits_on_an_atom(self):
        mu = AtomicMeasure(np.arange(1.0, 9.0).reshape(-1, 1))
        root = mu.root_restriction()
        assert root.axis_threshold(0, 0.5) == 4.0

    def test_fractional_split_mass_exact(self):
        mu = single_atom([0.0])
        root = mu.root_restriction()
        left, right, t = root.split_fraction(0, 1.0 / 3.0)
        assert t == 0.0
        assert left.mass == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert right.mass == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert left.weights.sum() == pytest.approx(left.mass, abs=1e-15)

    def test_split_respects_cdf_threshold(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(300, 1))
        mu = AtomicMeasure(pts)
        root = mu.root_restriction()
        left, right, t = root.split_fraction(0, 0.25)
        assert np.all(left.points[:, 0] <= t)
        assert np.all(right.points[:, 0] >= t)
        assert left.mass + right.mass == pytest.approx(1.0, abs=1e-12)

    def test_samples_stay_in_rect(self):
        rng = np.random.default_rng(1)
        mu = AtomicMeasure(rng.normal(size=(200, 2)))
        root = mu.root_restriction()
        left, _, t = root.split_fraction(0, 0.5)
        draws = left.sample(64, np.random.default_rng(2))
        assert np.all(draws[:, 0] <= t)


class TestUniformBox:
    def test_samples_inside(self):
        mu = UniformBoxMeasure([0.0, -1.0], [2.0, 1.0])
        pts = mu.sample(500, np.random.default_rng(3))
        assert np.all(pts >= [0.0, -1.0]) and np.all(pts <= [2.0, 1.0])

    def test_restriction_mean_is_cell_center(self):
        mu = UniformBoxMeasure([0.0], [1.0])
        root = mu.root_restriction()
        left, right, t = root.split_fraction(0, 0.5)
        assert t == pytest.approx(0.5)
        assert left.mean_point()[0] == pytest.approx(0.25, abs=1e-12)
        assert right.mean_point()[0] == pytest.approx(0.75, abs=1e-12)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValidationError):
            UniformBoxMeasure([0.0, 0.0], [1.0, 0.0])


class TestProductQuantile:
    def test_exponential_marginal(self):
        # quantile of Exp(1): -log(1 - u)
        mu = ProductQuantileMeasure([lambda u: -np.log1p(-np.clip(u, 0, 1 - 1e-12))])
        root = mu.root_restriction()
        assert root.split_fraction(0, 0.5)[2] == pytest.approx(math.log(2.0), rel=1e-9)
        pts = mu.sample(20_000, np.random.default_rng(4))
        assert float(pts.mean()) == pytest.approx(1.0, abs=0.05)

    def test_discretize_grid_is_deterministic(self):
        mu = UniformBoxMeasure([0.0, 0.0], [1.0, 1.0])
        p1, w1 = mu.discretize(256)
        p2, w2 = mu.discretize(256)
        assert np.array_equal(p1, p2)
        assert w1.sum() == pytest.approx(1.0, abs=1e-12)


class TestDensityBox:
    def test_uniform_density_matches_box(self):
        mu = DensityBoxMeasure(lambda pts: np.ones(len(pts)), [0.0], [1.0],
                               cells_per_axis=512)
        root = mu.root_restriction()
        assert root.axis_threshold(0, 0.5) == pytest.approx(0.5, abs=2e-3)
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_density_rejected_without_flag(self):
        with pytest.raises(ValidationError):
            DensityBoxMeasure(lambda pts: 2.0 * np.ones(len(pts)), [0.0], [1.0])

    def test_normalize_flag(self):
        mu = DensityBoxMeasure(lambda pts: 2.0 * np.ones(len(pts)), [0.0], [1.0],
                               normalize=True)
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_samples_lie_in_the_cells_of_their_atoms(self):
        """Each draw is an atom jittered within half a grid step on each axis,
        inside the box, and the same draws come back for the same seed."""
        mu = DensityBoxMeasure(lambda pts: 2.0 * pts[:, 0], [0.0, -1.0], [1.0, 1.0],
                               cells_per_axis=8, normalize=True)
        pts = mu.sample(500, np.random.default_rng(9))
        assert np.all((pts >= [0.0, -1.0]) & (pts <= [1.0, 1.0]))
        offsets = np.abs(pts[:, None, :] - mu.points[None, :, :])  # (draws, atoms, axes)
        assert np.all(np.any(np.all(offsets <= [0.5 / 8, 1.0 / 8], axis=2), axis=1))
        assert np.array_equal(pts, mu.sample(500, np.random.default_rng(9)))

    def test_triangular_density_quantiles(self):
        # density 2x on [0, 1] has CDF x^2, so the median is sqrt(1/2)
        mu = DensityBoxMeasure(lambda pts: 2.0 * pts[:, 0], [0.0], [1.0],
                               cells_per_axis=2048, normalize=True)
        root = mu.root_restriction()
        assert root.axis_threshold(0, 0.5) == pytest.approx(math.sqrt(0.5), abs=1e-3)


class TestUniformBall:
    def test_samples_inside_ball(self):
        mu = UniformBallMeasure([1.0, -2.0], 3.0)
        pts = mu.sample(2000, np.random.default_rng(5))
        assert np.all(np.linalg.norm(pts - [1.0, -2.0], axis=1) <= 3.0 + 1e-12)

    def test_grid_proxy_total_mass(self):
        mu = UniformBallMeasure([0.0, 0.0], 1.0)
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mean_radius_matches_theory(self):
        # uniform disk: E|X| = 2R/3
        mu = UniformBallMeasure([0.0, 0.0], 1.0)
        pts = mu.sample(40_000, np.random.default_rng(6))
        assert float(np.linalg.norm(pts, axis=1).mean()) == pytest.approx(2.0 / 3.0, abs=0.01)


SURROGATES = {
    "ball": lambda dim: UniformBallMeasure([0.0] * dim, 1.0, cells_per_axis=8),
    "density": lambda dim: DensityBoxMeasure(lambda pts: 1.0 + pts[:, 0], [0.0] * dim,
                                             [1.0] * dim, cells_per_axis=8, normalize=True),
}


class TestSurrogateCellDraws:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(SURROGATES))
    def test_cell_draws_spread_over_the_grid_cells_of_their_atoms(self, kind, dim):
        """A grid surrogate's cell draws one of its atoms moved at most half a grid
        step on each axis, inside the cell's closed rect; an atom split between two
        cells gives them different points, so no two draws coincide."""
        mu = SURROGATES[kind](dim)
        cells = partition(mu, 3**dim)
        draws = cells[0].sample_cells(cells, np.random.default_rng(dim), 100)
        for i, cell in enumerate(cells):
            lo, hi = cell.rect[:, 0], cell.rect[:, 1]
            assert np.all((lo <= draws[:, i]) & (draws[:, i] <= hi))
            offsets = np.abs(draws[:, i, None, :] - cell.points[None, :, :])
            assert np.all(np.any(np.all(offsets <= 0.5 * mu._steps, axis=2), axis=1))
        assert len(np.unique(draws.reshape(-1, dim), axis=0)) == draws.shape[0] * len(cells)


class TestAtomsMix:
    def test_weighted_atoms(self):
        mu = AtomicMeasure([[0.0], [1.0]], [0.25, 0.75])
        root = mu.root_restriction()
        assert root.axis_threshold(0, 0.2) == 0.0
        assert root.axis_threshold(0, 0.5) == 1.0
        pts = mu.sample(8000, np.random.default_rng(7))
        assert float((pts == 1.0).mean()) == pytest.approx(0.75, abs=0.02)
