import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from rieszmin import (
    Configuration,
    MorseKernel,
    PowerLawKernel,
    SubConfiguration,
    UniformBoxMeasure,
    cross_energy,
    discrete_energy,
    partial_energy,
    quantize,
)
from rieszmin import energy
from rieszmin.diagnostics import (
    _BL_SLICES,
    _as_atoms,
    _w1_truncated_1d,
    bl_distance,
    cluster_classify,
    el_residual,
    gamma_trace,
)
from rieszmin.minimizer import MinimizeSettings, minimize

PL2 = PowerLawKernel(1, 2, dim=2)


def ball_points(rng, count, center, radius):
    d = rng.normal(size=(count, len(center)))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    r = radius * rng.uniform(0, 1, size=(count, 1)) ** (1.0 / len(center))
    return np.asarray(center) + d * r


class TestELResidual:
    def test_optimal_pair_potentials(self):
        res = minimize(PL2, 2, 2, MinimizeSettings(restarts=4, seed=0))
        report = el_residual(res.config, PL2)
        # each particle sees (1/2) g(1) = -1/4; the mean equals the energy
        assert np.allclose(report.particle_potentials, -0.25, atol=1e-9)
        assert report.potential_spread <= 1e-12
        assert report.mean_potential == pytest.approx(res.energy, abs=1e-12)

    def test_point_transitive_symmetry_has_zero_spread(self):
        square = Configuration([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        report = el_residual(square, PL2)
        assert report.potential_spread <= 1e-12

    def test_random_cloud_has_positive_spread(self):
        rng = np.random.default_rng(1)
        cfg = Configuration(rng.normal(size=(12, 2)))
        assert el_residual(cfg, PL2).potential_spread > 1e-6

    def test_mean_potential_equals_energy(self):
        rng = np.random.default_rng(2)
        cfg = Configuration(rng.normal(size=(9, 2)))
        report = el_residual(cfg, PL2)
        energy = discrete_energy(cfg, PL2).value
        assert report.mean_potential == pytest.approx(energy, rel=1e-12)


class TestClusterClassify:
    def test_unit_ball_cloud_is_compact(self):
        rng = np.random.default_rng(3)
        cfg = Configuration(ball_points(rng, 100, [0.0, 0.0], 1.0))
        report = cluster_classify(cfg)
        assert report.classification == "compactness"
        assert report.largest_fraction == 1.0

    def test_two_far_clusters_are_dichotomy(self):
        rng = np.random.default_rng(4)
        a = ball_points(rng, 60, [0.0, 0.0], 0.01)
        b = ball_points(rng, 40, [10.0, 0.0], 0.01)  # 1000x the cluster radius
        report = cluster_classify(Configuration(np.vstack([a, b])))
        assert report.classification == "dichotomy-like"
        assert report.largest_fraction == pytest.approx(0.6, abs=0.01)
        assert report.gap > 9.0

    def test_geometric_spacing_is_vanishing(self):
        pts = (2.0 ** np.arange(30) - 1.0).reshape(-1, 1)
        report = cluster_classify(Configuration(pts))
        assert report.classification == "vanishing-like"
        assert report.max_ball_mass < 0.05

    def test_invariance_under_translation_and_permutation(self):
        rng = np.random.default_rng(5)
        a = ball_points(rng, 30, [0.0, 0.0], 0.01)
        b = ball_points(rng, 20, [50.0, 0.0], 0.01)
        pts = np.vstack([a, b])
        base = cluster_classify(Configuration(pts))
        perm = rng.permutation(len(pts))
        moved = cluster_classify(Configuration(pts[perm] + [3.0, -7.0]))
        assert moved.classification == base.classification
        assert moved.largest_fraction == pytest.approx(base.largest_fraction)
        assert moved.gap == pytest.approx(base.gap, rel=1e-12)

    def test_single_point(self):
        report = cluster_classify(Configuration([[1.0, 1.0]]))
        assert report.classification == "compactness"

    def test_memory_stays_linear_in_n(self):
        # two unit disks 30 apart at n = 4096; one n x n float matrix alone is 134 MB
        rng = np.random.default_rng(8)
        cfg = Configuration(np.vstack([ball_points(rng, 2048, [0.0, 0.0], 1.0),
                                       ball_points(rng, 2048, [30.0, 0.0], 1.0)]))
        cluster_classify(Configuration(cfg.points[:8]))  # imports outside the measurement
        tracemalloc.start()
        try:
            cluster_classify(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_links_are_not_all_held_at_once(self):
        """Half of 2000 points on one site link ~5e5 pairs (8 MB as index
        pairs); the blocks' spanning forests keep far fewer."""
        pts = np.random.default_rng(9).random((2000, 2))
        pts[:1000] = 0.5
        cluster_classify(Configuration(pts[:8]))  # imports outside the measurement
        tracemalloc.start()
        try:
            report = cluster_classify(Configuration(pts))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.clusters[0].indices) == 1000
        assert peak < 4 * 2**20


class TestBLDistance:
    def test_identical_configurations(self):
        rng = np.random.default_rng(6)
        cfg = Configuration(rng.normal(size=(20, 2)))
        assert bl_distance(cfg, cfg) == 0.0

    def test_two_diracs_small_separation(self):
        for x in (0.05, 0.3, 1.0):
            a = Configuration([[0.0]])
            b = Configuration([[x]])
            assert bl_distance(a, b) == pytest.approx(x, rel=1e-12)

    def test_two_diracs_capped_at_two(self):
        a = Configuration([[0.0]])
        b = Configuration([[100.0]])
        assert bl_distance(a, b) == 2.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_same_float_for_any_worker_count(self, dim):
        """The slices run on the workers and add in slice order: the value is the
        serial loop's over the directions drawn with seed 0, for 1, 2 and 3 workers."""
        cfg = Configuration(np.random.default_rng(dim).normal(size=(300, dim)))
        mu = UniformBoxMeasure([0.0] * dim, [1.0] * dim)
        (pa, wa), (pb, wb) = _as_atoms(cfg), _as_atoms(mu)
        want = _w1_truncated_1d(pa[:, 0], wa, pb[:, 0], wb)
        if dim > 1:
            rng, want = np.random.default_rng(0), 0.0
            for _ in range(_BL_SLICES):
                u = rng.normal(size=dim)
                u /= np.linalg.norm(u)
                want += _w1_truncated_1d(pa @ u, wa, pb @ u, wb)
            want /= _BL_SLICES
        for count in (1, 2, 3):
            with mock.patch.object(energy.os, "cpu_count", return_value=count), \
                    energy.worker_threads(count):
                assert bl_distance(cfg, mu) == want

    def test_quantizer_beats_coarser_quantizer(self):
        mu = UniformBoxMeasure([0.0], [1.0])
        k1 = PowerLawKernel(1, 2, dim=1)
        d16 = bl_distance(quantize(mu, 16, k1, seed=0).config, mu)
        d256 = bl_distance(quantize(mu, 256, k1, seed=0).config, mu)
        assert d256 < d16

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a = Configuration(rng.normal(size=(15, 2)))
        b = Configuration(rng.normal(size=(10, 2)))
        assert bl_distance(a, b) == pytest.approx(bl_distance(b, a), rel=1e-12)

    def test_triangle_inequality_in_1d(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = Configuration(rng.normal(size=(8, 1)))
            b = Configuration(rng.normal(size=(12, 1)))
            c = Configuration(rng.normal(size=(5, 1)))
            ab = bl_distance(a, b)
            bc = bl_distance(b, c)
            ac = bl_distance(a, c)
            assert ac <= ab + bc + 1e-12

    def test_triangle_inequality_sliced(self):
        # all three distances share slice directions, so the per-slice
        # inequality survives the averaging exactly
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = Configuration(rng.normal(size=(9, 2)))
            b = Configuration(rng.normal(size=(7, 2)))
            c = Configuration(rng.normal(size=(11, 2)))
            assert bl_distance(a, c) <= bl_distance(a, b) + bl_distance(b, c) + 1e-12


class TestSupportDiameter:
    """The diameter diagnose reports, from el_residual's energy pass."""

    def test_trivial_cases(self):
        assert el_residual(Configuration([[5.0, 5.0]]), PL2).diameter == 0.0
        assert el_residual(Configuration([[0.0, 0.0], [1.0, 0.0]]), PL2).diameter == 1.0

    def test_equilateral_triangle(self):
        s = 0.7
        pts = [[0.0, 0.0], [s, 0.0], [s / 2, s * math.sqrt(3) / 2]]
        assert el_residual(Configuration(pts), PL2).diameter == pytest.approx(s)


class TestGammaTrace:
    def test_uniform_segment_reaches_continuum(self):
        k1 = PowerLawKernel(1, 2, dim=1)
        mu = UniformBoxMeasure([0.0], [1.0])
        trace = gamma_trace(k1, mu, [16, 64, 256], seed=0, mc_samples=100_000)
        gaps = [abs(r.energy_quantized - (-0.25)) for r in trace.rows]
        assert gaps[-1] < 0.01
        assert trace.target_energy == pytest.approx(-0.25, abs=3 * trace.target_std_error)

    def test_point_mass_rows_are_zero(self):
        k = MorseKernel(1, 1, 1, 1, dim=2)  # identically zero kernel
        from rieszmin import single_atom

        trace = gamma_trace(k, single_atom([0.5, 0.5]), [4, 9], seed=1,
                            mc_samples=1000)
        assert all(r.energy_quantized == 0.0 for r in trace.rows)

    def test_minimization_improves_on_quantization(self):
        k1 = PowerLawKernel(1, 2, dim=1)
        mu = UniformBoxMeasure([0.0], [1.0])
        trace = gamma_trace(k1, mu, [8, 16], with_minimization=True, seed=2,
                            minimize_settings=MinimizeSettings(restarts=2, seed=2),
                            mc_samples=1000)
        for row in trace.rows:
            assert row.energy_minimized <= row.energy_quantized + 1e-12
        assert trace.ell_p_estimate == trace.rows[-1].energy_minimized


class TestDichotomyEnergySplit:
    def test_far_clusters_decouple(self):
        # the cross term of two widely separated families is negligible, so
        # the energy decomposition reduces to the two partial energies
        rng = np.random.default_rng(9)
        k = MorseKernel(4, 1, 0.5, 2, dim=2)
        a = ball_points(rng, 12, [0.0, 0.0], 0.5)
        b = ball_points(rng, 8, [1000.0, 0.0], 0.5)
        pts = np.vstack([a, b])
        n = len(pts)
        total = discrete_energy(Configuration(pts), k).value
        pa = partial_energy(SubConfiguration(a, denominator=n), k)
        pb = partial_energy(SubConfiguration(b, denominator=n), k)
        cross = cross_energy(SubConfiguration(a, denominator=n),
                             SubConfiguration(b, denominator=n), k)
        assert total == pytest.approx(pa + pb + 2 * cross, rel=1e-12)
        assert abs(total - (pa + pb)) <= 1e-12
