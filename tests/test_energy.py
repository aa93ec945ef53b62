import math
import os
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from rieszmin import (
    AtomicMeasure,
    Configuration,
    GradientUndefinedError,
    MorseKernel,
    PowerLawKernel,
    SubConfiguration,
    UniformBoxMeasure,
    ValidationError,
    bl_distance,
    continuum_energy_mc,
    cross_energy,
    discrete_energy,
    gradient,
    partial_energy,
    potential,
    single_atom,
    truncated_energy_gap,
)
from rieszmin import diagnostics, energy
from rieszmin.energy import (
    load_configuration_csv,
    pair_interaction_sum,
    save_configuration_csv,
    worker_threads,
)

PL2 = PowerLawKernel(1, 2, dim=2)
PL1 = PowerLawKernel(1, 2, dim=1)


def random_config(rng, n, dim, scale=1.0):
    return Configuration(scale * rng.normal(size=(n, dim)))


class TestDiscreteEnergy:
    def test_two_points_at_unit_distance(self):
        cfg = Configuration([[0.0, 0.0], [1.0, 0.0]])
        ev = discrete_energy(cfg, PL2)
        assert ev.value == pytest.approx(-0.25, abs=1e-15)
        assert ev.pair_count == 2
        assert ev.min_pair_distance == 1.0

    def test_single_point_has_empty_pair_set(self):
        ev = discrete_energy(Configuration([[3.0, 4.0]]), PL2)
        assert ev.value == 0.0
        assert ev.pair_count == 0
        assert ev.min_pair_distance == math.inf

    def test_points_without_coordinates_are_rejected(self):
        with pytest.raises(ValidationError, match="dim >= 1"):
            Configuration(np.zeros((3, 0)))

    def test_ragged_points_are_rejected(self):
        with pytest.raises(ValidationError, match="regular array"):
            Configuration([[0, 0], [1]])

    def test_three_collinear_points(self):
        # hand sum: (2/9) (g(1) + g(1) + g(2)) with g(1) = -1/2, g(2) = 0
        cfg = Configuration(np.array([[0.0], [1.0], [2.0]]))
        ev = discrete_energy(cfg, PL1)
        assert ev.value == pytest.approx(-2.0 / 9.0, abs=1e-15)

    def test_singular_collision_gives_infinity(self):
        k = PowerLawKernel(-1, 2, dim=2)
        cfg = Configuration([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        ev = discrete_energy(cfg, k)
        assert ev.value == math.inf
        assert ev.min_pair_distance == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cfg = random_config(rng, 17, 2)
            shift = rng.normal(size=2) * 10
            e0 = discrete_energy(cfg, PL2).value
            e1 = discrete_energy(Configuration(cfg.points + shift), PL2).value
            assert abs(e1 - e0) <= 1e-12 * max(1.0, abs(e0))

    def test_permutation_bit_identity(self):
        rng = np.random.default_rng(1)
        cfg = random_config(rng, 41, 3)
        e0 = discrete_energy(cfg, PowerLawKernel(1, 2, dim=3)).value
        for _ in range(10):
            perm = rng.permutation(cfg.n)
            e1 = discrete_energy(Configuration(cfg.points[perm]),
                                 PowerLawKernel(1, 2, dim=3)).value
            assert e1 == e0  # bit-identical under the canonical reduction

    def test_symmetrization_invariance(self):
        # a centrally symmetric kernel gives the reflected configuration the same energy
        rng = np.random.default_rng(2)
        for k in (PL2, MorseKernel(4, 1, 0.5, 2, dim=2)):
            cfg = random_config(rng, 12, 2)
            e0 = discrete_energy(cfg, k).value
            e1 = discrete_energy(Configuration(-cfg.points), k).value
            assert abs(e1 - e0) <= 1e-12 * max(1.0, abs(e0))

    def test_lower_bound_from_kernel_infimum(self):
        # inf g = g(1) = -1/2 for the quadratic power law
        rng = np.random.default_rng(3)
        for n in (2, 5, 20, 63):
            cfg = random_config(rng, n, 2, scale=2.0)
            ev = discrete_energy(cfg, PL2)
            assert ev.value >= -0.5 * (n - 1) / n - 1e-12


class TestCrossAndPartial:
    def test_single_pair_cross(self):
        a = SubConfiguration([[0.0, 0.0]], denominator=2)
        b = SubConfiguration([[1.0, 0.0]], denominator=2)
        assert cross_energy(a, b, PL2) == pytest.approx(-0.125, abs=1e-15)

    def test_empty_family_contributes_nothing(self):
        a = SubConfiguration([[0.0, 0.0]], denominator=2)
        b = SubConfiguration(np.empty((0, 2)), denominator=2)
        assert cross_energy(a, b, PL2) == 0.0
        assert partial_energy(b, PL2) == 0.0

    def test_partial_energy_scaling_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n1 = rng.integers(2, 12)
            n = int(n1 + rng.integers(0, 12))
            pts = rng.normal(size=(n1, 2))
            sub = SubConfiguration(pts, denominator=n)
            lhs = partial_energy(sub, PL2)
            rhs = (n1**2 / n**2) * discrete_energy(Configuration(pts), PL2).value
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    def test_split_decomposition_identity(self):
        # total = within-first + within-second + twice the cross term
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            cfg = random_config(rng, n, 2)
            mask = rng.uniform(size=n) < rng.uniform(0.2, 0.8)
            first = SubConfiguration(cfg.points[mask], denominator=n)
            second = SubConfiguration(cfg.points[~mask], denominator=n)
            whole = discrete_energy(cfg, PL2).value
            parts = (partial_energy(first, PL2) + partial_energy(second, PL2)
                     + 2.0 * cross_energy(first, second, PL2))
            assert abs(whole - parts) <= 1e-12 * max(1.0, abs(whole))

    def test_denominator_mismatch_rejected(self):
        a = SubConfiguration([[0.0, 0.0]], denominator=2)
        b = SubConfiguration([[1.0, 0.0]], denominator=3)
        with pytest.raises(ValidationError):
            cross_energy(a, b, PL2)


class TestGradient:
    def test_stationary_pair(self):
        cfg = Configuration([[0.0, 0.0], [1.0, 0.0]])
        assert np.allclose(gradient(cfg, PL2), 0.0, atol=1e-15)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            cfg = random_config(rng, 23, 3)
            g = gradient(cfg, PowerLawKernel(1, 2, dim=3))
            assert np.linalg.norm(g.sum(axis=0)) <= 1e-12 * max(np.abs(g).max(), 1e-30)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(7)
        kernels = [PL2, PowerLawKernel(-1, 3, dim=2), MorseKernel(4, 1, 0.5, 2, dim=2)]
        for trial in range(30):
            k = kernels[trial % len(kernels)]
            cfg = random_config(rng, int(rng.integers(2, 9)), 2)
            if discrete_energy(cfg, k).min_pair_distance < 1e-3:
                continue
            g = gradient(cfg, k)
            scale = float(np.abs(cfg.points).max())
            h = 1e-6 * max(scale, 1.0)
            fd = np.zeros_like(cfg.points)
            for i in range(cfg.n):
                for d in range(cfg.dim):
                    plus = np.array(cfg.points)
                    minus = np.array(cfg.points)
                    plus[i, d] += h
                    minus[i, d] -= h
                    fd[i, d] = (discrete_energy(Configuration(plus), k).value
                                - discrete_energy(Configuration(minus), k).value) / (2 * h)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(g - fd) / denom < 1e-5

    def test_coincident_pair_named_in_error(self):
        cfg = Configuration([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(GradientUndefinedError):
            gradient(cfg, PowerLawKernel(-1, 2, dim=2))

    def test_no_force_where_the_kernel_overflows(self):
        """Two points 1e-160 apart: r^-1.99 overflows, so the energy is +inf,
        and the pass leaves NaN gradient rows without evaluating the force
        terms, whose -inf * 0 would warn."""
        pts = np.array([[0.0, 0.0], [1e-160, 0.0], [1.0, 1.0]])
        g, value, lo, _ = energy.gradient_of_points(pts, PowerLawKernel(-1.99, 2, dim=2))
        assert value == math.inf and lo > 0.0 and np.isnan(g).all()


class TestWorkerThreads:
    def test_worker_count_is_capped_at_the_core_count(self):
        with worker_threads(10**6):  # a pool starts no thread before it is given work
            pool = energy._POOL.get()
            assert (1 if pool is None else pool()._max_workers) == (os.cpu_count() or 1)

    def test_caller_errstate_holds_in_worker_threads(self):
        """In the blocks of one pass, and in bl_distance's slices, which run whole on
        the workers."""
        seen = []

        def note():
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr()))

        class Recording(PowerLawKernel):
            def radial(self, r, out=None):
                note()
                return super().radial(r, out)

        real_slice = diagnostics._w1_truncated_1d

        def recording_slice(*args):
            note()
            return real_slice(*args)

        kernel = Recording(1, 2, dim=2)
        pts = np.random.default_rng(0).normal(size=(600, 2))
        with mock.patch.object(energy.os, "cpu_count", return_value=2), \
                mock.patch.object(diagnostics, "_w1_truncated_1d", recording_slice), \
                np.errstate(over="raise", under="warn", invalid="print"), worker_threads(2):
            want = np.geterr()
            pair_interaction_sum(pts, kernel)
            blocks = len(seen)
            bl_distance(Configuration(pts), Configuration(pts[:300]))
        assert blocks > 1 and len(seen) == blocks + diagnostics._BL_SLICES
        assert all(not on_main and err == want for on_main, err in seen)


class TestBlockBuffers:
    @pytest.mark.parametrize("grad", [False, True])
    def test_a_warm_pass_allocates_about_one_block(self, grad):
        """Once this thread has run a pass, a pass at n=200 (one block)
        allocates less than half a (200, 200) block: the kernel's values and a
        gradient pass's derivative go into the block's coordinate scratch."""
        pts = np.random.default_rng(0).normal(size=(200, 2))

        def warm_pass():
            return energy._potentials(pts, PL2, grad)

        warm_pass()
        tracemalloc.start()
        try:
            warm_pass()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * pts.shape[0]**2 * 8

    def test_a_warm_triangle_pass_allocates_one_block_and_the_partials(self):
        """A one-family energy pass at n=1100 visits 15 tiles over 5 tile
        rows; warm, it allocates less than one tile's block and the (5, 1100)
        partials."""
        pts = np.random.default_rng(1).normal(size=(1100, 2))
        energy._potentials(pts, PL2)
        tracemalloc.start()
        try:
            energy._potentials(pts, PL2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (energy._BLOCK_ELEMENTS + 5 * 1100) * 8

    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_warm_gradient_pass_allocates_one_block_and_the_partials(self, dim):
        """The gradient pass over the same tiles adds the (dim, 5, 1100)
        force partials, not a block per axis."""
        pts = np.random.default_rng(1).normal(size=(1100, dim))
        kernel = PowerLawKernel(1, 2, dim=dim)
        energy.gradient_of_points(pts, kernel)
        tracemalloc.start()
        try:
            energy.gradient_of_points(pts, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (energy._BLOCK_ELEMENTS + (1 + dim) * 5 * 1100) * 8

    def test_a_threads_first_pass_may_have_an_empty_block(self):
        """On a fresh thread, which holds no buffers yet, passes whose one block is
        zero wide give 0.0 (an earlier pass on the thread would hide a missing buffer)."""
        empty = SubConfiguration(np.empty((0, 2)), denominator=2)
        calls = {
            "excluded": lambda: potential(Configuration([[0.0, 0.0]]), PL2, [1.0, 0.0],
                                          exclude=0),
            "empty source": lambda: potential(empty, PL2, [1.0, 0.0]),
            "cross": lambda: cross_energy(SubConfiguration([[0.0, 0.0]], denominator=2),
                                          empty, PL2),
        }
        for name, call in calls.items():
            got = []
            thread = threading.Thread(target=lambda: got.append(call()))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive() and got == [0.0], name


class TestPotential:
    def test_single_source(self):
        cfg = Configuration(np.array([[0.0]]))
        assert potential(cfg, PL1, [1.0]) == pytest.approx(-0.5, abs=1e-15)

    def test_midpoint_of_two_sources(self):
        cfg = Configuration(np.array([[0.0], [2.0]]))
        assert potential(cfg, PL1, [1.0]) == pytest.approx(-0.5, abs=1e-15)

    def test_energy_equals_mean_self_excluded_potential(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            cfg = random_config(rng, int(rng.integers(2, 15)), 2)
            acc = sum(potential(cfg, PL2, cfg.points[i], exclude=i)
                      for i in range(cfg.n))
            e = discrete_energy(cfg, PL2).value
            assert acc / cfg.n == pytest.approx(e, rel=1e-12, abs=1e-14)

    def test_subconfiguration_weights(self):
        sub = SubConfiguration([[0.0, 0.0]], denominator=4)
        assert potential(sub, PL2, [1.0, 0.0]) == pytest.approx(-0.5 / 4)

    @pytest.mark.parametrize("exclude", [3, 5, -1])
    def test_exclude_outside_the_points_is_rejected(self, exclude):
        """An index past the end, or a negative one that numpy would count
        from the end, names no point of the family."""
        cfg = Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValidationError, match="exclude"):
            potential(cfg, PL2, [2.0, 2.0], exclude=exclude)


class TestContinuumMonteCarlo:
    def test_single_atom_bounded_kernel(self):
        mu = single_atom([1.0, 2.0])
        mc = continuum_energy_mc(mu, MorseKernel(2, 1, 1, 2, dim=2), 1000, seed=0)
        assert mc.estimate == pytest.approx(1.0)  # g(0) = c1 - c2
        assert mc.std_error == 0.0
        assert mc.reliable

    def test_uniform_segment_closed_form(self):
        # E|x-y|^2 = 1/6 and E|x-y| = 1/3, so the energy is 1/12 - 1/3
        mu = UniformBoxMeasure([0.0], [1.0])
        mc = continuum_energy_mc(mu, PL1, 1_000_000, seed=1)
        assert mc.reliable
        assert abs(mc.estimate - (-0.25)) <= 3 * mc.std_error

    def test_two_atom_mix(self):
        # (1/4)(g(0) + g(1) + g(1) + g(0)) = -1/4 with g(0) = 0
        mu = AtomicMeasure([[0.0], [1.0]], [0.5, 0.5])
        mc = continuum_energy_mc(mu, PL1, 400_000, seed=2)
        assert abs(mc.estimate - (-0.25)) <= 3 * mc.std_error + 1e-9

    def test_atom_under_singular_kernel_flagged(self):
        mu = single_atom([0.0, 0.0])
        mc = continuum_energy_mc(mu, PowerLawKernel(-1, 2, dim=2), 1000, seed=3)
        assert not mc.reliable

    def test_deterministic_for_fixed_seed(self):
        mu = UniformBoxMeasure([0.0], [1.0])
        a = continuum_energy_mc(mu, PL1, 10_000, seed=9)
        b = continuum_energy_mc(mu, PL1, 10_000, seed=9)
        assert a.estimate == b.estimate

    def test_trace_target_allocates_at_most_48_bytes_a_sample(self):
        """trace's default target, 200k pairs on the unit square: the two draws (16 bytes a
        sample each) and one temporary of the second draw's quantile, since x - y, its
        squares and the kernel values are formed in the first draw's array (80 bytes before)."""
        mu, count = UniformBoxMeasure([0, 0], [1, 1]), 200_000
        continuum_energy_mc(mu, PL2, 1000, seed=0)
        tracemalloc.start()
        try:
            continuum_energy_mc(mu, PL2, count, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * count


class TestContinuumQuadrature1D:
    def test_uniform_segment_exact(self):
        from rieszmin.energy import continuum_energy_quadrature_1d

        mu = UniformBoxMeasure([0.0], [1.0])
        value = continuum_energy_quadrature_1d(mu, PL1)
        assert value == pytest.approx(-0.25, rel=1e-8)

    def test_singular_kernel_closed_form(self):
        # uniform on [0,1] with g(r) = r^2/2 + 2 r^(-1/2):
        # E r^2 / 2 = 1/12 and E r^(-1/2) = 8/3, total 65/12
        from rieszmin.energy import continuum_energy_quadrature_1d

        mu = UniformBoxMeasure([0.0], [1.0])
        k = PowerLawKernel(-0.5, 2, dim=1)
        value = continuum_energy_quadrature_1d(mu, k)
        assert value == pytest.approx(65.0 / 12.0, rel=1e-6)

    def test_atomic_measure_double_sum(self):
        from rieszmin.energy import continuum_energy_quadrature_1d

        mu = AtomicMeasure([[0.0], [1.0]], [0.5, 0.5])
        assert continuum_energy_quadrature_1d(mu, PL1) == pytest.approx(-0.25)

    @pytest.mark.parametrize("kernel", [PL1, MorseKernel(4, 1, 0.5, 2, dim=1)])
    def test_atomic_double_sum_is_the_dense_one(self, kernel):
        """The row-blocked weighted sum over all atom pairs, self pairs included, is the
        dense n x n sum within 1e-12 relative."""
        from rieszmin.energy import continuum_energy_quadrature_1d

        rng = np.random.default_rng(6)
        weights = rng.uniform(0.1, 1.0, size=300)
        mu = AtomicMeasure(rng.normal(size=(300, 1)), weights / weights.sum())
        x = mu.points[:, 0]
        dense = float(mu.weights @ kernel.radial(np.abs(x[:, None] - x[None, :])) @ mu.weights)
        assert abs(continuum_energy_quadrature_1d(mu, kernel) - dense) <= 1e-12 * abs(dense)

    def test_atomic_double_sum_holds_no_dense_pair_array(self):
        """3,000 atoms would take 72 MB per dense 3,000 x 3,000 array; the blocks take
        under 10 MB at their traced peak."""
        from rieszmin.energy import continuum_energy_quadrature_1d

        mu = AtomicMeasure(np.random.default_rng(7).normal(size=(3000, 1)))
        continuum_energy_quadrature_1d(mu, PL1)  # this thread's block buffers, made once
        tracemalloc.start()
        try:
            continuum_energy_quadrature_1d(mu, PL1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_agrees_with_monte_carlo(self):
        from rieszmin.energy import continuum_energy_quadrature_1d

        mu = UniformBoxMeasure([-1.0], [2.0])
        exact = continuum_energy_quadrature_1d(mu, PL1)
        mc = continuum_energy_mc(mu, PL1, 400_000, seed=12)
        assert abs(exact - mc.estimate) <= 4 * mc.std_error


class TestTruncationGap:
    def test_single_point(self):
        cfg = Configuration([[0.0, 0.0]])
        lhs, rhs = truncated_energy_gap(cfg, PowerLawKernel(-1, 2, dim=2), 5.0)
        assert lhs == pytest.approx(5.0)  # g_K(0) = K for a singular kernel
        assert rhs == pytest.approx(5.0)
        assert lhs <= rhs

    def test_bounded_kernel_strict_gap(self):
        cfg = Configuration([[0.0, 0.0], [1.0, 0.0]])
        k = MorseKernel(2, 1, 1, 2, dim=2)  # g(0) = 1 < K
        lhs, rhs = truncated_energy_gap(cfg, k, 100.0)
        assert rhs - lhs == pytest.approx((100.0 - 1.0) / 2)

    def test_inequality_on_random_configurations(self):
        rng = np.random.default_rng(10)
        k = PowerLawKernel(-1, 2, dim=2)
        for _ in range(40):
            n = int(rng.integers(2, 60))
            cfg = Configuration(rng.normal(size=(n, 2)))
            for level in (10.0, 100.0):
                lhs, rhs = truncated_energy_gap(cfg, k, level)
                assert lhs <= rhs


class TestConfigurationCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        cfg = Configuration(rng.normal(size=(7, 3)))
        path = tmp_path / "config.csv"
        save_configuration_csv(cfg, path)
        back = load_configuration_csv(path)
        assert back.n == cfg.n and back.dim == cfg.dim
        assert np.array_equal(back.points, cfg.points)  # 17 digits round-trip

    def test_header_line(self, tmp_path):
        cfg = Configuration([[0.0, 1.0], [2.0, 3.0]])
        path = tmp_path / "config.csv"
        save_configuration_csv(cfg, path)
        assert path.read_text().splitlines()[0] == "2,2"


class TestPackageNames:
    def test_star_import_binds_no_submodule(self):
        """__all__ names only the public API, so a star import cannot shadow a
        module the caller imported, such as the standard library's io."""
        import types

        import rieszmin

        assert not [name for name in rieszmin.__all__
                    if isinstance(getattr(rieszmin, name), types.ModuleType)]
        assert {"discrete_energy", "quantize", "ValidationError"} <= set(rieszmin.__all__)
        namespace = {}
        exec("import io\nfrom rieszmin import *", namespace)
        assert namespace["io"] is sys.modules["io"]
