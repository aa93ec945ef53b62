from collections import Counter
from unittest import mock

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from rieszmin import (
    Configuration,
    MorseKernel,
    OptimizationError,
    PowerLawKernel,
    TabulatedKernel,
    TruncatedKernel,
    UniformBoxMeasure,
    discrete_energy,
    quantize,
)
from rieszmin import minimizer
from rieszmin.minimizer import (
    InitSpec,
    MinimizeSettings,
    _descend,
    _lbfgs_direction,
    energy_trace,
    minimize,
    repair_outliers,
)

PL2 = PowerLawKernel(1, 2, dim=2)
ZERO_KERNEL = TabulatedKernel(radii=(0.0, 1e6), values=(0.0, 0.0), dim=2)


class TestMinimize:
    def test_pair_reaches_closed_form_minimum(self):
        res = minimize(PL2, 2, 2, MinimizeSettings(restarts=8, seed=0))
        assert res.energy == pytest.approx(-0.25, abs=1e-9)
        d = float(np.linalg.norm(res.config.points[0] - res.config.points[1]))
        assert d == pytest.approx(1.0, abs=1e-6)
        assert res.converged

    def test_triangle_ground_state(self):
        # all three pair distances can sit at the pointwise optimum d = 1,
        # so the global minimum is the unit equilateral triangle
        res = minimize(PL2, 3, 2, MinimizeSettings(restarts=8, seed=1))
        assert res.energy == pytest.approx(-1.0 / 3.0, abs=1e-8)

    def test_small_n_matches_brute_force_oracle(self):
        fast = minimize(PL2, 4, 2, MinimizeSettings(restarts=16, seed=2))
        oracle = minimize(PL2, 4, 2, MinimizeSettings(restarts=64, seed=900))
        assert fast.energy == pytest.approx(oracle.energy, abs=1e-7)

    def test_zero_kernel_gives_zero_energy(self):
        res = minimize(ZERO_KERNEL, 2, 2, MinimizeSettings(restarts=2, seed=3, max_iters=5))
        assert res.energy == 0.0

    def test_single_point_returns_origin(self):
        res = minimize(PL2, 1, 2)
        assert res.energy == 0.0
        assert np.allclose(res.config.points, 0.0)

    def test_center_of_mass_normalized(self):
        res = minimize(PL2, 5, 2, MinimizeSettings(restarts=4, seed=4))
        scale = float(np.abs(res.config.points).max())
        assert np.linalg.norm(res.config.points.mean(axis=0)) < 1e-10 * max(scale, 1.0)

    def test_history_is_monotone(self):
        res = minimize(PL2, 6, 2, MinimizeSettings(restarts=4, seed=5))
        energies = [h[0] for h in res.history]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))

    def test_stationarity_for_small_n(self):
        for n in range(2, 7):
            res = minimize(PL2, n, 2, MinimizeSettings(restarts=8, seed=6))
            assert res.grad_norm < 1e-8

    def test_final_energy_recomputed_on_returned_points(self):
        res = minimize(PL2, 4, 2, MinimizeSettings(restarts=4, seed=7))
        again = discrete_energy(res.config, PL2).value
        assert abs(res.energy - again) <= 1e-12 * max(1.0, abs(again))

    def test_quantizer_seed_bounds_result(self):
        mu = UniformBoxMeasure([0.0, 0.0], [1.0, 1.0])
        k = PowerLawKernel(1, 2, dim=2)
        seeded = quantize(mu, 12, k, seed=8)
        start_energy = discrete_energy(seeded.config, k).value
        settings = MinimizeSettings(restarts=4, seed=8,
                                    init=InitSpec(kind="quantizer-seeded", measure=mu))
        res = minimize(k, 12, 2, settings)
        assert res.energy <= start_energy + 1e-12

    def test_quantizer_seeded_restarts_share_one_quantization(self):
        """Restart 0 starts at the quantized configuration and the others jitter
        it; it is made once per minimize call, not once per restart."""
        mu = UniformBoxMeasure([0.0, 0.0], [1.0, 1.0])
        settings = MinimizeSettings(restarts=4, seed=8, max_iters=20,
                                    init=InitSpec(kind="quantizer-seeded", measure=mu))
        with mock.patch.object(minimizer, "quantize", wraps=quantize) as spy:
            res = minimize(PL2, 25, 2, settings)
        assert spy.call_count == 1 and res.restarts_used == 4

    def test_all_restarts_failing_raises(self):
        with mock.patch.object(minimizer, "_descend", lambda *args: None):
            with pytest.raises(OptimizationError, match="all 3 restarts"):
                minimize(PL2, 5, 2, MinimizeSettings(restarts=3, seed=1))

    @pytest.mark.parametrize("keys, winner", [
        (((1.0, 0.5), (1.0, 0.5), (2.0, 0.1)), 0),  # a tie keeps the earlier restart
        (((1.0, 0.5), (1.0, 0.4), (0.5, 0.9)), 2),  # the least energy wins
        (((1.0, 0.5), (1.0, 0.4), (1.0, 0.4)), 1),  # then the least gradient norm
    ])
    def test_winner_is_the_least_energy_then_gradient_norm(self, keys, winner):
        # the restart index rides in the iteration count of each stand-in run
        runs = iter([(np.zeros((3, 2)), e, g, r, True, [], []) for r, (e, g) in enumerate(keys)])
        with mock.patch.object(minimizer, "_descend", lambda *args: next(runs)):
            res = minimize(PL2, 3, 2, MinimizeSettings(restarts=3))
        assert res.iterations == winner and res.grad_norm == keys[winner][1]

    def test_singular_kernel_descends_without_collision(self):
        k = PowerLawKernel(-1, 2, dim=2)
        res = minimize(k, 5, 2, MinimizeSettings(restarts=4, seed=9, max_iters=800,
                                                 grad_tol=1e-7))
        assert np.isfinite(res.energy)
        assert discrete_energy(res.config, k).min_pair_distance > 0

    def test_restarts_used_counts_only_completed_restarts(self):
        # restart 0 starts on the coincident pair (energy +inf) and is dropped
        k = PowerLawKernel(-0.5, 2, dim=2)
        start = Configuration([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        settings = MinimizeSettings(restarts=3, max_iters=50,
                                    init=InitSpec(kind="user", config=start))
        assert minimize(k, 4, 2, settings).restarts_used == 2


    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("kernel", [PL2, MorseKernel(4, 1, 0.5, 2, dim=2),
                                        PowerLawKernel(-0.5, 2, dim=2)])
    def test_result_diameter_is_the_support_diameter(self, n, kernel):
        """The final energy pass's diameter, which energy_trace reads."""
        res = minimize(kernel, n, 2, MinimizeSettings(restarts=2, seed=3, max_iters=100))
        assert res.diameter == pdist(res.config.points).max(initial=0.0)


class TestSearchDirection:
    def test_one_pass_per_line_search_trial(self):
        """Each trial's one pass gives its energy and its gradient, so the
        kernel's derivative is evaluated on every distance block but the
        final energy pass's (n=50 is one tile, one block per pass)."""
        calls = Counter()

        class Counting(PowerLawKernel):  # counts the evaluations on distance blocks
            def radial(self, r):
                calls["radial"] += np.ndim(r) == 2
                return super().radial(r)

            def radial_prime(self, r):
                calls["radial_prime"] += np.ndim(r) == 2
                return super().radial_prime(r)

        res = minimize(Counting(1, 2, dim=2), 50, 2,
                       MinimizeSettings(restarts=2, seed=5, grad_tol=1e-7, repair=False))
        assert res.iterations > 10
        assert calls["radial"] == calls["radial_prime"] + 1

    def test_iterations_to_tolerance(self):
        # steepest descent needs 862 iterations here
        res = minimize(PL2, 50, 2, MinimizeSettings(restarts=1, seed=5, grad_tol=1e-7))
        assert res.converged and res.iterations <= 300

    def test_uphill_memory_falls_back_to_steepest_descent(self):
        rng = np.random.default_rng(16)
        grad = rng.normal(size=(7, 2))
        assert np.array_equal(_lbfgs_direction(grad, []), -grad)
        # s = -y gives y.s < 0, and the recursion then returns +grad
        y = rng.normal(size=(7, 2))
        uphill = [(-y, y, -1.0 / float((y * y).sum()))]
        assert float((grad * _lbfgs_direction(grad, uphill)).sum()) > 0
        start = rng.normal(size=(7, 2))
        settings = MinimizeSettings(max_iters=1, repair=False)
        steepest = _descend(start, PL2, settings)
        with mock.patch.object(minimizer, "_lbfgs_direction",
                               lambda g, memory: _lbfgs_direction(g, uphill)):
            fallback = _descend(start, PL2, settings)
        assert not np.array_equal(steepest[0], start)
        assert np.array_equal(fallback[0], steepest[0])
        assert fallback[1] == steepest[1]

    def test_truncation_kink_clears_memory_and_descends(self):
        k = TruncatedKernel(PowerLawKernel(-1, 2, dim=2), 5.0)
        sizes = []

        def spy(g, memory):
            sizes.append(len(memory))
            return _lbfgs_direction(g, memory)

        settings = MinimizeSettings(restarts=1, seed=17, repair=False, grad_tol=1e-8,
                                    init=InitSpec(scale=0.05))
        with mock.patch.object(minimizer, "_lbfgs_direction", spy):
            res = minimize(k, 20, 2, settings)
        # without repair moves the memory empties only on a pair with y.s <= 0
        assert any(a > 0 and b == 0 for a, b in zip(sizes, sizes[1:]))
        energies = [h[0] for h in res.history]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert res.converged
        assert discrete_energy(res.config, k).min_pair_distance > 0


class TestRepair:
    def test_no_outliers_is_identity(self):
        cfg = Configuration([[0.0, 0.0], [1.0, 0.0]])
        assert repair_outliers(cfg, PL2) is cfg

    def test_far_point_relocated_with_energy_drop(self):
        base = minimize(PL2, 2, 2, MinimizeSettings(restarts=4, seed=10)).config
        pts = np.vstack([base.points, [[100.0, 0.0]]])
        cfg = Configuration(pts)
        before = discrete_energy(cfg, PL2).value
        repaired = repair_outliers(cfg, PL2)
        after = discrete_energy(repaired, PL2).value
        assert after < before
        assert repaired.n == cfg.n and repaired.dim == cfg.dim

    def test_optimal_pair_unchanged(self):
        base = minimize(PL2, 2, 2, MinimizeSettings(restarts=4, seed=11)).config
        assert repair_outliers(base, PL2) is base

    def test_never_increases_energy(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            pts = rng.normal(size=(n, 2))
            if rng.uniform() < 0.7:
                far = rng.integers(1, 3)
                pts[:far] = rng.normal(size=(far, 2)) * 200.0
            cfg = Configuration(pts)
            before = discrete_energy(cfg, PL2).value
            after = discrete_energy(repair_outliers(cfg, PL2), PL2).value
            assert after <= before + 1e-15

    def test_degenerate_coincident_cloud_unchanged(self):
        cfg = Configuration(np.zeros((5, 2)))
        assert repair_outliers(cfg, MorseKernel(4, 1, 0.5, 2, dim=2)) is cfg

    @pytest.mark.parametrize("repair", [True, False])
    def test_minimize_makes_the_periodic_move_only_when_on(self, repair):
        # a far point that the descent alone has not pulled in by iteration 50
        pts = np.random.default_rng(3).normal(size=(15, 2))
        pts[0] = (60.0, 0.0)
        settings = MinimizeSettings(restarts=1, seed=1, max_iters=120, grad_tol=1e-14,
                                    init=InitSpec(kind="user", config=Configuration(pts)),
                                    repair=repair)
        res = minimize(MorseKernel(4, 1, 0.5, 2, dim=2), 15, 2, settings)
        if repair:
            assert len(res.repair_events) == 1 and res.repair_events[0] < 0
        else:
            assert res.repair_events == []


class TestEnergyTrace:
    def test_ground_states_do_not_increase(self):
        k = PowerLawKernel(1, 2, dim=1)
        trace = energy_trace(k, 1, [2, 4, 8],
                             MinimizeSettings(restarts=8, seed=13))
        energies = [e.energy for e in trace.entries]
        assert all(b <= a + 1e-6 for a, b in zip(energies, energies[1:]))
        assert energies[0] == pytest.approx(-0.25, abs=1e-8)

    def test_zero_kernel_trace(self):
        trace = energy_trace(ZERO_KERNEL, 2, [2, 3],
                             MinimizeSettings(restarts=2, seed=14, max_iters=5))
        assert all(e.energy == 0.0 for e in trace.entries)

    def test_rejects_unsorted_n_list(self):
        from rieszmin.errors import ValidationError

        with pytest.raises(ValidationError):
            energy_trace(PL2, 2, [4, 2])

    def test_morse_diameters_stay_bounded(self):
        k = MorseKernel(4, 1, 0.5, 2, dim=2)
        trace = energy_trace(k, 2, [20, 40],
                             MinimizeSettings(restarts=2, seed=15, max_iters=600,
                                              grad_tol=1e-6))
        diams = [e.diameter for e in trace.entries]
        assert all(0 < d < 50 for d in diams)
        assert not trace.outward_drift
