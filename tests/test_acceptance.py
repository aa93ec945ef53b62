"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

import math
import time

import numpy as np
from scipy.spatial.distance import pdist

from rieszmin import (
    AtomicMeasure,
    CheckScheme,
    Configuration,
    MorseKernel,
    PowerLawKernel,
    SubConfiguration,
    UniformBallMeasure,
    UniformBoxMeasure,
    check_assumptions,
    cross_energy,
    discrete_energy,
    gradient,
    partial_energy,
    quantize,
    truncated_energy_gap,
)
from rieszmin.diagnostics import (
    bl_distance,
    cluster_classify,
    el_residual,
    gamma_trace,
)
from rieszmin.minimizer import MinimizeSettings, minimize, repair_outliers

PL2 = PowerLawKernel(1, 2, dim=2)
MORSE = MorseKernel(4, 1, 0.5, 2, dim=2)


def report(name, detail):
    print(f"ACCEPTANCE PASS {name}: {detail}")


def ball_points(rng, count, center, radius):
    d = rng.normal(size=(count, len(center)))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    r = radius * rng.uniform(0, 1, size=(count, 1)) ** (1.0 / len(center))
    return np.asarray(center) + d * r


def test_01_closed_form_pair_minimizer():
    # oracle: minimizing (1/2)(d^2/2 - d) over the pair distance gives
    # d = 1 and energy -1/4
    start = time.time()
    res = minimize(PL2, 2, 2, MinimizeSettings(restarts=16, seed=101))
    elapsed = time.time() - start
    dist = float(np.linalg.norm(res.config.points[0] - res.config.points[1]))
    assert abs(res.energy - (-0.25)) <= 1e-9
    assert abs(dist - 1.0) <= 1e-6
    assert elapsed < 1.0
    report("1 pair minimizer", f"energy {res.energy:.12f}, distance {dist:.9f}, "
                               f"{elapsed:.2f}s")


def test_02_brute_force_oracle_agreement():
    start = time.time()
    worst = 0.0
    for n in (3, 4, 5):
        fast = minimize(PL2, n, 2, MinimizeSettings(restarts=16, seed=200 + n))
        oracle = minimize(PL2, n, 2, MinimizeSettings(restarts=512, seed=9000 + n))
        worst = max(worst, abs(fast.energy - oracle.energy))
        assert abs(fast.energy - oracle.energy) <= 1e-7
    elapsed = time.time() - start
    assert elapsed < 120.0
    report("2 brute-force oracle", f"max deviation {worst:.2e} over n in {{3,4,5}}, "
                                   f"{elapsed:.0f}s")


def test_03_recovery_energy_at_desk_scale():
    # closed-form target: uniform on [0,1] with the quadratic power law has
    # continuum energy 1/12 - 1/3 = -1/4
    start = time.time()
    kernel = PowerLawKernel(1, 2, dim=1)
    mu = UniformBoxMeasure([0.0], [1.0])
    trace = gamma_trace(kernel, mu, [16, 64, 256, 1024], seed=301,
                        mc_samples=100_000)
    gaps = {row.n: abs(row.energy_quantized - (-0.25)) for row in trace.rows}
    elapsed = time.time() - start
    assert gaps[1024] < 0.01
    assert gaps[1024] < gaps[16]
    assert elapsed < 60.0
    report("3 recovery energy", f"gap at 1024 is {gaps[1024]:.5f} vs {gaps[16]:.5f} "
                                f"at 16, {elapsed:.0f}s")


def test_04_truncation_inequality():
    # the singular exponent -1 is only admissible above dimension 1 (the
    # profile must stay locally integrable), so dimension 1 runs at -0.9
    rng = np.random.default_rng(401)
    checked = 0
    while checked < 200:
        dim = int(rng.integers(1, 4))
        alpha = -1.0 if dim >= 2 else -0.9
        kernel = PowerLawKernel(alpha, 2, dim=dim)
        n = int(rng.integers(5, 101))
        cfg = Configuration(rng.normal(size=(n, dim)) * rng.uniform(0.5, 3.0))
        for level in (10.0, 100.0):
            lhs, rhs = truncated_energy_gap(cfg, kernel, level)
            assert lhs <= rhs
        checked += 1
    report("4 truncation inequality", "200 random configurations, margin >= 0 in all")


def test_05_energy_decomposition_identity():
    rng = np.random.default_rng(501)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 50))
        cfg = Configuration(rng.normal(size=(n, 2)))
        mask = rng.uniform(size=n) < rng.uniform(0.2, 0.8)
        first = SubConfiguration(cfg.points[mask], denominator=n)
        second = SubConfiguration(cfg.points[~mask], denominator=n)
        whole = discrete_energy(cfg, PL2).value
        parts = (partial_energy(first, PL2) + partial_energy(second, PL2)
                 + 2.0 * cross_energy(first, second, PL2))
        err = abs(whole - parts) / max(1.0, abs(whole))
        worst = max(worst, err)
        assert err < 1e-12
    report("5 decomposition identity", f"worst relative error {worst:.2e}")


def test_06_gradient_against_finite_differences():
    rng = np.random.default_rng(601)
    kernels = [PL2, PowerLawKernel(-1, 3, dim=2), MORSE,
               MorseKernel(2, 1, 1, 3, dim=2)]
    checked = 0
    worst = 0.0
    while checked < 50:
        kernel = kernels[checked % len(kernels)]
        n = int(rng.integers(2, 10))
        cfg = Configuration(rng.normal(size=(n, 2)))
        if discrete_energy(cfg, kernel).min_pair_distance < 1e-2:
            continue
        g = gradient(cfg, kernel)
        h = 1e-6 * max(float(np.abs(cfg.points).max()), 1.0)
        fd = np.zeros_like(cfg.points)
        for i in range(n):
            for d in range(2):
                plus = np.array(cfg.points)
                minus = np.array(cfg.points)
                plus[i, d] += h
                minus[i, d] -= h
                fd[i, d] = (discrete_energy(Configuration(plus), kernel).value
                            - discrete_energy(Configuration(minus), kernel).value) / (2 * h)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-5
        checked += 1
    report("6 gradient correctness", f"worst relative deviation {worst:.2e} over 50 runs")


def test_07_invariance_suite():
    rng = np.random.default_rng(701)
    kernels = [PL2, MORSE]
    for trial in range(20):
        kernel = kernels[trial % len(kernels)]
        n = int(rng.integers(2, 40))
        cfg = Configuration(rng.normal(size=(n, 2)))
        base = discrete_energy(cfg, kernel).value
        shifted = discrete_energy(Configuration(cfg.points + rng.normal(size=2) * 5),
                                  kernel).value
        assert abs(shifted - base) <= 1e-12 * max(1.0, abs(base))
        permuted = discrete_energy(Configuration(cfg.points[rng.permutation(n)]),
                                   kernel).value
        assert permuted == base
        reflected = discrete_energy(Configuration(-cfg.points), kernel).value
        assert abs(reflected - base) <= 1e-12 * max(1.0, abs(base))
        n1 = int(rng.integers(1, n + 1))
        sub = SubConfiguration(cfg.points[:n1], denominator=n)
        lhs = partial_energy(sub, kernel)
        rhs = (n1**2 / n**2) * discrete_energy(Configuration(cfg.points[:n1]),
                                               kernel).value if n1 >= 2 else 0.0
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))
    report("7 invariance suite", "translation, permutation bit-identity, "
                                 "reflection, partial-energy scaling")


def test_08_quantizer_mass_and_containment():
    from rieszmin.quantizer import partition, select_representatives

    rng = np.random.default_rng(801)
    kernel2 = PowerLawKernel(1, 2, dim=2)
    cloud = AtomicMeasure(rng.normal(size=(10_000, 2)))
    for mu, n in ((UniformBoxMeasure([0.0, 0.0], [1.0, 1.0]), 100), (cloud, 77)):
        cells = partition(mu, n)
        expected = 1.0 / n
        for cell in cells:
            assert abs(cell.mass - expected) <= 1e-9
        result = select_representatives(cells, kernel2, strategy="hybrid", k=16, seed=88)
        for cell, point in zip(cells, result.config.points):
            assert np.all(point >= cell.rect[:, 0])
            assert np.all(point <= cell.rect[:, 1])
        first = quantize(mu, n, kernel2, seed=99)
        second = quantize(mu, n, kernel2, seed=99)
        assert first.config.n == n
        assert np.array_equal(first.config.points, second.config.points)
    report("8 quantizer mass/containment", "uniform square and 10^4-point cloud")


def test_09_weak_star_proxy_decay():
    start = time.time()
    kernel2 = PowerLawKernel(1, 2, dim=2)
    mu = UniformBoxMeasure([0.0, 0.0], [1.0, 1.0])
    d16 = bl_distance(quantize(mu, 16, kernel2, seed=901).config, mu)
    d1024 = bl_distance(quantize(mu, 1024, kernel2, seed=901).config, mu)
    elapsed = time.time() - start
    assert d1024 * 3.0 <= d16
    assert elapsed < 30.0
    report("9 weak-* proxy decay", f"bl {d16:.4f} -> {d1024:.4f} "
                                   f"(factor {d16 / d1024:.1f}), {elapsed:.0f}s")


def test_10_repair_move_statistics():
    witness = UniformBallMeasure([0.0, 0.0], 3.0)
    assert check_assumptions(MORSE, witness,
                             CheckScheme(h4_samples=30_000, seed=1000)).h4_pass
    bulk = minimize(MORSE, 14, 2, MinimizeSettings(restarts=2, seed=1001,
                                                   max_iters=600, grad_tol=1e-6)).config
    diameter = pdist(bulk.points).max(initial=0.0)
    decreases = 0
    for trial in range(50):
        rng = np.random.default_rng(1100 + trial)
        extra = int(rng.integers(1, 4))
        dirs = rng.normal(size=(extra, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        far = bulk.points.mean(axis=0) + dirs * 100.0 * diameter
        cfg = Configuration(np.vstack([bulk.points, far]))
        before = discrete_energy(cfg, MORSE).value
        after = discrete_energy(repair_outliers(cfg, MORSE), MORSE).value
        assert after <= before  # the accept rule forbids increases
        if after < before:
            decreases += 1
    assert decreases >= 45  # >= 90% of instances
    report("10 repair move", f"{decreases}/50 strict decreases, 0 increases")


def test_11_cluster_classifier():
    rng = np.random.default_rng(1101)
    compact = Configuration(ball_points(rng, 100, [0.0, 0.0], 1.0))
    assert cluster_classify(compact).classification == "compactness"

    a = ball_points(rng, 60, [0.0, 0.0], 0.01)
    b = ball_points(rng, 40, [10.0, 0.0], 0.01)  # 1000x the cluster radius
    two = cluster_classify(Configuration(np.vstack([a, b])))
    assert two.classification == "dichotomy-like"
    assert abs(two.largest_fraction - 0.6) <= 0.01

    geometric = Configuration((2.0 ** np.arange(30) - 1.0).reshape(-1, 1))
    assert cluster_classify(geometric).classification == "vanishing-like"
    report("11 cluster classifier", f"compactness / dichotomy-like "
                                    f"(lambda {two.largest_fraction:.2f}) / vanishing-like")


def test_12_morse_stability_experiment():
    start = time.time()
    witness = UniformBallMeasure([0.0, 0.0], 3.0)
    assert check_assumptions(MORSE, witness,
                             CheckScheme(h4_samples=30_000, seed=1200)).h4_pass
    diameters = {}
    spreads = {}
    for n in (50, 100, 200):
        res = minimize(MORSE, n, 2, MinimizeSettings(restarts=2, seed=1201,
                                                     max_iters=1500, grad_tol=1e-6))
        diameters[n] = pdist(res.config.points).max(initial=0.0)
        spreads[n] = el_residual(res.config, MORSE).potential_spread
    elapsed = time.time() - start
    values = np.array(list(diameters.values()))
    median = float(np.median(values))
    assert float(values.max() - values.min()) < 0.5 * median
    assert spreads[200] < spreads[50]
    assert elapsed < 600.0
    report("12 Morse stability", f"diameters {values.round(3).tolist()} "
                                 f"(median {median:.3f}), spreads "
                                 f"{spreads[50]:.2e} -> {spreads[200]:.2e}, {elapsed:.0f}s")
