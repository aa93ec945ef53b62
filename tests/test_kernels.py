import math

import numpy as np
import pytest

from rieszmin import (
    CheckScheme,
    IntegrabilityError,
    MorseKernel,
    PowerLawKernel,
    TabulatedKernel,
    TruncatedKernel,
    UniformBallMeasure,
    ValidationError,
    check_assumptions,
    kernel_from_config,
    local_avg_integral,
)
from rieszmin.errors import GradientUndefinedError


def central_fd_gradient(kernel, v, h=1e-6):
    """Finite-difference oracle for kernel gradients."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    for k in range(v.size):
        e = np.zeros_like(v)
        e[k] = h
        out[k] = (kernel.evaluate(v + e) - kernel.evaluate(v - e)) / (2 * h)
    return out


class TestEvaluate:
    def test_power_law_at_unit_distance(self):
        k = PowerLawKernel(alpha=1, beta=2, dim=2)
        assert k.evaluate([1.0, 0.0]) == pytest.approx(-0.5, abs=1e-15)

    def test_morse_identical_terms_cancel(self):
        k = MorseKernel(1, 1, 1, 1, dim=3)
        for v in ([0.3, -0.1, 2.0], [0.0, 0.0, 0.0], [5.0, 0.0, 0.0]):
            assert k.evaluate(v) == 0.0

    def test_truncation_caps_large_inner_value(self):
        inner = PowerLawKernel(alpha=-1, beta=2, dim=2)
        # inner value at |v| = 0.01 is 0.00005 + 100, far above the cap
        assert inner.evaluate([0.01, 0.0]) == pytest.approx(100.00005)
        k = TruncatedKernel(inner, level=10.0)
        assert k.evaluate([0.01, 0.0]) == 10.0

    def test_truncation_equals_pointwise_min(self):
        inner = PowerLawKernel(alpha=-1, beta=2, dim=2)
        k = TruncatedKernel(inner, level=3.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.uniform(-3, 3, size=2)
            if np.linalg.norm(v) == 0:
                continue
            assert k.evaluate(v) == min(inner.evaluate(v), 3.0)

    def test_singular_value_at_zero(self):
        assert PowerLawKernel(-1, 2, dim=3).evaluate([0.0, 0.0, 0.0]) == math.inf
        assert PowerLawKernel(1, 2, dim=3).evaluate([0.0, 0.0, 0.0]) == 0.0
        # a sample at radius 0, finite or +inf, and a grid that starts above 0
        for radii, values, singular in (((0.0, 0.5, 2.0), (3.0, 1.0, 0.25), False),
                                        ((0.0, 0.5, 2.0), (math.inf, 1.0, 0.25), True),
                                        ((0.5, 1.0, 2.0), (3.0, 1.0, 0.25), False)):
            k = TabulatedKernel(radii, values)
            assert k.value_at_zero == float(k.radial(0.0)) == values[0]
            assert k.singular_at_zero is singular
            assert k.evaluate([0.0, 0.0]) == values[0]

    def test_dimension_mismatch_rejected(self):
        k = PowerLawKernel(1, 2, dim=2)
        with pytest.raises(ValidationError):
            k.evaluate([1.0, 0.0, 0.0])

    def test_central_symmetry_exact(self):
        kernels = [
            PowerLawKernel(1, 2, dim=3),
            MorseKernel(4, 1, 0.5, 2, dim=3),
            TruncatedKernel(PowerLawKernel(-1, 2, dim=3), 5.0),
            TabulatedKernel(radii=(0.0, 1.0, 2.0, 4.0), values=(3.0, 1.0, 0.5, 0.2), dim=3),
        ]
        rng = np.random.default_rng(1)
        for k in kernels:
            for _ in range(50):
                v = rng.normal(size=3)
                assert k.evaluate(v) == k.evaluate(-v)


class TestGradient:
    def test_stationary_pair_distance(self):
        k = PowerLawKernel(1, 2, dim=2)
        assert np.allclose(k.gradient([1.0, 0.0]), [0.0, 0.0], atol=1e-15)

    def test_unit_direction_slope(self):
        k = PowerLawKernel(1, 2, dim=2)
        assert np.allclose(k.gradient([2.0, 0.0]), [1.0, 0.0], atol=1e-15)

    def test_morse_matches_finite_differences(self):
        k = MorseKernel(1, 1, 1, 2, dim=2)
        g = k.gradient([1.0, 0.0])
        fd = central_fd_gradient(k, [1.0, 0.0])
        assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))

    def test_randomized_fd_agreement_across_scales(self):
        rng = np.random.default_rng(3)
        kernels = [PowerLawKernel(1, 2, dim=3), PowerLawKernel(-1, 3, dim=3),
                   MorseKernel(4, 1, 0.5, 2, dim=3)]
        for k in kernels:
            for _ in range(40):
                scale = 10.0 ** rng.uniform(-3, 3)
                v = rng.normal(size=3)
                v *= scale / np.linalg.norm(v)
                g = k.gradient(v)
                fd = central_fd_gradient(k, v, h=1e-6 * scale)
                denom = max(np.linalg.norm(fd), 1e-12)
                assert np.linalg.norm(g - fd) / denom < 1e-5

    def test_zero_vector_rejected(self):
        with pytest.raises(GradientUndefinedError):
            PowerLawKernel(1, 2, dim=2).gradient([0.0, 0.0])

    def test_truncated_gradient_zero_above_cap(self):
        k = TruncatedKernel(PowerLawKernel(-1, 2, dim=2), level=10.0)
        assert np.allclose(k.gradient([0.01, 0.0]), [0.0, 0.0])
        inner_grad = PowerLawKernel(-1, 2, dim=2).gradient([1.0, 0.0])
        assert np.allclose(k.gradient([1.0, 0.0]), inner_grad)


class TestConstruction:
    def test_power_law_requires_alpha_above_minus_dim(self):
        with pytest.raises(ValidationError):
            PowerLawKernel(alpha=-4, beta=2, dim=2)
        with pytest.raises(ValidationError):
            PowerLawKernel(alpha=-2, beta=2, dim=2)
        with pytest.raises(ValidationError):
            PowerLawKernel(alpha=2, beta=1, dim=2)

    def test_morse_requires_positive_constants(self):
        with pytest.raises(ValidationError):
            MorseKernel(0.0, 1, 1, 1)
        with pytest.raises(ValidationError):
            MorseKernel(1, 1, -0.5, 1)

    def test_tabulated_grid_must_increase(self):
        with pytest.raises(ValidationError):
            TabulatedKernel(radii=(0.0, 1.0, 1.0), values=(1.0, 0.5, 0.2))

    def test_tabulated_allows_inf_at_zero_only(self):
        k = TabulatedKernel(radii=(0.0, 1.0, 2.0), values=(math.inf, 1.0, 0.5), dim=1)
        assert k.evaluate([0.0]) == math.inf
        assert k.singular_at_zero
        with pytest.raises(ValidationError):
            TabulatedKernel(radii=(0.0, 1.0, 2.0), values=(1.0, math.inf, 0.5))

    def test_power_law_monotone_radius_is_one(self):
        # the radial slope r^(beta-1) - r^(alpha-1) changes sign at r = 1
        k = PowerLawKernel(1, 2, dim=2)
        assert k.near_origin_radius == 1.0
        r = np.linspace(0.01, 0.999, 200)
        vals = k.radial(r)
        assert np.all(np.diff(vals) < 0)

    def test_morse_monotone_radius_closed_form(self):
        k = MorseKernel(4, 1, 0.5, 2, dim=2)
        r = k.near_origin_radius
        assert r == pytest.approx(math.log(16.0) / 1.5)
        assert abs(float(k.radial_prime(r))) < 1e-12


class TestAssumptionChecks:
    def test_power_law_passes(self):
        report = check_assumptions(PowerLawKernel(1, 2, dim=2))
        assert report.h1_lower_bound_finite
        assert report.h1_lower_bound == pytest.approx(-0.5, abs=1e-6)
        assert report.h1_local_integrability
        assert report.h2_pass
        assert report.h3_monotone_near_origin is True
        assert report.passed

    def test_morse_tail_approaches_zero(self):
        report = check_assumptions(MorseKernel(4, 1, 0.5, 2, dim=2))
        assert report.h2_pass
        assert abs(report.h2_liminf_at_infinity) < 1.0
        assert report.passed

    def test_morse_witness_ball_has_negative_energy(self):
        kernel = MorseKernel(4, 1, 0.5, 2, dim=2)
        witness = UniformBallMeasure([0.0, 0.0], 3.0)
        report = check_assumptions(kernel, witness,
                                   CheckScheme(h4_samples=60_000, seed=11))
        assert report.h4_witness_energy is not None
        assert report.h4_witness_energy < 0
        assert report.h4_pass
        # Monte-Carlo double-integral oracle with an independent seed
        rng = np.random.default_rng(999)
        xs = witness.sample(60_000, rng)
        ys = witness.sample(60_000, rng)
        oracle = float(np.mean(kernel.radial(np.linalg.norm(xs - ys, axis=1))))
        err = 3 * (report.h4_std_error + abs(oracle) / math.sqrt(60_000))
        assert report.h4_witness_energy == pytest.approx(oracle, abs=max(err, 1e-3))

    def test_increasing_tabulated_kernel_fails_h3(self):
        k = TabulatedKernel(radii=(0.1, 1.0, 2.0), values=(0.0, 1.0, 2.0),
                            dim=1, near_origin_radius=1.5)
        report = check_assumptions(k)
        assert report.h3_monotone_near_origin is False
        assert not report.passed

    def test_negative_tail_kernel_fails_h2(self):
        k = TabulatedKernel(radii=(0.0, 1.0, 1e4), values=(1.0, -1.0, -1.0), dim=1)
        report = check_assumptions(k)
        assert not report.h2_pass


class TestLocalAverage:
    def test_constant_kernel(self):
        k = TabulatedKernel(radii=(0.0, 1e4), values=(2.5, 2.5), dim=2)
        assert local_avg_integral(k, 1.0) == pytest.approx(2.5, rel=1e-10)

    def test_power_law_1d_closed_form(self):
        # average of z^2/2 - |z| over [-1/2, 1/2] is 1/24 - 1/4 = -5/24
        k = PowerLawKernel(1, 2, dim=1)
        assert local_avg_integral(k, 1.0) == pytest.approx(-5.0 / 24.0, rel=1e-7)

    def test_singular_3d_matches_monte_carlo(self):
        k = PowerLawKernel(-1, 2, dim=3)
        eta = 0.2
        value = local_avg_integral(k, eta)
        assert math.isfinite(value)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-eta / 2, eta / 2, size=(2_000_000, 3))
        mc = float(np.mean(k.radial(np.linalg.norm(pts, axis=1))))
        assert value == pytest.approx(mc, rel=0.01)

    def test_non_integrable_singularity_detected(self):
        # r^-2 in one dimension is not locally integrable
        class BadKernel(PowerLawKernel):
            def radial(self, r):
                r = np.asarray(r, dtype=float)
                with np.errstate(divide="ignore"):
                    return np.where(r > 0, r**-2.0, math.inf)

        bad = BadKernel(1, 2, dim=1)
        with pytest.raises(IntegrabilityError):
            local_avg_integral(bad, 1.0)


class TestSerialization:
    def test_round_trip(self):
        power_law = {"variant": "power_law", "alpha": 1, "beta": 2, "dim": 2}
        pairs = [
            (PowerLawKernel(1, 2, dim=3), dict(power_law, dim=3)),
            (MorseKernel(4, 1, 0.5, 2, dim=2),
             {"variant": "morse", "c1": 4, "c2": 1, "l1": 0.5, "l2": 2, "dim": 2}),
            (TruncatedKernel(PowerLawKernel(-1, 2, dim=2), 10.0),
             {"variant": "truncated", "level": 10.0, "inner": dict(power_law, alpha=-1)}),
            (TabulatedKernel(radii=(0.0, 1.0, 2.0), values=(3.0, 1.0, 0.5), dim=1),
             {"variant": "tabulated", "radii": [0, 1, 2], "values": [3, 1, 0.5], "dim": 1}),
        ]
        rng = np.random.default_rng(6)
        for k, block in pairs:
            k2 = kernel_from_config(block)
            assert k2 == k
            for _ in range(20):
                v = rng.normal(size=k.dim)
                assert k2.evaluate(v) == pytest.approx(k.evaluate(v), rel=1e-12)

    def test_tabulated_csv(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("0.0,5.0\n1.0,1.0\n2.0,0.25\n")
        k = kernel_from_config({"variant": "tabulated", "path": "profile.csv", "dim": 1},
                               base_dir=str(tmp_path))
        assert k.evaluate([1.0]) == pytest.approx(1.0)
        assert k.evaluate([0.0]) == pytest.approx(5.0)
