"""Property tests of the blocked pair pass: canonical order makes every pair
sum permutation-exact, and the per-particle potentials reuse the energy's
own arithmetic.  Clouds reach n = 600, so they span up to three 256-row
blocks."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rieszmin import (
    Configuration,
    GradientUndefinedError,
    MorseKernel,
    PowerLawKernel,
    discrete_energy,
    el_residual,
    gradient,
)
from rieszmin.energy import potential_grid

SETTINGS = settings(max_examples=12, deadline=None, database=None)


def make_kernel(name, dim):
    if name == "power_law":
        return PowerLawKernel(1, 2, dim=dim)
    return MorseKernel(4, 1, 0.5, 2, dim=dim)


def make_points(n, dim, seed, ties):
    """n normal points; with ties, the first coordinate is snapped to a
    coarse grid so the canonical sort has to break ties on later axes."""
    pts = np.random.default_rng(seed).normal(size=(n, dim))
    if ties and dim > 1:
        pts[:, 0] = np.round(pts[:, 0], 1)
    return pts


clouds = dict(n=st.integers(2, 600), dim=st.integers(1, 3),
              seed=st.integers(0, 2**32 - 1), ties=st.booleans(),
              kernel=st.sampled_from(["power_law", "morse"]))


@SETTINGS
@given(**clouds)
@example(n=600, dim=2, seed=1, ties=True, kernel="power_law")
def test_energy_is_bit_identical_under_permutation(n, dim, seed, ties, kernel):
    pts = make_points(n, dim, seed, ties)
    k = make_kernel(kernel, dim)
    perm = np.random.default_rng(seed + 1).permutation(n)
    assert discrete_energy(Configuration(pts[perm]), k) == discrete_energy(Configuration(pts), k)


@SETTINGS
@given(**clouds)
@example(n=600, dim=3, seed=2, ties=True, kernel="morse")
def test_gradient_rows_permute_exactly(n, dim, seed, ties, kernel):
    pts = make_points(n, dim, seed, ties)
    k = make_kernel(kernel, dim)
    perm = np.random.default_rng(seed + 1).permutation(n)
    g = gradient(Configuration(pts), k)
    assert np.array_equal(gradient(Configuration(pts[perm]), k), g[perm])


@SETTINGS
@given(**clouds)
@example(n=511, dim=2, seed=2195314465, ties=False, kernel="power_law")
@example(n=303, dim=2, seed=4169308741, ties=True, kernel="morse")
def test_mean_potential_is_the_energy_exactly(n, dim, seed, ties, kernel):
    cfg = Configuration(make_points(n, dim, seed, ties))
    k = make_kernel(kernel, dim)
    assert el_residual(cfg, k).mean_potential == discrete_energy(cfg, k).value


@SETTINGS
@given(probes=st.integers(1, 600), **clouds)
@example(probes=600, n=300, dim=2, seed=4, ties=False, kernel="power_law")
def test_potential_grid_matches_dense_reference(probes, n, dim, seed, ties, kernel):
    pts = make_points(n, dim, seed, ties)
    sites = 2.0 * np.random.default_rng(seed + 1).normal(size=(probes, dim))
    k = make_kernel(kernel, dim)
    weight = 1.0 / n
    terms = k.radial(np.sqrt(((sites[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)))
    reference = np.array([math.fsum(row) for row in terms]) * weight
    scale = np.abs(terms).sum(axis=1) * weight
    assert np.all(np.abs(potential_grid(pts, weight, k, sites) - reference) <= 1e-12 * scale)


@SETTINGS
@given(n=st.integers(2, 600), dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       i=st.integers(0, 599), j=st.integers(0, 599))
@example(n=600, dim=2, seed=5, i=599, j=3)  # the pair sits in different blocks
def test_gradient_error_names_the_coincident_input_indices(n, dim, seed, i, j):
    i, j = i % n, j % n
    assume(i != j)
    pts = make_points(n, dim, seed, False)
    pts[j] = pts[i]
    with pytest.raises(GradientUndefinedError,
                       match=f"coincident points {min(i, j)} and {max(i, j)}:"):
        gradient(Configuration(pts), make_kernel("power_law", dim))
