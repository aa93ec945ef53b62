"""Property tests of the blocked pair pass: canonical order makes every pair
sum permutation-exact, the per-particle potentials reuse the energy's own
arithmetic, and the pass gives the same bits for any number of worker
threads as a dense np.linalg.norm reference.  Clouds reach n = 600, so a
pass spans several blocks.  The gradient matches central finite differences
of the energy, a pass with a reach meets every pair within it, each block
schedule (row blocks, reach windows, tiles) hands its reducer the dense
distances and meets each pair once, and the cluster classifier matches a
dense single-linkage reference.
Energy and gradient are translation invariant, partition cells of atom clouds
carry exactly 1/l^dim, a product cell samples with the bits of per-axis uniform
draws, and the CLI reads a minimize block into the settings
the dataclasses build from the same values.  Hybrid selection only lowers its
first draw, inside the cells, and grid surrogates draw no coincident points.
The in-place kernel profiles give the bits of their plain numpy expressions,
kept here as references, and so do kernels writing into an out= buffer, the
Monte-Carlo energy, product sampling and the BL slices that fill buffers they
already hold, and the median and mid-quantile taken from one partition."""

import functools
import itertools
import math
import sys
from contextlib import contextmanager
from dataclasses import replace as dataclasses_replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from rieszmin import (
    AtomicMeasure,
    Configuration,
    DensityBoxMeasure,
    GradientUndefinedError,
    MinimizeSettings,
    MorseKernel,
    PowerLawKernel,
    ProductQuantileMeasure,
    TabulatedKernel,
    TruncatedKernel,
    UniformBallMeasure,
    UniformBoxMeasure,
    discrete_energy,
    el_residual,
    gradient,
)
from rieszmin import energy
from rieszmin.cli import _minimize_settings
from rieszmin.diagnostics import ClusterInfo, ClusterReport, _w1_truncated_1d, cluster_classify
from rieszmin.energy import _pair_pass, pair_interaction_sum, potential_grid
from rieszmin.kernels import _FAST_POWERS
from rieszmin.measures import ProductRestriction, Restriction, _full_rect
from rieszmin.minimizer import _median
from rieszmin.quantizer import partition, select_representatives, side_count

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
@example(n=1, dim=2, seed=0, ties=True, kernel="power_law")
def test_mean_potential_is_the_energy_exactly(n, dim, seed, ties, kernel):
    """The energy pass's max distance is also the support diameter, so
    diagnose takes both from one pass: el_residual's own."""
    cfg = Configuration(make_points(n, dim, seed, ties))
    k = make_kernel(kernel, dim)
    el = el_residual(cfg, k)
    assert el.mean_potential == discrete_energy(cfg, k).value
    assert el.energy == discrete_energy(cfg, k)
    assert el.diameter == pdist(cfg.points).max(initial=0.0)
    assert el.diameter == energy._energy_stats(cfg.points, k)[2]


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


def spread_points(n, dim, seed, spacing):
    """n distinct sites of an integer lattice, jittered by up to 0.3 per axis
    and scaled: every pair stays at least 0.4 * spacing apart."""
    rng = np.random.default_rng(seed)
    side = math.ceil(n ** (1.0 / dim)) + 1
    sites = rng.choice(side ** dim, size=n, replace=False)
    lattice = np.stack(np.unravel_index(sites, (side,) * dim), axis=1)
    return spacing * (lattice + rng.uniform(-0.3, 0.3, size=(n, dim)))


@SETTINGS
@given(n=st.integers(2, 12), dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       spacing=st.floats(0.2, 2.0), kernel=st.sampled_from(["power_law", "singular", "morse"]))
@example(n=2, dim=1, seed=0, spacing=1.0, kernel="singular")
def test_gradient_matches_central_finite_differences(n, dim, seed, spacing, kernel):
    pts = spread_points(n, dim, seed, spacing)
    k = PowerLawKernel(-0.5, 2, dim=dim) if kernel == "singular" else make_kernel(kernel, dim)
    h = 1e-5
    fd = np.zeros_like(pts)
    for i, d in itertools.product(range(n), range(dim)):
        e = np.zeros_like(pts)
        e[i, d] = h
        fd[i, d] = (pair_interaction_sum(pts + e, k)[0]
                    - pair_interaction_sum(pts - e, k)[0]) / (2 * h * n**2)
    g = gradient(Configuration(pts), k)
    assert np.abs(g - fd).max() <= 1e-6 * (np.abs(g).max() + 1e-3)


@contextmanager
def workers(count):
    """worker_threads(count), with the core-count cap lifted to count and
    thread switches forced often, so that a race between blocks would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(energy.os, "cpu_count", return_value=count), \
                energy.worker_threads(count):
            yield
    finally:
        sys.setswitchinterval(interval)


def tile_order_sums(terms, antisymmetric=False):
    """Each row's sum of a one-family block of terms, as the triangle tiles
    add it: tile (I, J)'s row sums go to the rows of I and, off the
    diagonal, its column sums to the rows of J, summed per row in tile
    order.  Antisymmetric terms take the negated column sums, on a diagonal
    tile too, where they add each row's terms in order."""
    t = math.isqrt(energy._BLOCK_ELEMENTS)
    parts = np.empty((-(-len(terms) // t), len(terms)))
    for a in range(0, len(terms), t):
        for b in range(a, len(terms), t):
            tile = np.ascontiguousarray(terms[a:a + t, b:b + t])
            if b != a or not antisymmetric:
                parts[b // t, a:a + t] = tile.sum(axis=1)
            if b != a or antisymmetric:
                parts[a // t, b:b + t] = -tile.sum(axis=0) if antisymmetric else tile.sum(axis=0)
    return parts.sum(axis=0)


def dense_pair_pass(rows, cols, kernel=None, order=None, grad=False):
    """_pair_pass on one dense block, with np.linalg.norm distances; a one-
    family kernel sum or gradient adds the upper-triangle tiles' row and
    column sums of that block per row in tile order, as the pass does."""
    diffs = rows[:, None, :] - cols[None, :, :]
    d = np.linalg.norm(diffs, axis=2)
    k = np.arange(len(rows) if order is not None else 0)
    hi = float(d.max())
    d[k, k] = math.inf
    lo = float(d.min())
    if kernel is None:
        return None, lo, hi
    d[k, k] = 1.0
    if grad:
        if np.any(d == 0.0):
            i, j = np.argwhere(d == 0.0)[0]
            raise GradientUndefinedError(f"coincident points {order[i]} and {order[j]}:")
        w = kernel.radial_prime(d) / d
        w[k, k] = 0.0
        forces = np.stack([tile_order_sums(w * diffs[:, :, axis], True)
                           for axis in range(rows.shape[1])], axis=1)
        if len(rows) <= math.isqrt(energy._BLOCK_ELEMENTS) and rows.shape[1] >= 2:
            # one tile: its negated column sums add each row's terms in order, as einsum does
            assert np.array_equal(forces, np.einsum("ij,ijk->ik", w, diffs))
        return forces, lo, hi
    vals = kernel.radial(d)
    vals[k, k] = 0.0
    if order is None:
        return vals.sum(axis=1), lo, hi
    return tile_order_sums(vals), lo, hi


@SETTINGS
@given(n=st.integers(1, 600), m=st.integers(0, 1200), dim=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), kernel=st.sampled_from([None, "power_law", "morse"]),
       grad=st.booleans())
@example(n=1, m=0, dim=2, seed=0, kernel="power_law", grad=True)
@example(n=2, m=0, dim=3, seed=0, kernel="morse", grad=True)
@example(n=256, m=0, dim=2, seed=5, kernel="power_law", grad=False)  # one tile
@example(n=257, m=0, dim=2, seed=1, kernel="power_law", grad=False)  # two rows past a block
@example(n=1100, m=0, dim=2, seed=6, kernel="morse", grad=False)  # 5 tile rows, the last ragged
@example(n=600, m=1200, dim=6, seed=2, kernel="morse", grad=False)
@example(n=3, m=70_000, dim=2, seed=3, kernel="power_law", grad=False)  # m > one block
@example(n=300, m=0, dim=6, seed=4, kernel="morse", grad=True)  # the widest differences
def test_pair_pass_is_the_dense_reference_for_any_worker_count(n, m, dim, seed, kernel, grad):
    """m = 0 makes the rows and cols one family in canonical order; otherwise
    m points are the cols against n rows, without a gradient."""
    rows = make_points(n, dim, seed, True)
    order = None
    if m:
        cols, grad = 2.0 * make_points(m, dim, seed + 1, False), False
    else:
        order = energy._canonical_order(rows)
        rows = cols = rows[order]
    k = None if kernel is None else make_kernel(kernel, dim)
    grad = grad and k is not None
    want = dense_pair_pass(rows, cols, k, order, grad)
    for count in (1, 2, 3):
        with workers(count):
            extent = (min(_pair_pass(rows, cols, lambda d, i, j: d.min(initial=math.inf), order),
                          default=math.inf),
                      max(_pair_pass(rows, cols, lambda d, i, j: d.max(initial=0.0)), default=0.0))
            if k is None:
                got = None
            elif m:
                got = potential_grid(cols, 1.0, k, rows)
            elif grad:  # rows are in canonical order already
                got = energy._potentials(rows, k, grad=True)[4]
            else:  # rows are in canonical order already: the tiled sums keep it
                got, _, *tiled_extent = energy._potentials(rows, k)
                assert tuple(tiled_extent) == want[1:]
        assert extent == want[1:]
        assert (got is None and want[0] is None) or np.array_equal(got, want[0])


@SETTINGS
@given(n=st.integers(2, 600), dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       offset=st.sampled_from([0.0, 1e8]), scale=st.sampled_from([1.0, 1e-7, 1e-160]))
@example(n=300, dim=2, seed=0, offset=1e8, scale=1e-7)  # first coordinates that round
@example(n=300, dim=2, seed=1, offset=0.0, scale=1e-160)  # squares that underflow
def test_a_reach_pass_meets_every_pair_within_reach(n, dim, seed, offset, scale):
    """Over one family sorted on its first coordinate, a pass with a reach
    per row counts the same pairs within it as the full pass; each reach is
    a distance of its row, so pairs tie with it."""
    pts = offset + scale * np.round(make_points(n, dim, seed, True), 1)
    order = energy._canonical_order(pts)
    pts = pts[order]
    dense = np.vstack(_pair_pass(pts, pts, lambda d, i, j: d.copy(), order))
    reach = np.sort(dense, axis=1)[:, min(3, n - 2)]
    for count in (1, 2):
        with workers(count):
            got = _pair_pass(pts, pts, lambda d, i, j: (d <= reach[i:i + len(d), None]).sum(axis=1),
                             order, reach)
        assert np.array_equal(np.concatenate(got), (dense <= reach[:, None]).sum(axis=1))


@pytest.mark.parametrize("pts, reach", [([-1e-17, 1.0], 1.0), ([0.0, 1.5e-162], 0.0)])
def test_a_reach_pass_keeps_pairs_farther_apart_on_the_first_axis(pts, reach):
    """1 - (-1e-17) rounds to 1 and 1.5e-162**2 underflows to 0, so each
    pair's pass distance is within the reach though its first coordinates
    lie farther apart than the reach."""
    pts = np.array(pts).reshape(-1, 1)
    got = _pair_pass(pts[1:], pts, lambda d, i, j: (d <= reach).sum(axis=1), reach=reach)
    assert np.concatenate(got).tolist() == [2]


def record(d, i, j, *diffs):
    """A reducer that keeps a copy of its block's distances (and differences)."""
    return i, j, d.copy(), [x.copy() for x in diffs]


@pytest.mark.parametrize("n", [1, 255, 256, 257, 1100])
def test_each_schedule_gives_its_reducer_the_dense_distances(n):
    """Row blocks, reach windows and tiles hand the reducer the np.linalg.norm
    distances of rows[i:i + r] x cols[j:j + c], with one-family self pairs at
    +inf and, in a gradient pass, the differences of broadcasting.  Row
    blocks meet every ordered pair once, tiles every unordered pair once,
    and reach windows every pair within the reach, none twice."""
    pts = make_points(n, 3, n, True)
    pts = pts[energy._canonical_order(pts)]
    other = 2.0 * make_points(n + 3, 3, n + 1, False)
    dense = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    one_family = dense + np.diag(np.full(n, math.inf))
    cross = np.linalg.norm(pts[:, None, :] - other[None, :, :], axis=2)
    reach = float(np.quantile(dense, 0.1))
    order = np.arange(n)
    cases = [  # (cols, options, the dense distances, pairs met: ordered, unordered or reach)
        (other, {}, cross, "ordered"),
        (other, {"grad": True}, cross, "ordered"),
        (pts, {"order": order}, one_family, "ordered"),
        (pts, {"order": order, "grad": True}, one_family, "ordered"),
        (pts, {"order": order, "tiles": True}, one_family, "unordered"),
        (pts, {"order": order, "reach": reach}, one_family, "reach"),
        (pts, {"reach": reach}, dense, "reach"),
    ]
    for count in (1, 2, 3):
        for cols, options, want, pairs in cases:
            with workers(count):
                blocks = _pair_pass(pts, cols, record, **options)
            met = np.zeros(want.shape, int)  # the blocks that meet each pair
            for i, j, d, diffs in blocks:
                rows, width = slice(i, i + len(d)), slice(j, j + d.shape[1])
                assert np.array_equal(d, want[rows, width])
                if options.get("grad"):
                    assert len(diffs[0]) == 3
                    for axis, plane in enumerate(diffs[0]):
                        assert np.array_equal(plane, pts[rows, None, axis] - cols[None, width, axis])
                cover = np.zeros(want.shape, bool)
                cover[rows, width] = True
                met += cover | cover.T if pairs == "unordered" else cover
            if pairs == "reach":
                assert met.max(initial=1) == 1 and np.all(met[dense <= reach] == 1)
            else:
                assert np.all(met == 1)


@SETTINGS
@given(**clouds)
@example(n=256, dim=2, seed=5, ties=True, kernel="power_law")  # one tile
@example(n=1100, dim=3, seed=6, ties=False, kernel="morse")  # 5 tile rows, the last ragged
def test_one_gradient_pass_gives_the_energy_extent_and_dense_gradient(n, dim, seed, ties, kernel):
    """gradient_of_points' energy, min and diameter are _energy_stats' bits,
    and its gradient is the dense tile-order reference's, for any worker count."""
    pts = make_points(n, dim, seed, ties)
    k = make_kernel(kernel, dim)
    order = energy._canonical_order(pts)
    forces = dense_pair_pass(pts[order], pts[order], k, order, grad=True)[0]
    want = (2.0 / n**2) * forces[np.argsort(order)], *energy._energy_stats(pts, k)
    for count in (1, 2, 3):
        with workers(count):
            got = energy.gradient_of_points(pts, k)
        assert got[1:] == want[1:]
        assert np.array_equal(got[0], want[0])


def test_gradient_error_names_the_first_block_for_any_worker_count():
    pts = np.arange(600.0).reshape(-1, 1)  # canonical order is the input order
    pts[1], pts[501] = pts[0], pts[500]
    assert 500 >= energy._BLOCK_ELEMENTS // 600  # the two pairs sit in different blocks
    for count in (1, 2, 3):
        with workers(count), pytest.raises(GradientUndefinedError,
                                           match="coincident points 0 and 1:"):
            gradient(Configuration(pts), make_kernel("power_law", 1))


def test_singular_kernel_on_coincident_points_is_inf_under_threads():
    pts = make_points(600, 2, 6, False)
    pts[400] = pts[7]
    with workers(2):
        total, lo, _ = pair_interaction_sum(pts, PowerLawKernel(-0.5, 2, dim=2))
    assert total == math.inf and lo == 0.0


def dense_single_linkage(pts, gap_factor):
    """The classifier on a dense n x n distance matrix, with a union-find
    over the pairs within the link threshold."""
    n = len(pts)
    if n == 1:
        cluster = ClusterInfo(np.array([0]), 1.0, pts[0].copy(), 0.0)
        return ClusterReport("compactness", [cluster], 1.0, math.inf, 0.0, 0.0, 1.0, 0.0)
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    off = dists + np.diag(np.full(n, math.inf))
    nn = off.min(axis=1)
    median_nn = float(np.median(nn))
    threshold = gap_factor * median_nn

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(np.triu(off <= threshold, 1))):
        ri, rj = find(i), find(j)
        parent[max(ri, rj)] = min(ri, rj)
    roots = np.array([find(i) for i in range(n)])
    clusters = []
    for root in sorted(set(roots.tolist())):
        idx = np.nonzero(roots == root)[0]
        center = pts[idx].mean(axis=0)
        radius = float(np.linalg.norm(pts[idx] - center, axis=1).max())
        clusters.append(ClusterInfo(idx, len(idx) / n, center, radius))
    clusters.sort(key=lambda c: (-c.mass_fraction, c.indices[0]))
    gap = min((float(off[np.ix_(a.indices, b.indices)].min())
               for a, b in itertools.combinations(clusters, 2)), default=math.inf)

    positive_nn = nn[nn > 0]
    ball_radius = 0.5 * float(positive_nn.min()) if positive_nn.size else 0.0
    max_ball_mass = float((dists <= ball_radius).sum(axis=1).max()) / n

    largest = clusters[0].mass_fraction
    heavy = [c for c in clusters if c.mass_fraction >= 0.05]
    if largest >= 0.99:
        label = "compactness"
    elif len(heavy) >= 2 and gap > 10.0 * max(c.radius for c in clusters):
        label = "dichotomy-like"
    else:
        label = "vanishing-like"
    return ClusterReport(label, clusters, largest, gap, median_nn, threshold,
                         max_ball_mass, ball_radius)


def cluster_cloud(n, dim, seed, kind):
    """Blobs of normal points; 'duplicates' repeats a third of the points,
    'lattice' snaps them to a 0.1 grid, where many distances tie and the
    link threshold can fall exactly on one of them.  'coincident' puts more
    than half of the points on one site, so the median neighbour distance
    and the link threshold are 0 and the ball radius exceeds the threshold.
    'chain' spaces points along the first axis by exponential gaps, in
    shuffled index order, so a chain's links join it over several rounds."""
    rng = np.random.default_rng(seed)
    if kind == "chain":
        pts = np.zeros((n, dim))
        pts[rng.permutation(n), 0] = np.cumsum(rng.exponential(size=n))
        return pts
    centers = 12.0 * rng.normal(size=(int(rng.integers(1, 5)), dim))
    pts = centers[rng.integers(0, len(centers), n)] + rng.normal(size=(n, dim))
    if kind == "duplicates":
        pts[rng.integers(0, n, n // 3)] = pts[rng.integers(0, n, n // 3)]
    elif kind == "lattice":
        pts = np.round(pts, 1)
    elif kind == "coincident":
        pts[rng.permutation(n)[:n // 2 + 1]] = pts[rng.integers(0, n)]
    return pts


@SETTINGS
@given(n=st.integers(1, 600), dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["normal", "duplicates", "lattice", "coincident", "chain"]),
       gap_factor=st.floats(1.0, 20.0, exclude_min=True))
@example(n=1, dim=2, seed=0, kind="normal", gap_factor=5.0)
@example(n=246, dim=2, seed=58, kind="lattice", gap_factor=2.0)  # a link distance ties the threshold
@example(n=301, dim=2, seed=3, kind="coincident", gap_factor=5.0)
@example(n=600, dim=2, seed=4, kind="chain", gap_factor=10.0)  # four union-find rounds
def test_cluster_classify_matches_dense_single_linkage(n, dim, seed, kind, gap_factor):
    pts = cluster_cloud(n, dim, seed, kind)
    want = dense_single_linkage(pts, gap_factor)
    for count in (1, 2):
        with workers(count):
            got = cluster_classify(Configuration(pts), gap_factor)
        assert got.as_dict() == want.as_dict()
        assert [c.indices.tolist() for c in got.clusters] == [c.indices.tolist() for c in want.clusters]


@SETTINGS
@given(shift=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3), **clouds)
@example(shift=[100.0, -100.0, 100.0], n=600, dim=2, seed=7, ties=True, kernel="power_law")
def test_energy_and_gradient_are_translation_invariant(shift, n, dim, seed, ties, kernel):
    """A shift moves each coordinate, hence each distance, in its last bits
    (|shift| <= 100 times the unit roundoff), so the comparison is relative:
    1e-9 of the energy's size and of the largest gradient entry."""
    pts = make_points(n, dim, seed, ties)
    moved = pts + np.array(shift[:dim])
    k = make_kernel(kernel, dim)
    e, e_moved = (discrete_energy(Configuration(p), k).value for p in (pts, moved))
    assert abs(e_moved - e) <= 1e-9 * max(1.0, abs(e))
    g, g_moved = (gradient(Configuration(p), k) for p in (pts, moved))
    assert np.abs(g_moved - g).max() <= 1e-9 * max(1e-3, np.abs(g).max())


@SETTINGS
@given(n=st.integers(1, 200), dim=st.integers(1, 3), atoms=st.integers(1, 300),
       levels=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(n=16, dim=2, atoms=40, levels=2, seed=0)  # 4 sites: most thresholds fall on atoms
def test_partition_cells_of_tied_atom_clouds_have_exact_masses(n, dim, atoms, levels, seed):
    """Atoms on a grid of `levels` values per axis, with random weights: many
    atoms share a coordinate, so strip thresholds land on tied atoms whose
    mass is split between neighbouring cells.  The strips along each split
    axis come in order: the next strip's bounds do not fall below this one's.
    Tied strips can share their bounds, so the strips are told apart by the
    split indices that the partition's counting rule gives each cell."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, levels, size=(atoms, dim)).astype(float)
    weights = rng.uniform(0.1, 1.0, size=atoms)
    cells = partition(AtomicMeasure(pts, weights / weights.sum()), n)
    assert len(cells) == n
    for cell in cells:
        assert abs(cell.mass - 1.0 / n) <= 1e-12
        assert abs(cell.weights.sum() - 1.0 / n) <= 1e-12
    # the cells come in row-major order of their split indices
    strip_bounds = {}
    for index, cell in zip(split_indices(n, dim), cells):
        for axis in range(dim):
            bounds = strip_bounds.setdefault(index[:axis + 1], cell.rect[axis])
            assert np.array_equal(bounds, cell.rect[axis])  # one strip, one pair of bounds
    for strip, bounds in strip_bounds.items():
        following = strip_bounds.get(strip[:-1] + (strip[-1] + 1,))
        assert following is None or np.all(following >= bounds)


def split_indices(n, dim):
    """Each cell's strip index along every axis, in cell order: a remainder owed
    c cells with r axes left makes side_count(c, r) strips, strip h owed
    c // (strips - h) of the c cells still owed."""
    cells = [((), n)]
    for axis in range(dim):
        split = []
        for index, c in cells:
            strips = side_count(c, dim - axis)
            for h in range(strips):
                take = c // (strips - h)
                split.append((index + (h,), take))
                c -= take
        cells = split
    return [index for index, _ in cells]


def per_axis_sample(restriction, count, rng):
    """ProductRestriction.sample's reference: a per-axis rng.uniform draw mapped
    by that axis's quantile, the columns stacked."""
    cols = []
    for axis in range(restriction.dim):
        lo, hi = restriction.u_rect[axis]
        cols.append(restriction._q(axis, rng.uniform(lo, hi, size=count)))
    return np.column_stack(cols)


@SETTINGS
@given(dim=st.integers(1, 3), count=st.sampled_from([1, 32]), seed=st.integers(0, 2**32 - 1),
       ends=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=6, max_size=6),
       marginal=st.sampled_from(["uniform", "exponential"]))
@example(dim=3, count=32, seed=0, ends=[0.0, 0.5, 0.25, 0.75, 0.5, 0.999], marginal="exponential")
def test_product_sample_is_the_per_axis_uniform_draw(dim, count, seed, ends, marginal):
    """One draw for all axes gives the bytes of per-axis rng.uniform draws, and
    leaves the generator where they leave it, for the uniform box's quantiles and
    for an Exp(1) marginal, on any rectangle in CDF space."""
    u_rect = np.sort(np.reshape(ends[:2 * dim], (dim, 2)), axis=1)
    assume(np.all(u_rect[:, 0] < u_rect[:, 1]))
    if marginal == "uniform":
        mu = UniformBoxMeasure([-1.0, 0.0, 2.0][:dim], [0.5, 3.0, 2.25][:dim])
    else:
        mu = ProductQuantileMeasure([lambda u: -np.log1p(-u)] * dim)
    cell = ProductRestriction(mu.quantiles, u_rect, _full_rect(dim), 1.0)
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = cell.sample(count, got)
    assert drawn.shape == (count, dim)
    assert drawn.tobytes() == per_axis_sample(cell, count, want).tobytes()
    assert got.random() == want.random()


MARGINALS = {"tan": lambda u: np.tan(np.pi * (u - 0.5)), "log1p": lambda u: -np.log1p(-u)}


@SETTINGS
@given(dim=st.integers(1, 3), n=st.integers(1, 300), count=st.sampled_from([1, 32]),
       seed=st.integers(0, 2**32 - 1), marginal=st.sampled_from(["uniform", "tan", "log1p"]))
@example(dim=2, n=256, count=32, seed=0, marginal="tan")
def test_batched_cell_draws_are_the_quantiles_of_one_uniform_draw(dim, n, count, seed, marginal):
    """Drawing a partition's cells gives, byte for byte, each axis's quantile of
    lo + (hi - lo) u for the cell's CDF interval [lo, hi], with u the cell's slice of a
    twin generator's random((dim, m, count)), and leaves the generator where the twin is,
    for the uniform box and for Cauchy and Exp(1) marginals.  One cell's batch is
    ProductRestriction.sample."""
    if marginal == "uniform":
        mu = UniformBoxMeasure([-1.0, 0.0, 2.0][:dim], [0.5, 3.0, 2.25][:dim])
    else:
        mu = ProductQuantileMeasure([MARGINALS[marginal]] * dim)
    cells = partition(mu, n)
    got, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    batched = cells[0].sample_cells(cells, got, count)
    u = twin.random((dim, n, count))
    reference = np.stack([np.column_stack([cell._q(axis, lo + (hi - lo) * u[axis, i])
                                           for axis, (lo, hi) in enumerate(cell.u_rect)])
                          for i, cell in enumerate(cells)], axis=1)
    assert batched.shape == (count, n, dim)
    assert batched.tobytes() == reference.tobytes()
    assert got.random() == twin.random()
    one, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = cells[-1].sample_cells(cells[-1:], one, count)[:, 0]
    assert drawn.tobytes() == cells[-1].sample(count, twin).tobytes()
    assert one.random() == twin.random()


@pytest.mark.parametrize("count", [1, 32])
def test_atom_cloud_cells_are_drawn_one_by_one(count):
    """An atom cloud's restrictions keep the per-cell loop: column i of the batch is
    cells[i].sample(count, rng), the cells drawn in order from the one generator."""
    mu = AtomicMeasure(np.random.default_rng(3).normal(size=(500, 2)))
    cells = partition(mu, 25)
    assert type(cells[0]).sample_cells.__func__ is Restriction.sample_cells.__func__
    got, twin = np.random.default_rng(4), np.random.default_rng(4)
    batched = cells[0].sample_cells(cells, got, count)
    per_cell = np.stack([c.sample(count, twin) for c in cells], axis=1)
    assert batched.shape == (count, 25, 2) and batched.tobytes() == per_cell.tobytes()
    assert got.random() == twin.random()


@functools.lru_cache(maxsize=None)
def selection_measure(kind, dim):
    """A box, a ball and a density (both grid surrogates) and an atom cloud in dim."""
    if kind == "box":
        return UniformBoxMeasure([-1.0, 0.0, 2.0][:dim], [0.5, 3.0, 2.25][:dim])
    if kind == "ball":
        return UniformBallMeasure([0.5, -1.0, 0.0][:dim], 2.0)
    if kind == "density":
        return DensityBoxMeasure(lambda p: 1.0 + p[:, 0] ** 2, [0.0] * dim, [1.0] * dim,
                                 normalize=True)
    return AtomicMeasure(np.random.default_rng(dim).normal(size=(2000, dim)))


@SETTINGS
@given(kind=st.sampled_from(["box", "ball", "density", "cloud"]), dim=st.integers(1, 3),
       n=st.integers(2, 256), seed=st.integers(0, 2**32 - 1),
       alpha=st.sampled_from([1.0, -0.5]))
@example(kind="ball", dim=2, n=1024, seed=0, alpha=1.0)  # bare atoms: about 7 coincide
@example(kind="ball", dim=2, n=1024, seed=0, alpha=-0.5)
@example(kind="density", dim=1, n=256, seed=0, alpha=1.0)
def test_hybrid_selection_lowers_its_draw_inside_the_cells(kind, dim, n, seed, alpha):
    """Hybrid's sweeps only lower its first draw's pair sum (up to round-off of two
    summation orders), every point lies in its closed cell, and a grid surrogate's
    cells, whose draws spread over the grid cells, give no two coincident points."""
    cells = partition(selection_measure(kind, dim), n)
    result = select_representatives(cells, PowerLawKernel(alpha, 2, dim=dim), "hybrid",
                                    seed=seed)
    sel, points = result.selection, result.config.points
    assert sel.achieved_G <= sel.bound_estimate + 1e-12 * abs(sel.bound_estimate)
    for cell, point in zip(cells, points):
        assert np.all(cell.rect[:, 0] <= point) and np.all(point <= cell.rect[:, 1])
    if kind in ("ball", "density"):
        assert len(np.unique(points, axis=0)) == n


def whole(lo, hi):
    """An integer setting as JSON may carry it: an int or a whole float."""
    return st.integers(lo, hi).flatmap(lambda v: st.sampled_from([v, float(v)]))


minimize_blocks = st.fixed_dictionaries({}, optional={
    "restarts": whole(1, 64), "max_iters": whole(1, 10_000),
    "grad_tol": st.floats(1e-12, 1e-2), "repair": st.booleans(),
})


@settings(max_examples=60, deadline=None, database=None)
@given(block=minimize_blocks, seed=st.integers(0, 2**32 - 1))
@example(block={"repair": False}, seed=0)
def test_minimize_block_reads_as_the_dataclasses_build_it(block, seed):
    """Each setting the block leaves out takes the dataclass default."""
    scalars = {key: block[key] for key in ("restarts", "max_iters", "grad_tol", "repair")
               if key in block}
    want = MinimizeSettings(**scalars, seed=seed)
    got = _minimize_settings({"minimize": block}, seed)
    assert got == want
    assert [type(getattr(got, key)) for key in scalars] == [
        type(getattr(MinimizeSettings(), key)) for key in scalars]


# -- kernel profiles against their plain numpy expressions -----------------


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def reference_power_law(k, r):
    """PowerLawKernel's profile and derivative as plain ``**`` expressions."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        body = np.where(r > 0, r, 1.0)
        vals = body ** k.beta / k.beta - body ** k.alpha / k.alpha
        radial = np.where(r > 0, vals, math.inf if k.alpha < 0 else 0.0)
        return radial, r ** (k.beta - 1.0) - r ** (k.alpha - 1.0)


# the exponents with a fast form in radial (p) or radial_prime (p + 1), and the
# ones read as r itself (1) or 1 (0 in radial_prime); 0 is no exponent
SPECIAL_EXPONENTS = sorted(({*_FAST_POWERS, 1.0} | {p + 1.0 for p in (*_FAST_POWERS, 1.0, 0.0)})
                           - {0.0})
# 0, subnormals, 1, and squares that overflow past 1e154
EXTREME_RADII = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e154, 1.5e154, 1e300,
                 math.inf]
radii = st.lists(st.sampled_from(EXTREME_RADII) | st.floats(0.0, math.inf),
                 min_size=1, max_size=40).map(np.array)


@settings(max_examples=200, deadline=None, database=None)
@given(p=st.sampled_from(SPECIAL_EXPONENTS),
       q=st.sampled_from(SPECIAL_EXPONENTS) | st.floats(-2.99, 4.0).filter(bool),
       r=radii)
@example(p=2.0, q=1.0, r=np.array(EXTREME_RADII))
@example(p=-1.0, q=-0.5, r=np.array(EXTREME_RADII))
def test_power_law_profile_is_the_plain_power_expression(p, q, r):
    assume(p != q)
    k = PowerLawKernel(min(p, q), max(p, q), dim=3)
    radial, prime = reference_power_law(k, r)
    assert np.array_equal(bits(k.radial(r)), bits(radial))
    assert np.array_equal(bits(k.radial_prime(r)), bits(prime))
    for x in r[:3]:  # a single radius takes the same path as an array
        assert bits(k.radial(x)) == bits(reference_power_law(k, np.asarray(x))[0])


@SETTINGS
@given(alpha=st.floats(-2.99, 3.0).filter(bool), gap=st.floats(0.01, 3.0),
       r=radii)
@example(alpha=-1.5, gap=1.0, r=np.array([0.0]))  # alpha < beta < 0: inf, not NaN
@example(alpha=-0.5, gap=2.5, r=np.array([1.0, 0.0]))
@example(alpha=0.5, gap=1.5, r=np.array([0.0, 2.0]))
def test_power_law_value_at_zero(alpha, gap, r):
    beta = alpha + gap
    assume(beta != 0.0)
    k = PowerLawKernel(alpha, beta, dim=3)
    zero = math.inf if alpha < 0 else 0.0
    assert k.value_at_zero == zero
    vals = k.radial(np.append(r, 0.0))
    assert vals[-1] == zero and np.all(vals[:-1][r == 0.0] == zero)


def reference_morse(k, r):
    return (k.c1 * np.exp(-r / k.l1) - k.c2 * np.exp(-r / k.l2),
            (-k.c1 / k.l1) * np.exp(-r / k.l1) + (k.c2 / k.l2) * np.exp(-r / k.l2))


def reference_truncated(k, r):
    return (np.minimum(k.inner.radial(r), k.level),
            np.where(k.inner.radial(r) < k.level, k.inner.radial_prime(r), 0.0))


positive = st.floats(1e-3, 1e3)


@SETTINGS
@given(c1=positive, c2=positive, l1=positive, l2=positive, r=radii,
       level=st.floats(-10.0, 10.0), inner=st.sampled_from(["morse", "power_law"]))
@example(c1=4.0, c2=1.0, l1=0.5, l2=2.0, r=np.array(EXTREME_RADII), level=1.0, inner="power_law")
def test_morse_and_truncated_profiles_are_the_plain_expressions(c1, c2, l1, l2, r, level, inner):
    morse = MorseKernel(c1, c2, l1, l2)
    capped = TruncatedKernel(morse if inner == "morse" else PowerLawKernel(-1, 2), level)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, reference in [(morse, reference_morse), (capped, reference_truncated)]:
            radial, prime = reference(k, r)
            assert np.array_equal(bits(k.radial(r)), bits(radial))
            assert np.array_equal(bits(k.radial_prime(r)), bits(prime))


# -- out= buffers and in-place temporaries against their allocating forms ------


OUT_KERNELS = {
    "power_law": PowerLawKernel(1, 2),
    "riesz": PowerLawKernel(-0.5, 2),  # singular at 0, two powers
    "morse": MorseKernel(4, 1, 0.5, 2),
    "truncated": TruncatedKernel(PowerLawKernel(-1, 2), 1.0),
    "tabulated": TabulatedKernel(radii=(0.0, 0.5, 1.0, 2.0), values=(math.inf, 1.0, -0.2, 0.3)),
}


@pytest.mark.parametrize("name", ["radial", "radial_prime"])
@pytest.mark.parametrize("kernel", sorted(OUT_KERNELS))
@SETTINGS
@given(r=radii, width=st.integers(0, 3))
@example(r=np.array(EXTREME_RADII), width=2)
@example(r=np.array([0.0, 0.25, 3.0]), width=1)
def test_kernel_out_is_returned_with_the_bits_of_a_new_array(kernel, name, r, width):
    """Into a contiguous out and into a strided one (a column of a wider grid, as
    the greedy sweep's last, narrower chunk writes), r = 0 under singular kernels too."""
    method = getattr(OUT_KERNELS[kernel], name)
    with np.errstate(all="ignore"):
        fresh = method(r)
        for out in (np.full(len(r), np.nan), np.full((len(r), 1 + width), np.nan)[:, 0]):
            assert method(r, out=out) is out
            assert np.array_equal(bits(out), bits(fresh))


def sample_by_columns(mu, count, rng):
    """ProductQuantileMeasure.sample's reference: one uniform draw, each axis's quantile
    of its column, the columns stacked."""
    u = rng.uniform(0.0, 1.0, size=(count, mu.dim))
    return np.column_stack([np.asarray(q(u[:, k]), dtype=float)
                            for k, q in enumerate(mu.quantiles)])


@SETTINGS
@given(dim=st.integers(1, 9), count=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       marginal=st.sampled_from(["uniform", "tan", "log1p"]))
def test_product_sample_is_the_stacked_columns(dim, count, seed, marginal):
    mu = (UniformBoxMeasure(np.zeros(dim), np.arange(1.0, dim + 1.0)) if marginal == "uniform"
          else ProductQuantileMeasure([MARGINALS[marginal]] * dim))
    got = mu.sample(count, np.random.default_rng(seed))
    reference = sample_by_columns(mu, count, np.random.default_rng(seed))
    assert got.shape == reference.shape and np.array_equal(bits(got), bits(reference))


@functools.lru_cache(maxsize=None)
def mc_measure(kind, dim):
    if kind == "box":
        return UniformBoxMeasure(np.zeros(dim), np.ones(dim))
    if kind == "ball":
        return UniformBallMeasure(np.zeros(dim), 1.5, cells_per_axis=8)
    if kind == "density":
        return DensityBoxMeasure(lambda x: np.exp(-x.sum(axis=1)), np.zeros(dim), np.ones(dim),
                                 cells_per_axis=8, normalize=True)
    return AtomicMeasure(np.random.default_rng(dim).normal(size=(7, dim)))


@pytest.mark.parametrize("kind", ["box", "ball", "density", "atoms"])
@SETTINGS
@given(dim=st.integers(1, 9), kernel=st.sampled_from(["power_law", "riesz", "morse"]),
       count=st.integers(8, 3000), seed=st.integers(0, 2**32 - 1))
@example(dim=2, kernel="riesz", count=500, seed=0)  # atoms: coincident draws give inf
@example(dim=9, kernel="morse", count=1000, seed=1)  # norm sums 9 squares pairwise
@example(dim=2, kernel="riesz", count=1000, seed=2)
@example(dim=3, kernel="power_law", count=1000, seed=3)
def test_monte_carlo_energy_is_the_norm_formula(kind, dim, kernel, count, seed):
    """The kernel at np.linalg.norm(x - y, axis=1) of two draws, as continuum_energy_mc
    read it before it formed x - y, its squares and the kernel values in x's array."""
    assume(kind in ("box", "atoms") or dim <= 3)  # grid surrogates grow like cells^dim
    mu = mc_measure(kind, dim)
    k = dataclasses_replace(OUT_KERNELS[kernel], dim=dim)
    got = energy.continuum_energy_mc(mu, k, count, seed)
    rng = np.random.default_rng(seed)
    draw = functools.partial(sample_by_columns, mu) if kind == "box" else mu.sample
    with np.errstate(all="ignore"):
        vals = k.radial(np.linalg.norm(draw(count, rng) - draw(count, rng), axis=1))
    if np.isfinite(vals).all():
        assert bits(got.estimate) == bits(vals.mean())
        assert bits(got.std_error) == bits(vals.std(ddof=1) / math.sqrt(count))
    else:
        assert not got.reliable and got.estimate == math.inf


def w1_reference(x1, w1, x2, w2):
    """_w1_truncated_1d before it reused its concatenation buffers."""
    xs = np.concatenate([x1, x2])
    signs = np.concatenate([w1, -w2])
    order = np.argsort(xs, kind="stable")
    return min(float(np.sum(np.abs(np.cumsum(signs[order])[:-1]) * np.diff(xs[order]))), 2.0)


atoms_1d = st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-1e3, 1e3),
                              st.floats(0.0, 1.0)), min_size=1, max_size=60)


@settings(max_examples=60, deadline=None, database=None)
@given(a=atoms_1d, b=atoms_1d)
def test_w1_slice_is_the_allocating_formula(a, b):
    (x1, w1), (x2, w2) = (np.array(side, dtype=float).T for side in (a, b))
    assert bits(_w1_truncated_1d(x1, w1, x2, w2)) == bits(w1_reference(x1, w1, x2, w2))


distances = st.lists(st.sampled_from([0.0, 1.0, 5e-324]) | st.floats(0.0, 8e307),
                     min_size=1, max_size=40).map(np.array)


@settings(max_examples=200, deadline=None, database=None)
@given(values=distances)
def test_median_is_numpys(values):
    """On distances, finite and nonnegative, with ties (and sums of two that stay finite)."""
    assert bits(_median(values)) == bits(np.median(values))


@settings(max_examples=200, deadline=None, database=None)
@given(values=distances)
def test_mid_quantile_is_numpys(values):
    assert bits(_median(values, quantile=True)) == bits(np.quantile(values, 0.5))
