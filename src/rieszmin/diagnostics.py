"""Optimality and convergence diagnostics for point configurations.

Covers first-order optimality residuals (per-particle potentials equalize
at a minimizer, and exceed the energy off the support), a finite-scale
concentration/vanishing/dichotomy classifier, a bounded-Lipschitz distance
surrogate, and the discrete-to-continuum trace that tracks quantized and
minimized energies against the continuum value.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from .energy import (
    Configuration,
    EnergyValue,
    _canonical_order,
    _energy_stats,
    _on_workers,
    _pair_pass,
    _potentials,
    continuum_energy_mc,
    potential_grid,
)
from .errors import ValidationError
from .kernels import Kernel
from .measures import TargetMeasure
from .minimizer import InitSpec, MinimizeSettings, minimize
from .quantizer import quantize

_PROBES_PER_SPHERE = 32  # el_residual's random probe directions on each sphere
_PROBE_RADIUS_FACTORS = (1.5, 2.0, 4.0)  # the spheres' radii over the configuration's
_BL_MEASURE_POINTS = 16384  # size of bl_distance's equal-mass discretization of a measure
_BL_SLICES = 64  # bl_distance's random directions in dim > 1, drawn with seed 0


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals
# ---------------------------------------------------------------------------


@dataclass
class ELReport:
    mean_potential: float
    potential_spread: float
    exterior_min_gap: float
    probe_scheme: str
    energy: EnergyValue  # with diameter, from the pass behind the particle potentials
    diameter: float
    particle_potentials: np.ndarray = field(repr=False, default=None)

    def as_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items()
                if k not in ("particle_potentials", "energy", "diameter")}


def el_residual(cfg: Configuration, kernel: Kernel, seed: int = 0) -> ELReport:
    """Per-particle self-excluded potentials and their spread.

    They come from the same canonical-order pass as the discrete energy, so
    their mean equals discrete_energy(cfg, kernel).value bit for bit; that
    pass also gives the report's energy and support diameter.  At a
    minimizer the spread shrinks as the discrete first-order conditions
    equalize the potentials.  Probe points on spheres around the cloud
    report the smallest exterior gap potential(probe) - energy; ``seed``
    draws their directions.
    """
    if kernel.dim != cfg.dim:
        raise ValidationError("kernel and configuration dimensions differ")
    pts = cfg.points
    n = cfg.n
    row_sums, order, lo, hi = _potentials(pts, kernel)
    mean = float(row_sums.sum()) / n**2  # discrete_energy's own arithmetic
    psi = (row_sums / n)[np.argsort(order)]
    with np.errstate(invalid="ignore"):  # all potentials +inf: the spread is nan
        spread = float(psi.max() - psi.min())

    center = pts.mean(axis=0)
    radius = float(np.linalg.norm(pts - center, axis=1).max())
    radius = max(radius, 1e-9)
    direction = np.random.default_rng(seed).normal(
        size=(len(_PROBE_RADIUS_FACTORS), _PROBES_PER_SPHERE, cfg.dim))
    direction /= np.linalg.norm(direction, axis=2, keepdims=True)
    factors = np.array(_PROBE_RADIUS_FACTORS)[:, None, None]
    sites = center + factors * radius * direction
    values = potential_grid(pts, 1.0 / n, kernel, sites.reshape(-1, cfg.dim))
    # the least of the spheres' least gaps; min() passes over a nan one (inf - inf)
    gap = float(min(math.inf, *(values.reshape(len(factors), -1).min(axis=1) - mean)))
    return ELReport(mean_potential=mean, potential_spread=spread,
                    exterior_min_gap=gap,
                    probe_scheme=(f"{_PROBES_PER_SPHERE} probes per sphere at "
                                  f"{list(_PROBE_RADIUS_FACTORS)} x configuration radius, "
                                  f"seed {seed}"),
                    particle_potentials=psi,
                    energy=EnergyValue(mean, n * (n - 1), lo), diameter=hi)


# ---------------------------------------------------------------------------
# concentration-compactness classifier
# ---------------------------------------------------------------------------


@dataclass
class ClusterInfo:
    indices: np.ndarray
    mass_fraction: float
    center: np.ndarray
    radius: float


@dataclass
class ClusterReport:
    classification: str
    clusters: List[ClusterInfo]
    largest_fraction: float
    gap: float
    median_nn_distance: float
    link_threshold: float
    max_ball_mass: float
    ball_radius: float

    def as_dict(self) -> dict:
        return {
            "classification": self.classification,
            "largest_fraction": self.largest_fraction,
            "gap": self.gap,
            "median_nn_distance": self.median_nn_distance,
            "link_threshold": self.link_threshold,
            "max_ball_mass": self.max_ball_mass,
            "ball_radius": self.ball_radius,
            "clusters": [
                {
                    "size": int(len(c.indices)),
                    "mass_fraction": c.mass_fraction,
                    "center": c.center.tolist(),
                    "radius": c.radius,
                }
                for c in self.clusters
            ],
        }


def _components(pairs: np.ndarray, n: int) -> np.ndarray:
    """Each of n indices' component under the links ``pairs`` (2, m), labelled by its
    smallest index: hook each link's larger root under its smaller one and jump every
    label to its root, until no link joins two labels."""
    labels = np.arange(n)
    while pairs.size:
        roots = labels[pairs]
        np.minimum.at(labels, roots.max(axis=0), roots.min(axis=0))
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
        pairs = pairs[:, labels[pairs[0]] != labels[pairs[1]]]
    return labels


def cluster_classify(cfg: Configuration, gap_factor: float = 5.0) -> ClusterReport:
    """Single-linkage clusters at threshold gap_factor x median nearest-
    neighbor distance, classified into one of three finite-scale labels:

    * compactness: the largest cluster holds at least 99% of the mass;
    * dichotomy-like: at least two clusters hold >= 5% each and the
      inter-cluster gap exceeds 10x the largest cluster radius;
    * vanishing-like otherwise: mass neither concentrates nor splits into
      few chunks.  The max mass found in any point-centered ball of half
      the smallest positive neighbor distance is reported as the spreading
      statistic behind the label.

    Neighbor distances, links, ball counts and the gap are reductions of the
    pair pass's blocks.  A block keeps only a spanning forest of its links,
    at most one edge per point it meets, and the clusters are the components
    of all the forests.  The passes run over the points sorted on their
    first coordinate, each within a reach: the threshold for links, for
    neighbors the nearest of the 16 points on either side in that order, and
    for the gap the nearest two points next in that order from two clusters.
    A pair is linked when its distance, as the pair pass computes it, is at
    most the threshold.
    """
    if not 1.0 < gap_factor < math.inf:
        raise ValidationError("gap_factor must exceed 1 and be finite")
    pts = cfg.points
    n = cfg.n
    if n == 1:
        cluster = ClusterInfo(indices=np.array([0]), mass_fraction=1.0,
                              center=pts[0].copy(), radius=0.0)
        return ClusterReport("compactness", [cluster], 1.0, math.inf, 0.0, 0.0, 1.0, 0.0)

    # one family sorted on its first coordinate, so that each pass meets only the cols
    # within its reach; a point's nn is at most its distance to any of the 16 points on
    # either side of it in that order
    order = _canonical_order(pts)
    sp = pts[order]
    bound = np.full(n, math.inf)
    for s in range(1, min(n, 17)):
        near = np.linalg.norm(sp[s:] - sp[:-s], axis=1)
        np.minimum(bound[s:], near, out=bound[s:])
        np.minimum(bound[:-s], near, out=bound[:-s])
    nn = np.concatenate(_pair_pass(sp, sp, lambda d, i, j: d.min(axis=1), order, bound))
    median_nn = float(np.median(nn))
    threshold = gap_factor * median_nn

    def links(d, i, j):  # a spanning forest of the block's pairs within the threshold
        base = min(i, j)  # the block's points are base, base + 1, ...
        pairs = np.divmod(np.flatnonzero(d <= threshold), d.shape[1]) + np.array([[i], [j]]) - base
        labels = _components(pairs[:, pairs[1] > pairs[0]], max(i + len(d), j + d.shape[1]) - base)
        hooked = np.flatnonzero(labels != np.arange(len(labels)))
        return np.stack([labels[hooked], hooked]) + base

    forests = _pair_pass(sp, sp, links, order, threshold)
    labels = _components(order[np.hstack(forests)], n)
    sizes = np.bincount(labels)
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes[sizes > 0])[:-1])

    clusters: List[ClusterInfo] = []
    for idx in members:
        center = pts[idx].mean(axis=0)
        radius = float(np.linalg.norm(pts[idx] - center, axis=1).max())
        clusters.append(ClusterInfo(indices=idx, mass_fraction=len(idx) / n,
                                    center=center, radius=radius))
    clusters.sort(key=lambda c: (-c.mass_fraction, c.indices[0]))
    largest = clusters[0].mass_fraction

    # each cluster of 5% or more against all later ones, and the lighter ones among
    # themselves in one pass, meet every inter-cluster pair; two points next in sorted
    # order from two clusters are no nearer than the gap, which bounds the reach
    rank = np.empty(n, int)
    for r, c in enumerate(clusters):
        rank[c.indices] = r
    rank = rank[order]
    steps = np.diff(sp, axis=0)[rank[1:] != rank[:-1]]
    reach = np.linalg.norm(steps, axis=1).min(initial=math.inf)
    heavy = [c for c in clusters if c.mass_fraction >= 0.05]  # the first ranks
    gaps = [float(low) for r in range(min(len(heavy), len(clusters) - 1)) for low in _pair_pass(
        sp[rank == r], sp[rank > r], lambda d, i, j: d.min(initial=math.inf), reach=reach)]
    light = rank >= len(heavy)
    light_rank = rank[light]

    def cross(d, i, j):  # the least distance between two light clusters' points
        other = light_rank[i:i + len(d), None] != light_rank[j:j + d.shape[1]]
        return d.min(initial=math.inf, where=other)

    gap = min(gaps + _pair_pass(sp[light], sp[light], cross, reach=reach), default=math.inf)

    # a point with a positive nn has no other point within ball_radius <= nn / 2, so only
    # the points with a coincident partner are counted, each against all points
    positive_nn = nn[nn > 0]
    ball_radius = 0.5 * float(positive_nn.min()) if positive_nn.size else 0.0
    counts = _pair_pass(sp[nn == 0.0], sp, lambda d, i, j: (d <= ball_radius).sum(axis=1),
                        reach=ball_radius)
    max_ball_mass = float(max((c.max() for c in counts), default=1)) / n

    if largest >= 0.99:
        label = "compactness"
    else:
        max_radius = max(c.radius for c in clusters)
        if len(heavy) >= 2 and gap > 10.0 * max_radius:
            label = "dichotomy-like"
        else:
            label = "vanishing-like"
    return ClusterReport(classification=label, clusters=clusters,
                         largest_fraction=largest, gap=gap,
                         median_nn_distance=median_nn, link_threshold=threshold,
                         max_ball_mass=max_ball_mass, ball_radius=ball_radius)


# ---------------------------------------------------------------------------
# bounded-Lipschitz distance surrogate
# ---------------------------------------------------------------------------


def _as_atoms(obj):
    if isinstance(obj, Configuration):
        n = obj.n
        return obj.points, np.full(n, 1.0 / n)
    if isinstance(obj, TargetMeasure):
        return obj.discretize(_BL_MEASURE_POINTS)
    raise ValidationError("bl_distance arguments must be configurations or target measures")


def _w1_truncated_1d(x1: np.ndarray, w1: np.ndarray,
                     x2: np.ndarray, w2: np.ndarray) -> float:
    """min(W1, 2) between two weighted atom lists on the line, from the
    exact integral of the CDF difference."""
    xs = np.concatenate([x1, x2])
    signs = np.concatenate([w1, -w2])
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    cdf_diff = np.cumsum(signs[order])
    w1_dist = float(np.sum(np.abs(cdf_diff[:-1]) * np.diff(xs)))
    return min(w1_dist, 2.0)


def bl_distance(a, b) -> float:
    """Bounded-Lipschitz distance surrogate between configurations and/or
    target measures.

    In one dimension this is the exact truncated-W1 value min(W1, 2)
    computed from CDFs (it coincides with the bounded-Lipschitz distance
    for pairs of atoms and metrizes the same convergence).  In higher
    dimension it is sliced: random unit directions drawn on the calling
    thread, the exact 1-d value per slice on the worker_threads workers,
    averaged in slice order.  Measures enter through a deterministic
    equal-mass discretization, so the estimate is reproducible.
    """
    pts_a, w_a = _as_atoms(a)
    pts_b, w_b = _as_atoms(b)
    if pts_a.shape[1] != pts_b.shape[1]:
        raise ValidationError("dimension mismatch")
    dim = pts_a.shape[1]
    if dim == 1:
        return _w1_truncated_1d(pts_a[:, 0], w_a, pts_b[:, 0], w_b)
    rng = np.random.default_rng(0)
    dirs = [u / np.linalg.norm(u) for u in (rng.normal(size=dim) for _ in range(_BL_SLICES))]
    total = 0.0
    for value in _on_workers(lambda u: _w1_truncated_1d(pts_a @ u, w_a, pts_b @ u, w_b), dirs):
        total += value  # in slice order
    return total / _BL_SLICES


# ---------------------------------------------------------------------------
# discrete-to-continuum trace
# ---------------------------------------------------------------------------


@dataclass
class TraceRow:
    n: int
    energy_quantized: float
    energy_minimized: Optional[float]
    bl_distance: float
    diameter: float


@dataclass
class GammaTrace:
    rows: List[TraceRow]
    target_energy: float
    target_std_error: float
    ell_p_estimate: Optional[float]

    def as_dict(self) -> dict:
        return asdict(self)


def gamma_trace(kernel: Kernel, mu: TargetMeasure, n_list: Sequence[int],
                with_minimization: bool = False,
                strategy: str = "hybrid", k: int = 32, seed: int = 0,
                minimize_settings: Optional[MinimizeSettings] = None,
                mc_samples: int = 200_000) -> GammaTrace:
    """Quantize the measure along n_list and track energy and distance.

    Each row records the quantized energy, the distance to the target, the
    support diameter, and optionally the minimized energy warm-started from
    the quantized configuration (so row-wise minimized <= quantized).  The
    continuum target energy is estimated by Monte Carlo; the last minimized
    energy doubles as the limiting ground-state estimate.
    """
    n_list = list(n_list)
    if not n_list:
        raise ValidationError("n_list must not be empty")
    rows: List[TraceRow] = []
    for n in n_list:
        qr = quantize(mu, n, kernel, strategy=strategy, k=k, seed=seed)
        e_q, _, diam = _energy_stats(qr.config.points, kernel)
        dist = bl_distance(qr.config, mu)
        e_m = None
        if with_minimization:
            settings = minimize_settings or MinimizeSettings(restarts=4, seed=seed)
            settings = replace(settings,
                               init=InitSpec(kind="user", config=qr.config))
            e_m = minimize(kernel, n, mu.dim, settings).energy
        rows.append(TraceRow(n=n, energy_quantized=e_q, energy_minimized=e_m,
                             bl_distance=dist, diameter=diam))
    mc = continuum_energy_mc(mu, kernel, mc_samples, seed)
    ell_p = rows[-1].energy_minimized if with_minimization else None
    return GammaTrace(rows=rows, target_energy=mc.estimate,
                      target_std_error=mc.std_error, ell_p_estimate=ell_p)
