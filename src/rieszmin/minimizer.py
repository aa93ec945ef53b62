"""Multi-start L-BFGS minimization of the discrete pair energy.

The two-loop recursion gives the direction of an Armijo backtracking line
search.  Across a truncation kink, where the objective is nonsmooth, a step
can show no positive curvature: that empties the memory, and a direction
that is not downhill gives way to steepest descent, so the run never
stalls on a bad model.  Each trial step is one pass over the pairs
(gradient_of_points) that gives its energy, its extent and its gradient, so
an accepted trial's gradient is the next iteration's.  A collision guard
keeps the line search away from coincident points when the kernel is
singular at zero, and a periodic repair move relocates far outliers onto a
small grid of low-potential sites just outside the bulk, accepted only on
strict energy decrease.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .energy import Configuration, _energy_stats, gradient_of_points, potential_grid
from .errors import GradientUndefinedError, OptimizationError, ValidationError
from .kernels import Kernel
from .measures import TargetMeasure
from .quadrature import _tensor_grid
from .quantizer import quantize

_LBFGS_MEMORY = 10  # (step, gradient change) pairs the direction remembers
_MAX_BACKTRACKS = 60  # step shrinks per line search before the run stops
_COLLISION_GUARD = 1e-9  # least pair distance a step may leave, over the diameter
_OUTWARD_OFFSET = 0.1  # repair sites sit this fraction beyond the farthest bulk point
_SHRINK = 0.5  # a rejected trial step halves
_ARMIJO = 1e-4  # sufficient-decrease constant of the Armijo test (Nocedal & Wright, Sec. 3.1)
_REPAIR_PERIOD = 50  # iterations between repair moves
# A repair outlier lies beyond _FAR_FACTOR times the _BULK_QUANTILE of the distances
# from the centre of mass.  One far outlier among n points drags that centre enough
# to sit only (n-1) times farther from it than the bulk does, so both stay tight.
_BULK_QUANTILE = 0.5
_FAR_FACTOR = 1.5


@dataclass(frozen=True)
class InitSpec:
    """Restart initialization: independent gaussian clouds, the quantizer
    applied to a target measure, or a user-supplied configuration (the last
    two start restart 0 exactly there and jitter the rest)."""

    kind: str = "random-gaussian"
    scale: float = 1.0
    measure: Optional[TargetMeasure] = None
    config: Optional[Configuration] = None

    def __post_init__(self):
        if self.kind not in ("random-gaussian", "quantizer-seeded", "user"):
            raise ValidationError(f"unknown init kind {self.kind!r}")
        if self.kind == "quantizer-seeded" and self.measure is None:
            raise ValidationError("quantizer-seeded init needs a measure")
        if self.kind == "user" and self.config is None:
            raise ValidationError("user init needs a configuration")
        if not 0.0 < self.scale < math.inf:
            raise ValidationError(f"init scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class MinimizeSettings:
    """grad_tol bounds the largest per-point gradient norm at convergence;
    repair turns the outlier repair move, made every 50 iterations, on or off."""

    restarts: int = 16
    max_iters: int = 2000
    grad_tol: float = 1e-9
    init: InitSpec = field(default_factory=InitSpec)
    repair: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1 or not self.grad_tol > 0:
            raise ValidationError("restarts, max_iters and grad_tol must be positive")


@dataclass
class MinimizeResult:
    config: Configuration
    energy: float
    grad_norm: float
    iterations: int
    restarts_used: int
    converged: bool
    history: List[Tuple[float, float]]
    repair_events: List[float]
    diameter: float  # the final energy pass's support diameter, not reported

    def as_dict(self) -> dict:
        return {
            "energy": self.energy,
            "grad_norm": self.grad_norm,
            "iterations": self.iterations,
            "restarts_used": self.restarts_used,
            "converged": self.converged,
            "repair_events": len(self.repair_events),
            "repair_energy_deltas": self.repair_events,
        }


def _max_row_norm(g: np.ndarray) -> float:
    return float(np.sqrt((g * g).sum(axis=1).max()))


def repair_outliers(cfg: Configuration, kernel: Kernel) -> Configuration:
    """Relocate far outliers onto low-potential grid sites near the bulk.

    An outlier lies beyond 1.5 times the median distance from the centre of
    mass.  Returns the input configuration unchanged when there are no
    outliers, when the bulk is degenerate, or when the move does not
    strictly decrease the energy.
    """
    if cfg.n < 2:
        return cfg
    energy, _, _ = _energy_stats(cfg.points, kernel)
    repaired = _repair_points(cfg.points, kernel, energy)
    return cfg if repaired is None else Configuration(repaired[0])


def _repair_points(points: np.ndarray, kernel: Kernel,
                   energy: float) -> Optional[Tuple[np.ndarray, float]]:
    """The repair move from points at the given energy: (candidate, its energy),
    or None when there is no move or it does not lower the energy."""
    n, dim = points.shape
    center = points.mean(axis=0)
    dists = np.linalg.norm(points - center, axis=1)
    radius = float(np.quantile(dists, _BULK_QUANTILE))
    if radius <= 0.0:
        return None  # everything coincident: nothing to anchor the move on
    outliers = dists > _FAR_FACTOR * radius
    count = int(outliers.sum())
    if count == 0 or count == n:
        return None

    bulk = points[~outliers]
    bulk_center = bulk.mean(axis=0)
    bulk_d = np.linalg.norm(bulk - bulk_center, axis=1)
    far_idx = int(np.argmax(bulk_d))
    if bulk_d[far_idx] <= 0.0:
        anchor_dir = np.zeros(dim)
        anchor_dir[0] = 1.0
        anchor = bulk_center + radius * anchor_dir
    else:
        anchor = bulk_center + (1.0 + _OUTWARD_OFFSET) * (bulk[far_idx] - bulk_center)

    r_bar = kernel.near_origin_radius
    cap = 0.9 * r_bar / math.sqrt(dim) if r_bar else math.inf
    side = min(cap, 0.5 * max(radius, 1e-12))

    per_axis = max(1, math.ceil(count ** (1.0 / dim)))
    offsets = (np.arange(per_axis) + 0.5) / per_axis - 0.5
    sites = anchor[None, :] + _tensor_grid([offsets * side] * dim)

    psi = potential_grid(bulk, 1.0 / n, kernel, sites)
    order = np.argsort(psi, kind="stable")
    chosen = sites[order[:count]]

    candidate = points.copy()
    candidate[outliers] = chosen
    new_energy = _energy_stats(candidate, kernel)[0]
    if new_energy < energy:
        return candidate, new_energy
    return None


def _start_base(n: int, dim: int, settings: MinimizeSettings, kernel: Kernel):
    """The points every restart starts at or jitters, made once; None for gaussian clouds."""
    init = settings.init
    if init.kind == "random-gaussian":
        return None
    if init.kind == "quantizer-seeded":
        return quantize(init.measure, n, kernel, seed=settings.seed).config.points
    base = init.config.points
    if base.shape != (n, dim):
        raise ValidationError(f"user start has shape {base.shape}, expected ({n}, {dim})")
    return base


def _initial_points(n: int, dim: int, settings: MinimizeSettings, restart: int,
                    rng: np.random.Generator, base: Optional[np.ndarray]) -> np.ndarray:
    if base is None:
        return settings.init.scale * rng.normal(size=(n, dim))
    if restart == 0:
        return np.array(base, copy=True)
    spread = max(float(np.linalg.norm(base - base.mean(axis=0), axis=1).max()), 1.0)
    return base + 0.1 * spread * rng.normal(size=(n, dim))


def _lbfgs_direction(grad: np.ndarray, memory) -> np.ndarray:
    """-H grad by the two-loop recursion (Nocedal & Wright, Alg. 7.4) over the
    (s, y, 1 / y.s) triples in memory, oldest first; exactly -grad if empty."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        alphas.append(rho * float((s * q).sum()))
        q -= alphas[-1] * y
    if memory:
        _, y, rho = memory[-1]
        q /= rho * float((y * y).sum())  # initial H = (s.y / y.y) I
    for (s, y, rho), alpha in zip(memory, reversed(alphas)):
        q += (alpha - rho * float((y * q).sum())) * s
    return -q


def _descend(points: np.ndarray, kernel: Kernel, settings: MinimizeSettings):
    """One L-BFGS run; returns (points, energy, gnorm, iters, converged,
    history, repair deltas) or None when the run broke down."""
    history: List[Tuple[float, float]] = []
    repair_deltas: List[float] = []
    guard_needed = kernel.singular_at_zero
    memory: list = []
    step = previous_grad = grad = None  # the last accepted step, the gradient it left, this one
    iters = 0
    converged = False

    for it in range(settings.max_iters):
        iters = it + 1
        if settings.repair and it > 0 and it % _REPAIR_PERIOD == 0:
            repaired = _repair_points(points, kernel, energy)
            if repaired is not None:
                repair_deltas.append(repaired[1] - energy)
                points, memory, step, grad = repaired[0], [], None, None
        if grad is None:  # the start, or repaired points
            try:
                grad, energy, _, diam = gradient_of_points(points, kernel)
            except GradientUndefinedError:
                return None
            if not math.isfinite(energy):
                return None
        gnorm = _max_row_norm(grad)
        history.append((energy, gnorm))
        if gnorm <= settings.grad_tol:
            converged = True
            break
        if step is not None:
            change = grad - previous_grad
            curvature = float((step * change).sum())
            if curvature > 0.0:
                memory = memory[1 - _LBFGS_MEMORY:] + [(step, change, 1.0 / curvature)]
            else:  # no positive curvature along the step, e.g. across a truncation kink
                memory.clear()
        direction = _lbfgs_direction(grad, memory)
        slope = float((grad * direction).sum())
        if not slope < 0.0:  # not a descent direction: steepest descent instead
            memory.clear()
            direction, slope = -grad, -float((grad * grad).sum())
        t = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            trial = points + t * direction
            try:
                trial_grad, trial_energy, trial_min, trial_diam = gradient_of_points(trial, kernel)
            except GradientUndefinedError:  # coincident points: a rejected trial
                trial_energy = math.nan
            ok = math.isfinite(trial_energy)
            if ok and guard_needed:
                ok = trial_min >= _COLLISION_GUARD * max(diam, trial_diam)
            if ok and trial_energy <= energy + _ARMIJO * t * slope:
                step, previous_grad = trial - points, grad
                points, energy, diam, grad = trial, trial_energy, trial_diam, trial_grad
                accepted = True
                break
            t *= _SHRINK
        if not accepted:
            break  # no acceptable step left at this scale
    return points, energy, _max_row_norm(grad), iters, converged, history, repair_deltas


def minimize(kernel: Kernel, n: int, dim: int,
             settings: Optional[MinimizeSettings] = None) -> MinimizeResult:
    """Best-over-restarts L-BFGS descent on the discrete pair energy.

    Each line search tries the full step and halves it until the Armijo
    condition holds.  Ties between restarts break by lower gradient norm,
    then restart index.  The winning configuration is translated so its
    center of mass sits at the origin, and its energy is recomputed on the
    final points.
    """
    settings = settings or MinimizeSettings()
    if kernel.dim != dim:
        raise ValidationError(f"kernel dimension {kernel.dim} != requested dimension {dim}")
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n == 1:
        cfg = Configuration(np.zeros((1, dim)))
        return MinimizeResult(config=cfg, energy=0.0, grad_norm=0.0, iterations=0,
                              restarts_used=0, converged=True,
                              history=[(0.0, 0.0)], repair_events=[], diameter=0.0)

    rng = np.random.default_rng(settings.seed)
    streams = rng.spawn(settings.restarts)
    best = None
    completed = 0
    base = _start_base(n, dim, settings, kernel)
    for restart in range(settings.restarts):
        start = _initial_points(n, dim, settings, restart, streams[restart], base)
        outcome = _descend(start, kernel, settings)
        if outcome is None:
            continue
        completed += 1
        if best is None or outcome[1:3] < best[1:3]:  # (energy, gnorm); a tie keeps the earlier
            best = outcome
    if best is None:
        raise OptimizationError(
            f"all {settings.restarts} restarts diverged or hit undefined gradients"
        )
    points, energy, gnorm, iters, converged, history, repair_deltas = best
    points = points - points.mean(axis=0)
    cfg = Configuration(points)
    final_energy, _, diameter = _energy_stats(cfg.points, kernel)
    return MinimizeResult(config=cfg, energy=final_energy, grad_norm=gnorm,
                          iterations=iters, restarts_used=completed,
                          converged=converged, history=history,
                          repair_events=repair_deltas, diameter=diameter)


@dataclass(frozen=True)
class TraceEntry:
    n: int
    energy: float
    grad_norm: float
    diameter: float


@dataclass
class EnergyTrace:
    entries: List[TraceEntry]
    outward_drift: bool


def energy_trace(kernel: Kernel, dim: int, n_list,
                 settings: Optional[MinimizeSettings] = None) -> EnergyTrace:
    """Ground-state energy estimates along an increasing list of n.

    Each run after the first seeds one restart from the quantizer applied
    to the previous minimizer's empirical measure.  The outward_drift flag
    marks support diameters that keep growing, the practical symptom of
    discrete minimizers failing to exist.
    """
    n_list = list(n_list)
    if not n_list:
        raise ValidationError("n_list must not be empty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValidationError("n_list must be strictly increasing")
    settings = settings or MinimizeSettings()
    entries: List[TraceEntry] = []
    previous: Optional[Configuration] = None
    for n in n_list:
        run_settings = settings
        if previous is not None and previous.n >= 2:
            from .measures import AtomicMeasure

            cloud = AtomicMeasure(previous.points)
            run_settings = replace(settings, init=InitSpec(kind="quantizer-seeded",
                                                           measure=cloud))
        result = minimize(kernel, n, dim, run_settings)
        entries.append(TraceEntry(n=n, energy=result.energy,
                                  grad_norm=result.grad_norm, diameter=result.diameter))
        previous = result.config
    diameters = [e.diameter for e in entries if e.diameter > 0]
    drift = bool(len(diameters) >= 2 and diameters[-1] > 3.0 * diameters[0]
                 and all(b > a for a, b in zip(diameters, diameters[1:])))
    return EnergyTrace(entries=entries, outward_drift=drift)
