"""Deterministic quadrature with geometric refinement toward the origin.

Radial interaction kernels are allowed an integrable singularity at zero
separation, so plain tensor quadrature over a region containing the origin
is useless.  Both integrators below peel geometrically shrinking shells off
the origin, sum a fixed-order Gauss-Legendre rule per shell, and stop once
two successive refinements move the total by less than _REL_TOL.  Shell
contributions that stop decaying are the signature of a non-integrable
singularity and raise :class:`IntegrabilityError`.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import IntegrabilityError

# levels with |c_k| >= NO_DECAY_RATIO * |c_{k-1}| count as "not decaying"
_NO_DECAY_RATIO = 0.999
_NO_DECAY_STREAK = 6
_REL_TOL = 1e-8  # a level this small relative to the total counts as negligible


@functools.lru_cache(maxsize=None)
def _gauss(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _tensor_grid(axes) -> np.ndarray:
    """The (prod of lengths, dim) points of the grid of per-axis coordinates,
    the last axis running fastest."""
    return np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def _tensor_rule(lo, hi, order: int):
    """Tensor-product Gauss-Legendre rule of order^dim nodes on the box
    [lo, hi]: (points, weights)."""
    nodes, weights = _gauss(order)
    half = [0.5 * (b - a) for a, b in zip(lo, hi)]
    points = _tensor_grid([0.5 * (b + a) + h * nodes for a, b, h in zip(lo, hi, half)])
    wts = np.ones(points.shape[0])
    for g in np.meshgrid(*[h * weights for h in half], indexing="ij"):
        wts = wts * g.reshape(-1)
    return points, wts


def _shell_boxes(side: float, dim: int):
    """The 3^dim - 1 boxes of [-side/2, side/2]^dim minus its central
    half-side subcube.  None of them touches the origin."""
    s = side / 2.0
    cuts = ((-s, -s / 2.0), (-s / 2.0, s / 2.0), (s / 2.0, s))
    boxes = []
    for combo in itertools.product(range(3), repeat=dim):
        if all(c == 1 for c in combo):
            continue
        lo = [cuts[c][0] for c in combo]
        hi = [cuts[c][1] for c in combo]
        boxes.append((lo, hi))
    return boxes


def _run_refinement(contribution, max_levels: int) -> float:
    """Shared accumulation loop: sum per-level contributions, stop on two
    successive negligible levels, raise when levels stop decaying."""
    total = 0.0
    history = []
    quiet = 0
    for level in range(max_levels):
        c = contribution(level)
        history.append(c)
        total += c
        scale = max(abs(total), 1e-300)
        if abs(c) <= _REL_TOL * scale:
            quiet += 1
            if quiet >= 2:
                # geometric extrapolation of the untouched tail
                if len(history) >= 3 and history[-3] != 0.0:
                    rho = history[-2] / history[-3]
                    if 0.0 < abs(rho) < 0.9:
                        total += history[-1] * rho / (1.0 - rho)
                return total
        else:
            quiet = 0
        if level >= _NO_DECAY_STREAK + 2:
            recent = history[-(_NO_DECAY_STREAK + 1):]
            decaying = any(
                abs(recent[i + 1]) < _NO_DECAY_RATIO * abs(recent[i])
                for i in range(len(recent) - 1)
            )
            if not decaying and abs(c) > _REL_TOL * scale:
                raise IntegrabilityError(
                    "refinement contributions near the origin are not "
                    f"decaying (last level {c:.6e}); the integrand looks "
                    "non-integrable"
                )
    raise IntegrabilityError(
        f"refinement did not converge within {max_levels} levels"
    )


def refining_cube_integral(fn, side: float, dim: int) -> float:
    """Integral of ``fn`` over the cube [-side/2, side/2]^dim.

    ``fn`` maps (m, dim) points to (m,) values and may blow up at the origin
    only.  The cube is decomposed into geometric shells of boxes that never
    touch the origin, each integrated by the order-8 tensor rule.
    """

    def level_contribution(level: int) -> float:
        level_side = side / (2.0 ** level)
        rules = (_tensor_rule(lo, hi, 8) for lo, hi in _shell_boxes(level_side, dim))
        return sum(float(np.dot(wts, fn(pts))) for pts, wts in rules)

    return _run_refinement(level_contribution, max_levels=100)


def refining_radial_integral(fn, r_hi: float) -> float:
    """Integral of a vectorized scalar ``fn`` over (0, r_hi] via geometric
    panels [r_hi 2^-(k+1), r_hi 2^-k], each integrated by 32-point Gauss-Legendre."""
    nodes, weights = _gauss(32)

    def level_contribution(level: int) -> float:
        b = r_hi / (2.0 ** level)
        a = b / 2.0
        half = 0.5 * (b - a)
        return float(half * np.dot(weights, fn(0.5 * (a + b) + half * nodes)))

    return _run_refinement(level_contribution, max_levels=140)


def unit_sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere in R^dim (2 for dim = 1)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
