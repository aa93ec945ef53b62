"""Radial interaction kernels and numeric checks of the standing assumptions.

Every built-in kernel is a function of the separation vector through its
Euclidean norm, so central symmetry holds by construction.  Kernels are
immutable after construction and evaluation is pure, which makes them safe
to share across any number of workers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import GradientUndefinedError, IntegrabilityError, UsageError, ValidationError
from .io import _read_rows, config_number, config_path, floats
from .quadrature import (
    refining_cube_integral,
    refining_radial_integral,
    unit_sphere_area,
)


class Kernel:
    """Base class for radial pairwise interaction kernels on R^dim.

    Subclasses provide the radial profile ``radial(r)`` and its derivative
    ``radial_prime(r)``, both vectorized over numpy arrays of radii; each
    returns a new array, which the caller may overwrite.
    """

    dim: int
    near_origin_radius: Optional[float]

    # -- radial profile -------------------------------------------------

    def radial(self, r):
        raise NotImplementedError

    def radial_prime(self, r):
        raise NotImplementedError

    @property
    def singular_at_zero(self) -> bool:
        """True when the kernel value at zero separation is +inf."""
        return not math.isfinite(self.value_at_zero)

    @property
    def value_at_zero(self) -> float:
        return float(self.radial(np.asarray(0.0)))

    # -- vector interface ------------------------------------------------

    def _check_vector(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValidationError(
                f"expected a vector of dimension {self.dim}, got shape {v.shape}"
            )
        return v

    def evaluate(self, v) -> float:
        """Kernel value at separation vector v; +inf only allowed at v = 0."""
        v = self._check_vector(v)
        return float(self.radial(np.linalg.norm(v)))

    def gradient(self, v) -> np.ndarray:
        """Gradient at v != 0: radial_prime(|v|) * v/|v|."""
        v = self._check_vector(v)
        r = float(np.linalg.norm(v))
        if r == 0.0:
            raise GradientUndefinedError(
                "kernel gradient is undefined at zero separation"
            )
        return float(self.radial_prime(r)) * v / r


def _positive(name: str, value: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValidationError(f"{name} must be a positive finite number, got {value}")
    return value


def _check_dim(dim: int) -> int:
    if int(dim) != dim or dim < 1:
        raise ValidationError(f"dim must be an integer >= 1, got {dim}")
    return int(dim)


# numpy forms of r ** p with the bits of ``**`` (tests/test_properties.py checks each)
_FAST_POWERS = {2.0: np.square, 0.5: np.sqrt, -1.0: np.reciprocal}


def _term(p: float, c: float = 1.0):
    """(r, out) -> r ** p / c bit for bit, for c = p or 1: r itself for p = 1,
    the scalar 1 for p = 0, else written into out (a new array for None)."""
    if p == 1.0 or p == 0.0:
        return lambda r, out: r if p else 1.0
    power = _FAST_POWERS.get(p) or (lambda r, out: np.power(r, p, out))
    if c == 1.0:
        return power
    exact = abs(math.frexp(c)[0]) == 0.5 and math.isfinite(1.0 / c)  # c = 2^k

    def term(r, out):
        x = power(r, np.empty_like(r) if out is None else out)
        # x * (1/c) has the bits of x / c when 1/c is exact
        return np.multiply(x, 1.0 / c, x) if exact else np.divide(x, c, x)

    return term


def _difference(r, first, second):
    """first(r) - second(r) for two _term's, into a new array."""
    out = np.empty_like(r)
    hi = first(r, out)
    return np.subtract(hi, second(r, None if hi is out else out), out)


@dataclass(frozen=True)
class PowerLawKernel(Kernel):
    """g(v) = |v|^beta / beta - |v|^alpha / alpha with -dim < alpha < beta.

    Repulsive near the origin for alpha < beta, attractive at long range
    when beta > 0.  Singular at zero separation iff alpha < 0; the local
    integrability bound alpha > -dim is enforced at construction.
    """

    alpha: float
    beta: float
    dim: int = 2
    near_origin_radius: Optional[float] = None

    def __post_init__(self):
        _check_dim(self.dim)
        a, b = float(self.alpha), float(self.beta)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValidationError("alpha and beta must be finite")
        if a == 0.0 or b == 0.0:
            raise ValidationError("alpha and beta must be nonzero (the profile divides by them)")
        if not (-self.dim < a < b):
            raise ValidationError(
                f"power-law exponents need -dim < alpha < beta, got alpha={a}, beta={b}, dim={self.dim}"
            )
        if self.near_origin_radius is None:
            # the radial derivative r^(beta-1) - r^(alpha-1) is negative on (0, 1)
            object.__setattr__(self, "near_origin_radius", 1.0)
        object.__setattr__(self, "_radial", (_term(b, b), _term(a, a)))
        object.__setattr__(self, "_prime", (_term(b - 1.0), _term(a - 1.0)))

    def radial(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = _difference(r, *self._radial)
        if not r.min(initial=math.inf) > 0:  # coincident points (or r < 0, NaN)
            vals[~(r > 0)] = math.inf if self.alpha < 0 else 0.0
        return vals

    def radial_prime(self, r):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return _difference(np.asarray(r, dtype=float), *self._prime)


@dataclass(frozen=True)
class MorseKernel(Kernel):
    """g(v) = c1 exp(-|v|/l1) - c2 exp(-|v|/l2), all constants positive.

    Bounded, with exponentially small tails; the classical hard case for
    existence of discrete minimizers.
    """

    c1: float
    c2: float
    l1: float
    l2: float
    dim: int = 2
    near_origin_radius: Optional[float] = None

    def __post_init__(self):
        _check_dim(self.dim)
        for name in ("c1", "c2", "l1", "l2"):
            _positive(name, getattr(self, name))
        if self.near_origin_radius is None:
            object.__setattr__(self, "near_origin_radius", self._derived_monotone_radius())

    def _derived_monotone_radius(self) -> Optional[float]:
        # decreasing at 0 requires c1/l1 > c2/l2; the derivative changes sign
        # where c1/l1 exp(-r/l1) = c2/l2 exp(-r/l2)
        d0 = self.c1 / self.l1 - self.c2 / self.l2
        if d0 <= 0.0:
            return None
        if self.l1 == self.l2:
            return self.l1  # derivative keeps one sign; any finite scale works
        r_star = math.log((self.c1 * self.l2) / (self.c2 * self.l1)) / (1.0 / self.l1 - 1.0 / self.l2)
        if r_star > 0.0 and math.isfinite(r_star):
            return r_star
        return max(self.l1, self.l2)

    def _decays(self, r, c1, c2, combine):
        """combine(c1 exp(-r/l1), c2 exp(-r/l2)), each term made in place."""
        r = np.asarray(r, dtype=float)
        terms = np.empty_like(r), np.empty_like(r)
        for e, scale, c in zip(terms, (self.l1, self.l2), (c1, c2)):
            np.exp(np.divide(np.negative(r, out=e), scale, out=e), out=e)
            e *= c
        return combine(*terms, out=terms[0])

    def radial(self, r):
        return self._decays(r, self.c1, self.c2, np.subtract)

    def radial_prime(self, r):
        return self._decays(r, -self.c1 / self.l1, self.c2 / self.l2, np.add)


@dataclass(frozen=True)
class TruncatedKernel(Kernel):
    """min(inner(v), level): the inner kernel capped at a finite level.

    The gradient is the inner gradient strictly below the cap, zero above
    it, and zero on the boundary set {inner = level} (any selection works
    for descent; the set has measure zero).
    """

    inner: Kernel
    level: float

    def __post_init__(self):
        if not isinstance(self.inner, Kernel):
            raise ValidationError("inner must be a kernel")
        if not math.isfinite(float(self.level)):
            raise ValidationError("truncation level must be finite")

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.inner.dim

    @property
    def near_origin_radius(self) -> Optional[float]:  # type: ignore[override]
        # min with a constant preserves monotone decrease near the origin
        return self.inner.near_origin_radius

    def radial(self, r):
        vals = np.asarray(self.inner.radial(r), dtype=float)
        return np.minimum(vals, self.level, out=vals)

    def radial_prime(self, r):
        r = np.asarray(r, dtype=float)
        out = np.asarray(self.inner.radial_prime(r), dtype=float)
        out[~(self.inner.radial(r) < self.level)] = 0.0  # NaN values too
        return out


@dataclass(frozen=True)
class TabulatedKernel(Kernel):
    """Radial kernel interpolated from (radius, value) samples.

    Interpolation is monotone piecewise-cubic (PCHIP), so stretches of
    monotone data stay monotone.  Outside the sampled range the profile is
    clamped to the boundary values.  A +inf value is allowed only at
    radius 0 and marks the kernel as singular there.
    """

    radii: tuple
    values: tuple
    dim: int = 2
    near_origin_radius: Optional[float] = None

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if radii.ndim != 1 or radii.size < 2 or radii.shape != values.shape:
            raise ValidationError("need matching 1-d radius and value arrays with >= 2 samples")
        if radii[0] < 0 or np.any(np.diff(radii) <= 0):
            raise ValidationError("radius grid must be nonnegative and strictly increasing")
        inf_mask = ~np.isfinite(values)
        if np.any(inf_mask & ((radii != 0.0) | (values != math.inf))):
            raise ValidationError("non-finite values are only allowed as +inf at radius 0")
        _check_dim(self.dim)
        object.__setattr__(self, "radii", tuple(radii.tolist()))
        object.__setattr__(self, "values", tuple(values.tolist()))
        finite = np.isfinite(values)
        if finite.sum() < 2:
            raise ValidationError("need at least 2 finite samples to interpolate")
        if self.near_origin_radius is None:
            object.__setattr__(self, "near_origin_radius", self._monotone_prefix_radius())

    def _monotone_prefix_radius(self) -> Optional[float]:
        vals = np.asarray(self.values)
        radii = np.asarray(self.radii)
        j = 0
        while j + 1 < len(vals) and vals[j + 1] <= vals[j]:
            j += 1
        return float(radii[j]) if j >= 1 else None

    @cached_property  # writes the instance __dict__, which a frozen dataclass allows
    def _interp(self):
        from scipy.interpolate import PchipInterpolator

        radii = np.asarray(self.radii)
        values = np.asarray(self.values)
        finite = np.isfinite(values)
        spline = PchipInterpolator(radii[finite], values[finite], extrapolate=False)
        return (spline, spline.derivative(), float(radii[finite][0]),
                float(radii[finite][-1]), float(values[finite][0]), float(values[finite][-1]))

    def radial(self, r):
        spline, _, lo, hi, v_lo, v_hi = self._interp
        r = np.asarray(r, dtype=float)
        out = spline(np.clip(r, lo, hi))
        out = np.where(r < lo, v_lo, out)
        out = np.where(r > hi, v_hi, out)
        if self.singular_at_zero:
            out = np.where(r == 0.0, math.inf, out)
        return out

    def radial_prime(self, r):
        _, deriv, lo, hi, _, _ = self._interp
        r = np.asarray(r, dtype=float)
        inside = (r >= lo) & (r <= hi)
        out = np.where(inside, deriv(np.clip(r, lo, hi)), 0.0)
        return out

    @property
    def value_at_zero(self) -> float:  # type: ignore[override]
        # the sample at radius 0, or the clamp value of a grid starting above it
        return float(self.values[0])


# ---------------------------------------------------------------------------
# numeric verification of the standing assumptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckScheme:
    """Sampling plan for the assumption checks, recorded in the report so a
    failure can be reproduced exactly."""

    radial_samples: int = 512
    r_min: float = 1e-6
    r_max: float = 1e3
    far_radii: tuple = tuple(2.0 ** k for k in range(0, 13))
    h2_tolerance: float = 1e-6
    h3_pairs: int = 256
    h4_samples: int = 200_000
    seed: int = 0

    def __post_init__(self):
        for key in ("radial_samples", "h3_pairs", "h4_samples"):
            if not getattr(self, key) > 0:
                raise ValidationError(f"{key!r} must be positive, got {getattr(self, key)}")
        if not self.far_radii:
            raise ValidationError("'far_radii' must not be empty")
        if not 0.0 < self.r_min < self.r_max < math.inf:
            raise ValidationError(f"need 0 < 'r_min' < 'r_max' < inf, got {self.r_min}, {self.r_max}")


@dataclass
class AssumptionReport:
    """Outcome of the sampled checks of the four standing assumptions.

    Sampling can refute an assumption but never prove it; the checker is a
    guard against misconfiguration, not a proof.
    """

    h1_lower_bound: float
    h1_lower_bound_finite: bool
    h1_local_integrability: bool
    h1_integral_abs: Optional[float]
    h2_liminf_at_infinity: float
    h2_pass: bool
    h3_monotone_near_origin: Optional[bool]
    h4_witness_energy: Optional[float] = None
    h4_std_error: Optional[float] = None
    h4_pass: Optional[bool] = None
    scheme: CheckScheme = field(default_factory=CheckScheme)

    @property
    def passed(self) -> bool:
        ok = self.h1_lower_bound_finite and self.h1_local_integrability and self.h2_pass
        if self.h3_monotone_near_origin is False:
            ok = False
        if self.h4_pass is False:
            ok = False
        return ok

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def check_assumptions(kernel: Kernel, witness=None,
                      scheme: Optional[CheckScheme] = None) -> AssumptionReport:
    """Sample-based verification of the four standing assumptions.

    * lower bound and local integrability of the kernel,
    * nonnegative liminf at infinity,
    * monotone decrease on the declared near-origin radius,
    * a negative-energy witness measure, when one is supplied.

    The witness check estimates the double integral of the kernel against
    the witness by Monte Carlo and reports the standard error.
    """
    scheme = scheme or CheckScheme()

    grid = np.geomspace(scheme.r_min, scheme.r_max, scheme.radial_samples)
    sampled = np.asarray(kernel.radial(grid), dtype=float)
    far = np.asarray(kernel.radial(np.asarray(scheme.far_radii)), dtype=float)
    lower = float(min(np.min(sampled), np.min(far)))
    lower_finite = math.isfinite(lower)

    integral_abs: Optional[float] = None
    integrable = False
    try:
        area = unit_sphere_area(kernel.dim)

        def abs_shell(r):
            return np.abs(np.asarray(kernel.radial(r), dtype=float)) * r ** (kernel.dim - 1)

        integral_abs = area * refining_radial_integral(abs_shell, 1.0)
        integrable = math.isfinite(integral_abs)
    except IntegrabilityError:
        integrable = False

    half = len(far) // 2
    tail_min = float(np.min(far[half:]))
    h2_value = float(np.min(far))
    h2_pass = tail_min >= -scheme.h2_tolerance

    h3: Optional[bool] = None
    r_bar = kernel.near_origin_radius
    if r_bar is not None and r_bar > 0:
        radii = np.linspace(r_bar / scheme.h3_pairs, r_bar, scheme.h3_pairs)
        vals = np.asarray(kernel.radial(radii), dtype=float)
        finite_vals = vals[np.isfinite(vals)]
        scale = float(np.max(np.abs(finite_vals))) if finite_vals.size else 1.0
        slack = 1e-12 * (1.0 + scale)
        h3 = bool(np.all(np.diff(vals) <= slack))

    h4_energy = h4_err = None
    h4_pass = None
    if witness is not None:
        from .energy import continuum_energy_mc

        mc = continuum_energy_mc(witness, kernel, scheme.h4_samples, scheme.seed)
        h4_energy, h4_err = mc.estimate, mc.std_error
        h4_pass = bool(mc.reliable and h4_energy + 3.0 * h4_err < 0.0)

    return AssumptionReport(
        h1_lower_bound=lower,
        h1_lower_bound_finite=lower_finite,
        h1_local_integrability=integrable,
        h1_integral_abs=integral_abs,
        h2_liminf_at_infinity=h2_value,
        h2_pass=h2_pass,
        h3_monotone_near_origin=h3,
        h4_witness_energy=h4_energy,
        h4_std_error=h4_err,
        h4_pass=h4_pass,
        scheme=scheme,
    )


def local_avg_integral(kernel: Kernel, eta: float) -> float:
    """Average of the kernel over the cube [-eta/2, eta/2]^dim.

    The cube is integrated by geometric shells toward the origin so an
    integrable singularity at zero is handled; a non-integrable one raises
    :class:`IntegrabilityError`.
    """
    if not (eta > 0 and math.isfinite(eta)):
        raise ValidationError(f"cube side must be positive and finite, got {eta}")

    def fn(points: np.ndarray) -> np.ndarray:
        return np.asarray(kernel.radial(np.linalg.norm(points, axis=1)), dtype=float)

    total = refining_cube_integral(fn, eta, kernel.dim)
    return total / eta ** kernel.dim


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def load_radial_csv(path) -> tuple:
    """Read a (radius, value) CSV of two or more columns; 'inf' is accepted as a value."""
    rows = _read_rows(path)
    for lineno, cells in rows:
        if len(cells) < 2:
            raise UsageError(f"{path}:{lineno}: expected two columns")
    return tuple(c[0] for _, c in rows), tuple(c[1] for _, c in rows)


def kernel_from_config(block: dict, base_dir: str = ".") -> Kernel:
    """Build a kernel from a structured config block."""
    if not isinstance(block, dict) or "variant" not in block:
        raise ValidationError("kernel block must be a mapping with a 'variant' key")
    variant = str(block["variant"]).lower()
    dim = config_number(block, "dim", int, 2)
    r_bar = config_number(block, "near_origin_radius", float, None)
    if variant in ("power_law", "powerlaw", "power-law"):
        return PowerLawKernel(alpha=config_number(block, "alpha"),
                              beta=config_number(block, "beta"),
                              dim=dim, near_origin_radius=r_bar)
    if variant == "morse":
        return MorseKernel(c1=config_number(block, "c1"), c2=config_number(block, "c2"),
                           l1=config_number(block, "l1"), l2=config_number(block, "l2"),
                           dim=dim, near_origin_radius=r_bar)
    if variant == "truncated":
        inner = kernel_from_config(block["inner"], base_dir)
        return TruncatedKernel(inner=inner, level=config_number(block, "level"))
    if variant in ("tabulated", "tabulated_radial"):
        if "path" in block:
            radii, values = load_radial_csv(config_path(block, "path", base_dir))
        else:
            radii = config_number(block, "radii", floats)
            values = config_number(block, "values", floats)
        return TabulatedKernel(radii=radii, values=values, dim=dim, near_origin_radius=r_bar)
    raise ValidationError(f"unknown kernel variant {variant!r}")
