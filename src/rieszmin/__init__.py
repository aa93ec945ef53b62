"""Pairwise interaction energies over point configurations: minimization,
measure quantization with energy control, and convergence diagnostics."""

from .energy import (
    Configuration,
    EnergyValue,
    MonteCarloEnergy,
    SubConfiguration,
    continuum_energy_mc,
    continuum_energy_quadrature_1d,
    cross_energy,
    discrete_energy,
    gradient,
    partial_energy,
    potential,
    truncated_energy_gap,
)
from .errors import (
    GradientUndefinedError,
    IntegrabilityError,
    NumericalError,
    OptimizationError,
    QuantizeError,
    RieszminError,
    UsageError,
    ValidationError,
)
from .kernels import (
    AssumptionReport,
    CheckScheme,
    Kernel,
    MorseKernel,
    PowerLawKernel,
    TabulatedKernel,
    TruncatedKernel,
    check_assumptions,
    kernel_from_config,
    local_avg_integral,
)
from .measures import (
    AtomicMeasure,
    DensityBoxMeasure,
    ProductQuantileMeasure,
    TargetMeasure,
    UniformBallMeasure,
    UniformBoxMeasure,
    single_atom,
)
from .quantizer import (
    MassPartition,
    QuantizeResult,
    partition,
    quantize,
    select_representatives,
    side_count,
)
from .minimizer import (
    EnergyTrace,
    InitSpec,
    MinimizeResult,
    MinimizeSettings,
    energy_trace,
    minimize,
    repair_outliers,
)
from .diagnostics import (
    ClusterReport,
    ELReport,
    GammaTrace,
    bl_distance,
    cluster_classify,
    el_residual,
    gamma_trace,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
