"""lplab: a numerical laboratory for Littlewood-Paley analysis.

Scale-space square functions, Calderon-type reproducing partitions, Peetre /
Hardy-Littlewood / grand maximal operators, Muckenhoupt weights and Hardy-
space atoms, discretized on periodic grids with FFT pipelines and verified
by property-based experiments.
"""

# before the submodule imports: experiments records it in every report
__version__ = "0.1.0"

from .fields import (
    Grid,
    SampledField,
    SpectralField,
    ScaleGrid,
    field_from_function,
    to_spectrum,
    from_spectrum,
    filtered,
    lp_norm,
    weighted_lp_norm,
    scale_integral,
    default_scale_grid,
)
from .kernels import (
    KernelSpec,
    KernelFamily,
    DecaySpec,
    make_builtin,
    sample_kernel,
    check_cancellation,
    check_nondegeneracy,
    check_decay_class,
    check_low_frequency_growth,
    constant_multiplier,
    coordinate_multiplier,
    derived_kernel,
    power_tail_kernel,
)
from .calderon import (
    IntervalCover,
    PartitionSystem,
    ZetaSymbol,
    DecompositionResult,
    find_intervals,
    build_partition,
    build_zeta,
    decompose_psi,
    reproduction_residual,
)
from .constants import (
    ConstantsReport,
    ConditionVerdict,
    IntegralEstimate,
    c0_profile,
    c_const,
    d_const,
    check_conditions,
    fit_decay_exponent,
)
from .maximal import (
    PeetreParams,
    GrandMaxConfig,
    peetre_max,
    hl_max,
    grand_max,
    peetre_bound_check,
    default_grand_scales,
    spectral_gradient,
)
from .transforms import (
    ScaleField,
    Atom,
    scale_transform,
    g_function,
    g_discrete,
    synthesize,
    make_atom,
    validate_atom,
    calderon_normalize,
    conjugate_kernel,
    spectral_multiplier_profile,
)
from .weights import Weight, ap_characteristic, a1_check, admissible_power_range
from .families import FamilyMember, default_family, boundary_leakage
from .experiments import ExperimentConfig, Report, ConfigError, run_experiment, emit_report

