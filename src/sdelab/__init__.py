"""sdelab: a desk-scale numerical laboratory for SDEs with rough coefficients.

The package simulates shared-noise ensembles of regularized SDEs, solves the
matching forward PDEs, and evaluates the weighted norms, maximal-operator
bounds and convergence/uniqueness functionals that control how solutions
depend on coefficient regularity.
"""

__version__ = "0.1.0"

from .fields import (  # noqa: F401
    CoefficientField,
    Grid,
    Mollifier,
    PRESET_NAMES,
    make_grid,
    mollify,
    mollify_array,
    preset_field,
)
from .fpe import (  # noqa: F401
    EnergyReport,
    cfl_cap_1d,
    cfl_cap_kinetic,
    energy_monitor,
    law_compare,
    max_principle_check,
    solve_fp_1d,
    solve_kinetic,
    stationary_bound_check,
)
from .laws import Law  # noqa: F401
from .maxops import (  # noqa: F401
    RadiusSchedule,
    ViolationReport,
    check_pointwise_bound,
    gradient,
    gradient_magnitude,
    half_derivative,
    maximal,
    maximal_modified,
    sample_pairs,
)
from .norms import (  # noqa: F401
    NormValue,
    PhiWeight,
    h1_norm,
    h_half_norm,
    holder_domination_check,
    semicontinuity_probe,
    w11_norm,
    wphi_weak_norm,
)
from .report import Report  # noqa: F401
from .sde import (  # noqa: F401
    BrownianStore,
    FunctionalSeries,
    PathEnsemble,
    cauchy_diagnostic,
    coefficient_distance,
    dyadic_block_averages,
    dyadic_eps_schedule,
    l_eps_functional,
    plateau_bump,
    q_functional,
    q_tilde_functional,
    simulate_ensemble,
    simulate_family,
    uniqueness_map,
)
from .runner import (  # noqa: F401
    ConfigError,
    RunArtifact,
    SCENARIOS,
    run_scenario,
    validate_config,
)
