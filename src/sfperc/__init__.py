"""Percolation on Poissonian scale-free random graphs in the barely
supercritical window: weight schedules, graph samplers, exploration walks,
component analysis, and the limiting constants they converge to."""

from .errors import (
    ConfigError,
    CoreEmptyError,
    CoreExceedsGraphError,
    DomainError,
    NumericalFailureError,
    RangeError,
    ScheduleInfeasibleError,
    SfpercError,
)
from .params import (
    LambdaRule,
    ModelParams,
    PercolationSchedule,
    WeightSequence,
    build_weights,
    core_prefix_size,
    derive_constants,
    make_schedule,
    model_params,
)
from .theory import (
    CoreLimit,
    TheoryConstants,
    branching_survival_mc,
    compute_constants,
    core_limit,
    forward_degree_asymptote,
    horizon_for_forward_degree,
    laplace_sum_exact,
    limit_curve_max,
    limit_curve_z,
    rho_a_mean,
    rho_a_of_u,
    rho_star_fixed_point,
    truncated_operator_norm,
    zeta_a,
)
from .graphgen import (
    MultiGraph,
    SimpleGraph,
    collapse_to_simple,
    draw_marks,
    percolate_coupled,
    percolate_multigraph,
    read_edge_list,
    sample_mnr,
    sample_percolated_mnr_direct,
    sample_percolated_mnr_subset,
    write_edge_list,
)
from .components import (
    ComponentSummary,
    CoreReport,
    component_labels,
    component_sizes,
    core_report,
    extract_core,
    kernel_convergence_check,
    largest_component_among,
    one_neighborhood,
    write_component_table,
)
from .exploration import (
    ExplorationTrace,
    empirical_forward_degree,
    repeat_fraction,
    rescaled_walk,
    residual_largest_component,
    run_exploration,
    sup_distance_to_limit,
    write_trace_csv,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    derive_seed,
    run,
    summarize,
    write_result,
)

__version__ = "0.1.0"
