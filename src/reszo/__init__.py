"""reszo: single-point zeroth-order optimization via surrogate regression.

Classic single-point, residual-feedback and two-point estimators plus
two sliding-window regression methods that reuse historical function
evaluations, a benchmark suite, convergence diagnostics, and a
multi-trial experiment harness with a CLI.
"""

# Above the imports, so that modules of the package can import it.
__version__ = "0.1.0"

from .core import (
    DIVERGENCE_THRESHOLD,
    BlackBoxObjective,
    DimensionMismatchError,
    DivergenceError,
    EvaluationFailureError,
    ExperimentFailedError,
    NotEnoughSamplesError,
    SingularUpdateError,
    make_rng,
)
from .sampling import sample_gaussian, sample_unit_sphere
from .estimators import EstimateOutcome, rszo_estimate, szo_estimate, tzo_estimate
from .regression import (
    EvaluationWindow,
    SurrogateFit,
    assemble_linear_system,
    assemble_quadratic_system,
    fit_linear,
    fit_quadratic,
    rank1_swap_inverse,
    solve_least_squares,
)
from .optimizers import (
    OptimizerConfig,
    RunTrace,
    adaptive_delta,
    run_optimizer,
)
from .benchmarks import (
    BenchmarkSpec,
    initial_point,
    load_dataset,
    make_objective,
    objective_from_dataset,
    save_dataset,
)
from .diagnostics import (
    DiagnosticsCollector,
    DiagnosticsRecord,
    cd_ratio,
    cd_statistics,
    finite_difference_gradient,
)
from .harness import (
    AggregateCurve,
    ExperimentConfig,
    TrialResult,
    aggregate_trials,
    experiment_from_dict,
    experiment_to_dict,
    export_results,
    grid_search,
    load_curve_csv,
    merge_curves,
    run_experiment,
)
