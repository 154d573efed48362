"""Coupled Euler-Poisson-Darboux solver via Lyapunov-Sylvester matrix equations."""

from .exceptions import (
    BlowUpError,
    BranchError,
    ConfigError,
    DegenerateExactError,
    EpdError,
    InvalidSpecError,
    ResonanceError,
    SingularPointError,
    SingularTimeError,
    SizeGuardError,
    SolvabilityError,
)
from .grid import (
    CoupledState,
    ErrorReport,
    Field,
    Grid,
    GridSpec,
    build_grid,
    discrete_errors,
    l2_norm,
    sample,
)
from .operators import (
    OperatorSet,
    StepOperators,
    TriDiagMatrix,
    assemble_step_operators,
    build_operator_set,
)
from .sylvester import (
    CoupledProblem,
    SylvesterProblem,
    kronecker_solve,
    residual,
    solvability_margin,
    solve_coupled,
    solve_sylvester,
)
from .stepper import (
    ProblemDef,
    StepReport,
    cfl_guard,
    convergence_order,
    init_levels,
    level_source,
    march,
    run,
    step,
)
from .exact import (
    ClosedForm,
    SeparableSolution,
    SeriesSolution,
    evaluate_series,
    frobenius_coefficients,
    frobenius_indicial,
    ode_residual,
    pde_residual,
    sample_box,
    separable_solution,
    stationary_additive,
    stationary_multiplicative,
)
from .bench import (
    BenchRow,
    ConvergenceReport,
    RunConfig,
    check_forcing_certificate,
    emit_series_table,
    manufactured_problem,
    parse_config,
    read_bench_csv,
    run_convergence,
    run_table1,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
