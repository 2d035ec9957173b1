"""Explicit spurious local minima for piecewise-linear networks.

Construct, from any admissible dataset, the infinite families of spurious
local minima of piecewise-linear MLPs together with strictly better descent
witnesses, and certify every construction numerically: local minimality by
perturbation sampling, strict suboptimality, trace intervals, cell
membership, quotient stationarity, and risk-invariant valley paths.
"""

from .activations import (
    PiecewiseLinear,
    TurningPoint,
    absolute_value,
    find_turning_point,
    leaky_relu,
    parse_activation,
    relu,
    three_piece,
    two_piece,
)
from .cells import (
    CellSignature,
    LiftedData,
    QuotientPoint,
    activation_pattern,
    build_valley_path,
    equivalence_check,
    lift_data,
    linear_collapse_check,
    net_cell_inputs,
    quotient_gradient_residual,
    quotient_map,
    reformulated_risk,
    signatures_equal,
    solve_cell_optimum,
    walk_valley,
)
from .construction import (
    CertifiedPoint,
    ConstructionParams,
    build_descent,
    build_minimum,
    enumerate_family,
    min_pairwise_distance,
    params_distance,
)
from .errors import (
    AllRowsZero,
    BoundaryCell,
    ConstructionError,
    GenerationFailed,
    InvalidLabels,
    NoAdmissibleTurningPoint,
    NonConvergence,
    NonFiniteOutput,
    NotEquivalent,
    ParseError,
    PreconditionViolated,
    ShapeViolation,
    SizingFailed,
    SpurminError,
    StrictDecreaseNotAchieved,
    WidthViolation,
)
from .io import gen_dataset, load_dataset_csv, save_dataset_csv, xor_dataset
from .linear_fit import (
    AssumptionReport,
    LinearFit,
    check_assumptions,
    fit_linear,
    select_nonzero_residual_row,
)
from .network import (
    Dataset,
    ForwardTrace,
    LossKind,
    Mlp,
    empirical_risk,
    forward,
    loss_gradient,
    per_sample_loss,
)
from .separation import (
    DescentConstants,
    SeparationResult,
    descent_constants_at,
    separate,
)
from .verification import (
    Certificate,
    Check,
    fd_gradient_check,
    perturbation_local_min_test,
    trace_interval_check,
)

__version__ = "0.1.0"
