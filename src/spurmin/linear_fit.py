"""Affine baseline fit f(W) = (1/n) sum_i l(Y_i, W [x_i; 1]), and the
assumption report that runs it.

The fitted W_tilde seeds every construction: its stationarity makes the
per-sample gradient matrix V orthogonal to [X^T 1], which is exactly the
zero-sum precondition of the separation step.  `check_assumptions` reports
the construction routes' feasibility conditions: whether this fit leaves a
residual, and the sample, width and turning-point conditions beside it;
`_assumptions` reports them on a fit already made.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .activations import PiecewiseLinear, find_turning_point
from .errors import (AllRowsZero, NoAdmissibleTurningPoint, NonConvergence, PreconditionViolated,
                     SpurminError, check_integer, check_real)
from .network import (Dataset, LossKind, _balanced_widths_ok, _widths_ok, augment, loss_gradient,
                      risk_of_outputs)

# Residual size, relative to 1 + max |baseline|, below which a row counts as fitted.
ZERO_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class LinearFit:
    """Fitted baseline.

    w_tilde: d_Y x (d_X + 1), last column is the intercept.
    v: d_Y x n per-sample loss gradients at the fitted predictions, with the
       1/n risk scaling folded out (sign pattern drives descent sizing).
    y_tilde: fitted predictions w_tilde @ [X; 1].
    """

    w_tilde: np.ndarray
    risk: float
    grad_norm: float
    v: np.ndarray
    y_tilde: np.ndarray
    loss: LossKind
    unbounded_suspected: bool = False

    def as_dict(self) -> dict:
        return {
            "w_tilde": self.w_tilde.tolist(),
            "risk": self.risk,
            "grad_norm": self.grad_norm,
            "loss": self.loss.value,
            "unbounded_suspected": self.unbounded_suspected,
        }


def _finish(W: np.ndarray, data: Dataset, loss: LossKind, unbounded: bool = False) -> LinearFit:
    Xt = augment(data.X)
    y_tilde = W @ Xt
    V = loss_gradient(loss, data.Y, y_tilde)
    grad = (V @ Xt.T) / data.n
    return LinearFit(
        w_tilde=W,
        risk=risk_of_outputs(y_tilde, data.Y, loss),
        grad_norm=float(np.linalg.norm(grad)),
        v=V,
        y_tilde=y_tilde,
        loss=loss,
        unbounded_suspected=unbounded,
    )


def fit_linear(
    data: Dataset,
    loss: LossKind = LossKind.SQUARED,
    tol: float = 1e-8,
    max_iter: int = 100_000,
    param_cap: float = 1e6,
) -> LinearFit:
    """Fit the affine baseline.

    Squared loss solves the normal equations through an SVD pseudo-inverse
    (singular values below 1e-12 * sigma_max are cut), which returns the
    minimum-norm interpolant on rank-deficient data.  Cross-entropy runs
    gradient descent with backtracking halving until the risk gradient norm
    reaches tol; ||W||_F beyond param_cap flags a suspected unbounded
    minimizer (separable data), and exhausting max_iter without reaching
    either raises NonConvergence.  Before any fit, tol must be a finite
    real >= 0, param_cap a finite real > 0 (`check_real`) and max_iter an
    integer of at least 1, else PreconditionViolated.
    """
    tol, param_cap = check_real("tol", tol), check_real("param_cap", param_cap)
    if not 0.0 <= tol < np.inf:
        raise PreconditionViolated(f"tol must be finite and nonnegative, not {tol}")
    if not 0.0 < param_cap < np.inf:
        raise PreconditionViolated(f"param_cap must be finite and positive, not {param_cap}")
    max_iter = check_integer("max_iter", max_iter, minimum=1)
    Xt = augment(data.X)
    if loss is LossKind.SQUARED:
        W = data.Y @ np.linalg.pinv(Xt, rcond=1e-12)
        return _finish(W, data, loss)

    W = np.zeros((data.d_y, data.d_x + 1))
    n = data.n

    def risk_and_grad(W: np.ndarray) -> tuple[float, np.ndarray]:
        pred = W @ Xt
        g = (loss_gradient(loss, data.Y, pred) @ Xt.T) / n
        return risk_of_outputs(pred, data.Y, loss), g

    f, g = risk_and_grad(W)
    for _ in range(max_iter):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            return _finish(W, data, loss)
        if float(np.linalg.norm(W)) > param_cap:
            return _finish(W, data, loss, unbounded=True)
        step = 1.0
        while step > 1e-16:
            W_new = W - step * g
            f_new, g_new = risk_and_grad(W_new)
            if f_new <= f - 0.5 * step * gnorm * gnorm:
                break
            step *= 0.5
        else:
            raise NonConvergence("backtracking stalled before reaching the tolerance")
        W, f, g = W_new, f_new, g_new
    raise NonConvergence(f"gradient norm did not reach {tol} in {max_iter} iterations")


def _leaves_residual(fit: LinearFit) -> bool:
    """Whether the baseline leaves a residual: some per-sample gradient in v
    exceeds ZERO_RESIDUAL_TOL * (1 + max |baseline|).  The one rule for it,
    read by the assumption report, the dataset generator, a minimum's
    `spurious` flag and the descent's row selection."""
    scale = 1.0 + float(np.max(np.abs(fit.y_tilde)))
    return not bool(np.all(np.abs(fit.v) <= ZERO_RESIDUAL_TOL * scale))


def select_nonzero_residual_row(fit: LinearFit, data: Dataset) -> tuple[int, np.ndarray]:
    """Pick an output row with nonzero fitted-prediction gradient.

    Returns (k, perm): a 0-based row index k and a permutation of row indices
    that moves row k to position 0 while keeping the other rows in order.
    Applying perm to w_tilde and Y simultaneously leaves the fit optimal and
    the risk unchanged.

    Raises AllRowsZero when the baseline fits exactly (no descent possible).
    """
    if not _leaves_residual(fit):
        raise AllRowsZero("baseline residual is zero in every output row")
    k = int(np.argmax(np.max(np.abs(fit.v), axis=1)))
    perm = np.array([k] + [i for i in range(data.d_y) if i != k], dtype=int)
    return k, perm


def permute_fit_rows(fit: LinearFit, data: Dataset, perm: np.ndarray) -> tuple[LinearFit, Dataset]:
    """Apply a simultaneous output-row permutation to the fit and the labels."""
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(data.d_y)):
        raise PreconditionViolated("perm must be a permutation of the output rows")
    data_p = Dataset(data.X, data.Y[perm])
    fit_p = LinearFit(
        w_tilde=fit.w_tilde[perm],
        risk=fit.risk,
        grad_norm=fit.grad_norm,
        v=fit.v[perm],
        y_tilde=fit.y_tilde[perm],
        loss=fit.loss,
        unbounded_suspected=fit.unbounded_suspected,
    )
    return fit_p, data_p


@dataclass(frozen=True)
class AssumptionReport:
    """Feasibility report for the construction routes.

    linear_inseparable ... the linear baseline leaves a nonzero residual
    distinct_samples ..... feature columns are pairwise distinct
    widths_ok ............ every hidden layer is wider than the output
    turning_point_ok ..... some breakpoint has unbalanced adjacent slopes
    balanced_widths_ok ... d_1 >= d_Y + 2 and d_i >= d_Y + 1 (balanced route,
                           any depth)
    """

    linear_inseparable: bool
    distinct_samples: bool
    widths_ok: bool
    turning_point_ok: bool
    balanced_widths_ok: bool
    baseline_residual: float

    def as_dict(self) -> dict:
        return asdict(self)


def check_assumptions(
    data: Dataset,
    dims: tuple[int, ...],
    act: PiecewiseLinear,
    loss: LossKind = LossKind.SQUARED,
) -> AssumptionReport:
    """Evaluate the five feasibility conditions on the baseline fit of data
    (`_assumptions`).

    A fit that fails with a SpurminError is reported as a NaN baseline
    residual; any other exception is a bug and propagates."""
    try:
        fit = fit_linear(data, loss)
    except SpurminError:
        fit = None
    return _assumptions(data, dims, act, fit)


def _assumptions(data: Dataset, dims: tuple[int, ...], act: PiecewiseLinear,
                 fit: Optional[LinearFit]) -> AssumptionReport:
    """The assumption report on a given baseline fit of data, None for a fit
    that failed; a caller that has fitted already reads its own fit."""
    if fit is None:
        residual, inseparable = float("nan"), False
    else:
        residual = float(np.linalg.norm(fit.y_tilde - data.Y))
        inseparable = _leaves_residual(fit)
    try:
        find_turning_point(act)
        turning_ok = True
    except NoAdmissibleTurningPoint:
        turning_ok = False
    return AssumptionReport(
        linear_inseparable=inseparable,
        distinct_samples=data.distinct_columns(),
        widths_ok=_widths_ok(dims, data.d_y),
        turning_point_ok=turning_ok,
        balanced_widths_ok=_balanced_widths_ok(dims, data.d_y),
        baseline_residual=residual,
    )
