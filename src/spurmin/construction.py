"""Explicit spurious-local-minimum networks and their descent witnesses.

Four routes, all seeded by the affine baseline fit:

  shallow  - one hidden layer, two-piece activation
  deep     - any depth, two-piece activation
  general  - any depth, any nonlinear piecewise-linear activation with an
             admissible turning point (unbalanced adjacent slopes)
  balanced - two-piece with s- + s+ = 0 (e.g. |x|), needs one extra hidden row

The first three share one skeleton.  One two-piece scaffold gives the minimum
(`_minimum_layers`) and the witness (`_witness_layers`) at any depth: the
one-hidden-layer construction extended by pass-through layers.  The general
route runs that scaffold through one squeeze (`_squeeze`) into the linear
pieces beside a turning point t.  Every scaffold is built in a frame whose
right slope is nonzero, and one reflection step (`_frame`, `_net`) maps it
back to the activation that was asked for.

Each minimum reproduces the baseline predictions exactly, so its risk equals
the baseline risk; each witness is an explicit parameter point with strictly
smaller risk, certifying that the minima are spurious.

Every minimum is certified as it is built (`_certify_minimum`): output
identity, risk match, and `verification.trace_interval_check` of its hidden
pre-activations against the route's interval, mirrored to (-hi, -lo) for a
reflected build.  The point keeps that certificate as `interval`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .activations import (
    PiecewiseLinear,
    TurningPoint,
    find_turning_point,
    two_piece,
)
from .errors import (
    ConstructionError,
    NoAdmissibleTurningPoint,
    PreconditionViolated,
    StrictDecreaseNotAchieved,
    WidthViolation,
    check_integer,
)
from .io import mlp_to_dict
from .linear_fit import LinearFit, permute_fit_rows, select_nonzero_residual_row
from .network import Dataset, Mlp, forward, risk_of_outputs
from .separation import (
    MAX_HALVINGS,
    DescentConstants,
    SeparationResult,
    descent_constants_at,
    separate,
    size_constants,
)
from .verification import RISK_MATCH_TOL, Certificate, trace_interval_check

OUTPUT_TOL = 1e-12
SPURIOUS_RESIDUAL_TOL = 1e-8

Layers = tuple[list[np.ndarray], list[np.ndarray]]


@dataclass(frozen=True)
class ConstructionParams:
    """Free parameters of a construction; every member of the infinite family
    corresponds to one choice of these."""

    eta: Optional[float] = None
    eta_rest: tuple[float, ...] = ()
    alpha: Optional[float] = None
    gamma: Optional[float] = None
    eta1: Optional[float] = None
    lambda_shift: Optional[float] = None
    m_scale: Optional[float] = None
    m_tilde: Optional[float] = None
    alpha_scales: tuple[float, ...] = ()
    turning: Optional[TurningPoint] = None

    def as_dict(self) -> dict:
        d = {
            "eta": self.eta,
            "eta_rest": list(self.eta_rest),
            "alpha": self.alpha,
            "gamma": self.gamma,
            "eta1": self.eta1,
            "lambda_shift": self.lambda_shift,
            "m_scale": self.m_scale,
            "m_tilde": self.m_tilde,
            "alpha_scales": list(self.alpha_scales),
        }
        if self.turning is not None:
            d["turning"] = asdict(self.turning)
        return d


@dataclass(frozen=True)
class CertifiedPoint:
    """A constructed parameter point with its measured risk.

    kind is "minimum" (risk equals the baseline risk) or "descent_witness"
    (risk strictly below it).  spurious records whether the baseline leaves a
    nonzero residual, i.e. whether the minimum is beatable at all.
    """

    net: Mlp
    kind: str
    stage: str
    risk: float
    baseline_risk: float
    params: ConstructionParams
    spurious: bool
    interval: Optional[Certificate] = None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "stage": self.stage,
            "risk": self.risk,
            "baseline_risk": self.baseline_risk,
            "spurious": self.spurious,
            "params": self.params.as_dict(),
            "net": mlp_to_dict(self.net),
        }


def params_distance(a: Mlp, b: Mlp) -> float:
    """Max-norm distance between two parameter vectors of equal architecture."""
    if a.dims != b.dims:
        raise PreconditionViolated("architectures differ")
    dist = 0.0
    for Wa, Wb in zip(a.weights, b.weights):
        dist = max(dist, float(np.max(np.abs(Wa - Wb))))
    for ba, bb in zip(a.biases, b.biases):
        dist = max(dist, float(np.max(np.abs(ba - bb))))
    return dist


def min_pairwise_distance(points: list[CertifiedPoint]) -> float:
    """The smallest `params_distance` between two of at least two points."""
    return min(
        params_distance(a.net, b.net) for i, a in enumerate(points) for b in points[i + 1 :]
    )


# ---------------------------------------------------------------------------
# shared plumbing


def _check_dims(fit: LinearFit, data: Dataset, dims: tuple[int, ...]) -> None:
    if dims[0] != data.d_x or dims[-1] != data.d_y:
        raise PreconditionViolated(
            f"dims {dims} do not match data ({data.d_x} -> {data.d_y})"
        )
    if fit.w_tilde.shape != (data.d_y, data.d_x + 1):
        raise PreconditionViolated("fit and data disagree on dimensions")


def _require_hidden_wider(dims: tuple[int, ...], d_y: int) -> None:
    hidden = dims[1:-1]
    if not hidden or min(hidden) <= d_y:
        raise WidthViolation(
            f"every hidden width must exceed the output width {d_y}, got {dims}"
        )


def _require_nonlinear(act: PiecewiseLinear) -> None:
    # with a linear activation the affine baseline is the global optimum
    if not act.is_nonlinear:
        raise PreconditionViolated("activation must be nonlinear")


def _two_piece_or_raise(act: PiecewiseLinear) -> tuple[float, float]:
    if not act.is_two_piece:
        raise PreconditionViolated("this route needs a two-piece activation")
    _require_nonlinear(act)
    return act.s_minus, act.s_plus


def _frame(act: PiecewiseLinear, s_plus: float) -> tuple[PiecewiseLinear, bool]:
    """The activation the scaffold formulas run in, and whether it is act
    reflected: the formulas divide by the right slope s_plus, and when that
    is zero the mirrored activation g(x) = h(-x) supplies a nonzero one."""
    return (act, False) if s_plus != 0.0 else (act.reflect(), True)


def _net(dims: tuple[int, ...], act: PiecewiseLinear, reflected: bool,
         weights: list[np.ndarray], biases: list[np.ndarray]) -> Mlp:
    """The network for act from parameters built in its frame.  A reflected
    frame flips the sign of every layer but the last; composed with the
    reflected activation that leaves the network function unchanged."""
    if reflected:
        weights = [-W for W in weights[:-1]] + weights[-1:]
        biases = [-b for b in biases[:-1]] + biases[-1:]
    return Mlp(dims, tuple(weights), tuple(biases), act)


def _require_invertible(name: str, s: float) -> None:
    """The scaffold formulas divide by the nonzero slope s; a subnormal one
    would give infinite weights."""
    if not np.isfinite(1.0 / s):
        raise PreconditionViolated(f"{name} = {s!r} has no finite reciprocal")


def _turning_frame(act: PiecewiseLinear) -> tuple[PiecewiseLinear, bool, TurningPoint]:
    """The general route's frame and the turning point it squeezes into."""
    _require_nonlinear(act)
    tp = find_turning_point(act)
    build_act, reflected = _frame(act, tp.s_plus)
    return build_act, reflected, find_turning_point(build_act) if reflected else tp


def _certify_minimum(
    net: Mlp,
    fit: LinearFit,
    data: Dataset,
    stage: str,
    params: ConstructionParams,
    interval: tuple[float, float],
    reflected: bool,
) -> CertifiedPoint:
    """Postconditions shared by every minimum: output identity, risk match,
    and hidden pre-activations strictly inside the route's interval.  The
    interval is given in the build frame; a reflected network's
    pre-activations are negated, so it is checked mirrored to (-hi, -lo).
    A NaN anywhere fails every check."""
    trace = forward(net, data.X)
    if not float(np.max(np.abs(trace.output - fit.y_tilde))) <= OUTPUT_TOL:
        raise ConstructionError("minimum output does not reproduce the baseline")
    risk = risk_of_outputs(trace.output, data.Y, fit.loss)
    if not abs(risk - fit.risk) <= RISK_MATCH_TOL:
        raise ConstructionError("minimum risk deviates from the baseline risk")
    lo, hi = (-interval[1], -interval[0]) if reflected else interval
    cert = trace_interval_check(trace, lo, hi)
    if not cert.verdict:
        raise ConstructionError("hidden pre-activation left its interval")
    return CertifiedPoint(
        net=net,
        kind="minimum",
        stage=stage,
        risk=risk,
        baseline_risk=fit.risk,
        params=params,
        spurious=float(np.linalg.norm(fit.y_tilde - data.Y)) > SPURIOUS_RESIDUAL_TOL,
        interval=cert,
    )


def _witness(net: Mlp, stage: str, risk: float, fit: LinearFit,
             params: ConstructionParams, spurious: bool = True) -> CertifiedPoint:
    return CertifiedPoint(
        net=net, kind="descent_witness", stage=stage, risk=risk,
        baseline_risk=fit.risk, params=params, spurious=spurious,
    )


def default_eta(fit: LinearFit) -> float:
    """Negative shift with baseline predictions minus eta strictly positive."""
    return min(0.0, float(np.min(fit.y_tilde))) - 1.0


def _checked_eta(fit: LinearFit, eta: Optional[float]) -> float:
    if eta is None:
        eta = default_eta(fit)
    if not np.all(fit.y_tilde - eta > 0):
        raise PreconditionViolated("eta must keep the shifted baseline strictly positive")
    return eta


def _split(fit: LinearFit, data: Dataset) -> tuple[LinearFit, np.ndarray, SeparationResult]:
    """The fit with a nonzero-residual row first, the permutation that undoes
    that reorder, and the sample split of that row behind every witness."""
    _, perm = select_nonzero_residual_row(fit, data)
    fitp, _ = permute_fit_rows(fit, data, perm)
    return fitp, np.argsort(perm), separate(fitp.v[0], fitp.y_tilde[0], data.X)


def _default_eta_rest(fit: LinearFit) -> np.ndarray:
    """Per-row shifts keeping rows 2..d_Y of the baseline strictly positive
    after subtraction."""
    return np.min(fit.y_tilde[1:], axis=1) - 1.0 if fit.y_tilde.shape[0] > 1 else np.zeros(0)


def _verified_descent(
    assemble,
    res: SeparationResult,
    u: np.ndarray,
    v: np.ndarray,
    xs: np.ndarray,
    slope_ratio: Optional[float],
    fit: LinearFit,
    data: Dataset,
) -> tuple[Mlp, DescentConstants, np.ndarray, float]:
    """Halve alpha until the assembled network's risk strictly undercuts the
    baseline; "sufficiently small" is operationalized as this verified search.
    Returns the network, its constants, its output and its risk."""
    consts = size_constants(res, u, v, xs, slope_ratio)
    alpha = consts.alpha
    for _ in range(MAX_HALVINGS):
        if consts.margin > 0:
            net = assemble(consts)
            out = forward(net, data.X).output
            risk = risk_of_outputs(out, data.Y, fit.loss)
            if risk < fit.risk - 1e-12:
                return net, consts, out, risk
        alpha *= 0.5
        consts = descent_constants_at(res, u, v, xs, slope_ratio, alpha)
    raise StrictDecreaseNotAchieved(
        f"no strict risk decrease after {MAX_HALVINGS} halvings"
    )


# ---------------------------------------------------------------------------
# the two-piece scaffold: minimum and witness at any depth, in the build frame


def _pass_through(d_out: int, d_in: int, d_y: int, s_plus: float, fill_col: bool) -> np.ndarray:
    """(1/s+) * (sum_j E_jj [+ sum_{j>d_Y} E_{j,d_Y+1}]): copies the payload
    rows; with fill_col the padding rows replicate column d_Y+1 so every unit
    stays strictly positive."""
    W = np.zeros((d_out, d_in))
    W[range(d_y), range(d_y)] = 1.0 / s_plus
    if fill_col:
        W[d_y:, d_y] = 1.0 / s_plus
    return W


def _minimum_layers(fit: LinearFit, dims: tuple[int, ...], s_plus: float, eta: float) -> Layers:
    """Layer 1 carries the baseline shifted by a negative eta so every unit
    stays on the positive piece, middle layers forward the payload (and
    replicate the positive pad unit), and the output layer undoes the slope
    and the shift: the network computes exactly the baseline."""
    _require_invertible("right slope s_plus of the build frame", s_plus)
    d_x, d_y = dims[0], dims[-1]
    weights = [np.vstack([fit.w_tilde[:, :d_x], np.zeros((dims[1] - d_y, d_x))])]
    biases = [np.concatenate([fit.w_tilde[:, d_x] - eta, -eta * np.ones(dims[1] - d_y)])]
    for i in range(2, len(dims) - 1):
        weights.append(_pass_through(dims[i], dims[i - 1], d_y, s_plus, fill_col=True))
        biases.append(np.zeros(dims[i]))
    weights.append(np.hstack([np.eye(d_y) / s_plus, np.zeros((d_y, dims[-2] - d_y))]))
    biases.append(eta * np.ones(d_y))
    return weights, biases


def _shallow_minimum_params(fit: LinearFit, dims: tuple[int, ...], s_plus: float, eta: float):
    (W1, W2), (b1, b2) = _minimum_layers(fit, dims, s_plus, eta)
    return W1, b1, W2, b2


def _shallow_descent_params(
    fitp: LinearFit,
    dims: tuple[int, ...],
    s_minus: float,
    s_plus: float,
    beta: np.ndarray,
    consts: DescentConstants,
    eta_rest: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the witness layers for a permuted fit (nonzero row first).

    Rows of the hidden layer: the baseline's first row tilted by -alpha*beta
    and its negation (these two change sign exactly across the split), the
    remaining baseline rows shifted to stay positive, then zero padding.
    """
    d_x, d_1, d_y = dims
    w_off = fitp.w_tilde[0, d_x]
    a, g, e1 = consts.alpha, consts.gamma, consts.eta1
    tilted = fitp.w_tilde[0, :d_x] - a * beta
    pad = d_1 - (d_y + 1)
    W1 = np.vstack([tilted, -tilted, fitp.w_tilde[1:, :d_x], np.zeros((pad, d_x))])
    b1 = np.concatenate(
        [[w_off - e1 + g, -w_off + e1 + g], fitp.w_tilde[1:, d_x] - eta_rest, np.zeros(pad)]
    )
    W2 = np.zeros((d_y, d_1))
    W2[0, :2] = 1.0 / (s_plus + s_minus), -1.0 / (s_plus + s_minus)
    W2[range(1, d_y), range(2, d_y + 1)] = 1.0 / s_plus
    b2 = np.concatenate([[e1], eta_rest])
    return W1, b1, W2, b2


def default_lambda(stage1_output: np.ndarray) -> float:
    return max(0.0, -float(np.min(stage1_output))) + 1.0


def _witness_layers(
    fit: LinearFit,
    data: Dataset,
    dims: tuple[int, ...],
    act: PiecewiseLinear,
    lambda_shift: Optional[float] = None,
) -> tuple[list[np.ndarray], list[np.ndarray], ConstructionParams, Optional[np.ndarray], float]:
    """The two-piece witness at any depth, in act's build frame.

    Layer 1 tilts the nonzero-gradient baseline row along the separating
    direction and nudges it by gamma; the sign split makes the first-order
    risk change strictly negative while rows 2.. reproduce the baseline.
    Deeper nets add a positive shift lambda in layer 2 so everything
    downstream rides the positive piece, forward the payload, and subtract
    lambda at the output.  Returns the layers, the params, and the output
    (None with one hidden layer) and risk of the one-hidden-layer witness.
    """
    build_act, reflected = _frame(act, act.s_plus)
    s_minus, s_plus = build_act.s_minus, build_act.s_plus
    _require_invertible("right slope s_plus of the build frame", s_plus)
    _require_invertible("slope sum s_minus + s_plus", s_minus + s_plus)
    fitp, inv, res = _split(fit, data)
    eta_rest = _default_eta_rest(fitp)
    shallow = (dims[0], dims[1], dims[-1])

    def layers(consts: DescentConstants) -> Layers:
        W1, b1, W2, b2 = _shallow_descent_params(
            fitp, shallow, s_minus, s_plus, res.beta, consts, eta_rest
        )
        return [W1, W2[inv]], [b1, b2[inv]]

    # gamma's sign is governed by the activation frame the formulas run in
    slope_ratio = (s_plus - s_minus) / (s_plus + s_minus)
    _, consts, s_out, risk = _verified_descent(
        lambda c: _net(shallow, act, reflected, *layers(c)),
        res, fitp.v[0], fitp.y_tilde[0], data.X, slope_ratio, fit, data,
    )
    (W1, W2), (b1, b2) = layers(consts)
    params = ConstructionParams(
        alpha=consts.alpha, gamma=consts.gamma, eta1=consts.eta1, eta_rest=tuple(eta_rest)
    )
    if len(dims) == 3:
        return [W1, W2], [b1, b2], params, None, risk

    lam = default_lambda(s_out) if lambda_shift is None else lambda_shift
    if not np.all(s_out + lam > 0):
        raise PreconditionViolated("lambda must make the witness output strictly positive")
    d_y = dims[-1]
    weights = [W1, np.vstack([W2, np.zeros((dims[2] - d_y, dims[1]))])]
    biases = [b1, lam * np.ones(dims[2]) + np.concatenate([b2, np.zeros(dims[2] - d_y)])]
    for i in range(3, len(dims)):
        weights.append(_pass_through(dims[i], dims[i - 1], d_y, s_plus, fill_col=False))
        biases.append(np.zeros(dims[i]))
    biases[-1] = -lam * np.ones(d_y)
    return weights, biases, replace(params, lambda_shift=lam), s_out, risk


def _check_deep_witness(out: np.ndarray, shallow_out: Optional[np.ndarray]) -> None:
    if shallow_out is not None and not float(np.max(np.abs(out - shallow_out))) <= OUTPUT_TOL:
        raise ConstructionError("deep witness output deviates from the shallow witness")


# ---------------------------------------------------------------------------
# shallow and deep routes (two-piece)


def _two_piece_minimum(fit: LinearFit, data: Dataset, dims: tuple[int, ...],
                       act: PiecewiseLinear, eta: Optional[float], stage: str) -> CertifiedPoint:
    _require_hidden_wider(dims, data.d_y)
    _, s_plus = _two_piece_or_raise(act)
    eta = _checked_eta(fit, eta)
    build_act, reflected = _frame(act, s_plus)
    net = _net(dims, act, reflected, *_minimum_layers(fit, dims, build_act.s_plus, eta))
    return _certify_minimum(
        net, fit, data, stage, ConstructionParams(eta=eta), (0.0, np.inf), reflected
    )


def build_shallow_minimum(
    fit: LinearFit,
    data: Dataset,
    dims: tuple[int, ...],
    act: PiecewiseLinear,
    eta: Optional[float] = None,
) -> CertifiedPoint:
    """One-hidden-layer minimum: the top rows carry the baseline shifted by a
    negative eta so every unit stays on the positive piece, and the output
    layer undoes the shift; the network computes exactly the baseline."""
    _check_dims(fit, data, dims)
    if len(dims) != 3:
        raise PreconditionViolated("shallow route needs exactly one hidden layer")
    return _two_piece_minimum(fit, data, dims, act, eta, "1")


def build_deep_minimum(
    fit: LinearFit,
    data: Dataset,
    dims: tuple[int, ...],
    act: PiecewiseLinear,
    eta: Optional[float] = None,
) -> CertifiedPoint:
    """Depth-independent minimum: the first layer is the shallow one, middle
    layers forward the payload (and replicate the positive pad unit), and the
    output layer undoes the eta shift."""
    _check_dims(fit, data, dims)
    return _two_piece_minimum(fit, data, dims, act, eta, "2")


def _two_piece_descent(fit: LinearFit, data: Dataset, dims: tuple[int, ...], act: PiecewiseLinear,
                       lambda_shift: Optional[float] = None) -> CertifiedPoint:
    s_minus, s_plus = _two_piece_or_raise(act)
    if s_minus + s_plus == 0.0:
        raise NoAdmissibleTurningPoint(
            "slopes cancel (s_minus + s_plus = 0); use the balanced-slope route"
        )
    weights, biases, params, shallow_out, risk = _witness_layers(
        fit, data, dims, act, lambda_shift
    )
    net = _net(dims, act, _frame(act, s_plus)[1], weights, biases)
    if shallow_out is None:
        return _witness(net, "1", risk, fit, params)
    out = forward(net, data.X).output
    _check_deep_witness(out, shallow_out)
    return _witness(net, "2", risk_of_outputs(out, data.Y, fit.loss), fit, params)


def build_shallow_descent(
    fit: LinearFit,
    data: Dataset,
    dims: tuple[int, ...],
    act: PiecewiseLinear,
) -> CertifiedPoint:
    """Witness with one hidden layer: tilt the nonzero-gradient baseline row
    along the separating direction and nudge by gamma; the sign split makes
    the first-order risk change strictly negative while rows 2.. reproduce
    the baseline exactly."""
    _check_dims(fit, data, dims)
    if len(dims) != 3:
        raise PreconditionViolated("shallow route needs exactly one hidden layer")
    if dims[1] < data.d_y + 1:
        raise WidthViolation(f"need hidden width >= {data.d_y + 1}, got {dims[1]}")
    return _two_piece_descent(fit, data, dims, act)


def build_deep_descent(
    fit: LinearFit,
    data: Dataset,
    dims: tuple[int, ...],
    act: PiecewiseLinear,
    lambda_shift: Optional[float] = None,
) -> CertifiedPoint:
    """Depth extension of the shallow witness: layer 2 adds a positive shift
    lambda so everything downstream rides the positive piece, and the output
    layer subtracts it; the output equals the shallow witness output exactly.
    With one hidden layer this is the shallow witness (stage "1")."""
    _check_dims(fit, data, dims)
    _require_hidden_wider(dims, data.d_y)
    return _two_piece_descent(fit, data, dims, act, lambda_shift)


# ---------------------------------------------------------------------------
# general route (arbitrary piecewise-linear with an admissible turning point)


def default_m_scale(first_layer_pre: np.ndarray, sigma: float) -> float:
    """Twice the lower bound ||pre||_F / sigma, floored at 1."""
    return max(1.0, 2.0 * float(np.linalg.norm(first_layer_pre)) / sigma)


def _radius_scale(pre: np.ndarray, sigma: float, scale: Optional[float], name: str,
                  factor: float = 1.0) -> float:
    """A squeeze scale (factor times the default when none is given) that
    keeps ||pre|| / scale inside the linearity radius sigma."""
    if scale is None:
        scale = default_m_scale(pre, sigma) * factor
    if np.linalg.norm(pre) / scale >= sigma:
        raise PreconditionViolated(f"{name} too small for the linearity radius sigma")
    return scale


def _squeeze(weights: list[np.ndarray], biases: list[np.ndarray], t: float, h_t: float,
             m_scale: float, out_scale: float) -> Layers:
    """Move a build-frame scaffold into the linear piece right of the turning
    point t.  Layer 1 is divided by M and translated to t; each hidden layer,
    whose weights the caller has already scaled, is translated to t with the
    h(t) back-off and takes its scaffold bias divided by out_scale; the
    output layer scales back up by out_scale, the total scale-down of the
    last hidden layer."""
    sq_w = [weights[0] / m_scale]
    sq_b = [biases[0] / m_scale + t * np.ones(len(biases[0]))]
    for W, b in zip(weights[1:-1], biases[1:-1]):
        sq_w.append(W)
        sq_b.append(t * np.ones(len(b)) - h_t * (W @ np.ones(W.shape[1])) + b / out_scale)
    W = weights[-1]
    sq_w.append(out_scale * W)
    sq_b.append(biases[-1] - out_scale * h_t * (W @ np.ones(W.shape[1])))
    return sq_w, sq_b


def _general_minimum(
    fit: LinearFit,
    data: Dataset,
    dims: tuple[int, ...],
    act: PiecewiseLinear,
    frame: tuple[PiecewiseLinear, bool, TurningPoint],
    eta: Optional[float] = None,
    m_scale: Optional[float] = None,
    alpha_scales: Optional[tuple[float, ...]] = None,
    m_factor: float = 1.0,
) -> CertifiedPoint:
    build_act, reflected, tp = frame
    n_alpha = max(0, len(dims) - 3)
    eta = _checked_eta(fit, eta)
    if alpha_scales is None:
        alpha_scales = tuple(0.5 for _ in range(n_alpha))
    if len(alpha_scales) != n_alpha:
        raise PreconditionViolated(f"need {n_alpha} alpha scales for {len(dims) - 1} layers")
    if any(not (0 < a_i < 1) for a_i in alpha_scales):
        raise PreconditionViolated("alpha scales must lie in (0, 1)")

    weights, biases = _minimum_layers(fit, dims, tp.s_plus, eta)
    pre1 = weights[0] @ data.X + biases[0][:, None]
    m_scale = _radius_scale(pre1, tp.sigma, m_scale, "m_scale", m_factor)
    prod = 1.0
    for i, a_i in enumerate(alpha_scales, start=1):
        prod *= a_i
        weights[i] = a_i * weights[i]
    net = _net(dims, act, reflected, *_squeeze(
        weights, biases, tp.t, float(build_act(tp.t)), m_scale, m_scale / prod
    ))
    params = ConstructionParams(
        eta=eta, m_scale=m_scale, alpha_scales=tuple(alpha_scales), turning=tp
    )
    return _certify_minimum(net, fit, data, "3", params, (tp.t, tp.t + tp.sigma), reflected)


def build_general_minimum(
    fit: LinearFit,
    data: Dataset,
    dims: tuple[int, ...],
    act: PiecewiseLinear,
    eta: Optional[float] = None,
    m_scale: Optional[float] = None,
    alpha_scales: Optional[tuple[float, ...]] = None,
) -> CertifiedPoint:
    """Minimum for any admissible piecewise-linear activation: squeeze every
    pre-activation into the linear piece right of the turning point t by
    scaling down with M (and per-layer alphas), translate by t, and undo both
    at the output.  M and the alphas range over continuous intervals, so the
    family is infinite."""
    _check_dims(fit, data, dims)
    _require_hidden_wider(dims, data.d_y)
    frame = _turning_frame(act)
    return _general_minimum(fit, data, dims, act, frame, eta, m_scale, alpha_scales)


def build_general_descent(
    fit: LinearFit,
    data: Dataset,
    dims: tuple[int, ...],
    act: PiecewiseLinear,
    m_scale: Optional[float] = None,
) -> CertifiedPoint:
    """Witness for the general route: the deep witness, squeezed into the
    turning point's linear pieces with scales M (layer 1, both sides of t)
    and M-tilde (layer 2 onward, right of t), then unsqueezed at the output.
    The output equals the deep witness output exactly."""
    _check_dims(fit, data, dims)
    _require_hidden_wider(dims, data.d_y)
    build_act, reflected, tp = _turning_frame(act)
    local = two_piece(tp.s_minus, tp.s_plus)
    weights, biases, params, shallow_out, _ = _witness_layers(fit, data, dims, local)
    deep_trace = forward(Mlp(dims, tuple(weights), tuple(biases), local), data.X)
    _check_deep_witness(deep_trace.output, shallow_out)

    m_scale = _radius_scale(deep_trace.pre[0], tp.sigma, m_scale, "m_scale")
    if len(dims) > 3:
        m_tilde = _radius_scale(deep_trace.pre[1] / m_scale, tp.sigma, None, "m_tilde")
        weights[1] = weights[1] / m_tilde
    else:
        m_tilde = 1.0
    net = _net(dims, act, reflected, *_squeeze(
        weights, biases, tp.t, float(build_act(tp.t)), m_scale, m_scale * m_tilde
    ))
    risk = risk_of_outputs(forward(net, data.X).output, data.Y, fit.loss)
    if not risk < fit.risk - 1e-12:
        raise StrictDecreaseNotAchieved("squeezed witness lost its strict decrease")
    return _witness(net, "3", risk, fit, replace(params, m_scale=m_scale, m_tilde=m_tilde, turning=tp))


# ---------------------------------------------------------------------------
# balanced route (two-piece with s- + s+ = 0)


def build_balanced_descent(
    fit: LinearFit,
    data: Dataset,
    dims: tuple[int, ...],
    act: PiecewiseLinear,
    gamma: Optional[float] = None,
) -> CertifiedPoint:
    """Witness for balanced two-piece slopes (s- = -s+): an extra middle row
    carrying the untilted baseline makes the tilt terms cancel in the output,
    leaving predictions shifted by exactly -gamma on I and +gamma on J."""
    _check_dims(fit, data, dims)
    if len(dims) != 3:
        raise PreconditionViolated("balanced route is a one-hidden-layer construction")
    d_x, d_1, d_y = dims
    if d_1 < d_y + 2:
        raise WidthViolation(f"balanced route needs hidden width >= {d_y + 2}, got {d_1}")
    s_minus, sp = _two_piece_or_raise(act)
    if s_minus + sp != 0.0:
        raise PreconditionViolated("balanced route requires s_minus + s_plus = 0")
    # a nonlinear balanced activation has s_plus != 0: no reflection needed
    _require_invertible("right slope s_plus", sp)

    fitp, inv, res = _split(fit, data)
    u, v = fitp.v[0], fitp.y_tilde[0]
    eta = default_eta(fitp)
    eta_rest = _default_eta_rest(fitp)

    def assemble(consts: DescentConstants) -> Mlp:
        a, g, e1 = consts.alpha, consts.gamma, consts.eta1
        w_row, w_off = fitp.w_tilde[0, :d_x], fitp.w_tilde[0, d_x]
        tilted = w_row - a * res.beta
        pad = d_1 - (d_y + 2)
        W1 = np.vstack([tilted, w_row, -tilted, fitp.w_tilde[1:, :d_x], np.zeros((pad, d_x))])
        b1 = np.concatenate([
            [w_off - e1 + g, w_off - eta, -w_off + e1 + g],
            fitp.w_tilde[1:, d_x] - eta_rest,
            np.zeros(pad),
        ])
        W2 = np.zeros((d_y, d_1))
        W2[0, :3] = 1.0 / (2.0 * sp), 1.0 / sp, -1.0 / (2.0 * sp)
        W2[range(1, d_y), range(3, d_y + 2)] = 1.0 / sp
        b2 = np.concatenate([[eta], eta_rest])
        return Mlp(dims, (W1, W2[inv]), (b1, b2[inv]), act)

    if gamma is not None:
        # explicit gamma override (e.g. the gamma = 0 boundary control)
        base = size_constants(res, u, v, xs=data.X, slope_ratio=None)
        consts = DescentConstants(
            alpha=base.alpha, gamma=gamma, eta1=base.eta1,
            midgap=base.midgap, margin=abs(base.midgap) - abs(gamma),
        )
        net = assemble(consts)
        risk = risk_of_outputs(forward(net, data.X).output, data.Y, fit.loss)
    else:
        net, consts, _, risk = _verified_descent(assemble, res, u, v, data.X, None, fit, data)
    params = ConstructionParams(
        eta=eta, eta_rest=tuple(eta_rest),
        alpha=consts.alpha, gamma=consts.gamma, eta1=consts.eta1,
    )
    return _witness(net, "corollary", risk, fit, params, bool(risk < fit.risk - 1e-12))


# ---------------------------------------------------------------------------
# routing and family enumeration


def build_minimum(
    fit: LinearFit,
    data: Dataset,
    dims: tuple[int, ...],
    act: PiecewiseLinear,
    stage: str = "auto",
    **overrides,
) -> CertifiedPoint:
    """Route to a minimum construction by stage name ("1", "2", "3", or
    "corollary"/"auto"); the balanced case uses the shallow/deep minimum,
    which only needs a nonzero right slope."""
    if stage == "auto" and not act.is_two_piece:
        stage = "3"
    elif stage in ("auto", "corollary"):
        stage = "1" if len(dims) == 3 else "2"
    if stage == "1":
        return build_shallow_minimum(fit, data, dims, act, **overrides)
    if stage == "2":
        return build_deep_minimum(fit, data, dims, act, **overrides)
    if stage == "3":
        return build_general_minimum(fit, data, dims, act, **overrides)
    raise PreconditionViolated(f"unknown stage {stage!r}")


def build_descent(
    fit: LinearFit,
    data: Dataset,
    dims: tuple[int, ...],
    act: PiecewiseLinear,
    stage: str = "auto",
    **overrides,
) -> CertifiedPoint:
    """Route to a descent-witness construction by stage name."""
    if stage == "auto":
        if act.is_two_piece and act.s_minus + act.s_plus == 0.0:
            stage = "corollary"
        elif act.is_two_piece:
            stage = "1" if len(dims) == 3 else "2"
        else:
            stage = "3"
    if stage == "1":
        return build_shallow_descent(fit, data, dims, act, **overrides)
    if stage == "2":
        return build_deep_descent(fit, data, dims, act, **overrides)
    if stage == "3":
        return build_general_descent(fit, data, dims, act, **overrides)
    if stage == "corollary":
        return build_balanced_descent(fit, data, dims, act, **overrides)
    raise PreconditionViolated(f"unknown stage {stage!r}")


def enumerate_family(
    fit: LinearFit,
    data: Dataset,
    dims: tuple[int, ...],
    act: PiecewiseLinear,
    k: int,
    seed: int = 0,
) -> list[CertifiedPoint]:
    """Sample k members of the infinite minimum family by drawing eta, the
    squeeze scale M, and the per-layer alphas from their admissible
    continuous ranges.  Per-member seeded streams make the family bitwise
    reproducible; the seed must be a nonnegative integer."""
    if k < 1:
        raise PreconditionViolated("k must be >= 1")
    seed = check_integer("seed", seed, minimum=0)
    _check_dims(fit, data, dims)
    _require_hidden_wider(dims, data.d_y)
    frame = _turning_frame(act)
    members = [_general_minimum(fit, data, dims, act, frame)]
    for idx in range(1, k):
        rng = np.random.default_rng([seed, idx])
        eta = default_eta(fit) - 2.0 * rng.random()
        alphas = tuple(0.1 + 0.8 * rng.random() for _ in range(max(0, len(dims) - 3)))
        members.append(_general_minimum(
            fit, data, dims, act, frame, eta=eta, alpha_scales=alphas, m_factor=1.0 + rng.random()
        ))
    return members
