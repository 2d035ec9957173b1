"""Explicit spurious-local-minimum networks and their descent witnesses.

Four routes, all seeded by the affine baseline fit, named by their stage:

  "1"         - one hidden layer, two-piece activation
  "2"         - any depth, two-piece activation
  "3"         - any depth, any nonlinear piecewise-linear activation with an
                admissible turning point (unbalanced adjacent slopes)
  "corollary" - any depth, two-piece with s- + s+ = 0 (e.g. |x|), needs one
                extra unit in the first hidden layer

There are three entry points.  `build_minimum` and `build_descent` build
the one default point of their kind on the route a stage name selects, and
`enumerate_family` samples route 3's infinite family of minima over the
shift eta, the squeeze scale M and the per-layer alphas.  The two routers
share one preamble (`_routed`): the stage rule (`_stage`, which resolves
"auto"), the dimensions against the data (`network._check_fits`), one
hidden layer on route "1", and the width rule
(`network._balanced_widths_ok` on "corollary", `network._widths_ok`
elsewhere).  Then each runs its route's builder from one table per point
kind:

  stage        `_MINIMA`                `_WITNESSES`
  "1"          _two_piece_minimum       _two_piece_descent
  "2"          _two_piece_minimum       _two_piece_descent
  "3"          _general_family_head     _general_descent
  "corollary"  (resolves to "1" or "2") _balanced_descent

Routes "1" and "2" differ only in the depth precondition: a two-piece point
is labelled "1" with one hidden layer and "2" otherwise, whichever of the
two was asked for.

All four share one skeleton.  One two-piece scaffold gives the minimum
(`_minimum_layers`) and the witness (`_witness_layers`) at any depth, and
one depth chain (`_positive_chain`) carries both past their first layer: a
payload layer shifted onto the positive piece, pass-through layers that
copy the payload and replicate the first pad unit, so no pad unit sits on
the breakpoint, and an output layer [I/s+ | 0] that takes the shift back.
The minimum is the baseline through the chain with the shift -eta; the
witness is its one-hidden-layer output through it with the shift lambda,
after its first layer (`_lift_depth`).  One row assembler
(`_shallow_descent_params`) gives every witness its first layer; balanced
slopes add one untilted row to its head.  The general route runs that
scaffold through one squeeze (`_squeeze`) into the linear pieces beside a
turning point t.  Every scaffold is built in a frame whose right slope is
nonzero, and one reflection step (`_frame`, `_net`) maps it back to the
activation that was asked for.

Each minimum reproduces the baseline predictions exactly, so its risk equals
the baseline risk; each witness is an explicit parameter point with strictly
smaller risk, certifying that the minima are spurious.

Every minimum is certified from the forward trace of its network
(`_certify_minimum`).  Route 3 builds a family's members along one member
axis from a list of (eta, alphas, M factor) draws (`_draws`, `_family`;
its minimum is the family of one, at the defaults): the scaffold and
[X; 1] once, each member's M from its own first-layer pre-activations, and
the alphas and the squeeze as array arithmetic over all members at once.
`_certified` then forwards the members in stacked chunks straight from
those arrays, and certifies each chunk with one reduction per check over
its member axis.  Members and certificates are bit-identical to building,
forwarding and certifying one member at a time.  One decision (`_decided`)
takes the checks in order: output identity (`_reproduces`: to OUTPUT_TOL
times the largest of 1, the largest baseline output and, on the general
route, its output scale M / prod(alpha_i)), risk match
(`verification._risk_match`: to RISK_MATCH_TOL times max(1, baseline
risk)), and the margin of its hidden pre-activations to the route's interval
(`verification._interval_margin`), mirrored to (-hi, -lo) for a reflected
build.  The point keeps that interval certificate as `interval`.

Every witness takes its alpha from the one alpha search,
`separation.admissible_constants` (`_verified_descent`): the first admissible
constants whose one-hidden-layer network strictly undercuts the baseline,
within one budget of MAX_HALVINGS halvings.  One decision (`_witness`)
then reads the network each route returns, lifted or squeezed: a witness
that does not strictly undercut the baseline raises
StrictDecreaseNotAchieved.  "Strictly undercuts" is the gap certificate's
one rule, `verification._descends`, in the search and in that decision.

Every witness is built through one `_Witnesses`, which makes the sample
split (`_split`) once and runs one shallow search per activation and
one-hidden-layer dims, and lives only for the call that made it.
`build_descent` is its one-witness case, on a fresh one; `cli.run_demo`
builds its four witnesses on one, so its split is made once and its stage-2
witness lifts its stage-1 search.  Each witness is bit-identical to its
standalone `build_descent`.

Every entry point runs with numpy's overflow and invalid-operation errors
raised (`_float_checked`): a slope or piece width so small, or large, that a
scale leaves the float64 range fails as PreconditionViolated before any
infinite or NaN parameter is built or scored.  Route 3 forms its output
bias's back-off out_scale * h(t) in Python floats, where an overflow is
infinite rather than an error, so a non-finite back-off or output bias
raises the same PreconditionViolated (`_OUTPUT_BIAS_OVERFLOWS`).
"""

from __future__ import annotations

import functools
import math
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
from .linear_fit import LinearFit, _leaves_residual, permute_fit_rows, select_nonzero_residual_row
from .network import (Dataset, ForwardTrace, Mlp, _affine, _balanced_widths_ok, _check_fits,
                      _layer_outputs, _widths_ok, forward, risk_of_outputs)
from .separation import (
    MAX_HALVINGS,
    DescentConstants,
    SeparationResult,
    admissible_constants,
    separate,
)
from .verification import (Certificate, _descends, _interval_certificate, _interval_margin,
                           _risk_match, _stack_size)

OUTPUT_TOL = 1e-12

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
        d = asdict(self)
        if self.turning is None:
            del d["turning"]
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
    """Max-norm distance between two parameter vectors of equal architecture;
    a NaN parameter makes it NaN."""
    if a.dims != b.dims:
        raise PreconditionViolated("architectures differ")
    return float(np.max([np.abs(p - q).max() for p, q in zip(a.weights + a.biases,
                                                              b.weights + b.biases)]))


def min_pairwise_distance(points: list[CertifiedPoint]) -> float:
    """The smallest `params_distance` between two of at least two points, of
    one architecture; a NaN parameter makes it NaN.  The parameters are
    stacked into one row per point, and each row is compared with the rows
    after it in one array operation, so memory grows with the number of
    points, not its square."""
    if len(points) < 2:
        raise PreconditionViolated("need at least two points")
    if len({p.net.dims for p in points}) > 1:
        raise PreconditionViolated("architectures differ")
    rows = np.concatenate([np.stack(ps).reshape(len(points), -1) for ps in zip(
        *(p.net.weights + p.net.biases for p in points))], axis=1)
    return float(np.min([np.abs(row - rows[i + 1:]).max(axis=1).min()
                         for i, row in enumerate(rows[:-1])]))


# ---------------------------------------------------------------------------
# shared plumbing


_FLOAT_RANGE = "a construction scale leaves the float64 range"
_OUTPUT_BIAS_OVERFLOWS = f"{_FLOAT_RANGE} (the output bias overflows)"


def _float_checked(build):
    """build, with numpy overflow and invalid operations raised and turned
    into PreconditionViolated."""

    @functools.wraps(build)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return build(*args, **kwargs)
        except FloatingPointError as exc:
            raise PreconditionViolated(
                f"{_FLOAT_RANGE} ({exc})"
            ) from None

    return checked


def _check_dims(fit: LinearFit, data: Dataset, dims: tuple[int, ...]) -> None:
    _check_fits(dims, data)
    if fit.w_tilde.shape != (data.d_y, data.d_x + 1):
        raise PreconditionViolated("fit and data disagree on dimensions")


def _require_hidden_wider(dims: tuple[int, ...], d_y: int) -> None:
    if not _widths_ok(dims, d_y):
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


def _unframed(weights: list[np.ndarray], biases: list[np.ndarray], reflected: bool) -> Layers:
    """Parameters built in act's frame, for act.  A reflected frame flips the
    sign of every layer but the last; composed with the reflected activation
    that leaves the network function unchanged.  Any leading member axis is
    kept."""
    if reflected:
        return [-W for W in weights[:-1]] + weights[-1:], [-b for b in biases[:-1]] + biases[-1:]
    return weights, biases


def _net(dims: tuple[int, ...], act: PiecewiseLinear, reflected: bool,
         weights: list[np.ndarray], biases: list[np.ndarray]) -> Mlp:
    """The network for act from parameters built in its frame (`_unframed`).
    Its output bias must be finite: route 3 backs it off by out_scale * h(t),
    formed in Python floats, where an overflow is infinite, not an error."""
    if not np.isfinite(biases[-1]).all():
        raise PreconditionViolated(_OUTPUT_BIAS_OVERFLOWS)
    return Mlp(dims, *map(tuple, _unframed(weights, biases, reflected)), act)


def _require_invertible(name: str, s: float) -> None:
    """The scaffold formulas divide by s, a nonzero slope or a sum or double
    of slopes; a subnormal s would give infinite weights, and an s that
    overflowed to infinity zero weights."""
    if not (np.isfinite(s) and np.isfinite(1.0 / s)):
        raise PreconditionViolated(f"{name} = {s!r} has no finite reciprocal")


def _turning_frame(act: PiecewiseLinear) -> tuple[PiecewiseLinear, bool, TurningPoint]:
    """The general route's frame and the turning point it squeezes into."""
    _require_nonlinear(act)
    tp = find_turning_point(act)
    build_act, reflected = _frame(act, tp.s_plus)
    return build_act, reflected, find_turning_point(build_act) if reflected else tp


def _reproduces(deviation: float, target_max: float, output_scale: float = 1.0) -> bool:
    """Whether an output whose largest deviation |output - target| from its
    target is deviation matches it to OUTPUT_TOL * max(1, output_scale,
    target_max), with target_max = max |target|: the one output identity.
    The rounding of a constructed network grows with the values it carries
    (the labels' scale) and, on a squeezed network, with the output scale
    M / prod(alpha_i) that multiplies its last hidden layer; a NaN fails."""
    return bool(deviation <= OUTPUT_TOL * max(1.0, output_scale, target_max))


@dataclass(frozen=True)
class _Draft:
    """A built minimum before its certificate: the network, its stage and
    params, the route's interval in the build frame, whether the network was
    built reflected, and its output scale (see `_reproduces`)."""

    net: Mlp
    stage: str
    params: ConstructionParams
    interval: tuple[float, float]
    reflected: bool
    output_scale: float = 1.0


def _decided(draft: _Draft, fit: LinearFit, spurious: bool, deviation: float,
             target_max: float, risk, margin) -> CertifiedPoint:
    """The one certificate decision of a minimum, in this order: output
    identity (`_reproduces` of its largest output deviation), risk match
    (`verification._risk_match`), and an interval margin > 0; the first check
    that fails raises ConstructionError.  risk and margin are callables, read
    only once the checks before them pass."""
    if not _reproduces(deviation, target_max, draft.output_scale):
        raise ConstructionError("minimum output does not reproduce the baseline")
    risk = risk()
    if not _risk_match(risk, fit.risk).passed:
        raise ConstructionError("minimum risk deviates from the baseline risk")
    cert = _interval_certificate(margin())
    if not cert.verdict:
        raise ConstructionError("hidden pre-activation left its interval")
    return CertifiedPoint(
        net=draft.net,
        kind="minimum",
        stage=draft.stage,
        risk=risk,
        baseline_risk=fit.risk,
        params=draft.params,
        spurious=spurious,
        interval=cert,
    )


def _bounds(draft: _Draft) -> tuple[float, float]:
    """The route's interval in the network's own frame: given in the build
    frame, it is mirrored to (-hi, -lo) for a reflected build, whose
    pre-activations are negated."""
    lo, hi = draft.interval
    return (-hi, -lo) if draft.reflected else (lo, hi)


def _certify_minimum(draft: _Draft, trace: ForwardTrace, fit: LinearFit, data: Dataset,
                     spurious: bool) -> CertifiedPoint:
    """Postconditions shared by every minimum, checked on the forward trace
    of its network on data.X that the caller gives: output identity, risk
    match, and hidden pre-activations strictly inside the route's interval
    (`_bounds`), decided by `_decided`.  A NaN anywhere fails every check.
    spurious is `_leaves_residual(fit)`, the same for every minimum of one
    fit."""
    return _decided(draft, fit, spurious, np.abs(trace.output - fit.y_tilde).max(),
                    float(np.abs(fit.y_tilde).max()),
                    lambda: risk_of_outputs(trace.output, data.Y, fit.loss),
                    lambda: _interval_margin(trace.hidden_pre, *_bounds(draft)))


def _certified(drafts: list[_Draft], layers: Layers, fit: LinearFit,
               data: Dataset) -> list[CertifiedPoint]:
    """Every draft of one family (one shape, activation and interval)
    certified in order; layers holds their weights and biases along one
    member axis, and the first failing certificate raises.

    Chunks of `verification._stack_size` members are forwarded straight
    from those arrays, and each chunk takes one reduction per check over its
    member axis: the largest output deviation, the risks (one
    `risk_of_outputs` of the stacked output) and the interval margins
    (`verification._interval_margin`).  `_decided` then walks the chunk's
    members in order on those values.  A chunk of one member, or one whose
    stacked pass or reductions raise FloatingPointError, is forwarded and
    certified one member at a time (`_certify_minimum`), so a float error
    surfaces at the member that causes it, and only when no member before it
    fails.  Every certificate is bit-identical to its member's own
    `_certify_minimum`."""
    if not drafts:
        return []
    spurious, X, Y = _leaves_residual(fit), data.X, fit.y_tilde
    target_max, (lo, hi) = float(np.abs(Y).max()), _bounds(drafts[0])
    size = _stack_size(drafts[0].net.dims, X.shape[1]) if len(drafts) > 1 else 1
    points = []
    for start in range(0, len(drafts), size):
        chunk, values = drafts[start:start + size], None
        if len(chunk) > 1:
            try:
                pre, post = _layer_outputs(*([p[start:start + size] for p in ps] for ps in layers),
                                           chunk[0].net.activation, data.X1)
                values = zip(np.abs(post[-1] - Y).max(axis=(-2, -1)).tolist(),
                             risk_of_outputs(post[-1], data.Y, fit.loss).tolist(),
                             _interval_margin(pre[:-1], lo, hi).tolist())
            except FloatingPointError:
                pass
        if values is None:
            points += [_certify_minimum(draft, forward(draft.net, X), fit, data, spurious)
                       for draft in chunk]
        else:
            points += [_decided(draft, fit, spurious, deviation, target_max,
                                lambda: risk, lambda: margin)
                       for draft, (deviation, risk, margin) in zip(chunk, values)]
    return points


def _witness(net: Mlp, stage: str, risk: float, fit: LinearFit,
             params: ConstructionParams) -> CertifiedPoint:
    """The one descent decision of a witness, on the risk of the network its
    route returns (`verification._descends`): a witness that does not
    strictly undercut the baseline raises StrictDecreaseNotAchieved, so
    every witness returned is spurious."""
    if not _descends(fit.risk, risk):
        raise StrictDecreaseNotAchieved("the witness does not strictly undercut the baseline risk")
    return CertifiedPoint(
        net=net, kind="descent_witness", stage=stage, risk=risk,
        baseline_risk=fit.risk, params=params, spurious=True,
    )


def default_eta(fit: LinearFit) -> float:
    """Negative shift with baseline predictions minus eta strictly positive,
    by a margin of max(1, max |baseline|): the shifted pre-activations stay
    as far from the breakpoint as the labels are large, so perturbations
    relative to the weights stay inside the cell at any label scale."""
    y = fit.y_tilde
    return min(0.0, float(y.min())) - max(1.0, float(np.abs(y).max()))


def _split(fit: LinearFit, data: Dataset) -> tuple[LinearFit, np.ndarray, SeparationResult]:
    """The fit with a nonzero-residual row first, the permutation that undoes
    that reorder, and the sample split of that row behind every witness."""
    _, perm = select_nonzero_residual_row(fit, data)
    fitp, _ = permute_fit_rows(fit, data, perm)
    return fitp, np.argsort(perm), separate(fitp.v[0], fitp.y_tilde[0], data.X)


class _Witnesses:
    """The sample split and the shallow alpha searches behind the witnesses
    of one call, each made on first use and held only by this object, which
    lives as long as the call that made it: `build_descent` makes one for
    its one witness, and `cli.run_demo` one for its four.

    The split (`_split`) depends only on the fit and the data.  A shallow
    search (`_verified_descent` of a one-hidden-layer witness) depends on
    them and on its activation and its one-hidden-layer dims, which key
    it; so a witness at any depth lifts the one search of its
    first layer (`_lift_depth`), and two routes with the same shallow
    witness run one search between them."""

    def __init__(self, fit: LinearFit, data: Dataset):
        self.fit, self.data = fit, data
        self._searches: dict = {}

    @functools.cached_property
    def split(self) -> tuple[LinearFit, np.ndarray, SeparationResult]:
        return _split(self.fit, self.data)

    def search(self, key: tuple, run):
        """The shallow search that key names, run on first use."""
        if key not in self._searches:
            self._searches[key] = run()
        return self._searches[key]

    @_float_checked
    def descent(self, dims: tuple[int, ...], act: PiecewiseLinear,
                stage: str = "auto") -> CertifiedPoint:
        """`build_descent` on this call's split and searches."""
        return _routed(self, self.fit, self.data, dims, act, stage)


def _default_eta_rest(fit: LinearFit) -> np.ndarray:
    """Per-row shifts keeping rows 2..d_Y of the baseline strictly positive
    after subtraction."""
    return np.min(fit.y_tilde[1:], axis=1) - 1.0 if fit.y_tilde.shape[0] > 1 else np.zeros(0)


def _verified_descent(assemble, res: SeparationResult, u: np.ndarray, v: np.ndarray,
                      slope_ratio: Optional[float], fit: LinearFit, data: Dataset
                      ) -> tuple[DescentConstants, Mlp, ForwardTrace, float]:
    """The first admissible constants (largest alpha first) whose network
    strictly undercuts the baseline risk, with that network, its forward
    trace and its risk; "sufficiently small" is operationalized as this
    verified search, which shares the one alpha search and its halving
    budget with the sizing."""
    for consts in admissible_constants(res, u, v, data.X, slope_ratio):
        net = assemble(consts)
        trace = forward(net, data.X)
        risk = risk_of_outputs(trace.output, data.Y, fit.loss)
        if _descends(fit.risk, risk):
            return consts, net, trace, risk
    raise StrictDecreaseNotAchieved(f"no strict risk decrease after {MAX_HALVINGS} halvings")


# ---------------------------------------------------------------------------
# the two-piece scaffold: minimum and witness at any depth, in the build frame


def _pass_through(d_out: int, d_in: int, d_y: int, s_plus: float) -> np.ndarray:
    """(1/s+) * (sum_j E_jj + sum_{j>d_Y} E_{j,d_Y+1}): copies the payload
    rows, and the padding rows replicate column d_Y+1, the first pad unit,
    so every unit stays strictly positive."""
    W = np.zeros((d_out, d_in))
    W[range(d_y), range(d_y)] = 1.0 / s_plus
    W[d_y:, d_y] = 1.0 / s_plus
    return W


def _positive_chain(W: np.ndarray, b: np.ndarray, shift, widths: tuple[int, ...],
                    s_plus: float) -> Layers:
    """The one depth chain of minima and witnesses: a payload W @ x + b of
    d_Y rows carried on the positive piece through hidden layers of the
    given widths.  The first layer is (W, b + shift), padded with zero rows
    whose units sit at the shift, which keeps every unit strictly positive;
    pass-through layers copy the payload and replicate the first pad unit
    (`_pass_through`); the output layer [I/s+ | 0] undoes the slope, and
    its bias -shift the shift.  A column of shifts, one per member, gives
    every bias a leading member axis."""
    _require_invertible("right slope s_plus of the build frame", s_plus)
    d_y, pad = W.shape[0], widths[0] - W.shape[0]
    weights = [np.vstack([W, np.zeros((pad, W.shape[1]))])]
    biases = [np.concatenate([b, np.zeros(pad)]) + shift]
    for d_out, d_in in zip(widths[1:], widths):
        weights.append(_pass_through(d_out, d_in, d_y, s_plus))
        biases.append(np.zeros((*np.shape(shift)[:-1], d_out)))
    weights.append(np.concatenate([np.eye(d_y) / s_plus, np.zeros((d_y, widths[-1] - d_y))], axis=1))
    biases.append(-shift * np.ones(d_y))
    return weights, biases


def _minimum_layers(fit: LinearFit, dims: tuple[int, ...], s_plus: float, eta) -> Layers:
    """The baseline through the positive chain (`_positive_chain`) with the
    shift -eta, eta negative: the network computes exactly the baseline.
    The weights do not depend on eta; a column of shifts, one per member,
    gives every bias a leading member axis."""
    d_x = dims[0]
    return _positive_chain(fit.w_tilde[:, :d_x], fit.w_tilde[:, d_x], -eta, dims[1:-1], s_plus)


def _shallow_descent_params(
    fitp: LinearFit,
    dims: tuple[int, ...],
    s_minus: float,
    s_plus: float,
    beta: np.ndarray,
    consts: DescentConstants,
    eta_rest: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the one-hidden-layer witness layers for a permuted fit
    (nonzero row first).

    Rows of the hidden layer: the head, the remaining baseline rows shifted
    by eta_rest to stay positive, then zero padding.  The head is the
    baseline's first row tilted by -alpha*beta and its negation (these two
    change sign exactly across the split).  For balanced slopes
    (s_minus + s_plus == 0, exactly) the untilted row, shifted by the
    default eta to stay positive, sits between them: the tilt terms cancel
    in the output, leaving predictions shifted by exactly -gamma on I and
    +gamma on J.
    """
    d_x, d_1, d_y = dims
    w_row, w_off = fitp.w_tilde[0, :d_x], fitp.w_tilde[0, d_x]
    a, g, e1 = consts.alpha, consts.gamma, consts.eta1
    tilted = w_row - a * beta
    if s_minus + s_plus == 0.0:
        eta = default_eta(fitp)
        head, head_b = [tilted, w_row, -tilted], [w_off - e1 + g, w_off - eta, -w_off + e1 + g]
        head_out, out_shift = [1.0 / (2.0 * s_plus), 1.0 / s_plus, -1.0 / (2.0 * s_plus)], eta
    else:
        head, head_b = [tilted, -tilted], [w_off - e1 + g, -w_off + e1 + g]
        head_out, out_shift = [1.0 / (s_plus + s_minus), -1.0 / (s_plus + s_minus)], e1
    heads = len(head)
    pad = d_1 - (d_y - 1 + heads)
    W1 = np.vstack([*head, fitp.w_tilde[1:, :d_x], np.zeros((pad, d_x))])
    b1 = np.concatenate([head_b, fitp.w_tilde[1:, d_x] - eta_rest, np.zeros(pad)])
    W2 = np.zeros((d_y, d_1))
    W2[0, :heads] = head_out
    W2[range(1, d_y), range(heads, d_y - 1 + heads)] = 1.0 / s_plus
    b2 = np.concatenate([[out_shift], eta_rest])
    return W1, b1, W2, b2


def default_lambda(stage1_output: np.ndarray) -> float:
    return max(0.0, -float(np.min(stage1_output))) + 1.0


def _lift_depth(layers: Layers, shallow_out: np.ndarray, dims: tuple[int, ...],
                s_plus: float) -> tuple[Layers, float]:
    """A one-hidden-layer witness at the depth of dims, which has two or more
    hidden layers: its first layer, then its output as the payload of the
    positive chain (`_positive_chain`) with the positive shift
    `default_lambda`, so every later unit rides the positive piece.  Returns
    the layers and lambda."""
    lam = default_lambda(shallow_out)
    if not np.all(shallow_out + lam > 0):
        raise PreconditionViolated("lambda must make the witness output strictly positive")
    (W1, W2), (b1, b2) = layers
    weights, biases = _positive_chain(W2, b2, lam, dims[2:-1], s_plus)
    return ([W1, *weights], [b1, *biases]), lam


def _witness_layers(w: _Witnesses, dims: tuple[int, ...], act: PiecewiseLinear
                    ) -> tuple[Mlp, ConstructionParams, ForwardTrace, float]:
    """The two-piece witness at any depth, for every two-piece route.

    Layer 1 tilts the nonzero-gradient baseline row along the separating
    direction and nudges it by gamma; the sign split makes the first-order
    risk change strictly negative while rows 2.. reproduce the baseline.
    One assembler, `_shallow_descent_params`, gives the rows; balanced
    slopes (s- + s+ == 0, exactly) add an untilted row to its head.  The
    alpha search picks the constants, on the call's split and once per
    shallow witness (w), and `_lift_depth` takes the one-hidden-layer
    witness to the depth of dims.  Returns the network for act, its params, its
    forward trace and its risk; the network's layers are in the build frame
    when act needs no reflection.
    """
    build_act, reflected = _frame(act, act.s_plus)
    s_minus, s_plus = build_act.s_minus, build_act.s_plus
    balanced = s_minus + s_plus == 0.0
    _require_invertible("right slope s_plus of the build frame", s_plus)
    if balanced:
        # the balanced rows divide by 2 * s_plus
        _require_invertible(f"2 * s_plus (right slope s_plus = {s_plus!r})", 2.0 * s_plus)
    else:
        _require_invertible("slope sum s_minus + s_plus", s_minus + s_plus)
    fit, data = w.fit, w.data
    fitp, inv, res = w.split
    eta_rest = _default_eta_rest(fitp)
    shallow = (dims[0], dims[1], dims[-1])

    def layers(consts: DescentConstants) -> Layers:
        W1, b1, W2, b2 = _shallow_descent_params(fitp, shallow, s_minus, s_plus, res.beta, consts,
                                                 eta_rest)
        return [W1, W2[inv]], [b1, b2[inv]]

    # gamma's sign is governed by the activation frame the formulas run in;
    # balanced slopes have no slope ratio
    slope_ratio = None if balanced else (s_plus - s_minus) / (s_plus + s_minus)
    consts, net, trace, risk = w.search((act, shallow), lambda: _verified_descent(
        lambda c: _net(shallow, act, reflected, *layers(c)),
        res, fitp.v[0], fitp.y_tilde[0], slope_ratio, fit, data,
    ))
    lam = None
    if len(dims) > 3:
        s_out = trace.output
        lifted, lam = _lift_depth(layers(consts), s_out, dims, s_plus)
        net = _net(dims, act, reflected, *lifted)
        trace = forward(net, data.X)
        if not _reproduces(np.abs(trace.output - s_out).max(), float(np.abs(s_out).max())):
            raise ConstructionError("deep witness output deviates from the shallow witness")
        risk = risk_of_outputs(trace.output, data.Y, fit.loss)
    params = ConstructionParams(
        eta=default_eta(fitp) if balanced else None, eta_rest=tuple(eta_rest),
        alpha=consts.alpha, gamma=consts.gamma, eta1=consts.eta1, lambda_shift=lam,
    )
    return net, params, trace, risk


# ---------------------------------------------------------------------------
# the route builders, each run after the routers' preamble (`_routed`) has
# checked the dimensions, the depth and the widths


def _depth_stage(dims: tuple[int, ...]) -> str:
    """The two-piece route's label: "1" with one hidden layer, else "2"."""
    return "1" if len(dims) == 3 else "2"


def _two_piece_minimum(fit: LinearFit, data: Dataset, dims: tuple[int, ...],
                       act: PiecewiseLinear) -> CertifiedPoint:
    """Routes 1 and 2: the first layer carries the baseline shifted by the
    negative `default_eta` so every unit stays on the positive piece, middle
    layers forward the payload (and replicate the positive pad unit), and
    the output layer undoes the shift; the network computes exactly the
    baseline."""
    _, s_plus = _two_piece_or_raise(act)
    eta = default_eta(fit)
    build_act, reflected = _frame(act, s_plus)
    net = _net(dims, act, reflected, *_minimum_layers(fit, dims, build_act.s_plus, eta))
    draft = _Draft(net, _depth_stage(dims), ConstructionParams(eta=eta), (0.0, np.inf), reflected)
    return _certify_minimum(draft, forward(net, data.X), fit, data, _leaves_residual(fit))


def _two_piece_descent(w: _Witnesses, dims: tuple[int, ...], act: PiecewiseLinear
                       ) -> CertifiedPoint:
    """Routes 1 and 2: the two-piece witness (`_witness_layers`), lifted to
    the depth of dims by lambda; with one hidden layer it is labelled "1"."""
    s_minus, s_plus = _two_piece_or_raise(act)
    if s_minus + s_plus == 0.0:
        raise NoAdmissibleTurningPoint(
            "slopes cancel (s_minus + s_plus = 0); use the balanced-slope route"
        )
    net, params, _, risk = _witness_layers(w, dims, act)
    return _witness(net, _depth_stage(dims), risk, w.fit, params)


def _radius_scale(pre: np.ndarray, sigma: float, factor: float = 1.0) -> float:
    """A squeeze scale that keeps ||pre||_F / scale inside the linearity
    radius sigma: factor (at least 1) times twice the lower bound
    ||pre||_F / sigma, floored at 1, so ||pre||_F / scale <= sigma / 2."""
    return max(1.0, 2.0 * float(np.linalg.norm(pre)) / sigma) * factor


def _squeeze(weights: list[np.ndarray], biases: list[np.ndarray], t: float, h_t: float,
             m_scale, out_scale, out_h) -> Layers:
    """Move a build-frame scaffold into the linear piece right of the turning
    point t.  Layer 1 is divided by M and translated to t; each hidden layer,
    whose weights the caller has already scaled, is translated to t with the
    h(t) back-off and takes its scaffold bias divided by out_scale; the
    output layer scales back up by out_scale, the total scale-down of the
    last hidden layer, and backs off out_h = out_scale * h(t).  The scales
    are floats, or arrays with one entry per member that broadcast over the
    parameters' leading member axis; the caller forms them in floats, where
    a product that overflows is infinite rather than an error, so a
    non-finite out_h is refused (`_OUTPUT_BIAS_OVERFLOWS`)."""
    m, out, out_h = (np.asarray(x)[..., None] for x in (m_scale, out_scale, out_h))
    sq_w, sq_b = [weights[0] / m[..., None]], [biases[0] / m + t]
    for W, b in zip(weights[1:-1], biases[1:-1]):
        sq_w.append(W)
        sq_b.append(t - h_t * (W @ np.ones(W.shape[-1])) + b / out)
    W = weights[-1]
    return sq_w + [out[..., None] * W], sq_b + [biases[-1] - out_h * (W @ np.ones(W.shape[-1]))]


def _squeezed(layers: Layers, alphas: np.ndarray, scales: np.ndarray, t: float, h_t: float,
              members: slice) -> list[np.ndarray]:
    """A slice of a family's members squeezed along the member axis: layers
    is every member's scaffold (`_minimum_layers` with a column of shifts),
    alphas (members x middle layers) their alphas, and scales (members x 3)
    their M, output scale and output scale times h(t).  Each middle layer is
    scaled by its alpha, then `_squeeze` runs once for the slice.  Returns
    the slice's weights and biases, each with the member axis first."""
    weights, alphas = list(layers[0]), alphas[members]
    for i in range(1, len(weights) - 1):
        weights[i] = alphas[:, i - 1, None, None] * weights[i]
    sq_w, sq_b = _squeeze(weights, [b[members] for b in layers[1]], t, h_t, *scales[members].T)
    return sq_w + sq_b


def _draws(fit: LinearFit, dims: tuple[int, ...], k: int,
           seed: int) -> list[tuple[float, tuple[float, ...], float]]:
    """k (eta, alphas, M factor) draws of the general route's family.
    Member 0 takes the defaults: `default_eta`, every alpha 0.5 and the
    default M.  Member idx >= 1 draws from its own stream
    default_rng([seed, idx]) a shift up to 2 below the default one, alphas
    in [0.1, 0.9) and a factor in [1, 2) on the default M."""
    n_alpha, eta = max(0, len(dims) - 3), default_eta(fit)
    draws = [(eta, (0.5,) * n_alpha, 1.0)]
    for idx in range(1, k):
        rng = np.random.default_rng([seed, idx])
        draws.append((eta - 2.0 * rng.random(),
                      tuple(0.1 + 0.8 * rng.random() for _ in range(n_alpha)),
                      1.0 + rng.random()))
    return draws


def _family(fit: LinearFit, data: Dataset, dims: tuple[int, ...], act: PiecewiseLinear,
            draws: list[tuple[float, tuple[float, ...], float]]) -> list[CertifiedPoint]:
    """One certified member of the general route's family per (eta, alphas,
    M factor) draw (`_draws`), built along one member axis.  A member whose
    alphas' product underflows to zero is refused, since its output scale
    M / prod(alpha_i) would divide by it.

    The scaffold's weights do not depend on eta, so `_minimum_layers` runs
    once with a column of shifts, and the data's [X; 1] is `Dataset.X1`.
    Each member's M comes from its own first-layer pre-activations, the
    forward's one matmul [W1 | b1] @ [X; 1] (`network._affine`), in draw
    order (`_radius_scale`), and the alphas, the squeeze and the reflection
    are array arithmetic over the member axis (`_squeezed`).  Every member is
    bit-identical to building it alone, and a failure is the first failing
    member's, as if each were built and certified before the next: when a
    member's alpha product, M or output back-off raises, the members before
    it are squeezed and certified on the way out, a stacked squeeze that
    overflows is redone one member at a time, and a certificate that fails
    replaces a later build's exception."""
    build_act, reflected, tp = _turning_frame(act)
    etas, alpha_scales, factors = zip(*draws)
    layers = _minimum_layers(fit, dims, tp.s_plus, np.array(etas, dtype=float)[:, None])
    W1, X1, h_t = layers[0][0], data.X1, float(build_act(tp.t))
    scales, built = [], []
    try:
        try:
            for b1, factor, alphas in zip(layers[1][0], factors, alpha_scales):
                prod = math.prod(alphas, start=1.0)
                if prod == 0.0:
                    raise PreconditionViolated("the alpha scales' product underflows to zero")
                m_scale = _radius_scale(_affine(W1, b1, X1), tp.sigma, factor)
                out_scale = m_scale / prod
                if not math.isfinite(out_scale * h_t):
                    raise PreconditionViolated(_OUTPUT_BIAS_OVERFLOWS)
                scales.append((m_scale, out_scale, out_scale * h_t))
        finally:
            args = (layers, np.array(alpha_scales, dtype=float),
                    np.array(scales, dtype=float).reshape(-1, 3), tp.t, h_t)
            try:
                built.append(_squeezed(*args, slice(0, len(scales))))
            except FloatingPointError:
                for j in range(len(scales)):
                    built.append(_squeezed(*args, slice(j, j + 1)))
    finally:
        # the members built, none when member 0 failed
        arrays = built[0] if len(built) == 1 else list(map(np.concatenate, zip(*built)))
        weights, biases = _unframed(arrays[:len(dims) - 1], arrays[len(dims) - 1:], reflected)
        drafts = [_Draft(Mlp(dims, ws, bs, act), "3", ConstructionParams(
            eta=eta, m_scale=m_scale, alpha_scales=alphas, turning=tp),
            (tp.t, tp.t + tp.sigma), reflected, out_scale)
            for ws, bs, eta, alphas, (m_scale, out_scale, _)
            in zip(zip(*weights), zip(*biases), etas, alpha_scales, scales)]
        points = _certified(drafts, (weights, biases), fit, data)
    return points


def _general_family_head(fit: LinearFit, data: Dataset, dims: tuple[int, ...],
                         act: PiecewiseLinear) -> CertifiedPoint:
    """Route 3: squeeze every pre-activation into the linear piece right of
    the turning point t by scaling down with M (and per-layer alphas),
    translate by t, and undo both at the output.  M and the alphas range
    over continuous intervals, so the family is infinite; this is its
    member 0, a family of one at the defaults."""
    return _family(fit, data, dims, act, _draws(fit, dims, 1, 0))[0]


def _general_descent(w: _Witnesses, dims: tuple[int, ...], act: PiecewiseLinear
                     ) -> CertifiedPoint:
    """Route 3: the two-piece witness of the turning point's slopes,
    squeezed into their linear pieces with scales M (layer 1, both sides of
    t) and M-tilde (layer 2 onward, right of t), then unsqueezed at the
    output.  The output equals that witness's output exactly."""
    build_act, reflected, tp = _turning_frame(act)
    # the local activation has s_plus != 0, so the witness net is in the build frame
    deep, params, deep_trace, _ = _witness_layers(w, dims, two_piece(tp.s_minus, tp.s_plus))
    weights, biases = list(deep.weights), list(deep.biases)
    m_scale = _radius_scale(deep_trace.pre[0], tp.sigma)
    if len(dims) > 3:
        m_tilde = _radius_scale(deep_trace.pre[1] / m_scale, tp.sigma)
        weights[1] = weights[1] / m_tilde
    else:
        m_tilde = 1.0
    h_t, out_scale = float(build_act(tp.t)), m_scale * m_tilde
    net = _net(dims, act, reflected, *_squeeze(weights, biases, tp.t, h_t, m_scale, out_scale,
                                               out_scale * h_t))
    risk = risk_of_outputs(forward(net, w.data.X).output, w.data.Y, w.fit.loss)
    return _witness(net, "3", risk, w.fit, replace(params, m_scale=m_scale, m_tilde=m_tilde, turning=tp))


def _balanced_descent(w: _Witnesses, dims: tuple[int, ...], act: PiecewiseLinear
                      ) -> CertifiedPoint:
    """Route "corollary", two-piece slopes with s- = -s+ at any depth: an
    extra first-layer row carrying the untilted baseline makes the tilt terms
    cancel in the output, leaving predictions shifted by exactly -gamma on I
    and +gamma on J."""
    s_minus, s_plus = _two_piece_or_raise(act)
    if s_minus + s_plus != 0.0:
        raise PreconditionViolated("balanced route requires s_minus + s_plus = 0")
    net, params, _, risk = _witness_layers(w, dims, act)
    return _witness(net, "corollary", risk, w.fit, params)


# ---------------------------------------------------------------------------
# routing and family enumeration

# stage -> builder, one table per point kind
_MINIMA = {"1": _two_piece_minimum, "2": _two_piece_minimum, "3": _general_family_head}
_WITNESSES = {"1": _two_piece_descent, "2": _two_piece_descent, "3": _general_descent,
              "corollary": _balanced_descent}


def _stage(stage: str, act: PiecewiseLinear, dims: tuple[int, ...], witness: bool) -> str:
    """The route a stage name resolves to.  "auto" takes route "3" for an
    activation that is not two-piece and "corollary" for a witness whose
    slopes cancel exactly; otherwise "auto", or a minimum asked for on
    "corollary" (the balanced case uses the shallow/deep minimum, which only
    needs a nonzero right slope), takes "1" or "2" by depth.  Any other name
    is returned as given."""
    if stage == "auto" and not act.is_two_piece:
        return "3"
    if stage == "auto" and witness and act.s_minus + act.s_plus == 0.0:
        return "corollary"
    if stage == "auto" or (stage == "corollary" and not witness):
        return _depth_stage(dims)
    return stage


def _routed(witnesses: Optional[_Witnesses], fit: LinearFit, data: Dataset,
            dims: tuple[int, ...], act: PiecewiseLinear, stage: str) -> CertifiedPoint:
    """The preamble both routers share, in this order: the stage rule, the
    dimensions, one hidden layer on route "1", and the width rule (the
    balanced one on "corollary"); then the route's builder from its kind's
    table.  A minimum's builder takes the fit and the data, a witness's the
    call's `_Witnesses` (witnesses; None for a minimum)."""
    witness = witnesses is not None
    routes = _WITNESSES if witness else _MINIMA
    stage = _stage(stage, act, dims, witness)
    if stage not in routes:
        raise PreconditionViolated(f"unknown stage {stage!r}")
    _check_dims(fit, data, dims)
    if stage == "1" and len(dims) != 3:
        raise PreconditionViolated("shallow route needs exactly one hidden layer")
    if stage != "corollary":
        _require_hidden_wider(dims, data.d_y)
    elif not _balanced_widths_ok(dims, data.d_y):
        raise WidthViolation(f"balanced route needs d_1 >= {data.d_y + 2} and every later "
                             f"hidden width >= {data.d_y + 1}, got {dims}")
    if witness:
        return routes[stage](witnesses, dims, act)
    return routes[stage](fit, data, dims, act)


@_float_checked
def build_minimum(fit: LinearFit, data: Dataset, dims: tuple[int, ...], act: PiecewiseLinear,
                  stage: str = "auto") -> CertifiedPoint:
    """The certified default minimum on the route a stage name ("1", "2",
    "3", or "corollary"/"auto") resolves to by `_stage` (`_MINIMA`)."""
    return _routed(None, fit, data, dims, act, stage)


def build_descent(fit: LinearFit, data: Dataset, dims: tuple[int, ...], act: PiecewiseLinear,
                  stage: str = "auto") -> CertifiedPoint:
    """The descent witness on the route a stage name resolves to by `_stage`
    (`_WITNESSES`): the one-witness case of `_Witnesses.descent`, on a split
    and a search of its own."""
    return _Witnesses(fit, data).descent(dims, act, stage)


@_float_checked
def enumerate_family(fit: LinearFit, data: Dataset, dims: tuple[int, ...], act: PiecewiseLinear,
                     k: int, seed: int = 0) -> list[CertifiedPoint]:
    """Sample k members of the infinite minimum family by drawing eta, the
    squeeze scale M, and the per-layer alphas from their admissible
    continuous ranges (`_draws`).  Per-member seeded streams make the family
    bitwise reproducible; the seed must be a nonnegative integer.

    The members are built together along one member axis (`_family`):
    their shared scaffold and [X; 1] once, each member's M from its own
    first-layer pre-activations, and the alphas and the squeeze as array
    arithmetic.  They are then forwarded in stacked chunks of
    `verification._stack_size` networks straight from those arrays, and
    each chunk is certified with one reduction per check over its member
    axis, the output deviations, the risks and the interval margins, which
    one decision then reads member by member (`_certified`).  The members
    and their certificates are bit-identical to building and certifying one
    member at a time, and a failure is the first failing member's."""
    k = check_integer("k", k)
    if k < 1:
        raise PreconditionViolated("k must be >= 1")
    seed = check_integer("seed", seed, minimum=0)
    _check_dims(fit, data, dims)
    _require_hidden_wider(dims, data.d_y)
    return _family(fit, data, dims, act, _draws(fit, dims, k, seed))
