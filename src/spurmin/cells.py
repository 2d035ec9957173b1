"""Activation-pattern cells, the rescaling quotient, and invariant-risk paths.

A cell is identified by the matrix of activation slopes realized at every
(hidden unit, sample) pair.  Inside a cell the one-hidden-layer scalar-output
risk becomes convex in the flattened product w_hat = rows of diag(W2) @ W1,
evaluated against lifted data whose columns are slope-column (Kronecker)
feature vectors.  Positive per-unit rescalings leave w_hat fixed, which
yields equivalence classes and risk-invariant valley paths; one rescaling
rule, on the layers of a network of any depth and output width, decides
equivalence and gives the valley its moves, and one rule (`_pair_layers`)
gives a (W1, W2) pair its shape.

`analyze` is the one cell analysis of a network on a dataset, and
`walk_valley` the one walk along a valley path; `spurmin cells`,
`spurmin path` and the demo report from them.  Both refuse a network that
does not fit the data by `network._check_fits`.  `analyze` scores a
network from a single forward, which gives its risk and its cell signature;
`walk_valley` builds and forwards its path's points one stacked chunk at a
time, bit-identical to one forward each, so it holds one chunk of the path
rather than the whole path.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .activations import PiecewiseLinear
from .errors import BoundaryCell, NotEquivalent, PreconditionViolated, ShapeViolation, check_integer
from .io import rle_encode
from .network import (
    Dataset, ForwardTrace, LossKind, Mlp, _check_fits, _stacked_outputs, augment, forward,
    loss_gradient, per_sample_loss, risk_of_outputs,
)
from .verification import _stack_size

BOUNDARY_TOL = 1e-12
# the largest risk deviation along a valley path that still counts as flat,
# relative to max(1, |risk at the first point|)
VALLEY_RISK_TOL = 1e-10


@dataclass(frozen=True)
class CellSignature:
    """Per-layer slope matrices plus the set of exact breakpoint hits
    (layer, unit, sample); nonempty boundary means the point sits on a cell
    boundary rather than in an open cell."""

    layers: tuple[np.ndarray, ...]
    boundary: frozenset

    @property
    def pattern(self) -> np.ndarray:
        if len(self.layers) != 1:
            raise ShapeViolation("pattern is the single-hidden-layer accessor")
        return self.layers[0]

    @property
    def interior(self) -> bool:
        return not self.boundary


def signatures_equal(a: CellSignature, b: CellSignature) -> bool:
    """Cell identity is exact equality of all slope matrices."""
    return len(a.layers) == len(b.layers) and all(
        x.shape == y.shape and bool(np.all(x == y)) for x, y in zip(a.layers, b.layers)
    )


def activation_pattern(net: Mlp, X: np.ndarray) -> CellSignature:
    """Collect the activation slope at every hidden (unit, sample)
    pre-activation; entries within BOUNDARY_TOL of a breakpoint are hits."""
    return _signature(net.activation, forward(net, X))


def _signature(act: PiecewiseLinear, trace: ForwardTrace) -> CellSignature:
    layers = []
    boundary = set()
    for li, z in enumerate(trace.hidden_pre):
        slopes, on_bp = act.piece_slopes(z, boundary_tol=BOUNDARY_TOL)
        layers.append(slopes)
        if on_bp.any():
            for unit, sample in zip(*np.nonzero(on_bp)):
                boundary.add((li, int(unit), int(sample)))
    return CellSignature(tuple(layers), frozenset(boundary))


def _risk_and_signature(
    net: Mlp, data: Dataset, loss: LossKind
) -> tuple[float, CellSignature, ForwardTrace]:
    """The empirical risk of net on data, its cell signature and the forward
    trace they come from, from one forward; the risk is bit-identical to
    `network.empirical_risk`."""
    _check_fits(net.dims, data)
    trace = forward(net, data.X)
    return risk_of_outputs(trace.output, data.Y, loss), _signature(net.activation, trace), trace


def _pieces_through_origin(act: PiecewiseLinear, z: np.ndarray) -> bool:
    """Whether every entry of z lies on a piece whose line passes through the
    origin (knot == slope * ref), the pieces on which h(z) = slope * z and
    the slope-only lift reproduces the network."""
    slope, knot, ref = act._piece(z)
    return bool(np.all(knot == slope * ref))


@dataclass(frozen=True)
class QuotientPoint:
    """Flattened diag(W2) @ W1, the rescaling-invariant coordinates."""

    w_hat: np.ndarray


@dataclass(frozen=True)
class LiftedData:
    """Columns A[:, i] (x) x_i; w_hat @ x_hat reproduces the in-cell network
    outputs for any parameters realizing the pattern A."""

    x_hat: np.ndarray


def quotient_map(W1: np.ndarray, W2: np.ndarray) -> QuotientPoint:
    """(W1, W2) -> concatenation of W2[i] * W1[i, :] over hidden units.

    Only the one-hidden-layer, single-output setting is supported: the
    pair's shape is the `_pair_layers` rule.
    """
    (W1, W2), _ = _pair_layers((W1, W2))
    return QuotientPoint((W2.T * W1).reshape(-1))


def lift_data(sig: CellSignature, X: np.ndarray) -> LiftedData:
    """Kronecker-lift the samples by the cell's slope columns."""
    if len(sig.layers) != 1:
        raise ShapeViolation("lifting is defined for one hidden layer")
    if not sig.interior:
        raise BoundaryCell("signature has breakpoint hits; the cell is ambiguous")
    A = sig.layers[0]
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if A.shape[1] != X.shape[1]:
        raise ShapeViolation("pattern and data disagree on the sample count")
    # column i is kron(A[:, i], X[:, i]): row k * d_X + m holds A[k, i] * X[m, i]
    return LiftedData((A[:, None, :] * X[None, :, :]).reshape(-1, X.shape[1]))


def reformulated_risk(
    q: QuotientPoint,
    lifted: LiftedData,
    Y: np.ndarray,
    loss: LossKind,
    output_bias: float = 0.0,
) -> float:
    """(1/n) sum_i l(y_i, w_hat @ x_hat_i + b); equals the network risk of any
    in-cell parameters with the same quotient image."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    preds = (q.w_hat @ lifted.x_hat + output_bias)[None, :]
    return float(np.sum(per_sample_loss(loss, Y, preds)) / Y.shape[1])


def quotient_gradient_residual(
    q: QuotientPoint,
    lifted: LiftedData,
    Y: np.ndarray,
    loss: LossKind,
    output_bias: float = 0.0,
) -> float:
    """||x_hat @ grad|| with grad the per-sample loss gradients at the lifted
    predictions; vanishes at every in-cell local minimum of the network risk."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    preds = (q.w_hat @ lifted.x_hat + output_bias)[None, :]
    grad = loss_gradient(loss, Y, preds)[0]
    return float(np.linalg.norm(lifted.x_hat @ grad))


def solve_cell_optimum(
    lifted: LiftedData,
    Y: np.ndarray,
    output_bias: float = 0.0,
) -> tuple[QuotientPoint, float]:
    """Least-squares minimizer of the reformulated squared risk over w_hat.

    The returned risk is a lower bound for the network risk of every
    parameter pair realizing this pattern: the unconstrained convex minimum
    ignores whether the optimal w_hat is reachable inside the cell.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[0] != 1:
        raise ShapeViolation("cell optimum is defined for single-output regression")
    target = Y[0] - output_bias
    w, *_ = np.linalg.lstsq(lifted.x_hat.T, target, rcond=1e-12)
    q = QuotientPoint(w)
    return q, reformulated_risk(q, lifted, Y, LossKind.SQUARED, output_bias)


def _pair_layers(p: tuple[np.ndarray, np.ndarray]) -> tuple[list, list]:
    """A (W1, W2) pair as the layers of a bias-free, single-output network:
    the one rule for a pair's shape.  W2 is a row vector, 1-d or 1 x d_1,
    with one entry per row of the 2-d W1."""
    W1, W2 = np.asarray(p[0], dtype=float), np.asarray(p[1], dtype=float)
    W2 = W2[0] if W2.ndim == 2 and W2.shape[0] == 1 else W2
    if W2.ndim != 1:
        raise ShapeViolation("W2 must be a row vector (single output)")
    if W1.ndim != 2 or W1.shape[0] != W2.shape[0]:
        raise ShapeViolation(f"W1 {W1.shape} and W2 {W2.shape} do not compose")
    return [W1, W2[None, :]], [np.zeros(W1.shape[0]), np.zeros(1)]


def _unit_factors(a: tuple, b: tuple, tol: float = 1e-12) -> list[np.ndarray]:
    """The positive factors c_l of every hidden layer with which the layers
    b = (weights, biases) rescale a: row j of b's (W_l, b_l) is a's divided
    by c_l[j], and column j of b's W_{l+1} is a's multiplied by it.  The one
    rescaling rule behind `equivalence_check`, `build_valley_path` and
    `walk_valley`.

    One forward pass over the layers: c_l[j] is the ratio of a's augmented
    row [W_l[j] * c_{l-1}, b_l[j]] to b's row at the largest entry of a's
    row (1 where the two agree), for live and dead units alike, and every
    augmented matrix [W_l | b_l] must match b's to within
    tol * max(1, its largest entry), the output layer with the factor 1.
    Raises NotEquivalent when no such factors exist."""
    if [W.shape for W in a[0]] != [W.shape for W in b[0]]:
        raise NotEquivalent("endpoints differ in shape")
    factors, c = [], np.ones(a[0][0].shape[1])
    # a zero divisor, an overflow or a NaN leaves a factor or a match that
    # fails the test below
    with np.errstate(all="ignore"):
        for l, (Wa, ba, Wb, bb) in enumerate(zip(*a, *b)):
            rows_a, rows_b = np.hstack([Wa * c, ba[:, None]]), np.hstack([Wb, bb[:, None]])
            c = np.ones(len(rows_a))
            if l < len(a[0]) - 1:
                at = (np.arange(len(rows_a)), np.argmax(np.abs(rows_a), axis=1))
                c = np.where(rows_a[at] == rows_b[at], 1.0, rows_a[at] / rows_b[at])
                factors.append(c)
            if not (np.all(c > 0.0) and np.max(np.abs(rows_a / c[:, None] - rows_b))
                    <= tol * max(1.0, np.max(np.abs(rows_b)))):
                raise NotEquivalent("endpoints are not positive per-unit rescalings of each other")
    return factors


def _valley_points(a: tuple, b: tuple, steps: int) -> Iterator[tuple[list, list]]:
    """The layers (weights, biases) along the valley from a to b, made of
    per-unit rescaling moves, one hidden unit at a time in layer order.
    A generator: each point is built when it is read, as fresh arrays.

    The move of unit j in hidden layer l interpolates its factor c
    geometrically from 1 (so no weight crosses zero), dividing row j of
    (W_l, b_l) and multiplying column j of W_{l+1} by the same amount; the
    function, hence the risk of a positively homogeneous activation, is
    invariant along the way.  Its last step lands the row on b's row, and
    the column on b's column where it feeds the output layer, else on
    col * c, whose rows a later move lands; so the last point is b bit for
    bit.  Yields 1 + (hidden units) * steps points, a single one when a
    equals b; steps must be an integer of at least 1 (`check_integer`),
    checked with the factors before the first point."""
    steps = check_integer("steps_per_move", steps, minimum=1)
    factors = _unit_factors(a, b)
    point = ([np.array(W, dtype=float) for W in a[0]], [np.array(v, dtype=float) for v in a[1]])
    yield point
    if all(np.array_equal(x, y) for x, y in zip([*a[0], *a[1]], [*b[0], *b[1]])):
        return
    for l, cs in enumerate(factors):
        for j, c in enumerate(cs):
            Ws, bs = point
            row, bias, col = Ws[l][j], bs[l][j], Ws[l + 1][:, j]
            for s in range(1, steps + 1):
                W, bi = [x.copy() for x in Ws], [x.copy() for x in bs]
                if s == steps:
                    W[l][j], bi[l][j] = b[0][l][j], b[1][l][j]
                    W[l + 1][:, j] = b[0][l + 1][:, j] if l + 2 == len(W) else col * c
                else:
                    frac = c ** (s / steps)
                    W[l][j], bi[l][j], W[l + 1][:, j] = row / frac, bias / frac, col * frac
                point = (W, bi)
                yield point


def equivalence_check(
    p1: tuple[np.ndarray, np.ndarray],
    p2: tuple[np.ndarray, np.ndarray],
    tol: float = 1e-12,
) -> bool:
    """Whether the pair p2 is a positive per-unit rescaling of p1
    (`_unit_factors` on their `_pair_layers`)."""
    try:
        _unit_factors(_pair_layers(p1), _pair_layers(p2), tol)
    except NotEquivalent:
        return False
    return True


def build_valley_path(
    p1: tuple[np.ndarray, np.ndarray],
    p2: tuple[np.ndarray, np.ndarray],
    steps_per_move: int = 10,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The `_valley_points` between the pairs p1 and p2 as (W1, W2) pairs:
    1 + d_1 * steps_per_move points including both endpoints (a single
    point when p1 == p2); the quotient image, hence the in-cell risk, is
    invariant along the way."""
    points = _valley_points(_pair_layers(p1), _pair_layers(p2), steps_per_move)
    return [(W[0], W[1][0]) for W, _ in points]


def linear_collapse_check(act: PiecewiseLinear, X: np.ndarray) -> bool:
    """True iff the loss surface of networks with this activation on the
    samples X is one cell: iff the activation is linear (not
    is_nonlinear, the rule by which construction refuses it).

    The rule is exact.  One slope on every piece gives every hidden unit
    that slope at every sample under every weight draw.  A nonlinear
    activation has a breakpoint whose adjacent slopes differ, and a hidden
    unit with zero weights and a bias just left or just right of it takes
    each of the two slopes at every finite sample, so there are at least
    two cells.  X is d_x x n (1-d reads as one feature row) and must hold
    at least one sample, every entry finite, as `Dataset` asks: a True on
    no samples would check nothing, and 0 * inf is not a pre-activation."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2:
        raise ShapeViolation(f"X must be d_x x n, got {X.shape}")
    if X.shape[1] == 0:
        raise PreconditionViolated("need at least one sample")
    if not np.isfinite(X).all():
        raise PreconditionViolated("X must be finite (no NaN or infinity)")
    return not act.is_nonlinear


def net_cell_inputs(net: Mlp, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Adapt a one-hidden-layer single-output network with biases to the
    bias-free cell machinery: fold the hidden bias into an extra input
    coordinate fixed at one.

    Returns (W1_aug, W2_row, output_bias, X_aug).
    """
    if net.n_layers != 2 or net.dims[-1] != 1:
        raise ShapeViolation("cell machinery needs one hidden layer and one output")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    W1_aug = np.hstack([net.weights[0], net.biases[0][:, None]])
    return W1_aug, net.weights[1][0], float(net.biases[1][0]), augment(X)


def walk_valley(net_a: Mlp, net_b: Mlp, data: Dataset, loss: LossKind,
                steps_per_move: int) -> dict:
    """Score the valley path between two networks, of any depth and output
    width, that are per-unit rescalings of each other and share the output
    bias and the activation.  The points of `_valley_points` are built and
    forwarded in stacked chunks of `verification._stack_size` networks, so
    one chunk of the path is held at a time; each chunk gives its points'
    risks from one `risk_of_outputs` and their slopes from one
    `piece_slopes` per hidden layer.  Risks and slopes are bit-identical to building and forwarding
    each point's network.

    Returns n_points, the risk at each point (Python floats), the largest
    deviation of a risk from the first one (risk_max_dev), whether that
    deviation is within VALLEY_RISK_TOL * max(1, |first risk|) (risk_flat,
    the one flatness decision), and whether every point keeps the first
    point's slope at every hidden unit and sample (pattern_constant, the
    `signatures_equal` rule).
    """
    if not np.array_equal(net_a.biases[-1], net_b.biases[-1]):
        raise PreconditionViolated("endpoints must share the output bias")
    if net_a.activation != net_b.activation:
        raise PreconditionViolated("endpoints must share the activation")
    _check_fits(net_a.dims, data)
    points = _valley_points((net_a.weights, net_a.biases), (net_b.weights, net_b.biases),
                            steps_per_move)
    act = net_a.activation
    size = _stack_size(net_a.dims, data.n)
    risks, pattern_constant, ref = [], True, None
    while chunk := list(islice(points, size)):
        pre, post = _stacked_outputs(chunk, act, data.X)
        risks += risk_of_outputs(post[-1], data.Y, loss).tolist()
        slopes = [act.piece_slopes(z)[0] for z in pre[:-1]]
        ref = [s[0] for s in slopes] if ref is None else ref
        pattern_constant = pattern_constant and all(
            bool(np.all(s == r)) for s, r in zip(slopes, ref)
        )
    dev = float(np.max(np.abs(np.asarray(risks) - risks[0])))
    return {
        "n_points": len(risks),
        "risks": risks,
        "risk_max_dev": dev,
        "risk_flat": dev <= VALLEY_RISK_TOL * max(1.0, abs(risks[0])),
        "pattern_constant": pattern_constant,
    }


def analyze(net: Mlp, data: Dataset, loss: LossKind) -> dict:
    """The cell analysis of net on data: its activation pattern (run-length
    encoded per layer), breakpoint hits and risk.  A one-hidden-layer,
    single-output net in an open cell also gets the in-cell reformulated risk
    and quotient gradient residual, and under squared loss the risk of the
    cell's convex optimum, a lower bound for every net with this pattern.
    These three need every hidden pre-activation on a piece through the
    origin: the lift keeps each piece's slope and drops its offset
    knot - slope * ref, so elsewhere its model is not the network."""
    risk, sig, trace = _risk_and_signature(net, data, loss)
    payload = {
        "pattern_rle": [rle_encode(layer) for layer in sig.layers],
        "boundary_hits": sorted(sig.boundary),
        "interior": sig.interior,
        "risk": risk,
    }
    if (net.n_layers == 2 and net.dims[-1] == 1 and sig.interior
            and _pieces_through_origin(net.activation, trace.hidden_pre[0])):
        W1a, W2r, b2, Xa = net_cell_inputs(net, data.X)
        lifted = lift_data(sig, Xa)
        q = quotient_map(W1a, W2r)
        payload["reformulated_risk"] = reformulated_risk(q, lifted, data.Y, loss, output_bias=b2)
        payload["quotient_gradient_residual"] = quotient_gradient_residual(
            q, lifted, data.Y, loss, output_bias=b2
        )
        if loss is LossKind.SQUARED:
            _, risk_star = solve_cell_optimum(lifted, data.Y, output_bias=b2)
            payload["cell_risk_lower_bound"] = risk_star
    return payload
