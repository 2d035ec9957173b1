"""Activation-pattern cells, the rescaling quotient, and invariant-risk paths.

A cell is identified by the matrix of activation slopes realized at every
(hidden unit, sample) pair.  Inside a cell the one-hidden-layer scalar-output
risk becomes convex in the flattened product w_hat = rows of diag(W2) @ W1,
evaluated against lifted data whose columns are slope-column (Kronecker)
feature vectors.  Positive per-unit rescalings leave w_hat fixed, which
yields equivalence classes and risk-invariant valley paths.

`analyze` is the one cell analysis of a network on a dataset, and
`walk_valley` the one walk along a valley path; `spurmin cells analyze`,
`spurmin path build` and the demo report from them.  Both score a network
from a single forward, which gives its risk and its cell signature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import PiecewiseLinear
from .errors import BoundaryCell, NotEquivalent, PreconditionViolated, ShapeViolation, check_integer
from .io import rle_encode
from .network import (
    Dataset, ForwardTrace, LossKind, Mlp, forward, loss_gradient, per_sample_loss, risk_of_outputs,
)

BOUNDARY_TOL = 1e-12


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


def _risk_and_signature(net: Mlp, data: Dataset, loss: LossKind) -> tuple[float, CellSignature]:
    """The empirical risk of net on data and its cell signature, from one
    forward; the risk is bit-identical to `network.empirical_risk`."""
    if net.dims[-1] != data.d_y:
        raise ShapeViolation(f"output width {net.dims[-1]} != label dim {data.d_y}")
    trace = forward(net, data.X)
    return risk_of_outputs(trace.output, data.Y, loss), _signature(net.activation, trace)


@dataclass(frozen=True)
class QuotientPoint:
    """Flattened diag(W2) @ W1, the rescaling-invariant coordinates."""

    w_hat: np.ndarray


@dataclass(frozen=True)
class LiftedData:
    """Columns A[:, i] (x) x_i; w_hat @ x_hat reproduces the in-cell network
    outputs for any parameters realizing the pattern A."""

    x_hat: np.ndarray


def _as_row(W2: np.ndarray) -> np.ndarray:
    W2 = np.asarray(W2, dtype=float)
    if W2.ndim == 2 and W2.shape[0] == 1:
        W2 = W2[0]
    if W2.ndim != 1:
        raise ShapeViolation("W2 must be a row vector (single output)")
    return W2


def quotient_map(W1: np.ndarray, W2: np.ndarray) -> QuotientPoint:
    """(W1, W2) -> concatenation of W2[i] * W1[i, :] over hidden units.

    Only the one-hidden-layer, single-output setting is supported.
    """
    W1 = np.asarray(W1, dtype=float)
    W2 = _as_row(W2)
    if W1.ndim != 2 or W1.shape[0] != W2.shape[0]:
        raise ShapeViolation(f"W1 {W1.shape} and W2 {W2.shape} do not compose")
    return QuotientPoint((W2[:, None] * W1).reshape(-1))


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


def equivalence_check(
    p1: tuple[np.ndarray, np.ndarray],
    p2: tuple[np.ndarray, np.ndarray],
    tol: float = 1e-12,
) -> bool:
    """Same quotient image (within tol, max-norm) and matching signs of W2."""
    W1a, W2a = p1
    W1b, W2b = p2
    W2a, W2b = _as_row(W2a), _as_row(W2b)
    if np.asarray(W1a).shape != np.asarray(W1b).shape or W2a.shape != W2b.shape:
        return False
    qa = quotient_map(W1a, W2a).w_hat
    qb = quotient_map(W1b, W2b).w_hat
    if float(np.max(np.abs(qa - qb))) > tol:
        return False
    return bool(np.all(np.sign(W2a) == np.sign(W2b)))


def build_valley_path(
    p1: tuple[np.ndarray, np.ndarray],
    p2: tuple[np.ndarray, np.ndarray],
    steps_per_move: int = 10,
    tol: float = 1e-12,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Piecewise path from p1 to p2 made of per-unit rescaling moves.

    Move i interpolates the factor geometrically from 1 to c_i (so W2 never
    crosses zero), scaling W2[i] up and W1 row i down by the same amount;
    the quotient image, hence the in-cell risk, is invariant along the way.
    Returns 1 + d_1 * steps_per_move points including both endpoints
    (a single point when p1 == p2).
    """
    if steps_per_move < 1:
        raise PreconditionViolated("steps_per_move must be >= 1")
    if not equivalence_check(p1, p2, tol=tol):
        raise NotEquivalent("endpoints are not rescalings of each other")
    W1a, W2a = np.asarray(p1[0], dtype=float), _as_row(p1[1])
    W1b, W2b = np.asarray(p2[0], dtype=float), _as_row(p2[1])
    d1 = W2a.shape[0]

    factors = np.ones(d1)
    for i in range(d1):
        if W2a[i] != 0.0:
            factors[i] = W2b[i] / W2a[i]
        else:
            # dead unit: a rescale move may still shrink its incoming row,
            # so the factor comes from positive row proportionality
            ra, rb = W1a[i], W1b[i]
            if np.array_equal(ra, rb):
                continue
            nz_a, nz_b = ra != 0.0, rb != 0.0
            if not np.array_equal(nz_a, nz_b) or not np.any(nz_a):
                raise NotEquivalent(f"dead unit {i}: rows not related by a rescaling")
            ratios = ra[nz_a] / rb[nz_a]
            c = float(ratios[0])
            if c <= 0.0 or float(np.max(np.abs(ratios - c))) > 1e-9 * (1.0 + abs(c)):
                raise NotEquivalent(f"dead unit {i}: rows not related by a rescaling")
            factors[i] = c
    if np.all(factors == 1.0) and np.array_equal(W1a, W1b) and np.array_equal(W2a, W2b):
        return [(W1a.copy(), W2a.copy())]

    path = [(W1a.copy(), W2a.copy())]
    cur_W1, cur_W2 = W1a.copy(), W2a.copy()
    for i in range(d1):
        c = factors[i]
        for s in range(1, steps_per_move + 1):
            W1s, W2s = cur_W1.copy(), cur_W2.copy()
            if s == steps_per_move:
                # land exactly on the target coordinates for this unit
                W1s[i], W2s[i] = W1b[i], W2b[i]
            else:
                frac = c ** (s / steps_per_move)
                W2s[i] = W2a[i] * frac
                W1s[i] = W1a[i] / frac
            path.append((W1s, W2s))
        cur_W1 = path[-1][0].copy()
        cur_W2 = path[-1][1].copy()
    path[-1] = (W1b.copy(), W2b.copy())
    return path


def linear_collapse_check(
    act: PiecewiseLinear,
    X: np.ndarray,
    hidden_width: int,
    trials: int = 50,
    seed: int = 0,
) -> bool:
    """True iff the activation pattern is identical across random weight
    draws, i.e. the whole surface is one cell (linear activations).  The
    seed must be a nonnegative integer."""
    seed = check_integer("seed", seed, minimum=0)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d_x = X.shape[0]
    ref = None
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        net = Mlp(
            (d_x, hidden_width, 1),
            (rng.standard_normal((hidden_width, d_x)), rng.standard_normal((1, hidden_width))),
            (rng.standard_normal(hidden_width), rng.standard_normal(1)),
            act,
        )
        sig = activation_pattern(net, X)
        if ref is None:
            ref = sig
        elif not signatures_equal(ref, sig):
            return False
    return True


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
    X_aug = np.vstack([X, np.ones((1, X.shape[1]))])
    return W1_aug, net.weights[1][0], float(net.biases[1][0]), X_aug


def walk_valley(net_a: Mlp, net_b: Mlp, data: Dataset, loss: LossKind,
                steps_per_move: int) -> dict:
    """Score the valley path between two one-hidden-layer, single-output
    networks that are per-unit rescalings of each other and share the output
    bias: rebuild the network at every path point and forward it once for its
    risk and its activation pattern.

    Returns n_points, the risk at each point, the largest deviation of a risk
    from the first one (risk_max_dev), and whether every point keeps the
    first point's activation pattern (pattern_constant).
    """
    W1a, W2a, b2, _ = net_cell_inputs(net_a, data.X)
    W1b, W2b, b2b, _ = net_cell_inputs(net_b, data.X)
    if b2 != b2b:
        raise PreconditionViolated("endpoints must share the output bias")
    path = build_valley_path((W1a, W2a), (W1b, W2b), steps_per_move=steps_per_move)
    d_x = net_a.dims[0]
    risks, pattern_constant, ref = [], True, None
    for W1, W2 in path:
        net = Mlp(net_a.dims, (W1[:, :d_x], W2[None, :]), (W1[:, d_x], np.array([b2])),
                  net_a.activation)
        risk, sig = _risk_and_signature(net, data, loss)
        risks.append(risk)
        if ref is None:
            ref = sig
        pattern_constant = pattern_constant and signatures_equal(ref, sig)
    return {
        "n_points": len(path),
        "risks": risks,
        "risk_max_dev": float(np.max(np.abs(np.asarray(risks) - risks[0]))),
        "pattern_constant": pattern_constant,
    }


def analyze(net: Mlp, data: Dataset, loss: LossKind) -> dict:
    """The cell analysis of net on data: its activation pattern (run-length
    encoded per layer), breakpoint hits and risk.  A one-hidden-layer,
    single-output net in an open cell also gets the in-cell reformulated risk
    and quotient gradient residual, and under squared loss the risk of the
    cell's convex optimum, a lower bound for every net with this pattern."""
    risk, sig = _risk_and_signature(net, data, loss)
    payload = {
        "pattern_rle": [rle_encode(layer) for layer in sig.layers],
        "boundary_hits": sorted(sig.boundary),
        "interior": sig.interior,
        "risk": risk,
    }
    if net.n_layers == 2 and net.dims[-1] == 1 and sig.interior:
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
