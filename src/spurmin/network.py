"""MLP data model, forward traces, losses, empirical risk and shape rules.

`_check_fits` is the one rule for whether a network fits a dataset (its
output width is the label dimension, its input width the feature
dimension); `_widths_ok` and `_balanced_widths_ok` are the hidden-width
rules of the construction routes.  Conventions fixed package-wide: the squared loss carries a 1/2 factor,
l(y, yhat) = 0.5*||y - yhat||^2, the empirical risk averages per-sample
losses with 1/n, and the output layer is affine (no final activation).

The first layer of every forward is one matmul over the data with a row
of ones under it, [W_1 | b_1] @ [X; 1] (`_affine`): on tall data a
broadcast bias add costs more than the matmul itself.  Later layers add
their bias after the matmul.  A `Dataset` forms its [X; 1] once
(`Dataset.X1`), and every scorer that holds one reads it there; `forward`
and the other scorers of a bare X stack the ones row per call (`augment`).
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass

import numpy as np

from .activations import PiecewiseLinear
from .errors import InvalidLabels, PreconditionViolated, ShapeViolation


@dataclass(frozen=True)
class Dataset:
    """Feature matrix X (d_X x n, one column per sample) and labels Y (d_Y x n).

    X and Y are read-only float copies of the arrays given, in their memory
    layout, so [X; 1] is formed once (`X1`) and cannot go stale."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self) -> None:
        X = np.array(self.X, dtype=float)
        Y = np.array(self.Y, dtype=float)
        if X.ndim != 2 or Y.ndim != 2:
            raise ShapeViolation("X and Y must be 2-d matrices (columns are samples)")
        if X.shape[1] != Y.shape[1]:
            raise ShapeViolation(f"X has {X.shape[1]} samples but Y has {Y.shape[1]}")
        if X.shape[1] < 1:
            raise PreconditionViolated("need at least one sample")
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise PreconditionViolated("X and Y must be finite (no NaN or infinity)")
        X.flags.writeable = Y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @functools.cached_property
    def X1(self) -> np.ndarray:
        """augment(X), formed on first read and read-only."""
        X1 = augment(self.X)
        X1.flags.writeable = False
        return X1

    @property
    def n(self) -> int:
        return self.X.shape[1]

    @property
    def d_x(self) -> int:
        return self.X.shape[0]

    @property
    def d_y(self) -> int:
        return self.Y.shape[0]

    def distinct_columns(self) -> bool:
        cols = {tuple(c) for c in self.X.T}
        return len(cols) == self.n


class LossKind(enum.Enum):
    SQUARED = "squared"
    CROSS_ENTROPY = "ce"


def _check_one_hot(Y: np.ndarray) -> None:
    ok = np.all((Y == 0.0) | (Y == 1.0)) and np.all(Y.sum(axis=0) == 1.0)
    if not ok:
        raise InvalidLabels("cross-entropy requires one-hot label columns")


def per_sample_loss(kind: LossKind, Y: np.ndarray, Yhat: np.ndarray) -> np.ndarray:
    """Per-sample losses over the columns of Y / Yhat.

    Y is d_Y x n.  Yhat is d_Y x n too, or a stack of such predictions with
    leading batch axes; the loss reduces over axis -2, so the result has the
    shape of Yhat without it.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    Yhat = np.atleast_2d(np.asarray(Yhat, dtype=float))
    if Y.ndim != 2 or Y.shape != Yhat.shape[-2:]:
        raise ShapeViolation(f"label/prediction shape mismatch: {Y.shape} vs {Yhat.shape}")
    if kind is LossKind.SQUARED:
        # in place, bit for bit 0.5 * np.sum(d * d, axis=-2)
        d = Yhat - Y
        d *= d
        out = d.sum(axis=-2)
        out *= 0.5
        return out
    _check_one_hot(Y)
    z = Yhat - np.max(Yhat, axis=-2, keepdims=True)
    log_softmax = z - np.log(np.sum(np.exp(z), axis=-2, keepdims=True))
    return -np.sum(Y * log_softmax, axis=-2)


def loss_gradient(kind: LossKind, Y: np.ndarray, Yhat: np.ndarray) -> np.ndarray:
    """d_Y x n matrix of per-sample gradients with respect to the prediction.

    Squared: yhat - y.  Cross_entropy (softmax folded into the loss):
    (sum_k y_k) * softmax(yhat) - y, which is nonzero whenever the softmax
    differs from the one-hot label.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    Yhat = np.atleast_2d(np.asarray(Yhat, dtype=float))
    if Y.shape != Yhat.shape:
        raise ShapeViolation(f"label/prediction shape mismatch: {Y.shape} vs {Yhat.shape}")
    if kind is LossKind.SQUARED:
        return Yhat - Y
    _check_one_hot(Y)
    z = Yhat - np.max(Yhat, axis=0, keepdims=True)
    ez = np.exp(z)
    softmax = ez / np.sum(ez, axis=0, keepdims=True)
    return Y.sum(axis=0, keepdims=True) * softmax - Y


def risk_of_outputs(Yhat: np.ndarray, Y: np.ndarray, kind: LossKind) -> float | np.ndarray:
    """Mean per-sample loss: a float, or one risk per prediction when Yhat
    carries leading batch axes."""
    risk = np.sum(per_sample_loss(kind, Y, Yhat), axis=-1) / np.atleast_2d(Y).shape[1]
    return risk if risk.ndim else float(risk)


def _index_dims(dims) -> tuple[int, ...]:
    """dims as ints.  An entry that is a bool or that operator.index refuses
    (a float, a str, a 0-d float array) raises ShapeViolation naming it,
    where int() would truncate 3.9 or parse "3"."""
    ints = []
    for d in dims:
        try:
            if type(d) is bool:
                raise TypeError
            ints.append(operator.index(d))
        except TypeError:
            raise ShapeViolation(f"dims entry {d!r} is not an integer") from None
    return tuple(ints)


@dataclass(frozen=True)
class Mlp:
    """Fully connected network; hidden layers share one activation, the last
    layer is affine."""

    dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activation: PiecewiseLinear

    def __post_init__(self) -> None:
        dims = _index_dims(self.dims)
        Ws = tuple(np.asarray(W, dtype=float) for W in self.weights)
        bs = tuple(np.asarray(b, dtype=float).reshape(-1) for b in self.biases)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "weights", Ws)
        object.__setattr__(self, "biases", bs)
        if len(dims) < 2:
            raise ShapeViolation("need at least an input and an output layer")
        L = len(dims) - 1
        if len(Ws) != L or len(bs) != L:
            raise ShapeViolation(f"expected {L} weight/bias pairs, got {len(Ws)}/{len(bs)}")
        for j, (W, b) in enumerate(zip(Ws, bs), start=1):
            if W.shape != (dims[j], dims[j - 1]):
                raise ShapeViolation(
                    f"layer {j}: weight shape {W.shape} != ({dims[j]}, {dims[j - 1]})"
                )
            if b.shape != (dims[j],):
                raise ShapeViolation(f"layer {j}: bias shape {b.shape} != ({dims[j]},)")

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1


@dataclass(frozen=True)
class ForwardTrace:
    """Per-layer pre-activation and post-activation outputs.

    post[j] = activation(pre[j]) for hidden layers; the last layer is affine,
    so post[-1] = pre[-1] = output.  post[j] may be the same array as
    pre[j] (see `_layer_outputs`), so the arrays are read-only by contract:
    readers copy before they write.
    """

    pre: tuple[np.ndarray, ...]
    post: tuple[np.ndarray, ...]

    @property
    def output(self) -> np.ndarray:
        return self.post[-1]

    @property
    def hidden_pre(self) -> tuple[np.ndarray, ...]:
        return self.pre[:-1]


def augment(X: np.ndarray) -> np.ndarray:
    """Stack a row of ones under X so affine maps read W @ augment(X)."""
    X = np.asarray(X, dtype=float)
    X1 = np.empty((X.shape[0] + 1, X.shape[1]))
    X1[:-1] = X
    X1[-1] = 1.0
    return X1


def _affine(W: np.ndarray, b: np.ndarray, X1: np.ndarray) -> np.ndarray:
    """W @ X + b as one matmul, [W | b] @ X1 with X1 = augment(X).  W and b
    may carry one leading batch axis, (B, d, d_x) and (B, d)."""
    return np.concatenate((W, b[..., None]), axis=-1) @ X1


def _checked_input(net: Mlp, X: np.ndarray) -> np.ndarray:
    """X as a float array, or ShapeViolation unless it is d_x x n."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != net.dims[0]:
        raise ShapeViolation(f"input must be {net.dims[0]} x n, got {X.shape}")
    return X


def forward(net: Mlp, X: np.ndarray) -> ForwardTrace:
    """Evaluate the network on all columns of X, recording layer outputs.

    A hidden layer that the activation maps to itself bit for bit is
    recorded once, as both pre[j] and post[j]; the trace is read-only."""
    X1 = augment(_checked_input(net, X))
    pre, post = _layer_outputs(net.weights, net.biases, net.activation, X1)
    return ForwardTrace(tuple(pre), tuple(post))


def _hidden_pre(net: Mlp, X: np.ndarray) -> list:
    """The hidden layers' pre-activations on the columns of X, bit-identical
    to `forward(net, X).hidden_pre`: the forward stops at the last hidden
    layer, before its activation and the output layer.  Empty for a network
    with no hidden layer; X is checked as `forward` checks it."""
    X = _checked_input(net, X)
    if net.n_layers == 1:
        return []
    pre, _ = _layer_outputs(net.weights[:-1], net.biases[:-1], net.activation, augment(X))
    return pre


def _layer_outputs(
    weights, biases, activation: PiecewiseLinear, X1: np.ndarray
) -> tuple[list, list]:
    """Pre- and post-activation outputs of every layer on the columns of X,
    given as X1 = augment(X), which the caller forms: a caller that holds a
    `Dataset` reads its `X1`, so no pass on it stacks the ones row again.
    The last layer given is affine, so the hidden layers alone give their
    pre-activations (`_hidden_pre`).

    The first layer is one matmul, [W_1 | b_1] @ X1 (`_affine`); each later
    layer is W_j @ post[j-1] with b_j added in place.  The fold changes the
    matmul's inner dimension from d_x to d_x + 1.  BLAS picks its kernel,
    and with it the order in which it sums the inner dimension, by the
    matmul's size, so the first layer may round differently in the last
    bits from W_1 @ X + b_1.  With OpenBLAS 0.3.31 on an x86-64 Xeon the two
    agree bit for bit at every even d_x, unless the fold moves the product
    past the bound of OpenBLAS's small-matrix kernel,
    d_1 * n * d_x <= 1e6 < d_1 * n * (d_x + 1); at odd d_x some entries
    differ in the last bits at any size.

    Every weight and bias may carry one leading batch axis, (B, d_j, d_{j-1})
    and (B, d_j), to evaluate B networks of one shape in stacked matmuls;
    each network's outputs are bit-identical to its own unstacked pass.

    A hidden layer on the activation's identity piece with no zero entry,
    as on every hidden layer of a ReLU minimum (`PiecewiseLinear._layer`),
    is passed through without a copy: post[j] is pre[j].  Every output is
    read-only by contract.
    """
    z = _affine(weights[0], biases[0], X1)
    pre, post = [z], []
    for W, b in zip(weights[1:], biases[1:]):
        post.append(activation._layer(z))
        z = W @ post[-1]
        z += b[..., None]
        pre.append(z)
    post.append(z)
    return pre, post


def _check_fits(dims: tuple[int, ...], data: Dataset) -> None:
    """Raise ShapeViolation unless a network of these dims writes data's
    labels and reads its features, the output width checked first."""
    if dims[-1] != data.d_y:
        raise ShapeViolation(f"output width {dims[-1]} != label dim {data.d_y}")
    if dims[0] != data.d_x:
        raise ShapeViolation(f"input must be {dims[0]} x n, got {data.X.shape}")


def empirical_risk(net: Mlp, data: Dataset, loss: LossKind) -> float:
    """(1/n) sum of per-sample losses at the network outputs."""
    _check_fits(net.dims, data)
    _, post = _layer_outputs(net.weights, net.biases, net.activation, data.X1)
    return risk_of_outputs(post[-1], data.Y, loss)


def _widths_ok(dims: tuple[int, ...], d_y: int) -> bool:
    """Every hidden layer is wider than the output (routes 1, 2 and 3)."""
    hidden = dims[1:-1]
    return bool(hidden) and min(hidden) > d_y


def _balanced_widths_ok(dims: tuple[int, ...], d_y: int) -> bool:
    """The balanced route's widths: one extra unit in the first hidden layer,
    d_1 >= d_Y + 2, and every later hidden layer wider than the output."""
    hidden = dims[1:-1]
    return bool(hidden) and hidden[0] >= d_y + 2 and all(d > d_y for d in hidden[1:])
