"""Continuous piecewise linear activation functions.

An activation is stored as strictly ascending breakpoints, one slope per
piece, and the function value at the first breakpoint (at 0 when there are
no breakpoints).  Continuity is structural: values are accumulated from the
anchor, so no per-piece intercepts can disagree.

Evaluation compares the input with the breakpoints in turn.  A breakpoint
that no entry lies left of moves every entry to the next piece, and one that
every entry lies left of ends the scan, so an input inside one piece is
evaluated with a scalar slope, knot and reference breakpoint; only a
breakpoint that splits the input selects per entry.  The values are
bit-identical to a searchsorted(side="right") breakpoint lookup, signed zeros
and NaN (which lands in the last piece) included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import NoAdmissibleTurningPoint, PreconditionViolated

# Stand-in for an unbounded piece when sizing downstream scale factors;
# keeps all derived quantities finite.
UNBOUNDED_SIGMA = 1e9
# Relative size below which adjacent slopes count as cancelling (s- + s+ = 0).
BALANCE_TOL = 1e-12

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class PiecewiseLinear:
    """A continuous piecewise linear function on the real line.

    breakpoints: strictly ascending, possibly empty.
    slopes: one per piece, len(breakpoints) + 1 of them.
    anchor: value at breakpoints[0] (value at 0 if there are no breakpoints).
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    anchor: float = 0.0
    _knots: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bps = tuple(float(b) for b in self.breakpoints)
        sls = tuple(float(s) for s in self.slopes)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "slopes", sls)
        object.__setattr__(self, "anchor", float(self.anchor))
        if len(sls) != len(bps) + 1:
            raise PreconditionViolated(
                f"need {len(bps) + 1} slopes for {len(bps)} breakpoints, got {len(sls)}"
            )
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise PreconditionViolated("breakpoints must be strictly ascending")
        if not all(np.isfinite(v) for v in (*bps, *sls, self.anchor)):
            raise PreconditionViolated("breakpoints, slopes and anchor must be finite")
        # function values at the breakpoints, accumulated left to right
        knots = [self.anchor]
        for i in range(1, len(bps)):
            knots.append(knots[-1] + sls[i] * (bps[i] - bps[i - 1]))
        object.__setattr__(self, "_knots", tuple(knots))

    @property
    def is_nonlinear(self) -> bool:
        return any(s1 != s2 for s1, s2 in zip(self.slopes, self.slopes[1:]))

    @property
    def is_linear(self) -> bool:
        return not self.is_nonlinear

    @property
    def is_two_piece(self) -> bool:
        """True for the h(x) = s₋x (x ≤ 0), s₊x (x > 0) family."""
        return (
            len(self.breakpoints) == 1
            and self.breakpoints[0] == 0.0
            and self.anchor == 0.0
        )

    @property
    def s_minus(self) -> float:
        if not self.is_two_piece:
            raise PreconditionViolated("s_minus is only defined for two-piece activations")
        return self.slopes[0]

    @property
    def s_plus(self) -> float:
        if not self.is_two_piece:
            raise PreconditionViolated("s_plus is only defined for two-piece activations")
        return self.slopes[1]

    def __call__(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        if not self.breakpoints:
            out = self.anchor + self.slopes[0] * x
            return out if out.ndim else float(out)
        slope, knot, ref = self._piece(x)
        out = x - ref
        out *= slope
        out += knot
        return out if out.ndim else float(out)

    def _piece(self, x: np.ndarray) -> tuple[ArrayLike, ArrayLike, ArrayLike]:
        """Slope, knot value and reference breakpoint of the piece holding
        each entry of x (at least one breakpoint).

        An entry at a breakpoint belongs to the piece on its right, and NaN
        to the last piece, as with searchsorted(..., side="right").  The
        comparisons pick the same table entries as that lookup, so values
        built from them are bit-identical to it.  The three are scalars
        unless some breakpoint splits x.
        """
        bps, sls, knots = self.breakpoints, self.slopes, self._knots
        slope, knot, ref = sls[0], knots[0], bps[0]
        for k, b in enumerate(bps):
            left = x < b
            n_left = np.count_nonzero(left)
            if n_left == left.size:
                break
            if n_left == 0:
                slope, knot, ref = sls[k + 1], knots[k], b
            else:
                slope = np.where(left, slope, sls[k + 1])
                if k:  # pieces 0 and 1 share knot 0 and breakpoint 0
                    knot = np.where(left, knot, knots[k])
                    ref = np.where(left, ref, b)
        return slope, knot, ref

    def slope_at(self, x: float) -> tuple[float, bool]:
        """Slope of the open piece containing x.

        If x coincides exactly with a breakpoint, returns the right slope and
        flags the boundary hit; pattern builders must treat that as a
        degenerate cell-boundary event.
        """
        if not self.breakpoints:
            return self.slopes[0], False
        slope, _, ref = self._piece(np.asarray(x, dtype=float))
        return float(slope), bool(ref == x)

    def piece_slopes(self, x: np.ndarray, boundary_tol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized slope lookup plus a boundary mask.

        An entry is flagged as boundary when it lies within boundary_tol of
        some breakpoint (exact hits are always flagged).
        """
        x = np.asarray(x, dtype=float)
        if not self.breakpoints:
            return np.full(x.shape, self.slopes[0]), np.zeros(x.shape, dtype=bool)
        slope, _, _ = self._piece(x)
        if isinstance(slope, float):
            slope = np.full(x.shape, slope)
        d = np.empty(x.shape)
        boundary = np.zeros(x.shape, dtype=bool)
        for b in self.breakpoints:
            np.subtract(x, b, out=d)
            np.abs(d, out=d)
            boundary |= d <= boundary_tol
        return slope, boundary

    def reflect(self) -> "PiecewiseLinear":
        """The mirrored activation g(x) = h(-x)."""
        if not self.breakpoints:
            return PiecewiseLinear((), (-self.slopes[0],), self.anchor)
        bps = tuple(-b for b in reversed(self.breakpoints))
        slopes = tuple(-s for s in reversed(self.slopes))
        return PiecewiseLinear(bps, slopes, self._knots[-1])

    def as_dict(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "slopes": list(self.slopes),
            "anchor": self.anchor,
        }

    @staticmethod
    def from_dict(d: dict) -> "PiecewiseLinear":
        return PiecewiseLinear(tuple(d["breakpoints"]), tuple(d["slopes"]), float(d.get("anchor", 0.0)))


@dataclass(frozen=True)
class TurningPoint:
    """A breakpoint t with differing adjacent slopes and s₋ + s₊ ≠ 0, plus the
    radius σ on which the activation is linear on both sides of t."""

    t: float
    s_minus: float
    s_plus: float
    sigma: float

    @property
    def slope_ratio(self) -> float:
        return (self.s_plus - self.s_minus) / (self.s_plus + self.s_minus)


def two_piece(s_minus: float, s_plus: float) -> PiecewiseLinear:
    """The two-slope activation with its breakpoint pinned at the origin."""
    if s_minus == s_plus:
        raise PreconditionViolated("two-piece activation must have distinct slopes")
    return PiecewiseLinear((0.0,), (float(s_minus), float(s_plus)), 0.0)


def relu() -> PiecewiseLinear:
    return two_piece(0.0, 1.0)


def leaky_relu(s_minus: float = 0.01) -> PiecewiseLinear:
    return two_piece(s_minus, 1.0)


def absolute_value() -> PiecewiseLinear:
    """Slopes (-1, 1): every breakpoint has balanced slopes, so no admissible
    turning point exists and only the balanced-slope route applies."""
    return two_piece(-1.0, 1.0)


def three_piece() -> PiecewiseLinear:
    """A three-slope example with a bounded middle piece: slopes 0.2/1/0.5 on
    (-inf,0], (0,1], (1,inf)."""
    return PiecewiseLinear((0.0, 1.0), (0.2, 1.0, 0.5), 0.0)


def find_turning_point(act: PiecewiseLinear) -> TurningPoint:
    """Locate a breakpoint whose adjacent slopes differ and do not cancel.

    Returns the first admissible breakpoint in ascending order, preferring one
    with a nonzero right slope (a zero right slope forces callers through the
    reflection normalization).  σ is the distance to the nearest neighboring
    breakpoint, with a large finite sentinel on unbounded sides.

    Raises NoAdmissibleTurningPoint when the activation is linear or every
    breakpoint has s₋ + s₊ = 0 (e.g. a|x|).
    """
    if not act.is_nonlinear:
        raise NoAdmissibleTurningPoint("activation is linear; no turning point exists")
    candidates = []
    bps = act.breakpoints
    for i, t in enumerate(bps):
        s_minus, s_plus = act.slopes[i], act.slopes[i + 1]
        if s_minus == s_plus:
            continue
        if abs(s_minus + s_plus) <= BALANCE_TOL * max(1.0, abs(s_minus) + abs(s_plus)):
            continue
        left = t - bps[i - 1] if i > 0 else UNBOUNDED_SIGMA
        right = bps[i + 1] - t if i + 1 < len(bps) else UNBOUNDED_SIGMA
        sigma = min(left, right, UNBOUNDED_SIGMA)
        candidates.append(TurningPoint(t, s_minus, s_plus, sigma))
    if not candidates:
        raise NoAdmissibleTurningPoint(
            "every turning point has balanced slopes (s_minus + s_plus = 0)"
        )
    for cand in candidates:
        if cand.s_plus != 0.0:
            return cand
    return candidates[0]


_PRESETS = {
    "relu": relu,
    "abs": absolute_value,
    "threepiece": three_piece,
    "identity": lambda: PiecewiseLinear((), (1.0,), 0.0),
}


def parse_activation(spec: Union[str, dict]) -> PiecewiseLinear:
    """Turn a CLI/JSON activation spec into an activation.

    Accepts the preset names "relu", "abs", "threepiece", "identity",
    "leaky:<s_minus>", or a dict {breakpoints, slopes, anchor}.
    """
    if isinstance(spec, dict):
        return PiecewiseLinear.from_dict(spec)
    name = spec.strip().lower()
    if name in _PRESETS:
        return _PRESETS[name]()
    if name.startswith("leaky:"):
        return leaky_relu(float(name.split(":", 1)[1]))
    raise PreconditionViolated(f"unknown activation spec: {spec!r}")
