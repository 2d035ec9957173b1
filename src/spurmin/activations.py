"""Continuous piecewise linear activation functions.

An activation is stored as strictly ascending breakpoints, one slope per
piece, and the function value at the first breakpoint (at 0 when there are
no breakpoints).  Continuity is structural: values are accumulated from the
anchor, so no per-piece intercepts can disagree.

Evaluation starts from the input's extremes.  The least entry's piece is
found by bisection on the breakpoints, and the greatest entry is read only
when a breakpoint lies above the least.  When both lie in one piece, as on
every hidden layer of a constructed minimum, the input is evaluated with
that piece's scalar slope, knot and reference breakpoint, and the steps
that are exact identities (subtracting a reference of +0.0, multiplying by
a slope of 1.0) are skipped; the forward passes a layer through uncopied
when that piece is the identity and the layer holds no zero.  Otherwise
the breakpoints are compared with the input in turn, and only a
breakpoint that splits it selects per entry.  The values are
bit-identical to a searchsorted(side="right") breakpoint lookup, signed
zeros and NaN (which lands in the last piece) included.  A linear
activation takes the same path: its one piece has the anchor as knot and
reference 0.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import copysign
from typing import Optional, Union

import numpy as np

from .errors import NoAdmissibleTurningPoint, PreconditionViolated

# Stand-in for an unbounded piece when sizing downstream scale factors;
# keeps all derived quantities finite.
UNBOUNDED_SIGMA = 1e9

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
        out = self._values(x, *self._piece(x))
        return out if out.ndim else float(out)

    def _layer(self, x: np.ndarray) -> np.ndarray:
        """self(x) for a float array x, from one `_span` scan, or x itself
        where the two are bit-identical: every entry lies on a piece that is
        the identity (slope 1.0, reference breakpoint and knot ±0.0) and
        the extremes show that no entry is ±0.0, the one value + knot
        changes (-0.0 + 0.0 is +0.0).  Infinities pass unchanged, and NaN
        goes to `_select`.  The forward passes a constructed minimum's
        hidden layers through this way; `__call__` always copies."""
        span = self._span(x)
        piece = self._piece(x, span)
        if (span is not None and not span[3] and (span[1] > 0.0 or span[2] < 0.0)
                and piece == (1.0, 0.0, 0.0)):
            return x
        return self._values(x, *piece)

    @staticmethod
    def _values(x: np.ndarray, slope: ArrayLike, knot: ArrayLike, ref: ArrayLike) -> np.ndarray:
        """slope * (x - ref) + knot as a fresh array.  x - (+0.0) and
        x * 1.0 are exact identities, signed zeros and NaN included, so they
        are skipped; + knot always runs (it maps -0.0 to +0.0) and the
        first step that runs writes the fresh array."""
        if isinstance(ref, float) and ref == 0.0 and copysign(1.0, ref) == 1.0:
            out = x
        else:
            out = x - ref
        if not (isinstance(slope, float) and slope == 1.0):
            if out is x:
                out = x * slope
            else:
                out *= slope
        if out is x:
            out = x + knot
        else:
            out += knot
        return out

    def _piece(self, x: np.ndarray, span=False) -> tuple[ArrayLike, ArrayLike, ArrayLike]:
        """Slope, knot value and reference breakpoint of the piece holding
        each entry of x.

        An entry at a breakpoint belongs to the piece on its right, and NaN
        to the last piece, as with searchsorted(..., side="right").  When
        x's least and greatest entries lie in one piece (see `_span`; span
        is its result for x when the caller has it), the three are that
        piece's Python floats; otherwise `_select` compares x with the
        breakpoints.  Both pick the same table entries as the searchsorted
        lookup, so values built from them are bit-identical to it.  A
        linear activation (no breakpoints) has one piece: its slope, the
        anchor, and reference 0.
        """
        if span is False:
            span = self._span(x)
        if span is None:
            return self._select(x)
        p, _, _, split = span
        if split:
            return self._select(x, p)
        q = max(p - 1, 0)  # pieces 0 and 1 share knot 0 and breakpoint 0
        return self.slopes[p], self._knots[q], self.breakpoints[q] if self.breakpoints else 0.0

    def _select(self, x: np.ndarray,
                split: Optional[int] = None) -> tuple[ArrayLike, ArrayLike, ArrayLike]:
        """`_piece` for an x that is empty, holds NaN or is split: the
        breakpoints are compared with x in turn.  One that no entry lies
        left of moves every entry to the next piece, one that every entry
        lies left of ends the scan, and only one that splits x selects per
        entry.  split is the index of a breakpoint `_span` found to split
        x: the scan starts there, in the piece of x's least entry, and
        selects at it without counting."""
        bps, sls, knots = self.breakpoints, self.slopes, self._knots
        p = split or 0
        q = max(p - 1, 0)  # pieces 0 and 1 share knot 0 and breakpoint 0
        slope, knot, ref = sls[p], knots[q], bps[q]
        for k in range(p, len(bps)):
            b = bps[k]
            left = x < b
            if k != split:
                n_left = np.count_nonzero(left)
                if n_left == left.size:
                    break
                if n_left == 0:
                    slope, knot, ref = sls[k + 1], knots[k], b
                    continue
            slope = np.where(left, slope, sls[k + 1])
            if k:
                knot = np.where(left, knot, knots[k])
                ref = np.where(left, ref, b)
        return slope, knot, ref

    def _span(self, x: np.ndarray) -> Optional[tuple[int, float, float, bool]]:
        """(p, lo, hi, split): the index p of the piece holding x's least
        entry, bounds lo <= x <= hi, and whether the breakpoint above piece
        p splits x; None when x is empty or holds NaN.

        lo is x's least entry and p = bisect_right(breakpoints, lo), its
        searchsorted(side="right") piece.  x's greatest entry is read as hi
        only when a breakpoint lies above lo, and breakpoint p splits x
        when hi reaches it; otherwise every entry lies in piece p.  With no
        breakpoint above lo, x is one piece and hi is +inf.  Without
        breakpoints p is 0 and x is not read.
        """
        bps = self.breakpoints
        if not bps:
            return 0, -np.inf, np.inf, False
        if not x.size:
            return None
        lo = float(x.min())
        if lo != lo:  # NaN
            return None
        p = bisect_right(bps, lo)
        if p == len(bps):
            return p, lo, np.inf, False
        hi = float(x.max())
        return p, lo, hi, hi >= bps[p]

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
        some breakpoint (exact hits are always flagged).  For a one-piece x
        whose bounds clear both neighbouring breakpoints by more than
        boundary_tol, the mask is all False with no per-breakpoint pass:
        rounding is monotone, so no entry's computed distance to a
        breakpoint is smaller than its bound's, and the breakpoints beyond
        the two neighbours are farther still.
        """
        x = np.asarray(x, dtype=float)
        span = self._span(x)
        slope = self._piece(x, span)[0]
        if isinstance(slope, float):
            slope = np.full(x.shape, slope)
        boundary = np.zeros(x.shape, dtype=bool)
        if span is not None and not span[3]:
            p, lo, hi, _ = span
            bps = self.breakpoints
            if ((p == 0 or lo - bps[p - 1] > boundary_tol)
                    and (p == len(bps) or bps[p] - hi > boundary_tol)):
                return slope, boundary
        d = np.empty(x.shape)
        for b in self.breakpoints:
            np.subtract(x, b, out=d)
            np.abs(d, out=d)
            boundary |= d <= boundary_tol
        return slope, boundary

    def reflect(self) -> "PiecewiseLinear":
        """The mirrored activation g(x) = h(-x)."""
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
    breakpoint has s₋ + s₊ = 0 (e.g. a|x|).  The cancellation test is exact,
    the same one the two-piece and balanced routes apply.
    """
    if not act.is_nonlinear:
        raise NoAdmissibleTurningPoint("activation is linear; no turning point exists")
    candidates = []
    bps = act.breakpoints
    for i, t in enumerate(bps):
        s_minus, s_plus = act.slopes[i], act.slopes[i + 1]
        if s_minus == s_plus or s_minus + s_plus == 0.0:
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
    "leaky:<s_minus>", or a dict {breakpoints, slopes, anchor}.  Any other
    spec, or a dict with a missing or malformed field, raises
    PreconditionViolated.
    """
    if isinstance(spec, dict):
        try:
            return PiecewiseLinear.from_dict(spec)
        except (KeyError, TypeError, ValueError) as exc:
            raise PreconditionViolated(f"malformed activation {spec!r}: {exc!r}") from None
    if not isinstance(spec, str):
        raise PreconditionViolated(f"activation spec must be a name or a dict, not {spec!r}")
    name = spec.strip().lower()
    if name in _PRESETS:
        return _PRESETS[name]()
    if name.startswith("leaky:"):
        try:
            s_minus = float(name.split(":", 1)[1])
        except ValueError:
            raise PreconditionViolated(
                f"bad activation spec {spec!r}; expected leaky:<s_minus>"
            ) from None
        return leaky_relu(s_minus)
    raise PreconditionViolated(f"unknown activation spec: {spec!r}")
