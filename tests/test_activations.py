import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurmin import (
    NoAdmissibleTurningPoint,
    PiecewiseLinear,
    PreconditionViolated,
    absolute_value,
    find_turning_point,
    parse_activation,
    relu,
    three_piece,
    two_piece,
)
from spurmin.activations import UNBOUNDED_SIGMA


def brute_eval(act: PiecewiseLinear, x: float) -> float:
    """Independent oracle: accumulate the value segment by segment from the anchor."""
    bps, slopes = act.breakpoints, act.slopes
    if not bps:
        return act.anchor + slopes[0] * x
    if x <= bps[0]:
        return act.anchor + slopes[0] * (x - bps[0])
    val = act.anchor
    for i in range(1, len(bps)):
        if x <= bps[i]:
            return val + slopes[i] * (x - bps[i - 1])
        val += slopes[i] * (bps[i] - bps[i - 1])
    return val + slopes[-1] * (x - bps[-1])


@st.composite
def activations(draw):
    n_bp = draw(st.integers(min_value=0, max_value=4))
    bps = sorted(draw(st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        min_size=n_bp, max_size=n_bp, unique=True,
    )))
    slopes = draw(st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        min_size=n_bp + 1, max_size=n_bp + 1,
    ))
    anchor = draw(st.floats(min_value=-2, max_value=2, allow_nan=False))
    return PiecewiseLinear(tuple(bps), tuple(slopes), anchor)


class TestEval:
    def test_relu_negative_branch(self):
        assert relu()(-3.0) == 0.0

    def test_two_piece_negative_slope(self):
        assert two_piece(0.5, 1.0)(-2.0) == -1.0

    def test_three_piece_accumulation(self):
        # hand oracle: 0 + 1*(1-0) + 0.5*(2-1)
        assert three_piece()(2.0) == pytest.approx(1.5, abs=1e-15)

    def test_vectorized_matches_scalar(self):
        act = three_piece()
        xs = np.linspace(-3, 3, 41)
        out = act(xs)
        for x, y in zip(xs, out):
            assert y == pytest.approx(act(float(x)), abs=0)

    @given(activations(), st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_accumulation(self, act, x):
        assert act(x) == pytest.approx(brute_eval(act, x), abs=1e-10)

    def test_two_piece_exact_branches(self):
        act = two_piece(-0.3, 2.0)
        for x in (-1.5, -0.1, 0.0):
            assert act(x) == -0.3 * x
        for x in (0.1, 2.5):
            assert act(x) == 2.0 * x


class TestSlopeAt:
    def test_relu_positive(self):
        slopes, on_bp = relu().piece_slopes(np.array([5.0]))
        assert (slopes.tolist(), on_bp.tolist()) == ([1.0], [False])

    def test_relu_breakpoint_right_slope_flagged(self):
        slopes, on_bp = relu().piece_slopes(np.array([0.0]))
        assert (slopes.tolist(), on_bp.tolist()) == ([1.0], [True])

    def test_three_piece_middle(self):
        slopes, on_bp = three_piece().piece_slopes(np.array([0.5]))
        assert (slopes.tolist(), on_bp.tolist()) == ([1.0], [False])

    def test_piece_slopes_boundary_tolerance(self):
        act = relu()
        slopes, on_bp = act.piece_slopes(np.array([[0.0, 1e-13, 1.0]]), boundary_tol=1e-12)
        assert slopes.tolist() == [[1.0, 1.0, 1.0]]
        assert on_bp.tolist() == [[True, True, False]]


class TestTurningPoint:
    def test_relu(self):
        tp = find_turning_point(relu())
        assert (tp.t, tp.s_minus, tp.s_plus) == (0.0, 0.0, 1.0)
        assert tp.sigma == UNBOUNDED_SIGMA

    def test_absolute_value_rejected(self):
        with pytest.raises(NoAdmissibleTurningPoint):
            find_turning_point(absolute_value())

    def test_three_piece(self):
        tp = find_turning_point(three_piece())
        assert (tp.t, tp.s_minus, tp.s_plus, tp.sigma) == (0.0, 0.2, 1.0, 1.0)

    def test_linear_rejected(self):
        with pytest.raises(NoAdmissibleTurningPoint):
            find_turning_point(PiecewiseLinear((), (2.0,), 0.0))

    def test_prefers_nonzero_right_slope(self):
        # breakpoint 0 has s+ = 0; breakpoint 1 is admissible with s+ != 0
        act = PiecewiseLinear((0.0, 1.0), (1.0, 0.0, 2.0), 0.0)
        tp = find_turning_point(act)
        assert tp.t == 1.0 and tp.s_plus == 2.0

    def test_balanced_interior_point_skipped(self):
        act = PiecewiseLinear((0.0, 1.0), (-1.0, 1.0, 3.0), 0.0)
        tp = find_turning_point(act)
        assert tp.t == 1.0  # 0 has -1 + 1 = 0


class TestProperties:
    @given(activations())
    @settings(max_examples=150, deadline=None)
    def test_continuity_at_breakpoints(self, act):
        for b in act.breakpoints:
            left = act(b - 1e-9)
            right = act(b + 1e-9)
            assert abs(left - right) <= 1e-8 * (1.0 + abs(act(b)))

    def test_continuity_tight(self):
        # evaluation AT a breakpoint agrees with both one-sided limits
        act = three_piece()
        for b in act.breakpoints:
            sl, _ = act.piece_slopes(np.array([b - 1e-9]))
            sr, _ = act.piece_slopes(np.array([b + 1e-9]))
            lim_left = act(b - 1e-9) + sl[0] * 1e-9
            lim_right = act(b + 1e-9) - sr[0] * 1e-9
            assert abs(lim_left - act(b)) <= 1e-12
            assert abs(lim_right - act(b)) <= 1e-12

    def test_local_two_piece_decomposition(self):
        # h(x) = h(t) + s-*(min(x-t,0)) + s+*(max(x-t,0)) on (t-sigma, t+sigma)
        rng = np.random.default_rng(0)
        for act in (relu(), three_piece(), two_piece(0.5, 2.0)):
            tp = find_turning_point(act)
            span = min(tp.sigma, 10.0)
            xs = tp.t + span * rng.uniform(-1, 1, size=1000)
            ht = act(tp.t)
            local = ht + tp.s_minus * np.minimum(xs - tp.t, 0) + tp.s_plus * np.maximum(xs - tp.t, 0)
            assert np.max(np.abs(act(xs) - local)) <= 1e-12

    @given(
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        st.floats(min_value=0.01, max_value=100, allow_nan=False),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_two_piece_positive_homogeneity(self, s_minus, c, x):
        act = two_piece(s_minus, s_minus + 1.0)
        assert act(c * x) == pytest.approx(c * act(x), rel=1e-12, abs=1e-12)

    @given(activations(), st.floats(min_value=-8, max_value=8, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_reflection_identity(self, act, x):
        assert act.reflect()(-x) == pytest.approx(act(x), rel=1e-9, abs=1e-9)

    def test_reflection_of_two_piece(self):
        ref = two_piece(0.5, 2.0).reflect()
        assert ref.breakpoints == (0.0,)
        assert ref.slopes == (-2.0, -0.5)
        assert ref.anchor == 0.0


class TestValidationAndSerde:
    def test_descending_breakpoints_rejected(self):
        with pytest.raises(PreconditionViolated):
            PiecewiseLinear((1.0, 0.0), (1.0, 1.0, 1.0), 0.0)

    def test_slope_count_rejected(self):
        with pytest.raises(PreconditionViolated):
            PiecewiseLinear((0.0,), (1.0,), 0.0)

    def test_linear_two_piece_rejected(self):
        with pytest.raises(PreconditionViolated):
            two_piece(1.0, 1.0)

    def test_roundtrip(self):
        act = three_piece()
        assert PiecewiseLinear.from_dict(act.as_dict()) == act

    def test_presets(self):
        assert parse_activation("relu") == relu()
        assert parse_activation("abs") == absolute_value()
        assert parse_activation("leaky:0.1") == two_piece(0.1, 1.0)
        assert parse_activation("threepiece") == three_piece()
        assert parse_activation({"breakpoints": [0.0], "slopes": [0.0, 1.0], "anchor": 0.0}) == relu()
        with pytest.raises(PreconditionViolated):
            parse_activation("nope")

    @pytest.mark.parametrize("spec", [
        "leaky:abc",
        {"breakpoints": [0.0]},
        {"breakpoints": [0.0], "slopes": [None, 1.0]},
        {"breakpoints": 0.0, "slopes": [0.0, 1.0]},
        [0.0, 1.0],
    ])
    def test_malformed_spec_is_precondition(self, spec):
        with pytest.raises(PreconditionViolated):
            parse_activation(spec)

    def test_nonlinearity_flag(self):
        assert relu().is_nonlinear
        assert not PiecewiseLinear((), (2.0,), 0.0).is_nonlinear
        assert not PiecewiseLinear((0.0,), (2.0, 2.0), 0.0).is_nonlinear


# Oracles: the former searchsorted forms of the two piece lookups.
def searchsorted_call(act, x):
    x = np.asarray(x, dtype=float)
    if not act.breakpoints:
        out = act.anchor + act.slopes[0] * x
        return out if out.ndim else float(out)
    bps, knots, slopes = (np.asarray(v) for v in (act.breakpoints, act._knots, act.slopes))
    p = np.searchsorted(bps, x, side="right")
    ref = np.clip(p - 1, 0, len(bps) - 1)
    out = knots[ref] + slopes[p] * (x - bps[ref])
    return out if out.ndim else float(out)


def searchsorted_piece_slopes(act, x, boundary_tol=0.0):
    x = np.asarray(x, dtype=float)
    if not act.breakpoints:
        return np.full(x.shape, act.slopes[0]), np.zeros(x.shape, dtype=bool)
    bps = np.asarray(act.breakpoints)
    p = np.searchsorted(bps, x, side="right")
    dist = np.min(np.abs(x[..., None] - bps), axis=-1)
    return np.asarray(act.slopes)[p], dist <= boundary_tol


def assert_same_bits(a, b):
    """Equal values, shapes and bytes, so signed zeros and NaNs match too."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def probe_points(act, tol):
    """Every breakpoint, its float neighbours, points within and at tol of
    it, and signed zeros."""
    pts = [0.0, -0.0]
    for b in act.breakpoints:
        pts += [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                b - tol, b + tol, b - 0.5 * tol, b + 0.5 * tol]
    return pts


class TestComparisonLookupMatchesSearchsorted:
    @given(
        act=activations(),
        xs=st.lists(st.floats(allow_nan=False, min_value=-1e6, max_value=1e6), max_size=30),
        tol=st.sampled_from([0.0, 1e-12, 1e-3, 0.7]),
        shape=st.sampled_from(["flat", "column", "stacked"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_arrays(self, act, xs, tol, shape):
        x = np.array(xs + probe_points(act, tol))
        if shape == "column":
            x = x[:, None]
        elif shape == "stacked":
            x = np.stack([x, -x, 2.0 * x])[:, None, :]
        assert_same_bits(act(x), searchsorted_call(act, x))
        slopes, boundary = act.piece_slopes(x, boundary_tol=tol)
        want_slopes, want_boundary = searchsorted_piece_slopes(act, x, boundary_tol=tol)
        assert_same_bits(slopes, want_slopes)
        assert_same_bits(boundary, want_boundary)

    @given(act=activations(), x=st.floats(allow_nan=False, min_value=-1e6, max_value=1e6),
           tol=st.sampled_from([0.0, 1e-12, 0.7]))
    @settings(max_examples=100, deadline=None)
    def test_scalars(self, act, x, tol):
        for v in [x, *probe_points(act, tol)]:
            for arg in (float(v), np.asarray(v), np.float64(v)):
                got, want = act(arg), searchsorted_call(act, arg)
                assert type(got) is type(want) is float
                assert_same_bits(got, want)
                for got_part, want_part in zip(act.piece_slopes(arg, tol),
                                               searchsorted_piece_slopes(act, arg, tol)):
                    assert_same_bits(got_part, want_part)

    def test_signed_zero_at_a_zero_breakpoint(self):
        for act in (relu(), two_piece(-0.5, 2.0), three_piece(), three_piece().reflect()):
            x = np.array([-0.0, 0.0])
            assert_same_bits(act(x), searchsorted_call(act, x))
            slopes, boundary = act.piece_slopes(x)
            want_slopes, want_boundary = searchsorted_piece_slopes(act, x)
            assert_same_bits(slopes, want_slopes)
            assert_same_bits(boundary, want_boundary)
            assert slopes[0] == slopes[1] and boundary[0] == boundary[1]

    def test_non_finite_inputs(self):
        x = np.array([np.nan, np.inf, -np.inf, 0.0])
        for act in (relu(), three_piece(), PiecewiseLinear((-1.0, 0.5, 2.0), (0.0, 1.0, -2.0, 0.5), 0.3)):
            with np.errstate(invalid="ignore"):
                assert_same_bits(act(x), searchsorted_call(act, x))
                for got, want in zip(act.piece_slopes(x, 0.1), searchsorted_piece_slopes(act, x, 0.1)):
                    assert_same_bits(got, want)


ONE_PIECE_ACTS = (
    relu(),
    two_piece(-0.5, 2.0),
    three_piece(),
    three_piece().reflect(),
    PiecewiseLinear((-1.0, 0.5, 2.0), (0.0, 1.0, -2.0, 0.5), 0.3),
)


def piece_points(act):
    """For each piece, points that lie in it and in no other: its left
    breakpoint (which belongs to it), points inside, and the float just
    below its right breakpoint."""
    edges = (-np.inf, *act.breakpoints, np.inf)
    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        if lo == -np.inf:
            pts = [hi - 1e6, hi - 7.5, hi - 0.25, np.nextafter(hi, -np.inf)]
        elif hi == np.inf:
            pts = [lo, np.nextafter(lo, np.inf), lo + 0.25, lo + 7.5, lo + 1e6]
        else:
            pts = [lo, np.nextafter(lo, np.inf), lo + 0.3 * (hi - lo), np.nextafter(hi, -np.inf)]
        pieces.append(np.array(pts))
    return pieces


def shaped(x):
    """x as a flat, a 2-d and a stacked (B, d, n) array."""
    return [x, np.stack([x, x[::-1]]), np.stack([x, x[::-1], x])[:, None, :]]


def assert_matches_oracles(act, x, tol=0.0):
    assert_same_bits(act(x), searchsorted_call(act, x))
    slopes, boundary = act.piece_slopes(x, boundary_tol=tol)
    want_slopes, want_boundary = searchsorted_piece_slopes(act, x, boundary_tol=tol)
    assert_same_bits(slopes, want_slopes)
    assert_same_bits(boundary, want_boundary)
    assert slopes.flags.writeable and slopes.flags.owndata


class TestOnePiecePath:
    """Inputs that lie wholly in one piece skip the select; they must still
    match the searchsorted oracles bit for bit."""

    @pytest.mark.parametrize("act", ONE_PIECE_ACTS)
    @pytest.mark.parametrize("tol", [0.0, 1e-12, 0.7])
    def test_each_piece(self, act, tol):
        for pts in piece_points(act):
            for x in shaped(pts):
                assert isinstance(act._piece(x)[0], float)  # no select ran
                assert_matches_oracles(act, x, tol)
            for v in pts:
                assert_matches_oracles(act, np.asarray(v), tol)
                assert_same_bits(act(np.float64(v)), searchsorted_call(act, np.float64(v)))

    @pytest.mark.parametrize("act", ONE_PIECE_ACTS)
    def test_exactly_at_a_breakpoint(self, act):
        for b in act.breakpoints:
            for x in shaped(np.full(5, b)):
                assert isinstance(act._piece(x)[0], float)
                assert_matches_oracles(act, x, 0.0)
                assert act.piece_slopes(x)[1].all()
        if 0.0 in act.breakpoints:
            for x in (np.full(4, -0.0), np.array([0.0, -0.0, -0.0, 0.0])):
                assert_matches_oracles(act, x, 0.0)

    @pytest.mark.parametrize("act", ONE_PIECE_ACTS)
    @pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 0, 5)])
    def test_empty(self, act, shape):
        assert_matches_oracles(act, np.empty(shape), 0.1)

    @pytest.mark.parametrize("act", ONE_PIECE_ACTS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, act, value):
        with np.errstate(invalid="ignore"):
            for x in [*shaped(np.full(3, value)), np.asarray(value)]:
                assert_matches_oracles(act, x, 0.1)

    @given(act=activations(), data=st.data(), tol=st.sampled_from([0.0, 1e-12, 0.7]),
           shape=st.sampled_from([(7,), (2, 7), (3, 1, 7)]))
    @settings(max_examples=200, deadline=None)
    def test_random_piece(self, act, data, tol, shape):
        edges = (-1e6, *act.breakpoints, 1e6)
        p = data.draw(st.integers(0, len(edges) - 2))
        lo, hi = edges[p], edges[p + 1]
        xs = data.draw(st.lists(
            st.floats(min_value=lo, max_value=hi, exclude_max=hi > lo),
            min_size=int(np.prod(shape)), max_size=int(np.prod(shape)),
        ))
        x = np.array(xs).reshape(shape)
        if act.breakpoints:
            assert isinstance(act._piece(x)[0], float)
        assert_matches_oracles(act, x, tol)

    def test_piece_slopes_returns_fresh_arrays(self):
        for act in (*ONE_PIECE_ACTS, PiecewiseLinear((), (2.0,), 0.0)):
            x = np.array([[3.0, 4.0], [5.0, 6.0]])
            first, _ = act.piece_slopes(x)
            first[...] = -1.0
            again, _ = act.piece_slopes(x)
            assert again.flags.writeable and again.flags.owndata
            assert not np.shares_memory(first, again)
            assert (again != -1.0).all()


class TestExtremesLookup:
    """The piece is found from x's least and greatest entries, and the
    boundary mask is skipped when both clear the neighbouring breakpoints;
    every case must still match the searchsorted oracles bit for bit."""

    @pytest.mark.parametrize("act", ONE_PIECE_ACTS)
    @pytest.mark.parametrize("tol", [1e-12, 1e-3, 0.7])
    def test_extreme_within_tol_of_a_neighbour_is_flagged(self, act, tol):
        # each piece's entries within tol/2 of its left or right breakpoint,
        # alone and beside an entry deep inside the piece
        edges = (-np.inf, *act.breakpoints, np.inf)
        for lo, hi in zip(edges, edges[1:]):
            deep = 0.5 * (lo + hi) if np.isfinite(lo + hi) else (hi - 5.0 if lo == -np.inf else lo + 5.0)
            near = [v for v in (lo + 0.5 * tol, hi - 0.5 * tol) if np.isfinite(v) and lo <= v < hi]
            for x in (np.array(near), np.array([*near, deep])):
                for xs in shaped(x):
                    assert not act._span(xs)[3]  # one piece: no select ran
                    assert_matches_oracles(act, xs, tol)
                    assert act.piece_slopes(xs, tol)[1].any()

    @pytest.mark.parametrize("act", ONE_PIECE_ACTS)
    def test_greatest_entry_at_a_breakpoint_splits(self, act):
        # the breakpoint belongs to the piece on its right
        for b in act.breakpoints:
            for x in shaped(np.array([b - 0.25, np.nextafter(b, -np.inf), b])):
                assert act._span(x)[3]
                for tol in (0.0, 1e-12):
                    assert_matches_oracles(act, x, tol)

    def test_extreme_at_exactly_tol_is_flagged(self):
        # |1e-12 - 0| == 1e-12: on the boundary, not clear of it
        x = np.array([1e-12, 2.0])
        assert relu().piece_slopes(x, boundary_tol=1e-12)[1].tolist() == [True, False]
        assert_matches_oracles(relu(), x, 1e-12)

    @pytest.mark.parametrize("act", ONE_PIECE_ACTS)
    def test_one_piece_values_with_a_nan(self, act):
        for pts in piece_points(act):
            for x in shaped(np.append(pts, np.nan)):
                assert act._span(x) is None
                with np.errstate(invalid="ignore"):
                    assert_matches_oracles(act, x, 0.1)

    @pytest.mark.parametrize("act", ONE_PIECE_ACTS)
    def test_infinite_extremes(self, act):
        first, last = act.breakpoints[0], act.breakpoints[-1]
        cases = [
            (np.array([-np.inf, first - 3.0]), 0),
            (np.array([last + 3.0, np.inf]), len(act.breakpoints)),
            (np.array([-np.inf, -np.inf]), 0),
            (np.array([np.inf, np.inf]), len(act.breakpoints)),
            (np.array([-np.inf, np.inf]), None),
        ]
        with np.errstate(invalid="ignore"):
            for x, piece in cases:
                for xs in shaped(x):
                    span = act._span(xs)
                    assert (None if span[3] else span[0]) == piece
                    for tol in (0.0, 0.7, np.inf):
                        assert_matches_oracles(act, xs, tol)

    @pytest.mark.parametrize("act", (*ONE_PIECE_ACTS, PiecewiseLinear((), (2.0,), 0.5)))
    @pytest.mark.parametrize("shape", [(0,), (4, 0), (3, 0, 6)])
    def test_empty(self, act, shape):
        x = np.empty(shape)
        span = act._span(x)
        assert span is None if act.breakpoints else span[0] == 0
        y = act(x)
        assert y.shape == shape and not np.shares_memory(y, x)
        slopes, boundary = act.piece_slopes(x, 0.1)
        assert slopes.shape == boundary.shape == shape

    @pytest.mark.parametrize("act, x", [
        (relu(), np.array([0.5, 2.0, 3.0])),  # ref +0.0, slope 1: only + knot
        (relu(), np.array([-0.5, -2.0])),  # ref +0.0, slope 0: * slope, + knot
        (two_piece(-0.5, 2.0), np.array([0.0, 1.5])),  # ref +0.0, slope 2
        (three_piece(), np.array([0.0, 0.25, 0.75])),  # middle piece: ref 0.0, slope 1
        (PiecewiseLinear((0.5,), (2.0, 1.0), 0.3), np.array([0.5, 4.0])),  # - ref, slope 1
        (PiecewiseLinear((), (1.0,), 0.0), np.array([-0.0, 0.0, np.inf])),  # identity
        (PiecewiseLinear((), (1.0,), -0.0), np.array([-0.0, 7.0])),  # + (-0.0) only
        (PiecewiseLinear((-0.0,), (0.0, 2.0), -0.0), np.array([-0.0, 0.0, 3.0])),  # ref -0.0
    ])
    def test_skipped_steps_never_alias_x(self, act, x):
        before = x.tobytes()
        for xs in shaped(x):
            xs_before = xs.tobytes()
            y = act(xs)
            assert y is not xs and not np.shares_memory(y, xs)
            assert xs.tobytes() == xs_before
            assert_same_bits(y, searchsorted_call(act, xs))
            y[...] = 99.0
            assert_same_bits(act(xs), searchsorted_call(act, xs))
        assert x.tobytes() == before
        for v in x:
            got = act(np.asarray(v))
            assert type(got) is float
            assert_same_bits(got, searchsorted_call(act, np.asarray(v)))

    def test_minus_zero_reference_is_subtracted(self):
        # -0.0 - (-0.0) = +0.0, then * 2 + (-0.0) stays +0.0; skipping the
        # subtraction would give -0.0
        act = PiecewiseLinear((-0.0,), (0.0, 2.0), -0.0)
        got = act(np.array([-0.0]))
        assert_same_bits(got, np.array([0.0]))
        assert_same_bits(got, searchsorted_call(act, np.array([-0.0])))


class TestSplitSelectStartsAtTheSpan:
    """A split input's select starts at the piece `_span` found for its
    least entry and selects at the breakpoint above it without counting;
    the values still match the searchsorted oracles and the full scan."""

    SPLIT_POOL_ACTS = (*ONE_PIECE_ACTS, PiecewiseLinear((-0.0,), (0.0, 2.0), -0.0))

    @pytest.mark.parametrize("act", SPLIT_POOL_ACTS)
    @pytest.mark.parametrize("seed", range(2))
    def test_fuzz_against_the_full_scan(self, act, seed):
        rng = np.random.default_rng(seed)
        bps = np.array(act.breakpoints)
        pool = np.concatenate([bps, np.nextafter(bps, -np.inf), np.nextafter(bps, np.inf),
                               bps + 1e-12, bps - 1e-12, bps + 0.3, bps - 0.3,
                               [0.0, -0.0, np.inf, -np.inf, 5e-324, -1e308, 1e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            for trial in range(40):
                n = int(rng.integers(2, 9))
                x = rng.choice(pool, n)
                if trial % 3 == 0:
                    x[rng.integers(n)] = np.nan
                for xs in shaped(x):
                    span = act._span(xs)
                    start = span[0] if span is not None and span[3] else None
                    for got, want in zip(act._select(xs, start), act._select(xs)):
                        assert_same_bits(np.asarray(got), np.asarray(want))
                    assert_matches_oracles(act, xs, (0.0, 1e-12, 0.7)[trial % 3])

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 0, 4)])
    def test_empty_scans_from_the_first_breakpoint(self, shape):
        act = ONE_PIECE_ACTS[-1]
        assert act._span(np.empty(shape)) is None
        assert_matches_oracles(act, np.empty(shape), 0.1)

    def test_breakpoints_below_the_least_entry_are_not_compared(self, monkeypatch):
        # breakpoints (-1, 0.5, 2): x's least entry lies in piece 1 and
        # breakpoint 0.5 splits it, so only breakpoint 2 is counted
        act = ONE_PIECE_ACTS[-1]
        x = np.array([0.0, 1.0, -0.5, 0.5])
        counted = []
        count_nonzero = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", lambda a: counted.append(a.size) or count_nonzero(a))
        span = act._span(x)
        assert span[:1] + span[3:] == (1, True)
        got = act(x)
        assert counted == [x.size]
        monkeypatch.undo()
        assert_same_bits(got, searchsorted_call(act, x))


LINEAR_ACTS = (
    PiecewiseLinear((), (1.0,), 0.0),
    PiecewiseLinear((), (-2.5,), 0.75),
    PiecewiseLinear((), (0.0,), -1.25),
    PiecewiseLinear((), (-0.0,), -0.0),
    PiecewiseLinear((), (3.0,), -0.0),
)

LINEAR_INPUTS = (
    0.5, -0.0, 0.0, float("nan"), float("inf"), -float("inf"),
    np.float64(-0.0), np.asarray(0.0), np.asarray(-np.inf), np.asarray(np.nan),
    np.zeros(0), np.zeros((2, 0)),
    np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -7.25]),
    np.array([[-0.0, 0.0], [np.inf, -3.0]]),
)


class TestLinearActivationSharesThePieceLookup:
    """An activation without breakpoints runs the same piece lookup as any
    other; its values must be those of anchor + slope * x, bit for bit."""

    @pytest.mark.parametrize("act", LINEAR_ACTS)
    def test_call(self, act):
        for x in LINEAR_INPUTS:
            with np.errstate(invalid="ignore"):
                got = act(x)
                want = act.anchor + act.slopes[0] * np.asarray(x, dtype=float)
            want = want if want.ndim else float(want)
            assert type(got) is type(want)
            assert_same_bits(got, want)

    @pytest.mark.parametrize("act", LINEAR_ACTS)
    def test_piece_slopes(self, act):
        for x in LINEAR_INPUTS:
            for tol in (0.0, 0.7):
                slopes, boundary = act.piece_slopes(x, boundary_tol=tol)
                assert_same_bits(slopes, np.full(np.shape(x), act.slopes[0]))
                assert_same_bits(boundary, np.zeros(np.shape(x), dtype=bool))

    @pytest.mark.parametrize("act", LINEAR_ACTS)
    def test_reflect(self, act):
        got = act.reflect()
        want = PiecewiseLinear((), (-act.slopes[0],), act.anchor)
        assert got == want
        assert_same_bits(got.slopes, want.slopes)
        assert_same_bits(got.anchor, want.anchor)
        assert got.breakpoints == ()


class TestOneCancellationRule:
    def test_near_cancelling_slopes_are_a_turning_point(self):
        # s- + s+ = 1e-12 is not 0: the same exact test as the routes use
        act = PiecewiseLinear((0.0,), (-1.0, 1.000000000001), 0.0)
        assert act.s_minus + act.s_plus != 0.0
        tp = find_turning_point(act)
        assert (tp.t, tp.s_minus, tp.s_plus) == (0.0, -1.0, 1.000000000001)

    def test_exactly_cancelling_slopes_are_not(self):
        for s in (1.0, 1.000000000001, 3e-300):
            with pytest.raises(NoAdmissibleTurningPoint, match="balanced"):
                find_turning_point(PiecewiseLinear((0.0,), (-s, s), 0.0))
