from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurmin import (
    Dataset,
    LossKind,
    NoAdmissibleTurningPoint,
    PiecewiseLinear,
    PreconditionViolated,
    SpurminError,
    WidthViolation,
    absolute_value,
    build_balanced_descent,
    build_deep_descent,
    build_deep_minimum,
    build_descent,
    build_general_descent,
    build_general_minimum,
    build_minimum,
    build_shallow_descent,
    build_shallow_minimum,
    empirical_risk,
    enumerate_family,
    fit_linear,
    forward,
    leaky_relu,
    params_distance,
    relu,
    three_piece,
    two_piece,
    xor_dataset,
)
from spurmin import construction
from spurmin.activations import find_turning_point
from spurmin.verification import trace_interval_check
from spurmin.linear_fit import permute_fit_rows, select_nonzero_residual_row
from spurmin.separation import separate, shifted_keys

from conftest import random_two_output_dataset

SQ = LossKind.SQUARED


class TestShallowMinimum:
    def test_xor_default_parameters(self, xor, xor_fit, relu_act):
        point = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act)
        assert point.kind == "minimum" and point.stage == "1"
        assert point.risk == pytest.approx(0.125, abs=1e-9)
        assert point.spurious
        # eta defaults to min(0, min prediction) - 1 = -1 on this fixture
        assert point.params.eta == -1.0
        assert np.allclose(point.net.weights[0], 0.0, atol=1e-12)
        assert np.allclose(point.net.biases[0], [1.5, 1.0, 1.0], atol=1e-12)
        assert np.allclose(point.net.weights[1], [[1.0, 0.0, 0.0]], atol=1e-12)
        assert np.allclose(point.net.biases[1], [-1.0], atol=1e-12)
        out = forward(point.net, xor.X).output
        assert np.max(np.abs(out - 0.5)) <= 1e-12

    def test_family_member_same_risk(self, xor, xor_fit, relu_act):
        deep_eta = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act, eta=-10.0)
        assert np.allclose(deep_eta.net.biases[0], [10.5, 10.0, 10.0], atol=1e-12)
        assert np.allclose(deep_eta.net.biases[1], [-10.0], atol=1e-12)
        assert deep_eta.risk == pytest.approx(0.125, abs=1e-9)

    def test_pre_activations_strictly_positive(self, xor, xor_fit, relu_act):
        point = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act)
        assert np.all(forward(point.net, xor.X).pre[0] > 0)

    def test_zero_residual_not_spurious(self, rng):
        X = rng.standard_normal((2, 5))
        data = Dataset(X, (X[0] - 0.5 * X[1] + 1.0)[None, :])
        fit = fit_linear(data, SQ)
        point = build_shallow_minimum(fit, data, (2, 3, 1), relu())
        assert point.risk <= 1e-18
        assert not point.spurious

    def test_width_violation(self, xor, xor_fit, relu_act):
        with pytest.raises(WidthViolation):
            build_shallow_minimum(xor_fit, xor, (2, 1, 1), relu_act)


class TestShallowDescent:
    def test_xor_strict_decrease(self, xor, xor_fit, relu_act):
        w = build_shallow_descent(xor_fit, xor, (2, 3, 1), relu_act)
        assert w.kind == "descent_witness"
        assert w.risk < 0.125 - 1e-6
        assert w.params.gamma > 0  # drive = slope_ratio * sum_I(u) = 0.5 > 0

    def test_xor_frozen_oracle_values(self, xor, xor_fit, relu_act):
        # closed form on this fixture with gamma = alpha/4: predictions are
        # 0.5 - 2.25a at (1,1), 0.5 + 0.25a at (0,0), 0.5 - 0.75a at the two
        # label-1 corners, so risk(a) = (1 - a/2 + 6.25 a^2) / 8; the halving
        # search lands on a = 1/16
        w = build_shallow_descent(xor_fit, xor, (2, 3, 1), relu_act)
        a = w.params.alpha
        assert a == 0.0625
        assert w.params.gamma == pytest.approx(a / 4, abs=1e-12)
        oracle = (1.0 - 0.5 * a + 6.25 * a * a) / 8.0
        assert w.risk == pytest.approx(oracle, abs=1e-15)
        assert w.risk == pytest.approx(0.1241455078125, abs=1e-12)

    def test_first_row_output_formula(self, xor, xor_fit, relu_act):
        # oracle: yhat_1j = v_j - a*beta.x_j -/+ slope_ratio*gamma across the split
        w = build_shallow_descent(xor_fit, xor, (2, 3, 1), relu_act)
        a, g = w.params.alpha, w.params.gamma
        u, v = xor_fit.v[0], xor_fit.y_tilde[0]
        res = separate(u, v, xor.X)
        keys = shifted_keys(res, v, xor.X, a)
        out = forward(w.net, xor.X).output[0]
        expected = np.empty(4)
        for pos, sample in enumerate(res.perm):
            sign = -1.0 if pos < res.l_prime else 1.0
            expected[sample] = keys[pos] + sign * 1.0 * g  # slope_ratio = 1 for relu
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_gamma_flip_increases_risk(self, xor, xor_fit, relu_act):
        from spurmin.construction import _shallow_descent_params, _default_eta_rest
        from spurmin.separation import descent_constants_at
        from spurmin import Mlp

        u, v = xor_fit.v[0], xor_fit.y_tilde[0]
        res = separate(u, v, xor.X)
        good = build_shallow_descent(xor_fit, xor, (2, 3, 1), relu_act)
        c = descent_constants_at(res, u, v, xor.X, 1.0, good.params.alpha)
        flipped = type(c)(alpha=c.alpha, gamma=-c.gamma, eta1=c.eta1, midgap=c.midgap, margin=c.margin)
        W1, b1, W2, b2 = _shallow_descent_params(
            xor_fit, (2, 3, 1), 0.0, 1.0, res.beta, flipped, _default_eta_rest(xor_fit)
        )
        net = Mlp((2, 3, 1), (W1, W2), (b1, b2), relu_act)
        assert empirical_risk(net, xor, SQ) > xor_fit.risk

    def test_multi_output_other_rows_exact(self):
        data = random_two_output_dataset(seed=3)
        fit = fit_linear(data, SQ)
        w = build_shallow_descent(fit, data, (2, 4, 2), two_piece(0.25, 1.0))
        assert w.risk < fit.risk - 1e-12
        out = forward(w.net, data.X).output
        k, _ = select_nonzero_residual_row(fit, data)
        other = [i for i in range(2) if i != k]
        # untouched rows reproduce the baseline predictions exactly
        assert np.max(np.abs(out[other] - fit.y_tilde[other])) <= 1e-12

    def test_zero_padded_row_with_extra_width(self, xor, xor_fit, relu_act):
        w = build_shallow_descent(xor_fit, xor, (2, 5, 1), relu_act)
        assert w.risk < 0.125
        assert np.allclose(w.net.weights[0][2:], 0.0)

    def test_balanced_slopes_rejected(self, xor, xor_fit):
        with pytest.raises(NoAdmissibleTurningPoint):
            build_shallow_descent(xor_fit, xor, (2, 3, 1), absolute_value())


class TestDeepRoutes:
    def test_deep_minimum_xor(self, xor, xor_fit, relu_act):
        point = build_deep_minimum(xor_fit, xor, (2, 3, 3, 1), relu_act)
        trace = forward(point.net, xor.X)
        assert point.risk == pytest.approx(0.125, abs=1e-9)
        assert np.max(np.abs(trace.output - 0.5)) <= 1e-12
        for z in trace.hidden_pre:
            assert np.all(z > 0)

    def test_depth_independence(self, xor, xor_fit, relu_act):
        deeper = build_deep_minimum(xor_fit, xor, (2, 3, 3, 3, 1), relu_act)
        assert deeper.risk == pytest.approx(0.125, abs=1e-9)

    def test_leaky_scaling_cancels(self, xor, xor_fit):
        point = build_deep_minimum(xor_fit, xor, (2, 3, 3, 1), two_piece(0.5, 2.0))
        assert np.max(np.abs(forward(point.net, xor.X).output - 0.5)) <= 1e-12

    def test_deep_descent_matches_shallow(self, xor, xor_fit, relu_act):
        shallow = build_shallow_descent(xor_fit, xor, (2, 3, 1), relu_act)
        deep = build_deep_descent(xor_fit, xor, (2, 3, 3, 1), relu_act)
        assert abs(deep.risk - shallow.risk) <= 1e-12
        out_s = forward(shallow.net, xor.X).output
        out_d = forward(deep.net, xor.X).output
        assert np.max(np.abs(out_s - out_d)) <= 1e-12

    def test_lambda_doubling_same_output(self, xor, xor_fit, relu_act):
        d1 = build_deep_descent(xor_fit, xor, (2, 3, 3, 1), relu_act)
        d2 = build_deep_descent(
            xor_fit, xor, (2, 3, 3, 1), relu_act, lambda_shift=2.0 * d1.params.lambda_shift
        )
        assert np.max(np.abs(forward(d1.net, xor.X).output - forward(d2.net, xor.X).output)) <= 1e-12

    def test_lambda_default_on_positive_output(self, xor, xor_fit, relu_act):
        # the shallow witness output is strictly positive here, so the
        # max(0, -min) branch collapses and lambda = 1
        d = build_deep_descent(xor_fit, xor, (2, 3, 3, 1), relu_act)
        assert d.params.lambda_shift == 1.0


class TestGeneralRoute:
    def test_three_piece_minimum_interval(self, xor, xor_fit):
        point = build_general_minimum(xor_fit, xor, (2, 3, 3, 1), three_piece())
        trace = forward(point.net, xor.X)
        assert point.risk == pytest.approx(0.125, abs=1e-9)
        assert np.max(np.abs(trace.output - 0.5)) <= 1e-12
        for z in trace.hidden_pre:
            assert np.all(z > 0.0) and np.all(z < 1.0)

    def test_alpha_scale_family(self, xor, xor_fit):
        p1 = build_general_minimum(xor_fit, xor, (2, 3, 3, 1), three_piece(), alpha_scales=(0.25,))
        p2 = build_general_minimum(xor_fit, xor, (2, 3, 3, 1), three_piece(), alpha_scales=(0.5,))
        assert params_distance(p1.net, p2.net) > 1e-3
        assert np.max(np.abs(forward(p1.net, xor.X).output - forward(p2.net, xor.X).output)) <= 1e-12

    def test_relu_through_general_route(self, xor, xor_fit, relu_act):
        general = build_general_minimum(xor_fit, xor, (2, 3, 3, 1), relu_act)
        deep = build_deep_minimum(xor_fit, xor, (2, 3, 3, 1), relu_act)
        assert np.max(np.abs(
            forward(general.net, xor.X).output - forward(deep.net, xor.X).output
        )) <= 1e-12

    def test_descent_matches_local_two_piece_chain(self, xor, xor_fit):
        w3 = build_general_descent(xor_fit, xor, (2, 3, 3, 1), three_piece())
        w1 = build_shallow_descent(xor_fit, xor, (2, 3, 1), two_piece(0.2, 1.0))
        assert abs(w3.risk - w1.risk) <= 1e-10
        assert w3.risk < 0.125 - 1e-12

    def test_m_scaling_same_output(self, xor, xor_fit):
        w_def = build_general_descent(xor_fit, xor, (2, 3, 3, 1), three_piece())
        w_big = build_general_descent(
            xor_fit, xor, (2, 3, 3, 1), three_piece(), m_scale=3.0 * w_def.params.m_scale
        )
        assert np.max(np.abs(
            forward(w_def.net, xor.X).output - forward(w_big.net, xor.X).output
        )) <= 1e-12

    def test_tiny_sigma_still_consistent(self, xor, xor_fit):
        # a breakpoint squeezed to width 1e-12 forces a huge scale M; the
        # outputs stay equal to the unsqueezed chain within conditioning
        act = type(three_piece())((0.0, 1e-12), (0.2, 1.0, 0.5), 0.0)
        w = build_general_descent(xor_fit, xor, (2, 3, 3, 1), act)
        ref = build_shallow_descent(xor_fit, xor, (2, 3, 1), two_piece(0.2, 1.0))
        assert abs(w.risk - ref.risk) <= 1e-9
        assert w.params.m_scale > 1e10

    def test_abs_rejected(self, xor, xor_fit):
        with pytest.raises(NoAdmissibleTurningPoint):
            build_general_minimum(xor_fit, xor, (2, 3, 3, 1), absolute_value())


class TestBalancedRoute:
    def test_xor_witness(self, xor, xor_fit):
        w = build_balanced_descent(xor_fit, xor, (2, 4, 1), absolute_value())
        assert w.risk < 0.125 - 1e-12
        assert w.spurious
        # sign rule: sgn(gamma) = sgn(sum_I u) = +1 on this fixture
        assert w.params.gamma > 0
        # hand oracle: gamma = 1/4 shifts predictions to 0.25/0.75, so the
        # risk is (0.0625 + 0.5625 + 2 * 0.0625) / 8 = 3/32
        assert w.params.gamma == pytest.approx(0.25, abs=1e-12)
        assert w.risk == pytest.approx(0.09375, abs=1e-12)

    def test_gamma_zero_boundary_control(self, xor, xor_fit):
        w = build_balanced_descent(xor_fit, xor, (2, 4, 1), absolute_value(), gamma=0.0)
        assert w.risk == pytest.approx(xor_fit.risk, abs=1e-12)
        assert not w.spurious

    def test_width_violation(self, xor, xor_fit):
        with pytest.raises(WidthViolation):
            build_balanced_descent(xor_fit, xor, (2, 2, 1), absolute_value())

    def test_first_row_shift_oracle(self, xor, xor_fit):
        # outputs are exactly baseline -/+ gamma across the split
        w = build_balanced_descent(xor_fit, xor, (2, 4, 1), absolute_value())
        g = w.params.gamma
        u, v = xor_fit.v[0], xor_fit.y_tilde[0]
        res = separate(u, v, xor.X)
        out = forward(w.net, xor.X).output[0]
        expected = np.empty(4)
        for pos, sample in enumerate(res.perm):
            expected[sample] = v[sample] + (-g if pos < res.l_prime else g)
        assert np.max(np.abs(out - expected)) <= 1e-12


class TestNegativeSlopePair:
    def test_all_routes_consistent(self, xor, xor_fit):
        act = two_piece(-0.5, 1.0)
        m = build_shallow_minimum(xor_fit, xor, (2, 3, 1), act)
        w1 = build_shallow_descent(xor_fit, xor, (2, 3, 1), act)
        w2 = build_deep_descent(xor_fit, xor, (2, 3, 3, 1), act)
        w3 = build_general_descent(xor_fit, xor, (2, 3, 3, 1), act)
        assert m.risk == pytest.approx(0.125, abs=1e-9)
        assert w1.risk < 0.125 - 1e-12
        assert abs(w1.risk - w2.risk) <= 1e-12
        assert abs(w1.risk - w3.risk) <= 1e-10


class TestReflection:
    def test_zero_right_slope_minimum(self, xor, xor_fit):
        point = build_shallow_minimum(xor_fit, xor, (2, 3, 1), two_piece(1.0, 0.0))
        assert point.risk == pytest.approx(0.125, abs=1e-9)

    def test_zero_right_slope_descent(self, xor, xor_fit):
        w = build_shallow_descent(xor_fit, xor, (2, 3, 1), two_piece(1.0, 0.0))
        assert w.risk < 0.125 - 1e-12

    def test_reflected_pair_same_risk(self, xor, xor_fit):
        for builder in (build_shallow_minimum, build_shallow_descent):
            a = builder(xor_fit, xor, (2, 3, 1), two_piece(0.5, 2.0))
            b = builder(xor_fit, xor, (2, 3, 1), two_piece(-2.0, -0.5))
            assert abs(a.risk - b.risk) <= 1e-12

    def test_deep_reflection(self, xor, xor_fit):
        a = build_deep_descent(xor_fit, xor, (2, 3, 3, 1), two_piece(1.0, 0.0))
        b = build_deep_descent(xor_fit, xor, (2, 3, 3, 1), two_piece(0.0, -1.0))
        assert a.risk < 0.125
        assert abs(a.risk - b.risk) <= 1e-12


class TestFamilyAndRouting:
    def test_family_distinct_equal_risk(self, xor, xor_fit, relu_act):
        members = enumerate_family(xor_fit, xor, (2, 3, 3, 1), relu_act, k=10, seed=7)
        assert len(members) == 10
        for m in members:
            assert m.risk == pytest.approx(0.125, abs=1e-9)
        dists = [
            params_distance(a.net, b.net)
            for i, a in enumerate(members)
            for b in members[i + 1 :]
        ]
        assert min(dists) > 1e-6

    def test_family_k1_is_default(self, xor, xor_fit, relu_act):
        only = enumerate_family(xor_fit, xor, (2, 3, 3, 1), relu_act, k=1, seed=7)[0]
        default = build_general_minimum(xor_fit, xor, (2, 3, 3, 1), relu_act)
        assert params_distance(only.net, default.net) == 0.0

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("seed", [-1, 2.5, True, "7"])
    def test_family_bad_seed_rejected_before_any_member(self, xor, xor_fit, relu_act, k, seed):
        with mock.patch.object(construction, "_general_minimum", side_effect=AssertionError):
            with pytest.raises(PreconditionViolated, match="seed must be"):
                enumerate_family(xor_fit, xor, (2, 3, 3, 1), relu_act, k=k, seed=seed)

    def test_family_numpy_integer_seed_accepted(self, xor, xor_fit, relu_act):
        a = enumerate_family(xor_fit, xor, (2, 3, 3, 1), relu_act, k=3, seed=np.int64(11))
        b = enumerate_family(xor_fit, xor, (2, 3, 3, 1), relu_act, k=3, seed=11)
        for ma, mb in zip(a, b):
            assert params_distance(ma.net, mb.net) == 0.0

    def test_family_determinism(self, xor, xor_fit, relu_act):
        a = enumerate_family(xor_fit, xor, (2, 3, 3, 1), relu_act, k=4, seed=11)
        b = enumerate_family(xor_fit, xor, (2, 3, 3, 1), relu_act, k=4, seed=11)
        for ma, mb in zip(a, b):
            assert params_distance(ma.net, mb.net) == 0.0

    def test_auto_routing(self, xor, xor_fit):
        assert build_minimum(xor_fit, xor, (2, 3, 1), relu()).stage == "1"
        assert build_minimum(xor_fit, xor, (2, 3, 3, 1), relu()).stage == "2"
        assert build_minimum(xor_fit, xor, (2, 3, 3, 1), three_piece()).stage == "3"
        assert build_descent(xor_fit, xor, (2, 4, 1), absolute_value()).stage == "corollary"


class TestSharedScaffold:
    @pytest.mark.parametrize(
        "act", [relu(), leaky_relu(0.3), two_piece(1.0, 0.0)], ids=["relu", "leaky", "reflected"]
    )
    def test_shallow_minimum_is_the_deep_one_at_one_hidden_layer(self, xor, xor_fit, act):
        shallow = build_shallow_minimum(xor_fit, xor, (2, 3, 1), act)
        deep = build_deep_minimum(xor_fit, xor, (2, 3, 1), act)
        for a, b in zip(shallow.net.weights + shallow.net.biases, deep.net.weights + deep.net.biases):
            assert np.array_equal(a, b)

    # turning points with h(t) != 0 run the squeeze's h(t) back-off; the
    # second activation has a zero right slope, so it is built reflected and
    # its pre-activations land in the mirrored interval (-t - sigma, -t)
    @pytest.mark.parametrize(
        "act, sign",
        [
            (PiecewiseLinear((0.8,), (0.3, 0.7), 1.3), 1.0),
            (PiecewiseLinear((0.45,), (0.29, 0.0), -0.71), -1.0),
        ],
        ids=["offset", "offset_reflected"],
    )
    @pytest.mark.parametrize("dims", [(2, 3, 3, 1), (2, 3, 3, 3, 1)], ids=["depth3", "depth4"])
    def test_general_route_with_nonzero_h_at_t(self, xor, xor_fit, act, sign, dims):
        minimum = build_general_minimum(xor_fit, xor, dims, act)
        tp = minimum.params.turning
        assert float((act if sign > 0 else act.reflect())(tp.t)) != 0.0
        assert abs(minimum.risk - xor_fit.risk) <= 1e-9
        for z in forward(minimum.net, xor.X).hidden_pre:
            assert np.all(sign * z > tp.t) and np.all(sign * z < tp.t + tp.sigma)

        witness = build_general_descent(xor_fit, xor, dims, act)
        assert witness.risk < xor_fit.risk - 1e-12

        family = enumerate_family(xor_fit, xor, dims, act, k=4, seed=5)
        for m in family:
            assert abs(m.risk - xor_fit.risk) <= 1e-9
        assert min(
            params_distance(a.net, b.net) for i, a in enumerate(family) for b in family[i + 1 :]
        ) > 1e-6


class TestLinearActivationsRejected:
    def test_constant_activation_on_the_deep_route(self, xor, xor_fit):
        constant = PiecewiseLinear((0.0,), (0.0, 0.0), 0.0)
        with pytest.raises(PreconditionViolated):
            build_minimum(xor_fit, xor, (2, 3, 3, 1), constant)

    @pytest.mark.parametrize("slopes", [(1.0, 1.0), (0.0, 0.0), (-0.5, -0.5)])
    @pytest.mark.parametrize("dims", [(2, 4, 1), (2, 3, 3, 1)])
    def test_every_two_piece_shaped_route(self, xor, xor_fit, slopes, dims):
        act = PiecewiseLinear((0.0,), slopes, 0.0)
        builders = [build_minimum, build_descent, build_shallow_minimum, build_deep_minimum,
                    build_shallow_descent, build_deep_descent, build_balanced_descent,
                    build_general_minimum, build_general_descent]
        for build in builders:
            with pytest.raises(PreconditionViolated):
                build(xor_fit, xor, dims, act)
        with pytest.raises(PreconditionViolated):
            enumerate_family(xor_fit, xor, dims, act, k=2)


SLOPES = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 0.2, 2.0]) | st.floats(-3.0, 3.0)
COORDS = st.floats(-2.0, 2.0)


@st.composite
def route_activations(draw):
    """Two-piece activations at the origin (equal, balanced and zero right
    slopes included) or up to three random breakpoints with any anchor."""
    if draw(st.booleans()):
        s_minus = draw(SLOPES)
        s_plus = draw(st.sampled_from([s_minus, -s_minus, 0.0]) | SLOPES)
        return PiecewiseLinear((0.0,), (s_minus, s_plus), 0.0)
    bps = sorted(draw(st.lists(COORDS, min_size=1, max_size=3, unique=True)))
    slopes = draw(st.lists(SLOPES, min_size=len(bps) + 1, max_size=len(bps) + 1))
    return PiecewiseLinear(tuple(bps), tuple(slopes), draw(st.just(0.0) | COORDS))


@settings(max_examples=40, deadline=None)
@given(
    act=route_activations(),
    depth=st.integers(1, 3),
    extra_width=st.integers(1, 2),
    two_outputs=st.booleans(),
)
def test_routes_meet_postconditions_or_raise_typed(act, depth, extra_width, two_outputs):
    data = random_two_output_dataset() if two_outputs else xor_dataset()
    fit = fit_linear(data, SQ)
    dims = (data.d_x, *[data.d_y + extra_width] * depth, data.d_y)
    for build in (build_minimum, build_descent):
        try:
            point = build(fit, data, dims, act)
        except SpurminError:
            continue
        assert np.isfinite(point.risk)
        assert all(np.all(np.isfinite(p)) for p in point.net.weights + point.net.biases)
        if point.kind == "minimum":
            assert abs(point.risk - fit.risk) <= 1e-9
        else:
            assert point.risk < fit.risk - 1e-12


@pytest.mark.parametrize("s_minus, depth", [(5e-324, 2), (-5e-324, 3)])
def test_subnormal_slope_raises_typed(s_minus, depth):
    # 1 / s_minus overflows in the reflected frame; the NaN risk and the
    # infinite weights must fail the postconditions, not slip past them
    data = xor_dataset()
    fit = fit_linear(data, SQ)
    act = PiecewiseLinear((0.0,), (s_minus, 0.0), 0.0)
    with np.errstate(all="ignore"), pytest.raises(SpurminError):
        build_minimum(fit, data, (2, *[2] * depth, 1), act)


@pytest.mark.parametrize("slopes, dims, stage, slope_name", [
    ((5e-324, 0.0), (2, 3, 1), "1", "right slope s_plus of the build frame"),
    ((0.0, 5e-324), (2, 3, 3, 1), "2", "right slope s_plus of the build frame"),
    ((-(3e-308 - 5e-324), 3e-308), (2, 3, 1), "1", "slope sum s_minus \\+ s_plus"),
    ((-5e-324, 5e-324), (2, 4, 1), "corollary", "right slope s_plus"),
    ((0.2, 5e-324), (2, 3, 3, 1), "3", "right slope s_plus of the build frame"),
], ids=["shallow", "deep-reflected", "shallow-slope-sum", "balanced", "general"])
def test_witness_rejects_a_slope_without_finite_reciprocal(slopes, dims, stage, slope_name):
    data = xor_dataset()
    fit = fit_linear(data, SQ)
    act = PiecewiseLinear((0.0,), slopes, 0.0)
    with np.errstate(all="raise"), pytest.raises(PreconditionViolated, match=slope_name):
        build_descent(fit, data, dims, act, stage=stage)


def _own_frame_interval(act):
    """The interval a minimum's hidden pre-activations occupy, read off the
    activation itself: right of the turning point, or left of it when the
    right slope is zero and the build is reflected."""
    if act.is_two_piece:
        return (0.0, np.inf) if act.s_plus != 0.0 else (-np.inf, 0.0)
    tp = find_turning_point(act)
    return (tp.t, tp.t + tp.sigma) if tp.s_plus != 0.0 else (tp.t - tp.sigma, tp.t)


@pytest.mark.parametrize("stage, dims", [("1", (2, 3, 1)), ("2", (2, 3, 3, 1))])
@pytest.mark.parametrize("slopes", [(0.0, 1.0), (1.0, 0.0), (-1.0, 0.0), (0.2, 1.0)])
def test_two_piece_minimum_keeps_its_interval_certificate(xor, xor_fit, stage, dims, slopes):
    act = PiecewiseLinear((0.0,), slopes, 0.0)
    point = build_minimum(xor_fit, xor, dims, act, stage=stage)
    want = trace_interval_check(forward(point.net, xor.X), *_own_frame_interval(act))
    assert want.verdict
    assert point.interval == want
    assert "interval" not in point.as_dict()


@pytest.mark.parametrize("act", [
    three_piece(),
    PiecewiseLinear((0.0, 1.0), (1.0, -1.0, 0.0), 0.0),  # turning point at 1, reflected
])
def test_general_minimum_keeps_its_interval_certificate(xor, xor_fit, act):
    for point in [build_minimum(xor_fit, xor, (2, 3, 3, 1), act, stage="3"),
                  *enumerate_family(xor_fit, xor, (2, 3, 3, 1), act, k=3)]:
        want = trace_interval_check(forward(point.net, xor.X), *_own_frame_interval(act))
        assert want.verdict
        assert point.interval == want


def test_witness_has_no_interval_certificate(xor, xor_fit, relu_act):
    assert build_descent(xor_fit, xor, (2, 3, 1), relu_act).interval is None
