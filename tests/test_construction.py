import dataclasses
import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurmin import (
    Dataset,
    LossKind,
    Mlp,
    NoAdmissibleTurningPoint,
    PiecewiseLinear,
    PreconditionViolated,
    SpurminError,
    WidthViolation,
    absolute_value,
    build_descent,
    build_minimum,
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
from spurmin import construction, verification
from spurmin.activations import find_turning_point, parse_activation
from spurmin.network import risk_of_outputs
from spurmin.verification import (_risk_match, descent_gap_certificate, trace_interval_check,
                                  witness_pair_certificate)
from spurmin.linear_fit import permute_fit_rows, select_nonzero_residual_row
from spurmin.separation import separate, shifted_keys
from spurmin import ConstructionError, StrictDecreaseNotAchieved, check_assumptions
from spurmin.separation import MAX_HALVINGS, admissible_constants

from conftest import random_two_output_dataset
from pins import load_pins, sorted_key_hash

SQ = LossKind.SQUARED
PINS = load_pins()


class TestShallowMinimum:
    def test_xor_default_parameters(self, xor, xor_fit, relu_act):
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
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

    @pytest.mark.parametrize("eta", [-10.0, -2.5, -1.0, -0.25])
    def test_family_member_same_risk(self, xor, xor_fit, relu_act, eta):
        # any negative shift eta moves the biases and keeps the risk
        weights, biases = construction._minimum_layers(xor_fit, (2, 3, 1), 1.0, eta)
        assert np.allclose(biases[0], [0.5 - eta, -eta, -eta], atol=1e-12)
        assert np.allclose(biases[1], [eta], atol=1e-12)
        deep_eta = Mlp((2, 3, 1), tuple(weights), tuple(biases), relu_act)
        assert empirical_risk(deep_eta, xor, SQ) == pytest.approx(0.125, abs=1e-9)

    def test_pre_activations_strictly_positive(self, xor, xor_fit, relu_act):
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        assert np.all(forward(point.net, xor.X).pre[0] > 0)

    def test_zero_residual_not_spurious(self, rng):
        X = rng.standard_normal((2, 5))
        data = Dataset(X, (X[0] - 0.5 * X[1] + 1.0)[None, :])
        fit = fit_linear(data, SQ)
        point = build_minimum(fit, data, (2, 3, 1), relu(), stage="1")
        assert point.risk <= 1e-18
        assert not point.spurious

    def test_width_violation(self, xor, xor_fit, relu_act):
        with pytest.raises(WidthViolation):
            build_minimum(xor_fit, xor, (2, 1, 1), relu_act, stage="1")


class TestShallowDescent:
    def test_xor_strict_decrease(self, xor, xor_fit, relu_act):
        w = build_descent(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        assert w.kind == "descent_witness"
        assert w.risk < 0.125 - 1e-6
        assert w.params.gamma > 0  # drive = slope_ratio * sum_I(u) = 0.5 > 0

    def test_xor_frozen_oracle_values(self, xor, xor_fit, relu_act):
        # closed form on this fixture with gamma = alpha/4: predictions are
        # 0.5 - 2.25a at (1,1), 0.5 + 0.25a at (0,0), 0.5 - 0.75a at the two
        # label-1 corners, so risk(a) = (1 - a/2 + 6.25 a^2) / 8; the halving
        # search lands on a = 1/16
        w = build_descent(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        a = w.params.alpha
        assert a == 0.0625
        assert w.params.gamma == pytest.approx(a / 4, abs=1e-12)
        oracle = (1.0 - 0.5 * a + 6.25 * a * a) / 8.0
        assert w.risk == pytest.approx(oracle, abs=1e-15)
        assert w.risk == pytest.approx(0.1241455078125, abs=1e-12)

    def test_first_row_output_formula(self, xor, xor_fit, relu_act):
        # oracle: yhat_1j = v_j - a*beta.x_j -/+ slope_ratio*gamma across the split
        w = build_descent(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
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
        good = build_descent(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
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
        w = build_descent(fit, data, (2, 4, 2), two_piece(0.25, 1.0), stage="1")
        assert w.risk < fit.risk - 1e-12
        out = forward(w.net, data.X).output
        k, _ = select_nonzero_residual_row(fit, data)
        other = [i for i in range(2) if i != k]
        # untouched rows reproduce the baseline predictions exactly
        assert np.max(np.abs(out[other] - fit.y_tilde[other])) <= 1e-12

    def test_zero_padded_row_with_extra_width(self, xor, xor_fit, relu_act):
        w = build_descent(xor_fit, xor, (2, 5, 1), relu_act, stage="1")
        assert w.risk < 0.125
        assert np.allclose(w.net.weights[0][2:], 0.0)

    def test_balanced_slopes_rejected(self, xor, xor_fit):
        with pytest.raises(NoAdmissibleTurningPoint):
            build_descent(xor_fit, xor, (2, 3, 1), absolute_value(), stage="1")


class TestDeepRoutes:
    def test_deep_minimum_xor(self, xor, xor_fit, relu_act):
        point = build_minimum(xor_fit, xor, (2, 3, 3, 1), relu_act, stage="2")
        trace = forward(point.net, xor.X)
        assert point.risk == pytest.approx(0.125, abs=1e-9)
        assert np.max(np.abs(trace.output - 0.5)) <= 1e-12
        for z in trace.hidden_pre:
            assert np.all(z > 0)

    def test_depth_independence(self, xor, xor_fit, relu_act):
        deeper = build_minimum(xor_fit, xor, (2, 3, 3, 3, 1), relu_act, stage="2")
        assert deeper.risk == pytest.approx(0.125, abs=1e-9)

    def test_leaky_scaling_cancels(self, xor, xor_fit):
        point = build_minimum(xor_fit, xor, (2, 3, 3, 1), two_piece(0.5, 2.0), stage="2")
        assert np.max(np.abs(forward(point.net, xor.X).output - 0.5)) <= 1e-12

    def test_deep_descent_matches_shallow(self, xor, xor_fit, relu_act):
        shallow = build_descent(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        deep = build_descent(xor_fit, xor, (2, 3, 3, 1), relu_act, stage="2")
        assert abs(deep.risk - shallow.risk) <= 1e-12
        out_s = forward(shallow.net, xor.X).output
        out_d = forward(deep.net, xor.X).output
        assert np.max(np.abs(out_s - out_d)) <= 1e-12

    @pytest.mark.parametrize("factor", [0.5, 2.0, 10.0, 1e3])
    def test_lambda_doubling_same_output(self, xor, xor_fit, relu_act, factor):
        # the shallow witness through the depth chain at a multiple of the
        # default lambda computes what the route-2 witness does
        shallow = build_descent(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        d1 = build_descent(xor_fit, xor, (2, 3, 3, 1), relu_act, stage="2")
        lam = factor * d1.params.lambda_shift
        weights, biases = construction._positive_chain(
            shallow.net.weights[1], shallow.net.biases[1], lam, (3,), 1.0)
        d2 = Mlp((2, 3, 3, 1), (shallow.net.weights[0], *weights),
                 (shallow.net.biases[0], *biases), relu_act)
        assert np.max(np.abs(forward(d1.net, xor.X).output - forward(d2, xor.X).output)) <= 1e-12

    def test_lambda_default_on_positive_output(self, xor, xor_fit, relu_act):
        # the shallow witness output is strictly positive here, so the
        # max(0, -min) branch collapses and lambda = 1
        d = build_descent(xor_fit, xor, (2, 3, 3, 1), relu_act, stage="2")
        assert d.params.lambda_shift == 1.0


class TestGeneralRoute:
    def test_three_piece_minimum_interval(self, xor, xor_fit):
        point = build_minimum(xor_fit, xor, (2, 3, 3, 1), three_piece(), stage="3")
        trace = forward(point.net, xor.X)
        assert point.risk == pytest.approx(0.125, abs=1e-9)
        assert np.max(np.abs(trace.output - 0.5)) <= 1e-12
        for z in trace.hidden_pre:
            assert np.all(z > 0.0) and np.all(z < 1.0)

    def test_alpha_scale_family(self, xor, xor_fit):
        p1, p2 = enumerate_family(xor_fit, xor, (2, 3, 3, 1), three_piece(), k=2)
        assert p1.params.alpha_scales != p2.params.alpha_scales
        assert params_distance(p1.net, p2.net) > 1e-3
        assert np.max(np.abs(forward(p1.net, xor.X).output - forward(p2.net, xor.X).output)) <= 1e-12

    def test_relu_through_general_route(self, xor, xor_fit, relu_act):
        general = build_minimum(xor_fit, xor, (2, 3, 3, 1), relu_act, stage="3")
        deep = build_minimum(xor_fit, xor, (2, 3, 3, 1), relu_act, stage="2")
        assert np.max(np.abs(
            forward(general.net, xor.X).output - forward(deep.net, xor.X).output
        )) <= 1e-12

    def test_descent_matches_local_two_piece_chain(self, xor, xor_fit):
        w3 = build_descent(xor_fit, xor, (2, 3, 3, 1), three_piece(), stage="3")
        w1 = build_descent(xor_fit, xor, (2, 3, 1), two_piece(0.2, 1.0), stage="1")
        assert abs(w3.risk - w1.risk) <= 1e-10
        assert w3.risk < 0.125 - 1e-12

    @pytest.mark.parametrize("factor", [2.0, 3.0, 10.0, 100.0])
    def test_m_scaling_same_output(self, xor, xor_fit, factor):
        # the two-piece witness of the turning point's slopes squeezed at a
        # multiple of the default M computes what the route-3 witness does
        act = three_piece()
        w_def = build_descent(xor_fit, xor, (2, 3, 3, 1), act, stage="3")
        tp = find_turning_point(act)
        local = build_descent(xor_fit, xor, (2, 3, 3, 1), two_piece(tp.s_minus, tp.s_plus),
                              stage="2")
        m, m_tilde = factor * w_def.params.m_scale, w_def.params.m_tilde
        weights = [local.net.weights[0], local.net.weights[1] / m_tilde, local.net.weights[2]]
        h_t = float(act(tp.t))
        w_big = Mlp((2, 3, 3, 1), *map(tuple, construction._squeeze(
            weights, list(local.net.biases), tp.t, h_t, m, m * m_tilde, m * m_tilde * h_t)), act)
        assert np.max(np.abs(
            forward(w_def.net, xor.X).output - forward(w_big, xor.X).output
        )) <= 1e-12

    def test_tiny_sigma_still_consistent(self, xor, xor_fit):
        # a breakpoint squeezed to width 1e-12 forces a huge scale M; the
        # outputs stay equal to the unsqueezed chain within conditioning
        act = type(three_piece())((0.0, 1e-12), (0.2, 1.0, 0.5), 0.0)
        w = build_descent(xor_fit, xor, (2, 3, 3, 1), act, stage="3")
        ref = build_descent(xor_fit, xor, (2, 3, 1), two_piece(0.2, 1.0), stage="1")
        assert abs(w.risk - ref.risk) <= 1e-9
        assert w.params.m_scale > 1e10

    def test_abs_rejected(self, xor, xor_fit):
        with pytest.raises(NoAdmissibleTurningPoint):
            build_minimum(xor_fit, xor, (2, 3, 3, 1), absolute_value(), stage="3")


class TestBalancedRoute:
    def test_xor_witness(self, xor, xor_fit):
        w = build_descent(xor_fit, xor, (2, 4, 1), absolute_value(), stage="corollary")
        assert w.risk < 0.125 - 1e-12
        assert w.spurious
        # sign rule: sgn(gamma) = sgn(sum_I u) = +1 on this fixture
        assert w.params.gamma > 0
        # hand oracle: gamma = 1/4 shifts predictions to 0.25/0.75, so the
        # risk is (0.0625 + 0.5625 + 2 * 0.0625) / 8 = 3/32
        assert w.params.gamma == pytest.approx(0.25, abs=1e-12)
        assert w.risk == pytest.approx(0.09375, abs=1e-12)

    def test_gamma_zero_boundary_control(self, xor, xor_fit):
        # the balanced rows at the witness's alpha but gamma = 0 shift no
        # prediction, so the risk stays at the baseline's
        w = build_descent(xor_fit, xor, (2, 4, 1), absolute_value(), stage="corollary")
        fitp, inv, res = construction._split(xor_fit, xor)
        consts = next(c for c in admissible_constants(res, fitp.v[0], fitp.y_tilde[0], xor.X, None)
                      if c.alpha == w.params.alpha)
        W1, b1, W2, b2 = construction._shallow_descent_params(
            fitp, (2, 4, 1), -1.0, 1.0, res.beta, dataclasses.replace(consts, gamma=0.0),
            construction._default_eta_rest(fitp))
        net = Mlp((2, 4, 1), (W1, W2[inv]), (b1, b2[inv]), absolute_value())
        risk = empirical_risk(net, xor, SQ)
        assert risk == pytest.approx(xor_fit.risk, abs=1e-12)
        assert not verification._descends(xor_fit.risk, risk)

    def test_width_violation(self, xor, xor_fit):
        with pytest.raises(WidthViolation):
            build_descent(xor_fit, xor, (2, 2, 1), absolute_value(), stage="corollary")

    def test_first_row_shift_oracle(self, xor, xor_fit):
        # outputs are exactly baseline -/+ gamma across the split
        w = build_descent(xor_fit, xor, (2, 4, 1), absolute_value(), stage="corollary")
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
        m = build_minimum(xor_fit, xor, (2, 3, 1), act, stage="1")
        w1 = build_descent(xor_fit, xor, (2, 3, 1), act, stage="1")
        w2 = build_descent(xor_fit, xor, (2, 3, 3, 1), act, stage="2")
        w3 = build_descent(xor_fit, xor, (2, 3, 3, 1), act, stage="3")
        assert m.risk == pytest.approx(0.125, abs=1e-9)
        assert w1.risk < 0.125 - 1e-12
        assert abs(w1.risk - w2.risk) <= 1e-12
        assert abs(w1.risk - w3.risk) <= 1e-10


class TestReflection:
    def test_zero_right_slope_minimum(self, xor, xor_fit):
        point = build_minimum(xor_fit, xor, (2, 3, 1), two_piece(1.0, 0.0), stage="1")
        assert point.risk == pytest.approx(0.125, abs=1e-9)

    def test_zero_right_slope_descent(self, xor, xor_fit):
        w = build_descent(xor_fit, xor, (2, 3, 1), two_piece(1.0, 0.0), stage="1")
        assert w.risk < 0.125 - 1e-12

    def test_reflected_pair_same_risk(self, xor, xor_fit):
        for builder in (build_minimum, build_descent):
            a = builder(xor_fit, xor, (2, 3, 1), two_piece(0.5, 2.0), stage="1")
            b = builder(xor_fit, xor, (2, 3, 1), two_piece(-2.0, -0.5), stage="1")
            assert abs(a.risk - b.risk) <= 1e-12

    def test_deep_reflection(self, xor, xor_fit):
        a = build_descent(xor_fit, xor, (2, 3, 3, 1), two_piece(1.0, 0.0), stage="2")
        b = build_descent(xor_fit, xor, (2, 3, 3, 1), two_piece(0.0, -1.0), stage="2")
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
        default = build_minimum(xor_fit, xor, (2, 3, 3, 1), relu_act, stage="3")
        assert params_distance(only.net, default.net) == 0.0

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("seed", [-1, 2.5, True, "7"])
    def test_family_bad_seed_rejected_before_any_member(self, xor, xor_fit, relu_act, k, seed):
        with mock.patch.object(construction, "_family", side_effect=AssertionError):
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

    @pytest.mark.parametrize("k", [0, 1])
    def test_min_pairwise_distance_needs_two_points(self, xor, xor_fit, relu_act, k):
        points = enumerate_family(xor_fit, xor, (2, 3, 3, 1), relu_act, k=1)[:k]
        with pytest.raises(PreconditionViolated, match="need at least two points"):
            construction.min_pairwise_distance(points)

    def test_min_pairwise_distance_of_two_points(self, xor, xor_fit, relu_act):
        a, b = enumerate_family(xor_fit, xor, (2, 3, 3, 1), relu_act, k=2, seed=4)
        assert construction.min_pairwise_distance([a, b]) == params_distance(a.net, b.net) > 0.0

    @pytest.mark.parametrize("dims, k", [((2, 3, 1), 9), ((2, 3, 3, 1), 12), ((2, 4, 3, 3, 1), 5)])
    def test_min_pairwise_distance_is_the_pairwise_loop(self, xor, xor_fit, dims, k):
        # the smallest of every pair's layer-by-layer max-norm distance, to
        # the bit; a repeated point reads 0.0
        for family in (enumerate_family(xor_fit, xor, dims, relu(), k=k, seed=2),
                       enumerate_family(xor_fit, xor, dims, three_piece(), k=k, seed=5)):
            for points in (family, family[:3] + family[1:2]):
                want = min(_layer_by_layer_distance(a.net, b.net)
                           for i, a in enumerate(points) for b in points[i + 1:])
                got = construction.min_pairwise_distance(points)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                assert (got == 0.0) == (points is not family)
                for a, b in itertools.combinations(points, 2):
                    want = _layer_by_layer_distance(a.net, b.net)
                    assert np.float64(params_distance(a.net, b.net)).tobytes() == \
                        np.float64(want).tobytes()

    @pytest.mark.parametrize("layer", [0, 1, 2])
    @pytest.mark.parametrize("bias", [False, True])
    def test_a_nan_parameter_makes_the_distances_nan(self, xor, xor_fit, layer, bias):
        # one NaN weight (or bias) in one layer: max-norm folds must not drop
        # it, though every other layer agrees exactly
        a, b, c = enumerate_family(xor_fit, xor, (2, 3, 3, 1), relu(), k=3, seed=4)
        params = [list(b.net.weights), list(b.net.biases)]
        p = params[bias][layer].copy()
        p.flat[0] = np.nan
        params[bias][layer] = p
        nan_b = dataclasses.replace(b, net=Mlp(b.net.dims, *map(tuple, params), b.net.activation))
        assert np.isnan(params_distance(b.net, nan_b.net))
        assert np.isnan(params_distance(nan_b.net, a.net))
        for points in ([a, nan_b, c], [nan_b, a], [a, c, nan_b]):
            assert np.isnan(construction.min_pairwise_distance(points))

    def test_distances_between_architectures_are_refused(self, xor, xor_fit):
        shallow = build_minimum(xor_fit, xor, (2, 3, 1), relu(), stage="3")
        family = enumerate_family(xor_fit, xor, (2, 3, 3, 1), relu(), k=3, seed=4)
        with pytest.raises(PreconditionViolated, match="^architectures differ$"):
            params_distance(shallow.net, family[0].net)
        for points in ([shallow, *family], [*family, shallow], [family[0], shallow]):
            with pytest.raises(PreconditionViolated, match="^architectures differ$"):
                construction.min_pairwise_distance(points)

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
        shallow = build_minimum(xor_fit, xor, (2, 3, 1), act, stage="1")
        deep = build_minimum(xor_fit, xor, (2, 3, 1), act, stage="2")
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
        minimum = build_minimum(xor_fit, xor, dims, act, stage="3")
        tp = minimum.params.turning
        assert float((act if sign > 0 else act.reflect())(tp.t)) != 0.0
        assert abs(minimum.risk - xor_fit.risk) <= 1e-9
        for z in forward(minimum.net, xor.X).hidden_pre:
            assert np.all(sign * z > tp.t) and np.all(sign * z < tp.t + tp.sigma)

        witness = build_descent(xor_fit, xor, dims, act, stage="3")
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
        builders = [(build_minimum, "auto"), (build_descent, "auto"), (build_minimum, "1"),
                    (build_minimum, "2"), (build_descent, "1"), (build_descent, "2"),
                    (build_descent, "corollary"), (build_minimum, "3"), (build_descent, "3")]
        for build, stage in builders:
            with pytest.raises(PreconditionViolated):
                build(xor_fit, xor, dims, act, stage=stage)
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
    depth=st.integers(1, 4),
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
            assert _risk_match(point.risk, fit.risk).passed
        else:
            assert point.risk < fit.risk - 1e-12


def test_narrow_piece_minimum_matches_by_the_library_rule():
    # A piece of width 1e-5 forces M ~ 1e7, and the output layer's scale-up
    # by M / prod(alpha) amplifies rounding: the risk is 1.33e-9 off a
    # baseline of 2.27, above an absolute 1e-9 but inside _risk_match's
    # 1e-9 * max(1, baseline)
    data = random_two_output_dataset()
    fit = fit_linear(data, SQ)
    act = PiecewiseLinear((-1.0, -0.99999, 0.0), (0.0, 0.0, 1.0, 0.0), 0.0)
    point = build_minimum(fit, data, (2, 3, 3, 2), act)
    assert (point.kind, point.stage) == ("minimum", "3")
    match = _risk_match(point.risk, fit.risk)
    assert match.passed and match.value > 1e-9


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


@pytest.mark.parametrize("breakpoints, slopes, anchor, two_outputs, depth", [
    ((0.0, 0.5, 1.0), (1.0, 1.0, 1.29e-82, 0.0), 0.0, True, 3),
    ((0.0, 5e-324), (0.0, 0.0, 1.0), 0.0, False, 1),
    ((1.0,), (1.0, 2.99e-230), 1.0, False, 3),
    ((0.0, 1.0), (1.0, 2.2250738585072014e-308, 0.0), 0.0, False, 1),
], ids=["tiny-piece-slope", "subnormal-piece-width", "tiny-right-slope", "smallest-normal-slope"])
@pytest.mark.parametrize("extra_width", [1, 2])
def test_tiny_slopes_and_widths_raise_typed_without_warnings(
    breakpoints, slopes, anchor, two_outputs, depth, extra_width
):
    # a scale that overflows or turns NaN inside a builder must end in a
    # typed error, not in a numpy warning and inf or NaN parameters
    data = random_two_output_dataset() if two_outputs else xor_dataset()
    fit = fit_linear(data, SQ)
    dims = (data.d_x, *[data.d_y + extra_width] * depth, data.d_y)
    act = PiecewiseLinear(breakpoints, slopes, anchor)
    for build in (build_minimum, build_descent):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                point = build(fit, data, dims, act)
            except SpurminError:
                continue
        assert all(np.all(np.isfinite(p)) for p in point.net.weights + point.net.biases)
        if point.kind == "minimum":
            assert abs(point.risk - fit.risk) <= 1e-9
        else:
            assert point.risk < fit.risk - 1e-12


# ---------------------------------------------------------------------------
# one alpha search, one cancellation rule, the stage-3 output bound, one width rule


def _recording_search(monkeypatch):
    """Record every constants set the witness search draws from the alpha
    search."""
    seen = []
    search = construction.admissible_constants

    def recorded(*args):
        for consts in search(*args):
            seen.append(consts)
            yield consts

    monkeypatch.setattr(construction, "admissible_constants", recorded)
    return seen


@pytest.mark.parametrize("stage, dims, act", [
    ("1", (2, 3, 1), relu()),
    ("2", (2, 3, 3, 1), relu()),
    ("3", (2, 3, 3, 1), three_piece()),
    ("corollary", (2, 4, 1), absolute_value()),
    ("corollary", (2, 4, 4, 1), absolute_value()),
])
def test_witness_is_the_first_admissible_constants_that_descend(xor, xor_fit, monkeypatch,
                                                                stage, dims, act):
    seen = _recording_search(monkeypatch)
    witness = build_descent(xor_fit, xor, dims, act, stage=stage)
    assert witness.risk < xor_fit.risk - 1e-12
    assert (witness.params.alpha, witness.params.gamma) == (seen[-1].alpha, seen[-1].gamma)
    assert [c.alpha for c in seen] == [seen[0].alpha * 0.5**k for k in range(len(seen))]


@pytest.mark.parametrize("stage, dims, act, lifted, pin", [
    ("1", (2, 3, 1), relu(), False, PINS["witness_stage1"]["sha"]),
    ("corollary", (2, 4, 1), absolute_value(), False, PINS["witness_corollary"]["sha"]),
    ("2", (2, 3, 3, 1), relu(), True, PINS["witness_stage2_lifted"]["sha"]),
])
def test_witness_forwards_once_per_candidate(xor, xor_fit, monkeypatch, stage, dims, act,
                                             lifted, pin):
    # a one-hidden-layer witness keeps its candidate's trace and risk; only
    # a depth lift forwards once more, to check the lifted output
    seen = _recording_search(monkeypatch)
    calls = []
    real = construction.forward

    def spy(net, X):
        calls.append(net.dims)
        return real(net, X)

    monkeypatch.setattr(construction, "forward", spy)
    witness = build_descent(xor_fit, xor, dims, act, stage=stage)
    assert len(calls) == len(seen) + lifted
    assert witness.risk == risk_of_outputs(real(witness.net, xor.X).output, xor.Y, SQ)
    assert sorted_key_hash(witness.as_dict()) == pin


def test_witness_search_shares_one_halving_budget(xor, xor_fit, relu_act, monkeypatch):
    # with no network counted as descending, the search runs out after the
    # sizing's own halvings: MAX_HALVINGS in all, not a second budget
    seen = _recording_search(monkeypatch)
    monkeypatch.setattr(verification, "DESCENT_GAP_MIN", np.inf)
    with pytest.raises(StrictDecreaseNotAchieved, match=f"after {MAX_HALVINGS} halvings"):
        build_descent(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
    fitp, _, res = construction._split(xor_fit, xor)
    u, v = fitp.v[0], fitp.y_tilde[0]
    assert seen == list(admissible_constants(res, u, v, xor.X, 1.0))
    assert len(seen) <= MAX_HALVINGS
    assert seen[-1].alpha >= min(1.0, res.alpha_max) * 0.5 ** (MAX_HALVINGS - 1)


@pytest.mark.parametrize("stage, dims, act", [
    ("1", (2, 3, 1), relu()),
    ("2", (2, 3, 3, 1), relu()),
    ("3", (2, 3, 3, 1), three_piece()),
    ("corollary", (2, 4, 1), absolute_value()),
])
def test_witness_search_and_gap_certificate_share_one_threshold(xor, xor_fit, monkeypatch, stage,
                                                                dims, act):
    # patched in verification only, the threshold moves the search and the
    # certificate together, to the last rounding of the witness's gap:
    # every witness built passes
    witness = build_descent(xor_fit, xor, dims, act, stage=stage)
    gap = descent_gap_certificate(xor_fit.risk, witness.risk).checks[0].value
    for threshold in (float(np.nextafter(gap, -np.inf)), gap):
        monkeypatch.setattr(verification, "DESCENT_GAP_MIN", threshold)
        assert descent_gap_certificate(xor_fit.risk, witness.risk).verdict is (threshold < gap)
        try:
            found = build_descent(xor_fit, xor, dims, act, stage=stage)
        except StrictDecreaseNotAchieved:
            found = None
        if found is not None:
            assert found.spurious and descent_gap_certificate(xor_fit.risk, found.risk).verdict
        if threshold == gap:
            assert found is None or found.as_dict() != witness.as_dict()
        elif stage in ("1", "corollary"):  # the witness is the search's own candidate
            assert found.as_dict() == witness.as_dict()


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_a_lifted_witness_is_decided_on_its_own_risk(xor, xor_fit, monkeypatch, depth):
    # two_piece(0.5, -1) rounds the lifted witness's gap below its shallow
    # candidate's; with the threshold at the lifted gap the search accepts
    # the candidate, and the decision on the returned network must refuse
    act, dims = two_piece(0.5, -1.0), (2, *[3] * depth, 1)
    shallow = build_descent(xor_fit, xor, (2, 3, 1), act, stage="1")
    lifted = build_descent(xor_fit, xor, dims, act, stage="2")
    gap = xor_fit.risk - lifted.risk
    assert xor_fit.risk - shallow.risk > gap
    monkeypatch.setattr(verification, "DESCENT_GAP_MIN", gap)
    assert build_descent(xor_fit, xor, (2, 3, 1), act, stage="1").as_dict() == shallow.as_dict()
    with pytest.raises(StrictDecreaseNotAchieved, match="does not strictly undercut"):
        build_descent(xor_fit, xor, dims, act, stage="2")


def _two_outputs():
    return random_two_output_dataset(n=12)


@pytest.mark.parametrize("stage, act", [
    ("2", relu()), ("2", two_piece(1.0, 0.0)), ("2", two_piece(0.5, -1.0)),
    ("3", three_piece()), ("3", PiecewiseLinear((0.5, 2.0), (1.0, 0.3, 2.0), 0.7)),
    ("3", two_piece(1.0, 0.0)), ("corollary", absolute_value()),
], ids=["relu", "reflected", "negative-right-slope", "threepiece", "off-zero", "reflected-3",
        "abs"])
@pytest.mark.parametrize("depth", [3, 4])
@pytest.mark.parametrize("data", [xor_dataset, _two_outputs], ids=["xor", "two-outputs"])
def test_deep_witness_units_past_layer_one_sit_inside_the_open_piece(stage, act, depth, data):
    # the chain's pad units replicate a positive unit, so no unit past the
    # first layer sits on the piece's end, at any depth
    data = data()
    dims = (data.d_x, *[data.d_y + 2] * depth, data.d_y)
    witness = build_descent(fit_linear(data, SQ), data, dims, act, stage=stage)
    if stage == "3":
        _, reflected, tp = construction._turning_frame(act)
        lo, hi = tp.t, tp.t + tp.sigma
    else:
        reflected, (lo, hi) = act.s_plus == 0.0, (0.0, np.inf)
    lo, hi = (-hi, -lo) if reflected else (lo, hi)
    for z in forward(witness.net, data.X).hidden_pre[1:]:
        assert np.all((lo < z) & (z < hi))


NEAR_CANCELLING = PiecewiseLinear((0.0,), (-1.0, 1.000000000001), 0.0)


def test_near_cancelling_slopes_build_on_every_unbalanced_route(xor, xor_fit):
    # s- + s+ = 1e-12 != 0: not balanced for any route
    assert check_assumptions(xor, (2, 4, 1), NEAR_CANCELLING).turning_point_ok
    shallow = build_descent(xor_fit, xor, (2, 4, 1), NEAR_CANCELLING)
    general = build_descent(xor_fit, xor, (2, 4, 1), NEAR_CANCELLING, stage="3")
    assert (shallow.stage, general.stage) == ("1", "3")
    assert general.risk == pytest.approx(0.114731, abs=1e-6)
    assert abs(general.risk - shallow.risk) <= 1e-12
    minimum = build_minimum(xor_fit, xor, (2, 4, 1), NEAR_CANCELLING, stage="3")
    assert abs(minimum.risk - xor_fit.risk) <= 1e-9
    with pytest.raises(PreconditionViolated, match="balanced route requires"):
        build_descent(xor_fit, xor, (2, 4, 1), NEAR_CANCELLING, stage="corollary")


NARROW_PIECE = PiecewiseLinear((1.5, 1.502), (0.2, 1.0, 0.5), 0.0)


@pytest.mark.parametrize("dims", [(2, 3, 3, 1), (2, 3, 3, 3, 1), (2, 4, 1)])
def test_stage3_minimum_on_a_narrow_piece_passes_its_output_check(xor, xor_fit, dims):
    # the squeeze's M / prod(alpha_i) output scale multiplies the rounding
    # of the last hidden layer; the output identity is bounded accordingly
    point = build_minimum(xor_fit, xor, dims, NARROW_PIECE, stage="3")
    scale = point.params.m_scale / np.prod(point.params.alpha_scales)
    deviation = float(np.max(np.abs(forward(point.net, xor.X).output - xor_fit.y_tilde)))
    assert deviation <= 1e-12 * max(1.0, scale)
    assert abs(point.risk - xor_fit.risk) <= 1e-9
    assert point.interval.verdict


def test_stage3_output_check_still_catches_a_squeeze_without_hidden_backoff(xor, xor_fit,
                                                                            monkeypatch):
    # with anchor 0.7, h(t) != 0: dropping the hidden layers' h(t) back-off
    # moves the output far beyond the scaled bound
    act = PiecewiseLinear((1.5, 1.502), (0.2, 1.0, 0.5), 0.7)
    assert build_minimum(xor_fit, xor, (2, 3, 3, 1), act, stage="3").risk == pytest.approx(xor_fit.risk)
    squeeze = construction._squeeze

    def without_hidden_backoff(weights, biases, t, h_t, *scales):
        sq_w, sq_b = squeeze(weights, biases, t, h_t, *scales)
        for i in range(1, len(sq_w) - 1):
            sq_b[i] = sq_b[i] + h_t * (sq_w[i] @ np.ones(sq_w[i].shape[-1]))
        return sq_w, sq_b

    monkeypatch.setattr(construction, "_squeeze", without_hidden_backoff)
    with pytest.raises(ConstructionError, match="does not reproduce the baseline"):
        build_minimum(xor_fit, xor, (2, 3, 3, 1), act, stage="3")


@pytest.mark.parametrize("two_outputs", [False, True])
def test_shallow_witness_uses_the_common_width_rule(two_outputs):
    data = random_two_output_dataset() if two_outputs else xor_dataset()
    fit = fit_linear(data, SQ)
    dims = (data.d_x, data.d_y, data.d_y)
    for stage in ("1", "2"):
        with pytest.raises(WidthViolation,
                           match=f"every hidden width must exceed the output width {data.d_y}"):
            build_descent(fit, data, dims, relu(), stage=stage)


# ---------------------------------------------------------------------------
# one witness scaffold: balanced witnesses at any depth, one width rule


@pytest.mark.parametrize("dims, two_outputs", [
    ((2, 4, 4, 1), False),
    ((2, 4, 3, 3, 1), False),
    ((2, 4, 3, 2), True),
], ids=["xor-depth2", "xor-depth3", "two-outputs-depth2"])
def test_deep_balanced_witness_is_the_lifted_shallow_one(dims, two_outputs):
    data = random_two_output_dataset() if two_outputs else xor_dataset()
    fit = fit_linear(data, SQ)
    act = absolute_value()
    witness = build_descent(fit, data, dims, act)
    assert witness.stage == "corollary"
    assert witness.params.lambda_shift is not None
    minimum = build_minimum(fit, data, dims, act, stage="corollary")
    assert witness_pair_certificate(minimum, witness, data, SQ).verdict
    shallow = build_descent(fit, data, (dims[0], dims[1], dims[-1]), act, stage="corollary")
    assert shallow.params.lambda_shift is None
    deviation = forward(witness.net, data.X).output - forward(shallow.net, data.X).output
    assert float(np.max(np.abs(deviation))) <= construction.OUTPUT_TOL
    assert (witness.params.alpha, witness.params.gamma) == (shallow.params.alpha, shallow.params.gamma)


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(1e-300, 1e300) | st.sampled_from([1.0, 0.5, 2.0, 1e-3]),
    negative_right_slope=st.booleans(),
    two_outputs=st.booleans(),
    widths=st.lists(st.integers(1, 2), min_size=1, max_size=3),
)
def test_balanced_slopes_build_a_witness_at_every_depth(s, negative_right_slope, two_outputs,
                                                        widths):
    data = random_two_output_dataset() if two_outputs else xor_dataset()
    fit = fit_linear(data, SQ)
    s_plus = -s if negative_right_slope else s
    assert np.isfinite(1.0 / s_plus)
    act = PiecewiseLinear((0.0,), (-s_plus, s_plus), 0.0)
    # the first hidden layer carries one extra unit; later ones exceed d_Y
    dims = (data.d_x, data.d_y + 1 + widths[0], *[data.d_y + w for w in widths[1:]], data.d_y)
    assert check_assumptions(data, dims, act).balanced_widths_ok
    witness = build_descent(fit, data, dims, act)
    assert witness.stage == "corollary"
    assert witness.risk < fit.risk - 1e-12


@pytest.mark.parametrize("two_outputs", [False, True], ids=["d_y=1", "d_y=2"])
def test_one_width_rule_for_reports_and_builders(two_outputs):
    data = random_two_output_dataset() if two_outputs else xor_dataset()
    fit = fit_linear(data, SQ)
    for depth in (1, 2, 3):
        for hidden in itertools.product(range(2, 6), repeat=depth):
            dims = (data.d_x, *hidden, data.d_y)
            report = check_assumptions(data, dims, absolute_value())
            for stage, act, ok in [
                ("corollary", absolute_value(), report.balanced_widths_ok),
                ("2", relu(), report.widths_ok),
            ]:
                try:
                    build_descent(fit, data, dims, act, stage=stage)
                except WidthViolation:
                    assert not ok, (stage, dims)
                else:
                    assert ok, (stage, dims)


# ---------------------------------------------------------------------------
# one stage rule, one stage label per depth, typed failures of the builders


@pytest.mark.parametrize("build", [build_minimum, build_descent])
def test_unknown_stage_is_precondition(xor, xor_fit, relu_act, build):
    with pytest.raises(PreconditionViolated, match="unknown stage '9'"):
        build(xor_fit, xor, (2, 3, 1), relu_act, stage="9")


@pytest.mark.parametrize("stage", ["1", "2", "corollary", "auto"])
def test_a_two_piece_point_is_labelled_by_its_depth(xor, xor_fit, stage):
    act = absolute_value() if stage == "corollary" else relu()
    for dims, label in [((2, 4, 1), "1"), ((2, 4, 3, 1), "2")]:
        if not (stage == "1" and len(dims) > 3):
            assert build_minimum(xor_fit, xor, dims, act, stage=stage).stage == label
    assert build_minimum(xor_fit, xor, (2, 3, 1), relu(), stage="2").stage == "1"
    assert build_descent(xor_fit, xor, (2, 3, 1), relu(), stage="2").stage == "1"


ROUTERS = {
    "minimum": lambda fit, data, **kw: build_minimum(fit, data, (2, 3, 3, 1), relu(), **kw),
    "descent": lambda fit, data, **kw: build_descent(fit, data, (2, 3, 3, 1), relu(), **kw),
    "witnesses": lambda fit, data, **kw: construction._Witnesses(fit, data).descent(
        (2, 3, 3, 1), relu(), **kw),
}


@pytest.mark.parametrize("name", ["eta", "m_scale", "alpha_scales", "lambda_shift", "gamma"])
@pytest.mark.parametrize("router", ROUTERS.values(), ids=ROUTERS.keys())
def test_the_routers_take_no_construction_override(xor, xor_fit, router, name):
    # every route builds its one default point; the family's coordinates
    # eta, M and alpha are sampled by enumerate_family
    assert router(xor_fit, xor, stage="2").stage == "2"
    with pytest.raises(TypeError, match=name):
        router(xor_fit, xor, stage="2", **{name: 1.0})


@pytest.mark.parametrize("stage, dims, act", [
    ("1", (2, 3, 1), relu()), ("2", (2, 3, 3, 1), relu()), ("3", (2, 3, 3, 3, 1), three_piece()),
])
def test_every_minimum_route_builds_its_default_point(xor, xor_fit, stage, dims, act):
    point = build_minimum(xor_fit, xor, dims, act, stage=stage)
    assert point.params.eta == construction.default_eta(xor_fit)
    if stage == "3":
        assert point.params.alpha_scales == (0.5, 0.5)
        tp = point.params.turning
        weights, biases = construction._minimum_layers(xor_fit, dims, tp.s_plus, point.params.eta)
        pre = weights[0] @ xor.X + biases[0][:, None]
        assert point.params.m_scale == construction._radius_scale(pre, tp.sigma)


@pytest.mark.parametrize("stage, dims, act", [
    ("1", (2, 3, 1), relu()), ("2", (2, 3, 3, 1), relu()), ("3", (2, 3, 3, 1), three_piece()),
    ("corollary", (2, 4, 1), absolute_value()),
])
def test_every_witness_is_searched_and_spurious(xor, xor_fit, stage, dims, act):
    # no route takes an explicit gamma any more, so every witness comes out
    # of the alpha search and strictly undercuts the baseline
    witness = build_descent(xor_fit, xor, dims, act, stage=stage)
    assert witness.spurious and witness.risk < xor_fit.risk
    assert verification._descends(xor_fit.risk, witness.risk)


def test_family_needs_at_least_one_member(xor, xor_fit, relu_act):
    with pytest.raises(PreconditionViolated, match="k must be >= 1"):
        enumerate_family(xor_fit, xor, (2, 3, 3, 1), relu_act, k=0)


@pytest.mark.parametrize("k", [2.0, True, "2"])
def test_family_size_must_be_an_integer(xor, xor_fit, relu_act, k):
    with pytest.raises(PreconditionViolated, match="k must be an integer"):
        enumerate_family(xor_fit, xor, (2, 3, 3, 1), relu_act, k=k)


def test_general_minimum_rejects_alphas_whose_product_underflows(xor, xor_fit, relu_act):
    # at depth 900, member 0's 899 alphas of 0.5 multiply to 2e-271, but
    # member 1's drawn alphas multiply to zero: the family refuses it
    # rather than dividing M by zero
    with pytest.raises(PreconditionViolated, match="product underflows to zero"):
        enumerate_family(xor_fit, xor, (2, *[3] * 900, 1), relu_act, k=3)


def test_shallow_minimum_needs_a_two_piece_activation(xor, xor_fit):
    with pytest.raises(PreconditionViolated, match="this route needs a two-piece activation"):
        build_minimum(xor_fit, xor, (2, 3, 1), three_piece(), stage="1")


# ---------------------------------------------------------------------------
# the one witness-row assembler against the two it replaced


def reference_shallow_descent_params(fitp, dims, s_minus, s_plus, beta, consts, eta_rest):
    """The two-piece rows as assembled before the balanced rows were folded in."""
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


def reference_balanced_descent_params(fitp, dims, s_minus, s_plus, beta, consts, eta_rest):
    """The balanced rows (tilted, untilted, tilted negated) as assembled
    before they were folded into the one assembler."""
    eta = construction.default_eta(fitp)
    d_x, d_1, d_y = dims
    w_row, w_off = fitp.w_tilde[0, :d_x], fitp.w_tilde[0, d_x]
    a, g, e1 = consts.alpha, consts.gamma, consts.eta1
    tilted = w_row - a * beta
    pad = d_1 - (d_y + 2)
    W1 = np.vstack([tilted, w_row, -tilted, fitp.w_tilde[1:, :d_x], np.zeros((pad, d_x))])
    b1 = np.concatenate([
        [w_off - e1 + g, w_off - eta, -w_off + e1 + g],
        fitp.w_tilde[1:, d_x] - eta_rest,
        np.zeros(pad),
    ])
    W2 = np.zeros((d_y, d_1))
    W2[0, :3] = 1.0 / (2.0 * s_plus), 1.0 / s_plus, -1.0 / (2.0 * s_plus)
    W2[range(1, d_y), range(3, d_y + 2)] = 1.0 / s_plus
    b2 = np.concatenate([[eta], eta_rest])
    return W1, b1, W2, b2


def _random_fit(r):
    """A fit of random data with 1-3 features and 1-3 label rows, with
    labels at a random scale; its rows are reordered at random, as the
    witness reorders them to put a nonzero-residual row first."""
    d_x, d_y = int(r.integers(1, 4)), int(r.integers(1, 4))
    n = int(r.integers(d_x + 2, d_x + 8))
    X = r.standard_normal((d_x, n)) * 10.0 ** r.uniform(-2, 2)
    Y = r.standard_normal((d_y, n)) * 10.0 ** r.uniform(-3, 3) + r.normal(0.0, 5.0, (d_y, 1))
    data = Dataset(X, Y)
    fit = fit_linear(data, SQ)
    fitp, _ = permute_fit_rows(fit, data, r.permutation(d_y))
    return fitp


def _random_slopes(r, balanced):
    """Build-frame slopes: positive, negative, or the frame of an
    activation with a zero right slope, found through `construction._frame`."""
    s = float(10.0 ** r.uniform(-3, 3))
    kind = r.integers(3)
    if balanced:
        left, right = (-s, s) if kind != 1 else (s, -s)
        act = PiecewiseLinear((0.0,), (left, right), 0.0)
    elif kind == 0:
        act = two_piece(s * r.uniform(-0.9, 0.9), s)
    elif kind == 1:
        act = two_piece(s * r.uniform(-0.9, 0.9), -s)
    else:
        act = two_piece(s * r.choice([-1.0, 1.0]) * r.uniform(0.1, 2.0), 0.0)
    frame, _ = construction._frame(act, act.s_plus)
    return frame.s_minus, frame.s_plus


@pytest.mark.parametrize("balanced", [False, True], ids=["two-piece", "balanced"])
def test_one_row_assembler_matches_the_two_it_replaced_bit_for_bit(balanced):
    reference = reference_balanced_descent_params if balanced else reference_shallow_descent_params
    r = np.random.default_rng(2024 + balanced)
    draws = 0
    for _ in range(250):
        fitp = _random_fit(r)
        d_x, d_y = fitp.w_tilde.shape[1] - 1, fitp.w_tilde.shape[0]
        for _ in range(10):
            s_minus, s_plus = _random_slopes(r, balanced)
            assert (s_minus + s_plus == 0.0) == balanced
            dims = (d_x, d_y + 1 + balanced + int(r.integers(0, 4)), d_y)
            beta = r.standard_normal(d_x) * 10.0 ** r.uniform(-2, 2)
            consts = construction.DescentConstants(
                alpha=float(0.5 ** r.integers(0, 40)), gamma=float(r.standard_normal()),
                eta1=float(r.standard_normal() * 10.0 ** r.uniform(-3, 3)),
                midgap=float(r.standard_normal()), margin=float(r.random()),
            )
            eta_rest = construction._default_eta_rest(fitp) + r.standard_normal(d_y - 1)
            args = (fitp, dims, s_minus, s_plus, beta, consts, eta_rest)
            for got, want in zip(construction._shallow_descent_params(*args), reference(*args)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            draws += 1
    assert draws >= 2000


# ---------------------------------------------------------------------------
# the family built along one member axis against the one-member-at-a-time
# loop it replaced, kept here as the oracle with its per-member builder


def _squeeze_one(weights, biases, t, h_t, m_scale, out_scale):
    """The squeeze of one member, as the per-member builder ran it."""
    sq_w = [weights[0] / m_scale]
    sq_b = [biases[0] / m_scale + t * np.ones(len(biases[0]))]
    for W, b in zip(weights[1:-1], biases[1:-1]):
        sq_w.append(W)
        sq_b.append(t * np.ones(len(b)) - h_t * (W @ np.ones(W.shape[1])) + b / out_scale)
    W = weights[-1]
    sq_w.append(out_scale * W)
    sq_b.append(biases[-1] - out_scale * h_t * (W @ np.ones(W.shape[1])))
    return sq_w, sq_b


def _general_minimum(fit, data, dims, act, frame, eta=None, alpha_scales=None, m_factor=1.0):
    """One member of the general route's family, built but not certified."""
    build_act, reflected, tp = frame
    n_alpha = max(0, len(dims) - 3)
    eta = construction.default_eta(fit) if eta is None else eta
    if alpha_scales is None:
        alpha_scales = tuple(0.5 for _ in range(n_alpha))
    if len(alpha_scales) != n_alpha:
        raise PreconditionViolated(f"need {n_alpha} alpha scales for {len(dims) - 1} layers")
    if any(not (0 < a_i < 1) for a_i in alpha_scales):
        raise PreconditionViolated("alpha scales must lie in (0, 1)")

    weights, biases = construction._minimum_layers(fit, dims, tp.s_plus, eta)
    pre1 = weights[0] @ data.X + biases[0][:, None]
    m_scale = construction._radius_scale(pre1, tp.sigma, m_factor)
    prod = 1.0
    for i, a_i in enumerate(alpha_scales, start=1):
        prod *= a_i
        weights[i] = a_i * weights[i]
    out_scale = m_scale / prod
    net = construction._net(dims, act, reflected, *_squeeze_one(
        weights, biases, tp.t, float(build_act(tp.t)), m_scale, out_scale
    ))
    params = construction.ConstructionParams(
        eta=eta, m_scale=m_scale, alpha_scales=tuple(alpha_scales), turning=tp
    )
    return construction._Draft(net, "3", params, (tp.t, tp.t + tp.sigma), reflected, out_scale)


@construction._float_checked
def _members_one_at_a_time(fit, data, dims, act, draws):
    """_family as a loop: each (eta, alphas, M factor) draw built, forwarded
    and certified before the next."""
    frame = construction._turning_frame(act)
    members = []
    for eta, alphas, factor in draws:
        draft = _general_minimum(fit, data, dims, act, frame, eta, alphas, factor)
        trace = construction.forward(draft.net, data.X)
        members.append(construction._certify_minimum(draft, trace, fit, data,
                                                     construction._leaves_residual(fit)))
    return members


def _family_one_at_a_time(fit, data, dims, act, k, seed):
    """enumerate_family as a loop: member 0 takes the defaults, as route 3's
    build_minimum does, and member idx >= 1 draws from default_rng([seed, idx])."""
    n_alpha = max(0, len(dims) - 3)
    draws = [(construction.default_eta(fit), (0.5,) * n_alpha, 1.0)]
    for idx in range(1, k):
        rng = np.random.default_rng([seed, idx])
        eta = construction.default_eta(fit) - 2.0 * rng.random()
        alphas = tuple(0.1 + 0.8 * rng.random() for _ in range(n_alpha))
        draws.append((eta, alphas, 1.0 + rng.random()))
    return _members_one_at_a_time(fit, data, dims, act, draws)


def _assert_same_members(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.kind, g.stage, g.spurious, g.params) == (w.kind, w.stage, w.spurious, w.params)
        assert np.float64(g.risk).tobytes() == np.float64(w.risk).tobytes()
        assert g.interval == w.interval and g.baseline_risk == w.baseline_risk
        assert g.net.dims == w.net.dims and g.net.activation == w.net.activation
        for a, b in zip(g.net.weights + g.net.biases, w.net.weights + w.net.biases):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _layer_by_layer_distance(a, b):
    """params_distance as a fold of finite per-layer maxima with Python's
    max, starting from 0.0."""
    dist = 0.0
    for p, q in zip(a.weights + a.biases, b.weights + b.biases):
        dist = max(dist, float(np.max(np.abs(p - q))))
    return dist


def _tied_dataset(per_level=20, seed=1):
    """A small copy of the benchmark's tied_split data: x1 in {0, 1, 2},
    x2 = +-m inside each level, so the affine fit ties within a level."""
    rng = np.random.default_rng([seed, 2])
    x1 = np.repeat([0.0, 1.0, 2.0], per_level)
    m = rng.uniform(0.1, 3.0, (3, per_level // 2))
    x2 = np.concatenate([np.concatenate([row, -row]) for row in m])
    y = np.array([0.0, 1.0, 3.0])[x1.astype(int)] + 0.1 * x2 * x2
    return Dataset(np.vstack([x1, x2]), y[None, :])


FAMILY_ACTS = {
    "relu": relu(), "reflected": two_piece(1.0, 0.0), "threepiece": three_piece(),
    # a turning point off zero, t = 0.5, with h(t) = 0.7: every squeeze term
    # is nonzero
    "offzero": parse_activation({"breakpoints": [0.5, 2], "slopes": [1, 0.3, 2], "anchor": 0.7}),
}


class TestStackedFamilyMatchesTheLoop:
    @pytest.mark.parametrize("act", FAMILY_ACTS.values(), ids=FAMILY_ACTS.keys())
    @pytest.mark.parametrize("hidden", [(3,), (3, 3), (3, 3, 3)], ids=["depth1", "depth2", "depth3"])
    @pytest.mark.parametrize("two_outputs", [False, True], ids=["d_y1", "d_y2"])
    def test_members_bit_identical(self, act, hidden, two_outputs):
        data = random_two_output_dataset() if two_outputs else xor_dataset()
        fit = fit_linear(data, SQ)
        dims = (2, *hidden, data.d_y)
        want = _family_one_at_a_time(fit, data, dims, act, 6, 3)
        _assert_same_members(enumerate_family(fit, data, dims, act, k=6, seed=3), want)

    @pytest.mark.parametrize("act", FAMILY_ACTS.values(), ids=FAMILY_ACTS.keys())
    @pytest.mark.parametrize("dims", [(2, 3, 3, 1), (2, 3, 3, 3, 1)], ids=["depth2", "depth3"])
    def test_given_draws_build_bit_identical_members(self, xor, xor_fit, act, dims):
        # _family builds exactly the draws it is given, defaults or not
        n_alpha = len(dims) - 3
        draws = [(-2.5, (0.3, 0.8)[:n_alpha], 1.0), (-4.0, (0.9, 0.2)[:n_alpha], 1.7),
                 (construction.default_eta(xor_fit), (0.5,) * n_alpha, 1.0)]
        got = construction._float_checked(construction._family)(xor_fit, xor, dims, act, draws)
        _assert_same_members(got, _members_one_at_a_time(xor_fit, xor, dims, act, draws))
        assert [(m.params.eta, m.params.alpha_scales) for m in got] == [d[:2] for d in draws]

    def test_family_of_one_is_the_general_minimum(self, xor, xor_fit):
        for act in FAMILY_ACTS.values():
            want = _family_one_at_a_time(xor_fit, xor, (2, 3, 3, 1), act, 1, 0)
            _assert_same_members([build_minimum(xor_fit, xor, (2, 3, 3, 1), act, stage="3")], want)
            _assert_same_members(enumerate_family(xor_fit, xor, (2, 3, 3, 1), act, k=1), want)

    @pytest.mark.parametrize("budget", [1, 960, 1920, 2880, 1 << 17])
    @pytest.mark.parametrize("dims", [(2, 16, 1), (2, 16, 16, 1)], ids=["depth1", "depth2"])
    def test_chunk_boundaries_on_tied_data(self, monkeypatch, budget, dims):
        # on 60 samples: 960 elements in a member's widest layer, more than
        # the 337 parameters at depth 2, so 1, 1, 2 and 3 members per chunk,
        # the last chunk short, and one chunk of all 7
        data = _tied_dataset()
        fit = fit_linear(data, SQ)
        want = _family_one_at_a_time(fit, data, dims, relu(), 7, 5)
        monkeypatch.setattr(verification, "_CHUNK_ELEMENTS", budget)
        assert verification._stack_size(dims, data.n) == max(1, budget // 960)
        _assert_same_members(enumerate_family(fit, data, dims, relu(), k=7, seed=5), want)

    @pytest.mark.parametrize("act", FAMILY_ACTS.values(), ids=FAMILY_ACTS.keys())
    @pytest.mark.parametrize("hidden", [(3,), (3, 3)], ids=["depth1", "depth2"])
    def test_members_bit_identical_under_cross_entropy(self, xor, act, hidden):
        # a two-class one-hot XOR: the stacked risks run the softmax loss
        data = Dataset(xor.X, np.vstack([xor.Y, 1.0 - xor.Y]))
        fit = fit_linear(data, LossKind.CROSS_ENTROPY)
        dims = (2, *hidden, 2)
        want = _family_one_at_a_time(fit, data, dims, act, 7, 4)
        _assert_same_members(enumerate_family(fit, data, dims, act, k=7, seed=4), want)

    @pytest.mark.parametrize("act", FAMILY_ACTS.values(), ids=FAMILY_ACTS.keys())
    @pytest.mark.parametrize("budget, size", [(50, 2), (75, 3), (100, 4), (175, 7)])
    def test_chunks_split_mid_family(self, xor, xor_fit, monkeypatch, act, budget, size):
        # (2, 3, 3, 1) has 25 parameters, more than its 3 x 4 widest layer:
        # ten members in chunks of 2, 3 (the last a chunk of one), 4 and 7
        want = _family_one_at_a_time(xor_fit, xor, (2, 3, 3, 1), act, 10, 6)
        monkeypatch.setattr(verification, "_CHUNK_ELEMENTS", budget)
        assert verification._stack_size((2, 3, 3, 1), xor.n) == size
        _assert_same_members(enumerate_family(xor_fit, xor, (2, 3, 3, 1), act, k=10, seed=6), want)

    def test_an_overflowing_stacked_pass_falls_back_to_one_forward_each(self, xor, xor_fit,
                                                                       monkeypatch):
        want = _family_one_at_a_time(xor_fit, xor, (2, 3, 3, 1), relu(), 5, 2)

        def overflowing(*args):
            raise FloatingPointError("overflow encountered in matmul")

        monkeypatch.setattr(construction, "_layer_outputs", overflowing)
        _assert_same_members(enumerate_family(xor_fit, xor, (2, 3, 3, 1), relu(), k=5, seed=2),
                             want)


@pytest.mark.parametrize("member", [0, 1, 3])
def test_family_refuses_the_first_draw_whose_alphas_underflow(xor, xor_fit, relu_act, member):
    # every draw's product is checked, not only member 0's
    dims = (2, 3, 3, 3, 1)
    draws = construction._draws(xor_fit, dims, 5, 0)
    draws[member] = (draws[member][0], (1e-200, 1e-200), draws[member][2])
    with pytest.raises(PreconditionViolated, match="product underflows to zero"):
        construction._float_checked(construction._family)(xor_fit, xor, dims, relu_act, draws)


@pytest.mark.parametrize("dims", [(2, 3, 1), (2, 3, 3, 1), (2, 3, 3, 3, 1), (2, 4, 3, 3, 3, 1)])
def test_draw_0_is_the_default_point(xor_fit, dims):
    eta, alphas, factor = construction._draws(xor_fit, dims, 3, 5)[0]
    assert eta == construction.default_eta(xor_fit)
    assert alphas == (0.5,) * max(0, len(dims) - 3) and factor == 1.0


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
def test_later_draws_come_from_their_own_stream_in_range(xor_fit, seed):
    eta_0 = construction.default_eta(xor_fit)
    draws = construction._draws(xor_fit, (2, 3, 3, 3, 1), 6, seed)
    assert len(draws) == 6
    for idx, (eta, alphas, factor) in enumerate(draws[1:], start=1):
        u = np.random.default_rng([seed, idx]).random(4)
        assert (eta, alphas, factor) == (eta_0 - 2.0 * u[0], tuple(0.1 + 0.8 * u[1:3]), 1.0 + u[3])
        assert eta_0 - 2.0 < eta <= eta_0 and 1.0 <= factor < 2.0
        assert all(0.1 <= a < 0.9 for a in alphas)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_a_smaller_family_is_a_prefix_of_a_larger_one(xor, xor_fit, relu_act, k):
    dims = (2, 3, 3, 3, 1)
    longer = construction._draws(xor_fit, dims, k + 3, 9)
    assert construction._draws(xor_fit, dims, k, 9) == longer[:k]
    _assert_same_members(enumerate_family(xor_fit, xor, dims, relu_act, k=k, seed=9),
                         enumerate_family(xor_fit, xor, dims, relu_act, k=k + 3, seed=9)[:k])


@pytest.mark.parametrize("act", FAMILY_ACTS.values(), ids=FAMILY_ACTS.keys())
def test_every_member_squeezes_its_first_layer_inside_half_the_radius(xor, xor_fit, act):
    # the computed M keeps ||pre||_F / M <= sigma / 2, which is why
    # _radius_scale needs no "too small" refusal
    dims = (2, 3, 3, 1)
    for member in enumerate_family(xor_fit, xor, dims, act, k=5, seed=2):
        tp = member.params.turning
        weights, biases = construction._minimum_layers(xor_fit, dims, tp.s_plus, member.params.eta)
        pre = weights[0] @ xor.X + biases[0][:, None]
        assert np.linalg.norm(pre) / member.params.m_scale <= tp.sigma / 2


def _outcome(monkeypatch, run, failures):
    """What run() raises, as (type, message), with construction.<name>
    failing at call number `at` for every name: (at, None) returns False
    there, (at, exc) raises exc.  Also returns the calls of each name."""
    calls = dict.fromkeys(failures, 0)
    with monkeypatch.context() as patch:
        for name, (at, exc) in failures.items():
            def failing(*args, _name=name, _at=at, _exc=exc, _original=getattr(construction, name),
                        **kwargs):
                calls[_name] += 1
                if calls[_name] - 1 != _at:
                    return _original(*args, **kwargs)
                if _exc is None:
                    return False
                raise _exc
            patch.setattr(construction, name, failing)
        try:
            run()
        except Exception as exc:
            return (type(exc), str(exc)), calls
    return None, calls


FAILURES = {
    "certificate of member 2": {"_reproduces": (2, None)},
    "build of member 4": {"_radius_scale": (4, PreconditionViolated("m_scale too small"))},
    "certificate of member 2, build of member 4": {
        "_reproduces": (2, None),
        "_radius_scale": (4, PreconditionViolated("m_scale too small")),
    },
    "forward of member 3": {
        "_layer_outputs": (0, FloatingPointError("overflow encountered in matmul")),
        "forward": (3, FloatingPointError("overflow encountered in matmul")),
    },
    "certificate of member 1, forward of member 3": {
        "_reproduces": (1, None),
        "_layer_outputs": (0, FloatingPointError("overflow encountered in matmul")),
        "forward": (3, FloatingPointError("overflow encountered in matmul")),
    },
    "float error in the build of member 3": {
        "_radius_scale": (3, FloatingPointError("overflow encountered in divide")),
    },
}


@pytest.mark.parametrize("failures", FAILURES.values(), ids=FAILURES.keys())
def test_family_raises_for_its_first_failing_member(xor, xor_fit, monkeypatch, failures):
    # the oracle builds and certifies one member at a time, so it raises for
    # the first failing member in draw order, after certifying the members
    # before it; the oracle never stacks, and every certificate is counted
    failures = {"_reproduces": (-1, None), **failures}
    dims, act = (2, 3, 3, 1), relu()
    got, got_calls = _outcome(
        monkeypatch, lambda: enumerate_family(xor_fit, xor, dims, act, k=6, seed=9), failures)
    oracle = {name: fail for name, fail in failures.items() if name != "_layer_outputs"}
    want, want_calls = _outcome(
        monkeypatch, lambda: _family_one_at_a_time(xor_fit, xor, dims, act, 6, 9), oracle)
    assert got is not None and got == want
    assert got_calls["_reproduces"] == want_calls["_reproduces"]


@pytest.mark.parametrize("member", [0, 3, 5])
def test_an_overflowing_squeeze_is_redone_one_member_at_a_time(xor, xor_fit, monkeypatch, member):
    # a squeeze whose slice holds the failing member overflows, as that
    # member's own squeeze would: the stacked squeeze of all six falls back
    # to one squeeze each, which raises at the member after certifying the
    # members before it, as the oracle does when that member's build raises
    error = FloatingPointError("overflow encountered in multiply")
    squeezed, slices = construction._squeezed, []

    def overflowing(*args):
        members = args[-1]
        slices.append((members.start, members.stop))
        if members.start <= member < members.stop:
            raise error
        return squeezed(*args)

    dims, act = (2, 3, 3, 1), two_piece(1.0, 0.0)
    want, want_calls = _outcome(monkeypatch, lambda: _family_one_at_a_time(
        xor_fit, xor, dims, act, 6, 9), {"_reproduces": (-1, None), "_radius_scale": (member, error)})
    monkeypatch.setattr(construction, "_squeezed", overflowing)
    got, got_calls = _outcome(monkeypatch, lambda: enumerate_family(
        xor_fit, xor, dims, act, k=6, seed=9), {"_reproduces": (-1, None)})
    assert got is not None and got == want
    assert got_calls["_reproduces"] == want_calls["_reproduces"] == member
    assert slices == [(0, 6)] + [(j, j + 1) for j in range(member + 1)]


def _raising_when_stacked(stacked):
    """risk_of_outputs, raising FloatingPointError on a stacked output after
    noting its number of members in stacked."""
    def risk(Yhat, Y, kind):
        if Yhat.ndim == 3:
            stacked.append(Yhat.shape[0])
            raise FloatingPointError("overflow encountered in exp")
        return risk_of_outputs(Yhat, Y, kind)
    return risk


def test_a_chunk_whose_stacked_risks_raise_is_certified_one_member_at_a_time(xor, xor_fit,
                                                                              monkeypatch):
    want = _family_one_at_a_time(xor_fit, xor, (2, 3, 3, 1), relu(), 6, 9)
    stacked = []
    monkeypatch.setattr(construction, "risk_of_outputs", _raising_when_stacked(stacked))
    _assert_same_members(enumerate_family(xor_fit, xor, (2, 3, 3, 1), relu(), k=6, seed=9), want)
    assert stacked == [6]


def test_a_stacked_risk_that_raises_yields_to_member_0s_output_identity(xor, xor_fit,
                                                                        monkeypatch):
    # member 0 fails its output identity, and the chunk's stacked risks
    # raise: the oracle never reads member 0's risk, so its ConstructionError
    # wins over the float error
    dims, act, failures = (2, 3, 3, 1), relu(), {"_reproduces": (0, None)}
    want, want_calls = _outcome(
        monkeypatch, lambda: _family_one_at_a_time(xor_fit, xor, dims, act, 6, 9), failures)
    stacked = []
    monkeypatch.setattr(construction, "risk_of_outputs", _raising_when_stacked(stacked))
    got, got_calls = _outcome(
        monkeypatch, lambda: enumerate_family(xor_fit, xor, dims, act, k=6, seed=9), failures)
    assert stacked == [6]
    assert got == want == (ConstructionError, "minimum output does not reproduce the baseline")
    assert got_calls["_reproduces"] == want_calls["_reproduces"] == 1


def test_member_3_of_a_chunk_leaving_its_interval_fails_as_the_oracle_does(xor, xor_fit,
                                                                          monkeypatch):
    # member 3 of one 6-member chunk reads a negative margin, in the chunk's
    # stacked margins and in its own trace's: both raise the interval's
    # ConstructionError after certifying members 0-2
    margin, calls = verification._interval_margin, []

    def member_3_outside(hidden_pre, lo, hi):
        got = margin(hidden_pre, lo, hi)
        calls.append(len(got) if np.ndim(got) else None)
        if np.ndim(got):
            got[3] = -1.0
        elif calls.count(None) == 4:
            got = -1.0
        return got

    dims, act, counted = (2, 3, 3, 1), relu(), {"_reproduces": (-1, None)}
    monkeypatch.setattr(construction, "_interval_margin", member_3_outside)
    want, want_calls = _outcome(
        monkeypatch, lambda: _family_one_at_a_time(xor_fit, xor, dims, act, 6, 9), counted)
    assert calls == [None] * 4
    calls.clear()
    got, got_calls = _outcome(
        monkeypatch, lambda: enumerate_family(xor_fit, xor, dims, act, k=6, seed=9), counted)
    assert calls == [6]
    assert got == want == (ConstructionError, "hidden pre-activation left its interval")
    assert got_calls["_reproduces"] == want_calls["_reproduces"] == 4


def test_a_stacked_squeeze_that_overflows_rebuilds_bit_identical_members(xor, xor_fit,
                                                                          monkeypatch):
    squeezed, calls = construction._squeezed, []

    def overflowing_once(*args):
        calls.append(args[-1])
        if len(calls) == 1:
            raise FloatingPointError("overflow encountered in multiply")
        return squeezed(*args)

    act = FAMILY_ACTS["offzero"]
    want = _family_one_at_a_time(xor_fit, xor, (2, 3, 3, 3, 1), act, 5, 2)
    monkeypatch.setattr(construction, "_squeezed", overflowing_once)
    _assert_same_members(enumerate_family(xor_fit, xor, (2, 3, 3, 3, 1), act, k=5, seed=2), want)
    assert [(m.start, m.stop) for m in calls] == [(0, 5)] + [(j, j + 1) for j in range(5)]


@pytest.mark.parametrize("anchor", [1e308, -1e308])
def test_an_output_scale_times_h_t_past_the_float_range_fails_as_one_member_does(xor, xor_fit,
                                                                                 anchor):
    # M / alpha = 2 is finite, but times h(t) = anchor it passes the
    # float64 range: each member forms that product in floats, where it is
    # infinite rather than an error, so the build fails where the
    # one-member build does
    act = PiecewiseLinear((0.0,), (0.5, 2.0), anchor)
    outcomes = []
    for run in (lambda: build_minimum(xor_fit, xor, (2, 3, 3, 1), act, stage="3"),
                lambda: _family_one_at_a_time(xor_fit, xor, (2, 3, 3, 1), act, 1, 0)):
        with pytest.raises(SpurminError) as info:
            run()
        outcomes.append((type(info.value), str(info.value)))
    assert outcomes[0] == outcomes[1]


def test_an_output_bias_past_the_float_range_is_the_float_range_error(xor, xor_fit):
    # M / alpha = 2 times h(t) = 1e308, and M * M-tilde times h(t) = 1e300
    # on a piece of width 1e-12, pass the float64 range while the forward
    # would not overflow: an output bias of -inf, which failed as a
    # ConstructionError or a lost strict decrease, is the float-range
    # PreconditionViolated (a route-3 minimum is member 0 of a family of one)
    wide = PiecewiseLinear((0.0,), (0.5, 2.0), 1e308)
    narrow = PiecewiseLinear((0.0, 1e-12), (0.2, 1.0, 0.5), 1e300)
    runs = {
        "minimum": lambda: build_minimum(xor_fit, xor, (2, 3, 3, 1), wide, stage="3"),
        "descent": lambda: build_descent(xor_fit, xor, (2, 3, 3, 1), narrow, stage="3"),
    }
    for name, run in runs.items():
        with pytest.raises(PreconditionViolated) as info:
            run()
        assert str(info.value) == ("a construction scale leaves the float64 range "
                                   "(the output bias overflows)"), name


# ---------------------------------------------------------------------------
# the invariant the demo's shared shallow search rests on


@pytest.mark.parametrize("spec", ["relu", "leaky:0.2",
                                  {"breakpoints": [0], "slopes": [1, 0], "anchor": 0}])
@pytest.mark.parametrize("data_spec", ["xor", "blobs:3"])
def test_route_2_witness_lifts_the_route_1_witness(spec, data_spec):
    # route 2's first layer and constants are route 1's, bit for bit: both
    # come from the one shallow search of the same fit, activation and
    # shallow dims, which the demo runs once for the two routes
    from spurmin.io import gen_dataset

    data = gen_dataset(data_spec, seed=0)
    fit, act = fit_linear(data, SQ), parse_activation(spec)
    shallow = build_descent(fit, data, (2, 3, 1), act, stage="1")
    deep = build_descent(fit, data, (2, 3, 3, 1), act, stage="2")
    for a, b in ((shallow.net.weights[0], deep.net.weights[0]),
                 (shallow.net.biases[0], deep.net.biases[0])):
        assert a.tobytes() == b.tobytes()
    for name in ("alpha", "gamma", "eta1"):
        assert repr(getattr(shallow.params, name)) == repr(getattr(deep.params, name)), name
