import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurmin import (
    BoundaryCell,
    Dataset,
    LossKind,
    Mlp,
    NotEquivalent,
    PiecewiseLinear,
    PreconditionViolated,
    ShapeViolation,
    absolute_value,
    activation_pattern,
    build_minimum,
    build_valley_path,
    empirical_risk,
    equivalence_check,
    forward,
    leaky_relu,
    lift_data,
    linear_collapse_check,
    net_cell_inputs,
    quotient_gradient_residual,
    quotient_map,
    reformulated_risk,
    relu,
    signatures_equal,
    solve_cell_optimum,
    three_piece,
    two_piece,
    walk_valley,
)
from spurmin import cells, network, verification
from spurmin.cells import CellSignature, analyze

SQ = LossKind.SQUARED
identity_act = PiecewiseLinear((), (1.0,), 0.0)


def random_interior_net(rng, act, d_x=2, d_1=4, X=None):
    """Draw until no pre-activation sits on a breakpoint."""
    while True:
        net = Mlp(
            (d_x, d_1, 1),
            (rng.standard_normal((d_1, d_x)), rng.standard_normal((1, d_1))),
            (rng.standard_normal(d_1), rng.standard_normal(1)),
            act,
        )
        if X is None or activation_pattern(net, X).interior:
            return net


class TestPattern:
    def test_stage1_minimum_all_ones(self, xor, xor_fit, relu_act):
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        sig = activation_pattern(point.net, xor.X)
        assert sig.interior
        assert np.array_equal(sig.pattern, np.ones((3, 4)))

    def test_sign_indicator(self, xor):
        net = Mlp(
            (2, 2, 1),
            (np.eye(2), np.ones((1, 2))),
            (np.array([-0.5, -0.5]), np.zeros(1)),
            relu(),
        )
        sig = activation_pattern(net, xor.X)
        pre = forward(net, xor.X).pre[0]
        assert np.array_equal(sig.pattern, (pre > 0).astype(float))

    def test_exact_zero_flags_boundary(self, xor):
        net = Mlp(
            (2, 2, 1),
            (np.eye(2), np.ones((1, 2))),
            (np.zeros(2), np.zeros(1)),
            relu(),
        )
        sig = activation_pattern(net, xor.X)
        assert not sig.interior
        assert (0, 0, 0) in sig.boundary  # unit 0, sample (0,0)

    @pytest.mark.parametrize("b1", [0.0, 1.0])
    def test_boundary_hits_listed_per_layer(self, xor, b1):
        # layer 0 is X + b1: hits where a coordinate is -b1, none for b1 = 1;
        # layer 1 is x0 + x1 and x1 - x0, which vanish at (0,0) and on the
        # diagonal
        net = Mlp(
            (2, 2, 2, 1),
            (np.eye(2), np.array([[1.0, 1.0], [-1.0, 1.0]]), np.ones((1, 2))),
            (np.full(2, b1), np.array([-2.0 * b1, 0.0]), np.zeros(1)),
            relu(),
        )
        X = xor.X
        expected = {(0, int(u), int(s)) for u, s in zip(*np.nonzero(X + b1 == 0))}
        expected |= {(1, 0, int(s)) for s in np.nonzero(X[0] + X[1] == 0)[0]}
        expected |= {(1, 1, int(s)) for s in np.nonzero(X[1] == X[0])[0]}
        sig = activation_pattern(net, X)
        assert sig.boundary == expected
        assert sig.interior == (not expected)


class TestQuotient:
    def test_direct_arithmetic(self):
        q = quotient_map(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([2.0, -1.0]))
        assert q.w_hat.tolist() == [2.0, 4.0, -3.0, -4.0]

    def test_zero_w2(self):
        q = quotient_map(np.ones((2, 2)), np.zeros(2))
        assert np.all(q.w_hat == 0.0)

    def test_shape_guard(self):
        with pytest.raises(ShapeViolation):
            quotient_map(np.ones((2, 2)), np.ones((2, 2)))

    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.01, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_rescaling_invariance(self, seed, c):
        rng = np.random.default_rng(seed)
        W1 = rng.standard_normal((3, 2))
        W2 = rng.standard_normal(3)
        i = int(rng.integers(3))
        W1b, W2b = W1.copy(), W2.copy()
        W1b[i] *= c
        W2b[i] /= c
        qa, qb = quotient_map(W1, W2).w_hat, quotient_map(W1b, W2b).w_hat
        scale = np.maximum(np.abs(qa), 1.0)
        assert np.max(np.abs(qa - qb) / scale) <= 1e-13


class TestLiftAndReformulation:
    def test_kron_column_layout(self):
        sig = CellSignature((np.ones((2, 1)),), frozenset())
        lifted = lift_data(sig, np.array([[1.0], [0.0]]))
        assert lifted.x_hat[:, 0].tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_matches_per_sample_kron(self, rng):
        A = rng.standard_normal((16, 40))
        X = rng.standard_normal((3, 40))
        lifted = lift_data(CellSignature((A,), frozenset()), X)
        oracle = np.column_stack([np.kron(A[:, i], X[:, i]) for i in range(X.shape[1])])
        assert lifted.x_hat.shape == (48, 40)
        assert lifted.x_hat.tobytes() == oracle.tobytes()

    def test_boundary_cell_rejected(self):
        sig = CellSignature((np.ones((2, 1)),), frozenset({(0, 0, 0)}))
        with pytest.raises(BoundaryCell):
            lift_data(sig, np.array([[1.0], [0.0]]))

    def test_stage1_reformulation_identity(self, xor, xor_fit, relu_act):
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        W1a, W2r, b2, Xa = net_cell_inputs(point.net, xor.X)
        sig = activation_pattern(point.net, xor.X)
        lifted = lift_data(sig, Xa)
        q = quotient_map(W1a, W2r)
        reform = reformulated_risk(q, lifted, xor.Y, SQ, output_bias=b2)
        assert abs(reform - point.risk) <= 1e-12

    def test_change_of_order_identity(self, rng):
        # W2 diag(A_col) W1 x == A_col^T diag(W2) W1 x, both sides computed
        act = two_piece(0.3, 1.7)
        X = rng.standard_normal((2, 6))
        for _ in range(100):
            net = random_interior_net(rng, act, X=X)
            sig = activation_pattern(net, X)
            A = sig.pattern
            W1, W2 = net.weights[0], net.weights[1][0]
            for i in range(X.shape[1]):
                lhs = W2 @ (np.diag(A[:, i]) @ (W1 @ X[:, i]))
                rhs = A[:, i] @ (np.diag(W2) @ W1) @ X[:, i]
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_random_in_cell_nets_identity(self, rng):
        # bias-free nets: network risk equals the lifted convex form exactly
        act = two_piece(0.3, 1.7)
        X = rng.standard_normal((2, 6))
        Y = rng.standard_normal((1, 6))
        from spurmin import Dataset

        data = Dataset(X, Y)
        for _ in range(100):
            net = Mlp(
                (2, 4, 1),
                (rng.standard_normal((4, 2)), rng.standard_normal((1, 4))),
                (np.zeros(4), np.zeros(1)),
                act,
            )
            sig = activation_pattern(net, X)
            if not sig.interior:
                continue
            lifted = lift_data(sig, X)
            q = quotient_map(net.weights[0], net.weights[1][0])
            reform = reformulated_risk(q, lifted, Y, SQ)
            assert abs(reform - empirical_risk(net, data, SQ)) <= 1e-12

    def test_zero_w_hat_risk(self, rng):
        Y = rng.standard_normal((1, 5))
        sig = CellSignature((np.ones((2, 5)),), frozenset())
        lifted = lift_data(sig, rng.standard_normal((2, 5)))
        from spurmin.cells import QuotientPoint

        risk = reformulated_risk(QuotientPoint(np.zeros(4)), lifted, Y, SQ)
        assert risk == pytest.approx(float(np.sum(0.5 * Y**2) / 5), abs=1e-15)


class TestResidualAndOptimum:
    def test_stage1_minimum_stationary(self, xor, xor_fit, relu_act):
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        W1a, W2r, b2, Xa = net_cell_inputs(point.net, xor.X)
        lifted = lift_data(activation_pattern(point.net, xor.X), Xa)
        q = quotient_map(W1a, W2r)
        assert quotient_gradient_residual(q, lifted, xor.Y, SQ, output_bias=b2) <= 1e-8

    def test_random_point_not_stationary(self, xor, rng):
        net = random_interior_net(rng, relu(), d_1=3, X=xor.X)
        W1a, W2r, b2, Xa = net_cell_inputs(net, xor.X)
        lifted = lift_data(activation_pattern(net, xor.X), Xa)
        q = quotient_map(W1a, W2r)
        assert quotient_gradient_residual(q, lifted, xor.Y, SQ, output_bias=b2) > 1e-6

    def test_cell_optimum_stationary_and_bounds(self, xor, xor_fit, relu_act):
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        _, _, b2, Xa = net_cell_inputs(point.net, xor.X)
        lifted = lift_data(activation_pattern(point.net, xor.X), Xa)
        q_star, risk_star = solve_cell_optimum(lifted, xor.Y, output_bias=b2)
        assert risk_star <= point.risk + 1e-12
        assert quotient_gradient_residual(q_star, lifted, xor.Y, SQ, output_bias=b2) <= 1e-8

    def test_separable_cell_reaches_zero(self, rng):
        X = rng.standard_normal((2, 4))
        Y = (1.5 * X[0] - 0.5 * X[1])[None, :]
        sig = CellSignature((np.ones((3, 4)),), frozenset())
        lifted = lift_data(sig, X)
        _, risk_star = solve_cell_optimum(lifted, Y)
        assert risk_star <= 1e-18

    def test_rank_deficient_minimum_norm(self):
        X = np.array([[1.0, 2.0]])
        Y = np.array([[1.0, 2.0]])
        sig = CellSignature((np.ones((2, 2)),), frozenset())
        lifted = lift_data(sig, X)
        q_star, risk_star = solve_cell_optimum(lifted, Y)
        assert risk_star <= 1e-18
        oracle = np.linalg.lstsq(lifted.x_hat.T, Y[0], rcond=None)[0]
        assert np.allclose(q_star.w_hat, oracle, atol=1e-12)


class TestEquivalence:
    def test_rescaled_pair(self, rng):
        W1, W2 = rng.standard_normal((3, 2)), rng.standard_normal(3)
        W1b, W2b = W1.copy(), W2.copy()
        W1b[1] *= 3.0
        W2b[1] /= 3.0
        assert equivalence_check((W1, W2), (W1b, W2b))

    def test_sign_flip_rejected(self, rng):
        W1, W2 = rng.standard_normal((3, 2)), rng.standard_normal(3)
        W2b = W2.copy()
        W2b[0] = -W2b[0]
        W1b = W1.copy()
        W1b[0] = -W1b[0]  # same quotient image, opposite sign
        assert not equivalence_check((W1, W2), (W1b, W2b))

    def test_random_pair_rejected(self, rng):
        assert not equivalence_check(
            (rng.standard_normal((3, 2)), rng.standard_normal(3)),
            (rng.standard_normal((3, 2)), rng.standard_normal(3)),
        )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_equivalence_axioms(self, seed):
        rng = np.random.default_rng(seed)
        W1, W2 = rng.standard_normal((3, 2)), rng.standard_normal(3)

        def rescale(cs):
            return (W1 * np.asarray(cs)[:, None], W2 / np.asarray(cs))

        a = rescale(rng.uniform(0.5, 2.0, 3))
        b = rescale(rng.uniform(0.5, 2.0, 3))
        c = rescale(rng.uniform(0.5, 2.0, 3))
        assert equivalence_check(a, a)  # reflexivity
        if equivalence_check(a, b):
            assert equivalence_check(b, a)  # symmetry
        if equivalence_check(a, b, tol=1e-12) and equivalence_check(b, c, tol=1e-12):
            assert equivalence_check(a, c, tol=2e-12)  # transitivity composes


class TestValleyPath:
    def test_two_rescalings_constant_risk(self, xor, xor_fit, relu_act):
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        W1a, W2r, b2, Xa = net_cell_inputs(point.net, xor.X)
        factors = np.array([2.0, 0.5, 3.0])
        p2 = (W1a / factors[:, None], W2r * factors)
        path = build_valley_path((W1a, W2r), p2, steps_per_move=10)
        assert len(path) == 31
        ref_sig = None
        for W1, W2 in path:
            net = Mlp((2, 3, 1), (W1[:, :2], W2[None, :]), (W1[:, 2], np.array([b2])), relu_act)
            assert abs(empirical_risk(net, xor, SQ) - point.risk) <= 1e-10
            sig = activation_pattern(net, xor.X)
            if ref_sig is None:
                ref_sig = sig
            assert signatures_equal(ref_sig, sig)

    def test_identical_endpoints_single_point(self, rng):
        W1, W2 = rng.standard_normal((3, 2)), rng.standard_normal(3)
        path = build_valley_path((W1, W2), (W1.copy(), W2.copy()))
        assert len(path) == 1

    def test_sign_mismatch_raises(self, rng):
        W1, W2 = rng.standard_normal((3, 2)), np.abs(rng.standard_normal(3))
        W1b, W2b = W1.copy(), W2.copy()
        W1b[0] = -W1b[0]
        W2b[0] = -W2b[0]
        with pytest.raises(NotEquivalent):
            build_valley_path((W1, W2), (W1b, W2b))

    def test_endpoints_exact(self, rng):
        W1, W2 = rng.standard_normal((3, 2)), rng.uniform(0.5, 1.5, 3)
        factors = rng.uniform(0.5, 2.0, 3)
        p2 = (W1 / factors[:, None], W2 * factors)
        path = build_valley_path((W1, W2), p2, steps_per_move=4)
        assert np.array_equal(path[0][0], W1) and np.array_equal(path[0][1], W2)
        assert np.array_equal(path[-1][0], p2[0]) and np.array_equal(path[-1][1], p2[1])


def _rescaled(net, factors):
    """net with hidden unit i scaled down by factors[i] on the way in and up
    on the way out: the same function, one valley away."""
    return Mlp(
        net.dims,
        (net.weights[0] / factors[:, None], net.weights[1] * factors),
        (net.biases[0] / factors, net.biases[1]),
        net.activation,
    )


@pytest.fixture
def forward_calls(monkeypatch):
    """Count network.forward calls, under both names that cells and
    network call it by."""
    calls = []
    original = network.forward

    def counting(net, X):
        calls.append(net)
        return original(net, X)

    for module in (network, cells):
        monkeypatch.setattr(module, "forward", counting)
    return calls


class TestWalkValley:
    def test_equals_explicit_rebuild_and_score_loop(self, xor, xor_fit, relu_act):
        net = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1").net
        far = _rescaled(net, np.array([2.0, 0.5, 3.0]))
        valley = walk_valley(net, far, xor, SQ, steps_per_move=4)

        W1a, W2a, b2, _ = net_cell_inputs(net, xor.X)
        W1b, W2b, _, _ = net_cell_inputs(far, xor.X)
        risks, sigs = [], []
        for W1, W2 in build_valley_path((W1a, W2a), (W1b, W2b), steps_per_move=4):
            point = Mlp((2, 3, 1), (W1[:, :2], W2[None, :]), (W1[:, 2], np.array([b2])), relu_act)
            risks.append(empirical_risk(point, xor, SQ))
            sigs.append(activation_pattern(point, xor.X))
        assert valley["n_points"] == len(risks) == 13
        assert valley["risks"] == risks
        assert valley["risk_max_dev"] == max(abs(r - risks[0]) for r in risks)
        assert valley["pattern_constant"] is all(signatures_equal(sigs[0], s) for s in sigs)
        assert valley["pattern_constant"] and valley["risk_max_dev"] <= 1e-10

    @pytest.mark.parametrize("steps", [2.5, True, "3", np.array(3.0), 0, -2])
    def test_steps_per_move_must_be_a_positive_integer(self, xor, xor_fit, relu_act, steps):
        # 2.5 and "3" would fail in range(), and True would walk one step
        net = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1").net
        far = _rescaled(net, np.array([2.0, 0.5, 3.0]))
        with pytest.raises(PreconditionViolated, match="^steps_per_move must be"):
            walk_valley(net, far, xor, SQ, steps_per_move=steps)

    def test_numpy_integer_steps_per_move_accepted(self, xor, xor_fit, relu_act):
        net = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1").net
        far = _rescaled(net, np.array([2.0, 0.5, 3.0]))
        assert (walk_valley(net, far, xor, SQ, steps_per_move=np.int64(3))
                == walk_valley(net, far, xor, SQ, steps_per_move=3))

    def test_differing_output_biases_raise(self, xor, xor_fit, relu_act):
        net = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1").net
        shifted = Mlp(net.dims, net.weights, (net.biases[0], net.biases[1] + 1.0), net.activation)
        with pytest.raises(PreconditionViolated, match="output bias"):
            walk_valley(net, shifted, xor, SQ, steps_per_move=10)

    def test_differing_activations_raise_before_the_path_is_built(self, xor, monkeypatch):
        # the same parameters score differently under relu and leaky relu, so
        # a walk scored with one endpoint's activation would read flat
        net = _random_net((2, 3, 1), relu(), seed=4)
        leaky = Mlp(net.dims, net.weights, net.biases, leaky_relu(0.5))
        assert empirical_risk(net, xor, SQ) != empirical_risk(leaky, xor, SQ)
        monkeypatch.setattr(cells, "_valley_points", mock.Mock(side_effect=AssertionError))
        for a, b in ((net, leaky), (leaky, net)):
            with pytest.raises(PreconditionViolated, match="endpoints must share the activation"):
                walk_valley(a, b, xor, SQ, steps_per_move=10)

    def test_shapes_checked_before_the_path_is_built(self, xor, xor_fit, relu_act,
                                                     monkeypatch):
        net = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1").net
        far = _rescaled(net, np.array([2.0, 0.5, 3.0]))
        monkeypatch.setattr(cells, "_valley_points", mock.Mock(side_effect=AssertionError))
        two_labels = Dataset(xor.X, np.vstack([xor.Y, xor.Y]))
        three_features = Dataset(np.vstack([xor.X, xor.X[:1]]), xor.Y)
        for data, match in ((two_labels, "output width"), (three_features, "input must be")):
            with pytest.raises(ShapeViolation, match=match):
                walk_valley(net, far, data, SQ, steps_per_move=3)

    def test_holds_one_chunk_of_the_path(self, xor, xor_fit, relu_act):
        # 1281 points of (2, 64, 64, 1) on 4 samples: the whole path as
        # copies of every layer takes about 48 MB, one chunk of it under 3
        net = build_minimum(xor_fit, xor, (2, 64, 64, 1), relu_act, stage="2").net
        far = _layer_rescaled(net, seed=5)
        tracemalloc.start()
        try:
            valley = walk_valley(net, far, xor, SQ, steps_per_move=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert valley["n_points"] == 1281 and valley["risk_flat"] and valley["pattern_constant"]
        assert peak < 8e6

    def test_one_stacked_pass_per_chunk(self, xor, xor_fit, relu_act, forward_calls,
                                        monkeypatch):
        # 31 points of (2, 3, 1) on 4 samples fit one chunk: one stacked
        # pass over all of them, and no network built or forwarded per point
        passes, stacked = [], cells._stacked_outputs

        def counting(layers, act, X):
            passes.append(len(layers))
            return stacked(layers, act, X)

        monkeypatch.setattr(cells, "_stacked_outputs", counting)
        net = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1").net
        far = _rescaled(net, np.array([2.0, 0.5, 3.0]))
        monkeypatch.setattr(cells, "Mlp", None)  # a network built per point raises
        valley = walk_valley(net, far, xor, SQ, steps_per_move=10)
        assert passes == [valley["n_points"]] == [31]
        assert not forward_calls


class TestAnalyze:
    def test_forwards_once(self, xor, xor_fit, relu_act, forward_calls):
        net = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1").net
        payload = analyze(net, xor, SQ)
        assert len(forward_calls) == 1
        assert payload["risk"] == empirical_risk(net, xor, SQ)

    @pytest.mark.parametrize("act", [relu(), leaky_relu(0.01), absolute_value(), three_piece()])
    def test_minima_on_pieces_through_the_origin_keep_the_in_cell_keys(self, xor, xor_fit, act):
        net = build_minimum(xor_fit, xor, (2, 3, 1), act).net
        payload = analyze(net, xor, SQ)
        assert abs(payload["reformulated_risk"] - payload["risk"]) <= 1e-12
        assert {"quotient_gradient_residual", "cell_risk_lower_bound"} <= set(payload)

    @pytest.mark.parametrize("act", [three_piece(), PiecewiseLinear((0.0,), (0.0, 1.0), 1.0)])
    def test_no_in_cell_keys_on_pieces_off_the_origin(self, act, forward_calls):
        # both hidden units sit on a piece whose line misses the origin
        # (threepiece's (1, inf), or the anchor-1 relu): the slope-only lift
        # would read a reformulated risk of 0.05 or 0.2 against a risk of 4e-5
        rng = np.random.default_rng(0)
        X = rng.standard_normal((2, 40))
        W1 = 0.1 * rng.standard_normal((2, 2))
        W2 = rng.standard_normal((1, 2))
        net = Mlp((2, 2, 1), (W1, W2), (np.array([3.0, 2.5]), np.array([0.3])), act)
        Y = forward(net, X).output + 0.01 * rng.standard_normal((1, 40))
        payload = analyze(net, Dataset(X, Y), SQ)
        assert len(forward_calls) == 1
        assert payload["interior"] and payload["risk"] < 1e-4
        in_cell = {"reformulated_risk", "quotient_gradient_residual", "cell_risk_lower_bound"}
        assert not in_cell & set(payload)

    def test_output_width_mismatch_is_shape_violation(self, xor, rng):
        net = Mlp((2, 3, 2), (rng.standard_normal((3, 2)), rng.standard_normal((2, 3))),
                  (rng.standard_normal(3), rng.standard_normal(2)), relu())
        with pytest.raises(ShapeViolation, match="output width"):
            analyze(net, xor, SQ)


class TestLinearCollapse:
    def test_identity_single_cell(self, xor):
        assert linear_collapse_check(identity_act, xor.X)

    def test_scaled_linear_single_cell(self, xor):
        act = PiecewiseLinear((), (2.0,), 0.0)
        assert linear_collapse_check(act, xor.X)

    def test_relu_varies(self, xor):
        assert not linear_collapse_check(relu(), xor.X)


class TestOneRescalingRule:
    """`equivalence_check` holds exactly when `build_valley_path` builds."""

    def _path_builds(self, a, b):
        try:
            build_valley_path(a, b, steps_per_move=3)
        except NotEquivalent:
            return False
        return True

    def test_dead_unit_with_unrelated_rows(self):
        W1, W2 = np.array([[1.0, 2.0], [1.0, 1.0]]), np.array([1.0, 0.0])
        W1b = np.array([[1.0, 2.0], [1.0, 3.0]])
        assert not equivalence_check((W1, W2), (W1b, W2))
        assert not self._path_builds((W1, W2), (W1b, W2))

    def test_dead_unit_with_proportional_rows(self):
        W1, W2 = np.array([[1.0, 2.0], [1.0, -4.0]]), np.array([1.0, 0.0])
        W1b = np.array([[1.0, 2.0], [0.25, -1.0]])
        assert equivalence_check((W1, W2), (W1b, W2))
        path = build_valley_path((W1, W2), (W1b, W2), steps_per_move=4)
        assert np.array_equal(path[-1][0], W1b) and np.array_equal(path[-1][1], W2)
        # the dead unit's row shrinks by the factor 4 along the way
        assert np.allclose(path[6][0][1], W1[1] / 4.0 ** 0.5)

    @pytest.mark.parametrize("magnitude", [1e4, 1e6, 1e9])
    def test_exact_rescalings_accepted_at_any_weight_magnitude(self, magnitude):
        rng = np.random.default_rng(0)
        for _ in range(200):
            W1, W2 = magnitude * rng.standard_normal((3, 2)), magnitude * rng.standard_normal(3)
            factors = rng.uniform(0.5, 2.0, 3)
            p2 = (W1 / factors[:, None], W2 * factors)
            assert equivalence_check((W1, W2), p2)
            assert self._path_builds((W1, W2), p2)

    def test_check_agrees_with_the_path_on_mixed_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            W1, W2 = rng.standard_normal((3, 2)), rng.standard_normal(3)
            W2[rng.integers(0, 3)] = 0.0  # one dead unit
            W1b, W2b = W1 * rng.uniform(0.5, 2.0, (3, 1)), W2.copy()
            live = W2 != 0.0
            W2b[live] = W2[live] * W1[live, 0] / W1b[live, 0]
            if rng.random() < 0.5:
                W1b[rng.integers(0, 3), rng.integers(0, 2)] *= -1.0
            a, b = (W1, W2), (W1b, W2b)
            assert equivalence_check(a, b) == self._path_builds(a, b)


def _layer_rescaled(net, seed):
    """net with every hidden unit of every layer scaled down on the way in
    and up on the way out by a seeded factor from U(0.5, 2)."""
    rng = np.random.default_rng(seed)
    c_in, weights, biases = np.ones(net.dims[0]), [], []
    for W, b in zip(net.weights, net.biases):
        c = rng.uniform(0.5, 2.0, len(b)) if len(weights) < net.n_layers - 1 else np.ones(len(b))
        weights.append(W * c_in / c[:, None])
        biases.append(b / c)
        c_in = c
    return Mlp(net.dims, weights, biases, net.activation)


class TestValleyAtAnyDepth:
    """One rescaling rule on the layers: valleys of route-2 minima at depth
    and of nets with two outputs walk flat and land exactly on their end."""

    def _minimum(self, dims, two_outputs=False):
        from conftest import random_two_output_dataset
        from spurmin import build_minimum, fit_linear, xor_dataset

        data = random_two_output_dataset() if two_outputs else xor_dataset()
        stage = "1" if len(dims) == 3 else "2"
        return data, build_minimum(fit_linear(data, SQ), data, dims, relu(), stage=stage).net

    @pytest.mark.parametrize("dims, two_outputs", [
        ((2, 3, 3, 1), False), ((2, 4, 4, 3, 1), False), ((2, 4, 2), True),
    ])
    def test_rescaled_minimum_walks_flat_to_its_end(self, dims, two_outputs):
        data, net = self._minimum(dims, two_outputs)
        far = _layer_rescaled(net, seed=sum(dims))
        valley = walk_valley(net, far, data, SQ, steps_per_move=4)
        assert valley["risk_flat"] and valley["pattern_constant"]
        assert valley["n_points"] == 1 + sum(dims[1:-1]) * 4
        weights, biases = list(cells._valley_points((net.weights, net.biases),
                                                    (far.weights, far.biases), 4))[-1]
        for got, want in zip([*weights, *biases], [*far.weights, *far.biases]):
            assert np.array_equal(got, want)

    def test_sign_flip_in_the_second_layer_is_not_equivalent(self):
        data, net = self._minimum((2, 3, 3, 1))
        W, b = [w.copy() for w in net.weights], [x.copy() for x in net.biases]
        W[1][0], b[1][0], W[2][:, 0] = -W[1][0], -b[1][0], -W[2][:, 0]
        with pytest.raises(NotEquivalent):
            walk_valley(net, Mlp(net.dims, W, b, net.activation), data, SQ, steps_per_move=4)


# ---------------------------------------------------------------------------
# the stacked valley walk and the exact collapse answer, against the
# one-network-at-a-time loops they replaced, kept here as oracles


def _walk_valley_one_at_a_time(net_a, net_b, data, loss, steps_per_move):
    """walk_valley as a loop that builds and forwards every point's network."""
    points = list(cells._valley_points((net_a.weights, net_a.biases),
                                       (net_b.weights, net_b.biases), steps_per_move))
    risks, pattern_constant, ref = [], True, None
    for point in points:
        risk, sig, _ = cells._risk_and_signature(Mlp(net_a.dims, *point, net_a.activation), data,
                                                 loss)
        risks.append(risk)
        ref = sig if ref is None else ref
        pattern_constant = pattern_constant and signatures_equal(ref, sig)
    dev = float(np.max(np.abs(np.asarray(risks) - risks[0])))
    return {
        "n_points": len(points),
        "risks": risks,
        "risk_max_dev": dev,
        "risk_flat": dev <= cells.VALLEY_RISK_TOL * max(1.0, abs(risks[0])),
        "pattern_constant": pattern_constant,
    }


def _assert_same_walk(got, want):
    assert got.keys() == want.keys()
    assert got["n_points"] == want["n_points"]
    assert [type(r) for r in got["risks"]] == [float] * want["n_points"]
    assert np.array(got["risks"]).tobytes() == np.array(want["risks"]).tobytes()
    for key in ("risk_max_dev", "risk_flat", "pattern_constant"):
        assert got[key] == want[key] and type(got[key]) is type(want[key])


def _random_net(dims, act, seed):
    rng = np.random.default_rng(seed)
    return Mlp(dims, [rng.standard_normal((b, a)) for a, b in zip(dims, dims[1:])],
               [rng.standard_normal(b) for b in dims[1:]], act)


class TestStackedValleyMatchesTheLoop:
    @pytest.mark.parametrize("dims, two_outputs", [
        ((2, 3, 1), False), ((2, 3, 3, 1), False), ((2, 4, 3, 3, 1), False),
        ((2, 3, 2), True), ((2, 4, 3, 2), True), ((2, 3, 3, 3, 2), True),
    ])
    @pytest.mark.parametrize("act", [relu(), two_piece(1.0, 0.0), three_piece()],
                             ids=["relu", "reflected", "threepiece"])
    def test_rescaled_minima(self, dims, two_outputs, act):
        from conftest import random_two_output_dataset
        from spurmin import fit_linear, xor_dataset

        data = random_two_output_dataset() if two_outputs else xor_dataset()
        stage = "3" if not act.is_two_piece else ("1" if len(dims) == 3 else "2")
        net = build_minimum(fit_linear(data, SQ), data, dims, act, stage=stage).net
        far = _layer_rescaled(net, seed=sum(dims))
        want = _walk_valley_one_at_a_time(net, far, data, SQ, 3)
        _assert_same_walk(walk_valley(net, far, data, SQ, steps_per_move=3), want)

    @pytest.mark.parametrize("dims", [(2, 3, 1), (2, 4, 3, 2), (3, 3, 3, 3, 1)])
    @pytest.mark.parametrize("act", [relu(), three_piece(), PiecewiseLinear((-0.5, 0.5), (1.0, -0.5, 2.0), 0.3)],
                             ids=["relu", "threepiece", "offset"])
    def test_random_nets_whose_pattern_moves(self, dims, act):
        # rescaling moves pre-activations across breakpoints off the origin,
        # so the pattern, and off the origin the risk, changes along the way
        rng = np.random.default_rng(len(dims))
        data = Dataset(rng.standard_normal((dims[0], 9)), rng.standard_normal((dims[-1], 9)))
        net = _random_net(dims, act, seed=sum(dims))
        far = _layer_rescaled(net, seed=7)
        want = _walk_valley_one_at_a_time(net, far, data, SQ, 4)
        _assert_same_walk(walk_valley(net, far, data, SQ, steps_per_move=4), want)
        # only relu's one breakpoint at the origin keeps every sign
        assert want["pattern_constant"] is want["risk_flat"] is (act.breakpoints == (0.0,))

    def test_cross_entropy(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 3, 11)
        data = Dataset(rng.standard_normal((2, 11)), np.eye(3)[:, labels])
        net = _random_net((2, 4, 4, 3), leaky_relu(0.2), seed=3)
        far = _layer_rescaled(net, seed=4)
        want = _walk_valley_one_at_a_time(net, far, data, LossKind.CROSS_ENTROPY, 2)
        _assert_same_walk(walk_valley(net, far, data, LossKind.CROSS_ENTROPY, 2), want)

    @pytest.mark.parametrize("budget", [1, 250, 500, 1000, 3000, 1 << 17])
    def test_chunk_boundaries(self, monkeypatch, budget):
        # (2, 5, 4, 2) on 50 samples: 250 elements in a point's widest layer
        # output, so 1, 1, 2, 4 and 12 points per chunk, the last chunk
        # short, and one chunk of all 37
        rng = np.random.default_rng(14)
        data = Dataset(rng.standard_normal((2, 50)), rng.standard_normal((2, 50)))
        net = _random_net((2, 5, 4, 2), three_piece(), seed=15)
        far = _layer_rescaled(net, seed=16)
        want = _walk_valley_one_at_a_time(net, far, data, SQ, 4)
        monkeypatch.setattr(verification, "_CHUNK_ELEMENTS", budget)
        assert verification._stack_size(net.dims, data.n) == max(1, budget // 250)
        _assert_same_walk(walk_valley(net, far, data, SQ, steps_per_move=4), want)

    def test_shape_errors_as_before(self, xor, xor_fit, relu_act):
        net = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1").net
        far = _rescaled(net, np.array([2.0, 0.5, 3.0]))
        two_labels = Dataset(xor.X, np.vstack([xor.Y, xor.Y]))
        three_features = Dataset(np.vstack([xor.X, xor.X[:1]]), xor.Y)
        for data, match in ((two_labels, "output width"), (three_features, "input must be")):
            for walk in (walk_valley, _walk_valley_one_at_a_time):
                with pytest.raises(ShapeViolation, match=match):
                    walk(net, far, data, SQ, 3)


ONE_SLOPE_ACTS = {
    "identity": identity_act,
    "slope2": PiecewiseLinear((), (2.0,), 0.0),
    "anchored": PiecewiseLinear((), (-0.5,), 1.25),
    "breakpoints_one_slope": PiecewiseLinear((-1.0, 0.0, 2.0), (3.0, 3.0, 3.0, 3.0), -0.5),
}


class TestExactCollapse:
    def test_no_activation_draws(self, xor, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)
        for act in ONE_SLOPE_ACTS.values():
            assert linear_collapse_check(act, xor.X) is True
        for act in (relu(), leaky_relu(0.5), three_piece()):
            assert linear_collapse_check(act, xor.X) is False

    def test_breakpoint_beyond_every_sample_is_two_cells(self, xor):
        # a sampled check never reached this breakpoint and read one cell
        assert linear_collapse_check(PiecewiseLinear((1e6,), (1.0, 2.0)), xor.X) is False

    @given(
        st.floats(min_value=-1e6, max_value=1e6),
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=0, max_size=3),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_nonlinear_activation_has_two_witness_cells(self, start, gaps, data):
        bps = tuple(np.cumsum([start, *gaps]).tolist())
        slope = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                          st.floats(min_value=-10, max_value=10))
        slopes = data.draw(st.lists(slope, min_size=len(bps) + 1, max_size=len(bps) + 1))
        act = PiecewiseLinear(bps, tuple(slopes), data.draw(st.floats(-10, 10)))
        d_x, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
        X = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=d_x * n,
                                        max_size=d_x * n))).reshape(d_x, n)
        turns = [i for i in range(len(bps)) if slopes[i] != slopes[i + 1]]
        assert linear_collapse_check(act, X) is (not turns)
        for i in turns:
            # one unit with zero weights sees its bias at every sample
            left, right = (
                activation_pattern(Mlp((d_x, 1, 1), (np.zeros((1, d_x)), np.ones((1, 1))),
                                       (np.array([bias]), np.zeros(1)), act), X)
                for bias in (np.nextafter(bps[i], -np.inf), np.nextafter(bps[i], np.inf))
            )
            assert not signatures_equal(left, right)

    @pytest.mark.parametrize("act", [identity_act, relu()], ids=["identity", "relu"])
    def test_three_dimensional_X_is_a_shape_violation(self, act):
        for X in (np.zeros((2, 3, 4)), np.zeros((2, 0, 3))):
            with pytest.raises(ShapeViolation):
                linear_collapse_check(act, X)

    @pytest.mark.parametrize("act", [identity_act, relu()], ids=["identity", "relu"])
    @pytest.mark.parametrize("X", [np.zeros((2, 0)), np.zeros(0)], ids=["d_x=2", "1-d"])
    def test_no_samples_is_a_precondition_not_a_pass(self, act, X):
        # every empty pattern equals every other: a True here would check nothing
        with pytest.raises(PreconditionViolated, match="need at least one sample"):
            linear_collapse_check(act, X)

    @pytest.mark.parametrize("act", [*ONE_SLOPE_ACTS.values(), relu(), three_piece()],
                             ids=[*ONE_SLOPE_ACTS, "relu", "threepiece"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_X_is_refused(self, xor, act, bad):
        X = xor.X.copy()
        X[1, 2] = bad
        with pytest.raises(PreconditionViolated, match="X must be finite"):
            linear_collapse_check(act, X)
