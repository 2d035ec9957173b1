import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurmin import (
    BoundaryCell,
    LossKind,
    Mlp,
    NotEquivalent,
    PiecewiseLinear,
    PreconditionViolated,
    ShapeViolation,
    activation_pattern,
    build_shallow_minimum,
    build_valley_path,
    empirical_risk,
    equivalence_check,
    forward,
    lift_data,
    linear_collapse_check,
    net_cell_inputs,
    quotient_gradient_residual,
    quotient_map,
    reformulated_risk,
    relu,
    signatures_equal,
    solve_cell_optimum,
    two_piece,
    walk_valley,
)
from spurmin import cells, network
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
        point = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act)
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
        point = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act)
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
        point = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act)
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
        point = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act)
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
        point = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act)
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
        net = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act).net
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

    def test_differing_output_biases_raise(self, xor, xor_fit, relu_act):
        net = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act).net
        shifted = Mlp(net.dims, net.weights, (net.biases[0], net.biases[1] + 1.0), net.activation)
        with pytest.raises(PreconditionViolated, match="output bias"):
            walk_valley(net, shifted, xor, SQ, steps_per_move=10)

    def test_one_forward_per_path_point(self, xor, xor_fit, relu_act, forward_calls):
        net = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act).net
        valley = walk_valley(net, _rescaled(net, np.array([2.0, 0.5, 3.0])), xor, SQ,
                             steps_per_move=10)
        assert len(forward_calls) == valley["n_points"] == 31


class TestAnalyze:
    def test_forwards_once(self, xor, xor_fit, relu_act, forward_calls):
        net = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act).net
        payload = analyze(net, xor, SQ)
        assert len(forward_calls) == 1
        assert payload["risk"] == empirical_risk(net, xor, SQ)

    def test_output_width_mismatch_is_shape_violation(self, xor, rng):
        net = Mlp((2, 3, 2), (rng.standard_normal((3, 2)), rng.standard_normal((2, 3))),
                  (rng.standard_normal(3), rng.standard_normal(2)), relu())
        with pytest.raises(ShapeViolation, match="output width"):
            analyze(net, xor, SQ)


class TestLinearCollapse:
    def test_identity_single_cell(self, xor):
        assert linear_collapse_check(identity_act, xor.X, 4, trials=50, seed=0)

    def test_scaled_linear_single_cell(self, xor):
        act = PiecewiseLinear((), (2.0,), 0.0)
        assert linear_collapse_check(act, xor.X, 4, trials=50, seed=0)

    def test_relu_varies(self, xor):
        assert not linear_collapse_check(relu(), xor.X, 4, trials=50, seed=0)

    @pytest.mark.parametrize("seed", [-1, 0.5, False, "0"])
    def test_bad_seed_is_precondition(self, xor, seed):
        with pytest.raises(PreconditionViolated, match="seed must be"):
            linear_collapse_check(relu(), xor.X, 4, trials=50, seed=seed)
