import numpy as np
import pytest

from spurmin import (
    LossKind,
    PreconditionViolated,
    build_deep_minimum,
    build_general_descent,
    build_general_minimum,
    build_shallow_descent,
    build_shallow_minimum,
    descent_gap,
    fd_gradient_check,
    forward,
    perturbation_local_min_test,
    relu,
    three_piece,
    trace_interval_check,
    two_piece,
)
from spurmin.verification import descent_gap_certificate, witness_pair_certificate

SQ = LossKind.SQUARED


class TestPerturbationTest:
    def test_stage1_minimum_passes(self, xor, xor_fit, relu_act):
        point = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act)
        cert = perturbation_local_min_test(point.net, xor, SQ, radius=1e-4, samples=500, seed=7)
        assert cert.verdict
        assert cert.checks[0].value >= -1e-10

    def test_witness_typically_fails(self, xor, xor_fit, relu_act):
        # a descent witness is not a constructed minimum: random perturbations
        # find lower risk immediately
        w = build_shallow_descent(xor_fit, xor, (2, 3, 1), relu_act)
        cert = perturbation_local_min_test(w.net, xor, SQ, radius=1e-4, samples=500, seed=7)
        assert not cert.verdict
        assert cert.checks[0].value < -1e-10

    def test_radius_zero_vacuous_with_warning(self, xor, xor_fit, relu_act):
        point = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act)
        with pytest.warns(UserWarning):
            cert = perturbation_local_min_test(point.net, xor, SQ, radius=0.0, samples=10, seed=7)
        assert cert.verdict

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_draws_rejected(self, xor, xor_fit, relu_act, samples):
        # zero draws would report a vacuous pass with an infinite worst delta
        point = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act)
        with pytest.raises(PreconditionViolated):
            perturbation_local_min_test(point.net, xor, SQ, radius=1e-4, samples=samples, seed=7)

    def test_determinism(self, xor, xor_fit, relu_act):
        point = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act)
        a = perturbation_local_min_test(point.net, xor, SQ, radius=1e-4, samples=100, seed=3)
        b = perturbation_local_min_test(point.net, xor, SQ, radius=1e-4, samples=100, seed=3)
        assert a.checks[0].value == b.checks[0].value

    def test_monotone_radius(self, xor, xor_fit, relu_act):
        # passing at radius r implies passing at r/10 (weaker test)
        point = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act)
        big = perturbation_local_min_test(point.net, xor, SQ, radius=1e-4, samples=200, seed=5)
        small = perturbation_local_min_test(point.net, xor, SQ, radius=1e-5, samples=200, seed=5)
        assert big.verdict and small.verdict


class TestDescentGap:
    def test_stage1_pair(self, xor, xor_fit, relu_act):
        m = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act)
        w = build_shallow_descent(xor_fit, xor, (2, 3, 1), relu_act)
        assert descent_gap(m.risk, w.risk) > 1e-12
        assert descent_gap_certificate(m.risk, w.risk).verdict

    def test_identical_points_fail(self):
        assert not descent_gap_certificate(0.125, 0.125).verdict

    def test_general_route_gap_matches_local_chain(self, xor, xor_fit):
        m3 = build_general_minimum(xor_fit, xor, (2, 3, 3, 1), three_piece())
        w3 = build_general_descent(xor_fit, xor, (2, 3, 3, 1), three_piece())
        m1 = build_shallow_minimum(xor_fit, xor, (2, 3, 1), two_piece(0.2, 1.0))
        w1 = build_shallow_descent(xor_fit, xor, (2, 3, 1), two_piece(0.2, 1.0))
        gap3 = descent_gap(m3.risk, w3.risk)
        gap1 = descent_gap(m1.risk, w1.risk)
        assert gap3 > 0 and abs(gap3 - gap1) <= 1e-10

    def test_pair_certificate_bundle(self, xor, xor_fit, relu_act):
        m = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act)
        w = build_shallow_descent(xor_fit, xor, (2, 3, 1), relu_act)
        cert = witness_pair_certificate(m, w, xor, SQ, samples=100, seed=2)
        assert cert.verdict
        assert {c.name for c in cert.checks} == {
            "minimum_matches_baseline", "descent_gap", "min_risk_delta",
        }


class TestFdGradient:
    def test_quadratic(self, rng):
        A = rng.standard_normal((4, 4))
        H = A @ A.T + np.eye(4)

        def f(x):
            return 0.5 * float(x @ H @ x)

        def g(x):
            return H @ x

        for _ in range(20):
            assert fd_gradient_check(f, g, rng.standard_normal(4)) <= 1e-6

    def test_linear_near_exact(self, rng):
        c = rng.standard_normal(5)
        err = fd_gradient_check(lambda x: float(c @ x), lambda x: c, rng.standard_normal(5))
        assert err <= 1e-10

    def test_wrong_gradient_detected(self, rng):
        c = rng.standard_normal(5)
        err = fd_gradient_check(lambda x: float(c @ x), lambda x: 2 * c, rng.standard_normal(5))
        assert err > 1e-2


class TestTraceInterval:
    def test_deep_minimum_positive(self, xor, xor_fit, relu_act):
        point = build_deep_minimum(xor_fit, xor, (2, 3, 3, 1), relu_act)
        cert = trace_interval_check(forward(point.net, xor.X), 0.0, np.inf)
        assert cert.verdict
        assert cert.checks[0].value > 0

    def test_general_minimum_unit_interval(self, xor, xor_fit):
        point = build_general_minimum(xor_fit, xor, (2, 3, 3, 1), three_piece())
        cert = trace_interval_check(forward(point.net, xor.X), 0.0, 1.0)
        assert cert.verdict

    def test_broken_eta_fails(self, xor, xor_fit, relu_act):
        # an eta that is not negative enough leaves some unit nonpositive
        import spurmin.construction as c
        from spurmin import Mlp

        W1, b1, W2, b2 = c._shallow_minimum_params(xor_fit, (2, 3, 1), 1.0, eta=0.5)
        net = Mlp((2, 3, 1), (W1, W2), (b1, b2), relu_act)
        cert = trace_interval_check(forward(net, xor.X), 0.0, np.inf)
        assert not cert.verdict

    def test_certificate_serialization(self, xor, xor_fit, relu_act):
        point = build_deep_minimum(xor_fit, xor, (2, 3, 3, 1), relu_act)
        cert = trace_interval_check(forward(point.net, xor.X), 0.0, np.inf)
        d = cert.as_dict()
        assert d["verdict"] is True
        assert d["checks"][0]["name"] == "interval_margin"
