import numpy as np
import pytest

from spurmin import (
    Dataset,
    InvalidLabels,
    LossKind,
    Mlp,
    PiecewiseLinear,
    PreconditionViolated,
    ShapeViolation,
    check_assumptions,
    empirical_risk,
    forward,
    loss_gradient,
    per_sample_loss,
    relu,
)
from spurmin.network import risk_of_outputs
from spurmin.verification import fd_gradient_check

identity_act = PiecewiseLinear((), (1.0,), 0.0)


def make_identity_net(d: int) -> Mlp:
    return Mlp(
        (d, d, d),
        (np.eye(d), np.eye(d)),
        (np.zeros(d), np.zeros(d)),
        identity_act,
    )


class TestForward:
    def test_identity_net_passes_input(self, rng):
        X = rng.standard_normal((3, 5))
        trace = forward(make_identity_net(3), X)
        assert np.array_equal(trace.output, X)

    def test_stage1_fixture_constant_half(self, xor):
        # hand-assembled from the known one-hidden-layer minimum on the fixture
        net = Mlp(
            (2, 3, 1),
            (np.zeros((3, 2)), np.array([[1.0, 0.0, 0.0]])),
            (np.array([1.5, 1.0, 1.0]), np.array([-1.0])),
            relu(),
        )
        trace = forward(net, xor.X)
        assert np.all(trace.pre[0] > 0)
        assert np.max(np.abs(trace.output - 0.5)) == 0.0

    def test_dead_relu_outputs_bias(self, rng):
        X = rng.standard_normal((2, 4))
        net = Mlp(
            (2, 3, 1),
            (np.zeros((3, 2)), rng.standard_normal((1, 3))),
            (-np.ones(3), np.array([0.7])),
            relu(),
        )
        assert np.max(np.abs(forward(net, X).output - 0.7)) == 0.0

    def test_trace_consistency(self, rng):
        net = Mlp(
            (2, 4, 3, 1),
            tuple(rng.standard_normal(s) for s in [(4, 2), (3, 4), (1, 3)]),
            tuple(rng.standard_normal(s) for s in [4, 3, 1]),
            relu(),
        )
        trace = forward(net, rng.standard_normal((2, 6)))
        for j in range(net.n_layers - 1):
            assert np.array_equal(trace.post[j], net.activation(trace.pre[j]))
        assert np.array_equal(trace.post[-1], trace.pre[-1])

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeViolation):
            forward(make_identity_net(3), rng.standard_normal((2, 4)))


class TestRisk:
    def test_perfect_prediction(self, rng):
        X = rng.standard_normal((3, 5))
        data = Dataset(X, X)
        assert empirical_risk(make_identity_net(3), data, LossKind.SQUARED) == 0.0

    def test_xor_constant_half(self, xor):
        net = Mlp(
            (2, 1, 1),
            (np.zeros((1, 2)), np.zeros((1, 1))),
            (np.zeros(1), np.array([0.5])),
            relu(),
        )
        # (1/4) * 4 * (1/2) * 0.25
        assert empirical_risk(net, xor, LossKind.SQUARED) == pytest.approx(0.125, abs=1e-15)

    def test_ce_uniform_softmax(self):
        y = np.array([[1.0], [0.0]])
        yhat = np.zeros((2, 1))
        assert per_sample_loss(LossKind.CROSS_ENTROPY, y, yhat)[0] == pytest.approx(np.log(2), abs=1e-15)

    def test_ce_rejects_non_one_hot(self):
        y = np.array([[0.5], [0.5]])
        with pytest.raises(InvalidLabels):
            per_sample_loss(LossKind.CROSS_ENTROPY, y, np.zeros((2, 1)))


class TestLossGradients:
    def test_squared_example(self):
        g = loss_gradient(LossKind.SQUARED, np.array([[1.0]]), np.array([[0.5]]))
        assert g[0, 0] == -0.5

    def test_ce_uniform(self):
        g = loss_gradient(LossKind.CROSS_ENTROPY, np.array([[1.0], [0.0]]), np.zeros((2, 1)))
        assert np.allclose(g[:, 0], [-0.5, 0.5], atol=1e-15)

    def test_squared_zero_at_label(self, rng):
        y = rng.standard_normal((3, 1))
        assert np.all(loss_gradient(LossKind.SQUARED, y, y) == 0.0)

    def test_fd_match_squared_and_ce(self, rng):
        y_sq = rng.standard_normal(3)
        y_ce = np.array([0.0, 1.0, 0.0])
        for kind, y in [(LossKind.SQUARED, y_sq), (LossKind.CROSS_ENTROPY, y_ce)]:
            for _ in range(100):
                p = rng.standard_normal(3)
                err = fd_gradient_check(
                    lambda q: float(per_sample_loss(kind, y[:, None], q[:, None])[0]),
                    lambda q: loss_gradient(kind, y[:, None], q[:, None])[:, 0],
                    p,
                )
                assert err <= 1e-6

    def test_ce_gradient_nonzero_off_label(self, rng):
        y = np.array([1.0, 0.0, 0.0])
        for _ in range(100):
            p = rng.standard_normal(3)
            g = loss_gradient(LossKind.CROSS_ENTROPY, y[:, None], p[:, None])
            assert np.linalg.norm(g) > 0.0

    def test_squared_midpoint_strict_convexity(self, rng):
        # exact identity: l(mid) = avg - ||a-b||^2 / 8 under the 1/2 convention
        y = rng.standard_normal(4)
        for _ in range(100):
            a, b = rng.standard_normal(4), rng.standard_normal(4)
            la = per_sample_loss(LossKind.SQUARED, y[:, None], a[:, None])[0]
            lb = per_sample_loss(LossKind.SQUARED, y[:, None], b[:, None])[0]
            lm = per_sample_loss(LossKind.SQUARED, y[:, None], ((a + b) / 2)[:, None])[0]
            gap = float(np.sum((a - b) ** 2)) / 8.0
            assert lm < 0.5 * la + 0.5 * lb - 0.999 * gap


class TestAssumptions:
    def test_xor_all_hold(self, xor):
        rep = check_assumptions(xor, (2, 3, 1), relu(), LossKind.SQUARED)
        assert rep.linear_inseparable
        assert rep.distinct_samples
        assert rep.widths_ok
        assert rep.turning_point_ok
        assert rep.balanced_widths_ok  # d_1 = 3 >= d_Y + 2
        rep2 = check_assumptions(xor, (2, 2, 1), relu(), LossKind.SQUARED)
        assert not rep2.balanced_widths_ok

    def test_linear_data_fails_first(self, rng):
        X = rng.standard_normal((2, 8))
        data = Dataset(X, (2.0 * X[0:1]))
        rep = check_assumptions(data, (2, 3, 1), relu())
        assert not rep.linear_inseparable

    def test_narrow_hidden_fails_width(self, rng):
        X = rng.standard_normal((2, 4))
        data = Dataset(X, rng.standard_normal((2, 4)))
        rep = check_assumptions(data, (2, 1, 2), relu())
        assert not rep.widths_ok

    def test_duplicate_columns_detected(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0]])
        data = Dataset(X, np.array([[0.0, 1.0]]))
        rep = check_assumptions(data, (2, 3, 1), relu())
        assert not rep.distinct_samples

    def test_balanced_widths(self, xor):
        rep = check_assumptions(xor, (2, 4, 2, 1), relu())
        assert rep.balanced_widths_ok

    def test_typed_fit_failure_reported_as_nan(self, rng):
        # cross-entropy on labels that are not one-hot: the fit raises InvalidLabels
        data = Dataset(rng.standard_normal((2, 5)), np.array([[0.3, 1.0, 0.0, 1.0, 0.0]]))
        rep = check_assumptions(data, (2, 3, 1), relu(), LossKind.CROSS_ENTROPY)
        assert np.isnan(rep.baseline_residual)
        assert not rep.linear_inseparable

    def test_untyped_fit_failure_propagates(self, xor, monkeypatch):
        import spurmin.linear_fit

        def broken_fit(data, loss):
            raise RuntimeError("bug in the fit")

        monkeypatch.setattr(spurmin.linear_fit, "fit_linear", broken_fit)
        with pytest.raises(RuntimeError):
            check_assumptions(xor, (2, 3, 1), relu())


class TestDatasetValidation:
    def test_sample_count_mismatch(self):
        with pytest.raises(ShapeViolation):
            Dataset(np.zeros((2, 3)), np.zeros((1, 4)))

    def test_needs_samples(self):
        with pytest.raises(Exception):
            Dataset(np.zeros((2, 0)), np.zeros((1, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["X", "Y"])
    def test_non_finite_rejected(self, bad, where):
        X, Y = np.zeros((2, 3)), np.zeros((1, 3))
        (X if where == "X" else Y)[0, 1] = bad
        with pytest.raises(PreconditionViolated, match="finite"):
            Dataset(X, Y)


class TestBatchedLoss:
    @pytest.mark.parametrize("kind", [LossKind.SQUARED, LossKind.CROSS_ENTROPY])
    @pytest.mark.parametrize("d_y,n", [(1, 1), (2, 7), (3, 9), (10, 1), (10, 300)])
    def test_stack_matches_each_prediction(self, rng, kind, d_y, n):
        Y = np.eye(d_y)[:, np.arange(n) % d_y]
        stack = 3.0 * rng.standard_normal((2, 5, d_y, n))
        losses = per_sample_loss(kind, Y, stack)
        risks = risk_of_outputs(stack, Y, kind)
        assert losses.shape == (2, 5, n) and risks.shape == (2, 5)
        for i in range(2):
            for j in range(5):
                assert per_sample_loss(kind, Y, stack[i, j]).tolist() == losses[i, j].tolist()
                assert risk_of_outputs(stack[i, j], Y, kind) == risks[i, j]
        assert type(risk_of_outputs(stack[0, 0], Y, kind)) is float

    def test_label_shape_must_match_trailing_axes(self, rng):
        with pytest.raises(ShapeViolation):
            per_sample_loss(LossKind.SQUARED, np.zeros((1, 4)), np.zeros((3, 1, 5)))
