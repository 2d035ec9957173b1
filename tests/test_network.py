import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    leaky_relu,
    loss_gradient,
    per_sample_loss,
    relu,
    three_piece,
)
from spurmin.network import _layer_outputs, augment, risk_of_outputs
from spurmin.verification import fd_gradient_check
from test_verification import pl_activations

identity_act = PiecewiseLinear((), (1.0,), 0.0)


def make_identity_net(d: int) -> Mlp:
    return Mlp(
        (d, d, d),
        (np.eye(d), np.eye(d)),
        (np.zeros(d), np.zeros(d)),
        identity_act,
    )


class TestDims:
    WEIGHTS = (np.zeros((3, 2)), np.zeros((1, 3)))
    BIASES = (np.zeros(3), np.zeros(1))

    @pytest.mark.parametrize("entry", [3.9, True, "3", np.True_, np.float64(3.0),
                                       np.array(3.0)])
    def test_entry_that_is_not_an_integer_is_refused(self, entry):
        # int() would build (2, 3, 1) from 3.9 and "3", and (2, 1, 1) from True
        with pytest.raises(ShapeViolation, match=re.escape(f"dims entry {entry!r} is not")):
            Mlp((2, entry, 1), self.WEIGHTS, self.BIASES, relu())

    def test_numpy_integer_entry_builds(self):
        net = Mlp((2, np.int64(3), 1), self.WEIGHTS, self.BIASES, relu())
        assert net.dims == (2, 3, 1)
        assert all(type(d) is int for d in net.dims)


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


def assert_same_bits(a, b):
    """Equal shapes, dtypes and bytes, so signed zeros and NaNs match too."""
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


# entries for X and the parameters: the zeros, infinities and NaN the pass-
# through must see, and finite values on either side of every breakpoint
SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan)
FINITE = (0.25, 0.5, 0.75, 1.0, 1.5, 3.0, -0.25, -1.0, -2.5)
# a slope-1 piece that is the identity (relu, threepiece, a reference and
# knot of -0.0) and one that is not (reference 0.5, knot 0.3)
SLOPE_ONE_ACTS = (relu(), three_piece(), PiecewiseLinear((-0.0,), (1.0, 3.0), -0.0),
                  PiecewiseLinear((0.5,), (2.0, 1.0), 0.3))


def chain_net(dims, act, entries):
    """An Mlp of shape dims whose weights and biases are read in turn from
    entries, cycled."""
    it = iter(np.resize(np.asarray(entries, dtype=float), sum(
        a * b + b for a, b in zip(dims, dims[1:]))))
    weights = tuple(np.array([[next(it) for _ in range(a)] for _ in range(b)])
                    for a, b in zip(dims, dims[1:]))
    biases = tuple(np.array([next(it) for _ in range(b)]) for b in dims[1:])
    return Mlp(dims, weights, biases, act)


class TestPassThrough:
    """A hidden layer on the activation's identity piece with no zero entry
    is recorded once, as pre[j] and post[j]; every other layer is a fresh
    array.  Either way post[j] is act(pre[j]) byte for byte.  numpy's
    matmul gave +0.0 for every zero sum here, so a -0.0 entry is checked on
    `PiecewiseLinear._layer`, which the forward calls per layer."""

    @settings(max_examples=80, deadline=None)
    @given(
        act=st.one_of(st.sampled_from(SLOPE_ONE_ACTS), pl_activations()),
        width=st.integers(min_value=1, max_value=3),
        depth=st.integers(min_value=1, max_value=3),
        x=st.lists(st.sampled_from(SPECIAL + FINITE), min_size=1, max_size=8),
        params=st.lists(st.sampled_from(SPECIAL[:2] + FINITE), min_size=1, max_size=12),
        stacked=st.booleans(),
    )
    def test_post_is_the_activation_of_pre(self, act, width, depth, x, params, stacked):
        dims = (1, *[width] * depth, 1)
        net = chain_net(dims, act, params)
        X = np.array([x])
        with np.errstate(all="ignore"):
            if stacked:
                nets = (net, chain_net(dims, act, params[::-1]))
                pre, post = _layer_outputs([np.stack(Ws) for Ws in zip(*(n.weights for n in nets))],
                                           [np.stack(bs) for bs in zip(*(n.biases for n in nets))],
                                           act, augment(X))
            else:
                trace = forward(net, X)
                pre, post = trace.pre, trace.post
            for z, a in zip(pre[:-1], post[:-1]):
                assert_same_bits(a, act(z))
                if a is not z:
                    assert not np.shares_memory(a, z)
            assert post[-1] is pre[-1]

    @pytest.mark.parametrize("act", SLOPE_ONE_ACTS + (PiecewiseLinear((), (1.0,), 0.0),))
    @pytest.mark.parametrize("x", [
        [-0.0, 0.0, np.inf, -np.inf, np.nan, 0.5, -0.5, 2.0, -2.0],
        [-0.0, 1.5], [0.0, 1.5], [-0.0, -1.5], [np.inf, 0.75], [-np.inf, -0.75],
        [np.nan, 0.25], [0.25, 0.75], [2.0, np.inf], [-3.0, -np.inf], [-0.0], [0.0],
    ])
    def test_layer_matches_the_call(self, act, x):
        for z in (np.array(x), np.array([x, x[::-1]]), np.array([x, x[::-1], x])[:, None, :]):
            before = z.tobytes()
            with np.errstate(all="ignore"):
                got, want = act._layer(z), act(z)
            assert_same_bits(got, want)
            assert z.tobytes() == before
            assert want is not z and not np.shares_memory(want, z)

    def test_relu_active_layer_is_passed_through(self, rng):
        X = rng.uniform(0.5, 1.0, (2, 7))
        net = chain_net((2, 3, 3, 1), relu(), [0.5, 1.0, 0.25])
        trace = forward(net, X)
        for j in range(2):
            assert trace.pre[j].min() > 0
            assert trace.post[j] is trace.pre[j]
        # the public call still copies
        assert not np.shares_memory(relu()(trace.pre[0]), trace.pre[0])

    def test_relu_layer_holding_a_zero_is_copied(self):
        net = chain_net((1, 1, 1), relu(), [1.0, 1.0, 0.0, 0.0])
        trace = forward(net, np.array([[0.0, 2.0]]))
        assert trace.pre[0].min() == 0.0
        assert not np.shares_memory(trace.post[0], trace.pre[0])
        assert_same_bits(trace.post[0], np.array([[0.0, 2.0]]))
        for z in (np.array([-0.0, 2.0]), np.array([0.0, 2.0])):
            got = relu()._layer(z)
            assert got is not z and not np.shares_memory(got, z)
            assert_same_bits(got, np.array([0.0, 2.0]))  # -0.0 -> +0.0

    def test_three_piece_middle_layer_is_passed_through(self):
        net = chain_net((1, 2, 1), three_piece(), [0.5, 0.25, 0.125, 0.25])
        trace = forward(net, np.array([[0.1, 0.6, 0.9]]))
        assert 0.0 < trace.pre[0].min() and trace.pre[0].max() < 1.0
        assert trace.post[0] is trace.pre[0]

    def test_slope_one_piece_off_the_origin_is_not_passed_through(self):
        # slope 1 on (0.5, inf), but reference 0.5 and knot 0.3: h(x) = x - 0.2
        act = PiecewiseLinear((0.5,), (2.0, 1.0), 0.3)
        net = chain_net((1, 2, 1), act, [1.0, 2.0, 0.5, 0.5])
        trace = forward(net, np.array([[1.0, 2.0]]))
        assert trace.pre[0].min() > 0.5
        assert not np.shares_memory(trace.post[0], trace.pre[0])
        assert_same_bits(trace.post[0], act(trace.pre[0]))

    def test_stacked_chunk_is_passed_through(self, rng):
        nets = [chain_net((2, 4, 3, 1), relu(), rng.uniform(0.1, 1.0, 30)) for _ in range(3)]
        X = rng.uniform(0.5, 1.0, (2, 5))
        pre, post = _layer_outputs([np.stack(Ws) for Ws in zip(*(n.weights for n in nets))],
                                   [np.stack(bs) for bs in zip(*(n.biases for n in nets))],
                                   relu(), augment(X))
        assert post[0] is pre[0] and post[1] is pre[1]
        for i, net in enumerate(nets):
            trace = forward(net, X)
            for j in range(3):
                assert_same_bits(post[j][i], trace.post[j])


def random_net(dims, act, rng):
    """An Mlp of shape dims with standard normal weights and biases."""
    return Mlp(dims, tuple(rng.standard_normal((b, a)) for a, b in zip(dims, dims[1:])),
               tuple(rng.standard_normal(b) for b in dims[1:]), act)


class TestFoldedFirstLayer:
    """The first layer is one matmul over the data with a row of ones under
    it, [W_1 | b_1] @ augment(X); later layers add their bias after it."""

    @pytest.mark.parametrize("n", [1, 4, 300])
    @pytest.mark.parametrize("d_x", [1, 2, 3, 8])
    def test_first_pre_activation_is_the_folded_product(self, rng, d_x, n):
        net = random_net((d_x, 16, 3, 1), relu(), rng)
        X = rng.standard_normal((d_x, n))
        want = np.hstack([net.weights[0], net.biases[0][:, None]]) @ augment(X)
        assert_same_bits(forward(net, X).pre[0], want)

    def test_augment_stacks_a_row_of_ones(self, rng):
        X = rng.standard_normal((3, 5))
        X1 = augment(X)
        assert X1.shape == (4, 5) and X1.flags.c_contiguous
        assert_same_bits(X1[:3], X)
        assert X1[3].tolist() == [1.0] * 5

    # n = 1 takes BLAS's matrix-vector path and odd d_x the inner-dimension
    # tails of its kernels
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 4, 3000])
    @pytest.mark.parametrize("d_x", range(1, 10))
    def test_stacked_pass_matches_each_own_pass(self, d_x, n, batch):
        rng = np.random.default_rng([d_x, n, batch])
        nets = [random_net((d_x, 16, 5, 1), three_piece(), rng) for _ in range(batch)]
        X = rng.standard_normal((d_x, n))
        pre, post = _layer_outputs([np.stack(Ws) for Ws in zip(*(n.weights for n in nets))],
                                   [np.stack(bs) for bs in zip(*(n.biases for n in nets))],
                                   three_piece(), augment(X))
        for i, net in enumerate(nets):
            trace = forward(net, X)
            for j in range(3):
                assert_same_bits(pre[j][i], trace.pre[j])
                assert_same_bits(post[j][i], trace.post[j])

    # With OpenBLAS 0.3.31 the fold rounds as the broadcast add does at
    # d_x = 2, the input width of every pinned report, while both products
    # stay within its small-matrix kernel (width * n * 3 <= 1e6 here); at
    # odd d_x the inner dimension's summation order may differ in the last
    # bits.
    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("n", [1, 2, 4, 3000])
    @pytest.mark.parametrize("width", [1, 3, 16, 64])
    def test_at_two_inputs_the_fold_matches_the_broadcast_add(self, width, n, batch):
        rng = np.random.default_rng([width, n, batch or 0])
        lead = () if batch is None else (batch,)
        W, b = rng.standard_normal((*lead, width, 2)), rng.standard_normal((*lead, width))
        X = rng.standard_normal((2, n))
        old = W @ X
        old += b[..., None]
        pre, _ = _layer_outputs([W], [b], relu(), augment(X))
        assert_same_bits(pre[0], old)

    @pytest.mark.parametrize("act", [relu(), leaky_relu(0.2), three_piece()])
    @pytest.mark.parametrize("seed", range(8))
    def test_forward_matches_an_einsum_reference(self, act, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(rng.integers(1, 40, size=rng.integers(3, 6)).tolist())
        net, X = random_net(dims, act, rng), rng.standard_normal((dims[0], rng.integers(1, 200)))
        trace = forward(net, X)
        for W, b, cur, got in zip(net.weights, net.biases, (X, *trace.post), trace.pre):
            want = np.einsum("ij,jn->in", W, cur) + b[:, None]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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


class TestInPlaceScoring:
    """The squared loss squares and halves in place, and empirical_risk
    reads the output of one pass on the Dataset's [X; 1], bit for bit the
    forms they replace."""

    @pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 4)])
    @pytest.mark.parametrize("d_y", [1, 2])
    def test_squared_loss_matches_the_two_temporary_form(self, lead, d_y):
        rng = np.random.default_rng([d_y, *lead])
        Y = rng.standard_normal((d_y, 9))
        Yhat = rng.standard_normal((*lead, d_y, 9)) * 10.0 ** rng.integers(-150, 150, (*lead, 1, 9))
        Yhat[..., 0] = Y[:, 0]  # a zero difference
        d = Yhat - Y
        assert_same_bits(per_sample_loss(LossKind.SQUARED, Y, Yhat), 0.5 * np.sum(d * d, axis=-2))

    @pytest.mark.parametrize("act", [relu(), leaky_relu(0.2), three_piece(), identity_act])
    @pytest.mark.parametrize("dims", [(3, 1), (3, 5, 1), (3, 4, 6, 2)])
    def test_empirical_risk_matches_the_forward_output(self, act, dims):
        rng = np.random.default_rng(list(dims))
        data = Dataset(rng.standard_normal((3, 50)), rng.standard_normal((dims[-1], 50)))
        net = random_net(dims, act, rng)
        want = risk_of_outputs(forward(net, data.X).output, data.Y, LossKind.SQUARED)
        assert empirical_risk(net, data, LossKind.SQUARED) == want


class TestDatasetX1:
    """A Dataset holds read-only float copies of X and Y and forms [X; 1]
    once."""

    def test_x1_is_augment_of_x_formed_once(self, rng):
        data = Dataset(rng.standard_normal((3, 5)), rng.standard_normal((2, 5)))
        assert_same_bits(data.X1, augment(data.X))
        assert data.X1 is data.X1

    @pytest.mark.parametrize("name", ["X", "Y", "X1"])
    def test_arrays_are_read_only(self, rng, name):
        data = Dataset(rng.standard_normal((3, 5)), rng.standard_normal((2, 5)))
        with pytest.raises(ValueError):
            getattr(data, name)[0, 0] = 1.0

    def test_arrays_are_copies_in_the_callers_layout(self, rng):
        X, Y = np.asfortranarray(rng.standard_normal((3, 5))), np.arange(5)[None, :]
        data = Dataset(X, Y)
        X[0, 0], Y[0, 0] = 7.0, 7
        assert data.X[0, 0] != 7.0 and data.Y[0, 0] == 0.0
        assert data.X.flags.f_contiguous and data.Y.dtype == np.float64


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
