import os
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurmin import (
    Dataset,
    LossKind,
    Mlp,
    PiecewiseLinear,
    PreconditionViolated,
    ShapeViolation,
    build_descent,
    build_minimum,
    empirical_risk,
    fd_gradient_check,
    fit_linear,
    forward,
    leaky_relu,
    perturbation_local_min_test,
    relu,
    three_piece,
    trace_interval_check,
    two_piece,
)
from spurmin import verification
from spurmin.network import ForwardTrace, risk_of_outputs
from spurmin.verification import descent_gap_certificate, witness_pair_certificate

SQ = LossKind.SQUARED
CE = LossKind.CROSS_ENTROPY


def run_cli(args):
    """python with args, the source tree on its path; stdout and stderr
    captured as text."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


@st.composite
def pl_activations(draw):
    """Random continuous piecewise-linear activations, 0-3 breakpoints."""
    k = draw(st.integers(min_value=0, max_value=3))
    bps = sorted(draw(st.lists(
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        min_size=k, max_size=k, unique=True,
    )))
    slopes = draw(st.lists(
        st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=k + 1, max_size=k + 1,
    ))
    anchor = draw(st.floats(min_value=-1, max_value=1, allow_nan=False))
    return PiecewiseLinear(tuple(bps), tuple(slopes), anchor)


class TestPerturbationTest:
    def test_stage1_minimum_passes(self, xor, xor_fit, relu_act):
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        cert = perturbation_local_min_test(point.net, xor, SQ, radius=1e-4, samples=500, seed=7)
        assert cert.verdict
        assert cert.checks[0].value >= -1e-10

    def test_witness_typically_fails(self, xor, xor_fit, relu_act):
        # a descent witness is not a constructed minimum: random perturbations
        # find lower risk immediately
        w = build_descent(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        cert = perturbation_local_min_test(w.net, xor, SQ, radius=1e-4, samples=500, seed=7)
        assert not cert.verdict
        assert cert.checks[0].value < -1e-10

    @pytest.mark.parametrize("radius", [0.0, -0.0, 0, Fraction(0)])
    def test_radius_zero_refused_before_any_draw(self, xor, xor_fit, relu_act, radius):
        # every draw would be the network itself, so the probe would pass
        # any network: one that does not fit the data, or whose risk
        # overflows, included
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        witness = build_descent(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        nets = [point.net, random_net((3, 2, 1), relu_act, 0), overflowing_net(relu_act)]
        vacuous = "^radius 0 makes the local-minimality test vacuous$"
        with mock.patch.object(verification, "_shared_draw_risks", side_effect=AssertionError), \
                mock.patch.object(verification, "empirical_risk", side_effect=AssertionError):
            for net in nets:
                with pytest.raises(PreconditionViolated, match=vacuous):
                    perturbation_local_min_test(net, xor, SQ, radius=radius, samples=10, seed=7)
            with pytest.raises(PreconditionViolated, match=vacuous):
                witness_pair_certificate(point, witness, xor, SQ, radius=radius, seed=7)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_draws_rejected(self, xor, xor_fit, relu_act, samples):
        # zero draws would report a vacuous pass with an infinite worst delta
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        with pytest.raises(PreconditionViolated):
            perturbation_local_min_test(point.net, xor, SQ, radius=1e-4, samples=samples, seed=7)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, -1e-4])
    def test_bad_radius_rejected_before_any_draw(self, xor, xor_fit, relu_act, radius):
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        with mock.patch.object(verification, "_shared_draw_risks", side_effect=AssertionError):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(PreconditionViolated, match="finite and nonnegative"):
                    perturbation_local_min_test(point.net, xor, SQ, radius=radius, seed=7)

    @pytest.mark.parametrize("radius", [10**400, -10**400, Fraction(10**400, 3)],
                             ids=["int", "negative-int", "fraction"])
    def test_radius_beyond_the_float_range_rejected_before_any_draw(self, xor, xor_fit, relu_act,
                                                                    radius):
        # float(radius) overflows; the refusal is the typed one, not OverflowError
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        with mock.patch.object(verification, "_shared_draw_risks", side_effect=AssertionError):
            with pytest.raises(PreconditionViolated, match="^radius must be finite and nonnegative$"):
                perturbation_local_min_test(point.net, xor, SQ, radius=radius, seed=7)

    @pytest.mark.parametrize("radius", [True, np.True_, "1e-4", None, np.array([1e-4]),
                                        1j, Decimal("1e-4")])
    def test_non_real_radius_rejected_before_any_draw(self, xor, xor_fit, relu_act, radius):
        # True would otherwise probe at radius 1.0, where the XOR minimum passes
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        witness = build_descent(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        with mock.patch.object(verification, "_shared_draw_risks", side_effect=AssertionError):
            with pytest.raises(PreconditionViolated, match="radius must be a real number"):
                perturbation_local_min_test(point.net, xor, SQ, radius=radius, seed=7)
            with pytest.raises(PreconditionViolated, match="radius must be a real number"):
                witness_pair_certificate(point, witness, xor, SQ, radius=radius, seed=7)

    @pytest.mark.parametrize("radius", [np.float64(1e-4), np.float32(1e-4), Fraction(1, 10**4)])
    def test_real_radius_types_accepted(self, xor, xor_fit, relu_act, radius):
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        got = perturbation_local_min_test(point.net, xor, SQ, radius=radius, samples=20, seed=7)
        want = perturbation_local_min_test(point.net, xor, SQ, radius=float(radius),
                                           samples=20, seed=7)
        assert got.as_dict() == want.as_dict()

    @pytest.mark.parametrize("samples", [3.0, True, np.True_, "5", None, np.float64(4.0),
                                         np.array(4.0)])
    def test_non_integer_samples_rejected(self, xor, xor_fit, relu_act, samples):
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        with pytest.raises(PreconditionViolated, match="samples must be an integer"):
            perturbation_local_min_test(point.net, xor, SQ, radius=1e-4, samples=samples, seed=7)

    def test_numpy_integer_samples_accepted(self, xor, xor_fit, relu_act):
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        a = perturbation_local_min_test(point.net, xor, SQ, samples=np.int64(20), seed=7)
        b = perturbation_local_min_test(point.net, xor, SQ, samples=20, seed=7)
        assert a.as_dict() == b.as_dict()
        assert type(a.checks[0].samples) is int

    @pytest.mark.parametrize("radius", [1e-4, 0.0])
    @pytest.mark.parametrize("seed", [7.9, 7.0, True, np.False_, "7", None, np.float64(7.0),
                                      np.array(7.0)])
    def test_non_integer_seed_rejected_before_any_draw(self, xor, xor_fit, relu_act, seed, radius):
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        with mock.patch.object(verification, "_shared_draw_risks", side_effect=AssertionError):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # before the radius-0 refusal too
                with pytest.raises(PreconditionViolated, match="seed must be an integer"):
                    perturbation_local_min_test(
                        point.net, xor, SQ, radius=radius, samples=20, seed=seed
                    )

    def test_numpy_and_negative_integer_seeds_accepted(self, xor, xor_fit, relu_act):
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        a = perturbation_local_min_test(point.net, xor, SQ, samples=20, seed=np.int64(-3))
        b = perturbation_local_min_test(point.net, xor, SQ, samples=20, seed=-3)
        c = perturbation_local_min_test(point.net, xor, SQ, samples=20, seed=2**64 - 3)
        assert a.as_dict() == b.as_dict()
        assert type(a.checks[0].seed) is int
        # a negative seed is masked to 64 bits
        assert b.checks[0].value == c.checks[0].value

    def test_determinism(self, xor, xor_fit, relu_act):
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        a = perturbation_local_min_test(point.net, xor, SQ, radius=1e-4, samples=100, seed=3)
        b = perturbation_local_min_test(point.net, xor, SQ, radius=1e-4, samples=100, seed=3)
        assert a.checks[0].value == b.checks[0].value

    def test_monotone_radius(self, xor, xor_fit, relu_act):
        # passing at radius r implies passing at r/10 (weaker test)
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        big = perturbation_local_min_test(point.net, xor, SQ, radius=1e-4, samples=200, seed=5)
        small = perturbation_local_min_test(point.net, xor, SQ, radius=1e-5, samples=200, seed=5)
        assert big.verdict and small.verdict


class TestDescentGap:
    def test_stage1_pair(self, xor, xor_fit, relu_act):
        m = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        w = build_descent(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        assert descent_gap_certificate(m.risk, w.risk).checks[0].value > 1e-12
        assert descent_gap_certificate(m.risk, w.risk).verdict

    def test_identical_points_fail(self):
        assert not descent_gap_certificate(0.125, 0.125).verdict

    def test_general_route_gap_matches_local_chain(self, xor, xor_fit):
        m3 = build_minimum(xor_fit, xor, (2, 3, 3, 1), three_piece(), stage="3")
        w3 = build_descent(xor_fit, xor, (2, 3, 3, 1), three_piece(), stage="3")
        m1 = build_minimum(xor_fit, xor, (2, 3, 1), two_piece(0.2, 1.0), stage="1")
        w1 = build_descent(xor_fit, xor, (2, 3, 1), two_piece(0.2, 1.0), stage="1")
        gap3 = descent_gap_certificate(m3.risk, w3.risk).checks[0].value
        gap1 = descent_gap_certificate(m1.risk, w1.risk).checks[0].value
        assert gap3 > 0 and abs(gap3 - gap1) <= 1e-10

    def test_pair_certificate_bundle(self, xor, xor_fit, relu_act):
        m = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        w = build_descent(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
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
        point = build_minimum(xor_fit, xor, (2, 3, 3, 1), relu_act, stage="2")
        cert = trace_interval_check(forward(point.net, xor.X), 0.0, np.inf)
        assert cert.verdict
        assert cert.checks[0].value > 0

    def test_general_minimum_unit_interval(self, xor, xor_fit):
        point = build_minimum(xor_fit, xor, (2, 3, 3, 1), three_piece(), stage="3")
        cert = trace_interval_check(forward(point.net, xor.X), 0.0, 1.0)
        assert cert.verdict

    def test_broken_eta_fails(self, xor, xor_fit, relu_act):
        # an eta that is not negative enough leaves some unit nonpositive
        import spurmin.construction as c
        from spurmin import Mlp

        weights, biases = c._minimum_layers(xor_fit, (2, 3, 1), 1.0, 0.5)
        net = Mlp((2, 3, 1), tuple(weights), tuple(biases), relu_act)
        cert = trace_interval_check(forward(net, xor.X), 0.0, np.inf)
        assert not cert.verdict

    def test_certificate_serialization(self, xor, xor_fit, relu_act):
        point = build_minimum(xor_fit, xor, (2, 3, 3, 1), relu_act, stage="2")
        cert = trace_interval_check(forward(point.net, xor.X), 0.0, np.inf)
        d = cert.as_dict()
        assert d["verdict"] is True
        assert d["checks"][0]["name"] == "interval_margin"

    @pytest.mark.parametrize(
        "lo, hi, inside", [(0.0, np.inf, 0.5), (-np.inf, 0.0, -0.5), (0.25, 0.75, 0.5)]
    )
    def test_margin_fold_carries_non_finite_entries(self, rng, lo, hi, inside):
        def check_of(*hidden):
            out = np.zeros((1, hidden[0].shape[1]))
            trace = ForwardTrace(pre=(*hidden, out), post=(*hidden, out))
            with np.errstate(invalid="ignore"):
                return trace_interval_check(trace, lo, hi).checks[0]

        # finite entries: the least margin over the layers, as before
        layers = [inside + rng.uniform(-0.2, 0.2, (3, 5)) for _ in range(3)]
        want = min(min(float(np.min(z) - lo), float(hi - np.max(z))) for z in layers)
        assert check_of(*layers).value == want
        assert check_of(*layers).passed
        # +inf against hi = inf (or -inf against lo = -inf) gives inf - inf =
        # NaN; the margin must carry a NaN instead of dropping it
        for bad in (np.inf, -np.inf, np.nan):
            check = check_of(np.full((2, 3), inside), np.array([[inside, bad, inside]]))
            assert not check.passed, bad
            assert not check.value > 0, bad


    @pytest.mark.parametrize("lo, hi", [(0.0, np.inf), (-np.inf, 0.0), (0.25, 0.75)])
    def test_stacked_margins_are_each_networks_margin(self, rng, lo, hi):
        # one margin per network of a stack, each the bits of that network's
        # own check, a NaN member's included
        layers = [rng.uniform(-1.0, 1.0, (5, 3, 4)) for _ in range(2)]
        layers[0][1] = np.abs(layers[0][1]) + 0.5
        layers[1][1] = np.abs(layers[1][1]) + 0.5
        layers[1][3, 2, 1] = np.nan
        out = np.zeros((5, 1, 4))
        margins = verification._interval_margin(layers, lo, hi)
        assert margins.shape == (5,)
        for i, margin in enumerate(margins):
            pre = (*(z[i] for z in layers), out[i])
            want = trace_interval_check(ForwardTrace(pre, pre), lo, hi).checks[0]
            assert np.float64(margin).tobytes() == np.float64(want.value).tobytes()
            assert repr(verification._interval_certificate(margin).checks[0]) == repr(want)
        assert np.isnan(margins[3])


def serial_draw_risks(net, data, loss, radius, samples, seed):
    """Oracle: the probe's former serial loop, one fresh Mlp per draw."""
    seed64 = int(seed) & 0xFFFFFFFFFFFFFFFF
    risks = []
    for i in range(samples):
        rng = np.random.default_rng(seed64 ^ i)
        weights = tuple(
            W + radius * (1.0 + np.abs(W)) * rng.uniform(-1.0, 1.0, W.shape)
            for W in net.weights
        )
        biases = tuple(
            b + radius * (1.0 + np.abs(b)) * rng.uniform(-1.0, 1.0, b.shape)
            for b in net.biases
        )
        risks.append(empirical_risk(Mlp(net.dims, weights, biases, net.activation), data, loss))
    return risks


def assert_probe_matches_serial(net, data, loss, radius=1e-4, samples=40, seed=7):
    """Per-draw risks, worst delta and verdict equal the serial loop's exactly."""
    expected = serial_draw_risks(net, data, loss, radius, samples, seed)
    seed64 = int(seed) & 0xFFFFFFFFFFFFFFFF
    got = verification._shared_draw_risks([net], data, loss, radius, samples, seed64)[0]
    assert got.tolist() == expected
    base = empirical_risk(net, data, loss)
    worst = np.inf
    for risk in expected:
        worst = min(worst, risk - base)
    check = perturbation_local_min_test(net, data, loss, radius, samples, seed).checks[0]
    assert check.value == worst
    assert np.signbit(check.value) == np.signbit(worst)
    assert check.passed == (worst >= verification.LOCAL_MIN_SLACK)


def overflowing_net(act):
    """A (2, 3, 1) network whose risk on the XOR data overflows to inf."""
    return Mlp((2, 3, 1), (np.full((3, 2), 1e200), np.full((1, 3), 1e200)),
               (np.zeros(3), np.zeros(1)), act)


def random_net(dims, act, seed):
    r = np.random.default_rng(seed)
    weights = tuple(r.standard_normal((b, a)) for a, b in zip(dims[:-1], dims[1:]))
    biases = tuple(r.standard_normal(b) for b in dims[1:])
    return Mlp(dims, weights, biases, act)


def one_hot_dataset(n, classes, seed):
    r = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    return Dataset(r.standard_normal((2, n)), np.eye(classes)[:, labels])


PROBE_ACTIVATIONS = {
    "relu": relu(),
    "leaky0.3": leaky_relu(0.3),
    "threepiece": three_piece(),
    "threepiece_reflected": three_piece().reflect(),
    "right_slope_zero": PiecewiseLinear((0.45,), (0.29, 0.0), -0.71),
}


class TestBatchedProbeParity:
    @pytest.mark.parametrize("act", PROBE_ACTIVATIONS.values(), ids=PROBE_ACTIVATIONS.keys())
    @pytest.mark.parametrize("dims", [(2, 3, 1), (2, 3, 3, 1), (2, 3, 3, 3, 1)])
    def test_constructed_minima_squared(self, xor, xor_fit, act, dims):
        from spurmin import build_minimum

        stage = "3" if not act.is_two_piece else ("1" if len(dims) == 3 else "2")
        point = build_minimum(xor_fit, xor, dims, act, stage=stage)
        assert_probe_matches_serial(point.net, xor, SQ, samples=60)

    @pytest.mark.parametrize("act", PROBE_ACTIVATIONS.values(), ids=PROBE_ACTIVATIONS.keys())
    @pytest.mark.parametrize("dims", [(2, 4, 3), (2, 4, 4, 3), (2, 5, 4, 4, 3)])
    def test_cross_entropy(self, act, dims):
        data = one_hot_dataset(13, 3, seed=len(dims))
        assert_probe_matches_serial(random_net(dims, act, seed=1), data, CE, radius=1e-2)

    def test_descent_witness_fails_as_before(self, xor, xor_fit, relu_act):
        w = build_descent(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        assert_probe_matches_serial(w.net, xor, SQ, samples=200)

    @pytest.mark.parametrize("budget", [13, 14, 27, 100, 1000])
    def test_chunk_boundaries(self, xor, monkeypatch, budget):
        # (2, 3, 1) has 13 parameters: chunks of 1, 1, 2 and 7 draws, and
        # one chunk of all 50
        monkeypatch.setattr(verification, "_CHUNK_ELEMENTS", budget)
        net = random_net((2, 3, 1), three_piece(), seed=4)
        assert_probe_matches_serial(net, xor, SQ, radius=1e-2, samples=50)

    def test_several_chunks_at_default_budget(self):
        # width 16 x 600 samples: 13 draws per chunk, so 13 + 13 + 4
        r = np.random.default_rng(5)
        data = Dataset(r.standard_normal((2, 600)), r.standard_normal((1, 600)))
        net = random_net((2, 16, 1), leaky_relu(0.3), seed=6)
        assert_probe_matches_serial(net, data, SQ, radius=1e-3, samples=30)

    def test_one_draw_per_chunk(self):
        # width 32 x 2200 samples exceeds half the budget: every chunk is one draw
        r = np.random.default_rng(8)
        data = Dataset(r.standard_normal((2, 2200)), r.standard_normal((2, 2200)))
        net = random_net((2, 32, 2), relu(), seed=9)
        assert 32 * 2200 > verification._CHUNK_ELEMENTS // 2
        assert_probe_matches_serial(net, data, SQ, radius=1e-3, samples=3)

    @settings(max_examples=40, deadline=None)
    @given(
        act=pl_activations(),
        depth=st.integers(min_value=1, max_value=3),
        width=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=30),
        ce=st.booleans(),
        budget=st.sampled_from([7, 50, 1 << 17]),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_hypothesis_nets(self, act, depth, width, n, ce, budget, seed):
        d_y = 3 if ce else 2
        dims = (2, *[width] * depth, d_y)
        data = (
            one_hot_dataset(n, d_y, seed=n)
            if ce
            else Dataset(np.random.default_rng(n).standard_normal((2, n)),
                         np.random.default_rng(n + 1).standard_normal((d_y, n)))
        )
        net = random_net(dims, act, seed=seed % 1000)
        with mock.patch.object(verification, "_CHUNK_ELEMENTS", budget):
            assert_probe_matches_serial(net, data, CE if ce else SQ,
                                        radius=1e-2, samples=17, seed=seed)


EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, -3 & 0xFFFFFFFFFFFFFFFF]


def default_rng_block(seed64, start, stop, total):
    """Oracle: one default_rng(seed64 ^ i).uniform(-1, 1, total) row per draw."""
    return np.stack([
        np.random.default_rng(seed64 ^ i).uniform(-1.0, 1.0, total) for i in range(start, stop)
    ])


def assert_same_bytes(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestStreamParity:
    @settings(max_examples=200, deadline=None)
    @given(seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=8))
    def test_seed_words_match_seed_sequence(self, seeds):
        seeds = seeds + EDGE_SEEDS
        expected = np.stack([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])
        assert_same_bytes(verification._seed_words(np.array(seeds, dtype=np.uint64)), expected)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("total", [1, 13, 25, 64, 65, 81, 1000])
    @pytest.mark.parametrize("start, stop", [(0, 9), (5, 12), (2**20 - 3, 2**20 + 3)])
    def test_uniform_draws_match_default_rng(self, seed, total, start, stop):
        assert_same_bytes(verification._uniform_draws(seed, start, stop, total),
                          default_rng_block(seed, start, stop, total))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        start=st.integers(min_value=0, max_value=2**40),
        count=st.integers(min_value=1, max_value=6),
        total=st.sampled_from([1, 13, 25, 81, 1000]),
    )
    def test_uniform_draws_hypothesis(self, seed, start, count, total):
        assert_same_bytes(verification._uniform_draws(seed, start, start + count, total),
                          default_rng_block(seed, start, start + count, total))

    def test_wide_net_two_draws(self):
        # two draws of a 34 177-parameter net, the wide benchmark route's size
        assert_same_bytes(verification._uniform_draws(7, 3, 5, 34177),
                          default_rng_block(7, 3, 5, 34177))

    def test_probe_builds_no_generator_per_draw(self, xor, xor_fit, relu_act):
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        expected = serial_draw_risks(point.net, xor, SQ, 1e-4, 60, 7)
        with mock.patch.object(np.random, "default_rng", side_effect=AssertionError):
            cert = perturbation_local_min_test(point.net, xor, SQ, samples=60, seed=7)
            risks = verification._shared_draw_risks([point.net], xor, SQ, 1e-4, 60, 7)[0]
        assert cert.verdict
        assert risks.tolist() == expected

    @pytest.mark.parametrize("dims", [(2, 3, 1), (2, 3, 3, 1)])
    def test_small_net_probe_builds_no_generator(self, xor, xor_fit, relu_act, dims):
        # 13 and 25 parameters: the streams are array arithmetic, with no
        # numpy generator, and still give the serial oracle's risks
        from spurmin import build_minimum

        net = build_minimum(xor_fit, xor, dims, relu_act).net
        assert sum(p.size for p in (*net.weights, *net.biases)) <= verification._ARRAY_STREAM_MAX
        expected = serial_draw_risks(net, xor, SQ, 1e-4, 60, 7)
        worst = min(expected) - empirical_risk(net, xor, SQ)
        with mock.patch.object(np.random, "Generator", side_effect=AssertionError), \
                mock.patch.object(np.random, "PCG64", side_effect=AssertionError):
            risks = verification._shared_draw_risks([net], xor, SQ, 1e-4, 60, 7)[0]
            check = perturbation_local_min_test(net, xor, SQ, samples=60, seed=7).checks[0]
        assert risks.tolist() == expected
        assert check.value == worst
        assert check.passed and worst >= verification.LOCAL_MIN_SLACK


def tied_dataset(per_level=1000, seed=0):
    """n = 3 * per_level samples, x1 in {0, 1, 2} and x2 = +-m inside each
    level, so the affine fit ties within a level; labels are the level's
    offset plus 0.1 * x2**2."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.1, 3.0, (3, per_level // 2))
    x1 = np.repeat([0.0, 1.0, 2.0], per_level)
    x2 = np.concatenate([np.concatenate([row, -row]) for row in m])
    y = np.array([0.0, 1.0, 3.0])[x1.astype(int)] + 0.1 * x2 * x2
    return Dataset(np.vstack([x1, x2]), y[None, :])


def direct_draw_risks(net, data, radius, samples, seed):
    """Oracle for a one-hidden-layer net: each draw's parameters from its
    own default_rng(seed ^ i), then z = W1 @ X + b1 and W2 @ act(z) + b2,
    with no `forward` and the public activation call."""
    risks = []
    for i in range(samples):
        rng = np.random.default_rng(seed ^ i)
        (W1, W2), (b1, b2) = (
            [p + radius * (1.0 + np.abs(p)) * rng.uniform(-1.0, 1.0, p.shape) for p in ps]
            for ps in (net.weights, net.biases)
        )
        z = W1 @ data.X
        z += b1[:, None]
        risks.append(risk_of_outputs(W2 @ net.activation(z) + b2[:, None], data.Y, SQ))
    return risks


class TestProbeParityAtTheBenchmarkShape:
    """A route-1 ReLU minimum on (2, 16, 1) with 3000 samples: every hidden
    layer lies on ReLU's identity piece, so the forward passes it through,
    and two draws fit one chunk.  41 draws are 20 full chunks and a short
    one in one block at the default budget; a budget of 6 draws per block
    puts block boundaries between chunks of 1 or of 2 draws."""

    @pytest.fixture(scope="class")
    def pair(self):
        data = tied_dataset()
        point = build_minimum(fit_linear(data, SQ), data, (2, 16, 1), relu(), stage="1")
        return point.net, data

    @pytest.mark.parametrize("budget, chunk", [(None, None), (390, None), (390, 2)])
    def test_every_draw_matches_the_direct_oracle(self, pair, monkeypatch, budget, chunk):
        net, data = pair
        trace = forward(net, data.X)
        assert trace.post[0] is trace.pre[0] and trace.pre[0].min() > 1e-3
        assert verification._stack_size(net.dims, data.n) == 2
        if budget is not None:
            monkeypatch.setattr(verification, "_CHUNK_ELEMENTS", budget)
        if chunk is not None:
            monkeypatch.setattr(verification, "_stack_size", lambda dims, n: chunk)
        got = verification._shared_draw_risks([net], data, SQ, 1e-4, 41, 7)[0]
        assert got.tolist() == direct_draw_risks(net, data, 1e-4, 41, 7)


# 13, 25 and 57 parameters take the array streams, 65 and 81 numpy's
# generator (`_ARRAY_STREAM_MAX` is 64), at one, two and three hidden layers
SHARED_DIMS = [(2, 3, 1), (2, 3, 3, 1), (2, 4, 4, 4, 1), (2, 16, 1), (2, 8, 6, 1)]


class TestSharedStreams:
    """`_probe_certificates` draws each block of streams once for a list of
    networks, at the widest one's parameter count; every network's check is
    its own `perturbation_local_min_test`, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        picks=st.lists(st.tuples(st.sampled_from(SHARED_DIMS), pl_activations(),
                                 st.integers(min_value=0, max_value=999)),
                       min_size=1, max_size=4),
        order=st.randoms(use_true_random=False),
        n=st.integers(min_value=1, max_value=12),
        samples=st.integers(min_value=1, max_value=25),
        budget=st.sampled_from([7, 200, 1000, 1 << 17]),
        seed=st.one_of(st.integers(min_value=-2**63, max_value=-1),
                       st.integers(min_value=0, max_value=2**64 - 1)),
    )
    def test_each_check_is_its_own_probe(self, picks, order, n, samples, budget, seed):
        r = np.random.default_rng(n)
        data = Dataset(r.standard_normal((2, n)), r.standard_normal((1, n)))
        nets = [random_net(dims, act, net_seed) for dims, act, net_seed in picks]
        order.shuffle(nets)
        seed64 = seed & 0xFFFFFFFFFFFFFFFF
        with mock.patch.object(verification, "_CHUNK_ELEMENTS", budget):
            shared = verification._probe_certificates(nets, data, SQ, 1e-2, samples, seed)
            risks = verification._shared_draw_risks(nets, data, SQ, 1e-2, samples, seed64)
            for net, cert, got in zip(nets, shared, risks):
                own = perturbation_local_min_test(net, data, SQ, 1e-2, samples, seed)
                assert cert.as_dict() == own.as_dict()
                assert (np.float64(cert.checks[0].value).tobytes()
                        == np.float64(own.checks[0].value).tobytes())
                assert_same_bytes(got, verification._shared_draw_risks([net], data, SQ, 1e-2,
                                                                        samples, seed64)[0])
                assert got.tolist() == serial_draw_risks(net, data, SQ, 1e-2, samples, seed)

    def test_demo_stage_pairs_draw_one_set_of_streams(self, xor, xor_fit, relu_act):
        # routes 1, 2 and 3 have 13, 25 and 25 parameters: one 500 x 25 block
        from spurmin.cli import run_demo

        calls = []
        real = verification._uniform_draws

        def spy(seed64, start, stop, total):
            calls.append((start, stop, total))
            return real(seed64, start, stop, total)

        with mock.patch.object(verification, "_uniform_draws", spy):
            report, ok, _ = run_demo(seed=7)
        assert ok and calls == [(0, 500, 25)]
        # each stage reports the checks of its own pair certificate
        stages = [("1", (2, 3, 1), relu_act), ("2", (2, 3, 3, 1), relu_act),
                  ("3", (2, 3, 3, 1), three_piece())]
        passed = {c["name"]: c["passed"] for c in report["checks"]}
        for stage, dims, act in stages:
            cert = witness_pair_certificate(build_minimum(xor_fit, xor, dims, act, stage=stage),
                                            build_descent(xor_fit, xor, dims, act, stage=stage),
                                            xor, SQ, seed=7)
            match, gap, probe = cert.checks
            got = report["stages"][stage]
            assert got["gap"] == gap.value
            assert got["perturbation"]["checks"] == (probe.as_dict(),)
            assert [passed[f"stage{stage}_{name}"] for name in
                    ("risk_matches_baseline", "gap_positive", "local_min_sampled")] == [
                match.passed, gap.passed, probe.passed]

    def test_no_networks(self, xor):
        assert verification._probe_certificates([], xor, SQ, 1e-4, 10, 7) == []


class TestShapeMismatch:
    """A network whose input or output width does not fit the data is refused
    by its base risk's shape checks, before any stream is drawn."""

    @pytest.mark.parametrize("n_in, n_out, match", [(3, 1, "input must be"),
                                                    (2, 2, "output width")])
    def test_refused_before_drawing(self, xor, n_in, n_out, match):
        fits = random_net((2, 3, 3, 1), relu(), 0)
        misfit = random_net((n_in, 3, n_out), relu(), 1)
        with mock.patch.object(verification, "_uniform_draws") as draws:
            with pytest.raises(ShapeViolation, match=match):
                perturbation_local_min_test(misfit, xor, SQ, samples=20, seed=7)
            with pytest.raises(ShapeViolation, match=match):
                verification._probe_certificates([fits, misfit], xor, SQ, 1e-4, 20, 7)
        draws.assert_not_called()

    def test_cli_exit_code(self, tmp_path, xor, capsys):
        from spurmin.cli import main
        from spurmin.io import save_dataset_csv, save_mlp

        save_mlp(random_net((3, 3, 1), relu(), 0), tmp_path / "net.json")
        save_dataset_csv(xor, tmp_path / "d.csv")
        assert main(["verify", "--data", str(tmp_path / "d.csv"),
                     "--net", str(tmp_path / "net.json")]) == 3
        err = capsys.readouterr().err
        assert "precondition violated: input must be" in err and "Traceback" not in err


class TestNonFiniteRisk:
    """The probe decides a non-finite risk itself, with a typed refusal and
    without numpy's overflow warnings."""

    def test_overflowing_network_rejected(self, xor, relu_act):
        # the base risk overflows to inf and every draw's delta is NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionViolated, match="not finite"):
                perturbation_local_min_test(overflowing_net(relu_act), xor, SQ, radius=1e-4,
                                            samples=20, seed=7)

    def test_overflowing_draws_rejected(self, xor, xor_fit, relu_act):
        # a finite base risk but draws whose risk overflows to inf
        point = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionViolated, match="not finite"):
                perturbation_local_min_test(point.net, xor, SQ, radius=1e300, samples=20, seed=7)

    def test_cli_exit_code(self, tmp_path, xor, relu_act):
        # run as a process with numpy's warnings as errors, which would
        # otherwise end it with a traceback and exit code 1
        from spurmin.io import save_dataset_csv, save_mlp

        save_mlp(overflowing_net(relu_act), tmp_path / "net.json")
        save_dataset_csv(xor, tmp_path / "d.csv")
        cert_out = tmp_path / "cert.json"
        proc = run_cli(["-W", "error::RuntimeWarning", "-m", "spurmin.cli", "verify",
                        "--data", str(tmp_path / "d.csv"), "--net", str(tmp_path / "net.json"),
                        "--samples", "20", "--cert-out", str(cert_out)])
        assert proc.returncode == 3
        assert "precondition violated: risk is not finite" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
        assert not cert_out.exists()


class TestRadiusZeroCli:
    @pytest.mark.parametrize("net", ["minimum", "misfit", "overflowing"])
    def test_exit_code(self, tmp_path, xor, xor_fit, relu_act, capsys, net):
        from spurmin.cli import main
        from spurmin.io import save_dataset_csv, save_mlp

        save_mlp({"minimum": build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1").net,
                  "misfit": random_net((3, 2, 1), relu_act, 0),
                  "overflowing": overflowing_net(relu_act)}[net], tmp_path / "net.json")
        save_dataset_csv(xor, tmp_path / "d.csv")
        cert_out = tmp_path / "cert.json"
        with mock.patch.object(verification, "empirical_risk", side_effect=AssertionError):
            code = main(["verify", "--data", str(tmp_path / "d.csv"),
                         "--net", str(tmp_path / "net.json"), "--radius", "0",
                         "--cert-out", str(cert_out)])
        assert code == 3
        assert "radius 0 makes the local-minimality test vacuous" in capsys.readouterr().err
        assert not cert_out.exists()
