"""Checks that mean the same at every label scale.

The construction's output identities, its risk match and the valley's
flatness are each relative to the size of the values they compare, so
scaling the labels by 10^k must not turn a minimum, a witness or a flat
valley into a failure.  The minimum's shift and the residual rule scale
with the labels too, so the probe keeps large-label minima and an affine
fit leaves a residual at any label scale or at none.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurmin import (
    Dataset,
    LossKind,
    Mlp,
    absolute_value,
    build_descent,
    build_minimum,
    check_assumptions,
    fit_linear,
    gen_dataset,
    relu,
    three_piece,
    walk_valley,
    xor_dataset,
)
from spurmin.cells import VALLEY_RISK_TOL
from spurmin.verification import (
    RISK_MATCH_TOL, perturbation_local_min_test, witness_pair_certificate,
)

SQ = LossKind.SQUARED
ROUTES = {
    "1": ((2, 3, 1), relu()),
    "2": ((2, 3, 3, 1), relu()),
    "3": ((2, 3, 3, 1), three_piece()),
    "corollary": ((2, 4, 1), absolute_value()),
}


def smooth_set(scale: float) -> Dataset:
    """20 samples, x ~ N(0, I_2) from default_rng(3), labels
    scale * (sin(2 x1) + x2^2)."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((2, 20))
    return Dataset(X, scale * (np.sin(2.0 * X[0]) + X[1] ** 2)[None, :])


def build_pair(data: Dataset, stage: str):
    dims, act = ROUTES[stage]
    fit = fit_linear(data, SQ)
    minimum = build_minimum(fit, data, dims, act, stage=stage)
    witness = build_descent(fit, data, dims, act, stage=stage)
    assert witness.risk < fit.risk
    return fit, minimum, witness


def rescaled(net: Mlp, factors: np.ndarray) -> Mlp:
    return Mlp(
        net.dims,
        (net.weights[0] / factors[:, None], net.weights[1] * factors),
        (net.biases[0] / factors, net.biases[1]),
        net.activation,
    )


def test_blobs_minimum_builds_at_labels_times_1e4():
    blobs = gen_dataset("blobs:3", seed=0)
    data = Dataset(blobs.X, 1e4 * blobs.Y)
    fit = fit_linear(data, SQ)
    minimum = build_minimum(fit, data, (2, 3, 1), relu(), stage="1")
    assert abs(minimum.risk - fit.risk) <= RISK_MATCH_TOL * max(1.0, fit.risk)


@pytest.mark.parametrize("stage, scale", [("1", 3e3), ("2", 3e3), ("3", 1e4)])
def test_routes_build_at_large_label_scales(stage, scale):
    build_pair(smooth_set(scale), stage)


def test_pair_risk_match_is_relative_to_the_baseline_risk():
    # at labels times 1e6 the baseline risk is ~2.4e12, one ulp of which
    # (~5e-4) is far above RISK_MATCH_TOL; route 3's minimum may miss it by that
    data = smooth_set(1e6)
    fit, minimum, witness = build_pair(data, "3")
    checks = {c.name: c for c in witness_pair_certificate(minimum, witness, data, SQ,
                                                          samples=1).checks}
    match = checks["minimum_matches_baseline"]
    assert match.passed and match.tolerance == RISK_MATCH_TOL * fit.risk


def test_valley_flatness_is_relative_to_the_risk():
    data = smooth_set(1e3)
    net = build_pair(data, "1")[1].net
    valley = walk_valley(net, rescaled(net, np.array([2.0, 0.5, 3.0])), data, SQ,
                         steps_per_move=10)
    # the deviation is rounding of a risk near 2.4e6 (4.7e-10 on x86-64),
    # above the absolute VALLEY_RISK_TOL but far below it relative to the risk
    assert valley["risk_max_dev"] <= VALLEY_RISK_TOL * valley["risks"][0]
    assert valley["risk_flat"] and valley["pattern_constant"]


@given(st.integers(min_value=0, max_value=9))
@settings(max_examples=20, deadline=None)
def test_every_route_builds_and_the_valley_stays_flat_at_any_label_scale(k):
    data = smooth_set(10.0 ** k)
    for stage in ROUTES:
        build_pair(data, stage)
    net = build_minimum(fit_linear(data, SQ), data, (2, 3, 1), relu(), stage="1").net
    valley = walk_valley(net, rescaled(net, np.array([2.0, 0.5, 3.0])), data, SQ,
                         steps_per_move=4)
    assert valley["risk_flat"] and valley["pattern_constant"]


@pytest.mark.parametrize("stage", ["1", "2", "3"])
def test_probe_keeps_blobs_minima_at_labels_times_1e4(stage):
    # the shift's margin grows with the labels, so draws of the probe's
    # relative radius stay inside the minimum's cell
    blobs = gen_dataset("blobs:3", seed=0)
    data = Dataset(blobs.X, 1e4 * blobs.Y)
    dims, act = ROUTES[stage]
    minimum = build_minimum(fit_linear(data, SQ), data, dims, act, stage=stage)
    cert = perturbation_local_min_test(minimum.net, data, SQ, radius=1e-4, samples=500, seed=7)
    assert cert.verdict


def test_affine_labels_leave_no_residual_at_labels_times_1e9():
    linear = gen_dataset("linear", seed=0)
    data = Dataset(linear.X, 1e9 * linear.Y)
    fit = fit_linear(data, SQ)
    assert not check_assumptions(data, (2, 3, 1), relu()).linear_inseparable
    assert not build_minimum(fit, data, (2, 3, 1), relu(), stage="1").spurious


def test_xor_leaves_a_residual_at_labels_times_1e_minus_9():
    xor = xor_dataset()
    report = check_assumptions(Dataset(xor.X, 1e-9 * xor.Y), (2, 3, 1), relu())
    assert report.linear_inseparable and report.baseline_residual == pytest.approx(1e-9)
