"""Faults that the demo's checks must catch.

Each test builds a faulty input, mostly a variant of the XOR stage-1
minimum or of a route-3 family, and asserts that a check `spurmin demo`
records fails on it.  The minimum's checks all read the first layer's
pre-activations, [W_1 | b_1] @ [X; 1], so a forward that dropped b_1 or
moved an entry of it fails a check, not only a pinned hash.  One test holds
the demo's check names to the mutated ones and a list of known-vacuous
checks that no fault here can flip.
"""

import re
import traceback

import numpy as np
import pytest

from spurmin import (AllRowsZero, Dataset, LossKind, Mlp, build_minimum, cells, cli,
                     empirical_risk, enumerate_family, forward, min_pairwise_distance, network,
                     perturbation_local_min_test, trace_interval_check)
from spurmin.cli import run_demo
from spurmin.verification import _risk_match, descent_gap_certificate

SQ = LossKind.SQUARED


@pytest.fixture(scope="module")
def minimum(xor, xor_fit, relu_act):
    return build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1")


def with_first_bias(net: Mlp, unit: int, shift: float) -> Mlp:
    """net with b_1[unit] moved by shift."""
    b1 = net.biases[0].copy()
    b1[unit] += shift
    return Mlp(net.dims, net.weights, (b1, *net.biases[1:]), net.activation)


def test_the_minimum_passes_every_check(xor, xor_fit, minimum):
    net = minimum.net
    assert _risk_match(minimum.risk, xor_fit.risk).passed
    assert perturbation_local_min_test(net, xor, SQ, seed=7).verdict
    assert cells.analyze(net, xor, SQ)["quotient_gradient_residual"] <= 1e-8
    assert trace_interval_check(forward(net, xor.X), 0.0, np.inf).verdict
    assert minimum.interval.verdict


class TestMovedFirstBias:
    """b_1's first entry, the unit that feeds the output, moved by 1e-3:
    the output shifts by a constant, so the risk rises by about 5e-7."""

    @pytest.fixture(scope="class")
    def moved(self, minimum):
        assert minimum.net.weights[1][0, 0] != 0.0
        return with_first_bias(minimum.net, 0, 1e-3)

    def test_risk_match_fails(self, xor, xor_fit, moved):
        risk = empirical_risk(moved, xor, SQ)
        assert not _risk_match(risk, xor_fit.risk).passed

    def test_probe_at_seed_7_fails(self, xor, moved):
        assert not perturbation_local_min_test(moved, xor, SQ, seed=7).verdict

    def test_quotient_residual_fails(self, xor, moved):
        assert cells.analyze(moved, xor, SQ)["quotient_gradient_residual"] > 1e-8


@pytest.mark.parametrize("unit", range(3))
def test_unit_moved_across_the_breakpoint_fails_the_interval_check(xor, minimum, unit):
    net = minimum.net
    pre = forward(net, xor.X).pre[0]
    moved = with_first_bias(net, unit, -(pre[unit].max() + 1.0))
    assert not trace_interval_check(forward(moved, xor.X), 0.0, np.inf).verdict


def test_a_fold_that_drops_the_bias_fails_the_risk_match(xor, xor_fit, minimum, monkeypatch):
    monkeypatch.setattr(network, "_affine", lambda W, b, X1: W @ X1[:-1])
    assert not _risk_match(empirical_risk(minimum.net, xor, SQ), xor_fit.risk).passed


# ---------------------------------------------------------------------------
# every check the demo records is accounted for: a fault above or below
# flips it, or it is listed as one no fault can flip yet (the list can only
# shrink)

MUTATED = {
    "fit_risk_positive",
    "stage_risk_matches_baseline",
    "stage_gap_positive",
    "stage_local_min_sampled",
    "stage_trace_interval",
    "corollary_gap_positive",
    "family_distinct",
    "family_risks_match",
    "cells_quotient_residual",
}
KNOWN_VACUOUS = [
    "cells_reformulation_identity",
    "valley_path_risk_invariant",
    "valley_path_pattern_constant",
    "linear_collapse_identity",
    "linear_collapse_relu_control",
    "loss_gradients_fd",
]


def test_every_demo_check_is_mutated_or_known_vacuous():
    report, _, _ = run_demo(seed=7)
    names = {re.sub(r"^stage\d", "stage", check["name"]) for check in report["checks"]}
    assert MUTATED.isdisjoint(KNOWN_VACUOUS)
    assert names == MUTATED | set(KNOWN_VACUOUS)


def test_a_witness_equal_to_its_minimum_fails_both_gap_checks(xor_fit, minimum):
    # stage*_gap_positive compares the minimum with its witness, and
    # corollary_gap_positive the baseline with the balanced witness
    assert not descent_gap_certificate(minimum.risk, minimum.risk).verdict
    assert not descent_gap_certificate(xor_fit.risk, minimum.risk).verdict


@pytest.fixture(scope="module")
def family(xor, xor_fit, relu_act):
    return enumerate_family(xor_fit, xor, (2, 3, 3, 1), relu_act, k=3, seed=7)


def test_two_copies_of_one_member_fail_family_distinct(family):
    assert min_pairwise_distance(family) > 1e-6
    assert not min_pairwise_distance([family[0], family[0]]) > 1e-6


def test_a_moved_members_risk_fails_family_risks_match(xor, xor_fit, family):
    moved = with_first_bias(family[1].net, 0, 1e-3)
    risks = [m.risk for m in family]
    assert all(_risk_match(r, xor_fit.risk).passed for r in risks)
    risks[1] = empirical_risk(moved, xor, SQ)
    assert not all(_risk_match(r, xor_fit.risk).passed for r in risks)


@pytest.mark.parametrize("label", [0.0, 0.5, 1.0])
def test_constant_labels_fail_fit_risk_positive(xor, monkeypatch, label):
    # an affine map fits constant labels: 0.5 and 1.0 leave only a rounding
    # risk (about 1e-31 here), which is no residual.  The demo records the
    # check before its witnesses refuse the fit, so it is read from the
    # demo's frame.
    data = Dataset(xor.X, np.full_like(xor.Y, label))
    monkeypatch.setattr(cli, "xor_dataset", lambda: data)
    with pytest.raises(AllRowsZero) as raised:
        run_demo(seed=7)
    checks = next(frame.f_locals["checks"] for frame, _ in traceback.walk_tb(raised.tb)
                  if frame.f_code is run_demo.__code__)
    assert checks == [("fit_risk_positive", False)]
