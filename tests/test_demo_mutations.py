"""Faults that the demo's checks must catch.

Each test builds a faulty variant of the XOR stage-1 minimum and asserts
that a check `spurmin demo` records fails on it.  These checks all read the
first layer's pre-activations, [W_1 | b_1] @ [X; 1], so a forward that
dropped b_1 or moved an entry of it fails a check, not only a pinned hash.
"""

import numpy as np
import pytest

from spurmin import (LossKind, Mlp, build_minimum, cells, empirical_risk, forward, network,
                     perturbation_local_min_test, trace_interval_check)
from spurmin.verification import _risk_match

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
