"""Cross-cutting pipelines beyond the canonical fixture: multi-output data,
cross-entropy loss, minimal dimensions, and generated datasets."""

import numpy as np
import pytest

import spurmin as sp
from spurmin import LossKind

from conftest import random_two_output_dataset

SQ = LossKind.SQUARED


@pytest.fixture(scope="module")
def two_out():
    data = random_two_output_dataset(seed=3)
    return data, sp.fit_linear(data, SQ)


class TestMultiOutput:
    def test_deep_pair(self, two_out):
        data, fit = two_out
        m = sp.build_minimum(fit, data, (2, 4, 3, 2), sp.relu(), stage="2")
        w = sp.build_descent(fit, data, (2, 4, 3, 2), sp.relu(), stage="2")
        assert abs(m.risk - fit.risk) <= 1e-9
        assert w.risk < fit.risk - 1e-12
        cert = sp.perturbation_local_min_test(m.net, data, SQ, 1e-4, 300, 11)
        assert cert.verdict

    def test_general_pair_with_interval(self, two_out):
        data, fit = two_out
        m = sp.build_minimum(fit, data, (2, 4, 3, 2), sp.three_piece(), stage="3")
        w = sp.build_descent(fit, data, (2, 4, 3, 2), sp.three_piece(), stage="3")
        assert abs(m.risk - fit.risk) <= 1e-9
        assert w.risk < fit.risk - 1e-12
        for z in sp.forward(m.net, data.X).hidden_pre:
            assert np.all(z > 0.0) and np.all(z < 1.0)
        cert = sp.perturbation_local_min_test(m.net, data, SQ, 1e-4, 300, 11)
        assert cert.verdict

    def test_balanced_pair(self, two_out):
        data, fit = two_out
        w = sp.build_descent(fit, data, (2, 4, 2), sp.absolute_value(), stage="corollary")
        assert w.risk < fit.risk - 1e-12

    def test_trivial_branch_witnesses_coincide(self, two_out):
        # this dataset separates on the trivial branch (beta = 0), where the
        # two-piece and balanced witnesses both shift row 1 by the same gamma
        data, fit = two_out
        _, perm = sp.select_nonzero_residual_row(fit, data)
        from spurmin.linear_fit import permute_fit_rows
        from spurmin.separation import separate

        fitp, _ = permute_fit_rows(fit, data, perm)
        res = separate(fitp.v[0], fitp.y_tilde[0], data.X)
        assert res.trivial_branch
        w2 = sp.build_descent(fit, data, (2, 4, 3, 2), sp.relu(), stage="2")
        wb = sp.build_descent(fit, data, (2, 4, 2), sp.absolute_value(), stage="corollary")
        assert abs(w2.risk - wb.risk) <= 1e-12


@pytest.fixture(scope="module")
def ce_problem():
    # one-hot classes on the 4-point fixture: not linearly separable, so the
    # baseline has a finite minimizer (W = 0 by symmetry, risk ln 2)
    X = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
    Y = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]])
    data = sp.Dataset(X, Y)
    fit = sp.fit_linear(data, LossKind.CROSS_ENTROPY, tol=1e-12)
    return data, fit


class TestCrossEntropyPipeline:
    def test_baseline(self, ce_problem):
        data, fit = ce_problem
        assert fit.risk == pytest.approx(np.log(2), abs=1e-12)
        assert fit.grad_norm <= 1e-12
        assert np.max(np.abs(fit.v.sum(axis=1))) <= 1e-10 * np.abs(fit.v).sum()

    def test_minimum_reproduces_baseline(self, ce_problem):
        data, fit = ce_problem
        m = sp.build_minimum(fit, data, (2, 4, 2), sp.relu(), stage="1")
        assert abs(m.risk - fit.risk) <= 1e-12
        cert = sp.perturbation_local_min_test(
            m.net, data, LossKind.CROSS_ENTROPY, 1e-4, 300, 5
        )
        assert cert.verdict

    def test_witness_strictly_better(self, ce_problem):
        data, fit = ce_problem
        w = sp.build_descent(fit, data, (2, 4, 2), sp.relu(), stage="1")
        assert w.risk < fit.risk - 1e-6


class TestSmallDimensions:
    def test_scalar_features(self):
        X = np.array([[-1.0, 0.0, 1.0]])
        Y = np.array([[1.0, 0.0, 1.0]])  # |x| cannot be fit affinely
        data = sp.Dataset(X, Y)
        fit = sp.fit_linear(data, SQ)
        assert fit.risk > 1e-3
        m = sp.build_minimum(fit, data, (1, 2, 1), sp.relu(), stage="1")
        w = sp.build_descent(fit, data, (1, 2, 1), sp.relu(), stage="1")
        assert abs(m.risk - fit.risk) <= 1e-9
        assert w.risk < fit.risk - 1e-12

    def test_two_samples(self):
        # two distinct points are always affinely fittable: minimum exists
        # but cannot be spurious
        X = np.array([[0.0, 1.0]])
        Y = np.array([[0.0, 2.0]])
        data = sp.Dataset(X, Y)
        fit = sp.fit_linear(data, SQ)
        m = sp.build_minimum(fit, data, (1, 2, 1), sp.relu(), stage="1")
        assert m.risk <= 1e-18
        assert not m.spurious


class TestGeneratedData:
    def test_blobs_full_pipeline(self):
        data = sp.gen_dataset("blobs:3", seed=2, check_assumption_flags=True)
        fit = sp.fit_linear(data, SQ)
        dims = (2, 3, 3, 1)
        m = sp.build_minimum(fit, data, dims, sp.relu())
        w = sp.build_descent(fit, data, dims, sp.relu())
        assert abs(m.risk - fit.risk) <= 1e-9
        assert w.risk < fit.risk - 1e-12
        cert = sp.perturbation_local_min_test(m.net, data, SQ, 1e-5, 200, 9)
        assert cert.verdict

    def test_blobs_general_route(self):
        data = sp.gen_dataset("blobs:4", seed=5, check_assumption_flags=True)
        fit = sp.fit_linear(data, SQ)
        m = sp.build_minimum(fit, data, (2, 3, 3, 1), sp.three_piece(), stage="3")
        w = sp.build_descent(fit, data, (2, 3, 3, 1), sp.three_piece(), stage="3")
        assert abs(m.risk - fit.risk) <= 1e-9
        assert w.risk < fit.risk - 1e-12
        for z in sp.forward(m.net, data.X).hidden_pre:
            assert np.all(z > 0.0) and np.all(z < 1.0)
