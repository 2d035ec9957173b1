from unittest import mock

import numpy as np
import pytest

from spurmin import (
    AllRowsZero,
    Dataset,
    LossKind,
    PreconditionViolated,
    fit_linear,
    select_nonzero_residual_row,
)
from spurmin import linear_fit
from spurmin.linear_fit import _finish, augment, permute_fit_rows

from conftest import random_two_output_dataset


def normal_equations_oracle(data: Dataset) -> np.ndarray:
    """Independent least-squares path: solve Xt Xt^T w = Xt y per output row."""
    Xt = augment(data.X)
    G = Xt @ Xt.T
    return np.linalg.solve(G, Xt @ data.Y.T).T


class TestSquaredFit:
    def test_xor_matches_oracle(self, xor, xor_fit):
        oracle = normal_equations_oracle(xor)
        assert np.max(np.abs(xor_fit.w_tilde - oracle)) <= 1e-9
        assert np.max(np.abs(oracle - np.array([[0.0, 0.0, 0.5]]))) <= 1e-12
        assert xor_fit.risk == pytest.approx(0.125, abs=1e-9)
        assert xor_fit.grad_norm <= 1e-10

    def test_exact_affine_fit(self, rng):
        X = rng.standard_normal((1, 7))
        data = Dataset(X, 2.0 * X + 1.0)
        fit = fit_linear(data, LossKind.SQUARED)
        assert np.allclose(fit.w_tilde, [[2.0, 1.0]], atol=1e-10)
        assert fit.risk <= 1e-20

    def test_single_sample_minimum_norm(self):
        data = Dataset(np.array([[1.0], [2.0]]), np.array([[3.0]]))
        fit = fit_linear(data, LossKind.SQUARED)
        assert fit.risk <= 1e-20
        # pinv returns the minimum-norm interpolant among all exact fits
        oracle = np.linalg.lstsq(augment(data.X).T, data.Y.T, rcond=None)[0].T
        assert np.allclose(fit.w_tilde, oracle, atol=1e-12)

    def test_global_minimality_against_perturbations(self, xor, xor_fit, rng):
        base = xor_fit.risk
        Xt = augment(xor.X)
        for _ in range(1000):
            d = rng.standard_normal(xor_fit.w_tilde.shape)
            d *= 1e-3 / np.linalg.norm(d)
            W = xor_fit.w_tilde + d
            risk = float(np.sum(0.5 * (W @ Xt - xor.Y) ** 2) / xor.n)
            assert risk >= base - 1e-15

    def test_positive_risk_iff_inseparable(self, rng):
        X = rng.standard_normal((2, 9))
        sep = Dataset(X, (X[0] - X[1])[None, :])
        assert fit_linear(sep, LossKind.SQUARED).risk <= 1e-20
        insep = Dataset(X, (X[0] * X[1])[None, :])
        assert fit_linear(insep, LossKind.SQUARED).risk > 1e-8


class TestStationarity:
    def test_xor_certificate_near_zero(self, xor, xor_fit):
        # n * grad_norm is ||V [X^T 1]||_F, the stationarity residual
        grad_norm = _finish(xor_fit.w_tilde, xor, LossKind.SQUARED).grad_norm
        assert xor.n * grad_norm <= 1e-8 * (1.0 + np.linalg.norm(xor_fit.v))

    def test_v_row_oracle(self, xor, xor_fit):
        # V = yhat - y for the squared loss; direct orthogonality by hand
        v = xor_fit.v
        assert np.allclose(v, [[0.5, -0.5, -0.5, 0.5]], atol=1e-12)
        assert np.allclose(v @ augment(xor.X).T, 0.0, atol=1e-12)

    def test_zero_residual_certificate_zero(self, rng):
        X = rng.standard_normal((1, 5))
        fit_ = fit_linear(Dataset(X, 3.0 * X), LossKind.SQUARED)
        assert np.max(np.abs(fit_.v)) <= 1e-12

    def test_unfitted_matrix_positive(self, xor, xor_fit, rng):
        W = xor_fit.w_tilde + rng.standard_normal(xor_fit.w_tilde.shape)
        assert xor.n * _finish(W, xor, LossKind.SQUARED).grad_norm > 1e-3

    def test_row_sums_vanish(self, xor_fit):
        scale = 1e-8 * (1.0 + np.linalg.norm(xor_fit.v))
        assert np.max(np.abs(xor_fit.v.sum(axis=1))) <= scale


class TestRowSelection:
    def test_xor_identity(self, xor, xor_fit):
        k, perm = select_nonzero_residual_row(xor_fit, xor)
        assert k == 0
        assert perm.tolist() == [0]

    def test_zero_row_swapped(self, rng):
        data = random_two_output_dataset(seed=5)
        # make row 0 exactly fittable: y0 affine in x
        Y = data.Y.copy()
        Y[0] = 3.0 * data.X[0] - 1.0
        data = Dataset(data.X, Y)
        fit = fit_linear(data, LossKind.SQUARED)
        k, perm = select_nonzero_residual_row(fit, data)
        assert k == 1
        assert perm.tolist() == [1, 0]
        fitp, datap = permute_fit_rows(fit, data, perm)
        assert np.max(np.abs(fitp.v[0])) > 1e-6
        assert np.array_equal(datap.Y[0], data.Y[1])
        assert fitp.risk == fit.risk

    def test_all_zero_raises(self, rng):
        X = rng.standard_normal((2, 6))
        fit_data = Dataset(X, (X[0] + 2.0)[None, :])
        fit = fit_linear(fit_data, LossKind.SQUARED)
        with pytest.raises(AllRowsZero):
            select_nonzero_residual_row(fit, fit_data)


class TestCrossEntropyFit:
    def test_small_nonseparable_problem(self):
        X = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
        Y = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]])  # one-hot XOR classes
        data = Dataset(X, Y)
        fit = fit_linear(data, LossKind.CROSS_ENTROPY, tol=1e-8)
        assert fit.grad_norm <= 1e-8
        assert not fit.unbounded_suspected
        assert fit.risk > 0.1  # XOR classes are not linearly separable

    def test_separable_hits_cap_flag(self):
        X = np.array([[-1.0, 1.0]])
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        data = Dataset(X, Y)
        fit = fit_linear(data, LossKind.CROSS_ENTROPY, tol=1e-300, param_cap=5.0, max_iter=20_000)
        assert fit.unbounded_suspected


ONE_HOT_XOR = Dataset(np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]]),
                      np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]]))


class TestFitArguments:
    @pytest.mark.parametrize("loss", [LossKind.SQUARED, LossKind.CROSS_ENTROPY])
    @pytest.mark.parametrize("name, value", [
        ("tol", np.nan), ("tol", np.inf), ("tol", -1.0), ("tol", -1e-300), ("tol", True),
        ("tol", "1e-8"), ("tol", None), ("param_cap", 0.0), ("param_cap", -5.0),
        ("param_cap", np.nan), ("param_cap", np.inf), ("param_cap", 10**400),
        ("param_cap", False), ("max_iter", 0), ("max_iter", -3), ("max_iter", 2.5),
        ("max_iter", 100.0), ("max_iter", True), ("max_iter", "10"),
    ])
    def test_bad_argument_refused_before_the_first_gradient(self, monkeypatch, loss, name,
                                                            value):
        monkeypatch.setattr(linear_fit, "loss_gradient", mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(linear_fit, "augment", mock.Mock(side_effect=AssertionError))
        with pytest.raises(PreconditionViolated, match=f"^{name} must be"):
            fit_linear(ONE_HOT_XOR, loss, **{name: value})

    def test_boundary_values_accepted(self):
        want = fit_linear(ONE_HOT_XOR, LossKind.SQUARED)
        got = fit_linear(ONE_HOT_XOR, LossKind.SQUARED, tol=0, max_iter=np.int64(1),
                         param_cap=1)
        assert np.array_equal(got.w_tilde, want.w_tilde)
        fit = fit_linear(ONE_HOT_XOR, LossKind.CROSS_ENTROPY, tol=np.float64(1e-8),
                         param_cap=10**6)
        assert fit.grad_norm <= 1e-8
