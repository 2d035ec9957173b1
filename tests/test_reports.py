"""The report types serialize their dataclass fields.  Each key set is
pinned, so a new field reaches a report only through a change here."""

import json

import numpy as np
import pytest

from spurmin import (
    LossKind,
    build_minimum,
    check_assumptions,
    relu,
    three_piece,
)
from spurmin.construction import ConstructionParams, _split
from spurmin.io import _json_text
from spurmin.verification import Check, descent_gap_certificate, perturbation_local_min_test

CHECK_KEYS = {"name", "passed", "value", "tolerance", "samples", "seed"}
PARAMS_KEYS = {
    "eta", "eta_rest", "alpha", "gamma", "eta1", "lambda_shift", "m_scale", "m_tilde",
    "alpha_scales",
}


def as_json(obj):
    return json.loads(_json_text(obj.as_dict()))


def test_check_keys():
    check = Check("descent_gap", True, 0.5, 1e-12)
    assert as_json(check) == {
        "name": "descent_gap", "passed": True, "value": 0.5, "tolerance": 1e-12,
        "samples": None, "seed": None,
    }


@pytest.mark.parametrize("make", [
    lambda xor, fit: descent_gap_certificate(fit.risk, 0.1),
    lambda xor, fit: perturbation_local_min_test(
        build_minimum(fit, xor, (2, 3, 1), relu(), stage="1").net, xor, LossKind.SQUARED,
        samples=20, seed=7,
    ),
    lambda xor, fit: build_minimum(fit, xor, (2, 3, 1), relu(), stage="1").interval,
])
def test_certificate_keys(xor, xor_fit, make):
    cert = make(xor, xor_fit)
    d = as_json(cert)
    assert set(d) == {"subject", "checks", "verdict"}
    assert d["subject"] == cert.subject and d["verdict"] is cert.verdict
    assert [set(c) for c in d["checks"]] == [CHECK_KEYS] * len(cert.checks)
    assert d["checks"] == [as_json(c) for c in cert.checks]


def test_assumption_report_keys(xor):
    report = check_assumptions(xor, (2, 2, 1), relu())
    assert as_json(report) == {
        "linear_inseparable": True,
        "distinct_samples": True,
        "widths_ok": True,
        "turning_point_ok": True,
        "balanced_widths_ok": False,
        "baseline_residual": report.baseline_residual,
    }


def test_separation_result_keys(xor, xor_fit):
    _, _, res = _split(xor_fit, xor)
    assert as_json(res) == {
        "perm": res.perm.tolist(),
        "l_prime": res.l_prime,
        "beta": res.beta.tolist(),
        "group_bounds": list(res.group_bounds),
        "t_group": res.t_group,
        "trivial_branch": res.trivial_branch,
        "alpha_max": res.alpha_max,
    }


def test_construction_params_keys_without_turning():
    params = ConstructionParams(eta=-1.0, eta_rest=(np.float64(0.5),), alpha_scales=(0.5,))
    d = as_json(params)
    assert set(d) == PARAMS_KEYS
    assert d["eta_rest"] == [0.5] and d["alpha_scales"] == [0.5] and d["gamma"] is None


def test_construction_params_keys_with_turning(xor, xor_fit):
    params = build_minimum(xor_fit, xor, (2, 3, 3, 1), three_piece(), stage="3").params
    d = as_json(params)
    assert set(d) == PARAMS_KEYS | {"turning"}
    tp = params.turning
    assert d["turning"] == {"t": tp.t, "s_minus": tp.s_minus, "s_plus": tp.s_plus, "sigma": tp.sigma}
