"""Tests of the benchmark itself: generators, gates and tracing.

    python3 -m pytest bench/tests -q
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import spurmin as sm
import spurmin.cli  # noqa: F401  (the demo op reaches it as sm.cli)
import run
import tracing
import workloads as wl


def _split(data):
    fit = sm.fit_linear(data, sm.LossKind.SQUARED)
    _, perm = sm.select_nonzero_residual_row(fit, data)
    row = perm[0]
    return sm.separate(fit.v[row], fit.y_tilde[row], data.X)


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_tied_split_has_three_groups_and_splits_at_a_third(seed):
    data = wl.tied_data(sm, seed)
    res = _split(data)
    assert data.n == 3000
    assert len(res.group_bounds) == 3
    assert res.trivial_branch and res.l_prime == data.n // 3


@pytest.mark.parametrize("seed", [0, 1])
def test_wide_certify_splits_after_one_sample(seed):
    res = _split(wl.wide_data(sm, seed))
    assert res.l_prime == 1


@pytest.mark.parametrize("make", [wl.wide_data, wl.tied_data])
def test_seed_changes_the_data_but_not_its_shape(make):
    a, a2, b = make(sm, 3), make(sm, 3), make(sm, 4)
    assert np.array_equal(a.X, a2.X) and np.array_equal(a.Y, a2.Y)
    assert a.X.shape == b.X.shape and a.Y.shape == b.Y.shape
    assert not np.array_equal(a.X, b.X)


def _context(name, tmp_path, seed=0):
    w = wl.WORKLOADS[name]
    return wl.new_context(sm, w, w.make_data(sm, seed), seed, tmp_path)


def test_demo_gate_holds_at_seed_7(tmp_path):
    ctx = _context("demo_xor", tmp_path)
    assert ctx.demo_seeds[0] == wl.DEMO_GATE_SEED
    report, ok, _ = sm.cli.run_demo(seed=7)
    assert ok and wl.demo_hash(sm, report) == wl.DEMO_GATE_SHA
    assert wl.op_demo(ctx)[0] == 1


def test_demo_gate_rejects_a_changed_report(tmp_path):
    ctx = _context("demo_xor", tmp_path)
    ctx.demo_hashes[wl.DEMO_GATE_SEED] = "0" * 16
    with pytest.raises(wl.GateFailure):
        wl.op_demo(ctx)


def test_every_op_passes_its_gate_on_the_xor_fixture(tmp_path):
    ctx = _context("demo_xor", tmp_path)
    for kind in wl.OPS:
        amount, seconds = wl.OPS[kind](ctx)
        assert amount >= 1 and seconds > 0


def test_spans_nest_and_self_times_are_nonnegative(tmp_path):
    ctx = _context("demo_xor", tmp_path)
    original = sm.construction.separate
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert sm.construction.separate is not original
        for kind in ("descend", "verify", "cells"):
            tracer.op = kind
            tracer.span(f"op.{kind}", wl.OPS[kind])(ctx)
    finally:
        uninstall()
    assert sm.construction.separate is original

    spans = tracer.spans
    assert spans
    for name, start, end, parent, op in spans:
        assert start <= end
        if parent >= 0:
            p_name, p_start, p_end, _, p_op = spans[parent]
            assert p_start <= start and end <= p_end and op == p_op
        else:
            assert name.startswith("op.")
    assert all(t >= 0 for t in tracer.self_times())

    # a cross-module call is seen under its caller
    by_index = {i: s for i, s in enumerate(spans)}
    seps = [s for s in spans if s[0] == "separation.separate"]
    assert seps and all(by_index[s[3]][0].startswith("construction.") for s in seps)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "peak_rss_mb", *run.OP_METRICS
    }
    layer = tracing.layer_metrics(tracing.Tracer(), cycles=1)
    assert {m["name"] for m in spec["per_layer"]} == {*layer, "trace.overhead_s"}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[k] == v["unit"] for k, v in layer.items())


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values, lower_is_better=True) == {"p": 90.0, "value": 90.0}
    assert run.tail(values, lower_is_better=False) == {"p": 90.0, "value": 11.0}
    assert run.tail(values[:5], lower_is_better=True) == {"p": 100.0, "value": 5.0}


def test_rescaling_cancels_a_uniform_slowdown():
    def metrics(slowdown):
        ctx = SimpleNamespace(w=wl.WORKLOADS["tied_split"])
        loop = run.Loop(ctx, wl.OPS, references=[slowdown * run.REFERENCE_S] * 3)
        for kind in loop.samples:
            loop.samples[kind] = [(10, slowdown * 0.5), (10, slowdown * 0.7)]
        setup = ([slowdown * 0.1], [slowdown * run.REFERENCE_S])
        found, _ = run.end_to_end(loop, *setup)
        return {k: v["value"] for k, v in found.items() if k != "peak_rss_mb"}

    fast, slow = metrics(1.0), metrics(2.0)
    assert fast == pytest.approx(slow)
    assert fast["demo_s"] == pytest.approx(0.6)
    assert fast["verify_draws_per_s"] == pytest.approx((10 / 0.5 + 10 / 0.7) / 2)
