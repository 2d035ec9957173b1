"""The JSON writer and the run-length encoder against the forms they
replaced: the indented pure-Python writer over a recursive `to_jsonable`,
and the loop over every pattern entry.  Each written file must parse to the
old writer's object with the same sorted-key hash."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spurmin import Mlp, NonFiniteOutput, cli
from spurmin.io import (
    _json_text,
    dump_json,
    mlp_from_dict,
    rle_encode,
    save_mlp,
    to_jsonable,
)

from pins import load_pins, sorted_key_hash

PINS = load_pins()


def old_to_jsonable(obj):
    if isinstance(obj, dict):
        return {k: old_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return old_to_jsonable(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def old_text(obj) -> str:
    return json.dumps(old_to_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)


def old_rle(matrix):
    runs = []
    for v in np.asarray(matrix).reshape(-1):
        v = float(v)
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return runs


def assert_same_as_oracle(text: str, obj) -> None:
    got, want = json.loads(text), json.loads(old_text(obj))
    assert got == want
    assert sorted_key_hash(got) == sorted_key_hash(want)


# ---------------------------------------------------------------------------
# every payload the CLI writes


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The XOR fixture, a route-1 minimum's network, and two networks in one
    rescaling class for the valley path."""
    root = tmp_path_factory.mktemp("writer")
    data, net, a, b = (str(root / name) for name in ("xor.csv", "net.json", "a.json", "b.json"))
    assert cli.main(["gen-data", "--spec", "xor", "--out", data]) == 0
    pair = root / "pair.json"
    assert cli.main(["construct", "--data", data, "--stage", "2", "--dims", "2,3,3,1",
                     "--out", str(pair)]) == 0
    deep = mlp_from_dict(json.loads(pair.read_text())["points"][0]["net"])
    save_mlp(deep, a)
    c = np.array([2.0, 0.5, 3.0])
    W, bias = list(deep.weights), list(deep.biases)
    W[0], bias[0], W[1] = W[0] / c[:, None], bias[0] / c, W[1] * c
    save_mlp(Mlp(deep.dims, tuple(W), tuple(bias), deep.activation), b)
    one = root / "one.json"
    assert cli.main(["construct", "--data", data, "--stage", "1", "--dims", "2,3,1",
                     "--out", str(one)]) == 0
    (root / "net.json").write_text(json.dumps(json.loads(one.read_text())["points"][0]["net"]))
    return {"DATA": data, "NET": net, "A": a, "B": b}


CASES = {
    "fit": ["fit", "--data", "DATA"],
    "separate": ["separate", "--data", "DATA"],
    "construct-k1": ["construct", "--data", "DATA", "--stage", "1", "--dims", "2,3,1"],
    "construct-k10": ["construct", "--data", "DATA", "--dims", "2,3,3,1", "--k", "10",
                      "--seed", "7"],
    "descend-1": ["descend", "--data", "DATA", "--stage", "1", "--dims", "2,3,1"],
    "descend-2": ["descend", "--data", "DATA", "--stage", "2", "--dims", "2,3,3,1"],
    "descend-3": ["descend", "--data", "DATA", "--stage", "3", "--dims", "2,3,3,1",
                  "--activation", "threepiece"],
    "descend-corollary": ["descend", "--data", "DATA", "--stage", "corollary", "--dims", "2,4,1",
                          "--activation", "abs"],
    "verify": ["verify", "--data", "DATA", "--net", "NET", "--samples", "20", "--seed", "7"],
    "cells": ["cells", "--data", "DATA", "--net", "NET"],
    "path": ["path", "--data", "DATA", "--a", "A", "--b", "B", "--steps", "3"],
    "demo-7": ["demo", "--seed", "7"],
    "demo-3": ["demo", "--seed", "3"],
    "demo-abs-corollary": ["demo", "--activation", "abs", "--corollary", "--seed", "7"],
}


@pytest.mark.parametrize("case", list(CASES))
def test_every_written_file_parses_to_the_old_writers_object(case, inputs, tmp_path, monkeypatch):
    written = []
    dump = cli.dump_json

    def spy(obj, path):
        written.append(obj)
        dump(obj, path)

    monkeypatch.setattr(cli, "dump_json", spy)
    out = tmp_path / "out.json"
    argv = [inputs.get(arg, arg) for arg in CASES[case]] + ["--out", str(out)]
    assert cli.main(argv) == 0
    text = out.read_text()
    assert len(written) == 1
    assert text.endswith("\n") and text.count("\n") == 1
    assert_same_as_oracle(text, written[0])


def test_demo_report_keeps_its_pinned_hash_at_half_the_size(tmp_path):
    out = tmp_path / "r.json"
    report, ok, _ = cli.run_demo(seed=7, out=str(out))
    assert ok
    assert sorted_key_hash(json.loads(out.read_text())) == PINS["demo_seed7"]["sha"]
    assert 2 * out.stat().st_size < len(old_text(report)) + 1


def test_stdout_payload_parses_to_the_old_writers_object(inputs, monkeypatch, capsys):
    written = []

    def spy(obj):
        written.append(obj)
        return _json_text(obj)

    monkeypatch.setattr(cli, "_json_text", spy)
    assert cli.main(["fit", "--data", inputs["DATA"]]) == 0
    assert len(written) == 1
    assert_same_as_oracle(capsys.readouterr().out, written[0])


# ---------------------------------------------------------------------------
# any nesting of numpy and Python leaves

_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FINITE32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

LEAVES = st.one_of(
    _FINITE,
    st.sampled_from([0.0, -0.0]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    _FINITE.map(np.float64),
    st.sampled_from([0.0, -0.0]).map(np.float64),
    _FINITE32.map(np.float32),
    _INT64.map(np.int64),
    st.booleans().map(np.bool_),
    _FINITE.map(np.array),
    hnp.arrays(np.float64, _SHAPES, elements=_FINITE),
    hnp.arrays(np.float32, _SHAPES, elements=_FINITE32),
    hnp.arrays(np.int64, _SHAPES, elements=_INT64),
    hnp.arrays(np.bool_, _SHAPES),
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=24,
)


@given(PAYLOADS)
@settings(max_examples=300, deadline=None)
def test_any_payload_is_written_as_the_old_writer_wrote_it(obj):
    assert_same_as_oracle(_json_text(obj), obj)
    # repr tells an int from a float, -0.0 from 0.0 and np.float64 from float
    assert repr(to_jsonable(obj)) == repr(old_to_jsonable(obj))


@pytest.mark.parametrize("obj", [{1, 2}, {"a": [np.float64(1.0), {"b": {3}}]}],
                         ids=["set", "nested set"])
def test_to_jsonable_refuses_what_the_writer_refuses(obj, tmp_path):
    for convert in (to_jsonable, _json_text, lambda o: dump_json(o, tmp_path / "x.json")):
        with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
            convert(obj)


# ---------------------------------------------------------------------------
# a value JSON cannot hold names its path

BAD = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("kind", [float, np.float64, np.float32])
@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf"])
def test_a_non_finite_scalar_is_named_by_its_path(kind, bad):
    obj = {"config": {"seed": 7}, "stages": [{"witness": {"risk": 0.5}},
                                            {"witness": {"gap": 1.0, "risk": kind(bad)}}]}
    with pytest.raises(NonFiniteOutput) as info:
        _json_text(obj)
    assert str(info.value) == f"$.stages.1.witness.risk = {float(bad)!r}"


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf"])
def test_a_non_finite_array_entry_is_named_by_its_index(dtype, bad):
    W = np.ones((2, 3), dtype=dtype)
    W[1, 2] = bad
    obj = {"net": {"weights": [np.zeros((3, 2)), W]}, "points": (1.0, 2.0)}
    with pytest.raises(NonFiniteOutput) as info:
        _json_text(obj)
    assert str(info.value) == f"$.net.weights.1.1.2 = {float(bad)!r}"


def test_the_first_non_finite_value_is_the_first_one_written():
    # keys are written sorted, so "a" comes before "b"
    with pytest.raises(NonFiniteOutput) as info:
        _json_text({"b": float("nan"), "a": [1.0, np.array(float("-inf"))]})
    assert str(info.value) == "$.a.1 = -inf"


def test_a_failed_dump_leaves_files_as_they_were(tmp_path):
    existing, new = tmp_path / "existing.json", tmp_path / "new.json"
    existing.write_text('{"kept": true}\n')
    before = existing.read_bytes()
    for path in (existing, new):
        with pytest.raises(NonFiniteOutput):
            dump_json({"risk": np.float64("nan")}, path)
    assert existing.read_bytes() == before
    assert not new.exists()


# ---------------------------------------------------------------------------
# run-length encoding


def test_rle_is_the_loop_on_random_arrays():
    rng = np.random.default_rng(24)
    pool = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 2.5])
    for _ in range(500):
        shape = tuple(rng.integers(1, 6, rng.integers(1, 4)))
        # short pools make long runs, long pools short ones
        values = pool[rng.integers(0, rng.integers(1, len(pool) + 1), shape)]
        for matrix in (values, rng.permutation(pool)[rng.integers(0, 3, shape)],
                       rng.integers(-2, 3, shape), rng.integers(0, 2, shape).astype(bool)):
            assert repr(rle_encode(matrix)) == repr(old_rle(matrix))


@pytest.mark.parametrize("matrix", [
    np.zeros((0,)), np.zeros((3, 0)), np.array([[np.nan]]), np.array([[-0.0]]), np.array([[7]]),
    np.array([[-0.0, 0.0], [0.0, -0.0]]), np.array([0.0, -0.0, np.nan, np.nan, -0.0]),
    [[1, 1], [1, 2]],
], ids=["empty", "empty-rows", "nan", "neg-zero", "int", "zeros", "nan-between-zeros", "list"])
def test_rle_edge_cases_are_the_loops(matrix):
    assert repr(rle_encode(matrix)) == repr(old_rle(matrix))
