"""The pin table `pins.json` and its runner `pins.py`: every pin that a
command line writes holds from the source tree, the runner names each pin
it cannot confirm, and the benchmark gates on the table's seed-7 pin."""

import ast
import re
from pathlib import Path

import pytest

from pins import load_pins, run_pins, sorted_key_hash
from spurmin.cli import main

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
PINS = load_pins()


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_every_pin_is_a_hash_prefix_with_a_reason():
    for name, pin in PINS.items():
        assert re.fullmatch(r"[0-9a-f]{16}", pin["sha"]), name
        assert pin["why"].strip(), name
        assert set(pin) <= {"sha", "why", "argv", "drop_config"}, name


def test_every_cli_pin_holds_from_the_source_tree(scratch):
    assert run_pins(main, PINS) == []


def test_runner_names_the_pin_whose_hash_differs(scratch):
    table = {"xor_split": PINS["xor_split"],
             "blobs_split": {**PINS["blobs_split"], "sha": "0" * 16}}
    assert run_pins(main, table) == [
        f"blobs_split: hash {PINS['blobs_split']['sha']}, pinned {'0' * 16}"]


def test_runner_fails_on_a_pin_never_written(scratch):
    # a file left from an earlier run that would match is not read
    (scratch / "nowhere.json").write_text("{}")
    table = {
        "nowhere": {"sha": sorted_key_hash({}), "why": "writes another file",
                    "argv": ["separate", "--data", "xor.csv", "--out", "elsewhere.json"]},
        "refused": {"sha": sorted_key_hash({}), "why": "reads no dataset",
                    "argv": ["separate", "--data", "missing.csv", "--out", "refused.json"]},
    }
    assert run_pins(main, table) == ["nowhere: nowhere.json never written", "refused: exit 2"]


def test_the_benchmark_gates_on_the_seed_7_pin():
    # read as text, not imported: the benchmark's tree changes only on its own
    tree = ast.parse(BENCH_WORKLOADS.read_text())
    gates = [node.value.value for node in tree.body if isinstance(node, ast.Assign)
             and any(getattr(target, "id", None) == "DEMO_GATE_SHA" for target in node.targets)]
    assert gates == [PINS["demo_seed7"]["sha"]]
