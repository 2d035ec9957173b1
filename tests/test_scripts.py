import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_valley_path_curve_writes_a_flat_curve(tmp_path, monkeypatch, capsys):
    out = tmp_path / "curve.csv"
    monkeypatch.setattr(sys, "argv", ["valley_path_curve.py", "--out", str(out)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "valley_path_curve.py"), run_name="__main__")
    assert exit_info.value.code == 0
    assert "31 path points" in capsys.readouterr().out
    header, *rows = out.read_text().splitlines()
    assert header == "point,risk"
    points = [int(row.split(",")[0]) for row in rows]
    risks = [float(row.split(",")[1]) for row in rows]
    assert points == list(range(31))
    assert max(abs(r - risks[0]) for r in risks) <= 1e-10
