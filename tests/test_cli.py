import json
import warnings

import numpy as np
import pytest

from spurmin import NonFiniteOutput, ParseError, SpurminError
from spurmin.cli import main
from spurmin.io import (
    dump_json,
    load_dataset_csv,
    load_mlp,
    mlp_from_dict,
    mlp_to_dict,
    rle_encode,
    save_dataset_csv,
    xor_dataset,
)


@pytest.fixture
def xor_csv(tmp_path):
    path = tmp_path / "xor.csv"
    save_dataset_csv(xor_dataset(), path)
    return str(path)


class TestIoRoundtrips:
    def test_dataset_csv(self, tmp_path, xor):
        path = tmp_path / "d.csv"
        save_dataset_csv(xor, path)
        back = load_dataset_csv(path)
        assert np.array_equal(back.X, xor.X)
        assert np.array_equal(back.Y, xor.Y)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,y1"

    def test_mlp_json(self, xor, xor_fit, relu_act, tmp_path):
        from spurmin import build_shallow_minimum
        from spurmin.io import save_mlp

        net = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act).net
        path = tmp_path / "net.json"
        save_mlp(net, path)
        back = load_mlp(path)
        assert back.dims == net.dims
        for a, b in zip(back.weights, net.weights):
            assert np.array_equal(a, b)
        assert back.activation == net.activation

    def test_mlp_dict_roundtrip(self, xor, xor_fit, relu_act):
        from spurmin import build_shallow_minimum

        net = build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act).net
        clone = mlp_from_dict(mlp_to_dict(net))
        assert clone.dims == net.dims

    def test_rle(self):
        assert rle_encode(np.array([[1.0, 1.0], [0.0, 0.0]])) == [[1.0, 2], [0.0, 2]]

    def test_dataset_csv_float_fidelity(self, tmp_path, rng):
        # repr round-trips doubles exactly
        from spurmin import Dataset

        data = Dataset(rng.standard_normal((3, 7)) * 1e3, rng.standard_normal((2, 7)) * 1e-7)
        path = tmp_path / "f.csv"
        save_dataset_csv(data, path)
        back = load_dataset_csv(path)
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.Y, data.Y)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf])
    def test_dump_json_rejects_non_finite(self, tmp_path, bad):
        path = tmp_path / "r.json"
        with pytest.raises(NonFiniteOutput) as info:
            dump_json({"value": [1.0, bad]}, path)
        assert isinstance(info.value, SpurminError)
        assert not path.exists()


class TestSubcommands:
    def test_gen_fit_construct_verify(self, tmp_path, xor_csv):
        fit_out = tmp_path / "fit.json"
        assert main(["fit", "--data", xor_csv, "--out", str(fit_out)]) == 0
        fit = json.loads(fit_out.read_text())
        assert abs(fit["risk"] - 0.125) <= 1e-9
        assert np.allclose(fit["w_tilde"], [[0.0, 0.0, 0.5]], atol=1e-9)

        min_out = tmp_path / "min.json"
        assert main([
            "construct", "--data", xor_csv, "--stage", "1",
            "--dims", "2,3,1", "--activation", "relu", "--out", str(min_out),
        ]) == 0
        point = json.loads(min_out.read_text())["points"][0]
        assert abs(point["risk"] - 0.125) <= 1e-9

        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(point["net"]))
        cert_out = tmp_path / "cert.json"
        assert main([
            "verify", "--data", xor_csv, "--net", str(net_path),
            "--radius", "1e-4", "--samples", "100", "--seed", "7",
            "--cert-out", str(cert_out),
        ]) == 0
        assert json.loads(cert_out.read_text())["verdict"] is True

    def test_gen_data_assumptions(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["gen-data", "--spec", "xor", "--assumptions", "--out", str(out)]) == 0
        data = load_dataset_csv(out)
        assert data.n == 4
        # exactly affine labels cannot satisfy the assumption flags
        bad = tmp_path / "lin.csv"
        assert main(["gen-data", "--spec", "linear", "--assumptions", "--out", str(bad)]) == 3

    def test_gen_data_blobs(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["gen-data", "--spec", "blobs:3", "--seed", "2", "--out", str(out)]) == 0
        data = load_dataset_csv(out)
        assert data.n == 15 and data.distinct_columns()

    def test_descend_all_stages(self, tmp_path, xor_csv):
        for stage, dims, act in [
            ("1", "2,3,1", "relu"),
            ("2", "2,3,3,1", "relu"),
            ("3", "2,3,3,1", "threepiece"),
            ("corollary", "2,4,1", "abs"),
        ]:
            out = tmp_path / f"pair{stage}.json"
            code = main([
                "descend", "--data", xor_csv, "--stage", stage,
                "--dims", dims, "--activation", act, "--out", str(out),
            ])
            assert code == 0, stage
            pair = json.loads(out.read_text())
            assert pair["gap"] > 1e-12

    def test_family_construct(self, tmp_path, xor_csv):
        out = tmp_path / "fam.json"
        assert main([
            "construct", "--data", xor_csv, "--stage", "3", "--dims", "2,3,3,1",
            "--activation", "relu", "--k", "10", "--seed", "7", "--out", str(out),
        ]) == 0
        fam = json.loads(out.read_text())
        assert len(fam["points"]) == 10
        assert fam["min_pairwise_distance"] > 1e-6
        for p in fam["points"]:
            assert abs(p["risk"] - 0.125) <= 1e-9

    def test_cells_analyze(self, tmp_path, xor_csv):
        min_out = tmp_path / "min.json"
        main(["construct", "--data", xor_csv, "--stage", "1", "--dims", "2,3,1",
              "--activation", "relu", "--out", str(min_out)])
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(json.loads(min_out.read_text())["points"][0]["net"]))
        out = tmp_path / "cells.json"
        assert main(["cells", "analyze", "--data", xor_csv, "--net", str(net_path),
                     "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["interior"] is True
        assert res["quotient_gradient_residual"] <= 1e-8
        assert abs(res["reformulated_risk"] - res["risk"]) <= 1e-12
        assert res["pattern_rle"] == [[[1.0, 12]]]

    def test_path_build(self, tmp_path, xor_csv):
        min_out = tmp_path / "min.json"
        main(["construct", "--data", xor_csv, "--stage", "1", "--dims", "2,3,1",
              "--activation", "relu", "--out", str(min_out)])
        net = json.loads(min_out.read_text())["points"][0]["net"]
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        a_path.write_text(json.dumps(net))
        rescaled = json.loads(json.dumps(net))
        for i, c in enumerate([2.0, 0.5, 3.0]):
            rescaled["weights"][0][i] = [w / c for w in rescaled["weights"][0][i]]
            rescaled["biases"][0][i] /= c
            rescaled["weights"][1][0][i] *= c
        b_path.write_text(json.dumps(rescaled))
        out = tmp_path / "path.json"
        csv_out = tmp_path / "curve.csv"
        assert main(["path", "build", "--data", xor_csv, "--a", str(a_path),
                     "--b", str(b_path), "--steps", "10",
                     "--csv", str(csv_out), "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["n_points"] == 31
        assert res["risk_max_dev"] <= 1e-10
        assert res["pattern_constant"] is True
        assert csv_out.read_text().startswith("point,risk\n0,")

    def test_separate_debug(self, xor_csv, capsys):
        assert main(["separate", "--data", xor_csv]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["l_prime"] == 1 and out["beta"] == [1.0, 1.0]


class TestExitCodes:
    def test_corrupt_csv_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,y1\n1,2,huh\n")
        assert main(["fit", "--data", str(bad)]) == 2

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["fit", "--data", str(tmp_path / "nope.csv")]) == 2

    def test_missing_header_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert main(["fit", "--data", str(bad)]) == 2

    def test_width_violation_is_precondition(self, xor_csv):
        assert main(["descend", "--data", xor_csv, "--stage", "corollary",
                     "--dims", "2,2,1", "--activation", "abs"]) == 3

    @pytest.mark.parametrize("to_file", [True, False])
    def test_verify_without_draws_is_precondition(self, tmp_path, xor_csv, capsys, to_file):
        from spurmin import build_shallow_minimum, fit_linear, relu
        from spurmin.io import save_mlp

        xor = load_dataset_csv(xor_csv)
        net_path = tmp_path / "net.json"
        save_mlp(build_shallow_minimum(fit_linear(xor), xor, (2, 3, 1), relu()).net, net_path)
        cert_out = tmp_path / "cert.json"
        argv = ["verify", "--data", xor_csv, "--net", str(net_path), "--samples", "0"]
        if to_file:
            argv += ["--cert-out", str(cert_out)]
        assert main(argv) == 3
        assert not cert_out.exists()
        captured = capsys.readouterr()
        assert "Infinity" not in captured.out + captured.err

    @pytest.mark.parametrize("radius", ["nan", "inf", "-1e-4"])
    def test_verify_bad_radius_is_precondition(self, tmp_path, xor_csv, capsys, radius):
        from spurmin import build_shallow_minimum, fit_linear, relu
        from spurmin.io import save_mlp

        xor = load_dataset_csv(xor_csv)
        net_path = tmp_path / "net.json"
        save_mlp(build_shallow_minimum(fit_linear(xor), xor, (2, 3, 1), relu()).net, net_path)
        cert_out = tmp_path / "cert.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any draw runs
            code = main(["verify", "--data", xor_csv, "--net", str(net_path),
                         f"--radius={radius}", "--cert-out", str(cert_out)])
        assert code == 3
        assert not cert_out.exists()
        assert "radius must be finite and nonnegative" in capsys.readouterr().err

    def test_linear_two_piece_activation_is_precondition(self, xor_csv, capsys):
        linear = '{"breakpoints": [0], "slopes": [1, 1], "anchor": 0}'
        assert main(["construct", "--data", xor_csv, "--dims", "2,3,1",
                     "--activation", linear]) == 3
        assert "nonlinear" in capsys.readouterr().err

    @pytest.mark.parametrize("dims, activation", [
        ("2,2,2,1", '{"breakpoints":[0],"slopes":[5e-324,0],"anchor":0}'),
        ("2,3,3,1", '{"breakpoints":[0,1],"slopes":[0.2,5e-324,0],"anchor":0}'),
    ])
    def test_subnormal_slope_is_precondition(self, xor_csv, capsys, dims, activation):
        # rejected before any formula divides by the slope, so numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["construct", "--data", xor_csv, "--dims", dims,
                         "--activation", activation])
        err = capsys.readouterr().err
        assert code == 3
        assert "precondition violated" in err and "5e-324" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_csv_cell_is_parse_error(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"x1,x2,y1\n0,0,0\n0,1,1\n1,0,{cell}\n1,1,0\n")
        with pytest.raises(ParseError, match="column 'y1' of sample 3"):
            load_dataset_csv(bad)
        assert main(["descend", "--data", str(bad), "--dims", "2,3,1"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_ragged_csv_row_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,y1\n0,0,0\n0,1\n1,0,1\n")
        with pytest.raises(ParseError, match="sample 2 has 2 cells but the header has 3"):
            load_dataset_csv(bad)
        assert main(["fit", "--data", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err and "Traceback" not in err

    def test_non_finite_net_weight_is_parse_error(self, tmp_path, xor_csv, capsys):
        from spurmin import build_shallow_minimum, fit_linear, relu

        xor = load_dataset_csv(xor_csv)
        net = mlp_to_dict(build_shallow_minimum(fit_linear(xor), xor, (2, 3, 1), relu()).net)
        net["weights"][1][0][2] = float("nan")
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net))  # json writes the NaN literal
        with pytest.raises(ParseError, match=r"weights\[1\]"):
            mlp_from_dict(json.loads(net_path.read_text()))
        cert_out = tmp_path / "cert.json"
        assert main(["verify", "--data", xor_csv, "--net", str(net_path),
                     "--cert-out", str(cert_out)]) == 2
        assert not cert_out.exists()

    @pytest.mark.parametrize("argv", [
        ["demo", "--seed", "-1"],
        ["construct", "--stage", "3", "--dims", "2,3,3,1", "--k", "3", "--seed", "-1"],
        ["gen-data", "--spec", "blobs:3", "--seed", "-1"],
        ["gen-data", "--spec", "linear", "--seed", "-1"],
    ])
    def test_negative_seed_is_precondition(self, tmp_path, xor_csv, capsys, argv):
        if argv[0] == "construct":
            argv = argv + ["--data", xor_csv]
        elif argv[0] == "gen-data":
            argv = argv + ["--out", str(tmp_path / "out.csv")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "seed must be at least 0" in err and "Traceback" not in err

    def test_abs_without_corollary_is_precondition(self):
        assert main(["demo", "--activation", "abs"]) == 3

    def test_abs_with_corollary_ok(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["demo", "--activation", "abs", "--corollary", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"] is True


class TestDemo:
    def test_demo_passes_and_reports(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["demo", "--seed", "7", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert abs(report["fit"]["risk"] - 0.125) <= 1e-9
        for stage in ("1", "2", "3"):
            assert report["stages"][stage]["gap"] > 1e-12
        assert report["corollary"]["gap"] > 1e-12

    def test_demo_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["demo", "--seed", "7", "--out", str(a)]) == 0
        assert main(["demo", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_report_validates_against_shipped_schema(self, tmp_path):
        from spurmin.io import validate_report

        out = tmp_path / "report.json"
        assert main(["demo", "--seed", "3", "--out", str(out)]) == 0
        assert validate_report(json.loads(out.read_text())) == []

    def test_schema_catches_missing_keys(self):
        from spurmin.io import validate_report

        errs = validate_report({"config": {"subcommand": "demo", "seed": 1}})
        assert any("missing required" in e for e in errs)

    def test_report_hash_pinned(self):
        # the sorted-key JSON sha256 prefix of the seed-7 report; any change
        # to a number in the pipeline's output moves it
        import hashlib

        from spurmin.cli import run_demo
        from spurmin.io import to_jsonable

        report, ok, _ = run_demo(seed=7)
        text = json.dumps(to_jsonable(report), sort_keys=True)
        assert ok
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "72bd84dce0aa9b61"

    @pytest.mark.parametrize("slopes", ["[1,0]", "[-1,0]", "[0.5,0]"])
    def test_demo_with_reflected_activation(self, slopes):
        # a zero right slope builds every route in the mirrored frame, so the
        # minima sit left of the breakpoint
        from spurmin.cli import run_demo

        spec = '{"breakpoints":[0],"slopes":%s,"anchor":0}' % slopes
        report, ok, first_failure = run_demo(seed=7, activation_spec=spec)
        assert ok, first_failure
        assert all(c["passed"] for c in report["checks"])
        assert main(["demo", "--activation", spec]) == 0

    def test_config_roundtrips_byte_identically(self, tmp_path):
        out = tmp_path / "report.json"
        main(["demo", "--seed", "3", "--out", str(out)])
        cfg = json.loads(out.read_text())["config"]
        once = json.dumps(cfg, sort_keys=True)
        assert json.dumps(json.loads(once), sort_keys=True) == once


class TestRunConfig:
    DEFAULTS = {
        "data": None, "dims": None, "activation": None, "loss": "squared", "seed": 0,
        "tol": 1e-8, "out": None, "stage": "auto", "k": 1, "radius": 1e-4,
        "samples": 500, "steps": 10,
    }

    @pytest.fixture
    def net_json(self, tmp_path, xor, xor_fit, relu_act):
        from spurmin import build_shallow_minimum
        from spurmin.io import save_mlp

        path = tmp_path / "net.json"
        save_mlp(build_shallow_minimum(xor_fit, xor, (2, 3, 1), relu_act).net, path)
        return str(path)

    def _config(self, argv, capsys):
        main(argv)
        return json.loads(capsys.readouterr().out)["config"]

    def test_descend(self, xor_csv, capsys):
        cfg = self._config(["descend", "--data", xor_csv, "--dims", "2,3,1", "--seed", "4"], capsys)
        assert cfg == {**self.DEFAULTS, "subcommand": "descend", "data": xor_csv,
                       "dims": "2,3,1", "activation": "relu", "seed": 4}

    def test_verify(self, xor_csv, net_json, capsys):
        cfg = self._config(["verify", "--data", xor_csv, "--net", net_json,
                            "--samples", "20", "--radius", "1e-3"], capsys)
        assert cfg == {**self.DEFAULTS, "subcommand": "verify", "data": xor_csv,
                       "samples": 20, "radius": 1e-3}

    def test_cells_analyze(self, xor_csv, net_json, capsys):
        cfg = self._config(["cells", "analyze", "--data", xor_csv, "--net", net_json,
                            "--loss", "squared", "--tol", "1e-6"], capsys)
        assert cfg == {**self.DEFAULTS, "subcommand": "cells", "data": xor_csv, "tol": 1e-6}
