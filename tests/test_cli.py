import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spurmin import Dataset, NonFiniteOutput, ParseError, SpurminError
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


# a valid (2,3,1) relu network file
NET_FILE = {
    "dims": [2, 3, 1],
    "weights": [[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[1.0, -1.0, 0.5]]],
    "biases": [[0.0, 0.5, -1.0], [0.0]],
    "activation": {"breakpoints": [0.0], "slopes": [0.0, 1.0], "anchor": 0.0},
}


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

    def test_dataset_csv_golden_bytes(self, tmp_path):
        # shortest round-trip reprs, signed zero, subnormals and the largest
        # magnitudes included, and the csv module's CRLF row ends
        data = Dataset(
            np.array([[-0.0, 5e-324, 1e308], [1e-310, 0.1, -1e308]]),
            np.array([[1.0 / 3.0, -2.5, 0.0]]),
        )
        path = tmp_path / "g.csv"
        save_dataset_csv(data, path)
        assert path.read_bytes() == (
            b"x1,x2,y1\r\n"
            b"-0.0,1e-310,0.3333333333333333\r\n"
            b"5e-324,0.1,-2.5\r\n"
            b"1e+308,-1e+308,0.0\r\n"
        )
        back = load_dataset_csv(path)
        assert back.X.tobytes() == data.X.tobytes() and back.Y.tobytes() == data.Y.tobytes()

    def test_dataset_csv_matches_per_value_repr(self, tmp_path):
        # reference: one row per sample, repr(float(v)) of each numpy scalar
        rng = np.random.default_rng(5)
        data = Dataset(rng.standard_normal((3, 50)) * 10.0 ** rng.integers(-300, 300, (3, 50)),
                       rng.standard_normal((2, 50)))
        path = tmp_path / "r.csv"
        save_dataset_csv(data, path)
        rows = [",".join(f"x{i + 1}" for i in range(3)) + ",y1,y2"]
        rows += [",".join(repr(float(v)) for v in (*data.X[:, j], *data.Y[:, j])) for j in range(50)]
        assert path.read_bytes() == "".join(r + "\r\n" for r in rows).encode()

    def test_mlp_json(self, xor, xor_fit, relu_act, tmp_path):
        from spurmin import build_minimum
        from spurmin.io import save_mlp

        net = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1").net
        path = tmp_path / "net.json"
        save_mlp(net, path)
        back = load_mlp(path)
        assert back.dims == net.dims
        for a, b in zip(back.weights, net.weights):
            assert np.array_equal(a, b)
        assert back.activation == net.activation

    def test_mlp_dict_roundtrip(self, xor, xor_fit, relu_act):
        from spurmin import build_minimum

        net = build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1").net
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

    @pytest.mark.parametrize("dims", ["2,4,4,1", "2,4,3,3,1"])
    def test_descend_balanced_at_depth(self, tmp_path, xor_csv, dims):
        # auto routes |x| to the balanced witness at every depth
        out = tmp_path / "pair.json"
        assert main(["descend", "--data", xor_csv, "--dims", dims, "--activation", "abs",
                     "--out", str(out)]) == 0
        pair = json.loads(out.read_text())
        assert pair["witness"]["stage"] == "corollary"
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

    def test_activation_from_a_json_file(self, tmp_path, xor_csv):
        act = tmp_path / "leaky.json"
        act.write_text('{"breakpoints": [0.0], "slopes": [0.25, 1.0], "anchor": 0.0}')
        out = tmp_path / "min.json"
        assert main(["construct", "--data", xor_csv, "--dims", "2,3,1",
                     "--activation", str(act), "--out", str(out)]) == 0
        point = json.loads(out.read_text())["points"][0]
        assert point["net"]["activation"]["slopes"] == [0.25, 1.0]

    def test_a_depth_1_pair_is_stage_1_on_either_two_piece_route(self, tmp_path, xor_csv):
        for stage in ("1", "2"):
            out = tmp_path / f"pair{stage}.json"
            assert main(["descend", "--data", xor_csv, "--stage", stage, "--dims", "2,3,1",
                         "--out", str(out)]) == 0
            pair = json.loads(out.read_text())
            assert (pair["minimum"]["stage"], pair["witness"]["stage"]) == ("1", "1")

    def test_cells_analyze(self, tmp_path, xor_csv):
        min_out = tmp_path / "min.json"
        main(["construct", "--data", xor_csv, "--stage", "1", "--dims", "2,3,1",
              "--activation", "relu", "--out", str(min_out)])
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(json.loads(min_out.read_text())["points"][0]["net"]))
        out = tmp_path / "cells.json"
        assert main(["cells", "--data", xor_csv, "--net", str(net_path),
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
        assert main(["path", "--data", xor_csv, "--a", str(a_path),
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

    @pytest.mark.parametrize("option", ["--out", "--cert-out"])
    def test_verify_writes_the_certificate_to_out(self, tmp_path, xor_csv, capsys, option):
        from spurmin import build_minimum, fit_linear, relu
        from spurmin.io import save_mlp

        xor = load_dataset_csv(xor_csv)
        net_path = tmp_path / "net.json"
        save_mlp(build_minimum(fit_linear(xor), xor, (2, 3, 1), relu(), stage="1").net, net_path)
        cert_out = tmp_path / "cert.json"
        assert main(["verify", "--data", xor_csv, "--net", str(net_path),
                     "--samples", "20", option, str(cert_out)]) == 0
        assert capsys.readouterr().out == ""
        cert = json.loads(cert_out.read_text())
        assert cert["verdict"] is True
        assert cert["config"]["out"] == str(cert_out)


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

    def test_path_between_differing_activations_is_precondition(self, tmp_path, xor_csv,
                                                                  capsys):
        from spurmin import build_minimum, fit_linear, relu
        from spurmin.io import save_mlp

        xor = load_dataset_csv(xor_csv)
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        save_mlp(build_minimum(fit_linear(xor), xor, (2, 3, 1), relu(), stage="1").net, a_path)
        leaky = json.loads(a_path.read_text())
        leaky["activation"]["slopes"] = [0.5, 1.0]
        b_path.write_text(json.dumps(leaky))
        out = tmp_path / "path.json"
        assert main(["path", "--data", xor_csv, "--a", str(a_path), "--b", str(b_path),
                     "--out", str(out)]) == 3
        assert "endpoints must share the activation" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("loss", ["squared", "ce"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_fit_bad_tol_is_precondition(self, tmp_path, loss, tol, capsys):
        data = tmp_path / "xor.csv"
        save_dataset_csv(Dataset(xor_dataset().X, np.array([[1.0, 0.0, 0.0, 1.0],
                                                            [0.0, 1.0, 1.0, 0.0]])), data)
        assert main(["fit", "--data", str(data), "--loss", loss, f"--tol={tol}"]) == 3
        assert "tol must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("to_file", [True, False])
    def test_verify_without_draws_is_precondition(self, tmp_path, xor_csv, capsys, to_file):
        from spurmin import build_minimum, fit_linear, relu
        from spurmin.io import save_mlp

        xor = load_dataset_csv(xor_csv)
        net_path = tmp_path / "net.json"
        save_mlp(build_minimum(fit_linear(xor), xor, (2, 3, 1), relu(), stage="1").net, net_path)
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
        from spurmin import build_minimum, fit_linear, relu
        from spurmin.io import save_mlp

        xor = load_dataset_csv(xor_csv)
        net_path = tmp_path / "net.json"
        save_mlp(build_minimum(fit_linear(xor), xor, (2, 3, 1), relu(), stage="1").net, net_path)
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

    def test_overflowing_squeeze_scale_exits_3_without_warnings(self, xor_csv):
        # run as a process, so that a numpy warning would reach stderr
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "spurmin.cli", "construct", "--data", xor_csv,
             "--dims", "2,3,1", "--activation",
             '{"breakpoints":[0,1],"slopes":[1.0,2.2250738585072014e-308,0],"anchor":0}'],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 3
        assert "float64 range" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

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
        from spurmin import build_minimum, fit_linear, relu

        xor = load_dataset_csv(xor_csv)
        net = mlp_to_dict(build_minimum(fit_linear(xor), xor, (2, 3, 1), relu(), stage="1").net)
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
        ["gen-data", "--spec", "blobs:x"],
        ["construct", "--activation", "leaky:abc"],
        ["construct", "--activation", '{"breakpoints": [0.0]}'],
        ["construct", "--activation", '{"breakpoints": [0.0], "slopes": ["a", 1.0]}'],
        ["construct", "--activation", '{"breakpoints": [0.0], "slopes": [1.0]}'],
    ])
    def test_malformed_spec_is_precondition(self, tmp_path, xor_csv, capsys, argv):
        if argv[0] == "construct":
            argv = argv + ["--data", xor_csv, "--dims", "2,3,1"]
        else:
            argv = argv + ["--out", str(tmp_path / "out.csv")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "precondition violated" in err and "Traceback" not in err

    @pytest.mark.parametrize("net", [
        {"dims": [2, 1, 1]},
        [1, 2],
        # fields that contradict each other, which the same activation
        # inline would end in exit 3
        {**NET_FILE, "activation": {"breakpoints": [0.0], "slopes": [1.0], "anchor": 0.0}},
        {**NET_FILE, "activation": {"breakpoints": [0.0], "slopes": [0, float("nan")],
                                    "anchor": 0.0}},
        {**NET_FILE, "activation": {"breakpoints": [1.0, 0.0], "slopes": [0, 1, 2],
                                    "anchor": 0.0}},
        {**NET_FILE, "biases": [[0.5], [0.0]]},
    ])
    def test_malformed_net_file_is_parse_error(self, tmp_path, xor_csv, capsys, net):
        mlp_from_dict(NET_FILE)  # the file before its edits loads
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net))
        assert main(["cells", "--data", xor_csv, "--net", str(net_path)]) == 2
        err = capsys.readouterr().err
        assert "parse error: malformed network" in err and "Traceback" not in err

    @pytest.mark.parametrize("entry", [3.5, 3.9, True, "3"])
    def test_net_file_dims_entry_that_is_not_an_integer_is_parse_error(self, tmp_path, xor_csv,
                                                                      capsys, entry):
        from spurmin import build_minimum, fit_linear, relu

        xor = load_dataset_csv(xor_csv)
        net = mlp_to_dict(build_minimum(fit_linear(xor), xor, (2, 3, 1), relu(), stage="1").net)
        net["dims"][1] = entry
        with pytest.raises(ParseError, match="is not an integer"):
            mlp_from_dict(net)
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net))
        assert main(["verify", "--data", xor_csv, "--net", str(net_path)]) == 2
        err = capsys.readouterr().err
        assert "parse error: malformed network" in err and "Traceback" not in err
        net["dims"][1] = 3
        assert mlp_from_dict(json.loads(json.dumps(net))).dims == (2, 3, 1)

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

    @pytest.mark.parametrize("k", ["-4", "0"])
    def test_construct_k_below_one_is_precondition(self, tmp_path, xor_csv, capsys, k):
        out = tmp_path / "points.json"
        assert main(["construct", "--data", xor_csv, "--dims", "2,3,1", "--k", k,
                     "--out", str(out)]) == 3
        assert "k must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_family_member_whose_alphas_underflow_is_precondition(self, tmp_path, xor_csv,
                                                                   capsys):
        # at depth 900 member 1's drawn alphas multiply to zero: refused as a
        # precondition, not a division by zero
        out = tmp_path / "points.json"
        dims = ",".join(["2", *["3"] * 900, "1"])
        assert main(["construct", "--data", xor_csv, "--dims", dims, "--k", "3",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "the alpha scales' product underflows to zero" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["1", "2", "corollary"])
    def test_family_on_a_two_piece_stage_is_precondition(self, xor_csv, capsys, stage):
        # the family is sampled on route 3 only, so --stage cannot pick another
        assert main(["construct", "--data", xor_csv, "--stage", stage, "--dims", "2,4,1",
                     "--k", "3"]) == 3
        assert "built on route 3" in capsys.readouterr().err

    def test_malformed_inline_activation_json_is_precondition(self, xor_csv, capsys):
        assert main(["construct", "--data", xor_csv, "--dims", "2,3,1",
                     "--activation", "{bad"]) == 3
        err = capsys.readouterr().err
        assert "precondition violated: malformed activation JSON" in err
        assert "Traceback" not in err

    def test_malformed_activation_file_is_io_error(self, tmp_path, xor_csv, capsys):
        act = tmp_path / "act.json"
        act.write_text("{bad")
        assert main(["construct", "--data", xor_csv, "--dims", "2,3,1",
                     "--activation", str(act)]) == 2
        assert "io error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["construct", "--dims", "2,3,1", "--activation", "BAD"],
        ["verify", "--net", "BAD"],
        ["cells", "--net", "BAD"],
        ["path", "--a", "BAD", "--b", "GOOD"],
        ["path", "--a", "GOOD", "--b", "BAD"],
    ])
    def test_malformed_json_file_error_names_the_file(
        self, tmp_path, xor_csv, xor, xor_fit, relu_act, capsys, argv
    ):
        from spurmin import build_minimum
        from spurmin.io import save_mlp

        bad, good = tmp_path / "malformed.json", tmp_path / "net.json"
        bad.write_text("{bad")
        save_mlp(build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1").net, good)
        files = {"BAD": str(bad), "GOOD": str(good)}
        assert main([files.get(a, a) for a in argv] + ["--data", xor_csv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"io error: {bad}: Expecting property name")
        assert "Traceback" not in err

    @pytest.mark.parametrize("dims, message", [
        ("2,x,1", "bad dims '2,x,1'"),
        ("2", "dims needs at least input and output widths"),
    ])
    def test_malformed_dims_is_precondition(self, xor_csv, capsys, dims, message):
        assert main(["construct", "--data", xor_csv, "--dims", dims]) == 3
        assert message in capsys.readouterr().err

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


class TestReportConfig:
    @pytest.fixture
    def net_json(self, tmp_path, xor, xor_fit, relu_act):
        from spurmin import build_minimum
        from spurmin.io import save_mlp

        path = tmp_path / "net.json"
        save_mlp(build_minimum(xor_fit, xor, (2, 3, 1), relu_act, stage="1").net, path)
        return str(path)

    @pytest.fixture
    def argvs(self, xor_csv, net_json, tmp_path):
        """A passing invocation of every subcommand that writes a JSON report."""
        return {
            "fit": ["fit", "--data", xor_csv],
            "construct": ["construct", "--data", xor_csv, "--dims", "2,3,1"],
            "descend": ["descend", "--data", xor_csv, "--dims", "2,3,1"],
            "verify": ["verify", "--data", xor_csv, "--net", net_json, "--samples", "20"],
            "separate": ["separate", "--data", xor_csv],
            "cells": ["cells", "--data", xor_csv, "--net", net_json],
            "path": ["path", "--data", xor_csv, "--a", net_json, "--b", net_json,
                     "--steps", "2", "--csv", str(tmp_path / "curve.csv")],
        }

    def _config(self, argv, capsys):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)["config"]

    @staticmethod
    def _dests(command):
        import argparse

        from spurmin.cli import build_parser

        (subparsers,) = [a for a in build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        return {a.dest for a in subparsers.choices[command]._actions if a.dest != "help"}

    @pytest.mark.parametrize(
        "command", ["fit", "construct", "descend", "verify", "separate", "cells", "path"]
    )
    def test_keys_are_the_subcommand_and_its_own_options(self, argvs, capsys, command):
        cfg = self._config(argvs[command], capsys)
        assert cfg["subcommand"] == command
        assert cfg.keys() == {"subcommand"} | self._dests(command)

    def test_reports_name_the_files_they_read(self, argvs, net_json, tmp_path, capsys):
        assert self._config(argvs["verify"], capsys)["net"] == net_json
        cfg = self._config(argvs["path"], capsys)
        assert (cfg["a"], cfg["b"], cfg["csv"]) == (net_json, net_json, str(tmp_path / "curve.csv"))

    @pytest.mark.parametrize("command, option", [
        *[(c, "--seed") for c in ("fit", "descend", "separate", "cells", "path")],
        *[(c, "--tol") for c in ("verify", "cells", "path")],
    ])
    def test_options_a_subcommand_does_not_read_are_usage_errors(self, argvs, command, option):
        with pytest.raises(SystemExit) as exc:
            main(argvs[command] + [option, "1"])
        assert exc.value.code == 2


class TestRoutesAgree:
    NEAR_CANCELLING = '{"breakpoints":[0],"slopes":[-1,1.000000000001],"anchor":0}'
    NARROW_PIECE = '{"breakpoints":[1.5,1.502],"slopes":[0.2,1,0.5],"anchor":0}'

    def test_near_cancelling_slopes_descend_on_stage_3(self, xor_csv, tmp_path, capsys):
        risks = {}
        for stage in ("auto", "3"):
            out = tmp_path / f"{stage}.json"
            assert main(["descend", "--data", xor_csv, "--dims", "2,4,1", "--stage", stage,
                         "--activation", self.NEAR_CANCELLING, "--out", str(out)]) == 0
            risks[stage] = json.loads(out.read_text())["witness"]["risk"]
        assert risks["3"] == pytest.approx(risks["auto"], abs=1e-12)
        assert main(["descend", "--data", xor_csv, "--dims", "2,4,1", "--stage", "corollary",
                     "--activation", self.NEAR_CANCELLING]) == 3
        assert "balanced route requires" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["construct", "descend"])
    def test_stage3_minimum_on_a_narrow_piece(self, xor_csv, tmp_path, command):
        out = tmp_path / "out.json"
        assert main([command, "--data", xor_csv, "--stage", "3", "--dims", "2,3,3,1",
                     "--activation", self.NARROW_PIECE, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        minimum = report["points"][0] if command == "construct" else report["minimum"]
        assert abs(minimum["risk"] - minimum["baseline_risk"]) <= 1e-9


class TestScaleChecks:
    def test_balanced_route_needs_a_finite_reciprocal_of_twice_s_plus(self, xor_csv, capsys):
        act = '{"breakpoints":[0],"slopes":[-1e308,1e308],"anchor":0}'
        assert main(["descend", "--data", xor_csv, "--dims", "2,4,1", "--activation", act]) == 3
        err = capsys.readouterr().err
        assert err.startswith("precondition violated: 2 * s_plus (right slope s_plus = 1e+308)")

    def test_path_build_flat_at_labels_times_1e3(self, tmp_path):
        from spurmin import Dataset, Mlp, build_minimum, fit_linear, relu
        from spurmin.io import save_mlp

        rng = np.random.default_rng(3)
        X = rng.standard_normal((2, 20))
        data = Dataset(X, 1e3 * (np.sin(2.0 * X[0]) + X[1] ** 2)[None, :])
        data_csv = tmp_path / "d.csv"
        save_dataset_csv(data, data_csv)
        net = build_minimum(fit_linear(data), data, (2, 3, 1), relu(), stage="1").net
        factors = np.array([2.0, 0.5, 3.0])
        far = Mlp(net.dims, (net.weights[0] / factors[:, None], net.weights[1] * factors),
                  (net.biases[0] / factors, net.biases[1]), net.activation)
        a_path, b_path, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "path.json"
        save_mlp(net, a_path)
        save_mlp(far, b_path)
        assert main(["path", "--data", str(data_csv), "--a", str(a_path),
                     "--b", str(b_path), "--steps", "10", "--out", str(out)]) == 0
        # risk_max_dev is rounding of a risk near 2.4e6 (4.7e-10 on x86-64),
        # flat relative to the risk
        res = json.loads(out.read_text())
        assert res["risk_flat"] and res["pattern_constant"]


class TestPathAtDepth:
    def test_path_build_on_route_2_endpoints(self, tmp_path, xor_csv):
        min_out = tmp_path / "min.json"
        main(["construct", "--data", xor_csv, "--stage", "2", "--dims", "2,3,3,1",
              "--activation", "relu", "--out", str(min_out)])
        net = mlp_from_dict(json.loads(min_out.read_text())["points"][0]["net"])
        W, b = [w.copy() for w in net.weights], [x.copy() for x in net.biases]
        c1, c2 = np.array([2.0, 0.5, 3.0]), np.array([0.25, 4.0, 1.5])
        W[0], b[0] = W[0] / c1[:, None], b[0] / c1
        W[1], b[1] = W[1] * c1 / c2[:, None], b[1] / c2
        W[2] = W[2] * c2
        a_path, b_path, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "path.json"
        dump_json(mlp_to_dict(net), a_path)
        dump_json(mlp_to_dict(type(net)(net.dims, W, b, net.activation)), b_path)
        assert main(["path", "--data", xor_csv, "--a", str(a_path),
                     "--b", str(b_path), "--steps", "5", "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["n_points"] == 31
        assert res["risk_flat"] and res["pattern_constant"]


SHARED_SPECS = ["relu", "leaky:0.2", '{"breakpoints":[0],"slopes":[1,0],"anchor":0}']


class TestDemoSharesItsWitnessInputs:
    """`run_demo` builds its four witnesses on one sample split and one
    shallow alpha search per activation, and reads its own fit for the
    assumption report; each witness is still its standalone build."""

    def test_split_search_and_fit_counts(self, monkeypatch):
        import spurmin.cli
        import spurmin.construction
        import spurmin.linear_fit

        calls = {"_split": 0, "admissible_constants": 0, "fit_linear": 0}

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy(spurmin.construction, "_split")
        spy(spurmin.construction, "admissible_constants")
        # every name the package calls the fit by
        for module in (spurmin.cli, spurmin.linear_fit):
            spy(module, "fit_linear")
        _, ok, _ = spurmin.cli.run_demo(seed=7)
        assert ok
        # one split; the searches of stage 1 (stage 2 lifts it), stage 3 and
        # the corollary; one fit
        assert calls == {"_split": 1, "admissible_constants": 3, "fit_linear": 1}

    @pytest.mark.parametrize("spec", SHARED_SPECS)
    def test_each_witness_equals_its_standalone_build(self, spec):
        from spurmin import build_descent, fit_linear, LossKind
        from spurmin.activations import parse_activation
        from spurmin.cli import _activation_arg, run_demo
        from spurmin.io import to_jsonable

        report, ok, _ = run_demo(seed=7, activation_spec=spec)
        assert ok
        data = xor_dataset()
        fit, act = fit_linear(data, LossKind.SQUARED), _activation_arg(spec)
        builds = {
            "1": ((2, 3, 1), act, "1"),
            "2": ((2, 3, 3, 1), act, "2"),
            "3": ((2, 3, 3, 1), parse_activation("threepiece"), "3"),
            "corollary": ((2, 4, 1), parse_activation("abs"), "corollary"),
        }
        for name, (dims, stage_act, stage) in builds.items():
            shown = (report["corollary"] if name == "corollary" else report["stages"][name])["witness"]
            alone = build_descent(fit, data, dims, stage_act, stage=stage).as_dict()
            assert (json.dumps(to_jsonable(shown), sort_keys=True)
                    == json.dumps(to_jsonable(alone), sort_keys=True)), name

    def test_first_failure_is_still_the_stage_1_witness(self, monkeypatch):
        # balanced slopes on route 1: the stage-1 minimum builds, then its
        # witness refuses them, before any split or later stage is built
        import traceback

        import spurmin.cli
        import spurmin.construction
        from spurmin import NoAdmissibleTurningPoint

        built, splits = [], []
        real_minimum, real_split = spurmin.cli.build_minimum, spurmin.construction._split
        monkeypatch.setattr(spurmin.cli, "build_minimum",
                            lambda *a, **k: built.append(k["stage"]) or real_minimum(*a, **k))
        monkeypatch.setattr(spurmin.construction, "_split",
                            lambda *a: splits.append(1) or real_split(*a))
        spec = '{"breakpoints":[0],"slopes":[-1,1],"anchor":0}'
        with pytest.raises(NoAdmissibleTurningPoint) as raised:
            spurmin.cli.run_demo(seed=7, activation_spec=spec)
        frames = [frame.name for frame in traceback.extract_tb(raised.value.__traceback__)]
        assert "_two_piece_descent" in frames
        assert built == ["1"] and splits == []
        assert main(["demo", "--activation", spec]) == 3
