"""Command-line pipelines binding the modules together.

Subcommands: gen-data, fit, construct, descend, verify, cells, path,
separate, demo.  Exit codes: 0 ok, 1 a check failed, 2 io/parse error,
3 precondition violated.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import cells as cellmod
from .activations import parse_activation
from .construction import (
    build_descent,
    build_minimum,
    enumerate_family,
    min_pairwise_distance,
)
from .errors import ParseError, PreconditionViolated, SpurminError
from .io import (
    _json_text,
    dump_json,
    gen_dataset,
    load_dataset_csv,
    load_mlp,
    mlp_to_dict,
    save_dataset_csv,
    xor_dataset,
)
from .linear_fit import fit_linear, select_nonzero_residual_row, permute_fit_rows
from .network import LossKind, Mlp, check_assumptions
from .separation import separate
from .verification import (
    RISK_MATCH_TOL,
    Certificate,
    descent_gap_certificate,
    fd_gradient_check,
    perturbation_local_min_test,
    witness_pair_certificate,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_IO = 2
EXIT_PRECONDITION = 3


@dataclass
class RunConfig:
    """Invocation provenance serialized into every report."""

    subcommand: str
    data: str | None = None
    dims: str | None = None
    activation: str | None = None
    loss: str = "squared"
    seed: int = 0
    tol: float = 1e-8
    out: str | None = None
    stage: str = "auto"
    k: int = 1
    radius: float = 1e-4
    samples: int = 500
    steps: int = 10


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise PreconditionViolated(f"bad dims {text!r}; expected e.g. 2,3,1") from None
    if len(dims) < 2:
        raise PreconditionViolated("dims needs at least input and output widths")
    return dims


def _loss_kind(name: str) -> LossKind:
    return LossKind.SQUARED if name == "squared" else LossKind.CROSS_ENTROPY


def _emit(payload: dict, out: str | None) -> None:
    if out:
        dump_json(payload, out)
    else:
        print(_json_text(payload))


def _activation_arg(spec: str):
    if spec.endswith(".json"):
        return parse_activation(json.loads(Path(spec).read_text()))
    if spec.startswith("{"):
        return parse_activation(json.loads(spec))
    return parse_activation(spec)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_gen_data(args) -> int:
    data = gen_dataset(args.spec, seed=args.seed, check_assumption_flags=args.assumptions)
    save_dataset_csv(data, args.out)
    print(f"wrote {data.n} samples ({data.d_x} features, {data.d_y} labels) to {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    data = load_dataset_csv(args.data)
    fit = fit_linear(data, _loss_kind(args.loss), tol=args.tol)
    _emit({"config": asdict(_cfg(args)), **fit.as_dict()}, args.out)
    return EXIT_OK


def cmd_construct(args) -> int:
    data = load_dataset_csv(args.data)
    act = _activation_arg(args.activation)
    dims = _parse_dims(args.dims)
    fit = fit_linear(data, _loss_kind(args.loss), tol=args.tol)
    if args.k > 1:
        points = enumerate_family(fit, data, dims, act, k=args.k, seed=args.seed)
    else:
        points = [build_minimum(fit, data, dims, act, stage=args.stage)]
    payload = {
        "config": asdict(_cfg(args)),
        "points": [p.as_dict() for p in points],
    }
    if len(points) > 1:
        payload["min_pairwise_distance"] = min_pairwise_distance(points)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_descend(args) -> int:
    data = load_dataset_csv(args.data)
    act = _activation_arg(args.activation)
    dims = _parse_dims(args.dims)
    fit = fit_linear(data, _loss_kind(args.loss), tol=args.tol)
    minimum = build_minimum(fit, data, dims, act, stage=args.stage)
    witness = build_descent(fit, data, dims, act, stage=args.stage)
    gap = descent_gap_certificate(minimum.risk, witness.risk)
    payload = {
        "config": asdict(_cfg(args)),
        "minimum": minimum.as_dict(),
        "witness": witness.as_dict(),
        "gap": gap.checks[0].value,
    }
    _emit(payload, args.out)
    return EXIT_OK if gap.verdict else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    data = load_dataset_csv(args.data)
    net = load_mlp(args.net)
    cert = perturbation_local_min_test(
        net, data, _loss_kind(args.loss),
        radius=args.radius, samples=args.samples, seed=args.seed,
    )
    payload = {"config": asdict(_cfg(args)), **cert.as_dict()}
    _emit(payload, args.cert_out)
    return EXIT_OK if cert.verdict else EXIT_CHECK_FAILED


def cmd_separate(args) -> int:
    data = load_dataset_csv(args.data)
    fit = fit_linear(data, _loss_kind(args.loss), tol=args.tol)
    _, perm = select_nonzero_residual_row(fit, data)
    fitp, _ = permute_fit_rows(fit, data, perm)
    res = separate(fitp.v[0], fitp.y_tilde[0], data.X)
    _emit({"config": asdict(_cfg(args)), **res.as_dict()}, args.out)
    return EXIT_OK


def cmd_cells(args) -> int:
    if args.action != "analyze":
        raise PreconditionViolated(f"unknown cells action {args.action!r}")
    data = load_dataset_csv(args.data)
    net = load_mlp(args.net)
    payload = cellmod.analyze(net, data, _loss_kind(args.loss))
    _emit({"config": asdict(_cfg(args)), **payload}, args.out)
    return EXIT_OK


def cmd_path(args) -> int:
    if args.action != "build":
        raise PreconditionViolated(f"unknown path action {args.action!r}")
    data = load_dataset_csv(args.data)
    valley = cellmod.walk_valley(
        load_mlp(args.a), load_mlp(args.b), data, _loss_kind(args.loss), steps_per_move=args.steps
    )
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("point,risk\n")
            for i, r in enumerate(valley["risks"]):
                fh.write(f"{i},{r!r}\n")
    _emit({"config": asdict(_cfg(args)), **valley}, args.out)
    ok = valley["pattern_constant"] and valley["risk_max_dev"] <= 1e-10
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_demo(args) -> int:
    report, ok, first_failure = run_demo(
        seed=args.seed,
        out=args.out,
        activation_spec=args.activation,
        corollary_only=args.corollary,
    )
    if not ok:
        print(f"demo check failed: {first_failure}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def run_demo(
    seed: int = 7,
    out: str | None = None,
    activation_spec: str = "relu",
    corollary_only: bool = False,
) -> tuple[dict, bool, str | None]:
    """The full pipeline on the 4-point fixture: fit, all construction routes,
    cell analysis, a valley path, and sampled certificates; returns the report
    plus the overall verdict and the first failing check's name."""
    data = xor_dataset()
    loss = LossKind.SQUARED
    act = _activation_arg(activation_spec)
    checks: list[tuple[str, bool]] = []
    report: dict = {
        "config": {
            "subcommand": "demo",
            "seed": seed,
            "activation": activation_spec,
            "corollary": corollary_only,
        }
    }

    def record(name: str, passed: bool):
        checks.append((name, bool(passed)))

    fit = fit_linear(data, loss)
    report["assumptions"] = check_assumptions(data, (2, 3, 1), act, loss).as_dict()
    report["fit"] = fit.as_dict()
    record("fit_risk_positive", fit.risk > 0)

    if corollary_only:
        stages: list[tuple[str, tuple[int, ...], object]] = []
    else:
        three_piece_act = parse_activation("threepiece")
        stages = [
            ("1", (2, 3, 1), act),
            ("2", (2, 3, 3, 1), act),
            ("3", (2, 3, 3, 1), three_piece_act),
        ]

    stage_reports, minima = {}, {}
    for stage, dims, stage_act in stages:
        minimum = minima[stage] = build_minimum(fit, data, dims, stage_act, stage=stage)
        witness = build_descent(fit, data, dims, stage_act, stage=stage)
        pair = {
            c.name: c
            for c in witness_pair_certificate(minimum, witness, data, loss, seed=seed).checks
        }
        probe = Certificate("perturbation_local_min", (pair["min_risk_delta"],))
        stage_reports[stage] = {
            "minimum": minimum.as_dict(),
            "witness": witness.as_dict(),
            "gap": pair["descent_gap"].value,
            "perturbation": probe.as_dict(),
            "interval": minimum.interval.as_dict(),
        }
        record(f"stage{stage}_risk_matches_baseline", pair["minimum_matches_baseline"].passed)
        record(f"stage{stage}_gap_positive", pair["descent_gap"].passed)
        record(f"stage{stage}_local_min_sampled", probe.verdict)
        record(f"stage{stage}_trace_interval", minimum.interval.verdict)
    report["stages"] = stage_reports

    balanced_act = parse_activation("abs")
    balanced = build_descent(fit, data, (2, 4, 1), balanced_act, stage="corollary")
    gap = descent_gap_certificate(fit.risk, balanced.risk)
    report["corollary"] = {"witness": balanced.as_dict(), "gap": gap.checks[0].value}
    record("corollary_gap_positive", gap.verdict)

    if not corollary_only:
        family = enumerate_family(fit, data, (2, 3, 3, 1), act, k=10, seed=seed)
        min_dist = min_pairwise_distance(family)
        report["family"] = {
            "k": len(family),
            "risks": [m.risk for m in family],
            "min_pairwise_distance": min_dist,
        }
        record("family_distinct", min_dist > 1e-6)
        record(
            "family_risks_match",
            max(abs(m.risk - fit.risk) for m in family) <= RISK_MATCH_TOL,
        )

        s1_min = minima["1"]
        cells = cellmod.analyze(s1_min.net, data, loss)
        reform = cells["reformulated_risk"]
        residual = cells["quotient_gradient_residual"]
        report["cells"] = {
            "pattern_rle": cells["pattern_rle"],
            "reformulated_risk": reform,
            "reformulation_delta": abs(reform - s1_min.risk),
            "quotient_gradient_residual": residual,
        }
        record("cells_reformulation_identity", abs(reform - s1_min.risk) <= 1e-12)
        record("cells_quotient_residual", residual <= 1e-8)

        # valley path between two rescalings of the constructed minimum
        net, factors = s1_min.net, np.array([2.0, 0.5, 3.0])
        rescaled = Mlp(
            net.dims,
            (net.weights[0] / factors[:, None], net.weights[1] * factors),
            (net.biases[0] / factors, net.biases[1]),
            net.activation,
        )
        valley = cellmod.walk_valley(net, rescaled, data, loss, steps_per_move=10)
        report["valley_path"] = {
            key: valley[key] for key in ("n_points", "risk_max_dev", "pattern_constant")
        }
        record("valley_path_risk_invariant", valley["risk_max_dev"] <= 1e-10)
        record("valley_path_pattern_constant", valley["pattern_constant"])

        identity_act = parse_activation("identity")
        collapse = cellmod.linear_collapse_check(identity_act, data.X, 4, trials=50, seed=seed)
        relu_varies = not cellmod.linear_collapse_check(act, data.X, 4, trials=50, seed=seed)
        report["linear_collapse"] = {"identity_single_cell": collapse, "relu_varies": relu_varies}
        record("linear_collapse_identity", collapse)
        record("linear_collapse_relu_control", relu_varies)

        # loss gradient spot-checks against central differences
        rng = np.random.default_rng(seed)
        y = np.array([1.0, 0.0])
        pt = rng.standard_normal(2)
        from .network import loss_gradient, per_sample_loss

        sq_err = fd_gradient_check(
            lambda p: float(per_sample_loss(loss, y[:, None], p[:, None])[0]),
            lambda p: loss_gradient(loss, y[:, None], p[:, None])[:, 0],
            pt,
        )
        ce = LossKind.CROSS_ENTROPY
        ce_err = fd_gradient_check(
            lambda p: float(per_sample_loss(ce, y[:, None], p[:, None])[0]),
            lambda p: loss_gradient(ce, y[:, None], p[:, None])[:, 0],
            pt,
        )
        report["loss_checks"] = {"squared_fd_error": sq_err, "ce_fd_error": ce_err}
        record("loss_gradients_fd", max(sq_err, ce_err) <= 1e-6)

    ok = all(passed for _, passed in checks)
    first_failure = next((name for name, passed in checks if not passed), None)
    report["checks"] = [{"name": n, "passed": p} for n, p in checks]
    report["ok"] = ok
    if out:
        dump_json(report, out)
    return report, ok, first_failure


def _cfg(args) -> RunConfig:
    """The run's provenance: every RunConfig field the subcommand's parser
    set, the dataclass defaults for the rest."""
    given = vars(args).keys() & {f.name for f in fields(RunConfig)}
    return RunConfig(subcommand=args.command, **{name: getattr(args, name) for name in given})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spurmin",
        description="Construct and certify spurious local minima of piecewise-linear networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True):
        if data:
            p.add_argument("--data", required=True, help="dataset CSV path")
        p.add_argument("--loss", choices=["squared", "ce"], default="squared")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("gen-data", help="generate a dataset CSV")
    p.add_argument("--spec", default="xor", help="xor | blobs:<k> | linear")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--assumptions", action="store_true",
                   help="require linear inseparability and distinct samples")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("fit", help="fit the affine baseline")
    common(p)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("construct", help="build certified minima (k > 1 samples the family)")
    common(p)
    p.add_argument("--stage", choices=["auto", "1", "2", "3", "corollary"], default="auto")
    p.add_argument("--dims", required=True, help="comma list, e.g. 2,3,3,1")
    p.add_argument("--activation", default="relu")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("descend", help="build a minimum and its strictly better witness")
    common(p)
    p.add_argument("--stage", choices=["auto", "1", "2", "3", "corollary"], default="auto")
    p.add_argument("--dims", required=True)
    p.add_argument("--activation", default="relu")
    p.set_defaults(fn=cmd_descend)

    p = sub.add_parser("verify", help="sampled local-minimality certificate for a network")
    common(p)
    p.add_argument("--net", required=True, help="network JSON path")
    p.add_argument("--radius", type=float, default=1e-4)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--cert-out", dest="cert_out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("separate", help="debug: the separation backing the descent")
    common(p)
    p.set_defaults(fn=cmd_separate)

    p = sub.add_parser("cells", help="activation-pattern cell analysis")
    p.add_argument("action", choices=["analyze"])
    common(p)
    p.add_argument("--net", required=True)
    p.set_defaults(fn=cmd_cells)

    p = sub.add_parser("path", help="risk-invariant valley path between two networks")
    p.add_argument("action", choices=["build"])
    common(p)
    p.add_argument("--a", required=True, help="endpoint network JSON")
    p.add_argument("--b", required=True, help="endpoint network JSON")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--csv", default=None, help="also write a point,risk curve")
    p.set_defaults(fn=cmd_path)

    p = sub.add_parser("demo", help="full pipeline on the 4-point fixture")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None)
    p.add_argument("--activation", default="relu")
    p.add_argument("--corollary", action="store_true",
                   help="run only the balanced-slope route")
    p.set_defaults(fn=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PreconditionViolated as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SpurminError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (OSError, json.JSONDecodeError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
