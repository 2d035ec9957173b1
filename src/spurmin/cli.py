"""Command-line pipelines binding the modules together.

Subcommands: gen-data, fit, construct, descend, verify, cells, path,
separate, demo; each does one thing and takes options only.  Exit codes:
0 ok, 1 a check failed, 2 io/parse error, 3 precondition violated (an
input the checks refuse, such as `verify --radius 0`, whose probe would
compare the network with itself).

Every handler takes the parsed arguments and returns (payload, passed).
`main` is the one place that writes a payload: it adds the run's `config`
block, the subcommand and its parsed options (input paths included), and
writes the JSON to `--out`, or to stdout without one, then maps
passed to exit code 0 or 1.  gen-data and demo write their own files and
return (None, passed).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import cells as cellmod
from .activations import parse_activation
from .construction import (
    _split,
    _Witnesses,
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
    load_json,
    load_mlp,
    mlp_to_dict,
    save_dataset_csv,
    xor_dataset,
)
from .linear_fit import _assumptions, fit_linear
from .network import LossKind, Mlp, loss_gradient, per_sample_loss
from .verification import (
    _PROBE_RADIUS,
    _PROBE_SAMPLES,
    _probe_certificates,
    _risk_match,
    descent_gap_certificate,
    fd_gradient_check,
    perturbation_local_min_test,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_IO = 2
EXIT_PRECONDITION = 3


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise PreconditionViolated(f"bad dims {text!r}; expected e.g. 2,3,1") from None
    if len(dims) < 2:
        raise PreconditionViolated("dims needs at least input and output widths")
    return dims


def _activation_arg(spec: str):
    """A preset name, inline JSON or a .json file path.  Malformed inline
    JSON is a malformed spec (precondition); an unreadable or malformed file
    stays an io error, as a --net file is."""
    if spec.endswith(".json"):
        return parse_activation(load_json(spec))
    if spec.startswith("{"):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise PreconditionViolated(f"malformed activation JSON {spec!r} ({exc})") from None
    return parse_activation(spec)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_gen_data(args) -> tuple[None, bool]:
    data = gen_dataset(args.spec, seed=args.seed, check_assumption_flags=args.assumptions)
    save_dataset_csv(data, args.out)
    print(f"wrote {data.n} samples ({data.d_x} features, {data.d_y} labels) to {args.out}")
    return None, True


def cmd_fit(args) -> tuple[dict, bool]:
    data = load_dataset_csv(args.data)
    return fit_linear(data, LossKind(args.loss), tol=args.tol).as_dict(), True


def cmd_construct(args) -> tuple[dict, bool]:
    data = load_dataset_csv(args.data)
    act = _activation_arg(args.activation)
    dims = _parse_dims(args.dims)
    fit = fit_linear(data, LossKind(args.loss), tol=args.tol)
    if args.k == 1:
        points = [build_minimum(fit, data, dims, act, stage=args.stage)]
    elif args.k > 1 and args.stage not in ("auto", "3"):
        raise PreconditionViolated(
            f"--k {args.k} samples the family, which is built on route 3; got --stage {args.stage}"
        )
    else:
        points = enumerate_family(fit, data, dims, act, k=args.k, seed=args.seed)
    payload = {"points": [p.as_dict() for p in points]}
    if len(points) > 1:
        payload["min_pairwise_distance"] = min_pairwise_distance(points)
    return payload, True


def cmd_descend(args) -> tuple[dict, bool]:
    data = load_dataset_csv(args.data)
    act = _activation_arg(args.activation)
    dims = _parse_dims(args.dims)
    fit = fit_linear(data, LossKind(args.loss), tol=args.tol)
    minimum = build_minimum(fit, data, dims, act, stage=args.stage)
    witness = build_descent(fit, data, dims, act, stage=args.stage)
    gap = descent_gap_certificate(minimum.risk, witness.risk)
    payload = {
        "minimum": minimum.as_dict(),
        "witness": witness.as_dict(),
        "gap": gap.checks[0].value,
    }
    return payload, gap.verdict


def cmd_verify(args) -> tuple[dict, bool]:
    data = load_dataset_csv(args.data)
    net = load_mlp(args.net)
    cert = perturbation_local_min_test(
        net, data, LossKind(args.loss),
        radius=args.radius, samples=args.samples, seed=args.seed,
    )
    return cert.as_dict(), cert.verdict


def cmd_separate(args) -> tuple[dict, bool]:
    data = load_dataset_csv(args.data)
    _, _, res = _split(fit_linear(data, LossKind(args.loss), tol=args.tol), data)
    return res.as_dict(), True


def cmd_cells(args) -> tuple[dict, bool]:
    data = load_dataset_csv(args.data)
    net = load_mlp(args.net)
    return cellmod.analyze(net, data, LossKind(args.loss)), True


def cmd_path(args) -> tuple[dict, bool]:
    data = load_dataset_csv(args.data)
    valley = cellmod.walk_valley(
        load_mlp(args.a), load_mlp(args.b), data, LossKind(args.loss), steps_per_move=args.steps
    )
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("point,risk\n")
            for i, r in enumerate(valley["risks"]):
                fh.write(f"{i},{r!r}\n")
    return valley, valley["pattern_constant"] and valley["risk_flat"]


def cmd_demo(args) -> tuple[None, bool]:
    _, ok, first_failure = run_demo(
        seed=args.seed,
        out=args.out,
        activation_spec=args.activation,
        corollary_only=args.corollary,
    )
    if not ok:
        print(f"demo check failed: {first_failure}", file=sys.stderr)
    return None, ok


def run_demo(
    seed: int = 7,
    out: str | None = None,
    activation_spec: str = "relu",
    corollary_only: bool = False,
) -> tuple[dict, bool, str | None]:
    """The full pipeline on the 4-point fixture: fit, all construction routes,
    cell analysis, a valley path, and sampled certificates; returns the report
    plus the overall verdict and the first failing check's name.

    Every stage's minimum and witness are built first, in stage order, and
    the stage minima are then probed in one call, whose probes share one
    set of streams (a narrower network's stream is a prefix of the widest
    one's; see `verification`).  Each stage then records its risk match,
    descent gap, probe and interval checks, read from the one copy of each
    in `verification`, so the report is the one per-stage certificates
    give, byte for byte.

    The four witnesses (stages 1-3 and the corollary) are built through one
    `construction._Witnesses`, which lives only for this call: the sample
    split is made once, and one shallow alpha search runs per activation
    and one-hidden-layer dims, so stage 2's witness is stage 1's shallow
    witness lifted to depth.  Each witness equals its standalone
    `build_descent`, the one-witness case of the same path, and the build
    order, hence the first failure, is unchanged.  The assumption report
    reads this call's fit (`linear_fit._assumptions`)."""
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
    report["assumptions"] = _assumptions(data, (2, 3, 1), act, fit).as_dict()
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

    witnesses = _Witnesses(fit, data)
    built = [
        (stage, build_minimum(fit, data, dims, stage_act, stage=stage),
         witnesses.descent(dims, stage_act, stage=stage))
        for stage, dims, stage_act in stages
    ]
    minima, stage_reports = {stage: minimum for stage, minimum, _ in built}, {}
    probes = _probe_certificates(
        [m.net for _, m, _ in built], data, loss, _PROBE_RADIUS, _PROBE_SAMPLES, seed
    )
    for (stage, minimum, witness), probe in zip(built, probes):
        gap = descent_gap_certificate(minimum.risk, witness.risk)
        stage_reports[stage] = {
            "minimum": minimum.as_dict(),
            "witness": witness.as_dict(),
            "gap": gap.checks[0].value,
            "perturbation": probe.as_dict(),
            "interval": minimum.interval.as_dict(),
        }
        record(f"stage{stage}_risk_matches_baseline",
               _risk_match(minimum.risk, minimum.baseline_risk).passed)
        record(f"stage{stage}_gap_positive", gap.verdict)
        record(f"stage{stage}_local_min_sampled", probe.verdict)
        record(f"stage{stage}_trace_interval", minimum.interval.verdict)
    report["stages"] = stage_reports

    balanced_act = parse_activation("abs")
    balanced = witnesses.descent((2, 4, 1), balanced_act, stage="corollary")
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
        record("family_risks_match", all(_risk_match(m.risk, fit.risk).passed for m in family))

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
        record("valley_path_risk_invariant", valley["risk_flat"])
        record("valley_path_pattern_constant", valley["pattern_constant"])

        identity_act = parse_activation("identity")
        collapse = cellmod.linear_collapse_check(identity_act, data.X)
        relu_varies = not cellmod.linear_collapse_check(act, data.X)
        report["linear_collapse"] = {"identity_single_cell": collapse, "relu_varies": relu_varies}
        record("linear_collapse_identity", collapse)
        record("linear_collapse_relu_control", relu_varies)

        # loss gradient spot-checks against central differences
        rng = np.random.default_rng(seed)
        y = np.array([1.0, 0.0])
        pt = rng.standard_normal(2)
        fd_errors = {
            f"{kind.value}_fd_error": fd_gradient_check(
                lambda p: float(per_sample_loss(kind, y[:, None], p[:, None])[0]),
                lambda p: loss_gradient(kind, y[:, None], p[:, None])[:, 0],
                pt,
            )
            for kind in (LossKind.SQUARED, LossKind.CROSS_ENTROPY)
        }
        report["loss_checks"] = fd_errors
        record("loss_gradients_fd", max(fd_errors.values()) <= 1e-6)

    ok = all(passed for _, passed in checks)
    first_failure = next((name for name, passed in checks if not passed), None)
    report["checks"] = [{"name": n, "passed": p} for n, p in checks]
    report["ok"] = ok
    if out:
        dump_json(report, out)
    return report, ok, first_failure


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spurmin",
        description="Construct and certify spurious local minima of piecewise-linear networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, tol=False):
        """--data, --loss and --out, plus --seed and --tol where the
        subcommand reads them."""
        p.add_argument("--data", required=True, help="dataset CSV path")
        p.add_argument("--loss", choices=["squared", "ce"], default="squared")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if tol:
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
    common(p, tol=True)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("construct", help="build certified minima (k > 1 samples the family)")
    common(p, seed=True, tol=True)
    p.add_argument("--stage", choices=["auto", "1", "2", "3", "corollary"], default="auto")
    p.add_argument("--dims", required=True, help="comma list, e.g. 2,3,3,1")
    p.add_argument("--activation", default="relu")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("descend", help="build a minimum and its strictly better witness")
    common(p, tol=True)
    p.add_argument("--stage", choices=["auto", "1", "2", "3", "corollary"], default="auto")
    p.add_argument("--dims", required=True)
    p.add_argument("--activation", default="relu")
    p.set_defaults(fn=cmd_descend)

    p = sub.add_parser("verify", help="sampled local-minimality certificate for a network")
    common(p, seed=True)
    p.add_argument("--net", required=True, help="network JSON path")
    p.add_argument("--radius", type=float, default=_PROBE_RADIUS)
    p.add_argument("--samples", type=int, default=_PROBE_SAMPLES)
    p.add_argument("--cert-out", dest="out", help="alias of --out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("separate", help="debug: the separation backing the descent")
    common(p, tol=True)
    p.set_defaults(fn=cmd_separate)

    p = sub.add_parser("cells", help="activation-pattern cell analysis")
    common(p)
    p.add_argument("--net", required=True)
    p.set_defaults(fn=cmd_cells)

    p = sub.add_parser("path", help="risk-invariant valley path between two networks")
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
    """Run one subcommand: write its payload, with the run's config, to
    --out or stdout, and return its exit code."""
    args = build_parser().parse_args(argv)
    try:
        payload, passed = args.fn(args)
        if payload is not None:
            config = {"subcommand": args.command, **vars(args)}
            del config["command"], config["fn"]
            payload = {"config": config, **payload}
            if args.out:
                dump_json(payload, args.out)
            else:
                print(_json_text(payload))
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
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
