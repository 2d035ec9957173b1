"""The benchmark's workloads: seeded inputs, the five op kinds and their
correctness gates.

Every workload runs the same closed-loop cycle of ops, one at a time in one
process: descend, verify, family, cells, demo.  The workloads differ only in
their inputs and sizes, chosen so that each one loads a different layer (see
README.md), and in how many times each op runs per cycle.  Each op returns the amount of work it did (draws or members)
and its elapsed seconds, which leave out the checks that cost more than a
comparison.  It raises `GateFailure` when an output fails its check; a
`SpurminError` from the package counts as a failed op in the same way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

import numpy as np

DEMO_GATE_SEED = 7
DEMO_GATE_SHA = "72bd84dce0aa9b61"  # sorted-key JSON sha256 prefix at seed 7
PROBE_RADIUS = 1e-4


class GateFailure(Exception):
    """An op's output failed its correctness check."""


def gate(ok: bool, what: str) -> None:
    if not ok:
        raise GateFailure(what)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_data: Callable  # (spurmin, seed) -> Dataset
    routes: tuple  # (stage, dims, activation) minimum/witness pairs
    corollary_dims: tuple | None  # abs-activation witness, or None
    probe_draws: int  # per minimum
    family_dims: tuple
    family_k: int
    cells_dims: tuple
    cells_steps: int  # valley-path steps per hidden unit
    # op kind -> runs per cycle (1 when absent): more samples of the short
    # ops where a long op sets the cycle's length
    repeats: dict = field(default_factory=dict)


def xor_data(sm, seed: int):
    """The 4-point XOR fixture; the seed only drives the ops' own seeds."""
    return sm.io.xor_dataset()


def wide_data(sm, seed: int, n: int = 5000):
    """x ~ N(0, I_8), y = sin(2 x1) + x2 x3: no ties, so the split is l' = 1."""
    rng = np.random.default_rng([seed, 1])
    X = rng.standard_normal((8, n))
    y = np.sin(2.0 * X[0]) + X[1] * X[2]
    return sm.Dataset(X, y[None, :])


def tied_data(sm, seed: int, per_level: int = 1000):
    """x1 in {0,1,2}, x2 = +-m with m in (0.1, 3): x2 is symmetric inside
    each level, so the affine fit ties within a level and the split is the
    first level boundary, l' = n/3."""
    rng = np.random.default_rng([seed, 2])
    x1, x2 = [], []
    for level in range(3):
        m = rng.uniform(0.1, 3.0, per_level // 2)
        x1.append(np.full(per_level, float(level)))
        x2.append(np.concatenate([m, -m]))
    x1, x2 = np.concatenate(x1), np.concatenate(x2)
    y = np.array([0.0, 1.0, 3.0])[x1.astype(int)] + 0.1 * x2 * x2
    return sm.Dataset(np.vstack([x1, x2]), y[None, :])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="demo_xor",
            why="4-point XOR fixture, widths <= 4: per-call overhead and the "
            "per-draw Mlp builds of the 500-draw probes; a kernel speed-up "
            "should read no change here",
            make_data=xor_data,
            routes=(
                ("1", (2, 3, 1), "relu"),
                ("2", (2, 3, 3, 1), "relu"),
                ("3", (2, 3, 3, 1), "threepiece"),
            ),
            corollary_dims=(2, 4, 1),
            probe_draws=500,
            family_dims=(2, 3, 3, 1),
            family_k=10,
            cells_dims=(2, 3, 1),
            cells_steps=10,
        ),
        Workload(
            name="wide_certify",
            why="n=5000 regression on 8,128,128,128,1: forward, activation "
            "and probe kernels dominate; the separation split is trivial "
            "(l'=1)",
            make_data=wide_data,
            routes=(
                ("2", (8, 128, 128, 128, 1), "relu"),
                ("3", (8, 128, 128, 128, 1), "threepiece"),
            ),
            corollary_dims=None,
            probe_draws=20,
            family_dims=(8, 128, 128, 128, 1),
            family_k=4,
            cells_dims=(8, 16, 1),
            cells_steps=4,
        ),
        Workload(
            name="tied_split",
            why="n=3000 with fits tied inside 3 groups: separate scans "
            "~2e6 cross-group pairs in Python; the only workload where "
            "lift_data gets real work",
            make_data=tied_data,
            routes=(("1", (2, 16, 1), "relu"),),
            corollary_dims=(2, 16, 1),
            probe_draws=100,
            family_dims=(2, 16, 1),
            family_k=40,
            cells_dims=(2, 16, 1),
            cells_steps=10,
            repeats={"verify": 2, "family": 4, "cells": 2, "demo": 4},
        ),
    )
}


def new_context(sm, workload: Workload, data, seed: int, tmpdir: Path):
    """Per-run state shared by the ops: inputs, seeds, and the minima the
    last descend op wrote for the verify op to read back."""
    rng = np.random.default_rng([seed, 0])
    return SimpleNamespace(
        sm=sm,
        w=workload,
        data=data,
        loss=sm.LossKind.SQUARED,
        rng=rng,
        tmpdir=tmpdir,
        pairs={},  # stage -> (minimum CertifiedPoint, pair json path)
        demo_seeds=(DEMO_GATE_SEED, *(int(s) for s in rng.integers(0, 2**31, 2))),
        demo_hashes={DEMO_GATE_SEED: DEMO_GATE_SHA},
        demo_count=0,
    )


def _op_seed(ctx) -> int:
    return int(ctx.rng.integers(0, 2**31))


def op_descend(ctx) -> tuple[int, float]:
    """Fit, then a minimum and a strictly better witness per route, each
    pair written through io.dump_json; plus the corollary abs witness."""
    sm, data, w = ctx.sm, ctx.data, ctx.w
    start = perf_counter()
    fit = sm.fit_linear(data, ctx.loss)
    for stage, dims, act_name in w.routes:
        act = sm.parse_activation(act_name)
        minimum = sm.build_minimum(fit, data, dims, act, stage=stage)
        witness = sm.build_descent(fit, data, dims, act, stage=stage)
        gate(abs(minimum.risk - fit.risk) <= 1e-9, f"route {stage}: risk != baseline")
        gate(minimum.risk - witness.risk > 1e-12, f"route {stage}: gap <= 1e-12")
        path = ctx.tmpdir / f"pair_{stage}.json"
        sm.io.dump_json({"minimum": minimum.as_dict(), "witness": witness.as_dict()}, path)
        ctx.pairs[stage] = (minimum, path)
    if w.corollary_dims is not None:
        witness = sm.build_descent(
            fit, data, w.corollary_dims, sm.absolute_value(), stage="corollary"
        )
        gate(fit.risk - witness.risk > 1e-12, "corollary: gap <= 1e-12")
        sm.io.dump_json({"witness": witness.as_dict()}, ctx.tmpdir / "corollary.json")
    return 1, perf_counter() - start


def op_verify(ctx) -> tuple[int, float]:
    """Read each minimum back from its JSON, probe it with seeded draws and
    check its hidden pre-activations stay inside the route's interval."""
    sm, data = ctx.sm, ctx.data
    gate(bool(ctx.pairs), "no minima to verify")
    seed = _op_seed(ctx)
    draws = 0
    start = perf_counter()
    for stage, (minimum, path) in ctx.pairs.items():
        saved = sm.io.load_json(path)["minimum"]
        net = sm.io.mlp_from_dict(saved["net"])
        gate(
            all(
                np.array_equal(a, b)
                for a, b in zip(net.weights + net.biases, minimum.net.weights + minimum.net.biases)
            ),
            f"route {stage}: JSON round trip changed the parameters",
        )
        cert = sm.perturbation_local_min_test(
            net, data, ctx.loss, radius=PROBE_RADIUS, samples=ctx.w.probe_draws, seed=seed
        )
        gate(cert.verdict, f"route {stage}: probe found a lower-risk draw")
        if stage == "3":
            tp = saved["params"]["turning"]
            lo, hi = tp["t"], tp["t"] + tp["sigma"]
        else:
            lo, hi = 0.0, np.inf
        interval = sm.trace_interval_check(sm.forward(net, data.X), lo, hi)
        gate(interval.verdict, f"route {stage}: pre-activation left ({lo}, {hi})")
        draws += ctx.w.probe_draws
    return draws, perf_counter() - start


def op_family(ctx) -> tuple[int, float]:
    """k members of the infinite minimum family, all at the baseline risk
    and pairwise distinct."""
    sm, data, w = ctx.sm, ctx.data, ctx.w
    seed = _op_seed(ctx)
    start = perf_counter()
    fit = sm.fit_linear(data, ctx.loss)
    family = sm.enumerate_family(fit, data, w.family_dims, sm.relu(), k=w.family_k, seed=seed)
    elapsed = perf_counter() - start
    gate(len(family) == w.family_k, "family: wrong member count")
    gate(max(abs(m.risk - fit.risk) for m in family) <= 1e-9, "family: risk != baseline")
    dist = min(
        sm.params_distance(a.net, b.net) for i, a in enumerate(family) for b in family[i + 1 :]
    )
    gate(dist > 1e-6, "family: members not distinct")
    return w.family_k, elapsed


def op_cells(ctx) -> tuple[int, float]:
    """Cell analysis of a route-1 minimum, then risk and pattern along a
    valley path to a seeded per-unit rescaling of it."""
    sm, data, cm = ctx.sm, ctx.data, ctx.sm.cells
    dims = ctx.w.cells_dims
    factors = ctx.rng.uniform(0.5, 2.0, dims[1])
    start = perf_counter()
    fit = sm.fit_linear(data, ctx.loss)
    base = sm.build_minimum(fit, data, dims, sm.relu(), stage="1")
    W1a, W2r, b2, Xa = cm.net_cell_inputs(base.net, data.X)
    sig = cm.activation_pattern(base.net, data.X)
    lifted = cm.lift_data(sig, Xa)
    q = cm.quotient_map(W1a, W2r)
    reform = cm.reformulated_risk(q, lifted, data.Y, ctx.loss, output_bias=b2)
    residual = cm.quotient_gradient_residual(q, lifted, data.Y, ctx.loss, output_bias=b2)
    cm.solve_cell_optimum(lifted, data.Y, output_bias=b2)
    gate(abs(reform - base.risk) <= 1e-12, "cells: reformulation delta > 1e-12")
    gate(residual <= 1e-8, "cells: quotient residual > 1e-8")

    path = cm.build_valley_path(
        (W1a, W2r), (W1a / factors[:, None], W2r * factors), steps_per_move=ctx.w.cells_steps
    )
    gate(len(path) == 1 + dims[1] * ctx.w.cells_steps, "cells: wrong path length")
    d_x = dims[0]
    dev, same = 0.0, True
    for W1, W2 in path:
        net = sm.Mlp(
            dims, (W1[:, :d_x], W2[None, :]), (W1[:, d_x], np.array([b2])), base.net.activation
        )
        dev = max(dev, abs(sm.empirical_risk(net, data, ctx.loss) - base.risk))
        same = same and cm.signatures_equal(sig, cm.activation_pattern(net, data.X))
    gate(dev <= 1e-10, "cells: path risk deviation > 1e-10")
    gate(same, "cells: pattern changed along the path")
    return 1, perf_counter() - start


def demo_hash(sm, report: dict) -> str:
    text = json.dumps(sm.io.to_jsonable(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def op_demo(ctx) -> tuple[int, float]:
    """`spurmin demo`: the whole pipeline on the XOR fixture.  Seed 7 must
    reproduce the pinned report hash; any other seed must reproduce its own
    first hash within the run."""
    seed = ctx.demo_seeds[ctx.demo_count % len(ctx.demo_seeds)]
    ctx.demo_count += 1
    start = perf_counter()
    report, ok, first_failure = ctx.sm.cli.run_demo(seed=seed, out=str(ctx.tmpdir / "demo.json"))
    elapsed = perf_counter() - start
    gate(ok, f"demo: check {first_failure} failed")
    digest = demo_hash(ctx.sm, report)
    gate(ctx.demo_hashes.setdefault(seed, digest) == digest, f"demo: report hash at seed {seed} changed")
    return 1, elapsed


OPS = {
    "descend": op_descend,
    "verify": op_verify,
    "family": op_family,
    "cells": op_cells,
    "demo": op_demo,
}
