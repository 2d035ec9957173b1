"""spurmin benchmark: one closed-loop client in one process.

    python3 bench/run.py --workload demo_xor --seed 1 --seconds 50 --trace 0

Run from the repository root.  The package is imported from ./src, never
from an installed copy.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run plus the tracing overhead.  The line before it holds the details:
tail percentiles, sample counts, unscaled medians, the host's slowdown,
ops_failed_ratio with its base, and the environment.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11

# The shared hosts this runs on change speed by up to ~60% for minutes at a
# time, and all code slows alike.  So a fixed piece of work that does not
# use spurmin, `reference_seconds`, is timed before every set-up and every
# op, and the run's times are rescaled to a host where the median of those
# reference times is REFERENCE_S (roughly its time on a lightly loaded
# 2-core Intel Xeon virtual machine).
REFERENCE_S = 0.005
REFERENCE_ROUNDS = 300

# glibc malloc constants (malloc.h)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3

# end-to-end metric -> (op kind, "time" or "rate", unit)
OP_METRICS = {
    "demo_s": ("demo", "time", "s"),
    "descend_s": ("descend", "time", "s"),
    "verify_draws_per_s": ("verify", "rate", "1/s"),
    "family_members_per_s": ("family", "rate", "1/s"),
    "cells_s": ("cells", "time", "s"),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def tail(values: list[float], lower_is_better: bool) -> dict:
    """The most extreme percentile, on the worse side, with at least ten
    samples beyond it; the worst sample when there are fewer than twenty."""
    ranked = sorted(values, reverse=not lower_is_better)
    n = len(ranked)
    for permille in (999, 990, 900, 750, 500):
        rank = -(-permille * n // 1000)  # nearest-rank percentile, 1-based
        if n - rank >= 10:
            return {"p": permille / 10, "value": ranked[rank - 1]}
    return {"p": 100.0, "value": ranked[-1]}


def summary(values: list[float], lower_is_better: bool) -> dict:
    return {
        "median": statistics.median(values),
        "tail": tail(values, lower_is_better),
        "count": len(values),
    }


def reference_seconds() -> float:
    """Time of a fixed mix of small numpy ops and Python-level loops, the
    two kinds of work that spurmin's ops are made of."""
    import numpy as np

    start = perf_counter()
    W = np.linspace(-1.0, 1.0, 64).reshape(16, 4)
    X = np.linspace(-3.0, 3.0, 1024).reshape(4, 256)
    for _ in range(REFERENCE_ROUNDS):
        np.maximum(W @ X, 0.0).sum()
        max(b - a for a, b in [(j, 0.5 * j) for j in range(40)])
    return perf_counter() - start


def fix_malloc_thresholds() -> None:
    """Keep freed memory in the heap.  By default glibc moves its mmap and
    trim thresholds as blocks are freed, so the same op on the same inputs
    either reuses heap pages or returns and faults them in again, depending
    on what ran before it: the tied_split cells op took 0.4 s or, with
    ~200 000 page faults, 0.9 s."""
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, 32 << 20)  # glibc's largest allowed value
        mallopt(M_TRIM_THRESHOLD, 1 << 30)


def blas_threads():
    """Thread count reported by the OpenBLAS loaded into this process, or
    None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment(np) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "cpu": cpu,
    }


def import_spurmin():
    """Fresh import of spurmin (and its CLI module) from ./src."""
    for name in [m for m in sys.modules if m == "spurmin" or m.startswith("spurmin.")]:
        del sys.modules[name]
    sm = importlib.import_module("spurmin")
    importlib.import_module("spurmin.cli")
    if not Path(sm.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: spurmin imported from {sm.__file__}, not from {SRC}")
    return sm


def setup(workload, seed: int, tmpdir: Path):
    """Import spurmin, generate the inputs and round-trip them through the
    dataset CSV; timed SETUP_REPEATS times, the last import is kept.  The
    reference work is timed before each set-up."""
    times, references = [], []
    for _ in range(SETUP_REPEATS):
        references.append(reference_seconds())
        start = perf_counter()
        sm = import_spurmin()
        data = workload.make_data(sm, seed)
        path = tmpdir / "data.csv"
        sm.io.save_dataset_csv(data, path)
        loaded = sm.io.load_dataset_csv(path)
        times.append(perf_counter() - start)
        for a, b in ((loaded.X, data.X), (loaded.Y, data.Y)):
            if a.shape != b.shape or not (a == b).all():
                sys.exit("bench: the dataset CSV round trip changed the data")
    return sm, data, times, references


class Loop:
    """Closed loop over the op cycle; one sample list per op kind.  Given a
    `references` list, it times the reference work before each op into it."""

    def __init__(self, ctx, ops, tracer=None, references=None):
        self.ctx, self.ops, self.tracer = ctx, ops, tracer
        self.samples = {kind: [] for kind in ops}  # (work amount, seconds)
        self.references = references
        self.cycle_walls: list[float] = []
        self.attempted = 0
        self.failed = 0

    def cycle(self) -> None:
        uninstall = tracing.install(self.tracer) if self.tracer is not None else None
        try:
            start = perf_counter()
            for kind, op in self.ops.items():
                if self.tracer is not None:
                    self.tracer.op = (len(self.cycle_walls), kind)
                    op = self.tracer.span(f"op.{kind}", op)
                for _ in range(self.ctx.w.repeats.get(kind, 1)):
                    self.run(kind, op)
            self.cycle_walls.append(perf_counter() - start)
        finally:
            if uninstall is not None:
                uninstall()

    def run(self, kind, op) -> None:
        # Garbage left by earlier ops is collected here, not in whichever
        # op happens to cross the collector's threshold.
        gc.collect()
        if self.references is not None:
            self.references.append(reference_seconds())
        self.attempted += 1
        try:
            amount, seconds = op(self.ctx)
        except Exception:  # a failed op is counted, reported and never skipped
            self.failed += 1
            print(f"bench: op {kind} failed", file=sys.stderr)
            traceback.print_exc()
            return
        self.samples[kind].append((amount, seconds))


def alternate(loops, seconds: float) -> None:
    """One cycle of each loop in turn, until `seconds` have passed (at least
    one round).  Alternating exposes traced and untraced cycles to the same
    interference."""
    deadline = perf_counter() + seconds
    while True:
        for loop in loops:
            loop.cycle()
        if perf_counter() >= deadline:
            return


def end_to_end(loop: Loop, setup_times, setup_references) -> tuple[dict, dict]:
    """Each metric is the median of its samples in the run, rescaled by the
    host's speed in that phase (set-up or loop); its tail percentile, sample
    count and unscaled median go to the details."""
    slowdown = {  # > 1 on a slower host
        "setup": statistics.median(setup_references) / REFERENCE_S,
        "loop": statistics.median(loop.references) / REFERENCE_S,
    }
    series = {"setup_s": ("time", "s", setup_times, "setup")}
    for name, (kind, how, unit) in OP_METRICS.items():
        samples = loop.samples[kind]
        if not samples:
            sys.exit(f"bench: no successful {kind} op, so no {name}")
        unscaled = [s if how == "time" else a / s for a, s in samples]
        series[name] = (how, unit, unscaled, "loop")
    details, metrics = {"host_slowdown": slowdown}, {}
    for name, (how, unit, unscaled, phase) in series.items():
        k = slowdown[phase]
        values = [v / k if how == "time" else v * k for v in unscaled]
        details[name] = summary(values, lower_is_better=how == "time")
        details[name]["unscaled_median"] = statistics.median(unscaled)
        metrics[name] = {"value": details[name]["median"], "unit": unit}
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One client on one core: a multi-threaded BLAS call would wait on the
    # other cores, which other processes share, and its time would follow theirs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    fix_malloc_thresholds()
    if not (SRC / "spurmin" / "__init__.py").is_file():
        sys.exit(f"bench: no spurmin sources under {SRC}")
    sys.path.insert(0, str(SRC))

    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        tmpdir = Path(tmp)
        sm, data, setup_times, setup_references = setup(workload, args.seed, tmpdir)
        ctx = workloads.new_context(sm, workload, data, args.seed, tmpdir)
        if args.trace:
            loop = Loop(ctx, workloads.OPS)
            warm = Loop(ctx, workloads.OPS)
            warm.cycle()  # its cold-start costs would bias the overhead
            traced = Loop(ctx, workloads.OPS, tracing.Tracer())
            alternate((loop, traced), args.seconds)
            metrics = tracing.layer_metrics(traced.tracer, len(traced.cycle_walls))
            overhead = statistics.median(traced.cycle_walls) - statistics.median(loop.cycle_walls)
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s/cycle"}
            details = {
                "untraced_cycle_s": summary(loop.cycle_walls, True),
                "traced_cycle_s": summary(traced.cycle_walls, True),
                "spans": len(traced.tracer.spans),
            }
            loops = (warm, loop, traced)
        else:
            loop = Loop(ctx, workloads.OPS, references=[])
            alternate((loop,), args.seconds)
            metrics, details = end_to_end(loop, setup_times, setup_references)
            loops = (loop,)

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    details.update(
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        cycles=sum(len(lp.cycle_walls) for lp in loops),
        ops_failed_ratio={"value": failed / attempted, "failed": failed, "attempted": attempted},
        env=environment(np),
    )
    print(json.dumps({"detail": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
