"""Flat-file formats: dataset CSV, network JSON, reports, and generators.

Dataset CSV has a mandatory header whose column names start with "x" for
features and "y" for labels; one row per sample.  All JSON is written by
json's C encoder as one line with sorted keys and shortest-round-trip
floats, so equal runs are byte-identical; `python -m json.tool` indents a
file for reading.  A file parses to the object that the indented writer of
earlier releases wrote, so its sorted-key hash is unchanged.  `_plain` is
the one rule that turns numpy values into JSON ones: the writer passes it to
json as `default`, and `to_jsonable` is the plain object that the same
encoder's text parses to.
"""

from __future__ import annotations

import csv
import json
import math
from importlib import resources
from pathlib import Path
from typing import Union

import numpy as np

from .activations import PiecewiseLinear
from .errors import GenerationFailed, NonFiniteOutput, ParseError, PreconditionViolated, check_integer
from .linear_fit import _leaves_residual, fit_linear
from .network import Dataset, LossKind, Mlp, _index_dims

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
}


def report_schema() -> dict:
    return json.loads(resources.files("spurmin").joinpath("report_schema.json").read_text())


def validate_against_schema(obj, schema: dict, root: dict | None = None, path: str = "$") -> list[str]:
    """Check obj against the subset of JSON Schema the shipped report schema
    uses (type / required / properties / items / additionalProperties / $ref);
    returns a list of violations, empty when valid."""
    root = root if root is not None else schema
    if "$ref" in schema:
        node = root
        for part in schema["$ref"].lstrip("#/").split("/"):
            node = node[part]
        return validate_against_schema(obj, node, root, path)
    errors = []
    expected = schema.get("type")
    if expected and not isinstance(obj, _TYPES[expected]):
        return [f"{path}: expected {expected}, got {type(obj).__name__}"]
    if expected == "object":
        for key in schema.get("required", []):
            if key not in obj:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                errors += validate_against_schema(obj[key], sub, root, f"{path}.{key}")
        extra = schema.get("additionalProperties")
        if isinstance(extra, dict):
            for key, val in obj.items():
                if key not in schema.get("properties", {}):
                    errors += validate_against_schema(val, extra, root, f"{path}.{key}")
    elif expected == "array" and "items" in schema:
        for i, item in enumerate(obj):
            errors += validate_against_schema(item, schema["items"], root, f"{path}[{i}]")
    return errors


def validate_report(report: dict) -> list[str]:
    return validate_against_schema(to_jsonable(report), report_schema())


def _plain(obj):
    """json's `default`, the one numpy-to-JSON rule: numpy arrays and
    scalars as Python lists and scalars (np.float64 is a float, which json
    writes itself)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def to_jsonable(obj):
    """obj as the plain Python values its JSON text parses to: numpy
    containers and scalars through `_plain`, tuples as lists, dict keys as
    strings.  The report types' `as_dict` is their `dataclasses.asdict`,
    arrays and tuples included; this makes it JSON.  A value json cannot
    write raises TypeError, as the writer does; NaN and infinities pass
    through."""
    return json.loads(json.dumps(obj, default=_plain))


def _first_non_finite_leaf(obj, path: str = "$") -> str | None:
    """`path = value` of the first NaN or infinite float in obj, a
    `to_jsonable` result, in the order json writes it (sorted keys), or None
    when every float is finite."""
    if isinstance(obj, dict):
        items = ((key, obj[key]) for key in sorted(obj))
    elif isinstance(obj, list):
        items = enumerate(obj)
    elif isinstance(obj, float) and not math.isfinite(obj):
        return f"{path} = {obj!r}"
    else:
        return None
    for key, value in items:
        found = _first_non_finite_leaf(value, f"{path}.{key}")
        if found is not None:
            return found
    return None


def _json_text(obj) -> str:
    """Sorted-key JSON text on one line, from json's C encoder; NaN and
    infinities raise NonFiniteOutput naming the first such value's path
    rather than being written as non-JSON tokens.  Private, so that tracing
    counts its time as the caller's own."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, default=_plain)
    except ValueError as exc:
        raise NonFiniteOutput(_first_non_finite_leaf(to_jsonable(obj)) or str(exc)) from None


def dump_json(obj, path: Union[str, Path]) -> None:
    Path(path).write_text(_json_text(obj) + "\n")


def load_json(path: Union[str, Path]):
    """Parse a JSON file; a malformed one raises json.JSONDecodeError with
    the file's path leading its message."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None


def save_dataset_csv(data: Dataset, path: Union[str, Path]) -> None:
    header = [f"x{i + 1}" for i in range(data.d_x)] + [f"y{i + 1}" for i in range(data.d_y)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # tolist() yields Python floats, which the writer formats with repr
        writer.writerows(np.vstack([data.X, data.Y]).T.tolist())


def load_dataset_csv(path: Union[str, Path]) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty dataset file") from None
        x_cols = [i for i, name in enumerate(header) if name.strip().lower().startswith("x")]
        y_cols = [i for i, name in enumerate(header) if name.strip().lower().startswith("y")]
        if not x_cols or not y_cols:
            raise ParseError(
                f"{path}: header must contain x* feature and y* label columns"
            )
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: sample {len(rows) + 1} has {len(row)} cells "
                    f"but the header has {len(header)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ParseError(f"{path}: non-numeric cell ({exc})") from None
    if not rows:
        raise ParseError(f"{path}: no samples")
    M = np.asarray(rows, dtype=float)
    bad = _first_non_finite(M)
    if bad is not None:
        row, col = bad
        raise ParseError(
            f"{path}: non-finite cell {float(M[row, col])} in column "
            f"{header[col].strip()!r} of sample {row + 1}"
        )
    return Dataset(M[:, x_cols].T, M[:, y_cols].T)


def _first_non_finite(A: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first NaN or infinite entry in row-major order, if any."""
    bad = np.argwhere(~np.isfinite(A))
    return tuple(int(i) for i in bad[0]) if len(bad) else None


def mlp_to_dict(net: Mlp) -> dict:
    return {
        "dims": list(net.dims),
        "weights": [W.tolist() for W in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "activation": net.activation.as_dict(),
    }


def mlp_from_dict(d: dict) -> Mlp:
    """The network a dict from `mlp_to_dict` describes.  JSON text may carry
    NaN or Infinity literals, so non-finite parameters raise ParseError, and
    so does a missing field, a field of the wrong kind (a dims entry that
    is not an integer included) or fields that contradict each other (a
    bias shape that its dims refuse, an activation that `PiecewiseLinear`
    refuses)."""
    try:
        dims = _index_dims(d["dims"])
    except (KeyError, TypeError, PreconditionViolated) as exc:  # _index_dims: ShapeViolation
        raise ParseError(f"malformed network: {exc!r}") from None
    try:
        weights = tuple(np.asarray(W, dtype=float) for W in d["weights"])
        biases = tuple(np.asarray(b, dtype=float) for b in d["biases"])
        for kind, arrays in (("weights", weights), ("biases", biases)):
            for layer, A in enumerate(arrays):
                bad = _first_non_finite(A)
                if bad is not None:
                    raise ParseError(f"network {kind}[{layer}] has non-finite entry "
                                     f"{float(A[bad])} at {list(bad)}")
        return Mlp(dims, weights, biases, PiecewiseLinear.from_dict(d["activation"]))
    except (KeyError, TypeError, ValueError, PreconditionViolated) as exc:
        raise ParseError(f"malformed network: {exc!r}") from None


def save_mlp(net: Mlp, path: Union[str, Path]) -> None:
    dump_json(mlp_to_dict(net), path)


def load_mlp(path: Union[str, Path]) -> Mlp:
    return mlp_from_dict(load_json(path))


def rle_encode(matrix: np.ndarray) -> list[list]:
    """Row-major run-length encoding [[value, count], ...] for pattern
    matrices, values as floats.  NaN never joins a run, and +0.0 and -0.0
    join one that keeps its first entry's sign."""
    flat = np.asarray(matrix, dtype=float).reshape(-1)
    if not flat.size:
        return []
    starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
    counts = np.diff(starts, append=flat.size)
    return [list(run) for run in zip(flat[starts].tolist(), counts.tolist())]


# ---------------------------------------------------------------------------
# dataset generators


def xor_dataset() -> Dataset:
    """The canonical 4-point fixture no affine map can fit."""
    X = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
    Y = np.array([[0.0, 1.0, 1.0, 0.0]])
    return Dataset(X, Y)


def blobs_dataset(k: int, seed: int = 0) -> Dataset:
    """k Gaussian clusters of five points in the plane, with the cluster
    index as the label."""
    if k < 2:
        raise PreconditionViolated("need at least two clusters")
    rng = np.random.default_rng(check_integer("seed", seed, minimum=0))
    angles = 2.0 * np.pi * np.arange(k) / k
    centers = 3.0 * np.vstack([np.cos(angles), np.sin(angles)])
    per_cluster = 5
    Xs, ys = [], []
    for c in range(k):
        pts = centers[:, c : c + 1] + 0.5 * rng.standard_normal((2, per_cluster))
        Xs.append(pts)
        ys.extend([float(c)] * per_cluster)
    return Dataset(np.hstack(Xs), np.asarray(ys)[None, :])


def linear_dataset(seed: int = 0) -> Dataset:
    """Six samples with exactly affine labels; the negative control for
    linear inseparability."""
    rng = np.random.default_rng(check_integer("seed", seed, minimum=0))
    X = rng.standard_normal((2, 6))
    w = np.array([2.0, -1.0])
    Y = (w @ X + 1.0)[None, :]
    return Dataset(X, Y)


def gen_dataset(spec: str, seed: int = 0, check_assumption_flags: bool = False) -> Dataset:
    """Generator front-end: "xor", "blobs:<k>", or "linear".

    With check_assumption_flags the generated data must be linearly
    inseparable with distinct samples; random specs are retried with shifted
    seeds, exact generators fail outright.
    """
    def build(s: int) -> Dataset:
        name = spec.strip().lower()
        if name == "xor":
            return xor_dataset()
        if name.startswith("blobs:"):
            try:
                k = int(name.split(":", 1)[1])
            except ValueError:
                raise PreconditionViolated(
                    f"bad dataset spec {spec!r}; expected blobs:<k>"
                ) from None
            return blobs_dataset(k, seed=s)
        if name == "linear":
            return linear_dataset(seed=s)
        raise PreconditionViolated(f"unknown dataset spec: {spec!r}")

    retries = 5 if spec.strip().lower().startswith("blobs") else 1
    for attempt in range(retries):
        data = build(seed + attempt)
        if not check_assumption_flags:
            return data
        if data.distinct_columns() and _leaves_residual(fit_linear(data, LossKind.SQUARED)):
            return data
    raise GenerationFailed(
        f"spec {spec!r} could not satisfy the assumption flags after {retries} attempt(s)"
    )
