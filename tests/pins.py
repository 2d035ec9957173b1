"""The pinned reports: the one hash rule, and a runner that checks every pin
of `pins.json` that a command line writes.

Each entry of `pins.json` maps a name to the report's `sha` and a one-line
`why`; an entry with `argv` is written by that `spurmin` command line to
`<name>.json`.  The runner writes the inputs those command lines read into
the current directory, runs each of them and names every pin whose file
hashes otherwise or is never written.  Against an installed `spurmin`, from
a scratch directory:

    python /path/to/tests/pins.py spurmin

It imports nothing but the standard library, so the package under test is
the one the command runs.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path
from typing import Callable

TABLE = Path(__file__).with_name("pins.json")

# the per-unit scales that turn a.json into b.json, one tuple per hidden layer
_SCALES = ((2.0, 0.5, 3.0), (0.25, 4.0, 1.5))


def load_pins() -> dict:
    return json.loads(TABLE.read_text())


def sorted_key_hash(payload, drop_config: bool = False) -> str:
    """The sha256 prefix of the sorted-key JSON text, without the config
    block when asked (it names the files a command read)."""
    if drop_config:
        payload = {k: v for k, v in payload.items() if k != "config"}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _rescaled(net: dict) -> dict:
    """The same function as a (2,3,3,1) network: each hidden unit's incoming
    weights and bias divided by its scale, its outgoing weights times it."""
    (W1, W2, W3), (b1, b2, b3) = net["weights"], net["biases"]
    c1, c2 = _SCALES
    return {
        **net,
        "weights": [
            [[w / c for w in row] for row, c in zip(W1, c1)],
            [[w * a / c for w, a in zip(row, c1)] for row, c in zip(W2, c2)],
            [[w * c for w, c in zip(row, c2)] for row in W3],
        ],
        "biases": [[b / c for b, c in zip(b1, c1)], [b / c for b, c in zip(b2, c2)], b3],
    }


def _prepare_inputs(run: Callable[[list], int]) -> list:
    """Write xor.csv, blobs.csv and the valley's ends a.json and b.json into
    the current directory; return a line for each step that failed."""
    steps = [
        ["gen-data", "--spec", "xor", "--out", "xor.csv"],
        ["gen-data", "--spec", "blobs:3", "--seed", "0", "--out", "blobs.csv"],
        ["construct", "--data", "xor.csv", "--stage", "2", "--dims", "2,3,3,1",
         "--out", "xor_min.json"],
    ]
    failures = [f"input {argv[-1]}: exit {status}"
                for argv in steps if (status := run(argv)) != 0]
    if not failures:
        net = json.loads(Path("xor_min.json").read_text())["points"][0]["net"]
        Path("a.json").write_text(json.dumps(net))
        Path("b.json").write_text(json.dumps(_rescaled(net)))
    return failures


def run_pins(run: Callable[[list], int], table: dict) -> list:
    """Prepare the inputs, run every pin of `table` that carries an argv
    through `run`, which takes an argv and returns its exit code, and
    return one line per pin that failed:
    its command exited non-zero, it never wrote its file, or the file's hash
    is not the pinned one."""
    failures = _prepare_inputs(run)
    for name, pin in table.items():
        if "argv" not in pin:
            continue
        out = Path(f"{name}.json")
        out.unlink(missing_ok=True)
        status = run(pin["argv"])
        if status != 0:
            failures.append(f"{name}: exit {status}")
        elif not out.exists():
            failures.append(f"{name}: {out} never written")
        else:
            got = sorted_key_hash(json.loads(out.read_text()), pin.get("drop_config", False))
            if got != pin["sha"]:
                failures.append(f"{name}: hash {got}, pinned {pin['sha']}")
    return failures


def main(command: list) -> int:
    table = load_pins()
    failures = run_pins(lambda argv: subprocess.call([*command, *argv]), table)
    print("\n".join(failures) or f"all {sum('argv' in pin for pin in table.values())} pins hold")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} COMMAND...   (say, spurmin)")
    sys.exit(main(sys.argv[1:]))
