#!/usr/bin/env python3
"""Emit a point,risk CSV along a valley path between two rescalings of the
constructed one-hidden-layer minimum, demonstrating risk invariance.

Usage: python scripts/valley_path_curve.py [--steps 10] [--out curve.csv]
"""

import argparse

import numpy as np

from spurmin import LossKind, Mlp, build_minimum, fit_linear, relu, walk_valley, xor_dataset


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=10)
    ap.add_argument("--out", default="curve.csv")
    ap.add_argument("--factors", default="2.0,0.5,3.0",
                    help="per-unit rescaling factors defining the far endpoint")
    args = ap.parse_args()

    data = xor_dataset()
    fit = fit_linear(data, LossKind.SQUARED)
    net = build_minimum(fit, data, (2, 3, 1), relu(), stage="1").net
    factors = np.array([float(f) for f in args.factors.split(",")])
    far = Mlp(net.dims, (net.weights[0] / factors[:, None], net.weights[1] * factors),
              (net.biases[0] / factors, net.biases[1]), net.activation)
    valley = walk_valley(net, far, data, LossKind.SQUARED, steps_per_move=args.steps)

    with open(args.out, "w") as fh:
        fh.write("point,risk\n")
        for i, risk in enumerate(valley["risks"]):
            fh.write(f"{i},{risk!r}\n")
    print(f"{valley['n_points']} path points written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
