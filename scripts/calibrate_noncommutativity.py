#!/usr/bin/env python3
"""Measure the Pauli-covariance distance floor of the keyed signing unitary.

The session protocol asserts that no generalized Pauli commutes (up to phase
and relabeling) with the signing unitary of any key. This script sweeps many
keys per register count and prints the observed minimum together with a
coarse histogram, to justify the frozen threshold the tests assert.

    python3 scripts/calibrate_noncommutativity.py --keys 400 --max-n 3
"""
import argparse

import numpy as np

from qsiglab.arbitrated import NONCOMMUTATIVITY_THRESHOLD, signing_distance
from qsiglab.qsim import derive_seed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keys", type=int, default=400, help="keys per register count")
    parser.add_argument("--max-n", type=int, default=3, help="largest register count to sweep")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"threshold asserted by the tests: {NONCOMMUTATIVITY_THRESHOLD}")
    edges = np.linspace(0.0, 3.0, 13)
    for n in range(1, args.max_n + 1):
        dists = np.array(
            [signing_distance(n, derive_seed(args.seed, "calib", n, i)) for i in range(args.keys)]
        )
        hist, _ = np.histogram(dists, bins=edges)
        bars = " ".join(f"{lo:.2f}:{c}" for lo, c in zip(edges[:-1], hist) if c)
        print(f"n={n}  keys={args.keys}  min={dists.min():.4f}  mean={dists.mean():.4f}")
        print(f"      histogram  {bars}")
        if dists.min() < NONCOMMUTATIVITY_THRESHOLD:
            print("      WARNING: observed minimum fell below the asserted threshold")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
