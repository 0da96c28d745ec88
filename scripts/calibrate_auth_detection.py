#!/usr/bin/env python3
"""Monte Carlo check of the trap-code detection rate against the counting bound.

A fixed non-identity Pauli pushed through a fresh keyed Clifford is uniform
over non-identity Paulis, so a block with p payload and t trap registers
accepts tampering with probability (4^p 2^t - 1)/(4^(p+t) - 1), about 2^-t.
This script measures the acceptance rate for several trap counts and prints
both numbers side by side.

    python3 scripts/calibrate_auth_detection.py --trials 600
"""
import argparse

import numpy as np

from qsiglab.authcrypto import AuthKey, qauth_encode, qauth_verify
from qsiglab.qsim import Sampled, apply_gate, new_rng, pauli_gate, sample_random_pure


def measured_rate(p: int, t: int, trials: int, rng) -> float:
    x = pauli_gate("X")
    hits = 0
    for i in range(trials):
        payload = sample_random_pure(2, p, rng)
        key = AuthKey(int(rng.integers(0, 2**62)))
        tampered = apply_gate(qauth_encode(payload, key, t=t), x, [0])
        accept, _ = qauth_verify(tampered, key, t, Sampled(rng))
        hits += accept
    return hits / trials


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--payload", type=int, default=2, help="payload registers")
    parser.add_argument("--traps", type=int, nargs="+", default=[2, 4, 6])
    parser.add_argument("--trials", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = new_rng(args.seed)
    p = args.payload
    print(f"payload registers: {p}, trials per row: {args.trials}")
    print(f"{'t':>3} {'measured':>10} {'predicted':>10} {'3 sigma':>9}")
    worst = 0.0
    for t in args.traps:
        predicted = (4**p * 2**t - 1) / (4 ** (p + t) - 1)
        rate = measured_rate(p, t, args.trials, rng)
        sigma = float(np.sqrt(predicted * (1 - predicted) / args.trials))
        pull = abs(rate - predicted) / sigma if sigma else 0.0
        worst = max(worst, pull)
        print(f"{t:>3} {rate:>10.5f} {predicted:>10.5f} {3 * sigma:>9.5f}")
    if worst > 4.0:
        print("WARNING: a measured rate sits more than 4 sigma from the bound")
        return 1
    print("all rates within 4 sigma of the counting bound")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
