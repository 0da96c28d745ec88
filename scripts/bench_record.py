#!/usr/bin/env python3
"""Run the trial benchmark in one checkout and add a labelled record to a BENCH file.

    python3 scripts/bench_record.py --label parent --checkout ../parent --seed 3 --out BENCH_9.json
    python3 scripts/bench_record.py --label change --checkout . --seed 3 --out BENCH_9.json

A record holds the checkout's git sha, the machine (nproc, Python and numpy
versions), the calibration time of ``qsigbench/calib.py``, the end-to-end
metrics of ``qsigbench/run.py --trace 0``, the per-layer metrics of
``qsigbench/run.py --trace 1``, fixed-size kernel timings and the minor page
faults of one warm ``session_tamper_t6`` trial, one trap encode, one trap
verify and one protocol-mode truesig verify, and the µs of one ``wc_check``
at each MAC width. The trials run first, right after calibration, and the
trap kernels next, so no fault figure depends on the application kernels.
The benchmark and the kernels run as subprocesses on the checkout's own
``src/`` and ``qsigbench/``, so one copy of this script records any
checkout. A full record takes about five minutes on a
2-core machine.

``--kernels CHECKOUT`` only prints the kernel figures of that checkout as
JSON; the full record runs it in a single-threaded subprocess.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def _median_ms_minflt(fn, reps: int) -> tuple[float, float]:
    """Median wall ms and median count of minor page faults of one call of
    fn. Memory the allocator has handed back to the OS faults in again, page
    by page, on the next call that touches it."""
    times, faults = [], []
    for _ in range(reps):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return statistics.median(times) * 1e3, statistics.median(faults)


def _median_ms(fn, reps: int) -> float:
    return _median_ms_minflt(fn, reps)[0]


def kernel_timings(checkout: Path) -> dict:
    """Median wall ms of fixed-size kernel calls on the checkout's qsiglab,
    plus the median calibration time of its qsigbench/calib.py."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "qsigbench")]
    import calib
    import numpy as np
    import qsiglab
    from qsiglab import attacks, qsim
    from qsiglab.authcrypto import AuthKey, MacKey, MacTag, qauth_encode, qauth_verify, wc_check
    from qsiglab.clifford import apply_clifford, sample_clifford
    from qsiglab.qsim import new_rng, sample_random_pure
    from workloads import WORKLOADS, op_seed

    out = {"numpy": np.__version__, "calibration_ms": statistics.median(calib.calibrate() for _ in range(21)) * 1e3}
    # one run_scenario call per trial, as qsigbench/worker.py makes them, after its warm-up call
    wl, index = WORKLOADS["session_tamper_t6"], itertools.count(-1)

    def trial():
        attacks.run_scenario(attacks.Scenario(wl.scenario, wl.params, wl.trials, op_seed(wl.name, 0, next(index))))

    trial()
    out["session_tamper_t6_minflt"] = _median_ms_minflt(trial, 60)[1]
    # bob's wrap and the arbiter's outer check at n = 2: a 2n + 2t qubit block with t traps;
    # a checkout from before qsim.Sampled reads its traps from the bare rng
    sampled = getattr(qsim, "Sampled", lambda rng: rng)
    for t in (6, 4):
        key = AuthKey(t)
        payload = sample_random_pure(2, 4 + t, new_rng(t))
        block = qauth_encode(payload, key, t)
        out[f"qauth_encode_t{t}_ms"], out[f"qauth_encode_t{t}_minflt"] = _median_ms_minflt(
            lambda: qauth_encode(payload, key, t), 20
        )
        out[f"qauth_verify_t{t}_ms"], out[f"qauth_verify_t{t}_minflt"] = _median_ms_minflt(
            lambda: qauth_verify(block, key, t, sampled(new_rng(0))), 20
        )
    # four sampled ops and their inverses, each timed on one random state
    for m, reps in ((10, 20), (12, 10), (16, 5)):
        st = sample_random_pure(2, m, new_rng(m))
        ops = [sample_clifford(m, new_rng(s)) for s in range(4)]
        out[f"apply_clifford_m{m}_ms"] = statistics.median(
            _median_ms(lambda o=o: apply_clifford(st, o), reps) for op in ops for o in (op, op.inverse())
        )
    # protocol verify of an honest d = 7, k = 3 bundle, through the package's public names only
    keys = qsiglab.keygen(7, 3, 7)
    psi = qsiglab.make_state(7, 1, np.arange(1, 8) + 1j * np.arange(7, 0, -1))
    bundle, rng = qsiglab.sign(keys, psi.amps, psi), qsiglab.new_rng(0)
    qsiglab.verify(keys, bundle, "protocol", rng=rng)
    out["truesig_verify_d7k3_ms"], out["truesig_verify_d7k3_minflt"] = _median_ms_minflt(
        lambda: qsiglab.verify(keys, bundle, "protocol", rng=rng), 50
    )
    # one wc_check of a 24-byte message, mac_forgery's size, at each tag width; µs per call,
    # from the median of 31 runs of 100 calls
    message = bytes(range(24))
    for b in (16, 32, 64):
        key, tag = MacKey(b, 22), MacTag(0, b, 0)
        wc_check(key, message, tag)
        out[f"wc_check_b{b}_us"] = _median_ms(lambda: [wc_check(key, message, tag) for _ in range(100)], 31) * 10
    return out


def _bench(checkout: Path, seed: int, trace: int) -> dict:
    """Per-workload results of one qsigbench/run.py run over every workload."""
    proc = subprocess.run(
        [sys.executable, "qsigbench/run.py", "--seed", str(seed), "--trace", str(trace)],
        cwd=checkout,
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    if proc.returncode == 2:
        raise RuntimeError(f"qsigbench/run.py --trace {trace} could not run in {checkout}")
    results = {}
    for line in proc.stdout.splitlines():
        if line.startswith('{"workload"'):
            res = json.loads(line)
            results[res.pop("workload")] = res
    return results


def _git(checkout: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(label: str, checkout: Path, seed: int) -> dict:
    env = {**os.environ, **SINGLE_THREAD}
    kernels = subprocess.run(
        [sys.executable, __file__, "--kernels", str(checkout)], env=env, stdout=subprocess.PIPE, text=True, check=True
    )
    kern = json.loads(kernels.stdout)
    untraced, traced = _bench(checkout, seed, 0), _bench(checkout, seed, 1)
    return {
        "label": label,
        "sha": _git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": kern.pop("numpy"),
        "calibration_ms": kern.pop("calibration_ms"),
        "correct": all(r["correct"] for r in (*untraced.values(), *traced.values())),
        "operations": {w: {"attempted": r["attempted"], "failed": r["failed"]} for w, r in untraced.items()},
        "end_to_end": {w: {k: m["value"] for k, m in r["metrics"].items()} for w, r in untraced.items()},
        "per_layer": {w: {k: m["value"] for k, m in r["metrics"].items()} for w, r in traced.items()},
        "kernels_ms": kern,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="name of the record, such as parent or change")
    ap.add_argument("--checkout", type=Path, default=ROOT, help="tree to benchmark (default: this one)")
    ap.add_argument("--seed", type=int, default=0, help="workload seed passed to qsigbench/run.py")
    ap.add_argument("--out", type=Path, help="BENCH file to add the record to (required with --label)")
    ap.add_argument("--kernels", type=Path, metavar="CHECKOUT", help="only print CHECKOUT's kernel timings")
    args = ap.parse_args()
    if args.kernels:
        print(json.dumps(kernel_timings(args.kernels.resolve())))
        return 0
    if not args.label:
        ap.error("--label is required")
    if args.out is None:
        ap.error("--out is required with --label")
    rec = record(args.label, args.checkout.resolve(), args.seed)
    bench = json.loads(args.out.read_text()) if args.out.exists() else {"records": []}
    bench["records"].append(rec)
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"{args.label}: {rec['sha']} correct={rec['correct']}, {len(bench['records'])} records in {args.out}")
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
