"""One workload in one single-threaded process; started by run.py.

Prints one JSON object on stdout; a traced run also writes its spans to
``out/spans-<workload>.jsonl``. ``--setup-only`` stops after set-up and
reports only ``setup_s``, the time from ``--spawned`` (the parent's
``time.monotonic()`` just before it started this process) to the point
where the first timed call would begin.

Every reported time is scaled to the reference speed of ``calib``: each
operation by the calibration run right after it, set-up by calibrations run
right after set-up. The wall times as measured are kept under ``raw``.
"""
from __future__ import annotations

import os

# numpy's BLAS and OpenMP pools are sized when numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calib  # noqa: E402
import checks  # noqa: E402
from qsiglab import attacks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, op_seed  # noqa: E402

MIN_OPS = 100  # so the 90th percentile has ten samples beyond it


def run_ops(wl, seed: int, first: int, seconds: float, min_ops: int, tracer: Tracer | None = None) -> dict:
    """Closed loop: call run_scenario until ``seconds`` and ``min_ops`` are both reached.

    Each call is followed by one calibration; ``scaled`` holds each call's
    duration at the reference speed.
    """
    durations, scaled, reports, seeds, errors = [], [], [], [], []
    failed = 0
    i = first
    start = time.perf_counter()
    while True:
        s = op_seed(wl.name, seed, i)
        scenario = attacks.Scenario(wl.scenario, wl.params, wl.trials, s)
        if tracer is not None:
            tracer.trial = i
        t0 = time.perf_counter()
        try:
            report = attacks.run_scenario(scenario)
        except Exception:  # an operation that raises counts as failed
            report = None
            errors.append(traceback.format_exc(limit=3))
        d = time.perf_counter() - t0
        durations.append(d)
        scaled.append(d * calib.REF_MS * 1e-3 / calib.calibrate())
        seeds.append(s)
        if report is not None and checks.op_ok(wl.name, report):
            reports.append(report)
        else:
            failed += 1
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(durations) >= min_ops:
            break
    return {"durations": durations, "scaled": scaled, "reports": reports, "seeds": seeds, "failed": failed, "errors": errors}


def _timings(run: dict, trials: int, key: str) -> dict:
    ms = [d * 1e3 for d in run[key]]
    return {
        "trials_per_s": {"value": len(ms) * trials / (sum(ms) * 1e-3), "unit": "trials/s"},
        "call_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "call_ms_p90": {"value": statistics.quantiles(ms, n=10)[-1], "unit": "ms"},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    attacks.run_scenario(attacks.Scenario(wl.scenario, wl.params, wl.trials, op_seed(wl.name, args.seed, -1)))
    raw_setup_s = time.monotonic() - args.spawned
    setup_s = raw_setup_s * calib.speed_scale()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw": {"setup_s": raw_setup_s}}))
        return 0

    out: dict = {"setup_s": setup_s, "raw": {"setup_s": raw_setup_s}}
    if args.trace:
        # half the run untraced, half traced: the rate difference is the tracing overhead
        plain = run_ops(wl, args.seed, 0, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_ops(wl, args.seed, len(plain["durations"]), args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(HERE / "out" / f"spans-{wl.name}.jsonl")
        traced_trials = len(traced["durations"]) * wl.trials
        plain_rate = len(plain["scaled"]) / sum(plain["scaled"])
        traced_rate = len(traced["scaled"]) / sum(traced["scaled"])
        layers = tracer.per_trial(traced_trials)
        layers["tracing.overhead_pct"] = ((1.0 - traced_rate / plain_rate) * 100.0, "%")
        out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        runs = [plain, traced]
    else:
        timed = run_ops(wl, args.seed, 0, args.seconds, MIN_OPS)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
        out["metrics"] = _timings(timed, wl.trials, "scaled")
        out["metrics"]["peak_rss_mib"] = {"value": peak_rss_mib, "unit": "MiB"}
        out["raw"].update({k: m["value"] for k, m in _timings(timed, wl.trials, "durations").items()})
        runs = [timed]

    reports = [r for run in runs for r in run["reports"]]
    seeds = [s for run in runs for s in run["seeds"]]
    errors = [e for run in runs for e in run["errors"]]
    for e in errors[:3]:
        print(e, file=sys.stderr)
    out["attempted"] = sum(len(run["durations"]) for run in runs)
    out["failed"] = sum(run["failed"] for run in runs)
    out["checks"] = [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks.run_checks(wl.name, wl.params, reports, seeds)]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
