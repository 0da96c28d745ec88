#!/usr/bin/env python3
"""qsiglab trial benchmark: scenario workloads through attacks.run_scenario.

    python3 qsigbench/run.py --workload session_honest --seed 1 --seconds 28 --trace 0
    python3 qsigbench/run.py                 # every workload, one after another
    python3 qsigbench/run.py --trace 1       # per-layer metrics and tracing overhead

Needs only the stdlib and numpy; qsiglab is imported from ``src/`` of the
checkout, with no install step. Each workload runs in its own
single-threaded worker process (worker.py), one process at a time. With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones. End-to-end times are scaled to the reference speed of
calib.py; the wall times as measured are printed above the result. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1
when a correctness check fails or an operation fails, and 2 when a worker
cannot run at all (then no result is printed).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # set-up is timed in this many processes and the median reported
WORKER_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


class WorkerError(RuntimeError):
    """A worker process exited with an error or printed no result."""


def _worker(args: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the worker
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    OUT.mkdir(exist_ok=True)
    if trace:
        res = _worker(common)
    else:
        setups = [_worker(common + ["--setup-only"]) for _ in range(SETUP_SAMPLES - 1)]
        res = _worker(common)
        setups.append(res)
        res["metrics"]["setup_s"] = {"value": statistics.median(w["setup_s"] for w in setups), "unit": "s"}
        res["raw"]["setup_s"] = statistics.median(w["raw"]["setup_s"] for w in setups)
    res["correct"] = all(c["ok"] for c in res["checks"]) and res["failed"] == 0
    (OUT / f"result-{name}-trace{trace}.json").write_text(json.dumps(res, indent=1) + "\n")
    return res


def report(name: str, res: dict) -> None:
    print(f"== {name}: attempted {res['attempted']} operations, failed {res['failed']}")
    for key, m in sorted(res["metrics"].items()):
        print(f"   {key:<44} {m['value']:>14.6g} {m['unit']}")
    for key, v in sorted(res["raw"].items()):
        print(f"   {'wall time as measured: ' + key:<44} {v:>14.6g}")
    for c in res["checks"]:
        print(f"   check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")


def main() -> int:
    ap = argparse.ArgumentParser(description="qsiglab trial benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=0, help="workload seed")
    ap.add_argument("--seconds", type=float, default=28.0, help="timed seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = ap.parse_args()

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        report(name, results[name])
    for name, res in results.items():
        line = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
        if len(results) > 1:
            line = {"workload": name, **line}
        print(json.dumps(line))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
