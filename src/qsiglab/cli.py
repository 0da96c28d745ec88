"""Command-line front end: run attack scenarios, write canonical reports.

    qsiglab run --scenario truesig_forgery --d 7 --k 3 --trials 500
    qsiglab list-scenarios

Exit status: 0 when the scenario landed in its expected regime, 1 when it
did not, 2 on usage or parameter errors. Reports are written as canonical
JSON next to --out, or into $QSIGLAB_OUT_DIR under a default name.
"""
from __future__ import annotations

import argparse
import os
import sys

from .attacks import SCENARIOS, Scenario, adversary_catalog, canonical_report_json, regime_check, run_scenario

_TUNABLE = ("d", "k", "n", "t", "b", "mode", "position")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsiglab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run one scenario and report the accept rate")
    run.add_argument("--scenario", required=True, choices=sorted(SCENARIOS), help="scenario name")
    run.add_argument("--trials", type=int, default=1000, help="independent trials (default 1000)")
    run.add_argument("--seed", type=int, default=0, help="scenario seed (default 0)")
    run.add_argument("--d", type=int, default=None, help="qudit dimension (prime; scheme scenarios)")
    run.add_argument("--k", type=int, default=None, help="message length parameter (scheme scenarios)")
    run.add_argument("--n", type=int, default=None, help="message registers (protocol scenarios)")
    run.add_argument("--t", type=int, default=None, help="trap registers (protocol scenarios)")
    run.add_argument("--b", type=int, default=None, choices=(16, 32, 64), help="MAC tag width")
    run.add_argument("--mode", default=None, choices=("referee", "protocol"), help="inspection regime")
    run.add_argument("--position", default=None, choices=("sigma", "y", "t_reply"), help="tamper position")
    run.add_argument("--out", default=None, help="report path (default: $QSIGLAB_OUT_DIR/<scenario>_seed<seed>.json)")

    sub.add_parser("list-scenarios", help="list scenarios, defaults, and adversary access")
    return parser


def parse(argv: list[str]) -> argparse.Namespace:
    return _build_parser().parse_args(argv)


def _report_path(args: argparse.Namespace) -> str | None:
    if args.out:
        return args.out
    out_dir = os.environ.get("QSIGLAB_OUT_DIR")
    if out_dir:
        return os.path.join(out_dir, f"{args.scenario}_seed{args.seed}.json")
    return None


def execute(args: argparse.Namespace) -> int:
    if args.command == "list-scenarios":
        for name, entry in sorted(adversary_catalog().items()):
            defaults = " ".join(f"{k}={v}" for k, v in sorted(entry["defaults"].items()))
            print(f"{name}\n    {entry['description']}\n    adversary: {entry['key_access']}\n    defaults: {defaults}")
        return 0

    spec = SCENARIOS[args.scenario]
    overrides = {}
    for key in _TUNABLE:
        value = getattr(args, key)
        if value is None:
            continue
        if key not in spec.defaults:
            print(f"error: scenario {args.scenario!r} does not take --{key}", file=sys.stderr)
            return 2
        overrides[key] = value
    path = _report_path(args)
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        print(f"error: report directory {os.path.dirname(path)!r} does not exist", file=sys.stderr)
        return 2

    try:
        report = run_scenario(Scenario(args.scenario, overrides, args.trials, args.seed))
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ok, regime_text = regime_check(report)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_report_json(report) + "\n")

    params = " ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    print(f"scenario      {report.scenario_name}")
    print(f"params        {params}")
    print(f"trials        {report.trials}")
    print(f"seed          {report.seed}")
    print(f"accept_count  {report.accept_count}")
    print(f"accept_rate   {report.accept_rate}")
    print(f"regime        {regime_text}")
    print(f"result        {'PASS' if ok else 'FAIL'}")
    print(f"wall_time     {report.wall_time:.2f} s")
    print(f"report        {path if path else '(not written; pass --out or set QSIGLAB_OUT_DIR)'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        _build_parser().print_help()
        return 2
    args = parse(argv)
    if args.command is None:
        _build_parser().print_help()
        return 2
    return execute(args)
