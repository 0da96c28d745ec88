#!/usr/bin/env python3
"""Apply known mutants to a copy of the tree and check that their tests fail.

Each mutant is one exact text replacement in one file, with the test ids
that must fail once it is made. The script copies the tree (``src/``,
``tests/``, ``scripts/``, ``qsigbench/`` and the top-level files) into a
temporary directory, applies one mutant at a time, runs that mutant's tests
there with a timeout, and puts the file back before the next one.

    python3 scripts/mutants.py                 # every mutant
    python3 scripts/mutants.py truesig_p_pair_ignores_shipped_pair

Before any mutant, the chosen mutants' tests run once on the unmutated
copy; if one of them fails there, the script prints "baseline fails" and
stops, since such a test would count as a kill. A mutant is killed when
every test it names fails (or errors), or when its run exceeds TIMEOUT_S.
The exit status is 1 when the baseline fails, a mutant survives or its old
text no longer occurs exactly once, 2 for an unknown mutant name, and 0
otherwise.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # for one mutant's tests; a mutant can hang the interpreter


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


_PROTOCOL_REFERENCE = tuple(
    f"tests/test_truesig.py::test_protocol_matches_full_state_reference[{c}]" for c in ("5-2", "7-3", "11-2")
)
_STEP1_PROJECTION = tuple(
    f"tests/test_truesig.py::test_protocol_step1_projection_matches_full_state_reference[{c}]" for c in ("5-2", "7-3")
)
_REFEREE_SYNDROME = tuple(
    f"tests/test_truesig.py::test_referee_syndrome_names_an_outcome_with_weight[{s}]" for s in (1, 2, 3, 4)
)

MUTANTS = [
    Mutant(
        "truesig_contracts_pair_1_j",
        "src/qsiglab/truesig.py",
        "        diag = np.diagonal(cur.amps.reshape(d, d, d ** (j - 1), d, d ** (j - 1)), axis1=1, axis2=3)\n",
        "        diag = np.diagonal(cur.amps.reshape(d, d, d ** (j - 2), d, d ** j), axis1=1, axis2=3)\n",
        _PROTOCOL_REFERENCE,
    ),
    Mutant(
        "truesig_conjugate_weights_from_every_row",
        "src/qsiglab/truesig.py",
        "        conj = ff @ np.moveaxis(diag, -1, 0).reshape(d, -1)\n",
        "        conj = ff @ np.moveaxis(cur.amps.reshape(d, d, -1), 1, 0).reshape(d, -1)\n",
        _PROTOCOL_REFERENCE,
    ),
    Mutant(
        "truesig_syndrome_from_a_minus_b",
        "src/qsiglab/truesig.py",
        "    labels = vk.constraints.vectors[:, k:] @ (cells[k - 1 :] - cells[: k - 1]) % d\n",
        "    labels = vk.constraints.vectors[:, k:] @ (cells[: k - 1] - cells[k - 1 :]) % d\n",
        _STEP1_PROJECTION + _REFEREE_SYNDROME,
    ),
    Mutant(
        "truesig_syndrome_reads_the_leading_columns",
        "src/qsiglab/truesig.py",
        "    labels = vk.constraints.vectors[:, k:] @ (cells[k - 1 :] - cells[: k - 1]) % d\n",
        "    labels = vk.constraints.vectors[:, : k - 1] @ (cells[k - 1 :] - cells[: k - 1]) % d\n",
        _STEP1_PROJECTION + _REFEREE_SYNDROME,
    ),
    Mutant(
        "truesig_step1_keeps_an_uncertain_state",
        "src/qsiglab/truesig.py",
        "        if weights[0] / weights.sum() < 1.0 - _EXACT:  # an uncertain outcome: project onto it\n",
        "        if False:\n",
        _STEP1_PROJECTION,
    ),
    Mutant(
        "truesig_p_pair_ignores_shipped_pair",
        "src/qsiglab/truesig.py",
        "    p_pair = (1.0 + fidelity(canonical_omega(d), bundle.omega_pair)) / 2.0\n",
        "    p_pair = 1.0\n",
        _PROTOCOL_REFERENCE
        + (
            "tests/test_truesig.py::test_omega_reference_mismatch_fails_step4",
            "tests/test_truesig.py::test_referee_accepts_below_tol_and_rejects_above[shipped pair-step4]",
        ),
    ),
    Mutant(
        "truesig_referee_reports_an_outcome_without_weight",
        "src/qsiglab/qsim.py",
        "        return 0 if p[0] >= 1.0 - TOL else int(np.argmax(p[1:])) + 1\n",
        "        return 0 if p[0] >= 1.0 - TOL else int(np.argmax(p)) or 1\n",
        _REFEREE_SYNDROME[1:]
        + ("tests/test_qsim.py::test_referee_parity_measure_names_an_outcome_with_weight[p0_likeliest]",),
    ),
    Mutant(
        "sampled_draw_uncounted",
        "src/qsiglab/qsim.py",
        "        self.draws += 1\n        return int(self.rng.choice(len(weights), p=weights / weights.sum()))\n",
        "        return int(self.rng.choice(len(weights), p=weights / weights.sum()))\n",
        (
            "tests/test_report_bytes.py::test_transcript_bytes_unchanged",
            "tests/test_report_bytes.py::test_wrong_key_transcript_bytes_unchanged",
            "tests/test_qsim.py::test_sampled_makes_the_rng_calls_it_replaces",
        ),
    ),
    Mutant(
        "referee_accepts_below_one_minus_tol",
        "src/qsiglab/qsim.py",
        "        return p >= 1.0 - TOL\n",
        "        return p >= 1.0 - 3 * TOL\n",
        (
            "tests/test_qsim.py::test_referee_exchange_test_accepts_at_one_minus_tol[3.0000000000000004e-09-1]",
            "tests/test_qsim.py::test_referee_accepts_from_one_minus_tol",
        ),
    ),
    Mutant(
        "arbiter_referee_draws_from_rng",
        "src/qsiglab/arbitrated.py",
        "    source = outcome_source(arbiter.config.mode, arbiter.rng)\n",
        "    source = arbiter.rng\n",
        (
            "tests/test_report_bytes.py::test_transcript_bytes_unchanged",
            "tests/test_report_bytes.py::test_wrong_key_transcript_bytes_unchanged",
        ),
    ),
    Mutant(
        "clifford_padded_first_stage_conjugate_phase",
        "src/qsiglab/clifford.py",
        "    payload = np.multiply(state.amps, _factor(phase), out=idle[: state.amps.size])\n",
        "    payload = np.multiply(state.amps, _I_POW[-phase], out=idle[: state.amps.size])\n",
        tuple(f"tests/test_authcrypto.py::test_encode_matches_full_block_path[{t}]" for t in range(7)),
    ),
    Mutant(
        "clifford_padded_returns_a_workspace_buffer",
        "src/qsiglab/clifford.py",
        "    out = np.empty_like(buf)\n    _scatter(buf, out, op.m, *last)\n",
        "    out = idle\n    _scatter(buf, out, op.m, *last)\n",
        ("tests/test_clifford.py::test_results_never_alias_the_workspace",),
    ),
    Mutant(
        "clifford_trap_weights_off_square",
        "src/qsiglab/clifford.py",
        "    np.multiply(sq, sq, out=sq)\n",
        "    np.power(sq, 2.0000000000000004, out=sq)\n",
        ("tests/test_clifford.py::test_application_bytes_pinned",),
    ),
    Mutant(
        "mac_hash_drops_the_zero_guard",
        "src/qsiglab/authcrypto.py",
        "        h = (exp[log[h] + lp] if h else 0) ^ blk\n",
        "        h = exp[log[h] + lp] ^ blk\n",
        (
            "tests/test_authcrypto.py::test_wc_hash_matches_gf_mul_horner[16]",
            "tests/test_authcrypto.py::test_tag_of_zero_message_is_the_pad",
            "tests/test_authcrypto.py::test_wc_hash_passes_through_zero",
        ),
    ),
]

_COPIED = ("src", "tests", "scripts", "qsigbench")
_SKIPPED = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", "out")


def _junit_key(test_id: str) -> tuple[str, str]:
    """The (classname, name) pair under which pytest's JUnit XML reports a test id."""
    path, *scopes, name = test_id.split("::")
    return ".".join([path.removesuffix(".py").replace("/", "."), *scopes]), name


def _failed_tests(report: Path) -> set[tuple[str, str]]:
    failed = set()
    for case in ET.parse(report).getroot().iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add((case.get("classname"), case.get("name")))
    return failed


def _failing(tree: Path, tests: tuple[str, ...]) -> list[str] | None:
    """The ids in tests that fail (or error) when run in tree, or None on timeout."""
    report = tree / "mutant-report.xml"
    paths = (str(tree / "src"), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *tests]
    try:
        subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if not report.exists():  # pytest could not even collect: count every test as failing
        return list(tests)
    failed = _failed_tests(report)
    report.unlink()
    return [t for t in tests if _junit_key(t) in failed]


def run_mutant(tree: Path, mutant: Mutant) -> str:
    """'killed', 'timeout', 'survived: <ids>' or 'stale' for one mutant in tree."""
    target = tree / mutant.file
    original = target.read_text()
    if original.count(mutant.old) != 1:
        return "stale"
    target.write_text(original.replace(mutant.old, mutant.new))
    try:
        failing = _failing(tree, mutant.tests)
    finally:
        target.write_text(original)
    if failing is None:
        return "timeout"
    passing = [t for t in mutant.tests if t not in failing]
    return f"survived: {', '.join(passing)}" if passing else "killed"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = ap.parse_args()

    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[n] for n in args.names] or MUTANTS

    bad = 0
    with tempfile.TemporaryDirectory(prefix="qsiglab-mutants-") as tmp:
        tree = Path(tmp)
        for sub in _COPIED:
            shutil.copytree(ROOT / sub, tree / sub, ignore=_SKIPPED)
        for top in ROOT.iterdir():
            if top.is_file():
                shutil.copy2(top, tree / top.name)
        # a test that already fails on the unmutated tree would count as a kill
        named = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        failing = _failing(tree, named)
        if failing is None or failing:
            print(f"baseline fails: {'timeout' if failing is None else ', '.join(failing)}", flush=True)
            return 1
        for mutant in chosen:
            status = run_mutant(tree, mutant)
            bad += status not in ("killed", "timeout")
            print(f"{mutant.name}: {status}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
