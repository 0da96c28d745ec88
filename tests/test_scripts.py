"""Smoke runs of the calibration, table, bench-record and mutant scripts at
tiny sizes, the mutant list against the tree, and the benchmark tracer's
bindings."""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("calibrate_auth_detection.py", ["--trials", "30", "--traps", "2"]),
        ("calibrate_noncommutativity.py", ["--keys", "4", "--max-n", "2"]),
        ("run_all_scenarios.py", ["--trials", "3"]),
        # the kernel timings of a record only; a full record runs the benchmark
        ("bench_record.py", ["--kernels", str(ROOT)]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if script == "bench_record.py":
        kernels = json.loads(proc.stdout)
        for t in (4, 6):
            assert kernels[f"qauth_encode_t{t}_ms"] > 0
            assert kernels[f"qauth_verify_t{t}_ms"] > 0
        assert "qauth_encode_t6_minflt" in kernels
        assert "qauth_verify_t6_minflt" in kernels
        assert "session_tamper_t6_minflt" in kernels
        assert kernels["session_honest_trial_ms"] > 0
        assert kernels["session_tamper_t6_trial_ms"] > 0
        for m in (8, 10, 12, 16):
            assert kernels[f"apply_clifford_m{m}_ms"] > 0
        for m in (8, 12, 16):
            assert kernels[f"sample_clifford_m{m}_us"] > 0
        for name in ("trial", "verify", "forge", "keygen", "sign"):
            assert kernels[f"truesig_{name}_d7k3_ms"] > 0
        assert kernels["pure_state_d7n5_us"] > 0
        assert "truesig_trial_d7k3_minflt" in kernels
        assert "truesig_verify_d7k3_minflt" in kernels
        for b in (16, 32, 64):
            assert kernels[f"wc_check_b{b}_us"] > 0


def test_bench_record_label_needs_out():
    # without --out a record has no file to go to; the script refuses before it runs anything
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--label", "x"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert "--out is required" in proc.stderr


def test_bench_record_kernel_pairs_needs_against():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--kernel-pairs", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert "--against" in proc.stderr


def test_kernel_pair_summary(monkeypatch):
    # canned kernel figures, no subprocess: per figure, each side's median and
    # the pairs each side won, lower winning and ties counting for neither
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from bench_record import kernel_pair_summary

    ours = [{"numpy": "2.0", "forge_ms": f, "faults": 0} for f in (1.0, 3.0, 2.0, 5.0)]
    theirs = [{"numpy": "2.0", "forge_ms": f, "faults": 0} for f in (2.0, 3.0, 4.0, 4.0)]
    assert kernel_pair_summary(list(zip(ours, theirs))) == {
        "forge_ms": {"checkout_median": 2.5, "against_median": 3.5, "checkout_won": 2, "against_won": 1},
        "faults": {"checkout_median": 0, "against_median": 0, "checkout_won": 0, "against_won": 0},
    }


def test_mutant_is_killed():
    # one cheap mutant end to end; the whole list runs on demand, not in this suite
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mutants.py"), "truesig_p_pair_ignores_shipped_pair"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "truesig_p_pair_ignores_shipped_pair: killed\n"


def test_mutants_are_current(monkeypatch):
    # a mutant whose text moved, or whose test was renamed, fails only a
    # manual run of the script; this reads the list and runs no mutant
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from mutants import MUTANTS

    for m in MUTANTS:
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.name
        for test_id in m.tests:
            path, *_, name = test_id.split("::")
            tree = ast.parse((ROOT / path).read_text())
            defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
            assert name.split("[")[0] in defined, f"{m.name}: {test_id}"


def test_tracer_names_resolve(monkeypatch):
    # a traced name deleted from qsiglab would otherwise break only a traced bench run
    monkeypatch.syspath_prepend(str(ROOT / "qsigbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    homes = {m: importlib.import_module(f"qsiglab.{m}") for m in tracer.TRACED}
    for m, funcs in tracer.TRACED.items():
        for f in funcs:
            assert callable(getattr(homes[m], f, None)), f"{m}.{f}"
    modules = [importlib.import_module("qsiglab")] + [importlib.import_module(f"qsiglab.{m}") for m in tracer.PACKAGE_MODULES]
    before = [dict(vars(mod)) for mod in modules]
    tr = tracer.Tracer()
    tr.install()
    try:
        for m, funcs in tracer.TRACED.items():
            for f in funcs:
                assert getattr(homes[m], f) is not before[modules.index(homes[m])][f], f"{m}.{f} not wrapped"
    finally:
        tr.uninstall()
    for mod, names in zip(modules, before):
        assert vars(mod).keys() == names.keys()
        for attr, value in names.items():
            assert vars(mod)[attr] is value, f"{mod.__name__}.{attr} not restored"
