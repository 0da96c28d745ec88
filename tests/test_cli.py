"""Command-line behavior: exit codes, report files, scenario listing."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qsiglab import cli
from qsiglab.attacks import SCENARIOS, Scenario, adversary_catalog, canonical_report_json, run_scenario


def test_no_arguments_prints_help_and_exits_2(capsys):
    assert cli.main([]) == 2
    assert "run" in capsys.readouterr().out


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["run"])
    assert exc.value.code == 2


def test_list_scenarios_names_everything(capsys):
    assert cli.main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert set(adversary_catalog()) == set(SCENARIOS)
    for name, entry in adversary_catalog().items():
        defaults = " ".join(f"{k}={v}" for k, v in sorted(entry["defaults"].items()))
        block = f"{name}\n    {entry['description']}\n    adversary: {entry['key_access']}\n    defaults: {defaults}\n"
        assert block in out


def test_run_success_summary(capsys, monkeypatch):
    monkeypatch.delenv("QSIGLAB_OUT_DIR", raising=False)
    code = cli.main(["run", "--scenario", "truesig_forgery", "--trials", "3", "--seed", "9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario      truesig_forgery" in out
    assert "trials        3" in out
    assert "accept_rate   1.0" in out
    assert "result        PASS" in out
    assert "(not written" in out


def test_run_writes_canonical_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.main(
        ["run", "--scenario", "mac_forgery", "--trials", "5", "--seed", "3", "--out", str(path)]
    )
    assert code == 0
    expected = canonical_report_json(run_scenario(Scenario("mac_forgery", {}, 5, 3)))
    assert path.read_text() == expected + "\n"
    data = json.loads(path.read_text())
    assert data["scenario"]["name"] == "mac_forgery"
    assert len(data["verdicts"]) == 5


def test_out_dir_environment_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QSIGLAB_OUT_DIR", str(tmp_path))
    code = cli.main(["run", "--scenario", "honest_truesig", "--trials", "2", "--seed", "7"])
    assert code == 0
    target = tmp_path / "honest_truesig_seed7.json"
    assert target.exists()
    assert json.loads(target.read_text())["scenario"]["seed"] == 7


def test_missing_report_directory_rejected_before_the_run(tmp_path, monkeypatch, capsys):
    def no_run(scenario):
        raise AssertionError("the scenario ran before the report directory was checked")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    path = tmp_path / "missing" / "r.json"
    code = cli.main(["run", "--scenario", "mac_forgery", "--trials", "2", "--out", str(path)])
    assert code == 2
    assert "does not exist" in capsys.readouterr().err
    assert not path.parent.exists()


def test_inapplicable_tunable_rejected(capsys):
    code = cli.main(["run", "--scenario", "mac_forgery", "--trials", "2", "--d", "5"])
    assert code == 2
    assert "does not take --d" in capsys.readouterr().err


def test_invalid_parameter_value_rejected(capsys):
    # 6 is not prime, so key generation refuses it
    code = cli.main(["run", "--scenario", "honest_truesig", "--trials", "2", "--d", "6"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_out_of_regime_run_exits_1(capsys, monkeypatch):
    import dataclasses

    spec = SCENARIOS["qotp_mixing"]
    forced = dataclasses.replace(spec, regime=lambda report: (False, "forced failure for the exit path"))
    monkeypatch.setitem(SCENARIOS, "qotp_mixing", forced)
    code = cli.main(["run", "--scenario", "qotp_mixing", "--trials", "1"])
    assert code == 1
    assert "result        FAIL" in capsys.readouterr().out


def test_tunables_reach_the_scenario(tmp_path):
    path = tmp_path / "r.json"
    cli.main(
        ["run", "--scenario", "honest_truesig", "--trials", "2", "--d", "7", "--k", "2", "--out", str(path)]
    )
    params = json.loads(path.read_text())["scenario"]["params"]
    assert params["d"] == 7 and params["k"] == 2


def test_module_entry_point():
    # the subprocess does not inherit pytest's pythonpath, so it is given src/
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qsiglab", "list-scenarios"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "truesig_forgery" in proc.stdout
