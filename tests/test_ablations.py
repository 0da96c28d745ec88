"""Ablation guards: every protocol mechanism has a check that fails without it.

Each test switches one mechanism off by rebinding its name in
``qsiglab.arbitrated`` and asserts that the check naming that mechanism
passes with the mechanism on and fails with it off. A check that still
passes with its mechanism off measures something else.
"""
import dataclasses

import pytest

from qsiglab import arbitrated
from qsiglab.attacks import SCENARIOS, Scenario, _session_trials, regime_check, run_scenario, unrelated_signer
from qsiglab.qsim import MeasurementRecord

SEED = 5


@pytest.mark.parametrize("mode", ["referee", "protocol"])
def test_traps_catch_a_reply_tamper(monkeypatch, mode):
    # eve's Pauli on the T_REPLY block meets only bob's trap check; at sigma
    # in referee mode the signature check would catch it with no traps at all
    scenario = Scenario("eve_pauli_tamper", {"t": 2, "mode": mode, "position": "t_reply"}, 100, SEED)
    on = run_scenario(scenario)
    assert regime_check(on)[0], on.failure_stages
    assert set(on.failure_stages) == {"none", "bob_final_auth"}

    verify = arbitrated.qauth_verify
    monkeypatch.setattr(arbitrated, "qauth_verify", lambda *args: (True, verify(*args)[1]))
    off = run_scenario(scenario)
    assert not regime_check(off)[0]
    assert off.accept_count == off.trials


def _flip_verdict(cfg, rng):
    """Eve rewrites the validity bit of the T_REPLY metadata to 1 and keeps the tag."""

    def hook(position, msg):
        if position == "t_reply" and msg.phase == arbitrated.PHASE_T_REPLY:
            return dataclasses.replace(msg, meta={**msg.meta, "r": 1})
        return msg

    return hook


def test_mac_stops_a_verdict_flip(monkeypatch):
    # the arbiter unsigns with an unrelated key and replies r = 0; only the
    # MAC on the reply metadata keeps eve's r = 1 from reaching bob's verdict
    params = SCENARIOS["wrong_key_binding"].defaults
    trials = 40

    def accept_rate():
        results = _session_trials(params, trials, SEED, hook_factory=_flip_verdict, doctor=unrelated_signer)
        return sum(accepted for accepted, _ in results) / trials, {stage for _, stage in results}

    rate, stages = accept_rate()
    assert rate <= 0.01 and stages == {"bob_auth"}  # the wrong_key_binding referee bound

    monkeypatch.setattr(arbitrated, "wc_check", lambda *args: True)
    rate, _ = accept_rate()
    assert rate > 0.01


@pytest.mark.parametrize("mode", ["referee", "protocol"])
def test_signature_check_binds_the_signing_key(monkeypatch, mode):
    scenario = Scenario("wrong_key_binding", {"mode": mode}, 100, SEED)
    on = run_scenario(scenario)
    assert regime_check(on)[0]

    # the arbiter's exchange test of the unsigned message against the copy, always accepting
    monkeypatch.setattr(
        arbitrated, "symmetric_subspace_measure", lambda state, *_: MeasurementRecord(0, 1.0, state)
    )
    off = run_scenario(scenario)
    assert not regime_check(off)[0]

