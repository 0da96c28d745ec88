"""Correctness checks on a workload's outputs.

``op_ok`` holds for every single operation: what the scenario must produce
every time. ``run_checks`` judges the whole run, either against a reference
computed in ``refs`` or against a property the method must have; it never
compares with a stored copy of earlier output. The sample checks replay the
first trials of the run outside the timed loop.
"""
from __future__ import annotations

import random

import numpy as np

import refs
from qsiglab.arbitrated import FAILURE_STAGES, SessionConfig, run_session
from qsiglab.attacks import Report
from qsiglab.authcrypto import LinkKey, MacTag, wc_check, wc_tag
from qsiglab.qsim import PureState, new_rng, sample_random_pure
from qsiglab.truesig import forge, keygen, sign

# Two-sided exact intervals are taken at this confidence, 1 - ALPHA: a working
# program fails a statistical check in about one run of a million.
ALPHA = 1e-6
FIDELITY_TOL = 1e-9
SAMPLE_OPS = 3  # operations replayed by the sample checks


def _trial_seed(op_seed: int, trial: int) -> int:
    return refs.derive_seed(op_seed, "trial", trial)


def op_ok(workload: str, report: Report) -> bool:
    """What one operation must produce every time."""
    stages = report.failure_stages
    if sum(stages.values()) != report.trials or len(report.verdicts) != report.trials:
        return False
    if workload in ("session_honest", "truesig_forgery_d7k3"):
        return stages == {"none": report.trials}
    if workload == "session_tamper_t6":
        return set(stages) <= set(FAILURE_STAGES) and report.accept_count == stages.get("none", 0)
    if workload == "mac_forgery_b16":
        return set(stages) <= {"none", "tag_mismatch"} and report.accept_count == stages.get("none", 0)
    raise ValueError(f"unknown workload {workload!r}")


def _rate_check(name: str, hits: int, n: int, p0: float, two_sided: bool) -> tuple[str, bool, str]:
    if n == 0:
        return name, False, "no operation completed"
    lo, hi = refs.clopper_pearson(hits, n, ALPHA)
    ok = lo <= p0 <= hi if two_sided else lo <= p0
    kind = "in" if two_sided else "lower limit <= p0 of"
    return name, ok, f"{hits}/{n}; p0 = {p0:.6g} {kind} [{lo:.6g}, {hi:.6g}] at confidence 1 - {ALPHA:g}"


def _honest_fidelity(params: dict, seeds: list[int]) -> tuple[str, bool, str]:
    worst = 0.0
    for s in seeds[:SAMPLE_OPS]:
        cfg = SessionConfig(n=params["n"], t=params["t"], mode=params["mode"], seed=_trial_seed(s, 0), b=params["b"])
        tr = run_session(cfg)
        rec = tr.verdict.recovered_message
        if not tr.verdict.accepted or rec is None:
            return "recovered_fidelity", False, f"session seed {cfg.seed} accepted={tr.verdict.accepted}, recovered={rec is not None}"
        fid = abs(np.vdot(np.asarray(tr.message.amps), np.asarray(rec.amps))) ** 2
        worst = max(worst, abs(fid - 1.0))
    return "recovered_fidelity", worst <= FIDELITY_TOL, f"max |F - 1| = {worst:.3g} over {min(len(seeds), SAMPLE_OPS)} sessions"


def _forgery_fidelity(params: dict, seeds: list[int]) -> tuple[str, bool, str]:
    d, k = params["d"], params["k"]
    worst = 0.0
    for s in seeds[:SAMPLE_OPS]:
        tseed = _trial_seed(s, 0)
        keys = keygen(d, k, refs.derive_seed(tseed, "keys"))
        rng = new_rng(refs.derive_seed(tseed, "rng"))
        psi = sample_random_pure(d, 1, rng)
        bundle = sign(keys, psi.amps, PureState(d, 1, psi.amps))
        psi2 = sample_random_pure(d, 1, rng)
        forged = forge(keys.verifying, bundle, psi2.amps, PureState(d, 1, psi2.amps))
        ref = np.array(refs.truesig_encode(keys.signing.rows.tolist(), d, k, psi2.amps.tolist()))
        fid = abs(np.vdot(ref, np.asarray(forged.s_state.amps))) ** 2
        worst = max(worst, abs(fid - 1.0), abs(np.vdot(ref, ref).real - 1.0))
    return "forged_vs_reference", worst <= FIDELITY_TOL, f"max |F - 1| = {worst:.3g} over {min(len(seeds), SAMPLE_OPS)} forgeries"


def _mac_reference(params: dict, seeds: list[int]) -> tuple[str, bool, str]:
    rnd = random.Random(seeds[0])
    compared = 0
    for s in seeds[:SAMPLE_OPS]:
        for trial in range(8):
            link_seed = _trial_seed(s, trial)
            key = LinkKey("victim", link_seed).mac_key(params["b"])
            for pad_index in range(3):
                message = rnd.randbytes(rnd.randrange(0, 34))
                want = refs.mac_tag(refs.mac_key_seed(link_seed), message, pad_index)
                got = wc_tag(key, message, pad_index)
                if got.value != want or not wc_check(key, message, MacTag(want, params["b"], pad_index)):
                    return "mac_reference", False, f"link seed {link_seed}, pad {pad_index}: wc_tag {got.value:#06x}, reference {want:#06x}"
                compared += 1
    return "mac_reference", True, f"{compared} tags equal the reference MAC"


def run_checks(workload: str, params: dict, reports: list[Report], seeds: list[int]) -> list[tuple[str, bool, str]]:
    """Run-level checks over the reports of the operations that did not fail and
    the scenario seeds of every operation attempted."""
    n = sum(r.trials for r in reports)
    accepted = sum(r.accept_count for r in reports)
    if workload == "session_honest":
        return [_honest_fidelity(params, seeds)]
    if workload == "session_tamper_t6":
        p, t = 2 * params["n"], params["t"]
        p_inner = 1.0 - (4**p * 2**t - 1) / (4 ** (p + t) - 1)
        inner = sum(r.failure_stages.get("arb_auth_inner", 0) for r in reports)
        return [
            _rate_check("stopped_at_arb_auth_inner", inner, n, p_inner, two_sided=True),
            _rate_check("accept_rate", accepted, n, 2.0 ** -t, two_sided=False),
        ]
    if workload == "truesig_forgery_d7k3":
        return [_forgery_fidelity(params, seeds)]
    if workload == "mac_forgery_b16":
        return [
            _rate_check("accept_rate", accepted, n, 2.0 ** -params["b"], two_sided=False),
            _mac_reference(params, seeds),
        ]
    raise ValueError(f"unknown workload {workload!r}")
