"""Acceptance gate: every stated claim checked at its stated tolerance.

Each test prints one visible verdict line (bypassing capture) so a plain
pytest run shows the per-criterion outcome at a glance. Grid sweeps skip
(d=5, k=3), which violates the scheme precondition d >= 2k, and say so.
"""
import itertools
import sys

import numpy as np
import pytest

import _verdicts

from qsiglab.arbitrated import SessionConfig, run_session
from qsiglab.attacks import Scenario, SCENARIOS, canonical_report_json, run_scenario, three_sigma_bound
from qsiglab.authcrypto import qotp
from qsiglab.fieldcode import check_mds, decode_bijection, gen_functionals, parity_constraints
from qsiglab.qsim import derive_seed, fidelity, make_state, new_rng, sample_random_pure
from qsiglab.truesig import decode, forge, keygen, sign

from _helpers import evaluate

GRID = [(5, 2), (5, 3), (7, 2), (7, 3)]
VALID = [(d, k) for d, k in GRID if d >= 2 * k]


def _say(num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" | {detail}" if detail else ""
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}{tail}"
    _verdicts.LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)  # visible live under -s
    assert ok, f"criterion {num}: {label}{tail}"


def _note(text: str) -> None:
    _verdicts.LINES.append(f"    {text}")
    print(f"    {text}", file=sys.__stdout__, flush=True)


def _random_message(d: int, rng) -> np.ndarray:
    amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return amps / np.linalg.norm(amps)


def test_criterion_01_forgery_acceptance():
    details = []
    ok = True
    for d, k in GRID:
        if (d, k) not in VALID:
            _note(f"criterion 01: skipping d={d}, k={k} (needs d >= 2k)")
            continue
        elapsed = 0.0
        for mode in ("referee", "protocol"):
            rep = run_scenario(Scenario("truesig_forgery", {"d": d, "k": k, "mode": mode}, 500, 0))
            elapsed += rep.wall_time
            ok = ok and rep.accept_rate == 1.0
            details.append(f"d{d}k{k}/{mode}={rep.accept_rate}")
        ok = ok and elapsed < 60.0
        details.append(f"d{d}k{k} {elapsed:.1f}s")
    _say(1, "forgery accepted in both regimes, 500 trials per config", ok, " ".join(details))


def test_criterion_02_forged_equals_fresh():
    worst = 0.0
    rng = new_rng(2026)
    pairs_per = (34, 33, 33)
    for (d, k), pairs in zip(VALID, pairs_per):
        keys = keygen(d, k, 81 + d + k)
        for _ in range(pairs):
            psi = _random_message(d, rng)
            psi2 = _random_message(d, rng)
            bundle = sign(keys, psi, make_state(d, 1, psi))
            copy2 = make_state(d, 1, psi2)
            forged = forge(keys.verifying, bundle, psi2, copy2)
            fresh = sign(keys, psi2, copy2)
            worst = max(worst, abs(fidelity(forged.s_state, fresh.s_state) - 1.0))
    _say(2, "forged signature identical to a fresh one, 100 pairs", worst <= 1e-9, f"max |1-F| = {worst:.2e}")


def test_criterion_03_decode_oracle():
    worst = 0.0
    for d, k in GRID:
        if (d, k) not in VALID:
            _note(f"criterion 03: skipping d={d}, k={k} (needs d >= 2k)")
            continue
        keys = keygen(d, k, 37 + d + k)
        fm = keys.signing
        out_rows = keys.verifying.decode.out_indices
        rng = new_rng(1000 * d + k)
        for _ in range(50):
            psi = _random_message(d, rng)
            decoded = decode(keys, sign(keys, psi, make_state(d, 1, psi)).s_state)
            oracle = np.zeros(d ** (2 * k - 1), dtype=np.complex128)
            for x in itertools.product(range(d), repeat=k):
                y = evaluate(fm, list(x))
                label = [x[0]] + [int(y[j]) for j in out_rows] + [int(y[j]) for j in range(k + 1, 2 * k)]
                idx = 0
                for v in label:
                    idx = idx * d + v
                oracle[idx] = psi[x[0]] * d ** (-(k - 1) / 2)
            worst = max(worst, float(np.abs(decoded.amps - oracle).max()))
    _say(3, "decode output equals the reparametrized-sum oracle", worst <= 1e-9, f"max dev = {worst:.2e}")


def test_criterion_04_arbitrated_completeness():
    rep = run_scenario(Scenario("honest_arbitrated", {"n": 2, "t": 4}, 500, 0))
    worst = 0.0
    for i in range(60):
        tr = run_session(SessionConfig(n=2, t=4, mode="referee", seed=derive_seed(0, "trial", i)))
        worst = max(worst, abs((tr.verdict.recovered_fidelity or 0.0) - 1.0))
    ok = rep.accept_rate == 1.0 and worst <= 1e-9
    _say(4, "honest arbitrated sessions all accept and recover", ok,
         f"rate={rep.accept_rate} over 500, max |1-F| = {worst:.2e} over 60")


def test_criterion_05_tamper_detection():
    rep4 = run_scenario(Scenario("eve_pauli_tamper", {"t": 4}, 2000, 0))
    bound = three_sigma_bound(2.0**-4, 2000)
    rep2 = run_scenario(Scenario("eve_pauli_tamper", {"t": 2}, 2000, 0))
    rep6 = run_scenario(Scenario("eve_pauli_tamper", {"t": 6}, 400, 0))
    ok = rep4.accept_rate <= bound and rep6.accept_rate <= rep2.accept_rate
    _say(5, "random Pauli tamper caught below the trap bound, monotone in t", ok,
         f"rate(t=4)={rep4.accept_rate:.4g} <= {bound:.4g}; "
         f"rate(t=6)={rep6.accept_rate:.4g} <= rate(t=2)={rep2.accept_rate:.4g}")


def test_criterion_06_contrast():
    forgery = run_scenario(Scenario("truesig_forgery", {}, 500, 0))
    pauli = run_scenario(Scenario("bob_pauli_forgery", {"t": 4}, 2000, 0))
    bound = three_sigma_bound(2.0**-4, 2000)
    ok = forgery.accept_rate == 1.0 and pauli.accept_rate <= bound
    _say(6, "stand-alone scheme forged at rate 1.0 while the arbitrated one resists", ok,
         f"truesig={forgery.accept_rate}, bob_pauli={pauli.accept_rate:.4g} <= {bound:.4g}")


def test_criterion_07_mac_bound():
    rep = run_scenario(Scenario("mac_forgery", {"b": 16}, 100_000, 0))
    bound = three_sigma_bound(2.0**-16, 100_000)
    ok = rep.accept_rate <= bound and rep.wall_time < 30.0
    _say(7, "uniform tag guess stays below 2^-16 + 3 sigma in under 30 s", ok,
         f"rate={rep.accept_rate:.3g} <= {bound:.3g}, {rep.wall_time:.1f}s")


def test_criterion_08_qotp_mixing():
    worst = 0.0
    for d in (2, 3, 5, 7):
        rng = new_rng(d)
        for _ in range(3):
            st = sample_random_pure(d, 1, rng)
            avg = np.zeros((d, d), dtype=np.complex128)
            for a in range(d):
                for b in range(d):
                    enc = qotp(st, np.array([[a, b]]), "encrypt")
                    avg += np.outer(enc.amps, enc.amps.conj())
            avg /= d * d
            worst = max(worst, float(np.abs(avg - np.eye(d) / d).max()))
    _say(8, "exhaustive key average is exactly maximally mixed", worst <= 1e-9, f"max dev = {worst:.2e}")


def test_criterion_09_deterministic_reports():
    trials = {
        "honest_arbitrated": 3,
        "eve_pauli_tamper": 3,
        "bob_pauli_forgery": 3,
        "wrong_key_binding": 3,
        "honest_truesig": 5,
        "truesig_forgery": 5,
        "truesig_random_substitution": 5,
        "mac_forgery": 50,
        "qotp_mixing": 2,
    }
    stale = []
    for name in SCENARIOS:
        a = canonical_report_json(run_scenario(Scenario(name, {}, trials[name], 17)))
        b = canonical_report_json(run_scenario(Scenario(name, {}, trials[name], 17)))
        if a != b:
            stale.append(name)
    _say(9, "every scenario re-run is byte-identical", not stale,
         f"checked all {len(trials)} scenarios" + (f"; mismatches: {stale}" if stale else ""))


def test_criterion_10_fieldcode_exhaustives():
    checked = 0
    ok = True
    for d in (5, 7, 11):
        for k in (2, 3):
            if d < 2 * k:
                _note(f"criterion 10: skipping d={d}, k={k} (needs d >= 2k)")
                continue
            grid = np.stack(np.meshgrid(*[np.arange(d)] * k, indexing="ij"), axis=-1).reshape(-1, k)
            for tail in itertools.combinations(range(1, d), 2 * k - 1):
                fm = gen_functionals(d, k, [0, *tail])
                ok = ok and check_mds(fm)
                bij = decode_bijection(fm, tuple(range(1, k + 1)))
                ok = ok and sorted(bij.forward_table) == list(range(d**k))
                cons = np.array(parity_constraints(fm).vectors, dtype=np.int64)
                y_all = grid @ np.array(fm.rows[1:], dtype=np.int64).T % d
                ok = ok and not ((y_all @ cons.T) % d).any()
                checked += 1
            # every admissible input subset stays bijective on the canonical instance
            fm = gen_functionals(d, k, list(range(2 * k)))
            for subset in itertools.combinations(range(1, 2 * k), k):
                bij = decode_bijection(fm, subset)
                ok = ok and sorted(bij.forward_table) == list(range(d**k))
    _say(10, "MDS, bijectivity, and annihilation hold on every instance", ok,
         f"{checked} Vandermonde instances across the d x k grid")
