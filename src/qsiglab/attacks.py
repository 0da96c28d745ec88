"""Adversary scenarios over both schemes, with reproducible reports.

Each scenario runs independent trials (per-trial seeds derived from the
scenario seed) and produces a Report whose canonical JSON bytes are a pure
function of (name, params, trials, seed): wall-clock time is recorded on
the report object but kept out of the canonical serialization, so byte
identity across re-runs is meaningful.

The two headline regimes face opposite directions. Against the arbitrated
protocol every channel attack here stays below its detection bound; against
the stand-alone scheme the decode-replace-reencode attack is expected to
pass verification at rate 1.0. The regime check on each report encodes the
expected side of the inequality, so a "PASS" on truesig_forgery means the
attack worked, as it should.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, replace as d_replace
from typing import Callable

import numpy as np

from .arbitrated import SessionConfig, run_session, setup, signing_ops
from .authcrypto import LinkKey, MacTag, qotp, wc_check
from .qsim import PureState, apply_gate, derive_seed, new_rng, pauli_gate, sample_random_pure
from .truesig import SignedBundle, failed_step, forge, keygen, sign, verify

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# scenario plumbing


@dataclass(frozen=True)
class Scenario:
    name: str
    params: dict
    trials: int
    seed: int


@dataclass
class Report:
    scenario_name: str
    params: dict
    trials: int
    seed: int
    verdicts: list[int]
    failure_stages: dict[str, int]
    accept_count: int
    accept_rate: float
    schema_version: int
    wall_time: float  # informational only; not part of the canonical bytes


def canonical_report_json(report: Report) -> str:
    """Deterministic serialization: same scenario in, same bytes out."""
    return json.dumps(
        {
            "schema_version": report.schema_version,
            "scenario": {
                "name": report.scenario_name,
                "params": report.params,
                "trials": report.trials,
                "seed": report.seed,
            },
            "accept_count": report.accept_count,
            "accept_rate": report.accept_rate,
            "failure_stages": report.failure_stages,
            "verdicts": report.verdicts,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def three_sigma_bound(p0: float, trials: int) -> float:
    """p0 plus three binomial standard errors at p0."""
    return p0 + 3.0 * float(np.sqrt(p0 * (1.0 - p0) / trials))


# ---------------------------------------------------------------------------
# adversary hooks (arbitrated protocol)


def pauli_tamper_hook(position: str, hook_rng: np.random.Generator) -> Callable:
    """Eve: one uniformly random non-identity Pauli on one random register of
    the in-flight block at the given position. No key access."""

    def hook(pos, msg):
        if pos != position or msg.payload is None:
            return msg
        q = int(hook_rng.integers(0, msg.payload.n))
        name = "XYZ"[int(hook_rng.integers(0, 3))]
        return d_replace(msg, payload=apply_gate(msg.payload, pauli_gate(name), [q]))

    return hook


def dual_pauli_forgery_hook(n: int, hook_rng: np.random.Generator) -> Callable:
    """Forging bob: the same random non-identity n-register Pauli string on the
    signed block AND the copy block of the SIGMA payload, the move that would
    convert the signature if the signing unitary were Pauli-covariant."""

    def hook(pos, msg):
        if pos != "sigma" or msg.payload is None:
            return msg
        code = 1 + int(hook_rng.integers(0, 4**n - 1))
        st = msg.payload
        for q in range(n):
            c = (code // 4 ** (n - 1 - q)) % 4
            if c:
                gate = pauli_gate("IXYZ"[c])
                st = apply_gate(st, gate, [q])
                st = apply_gate(st, gate, [n + q])
        return d_replace(msg, payload=st)

    return hook


# ---------------------------------------------------------------------------
# per-scenario trial runners: list of (accepted, stage)


def _session_trials(params, trials, seed, hook_factory=None, doctor=None):
    out = []
    for i in range(trials):
        tseed = derive_seed(seed, "trial", i)
        cfg = SessionConfig(n=params["n"], t=params["t"], mode=params["mode"], seed=tseed, b=params["b"])
        parties = setup(cfg)
        if doctor is not None:
            doctor(parties, cfg, tseed)
        hook = hook_factory(cfg, new_rng(derive_seed(tseed, "adversary"))) if hook_factory else None
        tr = run_session(cfg, adversary_hook=hook, parties=parties)
        out.append((tr.verdict.accepted, tr.verdict.failure_stage))
    return out


def _run_honest_arbitrated(params, trials, seed):
    return _session_trials(params, trials, seed)


def _run_eve_pauli_tamper(params, trials, seed):
    position = params["position"]
    if position not in ("sigma", "y", "t_reply"):
        raise ValueError(f"position must be sigma, y, or t_reply, got {position!r}")
    return _session_trials(params, trials, seed, hook_factory=lambda cfg, rng: pauli_tamper_hook(position, rng))


def _run_bob_pauli_forgery(params, trials, seed):
    return _session_trials(params, trials, seed, hook_factory=lambda cfg, rng: dual_pauli_forgery_hook(cfg.n, rng))


def unrelated_signer(parties, cfg, tseed) -> None:
    """Doctor: the arbiter unsigns with a signing key unrelated to alice's."""
    parties.arbiter.signer = signing_ops(cfg.n, derive_seed(tseed, "unrelated_signer"))


def _run_wrong_key_binding(params, trials, seed):
    return _session_trials(params, trials, seed, doctor=unrelated_signer)


def _truesig_trials(params, trials, seed, doctor):
    d, k, mode = params["d"], params["k"], params["mode"]
    out = []
    for i in range(trials):
        tseed = derive_seed(seed, "trial", i)
        keys = keygen(d, k, derive_seed(tseed, "keys"))
        rng = new_rng(derive_seed(tseed, "rng"))
        psi = sample_random_pure(d, 1, rng)
        bundle = sign(keys, psi.amps, PureState(d, 1, psi.amps))
        bundle = doctor(keys, bundle, rng)
        verdict = verify(keys, bundle, mode, rng)
        out.append((verdict.overall, failed_step(verdict)))
    return out


def _run_honest_truesig(params, trials, seed):
    return _truesig_trials(params, trials, seed, lambda keys, bundle, rng: bundle)


def _run_truesig_forgery(params, trials, seed):
    def doctor(keys, bundle, rng):
        psi2 = sample_random_pure(keys.d, 1, rng)
        return forge(keys.verifying, bundle, psi2.amps, PureState(keys.d, 1, psi2.amps))

    return _truesig_trials(params, trials, seed, doctor)


def _run_truesig_random_substitution(params, trials, seed):
    def doctor(keys, bundle, rng):
        random_state = sample_random_pure(keys.d, 2 * keys.k - 1, rng)
        return SignedBundle(keys.d, keys.k, random_state, bundle.omega_pair, bundle.p_copy)

    return _truesig_trials(params, trials, seed, doctor)


def _run_mac_forgery(params, trials, seed):
    b = params["b"]
    rng = new_rng(derive_seed(seed, "guesses"))
    out = []
    for i in range(trials):
        key = LinkKey("victim", derive_seed(seed, "trial", i)).mac_key(b)
        message = rng.integers(0, 256, size=24, dtype=np.uint8).tobytes()
        guess = int(rng.integers(0, 2**b, dtype=np.uint64))
        ok = wc_check(key, message, MacTag(guess, b, 0))
        out.append((ok, "none" if ok else "tag_mismatch"))
    return out


def _run_qotp_mixing(params, trials, seed):
    d = params["d"]
    out = []
    for i in range(trials):
        rng = new_rng(derive_seed(seed, "trial", i))
        st = sample_random_pure(d, 1, rng)
        avg = np.zeros((d, d), dtype=np.complex128)
        for a in range(d):
            for b in range(d):
                enc = qotp(st, np.array([[a, b]]), "encrypt")
                avg += np.outer(enc.amps, enc.amps.conj())
        avg /= d * d
        ok = bool(np.abs(avg - np.eye(d) / d).max() < 1e-9)
        out.append((ok, "none" if ok else "mixing_deviation"))
    return out


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class ScenarioSpec:
    runner: Callable
    defaults: dict
    description: str
    key_access: str
    regime: Callable[[Report], tuple[bool, str]]


def _rate_equals_one(claim: str):
    def check(report: Report) -> tuple[bool, str]:
        return report.accept_rate == 1.0, f"accept_rate = 1.0 ({claim})"

    return check


def _rate_below(p0_of: Callable[[dict], float], claim: str):
    def check(report: Report) -> tuple[bool, str]:
        p0 = p0_of(report.params)
        bound = three_sigma_bound(p0, report.trials)
        return report.accept_rate <= bound, f"accept_rate <= {bound:.6g} ({claim})"

    return check


def _wrong_key_regime(report: Report) -> tuple[bool, str]:
    # the exchange test accepts a wrong signature with prob (1+F)/2, the referee only if that is >= 1 - TOL
    if report.params["mode"] == "referee":
        return report.accept_rate <= 0.01, "accept_rate <= 0.01 (referee: exchange test at 1 - TOL)"
    return report.accept_rate <= 0.9, "accept_rate <= 0.9 (single equality shot, protocol mode)"


SCENARIOS: dict[str, ScenarioSpec] = {
    "honest_arbitrated": ScenarioSpec(
        _run_honest_arbitrated,
        {"n": 2, "t": 4, "mode": "referee", "b": 16},
        "All three parties honest; sessions must accept and recover the message.",
        "none (no adversary)",
        _rate_equals_one("honest sessions always verify"),
    ),
    "eve_pauli_tamper": ScenarioSpec(
        _run_eve_pauli_tamper,
        {"n": 2, "t": 4, "mode": "referee", "b": 16, "position": "sigma"},
        "Keyless Eve applies one random Pauli to one register of an in-flight block.",
        "none; channel access at one position",
        _rate_below(lambda p: 2.0 ** -p["t"], "trap detection misses with prob about 2^-t"),
    ),
    "bob_pauli_forgery": ScenarioSpec(
        _run_bob_pauli_forgery,
        {"n": 2, "t": 4, "mode": "referee", "b": 16},
        "Bob hits signed block and copy with the same Pauli string before wrapping.",
        "bob's own keys; no alice-arbiter key material",
        _rate_below(lambda p: 2.0 ** -p["t"], "the traps catch the tamper"),
    ),
    "wrong_key_binding": ScenarioSpec(
        _run_wrong_key_binding,
        {"n": 2, "t": 4, "mode": "referee", "b": 16},
        "Arbiter strips the signature with an unrelated signing key.",
        "all keys held honestly; signing key deliberately mismatched",
        _wrong_key_regime,
    ),
    "honest_truesig": ScenarioSpec(
        _run_honest_truesig,
        {"d": 5, "k": 2, "mode": "referee"},
        "Honest sign/verify round trip of the stand-alone scheme.",
        "full key pair",
        _rate_equals_one("honest bundles always verify"),
    ),
    "truesig_forgery": ScenarioSpec(
        _run_truesig_forgery,
        {"d": 5, "k": 2, "mode": "referee"},
        "Decode a valid bundle, replace the message, re-encode, resubmit.",
        "verifying key only",
        _rate_equals_one("the decode-replace-reencode attack is expected to pass verification"),
    ),
    "truesig_random_substitution": ScenarioSpec(
        _run_truesig_random_substitution,
        {"d": 5, "k": 2, "mode": "referee"},
        "Replace the signed state with a Haar-random state (control scenario).",
        "none",
        _rate_below(lambda p: float(p["d"]) ** (1 - p["k"]), "a random state rarely even clears the syndrome"),
    ),
    "mac_forgery": ScenarioSpec(
        _run_mac_forgery,
        {"b": 16},
        "Guess a tag for a fresh message under an unseen key, uniformly.",
        "none (key never observed)",
        _rate_below(lambda p: 2.0 ** -p["b"], "a uniform guess hits with prob exactly 2^-b"),
    ),
    "qotp_mixing": ScenarioSpec(
        _run_qotp_mixing,
        {"d": 2},
        "Exhaustive key average of the one-time pad must be maximally mixed.",
        "none (information-theoretic property)",
        _rate_equals_one("the key average is exactly maximally mixed"),
    ),
}


def adversary_catalog() -> dict[str, dict]:
    """Scenario names with what each adversary sees and the expected regime."""
    return {
        name: {
            "description": spec.description,
            "key_access": spec.key_access,
            "defaults": dict(spec.defaults),
        }
        for name, spec in SCENARIOS.items()
    }


def run_scenario(scenario: Scenario) -> Report:
    """Run all trials and assemble the deterministic report."""
    if scenario.name not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario.name!r}; known: {sorted(SCENARIOS)}")
    if scenario.trials < 1:
        raise ValueError(f"need at least one trial, got {scenario.trials}")
    spec = SCENARIOS[scenario.name]
    unknown = set(scenario.params) - set(spec.defaults)
    if unknown:
        raise ValueError(f"scenario {scenario.name!r} does not take parameters {sorted(unknown)}")
    params = {**spec.defaults, **scenario.params}
    t0 = time.perf_counter()
    results = spec.runner(params, scenario.trials, scenario.seed)
    wall = time.perf_counter() - t0
    verdicts = [int(bool(a)) for a, _ in results]
    stages = Counter(stage for _, stage in results)
    count = sum(verdicts)
    return Report(
        scenario_name=scenario.name,
        params=params,
        trials=scenario.trials,
        seed=scenario.seed,
        verdicts=verdicts,
        failure_stages=dict(sorted(stages.items())),
        accept_count=count,
        accept_rate=count / scenario.trials,
        schema_version=SCHEMA_VERSION,
        wall_time=wall,
    )


def regime_check(report: Report) -> tuple[bool, str]:
    """Is this report on the expected side of its scenario's bound?"""
    return SCENARIOS[report.scenario_name].regime(report)
