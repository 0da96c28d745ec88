"""Signature scheme tests: encoding oracle, verification, and the forgery path."""
import dataclasses
import itertools

import numpy as np
import pytest

from qsiglab import truesig
from qsiglab.qsim import (
    apply_gate,
    extract_factor,
    fidelity,
    make_state,
    new_rng,
    reduced_density,
    sample_random_pure,
    symmetric_subspace_measure,
    tensor,
)
from qsiglab.truesig import (
    FourStepVerdict,
    SignedBundle,
    TrueSigKeys,
    VerifyingKey,
    canonical_omega,
    decode,
    failed_step,
    forge,
    keygen,
    sign,
    verify,
)

from _helpers import basis_state, clock_gate, shift_gate

CONFIGS = [(5, 2), (7, 2), (7, 3)]


def _random_message(d: int, seed: int):
    rng = new_rng(seed)
    amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return amps / np.linalg.norm(amps)


def _bundle(d: int, k: int, seed: int) -> tuple[TrueSigKeys, SignedBundle, np.ndarray]:
    keys = keygen(d, k, seed)
    psi = _random_message(d, seed + 1)
    bundle = sign(keys, psi, make_state(d, 1, psi))
    return keys, bundle, psi


# ---------------------------------------------------------------------------
# key generation


def test_keygen_requires_redundancy():
    with pytest.raises(ValueError):
        keygen(5, 1, 0)


def _points(keys: TrueSigKeys) -> tuple[int, ...]:
    """Evaluation points of the functional stack: row i is (1, beta_i, ...)."""
    return tuple(int(b) for b in keys.signing.rows[:, 1])


def test_keygen_deterministic_and_shaped():
    a, b = keygen(7, 3, 42), keygen(7, 3, 42)
    assert _points(a) == _points(b)
    assert a.d == 7 and a.k == 3
    assert a.verifying.decode.in_subset == (1, 2, 3)
    assert len(_points(a)) == 6
    assert _points(a)[0] == 0
    assert len(set(_points(a))) == 6


def test_keygen_seed_changes_points():
    assert _points(keygen(11, 3, 1)) != _points(keygen(11, 3, 2))


# ---------------------------------------------------------------------------
# signing against an independent per-point oracle


@pytest.mark.parametrize("d,k", CONFIGS)
def test_signed_state_matches_pointwise_oracle(d, k):
    keys = keygen(d, k, 17)
    fm = keys.signing
    for trial in range(6):
        psi = _random_message(d, 300 + trial)
        bundle = sign(keys, psi, make_state(d, 1, psi))
        oracle = np.zeros(d ** (2 * k - 1), dtype=np.complex128)
        for x in itertools.product(range(d), repeat=k):
            coords = fm.evaluate(list(x))[1:]  # y_1 .. y_{2k-1}
            idx = 0
            for y in coords:
                idx = idx * d + int(y)
            oracle[idx] = psi[x[0]] * d ** (-(k - 1) / 2)
        assert np.abs(bundle.s_state.amps - oracle).max() < 1e-9


def test_signed_state_is_normalized():
    for d, k in CONFIGS:
        _, bundle, _ = _bundle(d, k, 5)
        assert abs(np.linalg.norm(bundle.s_state.amps) - 1.0) < 1e-12


def test_sign_validates_copy_register():
    keys = keygen(5, 2, 0)
    psi = _random_message(5, 1)
    with pytest.raises(ValueError):
        sign(keys, psi, basis_state(3, 1, [0]))
    with pytest.raises(ValueError):
        sign(keys, psi, basis_state(5, 2, [0, 0]))


# ---------------------------------------------------------------------------
# decoding


@pytest.mark.parametrize("d,k", CONFIGS)
def test_decode_separates_message_and_reference_pairs(d, k):
    keys, bundle, psi = _bundle(d, k, 9)
    decoded = decode(keys, bundle.s_state)
    msg, cur = extract_factor(decoded, [0])
    assert fidelity(msg, make_state(d, 1, psi)) > 1 - 1e-9
    omega = canonical_omega(d)
    # after dropping the message, pair halves sit at (j, j + half) for half = k-1-i
    for i in range(k - 2):
        pair, cur = extract_factor(cur, [0, k - 1 - i])
        assert fidelity(pair, omega) > 1 - 1e-9
    assert fidelity(cur, omega) > 1 - 1e-9


def test_decode_accepts_verifying_key_alone():
    keys, bundle, _ = _bundle(5, 2, 11)
    via_full = decode(keys, bundle.s_state)
    via_vk = decode(keys.verifying, bundle.s_state)
    assert np.abs(via_full.amps - via_vk.amps).max() < 1e-12


def test_decode_shape_validation():
    keys = keygen(5, 2, 0)
    with pytest.raises(ValueError):
        decode(keys, basis_state(5, 2, [0, 0]))


# ---------------------------------------------------------------------------
# verification, honest path


@pytest.mark.parametrize("d,k", CONFIGS)
@pytest.mark.parametrize("mode", ["referee", "protocol"])
def test_honest_bundle_verifies(d, k, mode):
    keys, bundle, _ = _bundle(d, k, 23)
    verdict = verify(keys, bundle, mode, rng=new_rng(1))
    assert verdict.overall
    assert verdict.mode == mode
    assert all(s == 0 for s in verdict.step1_syndrome)
    assert len(verdict.step1_syndrome) == k - 1
    assert failed_step(verdict) == "none"


def test_verify_with_verifying_key_alone():
    keys, bundle, _ = _bundle(7, 2, 29)
    assert verify(keys.verifying, bundle, "referee").overall


def test_verify_input_validation():
    keys, bundle, _ = _bundle(5, 2, 31)
    with pytest.raises(ValueError):
        verify(keys, bundle, "oracle")
    with pytest.raises(ValueError):
        verify(keys, bundle, "protocol")  # no rng
    bad = dataclasses.replace(bundle, s_state=basis_state(5, 2, [0, 0]))
    with pytest.raises(ValueError):
        verify(keys, bad, "referee")
    bad_ref = dataclasses.replace(bundle, omega_pair=basis_state(5, 1, [0]))
    with pytest.raises(ValueError):
        verify(keys, bad_ref, "referee")


# ---------------------------------------------------------------------------
# verification, dishonest paths


def test_random_substitution_fails_step1():
    keys, bundle, _ = _bundle(5, 2, 37)
    rng = new_rng(38)
    for _ in range(15):
        fake = dataclasses.replace(bundle, s_state=sample_random_pure(5, 3, rng))
        verdict = verify(keys, fake, "referee")
        assert not verdict.overall
        assert failed_step(verdict) == "step1"


def test_phase_tamper_passes_step1_fails_step3():
    # a clock gate on a pair register commutes with the parity syndrome but
    # breaks the reference pair in both inspection regimes
    keys, bundle, _ = _bundle(5, 2, 41)
    tampered = dataclasses.replace(
        bundle, s_state=apply_gate(bundle.s_state, clock_gate(5), [2])
    )
    for mode, rng in (("referee", None), ("protocol", new_rng(2))):
        verdict = verify(keys, tampered, mode, rng=rng)
        assert not verdict.overall
        assert all(s == 0 for s in verdict.step1_syndrome)
        assert failed_step(verdict) == "step3"


def test_copy_mismatch_fails_step4_referee():
    keys, bundle, psi = _bundle(5, 2, 43)
    other = np.zeros(5, dtype=np.complex128)
    other[np.argmin(np.abs(psi))] = 1.0  # near-orthogonal replacement
    swapped = dataclasses.replace(bundle, p_copy=make_state(5, 1, other))
    verdict = verify(keys, swapped, "referee")
    assert not verdict.overall
    assert failed_step(verdict) == "step4"


def test_copy_mismatch_protocol_accepts_at_overlap_rate():
    # the physical equality test accepts a substituted copy with prob (1+F)/2
    keys = keygen(5, 2, 47)
    psi = np.zeros(5, dtype=np.complex128)
    psi[0] = 1.0
    orth = np.zeros(5, dtype=np.complex128)
    orth[1] = 1.0
    bundle = sign(keys, psi, make_state(5, 1, psi))
    swapped = dataclasses.replace(bundle, p_copy=make_state(5, 1, orth))
    rng = new_rng(48)
    accepts = sum(verify(keys, swapped, "protocol", rng=rng).overall for _ in range(60))
    assert 15 <= accepts <= 45  # F = 0, so expect about half


# ---------------------------------------------------------------------------
# protocol-mode step 4 against the joint state cur (x) copy


class _AcceptEveryDraw:
    """Stands in for an rng so that every sampled test takes outcome 0."""

    def random(self) -> float:
        return 0.0


def _joint_step4(cur, k, bundle, rng):
    """Step 4 composed from qsim's generic measurements on cur (x) copy: the
    swap test, then the shipped pair's weight in the reduced state of the
    post-state. Returns the verdict and the two accept probabilities (the
    second is None when the swap test rejects)."""
    rec = symmetric_subspace_measure(tensor(cur, bundle.p_copy), [0], [2 * k - 1], rng)
    if rec.outcome != 0:
        return False, 1.0 - rec.probability, None
    rho = reduced_density(rec.post_state, [1, k])
    ref = np.outer(bundle.omega_pair.amps, bundle.omega_pair.amps.conj())
    p_pair = min(max((1.0 + float(np.trace(rho @ ref).real)) / 2.0, 0.0), 1.0)
    return bool(rng.random() < p_pair), rec.probability, p_pair


def _step4_bundles(d, k):
    """Honest, forged, randomly substituted, and honest with another copy
    (whose swap test is not certain, so the general form applies)."""
    keys, honest, _ = _bundle(d, k, 800 + d + k)
    other = _random_message(d, 810 + d + k)
    rng = new_rng(820 + d + k)
    return keys, {
        "honest": honest,
        "forged": forge(keys.verifying, honest, other, make_state(d, 1, other)),
        "substituted": dataclasses.replace(honest, s_state=sample_random_pure(d, 2 * k - 1, rng)),
        "other copy": dataclasses.replace(honest, p_copy=make_state(d, 1, other)),
    }


@pytest.mark.parametrize("d,k", [(5, 2), (7, 3), (11, 2)])
def test_step4_probabilities_match_joint_state(d, k):
    keys, bundles = _step4_bundles(d, k)
    for name, bundle in bundles.items():
        cur = decode(keys, bundle.s_state)  # any state can meet step 4 here
        _, p_swap, p_pair = _joint_step4(cur, k, bundle, _AcceptEveryDraw())
        got = truesig._equality_probabilities(cur, k, bundle)
        assert abs(got[0] - p_swap) <= 1e-12, name
        assert abs(got[1] - p_pair) <= 1e-12, name


@pytest.mark.parametrize("d,k", [(5, 2), (7, 3), (11, 2)])
def test_step4_verdicts_and_draws_match_joint_state(d, k, monkeypatch):
    keys, bundles = _step4_bundles(d, k)
    closed_form = truesig._equality_probabilities
    entry = {}

    def recording(cur, k_, bundle):
        entry.update(cur=cur, state=rng.bit_generator.state)  # a fresh dict
        return closed_form(cur, k_, bundle)

    monkeypatch.setattr(truesig, "_equality_probabilities", recording)
    outcomes = set()
    for name, bundle in bundles.items():
        for seed in range(6):
            entry.clear()
            rng = new_rng(seed)
            verdict = verify(keys, bundle, "protocol", rng=rng)
            if not entry:  # stopped before step 4
                assert failed_step(verdict) in ("step1", "step3"), name
                continue
            replay = new_rng()
            replay.bit_generator.state = entry["state"]
            ok4, _, p_pair = _joint_step4(entry["cur"], k, bundle, replay)
            assert verdict.step4_equality == verdict.overall == ok4, (name, seed)
            assert replay.bit_generator.state == rng.bit_generator.state, (name, seed)
            outcomes.add((name, p_pair is not None, ok4))
    assert ("honest", True, True) in outcomes and ("forged", True, True) in outcomes
    assert ("other copy", False, False) in outcomes  # the swap test rejected
    assert ("other copy", True, True) in outcomes or ("other copy", True, False) in outcomes


def test_omega_reference_mismatch_fails_step4():
    keys, bundle, _ = _bundle(5, 2, 53)
    shifted = apply_gate(bundle.omega_pair, shift_gate(5), [0])
    swapped = dataclasses.replace(bundle, omega_pair=shifted)
    verdict = verify(keys, swapped, "referee")
    assert not verdict.overall
    assert failed_step(verdict) == "step4"


def test_failed_step_mapping():
    v = lambda s1, s2, s3, s4, ok: FourStepVerdict(s1, s2, s3, s4, ok, "referee")
    assert failed_step(v((1,), False, False, False, False)) == "step1"
    assert failed_step(v((0,), False, False, False, False)) == "step2"
    assert failed_step(v((0,), True, False, False, False)) == "step3"
    assert failed_step(v((0,), True, True, False, False)) == "step4"
    assert failed_step(v((0,), True, True, True, True)) == "none"


# ---------------------------------------------------------------------------
# forgery


@pytest.mark.parametrize("d,k", CONFIGS)
def test_forgery_passes_both_regimes(d, k):
    keys, bundle, _ = _bundle(d, k, 59)
    psi_prime = _random_message(d, 600 + d + k)
    forged = forge(keys.verifying, bundle, psi_prime, make_state(d, 1, psi_prime))
    assert verify(keys, forged, "referee").overall
    assert verify(keys, forged, "protocol", rng=new_rng(3)).overall


@pytest.mark.parametrize("d,k", CONFIGS)
def test_forged_equals_freshly_signed(d, k):
    keys, bundle, _ = _bundle(d, k, 61)
    psi_prime = _random_message(d, 700 + d + k)
    copy = make_state(d, 1, psi_prime)
    forged = forge(keys.verifying, bundle, psi_prime, copy)
    fresh = sign(keys, psi_prime, copy)
    f = fidelity(forged.s_state, fresh.s_state)
    assert abs(f - 1.0) < 1e-9
    assert np.abs(forged.s_state.amps - fresh.s_state.amps).max() < 1e-9


def test_forge_refuses_the_signing_key():
    keys, bundle, _ = _bundle(5, 2, 67)
    psi_prime = _random_message(5, 68)
    with pytest.raises(TypeError):
        forge(keys, bundle, psi_prime, make_state(5, 1, psi_prime))


def test_forge_replaces_only_the_message():
    # the residual pairs of the forged state still verify, showing the attack
    # touches nothing it cannot reconstruct
    keys, bundle, _ = _bundle(7, 3, 71)
    psi_prime = _random_message(7, 72)
    forged = forge(keys.verifying, bundle, psi_prime, make_state(7, 1, psi_prime))
    decoded = decode(keys.verifying, forged.s_state)
    msg, _ = extract_factor(decoded, [0])
    assert fidelity(msg, make_state(7, 1, psi_prime)) > 1 - 1e-9
