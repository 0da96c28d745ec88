"""Signature scheme tests: encoding oracle, verification, and the forgery path."""
import dataclasses
import hashlib
import itertools
import struct

import numpy as np
import pytest

from qsiglab.fieldcode import TableBijection
from qsiglab.qsim import (
    TOL,
    EntangledFactorError,
    GateMatrix,
    PureState,
    Sampled,
    apply_classical_bijection,
    apply_gate,
    extract_factor,
    fidelity,
    fourier_gate,
    make_state,
    new_rng,
    outcome_source,
    parity_labels,
    parity_measure,
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

from _helpers import basis_state, clock_gate, evaluate, shift_gate

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


def _encoding(keys: TrueSigKeys) -> TableBijection:
    """The decode run backwards: decoded labels to signed labels."""
    db = keys.verifying.decode
    return TableBijection(db.d, db.m, db.inverse_table, db.forward_table)


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
            coords = evaluate(fm, list(x))[1:]  # y_1 .. y_{2k-1}
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


@pytest.mark.parametrize("d,k", [(5, 2), (7, 3), (11, 2), (11, 3)])
def test_syndrome_is_read_from_the_decoded_pair_differences(d, k):
    # for every signed label y, C y = C[:, k:] (b - a) mod d, where a and b are
    # the decoded labels of the pairs (i, k - 1 + i): the decode solves for the
    # code point through registers 0..k-1, and C annihilates it
    n = 2 * k - 1
    y = np.indices((d,) * n).reshape(n, -1)
    for seed in range(3):
        vk = keygen(d, k, seed).verifying
        c = vk.constraints.vectors
        decoded = vk.decode.forward_table[np.ravel_multi_index(y[:k], (d,) * k)]
        a = np.stack(np.unravel_index(decoded, (d,) * k)[1:])
        assert np.array_equal(c @ y % d, c[:, k:] @ (y[k:] - a) % d)


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


@pytest.mark.parametrize("mode", ["referee", "protocol"])
@pytest.mark.parametrize("ref, other", [("omega_pair", canonical_omega(3)), ("p_copy", basis_state(3, 1, [0]))])
def test_verify_rejects_references_of_another_dimension(ref, other, mode):
    # before any test is drawn, whether or not the signed state would pass step 1
    keys, bundle, _ = _bundle(5, 2, 31)
    substituted = dataclasses.replace(bundle, s_state=sample_random_pure(5, 3, new_rng(32)))
    rng = new_rng(33)
    for signed in (bundle, substituted):
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=ref):
            verify(keys, dataclasses.replace(signed, **{ref: other}), mode, rng=rng)
        assert rng.bit_generator.state == state


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
# protocol mode against the full-state composition


class _Postselected:
    """Stands in for an rng: each parity test takes outcome 0 whenever that
    outcome is possible, so every bundle whose tests can pass reaches step 4;
    the step 4 draws come from the iterator `draws`."""

    def __init__(self, draws):
        self.draws = draws

    def choice(self, n: int, p: np.ndarray) -> int:
        return 0 if p[0] > 1e-6 else int(np.argmax(p[1:])) + 1

    def random(self) -> float:
        return next(self.draws)


def _reference_steps_1_to_3(keys, bundle, source):
    """Protocol-mode steps 1 to 3 composed from qsim's generic measurements,
    with no register contracted away: the syndrome, then each pair's a - b
    measurement and its a + b test between F (x) F and its inverse. The
    a - b outcome is taken from the referee, so it draws nothing, and it
    must be 0 with certainty: a zero syndrome already leaves a = b on every
    pair. Returns the syndrome, the step 2 and step 3 verdicts, and the
    decoded post-state."""
    vk = keys.verifying
    d, k = vk.d, vk.k
    cur, syndrome = bundle.s_state, []
    for c in vk.constraints.vectors:
        rec = parity_measure(cur, [int(v) for v in c], list(range(2 * k - 1)), source)
        cur = rec.post_state
        syndrome.append(rec.outcome)
        if rec.outcome != 0:
            return syndrome, False, False, cur
    cur = decode(vk, cur)
    ff = fourier_gate(d)
    for a, b in [(i, k - 1 + i) for i in range(1, k)]:
        rec = parity_measure(cur, [1, d - 1], [a, b], outcome_source("referee"))
        assert rec.outcome == 0 and rec.probability >= 1.0 - 1e-12, (a, b, rec.probability)
        cur = apply_gate(apply_gate(rec.post_state, ff, [a]), ff, [b])
        rec = parity_measure(cur, [1, 1], [a, b], source)
        if rec.outcome != 0:
            return syndrome, True, False, rec.post_state
        cur = apply_gate(apply_gate(rec.post_state, ff.dagger(), [a]), ff.dagger(), [b])
    return syndrome, True, True, cur


def _joint_step4(cur, k, bundle, source):
    """Step 4 on the joint state cur (x) copy: the swap test, then the shipped
    pair's weight in the reduced state of the post-state on the first pair.
    Returns the verdict and the two accept probabilities (the second is None
    when the swap test rejects)."""
    rec = symmetric_subspace_measure(tensor(cur, bundle.p_copy), [0], [2 * k - 1], source)
    if rec.outcome != 0:
        return False, 1.0 - rec.probability, None
    rho = reduced_density(rec.post_state, [1, k])
    ref = np.outer(bundle.omega_pair.amps, bundle.omega_pair.amps.conj())
    p_pair = min(max((1.0 + float(np.trace(rho @ ref).real)) / 2.0, 0.0), 1.0)
    return source.accept(p_pair), rec.probability, p_pair


def _reference_verify(keys, bundle, rng):
    """Protocol-mode verify composed from the two references above."""
    source = Sampled(rng)
    syndrome, s2, s3, cur = _reference_steps_1_to_3(keys, bundle, source)
    ok = s3 and _joint_step4(cur, keys.verifying.k, bundle, source)[0]
    return FourStepVerdict(tuple(syndrome), s2, s3, ok, ok, "protocol")


def _unitary_near_identity(d: int, m: int, eps: float, rng) -> GateMatrix:
    """exp(i eps H) for a random Hermitian H on m registers."""
    h = rng.standard_normal((d**m, d**m)) + 1j * rng.standard_normal((d**m, d**m))
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return GateMatrix(d, m, (v * np.exp(1j * eps * w)) @ v.conj().T)


def _bundle_kinds(d, k):
    """Honest and forged bundles, and ones that fail at every step, some of
    them only with some probability."""
    keys, honest, _ = _bundle(d, k, 800 + d + k)
    other = _random_message(d, 810 + d + k)
    rng = new_rng(820 + d + k)
    signed = lambda gate, targets: dataclasses.replace(honest, s_state=apply_gate(honest.s_state, gate, targets))
    # registers 0 and 2k - 2 hold a message coordinate and a pair half
    return keys, {
        "honest": honest,
        "forged": forge(keys.verifying, honest, other, make_state(d, 1, other)),
        "substituted": dataclasses.replace(honest, s_state=sample_random_pure(d, 2 * k - 1, rng)),
        "other copy": dataclasses.replace(honest, p_copy=make_state(d, 1, other)),
        "shifted omega": dataclasses.replace(honest, omega_pair=apply_gate(honest.omega_pair, shift_gate(d), [0])),
        "random omega": dataclasses.replace(honest, omega_pair=sample_random_pure(d, 2, rng)),
        "clock": signed(clock_gate(d), [2 * k - 2]),
        "unitary": signed(_unitary_near_identity(d, 2, 1.0, rng), [0, 2 * k - 2]),
        "near identity": signed(_unitary_near_identity(d, 2, 0.05, rng), [0, 2 * k - 2]),
    }


@pytest.mark.parametrize("d,k", [(5, 2), (7, 3), (11, 2)])
def test_protocol_matches_full_state_reference(d, k):
    keys, bundles = _bundle_kinds(d, k)
    seen = set()
    for name, bundle in bundles.items():
        for seed in range(6):
            rng, replay = new_rng(seed), new_rng(seed)
            verdict = verify(keys, bundle, "protocol", rng=rng)
            assert verdict == _reference_verify(keys, bundle, replay), (name, seed)
            assert rng.bit_generator.state == replay.bit_generator.state, (name, seed)
            seen.add(failed_step(verdict))
    assert seen == {"none", "step1", "step3", "step4"}


@pytest.mark.parametrize("d,k", [(5, 2), (7, 3)])
def test_protocol_step1_projection_matches_full_state_reference(d, k):
    # the honest state plus, at weight 1/2, one basis state per constraint i whose
    # syndrome is 0 before i and nonzero at i: each syndrome test is uncertain,
    # so a 0 drawn there projects, and the later tests run on the projection
    keys, bundle, _ = _bundle(d, k, 89)
    n = 2 * k - 1
    labels = [parity_labels(d, n, c, list(range(n))) for c in keys.verifying.constraints.vectors]
    off = np.zeros(d**n)
    for i in range(k - 1):
        before = np.all([row == 0 for row in labels[:i]], axis=0)
        off[np.flatnonzero(before & (labels[i] != 0))[0]] = 1.0
    amps = np.sqrt(0.5) * bundle.s_state.amps + np.sqrt(0.5) * off / np.linalg.norm(off)
    mixed = dataclasses.replace(bundle, s_state=make_state(d, n, amps))
    seen = set()
    for seed in range(40):
        rng, replay = new_rng(seed), new_rng(seed)
        verdict = verify(keys, mixed, "protocol", rng=rng)
        assert verdict == _reference_verify(keys, mixed, replay), seed
        assert rng.bit_generator.state == replay.bit_generator.state, seed
        seen.add(failed_step(verdict))
    assert seen == {"none", "step1"}


@pytest.mark.parametrize("d,k", [(5, 2), (7, 3), (11, 3)])
def test_protocol_verify_draws_2k_uniforms(d, k):
    # k - 1 syndromes, k - 1 conjugate-basis pair tests and the two equality
    # tests, each one uniform: a - b is settled by the syndrome and not drawn
    keys, honest, _ = _bundle(d, k, 97)
    other = _random_message(d, 98)
    forged = forge(keys.verifying, honest, other, make_state(d, 1, other))
    for name, bundle in (("honest", honest), ("forged", forged)):
        for seed in range(4):
            rng, replay = new_rng(seed), new_rng(seed)
            assert verify(keys, bundle, "protocol", rng=rng).overall, (name, seed)
            for _ in range(2 * k):
                replay.random()
            assert rng.bit_generator.state == replay.bit_generator.state, (name, seed)


@pytest.mark.parametrize("d,k", [(5, 2), (7, 3), (11, 2)])
def test_step4_probabilities_match_joint_state(d, k):
    # a step 4 test accepts a draw u exactly when u is below its Born
    # probability, so draws 1e-12 either side of the joint state's must differ
    keys, bundles = _bundle_kinds(d, k)
    reached = set()
    for name, bundle in bundles.items():
        _, _, s3, cur = _reference_steps_1_to_3(keys, bundle, Sampled(_Postselected(iter([]))))
        if not s3:
            continue
        _, p_swap, p_pair = _joint_step4(cur, k, bundle, Sampled(_Postselected(iter([0.0, 0.0]))))
        step4 = lambda *draws: verify(keys, bundle, "protocol", rng=_Postselected(iter(draws))).step4_equality
        assert step4(p_swap - 1e-12, 0.0) and not step4(p_swap + 1e-12, 0.0), name
        assert step4(0.0, p_pair - 1e-12) and not step4(0.0, p_pair + 1e-12), name
        reached.add(name)
    assert {"honest", "forged", "substituted", "other copy", "shifted omega", "random omega"} <= reached


@pytest.mark.parametrize("d,k", [(5, 2), (7, 3), (11, 2)])
def test_step4_verdicts_and_draws_match_joint_state(d, k):
    # every bundle whose tests can pass meets step 4, with draws from an rng
    keys, bundles = _bundle_kinds(d, k)
    outcomes = set()
    for name, bundle in bundles.items():
        _, _, s3, cur = _reference_steps_1_to_3(keys, bundle, Sampled(_Postselected(iter([]))))
        for seed in range(6):
            rng, replay = new_rng(seed), new_rng(seed)
            verdict = verify(keys, bundle, "protocol", rng=_Postselected(iter(rng.random, None)))
            if not s3:
                assert failed_step(verdict) in ("step1", "step3"), name
                continue
            ok4, _, p_pair = _joint_step4(cur, k, bundle, Sampled(replay))
            assert verdict.step4_equality == verdict.overall == ok4, (name, seed)
            assert replay.bit_generator.state == rng.bit_generator.state, (name, seed)
            outcomes.add((name, p_pair is not None, ok4))
    assert ("honest", True, True) in outcomes and ("forged", True, True) in outcomes
    assert ("other copy", False, False) in outcomes  # the swap test rejected
    assert ("random omega", True, False) in outcomes  # the pair test rejected


# ---------------------------------------------------------------------------
# the referee's threshold: a test's rejecting outcome below TOL is not seen


def _near_honest(kind: str, eps: float) -> tuple[TrueSigKeys, SignedBundle]:
    """A d = 5, k = 2 bundle on which one test rejects with probability eps
    and every other test accepts with certainty once it has passed."""
    keys, bundle, psi = _bundle(5, 2, 83)
    mix = lambda a, b, w: np.sqrt(1 - w) * a + np.sqrt(w) * b  # of orthogonal unit vectors
    s = bundle.s_state
    if kind == "syndrome":  # plus a basis state of nonzero syndrome
        off = np.eye(125)[np.flatnonzero(parity_labels(5, 3, keys.verifying.constraints.vectors[0], [0, 1, 2]))[0]]
        return keys, dataclasses.replace(bundle, s_state=make_state(5, 3, mix(s.amps, off, eps)))
    if kind == "pair":
        # decoded, plus the shifted message with a clock on a pair half (which
        # moves the pair's conjugate-basis sector): entangled at amplitude
        # sqrt(eps), far above TOL, at probability eps
        decoded = decode(keys, s)
        off = apply_gate(apply_gate(decoded, shift_gate(5), [0]), clock_gate(5), [2]).amps
        mixed = make_state(5, 3, mix(decoded.amps, off, eps))
        signed = apply_classical_bijection(mixed, _encoding(keys), [0, 1])
        return keys, dataclasses.replace(bundle, s_state=signed)
    # the equality tests reject with (1 - F)/2
    if kind == "copy":
        orth = np.eye(5)[0] - np.conj(psi[0]) * psi
        orth /= np.linalg.norm(orth)
        return keys, dataclasses.replace(bundle, p_copy=make_state(5, 1, mix(psi, orth, 2 * eps)))
    off = apply_gate(bundle.omega_pair, shift_gate(5), [0]).amps
    return keys, dataclasses.replace(bundle, omega_pair=make_state(5, 2, mix(bundle.omega_pair.amps, off, 2 * eps)))


@pytest.mark.parametrize(
    "kind, step", [("syndrome", "step1"), ("pair", "step3"), ("copy", "step4"), ("shipped pair", "step4")]
)
def test_referee_accepts_below_tol_and_rejects_above(kind, step):
    keys, below = _near_honest(kind, 0.5 * TOL)
    assert failed_step(verify(keys, below, "referee")) == "none"
    keys, above = _near_honest(kind, 2 * TOL)
    assert failed_step(verify(keys, above, "referee")) == step


@pytest.mark.parametrize("sector", [1, 2, 3, 4])
def test_referee_syndrome_names_an_outcome_with_weight(sector):
    # mostly the honest state, plus a basis state of one nonzero syndrome:
    # the referee reports that syndrome, the only one the protocol can draw
    keys, bundle, _ = _bundle(5, 2, 83)
    labels = parity_labels(5, 3, keys.verifying.constraints.vectors[0], [0, 1, 2])
    off = np.eye(125)[np.flatnonzero(labels == sector)[0]]
    amps = np.sqrt(0.9) * bundle.s_state.amps + np.sqrt(0.1) * off
    mixed = dataclasses.replace(bundle, s_state=make_state(5, 3, amps))
    verdict = verify(keys, mixed, "referee")
    assert verdict.step1_syndrome == (sector,) and failed_step(verdict) == "step1"
    drawn = {verify(keys, mixed, "protocol", rng=new_rng(seed)).step1_syndrome for seed in range(40)}
    assert drawn == {(0,), (sector,)}


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


def test_forge_refuses_a_message_entangled_with_a_pair():
    # the decoded message register of this state is entangled with the first
    # residual pair, so there is no message factor to replace
    keys, bundle, psi = _bundle(5, 2, 73)
    decoded = decode(keys, bundle.s_state)
    off = apply_gate(apply_gate(decoded, shift_gate(5), [0]), clock_gate(5), [2])
    entangled = make_state(5, 3, decoded.amps + off.amps)
    signed = apply_classical_bijection(entangled, _encoding(keys), [0, 1])
    with pytest.raises(EntangledFactorError):
        forge(keys.verifying, dataclasses.replace(bundle, s_state=signed), psi, make_state(5, 1, psi))


# one SHA-256 over, for each case, the forged signed state, the factor and rest
# that the forged state decodes to, the protocol verdict on it, and one draw of
# the rng after that verdict
_FORGERY_BYTES_DIGEST = "122967f22684880991bb95b3c146170c6a924a43614bf5030470c5a8bc6f411b"
_FORGERY_CASES = [(5, 2), (7, 2), (7, 3), (11, 2), (11, 3)]


def test_forgery_bytes_unchanged():
    h = hashlib.sha256()
    for d, k in _FORGERY_CASES:
        for seed in range(20):
            keys, rng = keygen(d, k, seed), new_rng(seed)
            psi, psi_prime = sample_random_pure(d, 1, rng), sample_random_pure(d, 1, rng)
            bundle = sign(keys, psi.amps, PureState(d, 1, psi.amps))
            forged = forge(keys.verifying, bundle, psi_prime.amps, PureState(d, 1, psi_prime.amps))
            factor, rest = extract_factor(decode(keys.verifying, forged.s_state), [0])
            verdict = verify(keys, forged, "protocol", rng=rng)
            for amps in (forged.s_state.amps, factor.amps, rest.amps):
                h.update(amps.tobytes())
            h.update(repr(verdict).encode())
            h.update(struct.pack("<d", rng.random()))
    assert h.hexdigest() == _FORGERY_BYTES_DIGEST, h.hexdigest()


# one SHA-256 over the honestly signed state of each forgery case
_SIGNED_BYTES_DIGEST = "96f85441245bef0a51cc1c4d1ad25aa2080bffe43c70073b857c2afc46ee8452"


def test_signed_bytes_unchanged():
    h = hashlib.sha256()
    for d, k in _FORGERY_CASES:
        for seed in range(20):
            keys, rng = keygen(d, k, seed), new_rng(seed)
            psi = sample_random_pure(d, 1, rng)
            h.update(sign(keys, psi.amps, PureState(d, 1, psi.amps)).s_state.amps.tobytes())
    assert h.hexdigest() == _SIGNED_BYTES_DIGEST, h.hexdigest()
