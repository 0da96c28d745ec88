"""Key derivation, one-time MAC, Pauli pad, and trap authentication tests."""
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsiglab.authcrypto import (
    MAC_WIDTHS,
    _REDUCTION,
    AuthKey,
    MacKey,
    PadReuseError,
    _gf16_tables,
    _wc_hash,
    derive_keys,
    gf_mul,
    qauth_encode,
    qauth_verify,
    qotp,
    wc_check,
    wc_tag,
)
from qsiglab.clifford import apply_clifford, sample_clifford
from qsiglab.qsim import (
    GateMatrix,
    Sampled,
    apply_gate,
    fidelity,
    hadamard_gate,
    make_state,
    new_rng,
    parity_measure,
    phase_eighth_gate,
    reduced_density,
    sample_random_pure,
    state_digest,
    tensor,
)
from _helpers import basis_state, pauli_from_bits
from test_clifford import _reference_apply


# ---------------------------------------------------------------------------
# key derivation


def test_derive_keys_deterministic():
    a = derive_keys(7, ["alice", "bob"])
    b = derive_keys(7, ["alice", "bob"])
    assert a["alice"].seed == b["alice"].seed
    assert a["bob"].seed == b["bob"].seed


def test_links_are_role_separated():
    links = derive_keys(7, ["alice", "bob"])
    assert links["alice"].seed != links["bob"].seed
    with pytest.raises(KeyError):
        links["charlie"]


def test_duplicate_roles_rejected():
    with pytest.raises(ValueError):
        derive_keys(1, ["alice", "alice"])


def test_indexed_lookups_are_stable_and_distinct():
    link = derive_keys(3, ["a"])["a"]
    k0, k1 = link.auth_key_at(0), link.auth_key_at(1)
    assert k0 == link.auth_key_at(0)
    assert k0.seed != k1.seed


def test_counterpart_rederives_same_material():
    # the same (role, seed) pair on the other side of the link sees identical keys
    left = derive_keys(11, ["peer"])["peer"]
    right = derive_keys(11, ["peer"])["peer"]
    assert left.auth_key_at(0) == right.auth_key_at(0)
    assert left.mac_key(16).point == right.mac_key(16).point
    assert left.sig_seed() == right.sig_seed()


def test_mac_key_width_validation():
    with pytest.raises(ValueError):
        MacKey(8, 1)


# ---------------------------------------------------------------------------
# GF(2^b) arithmetic


def test_gf_mul_reduction_constants():
    # multiplying the top bit by x exposes the reduction polynomial's low part
    assert gf_mul(1 << 15, 2, 16) == 0x2B
    assert gf_mul(1 << 31, 2, 32) == 0x8D
    assert gf_mul(1 << 63, 2, 64) == 0x1B


def test_gf_mul_small_table():
    # GF(2^16): (x+1)(x+1) = x^2 + 1
    assert gf_mul(0b11, 0b11, 16) == 0b101
    assert gf_mul(0, 12345, 16) == 0
    assert gf_mul(1, 12345, 16) == 12345


@given(
    a=st.integers(0, 2**16 - 1),
    b=st.integers(0, 2**16 - 1),
    c=st.integers(0, 2**16 - 1),
)
@settings(max_examples=200, deadline=None)
def test_gf_field_axioms_width16(a, b, c):
    assert gf_mul(a, b, 16) == gf_mul(b, a, 16)
    assert gf_mul(gf_mul(a, b, 16), c, 16) == gf_mul(a, gf_mul(b, c, 16), 16)
    assert gf_mul(a, b ^ c, 16) == gf_mul(a, b, 16) ^ gf_mul(a, c, 16)
    assert gf_mul(a, 1, 16) == a


def _pm_mul(a: int, b: int, poly: int, deg: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> deg) & 1:
            a ^= poly
    return r


def _pgcd(a: int, b: int) -> int:
    while b:
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


@pytest.mark.parametrize("width", MAC_WIDTHS)
def test_reduction_polynomials_are_irreducible(width):
    # Frobenius criterion: x^(2^b) = x mod p, and x^(2^(b/2)) - x coprime to p
    poly = _REDUCTION[width]
    v = 2  # the polynomial x
    for _ in range(width):
        v = _pm_mul(v, v, poly, width)
    assert v == 2
    w = 2
    for _ in range(width // 2):
        w = _pm_mul(w, w, poly, width)
    assert _pgcd(poly, w ^ 2) == 1


# ---------------------------------------------------------------------------
# one-time MAC


def test_tag_of_empty_message_is_the_pad():
    key = MacKey(16, 99)
    assert wc_tag(key, b"", 0).value == key.pad(0)


def test_tag_of_zero_message_is_the_pad():
    key = MacKey(16, 99)
    assert wc_tag(key, b"\x00" * 6, 3).value == key.pad(3)


def test_mac_round_trip():
    key = MacKey(32, 4)
    tag = wc_tag(key, b"hello quantum", 0)
    assert wc_check(key, b"hello quantum", tag)


def test_hash_matches_hand_horner():
    key = MacKey(16, 71)
    r = key.point
    b1, b2 = 0x1234, 0x5678
    msg = b1.to_bytes(2, "big") + b2.to_bytes(2, "big")
    expected = gf_mul(gf_mul(b1, r, 16) ^ b2, r, 16)
    tag = wc_tag(key, msg, 0)
    assert tag.value ^ key.pad(0) == expected


def _horner(key: MacKey, message: bytes) -> int:
    # the hash as defined: big-endian blocks, zero padding, Horner over gf_mul
    nbytes = key.width // 8
    padded = message + b"\x00" * (-len(message) % nbytes)
    h = 0
    for i in range(0, len(padded), nbytes):
        h = gf_mul(h, key.point, key.width) ^ int.from_bytes(padded[i : i + nbytes], "big")
    return gf_mul(h, key.point, key.width)


@pytest.mark.parametrize("width", MAC_WIDTHS)
@given(seed=st.integers(0, 2**64 - 1), message=st.binary(max_size=64))
@settings(max_examples=100, deadline=None)
def test_wc_hash_matches_gf_mul_horner(width, seed, message):
    key = MacKey(width, seed)
    assert _wc_hash(key, message) == _horner(key, message)
    assert wc_tag(key, message, 0).value == _horner(key, message) ^ key.pad(0)


def test_wc_hash_at_point_zero():
    key = MacKey(16, 71)
    key.point = 0
    assert _wc_hash(key, b"\x12\x34\x56") == 0


def test_wc_hash_passes_through_zero():
    # the second block cancels the first, so the running hash is 0 before the third
    key = MacKey(16, 71)
    blocks = (0x1234, gf_mul(0x1234, key.point, 16), 0xBEEF)
    message = b"".join(b.to_bytes(2, "big") for b in blocks)
    assert _wc_hash(key, message) == _horner(key, message) == gf_mul(0xBEEF, key.point, 16)


def test_gf16_tables():
    exp, log = _gf16_tables()
    order = (1 << 16) - 1
    assert len(exp) == 2 * order and len(log) == 1 << 16
    assert exp.readonly and log.readonly
    assert type(exp[1]) is int and type(log[1]) is int  # tag values go into JSON
    # exp[i] = (x + 1)^i, and x + 1 has order 65 535: no value repeats within a period
    assert all(exp[i + 1] == gf_mul(exp[i], 3, 16) for i in range(2 * order - 1))
    assert exp[0] == exp[order] == 1
    assert len(set(exp[:order])) == order
    assert all(exp[log[a]] == a for a in range(1, 1 << 16))


def test_pad_reuse_raises():
    key = MacKey(16, 5)
    wc_tag(key, b"m1", 0)
    with pytest.raises(PadReuseError):
        wc_tag(key, b"m2", 0)
    wc_tag(key, b"m2", 1)  # fresh index fine


def test_check_does_not_consume_pads():
    key = MacKey(16, 6)
    tag = wc_tag(key, b"msg", 0)
    assert wc_check(key, b"msg", tag)
    assert wc_check(key, b"msg", tag)
    wc_tag(key, b"next", 1)


def test_width_mismatch_rejected():
    k16, k64 = MacKey(16, 7), MacKey(64, 7)
    tag = wc_tag(k16, b"msg", 0)
    assert not wc_check(k64, b"msg", tag)


def test_tampered_messages_rejected():
    key = MacKey(16, 8)
    tag = wc_tag(key, b"transfer 10 units", 0)
    for forged in [b"transfer 99 units", b"transfer 10 unitsX", b"", b"transfer 10 unit"]:
        assert not wc_check(key, forged, tag)


def test_tampered_tag_value_rejected():
    key = MacKey(16, 9)
    tag = wc_tag(key, b"msg", 0)
    bad = dataclasses.replace(tag, value=tag.value ^ 1)
    assert not wc_check(key, b"msg", bad)


def test_negative_pad_index_rejected():
    # a channel can hand over any tag; checking one never raises
    key = MacKey(16, 9)
    tag = wc_tag(key, b"msg", 0)
    assert not wc_check(key, b"msg", dataclasses.replace(tag, pad_index=-1))


def test_message_block_cap():
    key = MacKey(16, 10)
    with pytest.raises(ValueError):
        wc_tag(key, b"\x01" * (2 * (1 << 16) + 1), 0)


def test_pad_index_validation():
    with pytest.raises(ValueError):
        MacKey(16, 11).pad(-1)


# ---------------------------------------------------------------------------
# Pauli one-time pad


def test_qotp_known_single_qubit_actions():
    zero = basis_state(2, 1, [0])
    flipped = qotp(zero, np.array([[1, 0]]), "encrypt")
    assert abs(flipped.amps[1] - 1) < 1e-12
    plus = make_state(2, 1, [1, 1])
    minus = qotp(plus, np.array([[0, 1]]), "encrypt")
    assert np.allclose(minus.amps * np.sqrt(2), [1, -1])


def test_qotp_layer_order():
    # encrypt is X^a Z^b: on |0> with a = b = 1 the Z acts first, so no sign
    zero = basis_state(2, 1, [0])
    out = qotp(zero, np.array([[1, 1]]), "encrypt")
    assert abs(out.amps[1] - 1.0) < 1e-12


@given(
    d=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_qotp_round_trip(d, n, seed):
    rng = new_rng(seed)
    state = sample_random_pure(d, n, rng)
    key = rng.integers(0, d, size=(n, 2))
    back = qotp(qotp(state, key, "encrypt"), key, "decrypt")
    assert np.abs(back.amps - state.amps).max() < 1e-12


def test_qotp_key_shape_validation():
    state = basis_state(2, 2, [0, 0])
    with pytest.raises(ValueError):
        qotp(state, np.zeros((3, 2), dtype=np.int64), "encrypt")
    with pytest.raises(ValueError):
        qotp(state, np.zeros((2, 2), dtype=np.int64), "sideways")


@pytest.mark.parametrize("d", [2, 5])
def test_qotp_exhaustive_key_average_is_maximally_mixed(d):
    state = sample_random_pure(d, 1, new_rng(13))
    rho = np.zeros((d, d), dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            enc = qotp(state, np.array([[a, b]]), "encrypt")
            rho += np.outer(enc.amps, enc.amps.conj())
    rho /= d * d
    assert np.abs(rho - np.eye(d) / d).max() < 1e-9


# ---------------------------------------------------------------------------
# trap authentication


def test_qauth_round_trip():
    rng = new_rng(20)
    payload = sample_random_pure(2, 2, rng)
    key = AuthKey(12345)
    block = qauth_encode(payload, key, t=4)
    assert block.n == 6
    accept, recovered = qauth_verify(block, key, 4, Sampled(rng))
    assert accept
    assert fidelity(recovered, payload) > 1 - 1e-9


def _scrambler(key: AuthKey, m: int):
    """The keyed Clifford qauth_encode applies to an m-register block."""
    return sample_clifford(m, new_rng(key.seed))


def test_unscrambled_block_exposes_layout():
    payload = sample_random_pure(2, 2, new_rng(21))
    key = AuthKey(2121)
    block = qauth_encode(payload, key, t=3)
    unscrambled = apply_clifford(block, _scrambler(key, 5).inverse())
    expected = tensor(payload, basis_state(2, 3, [0, 0, 0]))
    assert np.abs(unscrambled.amps - expected.amps).max() < 1e-12


def test_rejected_block_still_returns_payload():
    rng = new_rng(22)
    payload = sample_random_pure(2, 2, rng)
    key = AuthKey(2222)
    # a block whose second trap reads 1 once the key's Clifford is undone
    flipped = apply_clifford(tensor(payload, basis_state(2, 2, [0, 1])), _scrambler(key, 4))
    accept, recovered = qauth_verify(flipped, key, 2, Sampled(rng))
    assert not accept
    assert fidelity(recovered, payload) > 1 - 1e-9


def _reference_verify(state, key: AuthKey, t: int, rng):
    """The trap readout one trap at a time: unscramble, one parity_measure
    per trap on the renormalized post-state, then take the payload column."""
    n = state.n - t
    decoded = apply_clifford(state, _scrambler(key, state.n).inverse())
    col = 0
    for j in range(t):
        rec = parity_measure(decoded, [1], [n + j], rng)
        decoded = rec.post_state
        col = 2 * col + rec.outcome
    return col == 0, make_state(2, n, decoded.amps.reshape(2**n, 2**t)[:, col])


@pytest.mark.parametrize("n, t", [(2, 2), (2, 4), (4, 6)])
@pytest.mark.parametrize("kind", ["haar", "h_then_t"])
def test_one_pass_readout_matches_trap_by_trap_reference(kind, n, t):
    # blocks whose trap outcomes are truly random, so each trap is drawn from
    # a nontrivial distribution given the traps before it
    for seed in range(30):
        key = AuthKey(7000 + seed)
        src = new_rng(seed)
        if kind == "haar":
            block = sample_random_pure(2, n + t, src)
        else:
            q = seed % (n + t)
            block = qauth_encode(sample_random_pure(2, n, src), key, t)
            block = apply_gate(apply_gate(block, hadamard_gate(), [q]), phase_eighth_gate(1), [q])
        ours, ref = Sampled(new_rng(100 + seed)), Sampled(new_rng(100 + seed))
        accept, payload = qauth_verify(block, key, t, ours)
        ref_accept, ref_payload = _reference_verify(block, key, t, ref)
        assert accept == ref_accept
        assert ours.draws == ref.draws == t
        assert ours.rng.bit_generator.state == ref.rng.bit_generator.state
        assert np.abs(payload.amps - ref_payload.amps).max() < 1e-12


def _full_path_encode(payload, key: AuthKey, t: int):
    """The encoding on the whole block, for t >= 1: build payload (x) |0^t>,
    then scramble it with apply_clifford, whose rows all go through the first
    stage."""
    block = tensor(payload, basis_state(2, t, [0] * t))
    return apply_clifford(block, _scrambler(key, payload.n + t))


def _full_path_verify(state, key: AuthKey, t: int, rng):
    """The readout on the whole block, for t >= 1: apply_clifford's full
    inverse, then the column weights of every trap pattern."""
    n = state.n - t
    decoded = apply_clifford(state, _scrambler(key, state.n).inverse())
    cols = decoded.amps.reshape(2**n, 2**t)
    weights = (np.abs(cols) ** 2).sum(axis=0)
    col = 0
    for j in range(t):
        w = weights.reshape(2**j, 2, -1)[col].sum(axis=1)
        col = 2 * col + int(rng.choice(2, p=w / w.sum()))
    return col == 0, make_state(2, n, cols[:, col])


@pytest.mark.parametrize("t", range(7))
def test_encode_matches_full_block_path(t):
    # payloads of 1 to 10 qubits, up to the 16-qubit block of a t = 6 session.
    # Both paths run apply_clifford_padded's first stage, so blocks of up to
    # 10 qubits are also checked against the gate-by-gate reference, and with
    # no traps the encoding is apply_clifford itself
    for n in range(1, 11):
        payload = sample_random_pure(2, n, new_rng(100 * t + n))
        key = AuthKey(900 + 10 * t + n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            block = qauth_encode(payload, key, t)
        if t:
            assert state_digest(block) == state_digest(_full_path_encode(payload, key, t))
        if n + t <= 10:
            padded = tensor(payload, basis_state(2, t, [0] * t)) if t else payload
            reference = _reference_apply(padded, _scrambler(key, n + t).gates)
            assert np.abs(block.amps - reference.amps).max() < 1e-12


def _pauli_tampered(block, rng):
    q = int(rng.integers(block.n))
    pauli = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])][int(rng.integers(3))]
    return apply_gate(block, GateMatrix(2, 1, pauli.astype(np.complex128)), [q])


def _flipped_trap(payload, key: AuthKey, t: int, rng):
    """A block whose trap j reads 1 once the key's Clifford is undone."""
    traps = [0] * t
    traps[int(rng.integers(t))] = 1
    return apply_clifford(tensor(payload, basis_state(2, t, traps)), _scrambler(key, payload.n + t))


@pytest.mark.parametrize("n, t", [(1, 1), (2, 2), (3, 4), (4, 6), (10, 6)])
@pytest.mark.parametrize("kind", ["honest", "pauli", "flipped_trap"])
def test_verify_matches_full_block_path(kind, n, t):
    for seed in range(4 if n + t < 16 else 2):
        src = new_rng(seed)
        payload = sample_random_pure(2, n, src)
        key = AuthKey(5000 + seed)
        if kind == "flipped_trap":
            block = _flipped_trap(payload, key, t, src)
        else:
            block = qauth_encode(payload, key, t)
            if kind == "pauli":
                block = _pauli_tampered(block, src)
        ours, ref = new_rng(200 + seed), new_rng(200 + seed)
        accept, recovered = qauth_verify(block, key, t, Sampled(ours))
        ref_accept, ref_recovered = _full_path_verify(block, key, t, ref)
        assert (accept, state_digest(recovered)) == (ref_accept, state_digest(ref_recovered))
        assert ours.bit_generator.state == ref.bit_generator.state
        if kind != "pauli":
            assert accept == (kind == "honest")


def test_trap_free_verify_matches_full_block_path():
    # with no traps the readout is apply_clifford's inverse, so the check is
    # against the gate-by-gate reference
    block = sample_random_pure(2, 5, new_rng(27))
    with pytest.warns(UserWarning):
        accept, recovered = qauth_verify(block, AuthKey(3), 0, Sampled(new_rng(0)))
    assert accept
    reference = _reference_apply(block, _scrambler(AuthKey(3), 5).inverse().gates)
    assert np.abs(recovered.amps - reference.amps).max() < 1e-12


def test_auth_key_needs_a_seed():
    with pytest.raises(TypeError):
        AuthKey(None)


def test_trap_count_zero_warns():
    payload = basis_state(2, 1, [0])
    with pytest.warns(UserWarning):
        block = qauth_encode(payload, AuthKey(1), t=0)
    with pytest.warns(UserWarning):
        accept, _ = qauth_verify(block, AuthKey(1), 0, Sampled(new_rng(0)))
    assert accept


def test_block_shape_mismatch_rejected():
    # t traps must leave at least one payload register
    block = sample_random_pure(2, 3, new_rng(23))
    for t in (3, 4, -1):
        with pytest.raises(ValueError):
            qauth_verify(block, AuthKey(1), t, Sampled(new_rng(0)))


def test_qauth_requires_qubits():
    with pytest.raises(ValueError):
        qauth_encode(basis_state(3, 1, [0]), AuthKey(1), t=2)
    with pytest.raises(ValueError):
        qauth_encode(basis_state(2, 1, [0]), AuthKey(1), t=-1)


def test_fixed_pauli_detection_rate():
    # a fixed nonidentity Pauli conjugated through a fresh random Clifford is
    # uniform over nonidentity Paulis, so acceptance = (4^n 2^t - 1)/(4^(n+t) - 1)
    n, t, trials = 2, 2, 700
    p_accept = (4**n * 2**t - 1) / (4 ** (n + t) - 1)
    rng = new_rng(24)
    x = GateMatrix(2, 1, np.array([[0, 1], [1, 0]], dtype=np.complex128))
    hits = 0
    for i in range(trials):
        payload = sample_random_pure(2, n, rng)
        key = AuthKey(int(rng.integers(0, 2**62)))
        tampered = apply_gate(qauth_encode(payload, key, t=t), x, [0])
        accept, _ = qauth_verify(tampered, key, t, Sampled(rng))
        hits += accept
    sigma = np.sqrt(p_accept * (1 - p_accept) / trials)
    assert abs(hits / trials - p_accept) < 4 * sigma + 1e-3


def test_wrong_key_rarely_accepts():
    rng = new_rng(25)
    payload = sample_random_pure(2, 2, rng)
    block = qauth_encode(payload, AuthKey(111), t=6)
    hits = 0
    for i in range(50):
        accept, _ = qauth_verify(block, AuthKey(5000 + i), 6, Sampled(rng))
        hits += accept
    assert hits <= 5  # chance level 2^-6 per trial


def test_payload_mixed_under_encoding_key():
    # to anyone without the key the payload registers carry no signal by design
    # of the scrambler being a 2-design; spot check one register is near mixed
    rng = new_rng(26)
    payload = basis_state(2, 1, [0])
    rho = np.zeros((2, 2), dtype=np.complex128)
    reps = 300
    for i in range(reps):
        block = qauth_encode(payload, AuthKey(i), t=2)
        rho += reduced_density(block, [0])
    rho /= reps
    assert np.abs(rho - np.eye(2) / 2).max() < 0.1


def test_pauli_from_bits_reexport_and_shape():
    vec = np.array([1, 0, 0, 1])  # X on qubit 0, Z on qubit 1
    mat = pauli_from_bits(vec, 0)
    x = np.array([[0, 1], [1, 0]])
    z = np.diag([1, -1])
    assert np.allclose(mat, np.kron(x, z))
    assert np.allclose(pauli_from_bits(vec, 1), -np.kron(x, z))
