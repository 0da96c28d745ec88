"""Three-party arbitrated signing session over authenticated quantum channels.

Roles: alice signs a quantum message, bob receives it and cannot validate it
alone, a trusted arbiter adjudicates. Alice shares one key link with the
arbiter, bob shares another; alice and bob share nothing. One session is
four phases: SIGMA (alice -> bob: signed message plus a plaintext copy,
trap-authenticated), Y (bob -> arbiter: alice's block one-time padded and
re-authenticated under bob's key), T_REPLY (arbiter -> bob: validity bit r
plus the repacked registers), or ABORT in place of T_REPLY when a check
fails on the arbiter's side. Classical metadata rides under one-time MACs.

The signature itself is a keyed non-Clifford unitary on the message
registers. Its role is to bind the message to alice's key: stripping it
with the wrong key leaves a state visibly different from the plaintext
copy, and it is deliberately far from Pauli-covariant so register-local
Pauli attacks cannot be pushed through it (see signing_distance).

Verdicts carry a failure_stage from FAILURE_STAGES, naming the first check
that failed; honest sessions end accepted with stage "none".
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .authcrypto import (
    MAC_WIDTHS,
    MacKey,
    MacTag,
    KeyStore,
    derive_keys,
    qauth_encode,
    qauth_verify,
    qotp,
    wc_check,
    wc_tag,
)
from .qsim import (
    TOL,
    EntangledFactorError,
    GateMatrix,
    PureState,
    apply_gate,
    basis_state,
    controlled_add_gate,
    decode_labels,
    derive_seed,
    extract_factor,
    fidelity,
    hadamard_gate,
    new_rng,
    pauli_gate,
    permute_registers,
    phase_eighth_gate,
    sample_random_pure,
    state_digest,
    symmetric_subspace_measure,
    tensor,
)

PHASE_SIGMA = "SIGMA"
PHASE_Y = "Y"
PHASE_T_REPLY = "T_REPLY"
PHASE_ABORT = "ABORT"

FAILURE_STAGES = ("none", "bob_auth", "arb_auth_outer", "arb_auth_inner", "sig_check", "bob_final_auth", "abort")

# Every keyed signing unitary must sit at least this far (Frobenius distance,
# phase-optimized) from the nearest Pauli-covariant behavior. Calibrated over
# the key space; scripts/calibrate_noncommutativity.py reproduces the floors.
NONCOMMUTATIVITY_THRESHOLD = 1.0


# ---------------------------------------------------------------------------
# configuration and bookkeeping


@dataclass(frozen=True)
class SessionConfig:
    n: int = 2
    t: int = 4
    mode: str = "referee"
    seed: int = 0
    b: int = 16

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1 message registers, got {self.n}")
        if self.t < 0:
            raise ValueError(f"trap count must be nonnegative, got {self.t}")
        if self.mode not in ("referee", "protocol"):
            raise ValueError(f"mode must be 'referee' or 'protocol', got {self.mode!r}")
        if self.b not in MAC_WIDTHS:
            raise ValueError(f"MAC width must be one of {MAC_WIDTHS}, got {self.b}")


class CountingRNG:
    """Generator proxy that counts draws, so transcripts can log randomness use."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.draws = 0

    def random(self, *args, **kwargs):
        self.draws += 1
        return self._rng.random(*args, **kwargs)

    def choice(self, *args, **kwargs):
        self.draws += 1
        return self._rng.choice(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.draws += 1
        return self._rng.integers(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        self.draws += 1
        return self._rng.standard_normal(*args, **kwargs)


@dataclass
class ProtocolMessage:
    phase: str
    payload: PureState | None
    meta: dict
    tag: MacTag | None


@dataclass(frozen=True)
class VerdictRecord:
    r: int
    accepted: bool
    failure_stage: str
    recovered_message: PureState | None
    recovered_fidelity: float | None


@dataclass
class Transcript:
    config: SessionConfig
    events: list[dict]
    verdict: VerdictRecord
    message: PureState

    def json_lines(self) -> str:
        lines = [_canon_json({"type": "event", **e}) for e in self.events]
        lines.append(
            _canon_json(
                {
                    "type": "verdict",
                    "r": self.verdict.r,
                    "accepted": self.verdict.accepted,
                    "failure_stage": self.verdict.failure_stage,
                    "recovered_fidelity": self.verdict.recovered_fidelity,
                }
            )
        )
        return "\n".join(lines) + "\n"


def _canon_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_meta(meta: dict) -> bytes:
    """Deterministic byte encoding of message metadata, the MAC'd content."""
    return _canon_json(meta).encode("utf-8")


def _meta_bytes(meta) -> bytes | None:
    """canonical_meta, or None for metadata JSON cannot encode."""
    try:
        return canonical_meta(meta)
    except (TypeError, ValueError):
        return None


def _qubit_block(payload, regs: int) -> bool:
    """The shape check each party makes before it uses a key on a payload."""
    return isinstance(payload, PureState) and payload.d == 2 and payload.n == regs


def _authentic(key: MacKey, meta, tag) -> bool:
    """MAC check that fails, rather than raises, on a tag or metadata a
    channel adversary replaced with something no party would send."""
    message = _meta_bytes(meta)
    return isinstance(tag, MacTag) and message is not None and wc_check(key, message, tag)


# ---------------------------------------------------------------------------
# the keyed signing unitary


def signing_ops(n: int, sig_seed: int) -> tuple[tuple[GateMatrix, tuple[int, ...]], ...]:
    """Keyed signing circuit on n registers: 3n layers, deliberately non-Clifford.

    The fixed core is phase / Hadamard / phase with key-chosen odd eighth-phase
    exponents on every register, which already breaks Pauli covariance on one
    register. Remaining layers are key-chosen from register-wide Pauli,
    register-wide Hadamard, and neighbor controlled-add, keeping every key's
    unitary far from all Pauli-covariant behaviors (distance floor is
    calibrated, see NONCOMMUTATIVITY_THRESHOLD).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = new_rng(sig_seed)

    def pauli_layer() -> list[tuple[GateMatrix, tuple[int, ...]]]:
        return [(pauli_gate("IXYZ"[rng.integers(0, 4)]), (q,)) for q in range(n)]

    def phase_layer() -> list[tuple[GateMatrix, tuple[int, ...]]]:
        return [(phase_eighth_gate(int(2 * rng.integers(0, 4) + 1)), (q,)) for q in range(n)]

    def h_layer() -> list[tuple[GateMatrix, tuple[int, ...]]]:
        return [(hadamard_gate(), (q,)) for q in range(n)]

    def cadd_layer() -> list[tuple[GateMatrix, tuple[int, ...]]]:
        q = int(rng.integers(0, n - 1))
        flip = int(rng.integers(0, 2))
        return [(controlled_add_gate(2), (q + 1, q) if flip else (q, q + 1))]

    layers: list[list[tuple[GateMatrix, tuple[int, ...]]]] = []
    if 3 * n > 3:
        layers.append(pauli_layer())
    layers += [phase_layer(), h_layer(), phase_layer()]
    while len(layers) < 3 * n:
        kind = int(rng.integers(0, 3))
        if kind == 0:
            layers.append(pauli_layer())
        elif kind == 1:
            layers.append(h_layer())
        else:
            layers.append(cadd_layer())
    return tuple(g for layer in layers for g in layer)


def apply_signing(state: PureState, ops, inverse: bool = False) -> PureState:
    """Apply the signing circuit (or its exact inverse) to a state."""
    if inverse:
        for gate, targets in reversed(ops):
            state = apply_gate(state, gate.dagger(), targets)
    else:
        for gate, targets in ops:
            state = apply_gate(state, gate, targets)
    return state


def signing_unitary(n: int, ops) -> np.ndarray:
    """Dense matrix of a signing circuit (small n; calibration and tests)."""
    dim = 2**n
    u = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        u[:, j] = apply_signing(basis_state(2, n, decode_labels(j, n, 2)), ops).amps
    return u


def pauli_covariance_distance(u: np.ndarray, n: int) -> float:
    """min over P != I of the phase-optimized Frobenius distance from U P to
    the nearest P' U, quantifying how far U is from letting any Pauli slip
    through. Zero for Clifford U; the signing construction keeps it above
    NONCOMMUTATIVITY_THRESHOLD for every key."""
    from .clifford import pauli_from_bits

    dim = 2**n
    paulis = []
    for idx in range(4**n):
        bits = np.zeros(2 * n, dtype=np.int64)
        rem = idx
        for q in range(n - 1, -1, -1):
            code = rem % 4
            rem //= 4
            # 0=I 1=X 2=Y 3=Z
            bits[2 * q] = 1 if code in (1, 2) else 0
            bits[2 * q + 1] = 1 if code in (2, 3) else 0
        paulis.append(pauli_from_bits(bits, 0))
    right = [p @ u for p in paulis]
    best = np.inf
    for p in paulis[1:]:
        up = u @ p
        m = max(abs(np.einsum("ij,ij->", up.conj(), r)) for r in right)
        best = min(best, 2.0 * dim - 2.0 * float(m))
    return float(np.sqrt(max(best, 0.0)))


def signing_distance(n: int, sig_seed: int) -> float:
    """Pauli-covariance distance of the signing unitary for one key."""
    return pauli_covariance_distance(signing_unitary(n, signing_ops(n, sig_seed)), n)


# ---------------------------------------------------------------------------
# parties


@dataclass
class Party:
    name: str
    config: SessionConfig
    store: KeyStore
    rng: CountingRNG
    macs: dict[str, MacKey]
    sig_ops: tuple = ()


@dataclass
class SessionParties:
    alice: Party
    bob: Party
    arbiter: Party


def setup(config: SessionConfig) -> SessionParties:
    """Deal key material: alice-arbiter and bob-arbiter links, nothing between
    alice and bob. Each party gets its own counted RNG stream."""
    alice_store = derive_keys(config.seed, ["alice"])
    bob_store = derive_keys(config.seed, ["bob"])
    arb_store = derive_keys(config.seed, ["alice", "bob"])

    def party_rng(name: str) -> CountingRNG:
        return CountingRNG(new_rng(derive_seed(config.seed, "party", name)))

    alice_link = alice_store.link("alice")
    alice = Party(
        "alice",
        config,
        alice_store,
        party_rng("alice"),
        {"alice": alice_link.mac_key(config.b)},
        signing_ops(config.n, alice_link.sig_seed()),
    )
    bob = Party("bob", config, bob_store, party_rng("bob"), {"bob": bob_store.link("bob").mac_key(config.b)})
    arbiter = Party(
        "arbiter",
        config,
        arb_store,
        party_rng("arbiter"),
        {"alice": arb_store.link("alice").mac_key(config.b), "bob": arb_store.link("bob").mac_key(config.b)},
        signing_ops(config.n, arb_store.link("alice").sig_seed()),
    )
    return SessionParties(alice, bob, arbiter)


# ---------------------------------------------------------------------------
# protocol phases


def alice_sign(alice: Party, message_state: PureState, message_copy: PureState) -> ProtocolMessage:
    """SIGMA: sign the message, adjoin the plaintext copy, authenticate, MAC."""
    n, t = alice.config.n, alice.config.t
    for st in (message_state, message_copy):
        if st.d != 2 or st.n != n:
            raise ValueError(f"message must be {n} qubit registers, got d={st.d}, n={st.n}")
    signed = apply_signing(message_state, alice.sig_ops)
    auth_key = alice.store.link("alice").auth_key_at(0)
    block = qauth_encode(tensor(signed, message_copy), auth_key, t)
    meta = {"phase": PHASE_SIGMA, "n": n, "t": t, "key_id": auth_key.key_id}
    tag = wc_tag(alice.macs["alice"], canonical_meta(meta), 0)
    return ProtocolMessage(PHASE_SIGMA, block, meta, tag)


def bob_wrap(bob: Party, sigma_msg: ProtocolMessage) -> ProtocolMessage:
    """Y: one-time pad alice's block, re-authenticate under bob's key, forward.

    Bob cannot check anything yet; he binds what he saw (alice's metadata and
    tag travel inside his own MAC'd metadata) and sends it to the arbiter. A
    tag that is no MAC tag, or metadata JSON cannot encode, travels as None,
    and so does the metadata of a message in another phase; the arbiter
    rejects either at arb_auth_inner. A payload that is not 2n + t qubit
    registers travels as None too, which the arbiter rejects at
    arb_auth_outer.
    """
    n, t = bob.config.n, bob.config.t
    forward_meta = sigma_msg.phase == PHASE_SIGMA and _meta_bytes(sigma_msg.meta) is not None
    link = bob.store.link("bob")
    auth_key = link.auth_key_at(0)
    block = None
    if _qubit_block(sigma_msg.payload, 2 * n + t):
        wrapped = qotp(sigma_msg.payload, link.qotp_key_at(0, 2 * n + t), "encrypt")
        block = qauth_encode(wrapped, auth_key, t)
    meta = {
        "phase": PHASE_Y,
        "n": n,
        "t": t,
        "key_id": auth_key.key_id,
        "alice_meta": sigma_msg.meta if forward_meta else None,
        "alice_tag": _tag_fields(sigma_msg.tag),
    }
    tag = wc_tag(bob.macs["bob"], canonical_meta(meta), 0)
    return ProtocolMessage(PHASE_Y, block, meta, tag)


def arbiter_adjudicate(arbiter: Party, y_msg: ProtocolMessage) -> ProtocolMessage:
    """T_REPLY or ABORT: peel both wrappings, judge the signature, repack.

    Validity r = 1 means the unsigned message registers match the plaintext
    copy. In referee mode that comparison is exact (unentangled-factor
    extraction plus fidelity, no sampling); in protocol mode it is one
    symmetric-subspace measurement, the physically implementable check.
    A message in another phase or with a payload that is not 2n + 2t qubit
    registers, or metadata that bob MAC'd but that does not name the expected
    keys or carries a malformed alice tag, ends in ABORT like any other failed
    check.
    """
    n, t = arbiter.config.n, arbiter.config.t
    bob_link = arbiter.store.link("bob")
    bob_key = bob_link.auth_key_at(0)
    alice_key = arbiter.store.link("alice").auth_key_at(0)

    def abort(stage: str) -> ProtocolMessage:
        meta = {"phase": PHASE_ABORT, "failure_stage": stage}
        tag = wc_tag(arbiter.macs["bob"], canonical_meta(meta), 1)
        return ProtocolMessage(PHASE_ABORT, None, meta, tag)

    if y_msg.phase != PHASE_Y or not _qubit_block(y_msg.payload, 2 * n + 2 * t):
        return abort("arb_auth_outer")
    if not _authentic(arbiter.macs["bob"], y_msg.meta, y_msg.tag) or y_msg.meta.get("key_id") != bob_key.key_id:
        return abort("arb_auth_outer")
    ok, inner = qauth_verify(y_msg.payload, bob_key, t, arbiter.rng)
    if not ok:
        return abort("arb_auth_outer")
    unpadded = qotp(inner, bob_link.qotp_key_at(0, inner.n), "decrypt")

    alice_meta = y_msg.meta.get("alice_meta")
    alice_tag = _mac_tag(y_msg.meta.get("alice_tag"))
    if not _authentic(arbiter.macs["alice"], alice_meta, alice_tag):
        return abort("arb_auth_inner")
    ok, core = qauth_verify(unpadded, alice_key, t, arbiter.rng)
    if not ok:
        return abort("arb_auth_inner")

    unsigned = apply_signing(core, arbiter.sig_ops, inverse=True)
    if arbiter.config.mode == "referee":
        try:
            factor, rest = extract_factor(unsigned, list(range(n)))
            r = 1 if fidelity(factor, rest) >= 1.0 - TOL else 0
        except EntangledFactorError:
            r = 0
        post = unsigned
    else:
        rec = symmetric_subspace_measure(unsigned, list(range(n)), list(range(n, 2 * n)), arbiter.rng)
        r = 1 if rec.outcome == 0 else 0
        post = rec.post_state

    resigned = apply_signing(post, arbiter.sig_ops)
    reply_core = permute_registers(resigned, list(range(n, 2 * n)) + list(range(n)))
    reply_key = bob_link.auth_key_at(1)
    block = qauth_encode(reply_core, reply_key, t)
    meta = {"phase": PHASE_T_REPLY, "r": r, "n": n, "t": t, "key_id": reply_key.key_id}
    tag = wc_tag(arbiter.macs["bob"], canonical_meta(meta), 1)
    return ProtocolMessage(PHASE_T_REPLY, block, meta, tag)


def _tag_fields(tag) -> list[int] | None:
    """The [value, width, pad_index] list a tag travels as, or None if it is no MAC tag."""
    return [tag.value, tag.width, tag.pad_index] if isinstance(tag, MacTag) else None


def _mac_tag(raw) -> MacTag | None:
    """The tag a [value, width, pad_index] list names, or None if malformed."""
    if not (isinstance(raw, list) and len(raw) == 3 and all(isinstance(v, int) for v in raw) and raw[2] >= 0):
        return None
    return MacTag(*raw)


def bob_finalize(bob: Party, t_msg: ProtocolMessage) -> VerdictRecord:
    """Bob's verdict: check the arbiter's MAC and traps, then read r. A message
    in neither the T_REPLY nor the ABORT phase, or a T_REPLY payload that is
    not 2n + t qubit registers, fails at bob_auth."""
    n, t = bob.config.n, bob.config.t
    if t_msg.phase == PHASE_ABORT:
        ok = _authentic(bob.macs["bob"], t_msg.meta, t_msg.tag)
        stage = t_msg.meta.get("failure_stage", "abort") if ok else "abort"
        if stage not in FAILURE_STAGES:
            stage = "abort"
        return VerdictRecord(0, False, stage, None, None)
    if t_msg.phase != PHASE_T_REPLY or not _qubit_block(t_msg.payload, 2 * n + t):
        return VerdictRecord(0, False, "bob_auth", None, None)
    if not _authentic(bob.macs["bob"], t_msg.meta, t_msg.tag):
        return VerdictRecord(0, False, "bob_auth", None, None)
    ok, stripped = qauth_verify(t_msg.payload, bob.store.link("bob").auth_key_at(1), t, bob.rng)
    if not ok:
        return VerdictRecord(0, False, "bob_final_auth", None, None)
    if int(t_msg.meta["r"]) != 1:
        return VerdictRecord(0, False, "sig_check", None, None)
    try:
        recovered, _ = extract_factor(stripped, list(range(n)))
    except EntangledFactorError:
        recovered = None  # accepted, but the halves are entangled post-measurement
    return VerdictRecord(1, True, "none", recovered, None)


# ---------------------------------------------------------------------------
# whole sessions


def run_session(config: SessionConfig, adversary_hook=None, parties: SessionParties | None = None) -> Transcript:
    """One full session on a fresh Haar-random message.

    adversary_hook(position, msg) -> msg may rewrite the message in flight at
    positions "sigma", "y", "t_reply". The transcript logs a state digest and
    cumulative RNG draw counts after every step, and the verdict gains
    recovered_fidelity against the original message when bob both accepts and
    recovers an unentangled message factor.
    """
    if parties is None:
        parties = setup(config)
    alice, bob, arbiter = parties.alice, parties.bob, parties.arbiter
    msg_rng = new_rng(derive_seed(config.seed, "message"))
    psi = sample_random_pure(2, config.n, msg_rng)
    copy = PureState(2, config.n, psi.amps)
    events: list[dict] = []

    def log(event: str, party: str, payload: PureState | None, draws: int) -> None:
        events.append(
            {
                "event": event,
                "party": party,
                "digest": state_digest(payload) if payload is not None else "",
                "rng_draws": draws,
            }
        )

    def channel(position: str, msg: ProtocolMessage) -> ProtocolMessage:
        if adversary_hook is None:
            return msg
        msg = adversary_hook(position, msg)
        log(f"channel_{position}", "adversary", msg.payload, 0)
        return msg

    sigma = alice_sign(alice, psi, copy)
    log("alice_sign", "alice", sigma.payload, alice.rng.draws)
    sigma = channel("sigma", sigma)
    y = bob_wrap(bob, sigma)
    log("bob_wrap", "bob", y.payload, bob.rng.draws)
    y = channel("y", y)
    reply = arbiter_adjudicate(arbiter, y)
    log("arbiter_adjudicate", "arbiter", reply.payload, arbiter.rng.draws)
    reply = channel("t_reply", reply)
    verdict = bob_finalize(bob, reply)
    log("bob_finalize", "bob", None, bob.rng.draws)
    if verdict.accepted and verdict.recovered_message is not None:
        verdict = replace(verdict, recovered_fidelity=fidelity(verdict.recovered_message, psi))
    return Transcript(config, events, verdict, psi)
