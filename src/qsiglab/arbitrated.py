"""Three-party arbitrated signing session over authenticated quantum channels.

Roles: alice signs a quantum message, bob receives it and cannot validate it
alone, a trusted arbiter adjudicates. Alice shares one key link with the
arbiter, bob shares another; alice and bob share nothing. One session is
four phases: SIGMA (alice -> bob: signed message plus a plaintext copy,
trap-authenticated), Y (bob -> arbiter: alice's block re-authenticated
under bob's key), T_REPLY (arbiter -> bob: validity bit r plus the
repacked registers), or ABORT in place of T_REPLY when a check fails on
the arbiter's side. Classical metadata rides under one-time MACs.

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
from functools import reduce
from itertools import product

import numpy as np

from .authcrypto import (
    MAC_WIDTHS,
    LinkKey,
    MacKey,
    MacTag,
    derive_keys,
    mac_capacity,
    qauth_encode,
    qauth_verify,
    wc_check,
    wc_tag,
)
from .qsim import (
    MAX_AMPS,
    EntangledFactorError,
    GateMatrix,
    PureState,
    Sampled,
    apply_gate,
    controlled_add_gate,
    derive_seed,
    extract_factor,
    fidelity,
    hadamard_gate,
    new_rng,
    outcome_source,
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
        regs = 2 * self.n + 2 * self.t  # bob's block, the largest state a session holds
        if 2**regs > MAX_AMPS:
            raise ValueError(f"2n + 2t = {regs} qubits need 2^{regs} amplitudes, over the cap {MAX_AMPS}")


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
    """A session's events, verdict and message. Each event keeps the payload
    state it saw, which is read-only, and json_lines() logs its digest."""

    config: SessionConfig
    events: list[dict]
    verdict: VerdictRecord
    message: PureState

    def json_lines(self) -> str:
        lines = [_canon_json(_event_record(**e)) for e in self.events]
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


def _event_record(event: str, party: str, payload: PureState | None, rng_draws: int) -> dict:
    digest = state_digest(payload) if payload is not None else ""
    return {"type": "event", "event": event, "party": party, "digest": digest, "rng_draws": rng_draws}


def _canon_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_meta(meta: dict) -> bytes:
    """Deterministic byte encoding of message metadata, the MAC'd content."""
    return _canon_json(meta).encode("utf-8")


def _meta_bytes(meta, mac: MacKey) -> bytes | None:
    """canonical_meta, or None for metadata JSON cannot encode or that is
    too long for one tag under mac."""
    try:
        message = canonical_meta(meta)
    except (TypeError, ValueError, RecursionError):
        return None
    return message if len(message) <= mac_capacity(mac.width) else None


def _qubit_block(payload, regs: int) -> bool:
    """The shape check each party makes before it uses a key on a payload."""
    return isinstance(payload, PureState) and payload.d == 2 and payload.n == regs


def _send(phase: str, payload: PureState | None, mac: MacKey, pad: int, **fields) -> ProtocolMessage:
    """The message in phase carrying payload, its metadata {phase, **fields}
    tagged under mac with pad index pad."""
    meta = {"phase": phase, **fields}
    return ProtocolMessage(phase, payload, meta, wc_tag(mac, canonical_meta(meta), pad))


def _open(msg: ProtocolMessage, phase: str, mac: MacKey, regs: int | None = None) -> dict | None:
    """The metadata of msg if it is in phase, its payload is a qubit state of
    regs registers (when regs is given), and its metadata is a dict naming
    that phase under a tag that checks; otherwise None. Fails, rather than
    raises, on anything a channel adversary or a dishonest party put there."""
    if msg.phase != phase or (regs is not None and not _qubit_block(msg.payload, regs)):
        return None
    meta = msg.meta
    if not isinstance(meta, dict) or meta.get("phase") != phase or not isinstance(msg.tag, MacTag):
        return None
    message = _meta_bytes(meta, mac)
    return meta if message is not None and wc_check(mac, message, msg.tag) else None


# ---------------------------------------------------------------------------
# the keyed signing unitary


# The blocks a signing layer is built from, each made once by its qsim
# constructor: the Paulis I, X, Y, Z; H; diag(1, e^{i pi c / 4}) for
# c = 1, 3, 5, 7; and the qubit controlled-add with control first, then with
# control second.
_PAULIS = tuple(pauli_gate(p).entries for p in "IXYZ")
_HADAMARD = hadamard_gate().entries
_EIGHTH_PHASES = tuple(phase_eighth_gate(c).entries for c in (1, 3, 5, 7))
_CADD = controlled_add_gate(2).entries
_CADDS = (_CADD, _CADD.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices as one broadcast product, without its
    general-shape set-up; each entry is the same single product."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def signing_ops(n: int, sig_seed: int) -> GateMatrix:
    """Keyed signing unitary on n registers: 3n layers, deliberately non-Clifford.

    The fixed core is phase / Hadamard / phase with key-chosen odd eighth-phase
    exponents on every register, which already breaks Pauli covariance on one
    register. Remaining layers are key-chosen from register-wide Pauli,
    register-wide Hadamard, and neighbor controlled-add, keeping every key's
    unitary far from all Pauli-covariant behaviors (distance floor is
    calibrated, see NONCOMMUTATIVITY_THRESHOLD).

    Each layer is one Kronecker product of per-register blocks, register 0
    leading, and the layers fold into one dense 2^n x 2^n unitary
    U = L_{3n} ... L_1, so a party holds its key as a single GateMatrix. The
    fold costs 3n products of 2^n x 2^n matrices; SessionConfig keeps n small
    enough for the session's state vector.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = new_rng(sig_seed)

    def pauli_row() -> list[np.ndarray]:
        return [_PAULIS[rng.integers(0, 4)] for _ in range(n)]

    def phase_row() -> list[np.ndarray]:
        return [_EIGHTH_PHASES[rng.integers(0, 4)] for _ in range(n)]

    def cadd_row() -> list[np.ndarray]:
        q = int(rng.integers(0, n - 1))
        return [_PAULIS[0]] * q + [_CADDS[rng.integers(0, 2)]] + [_PAULIS[0]] * (n - q - 2)

    rows = [pauli_row()] if n > 1 else []
    rows += [phase_row(), [_HADAMARD] * n, phase_row()]
    while len(rows) < 3 * n:
        kind = int(rng.integers(0, 3))
        rows.append(pauli_row() if kind == 0 else [_HADAMARD] * n if kind == 1 else cadd_row())
    u = np.eye(2**n, dtype=np.complex128)
    for row in rows:
        u = reduce(_kron, row) @ u
    return GateMatrix(2, n, u)


def pauli_covariance_distance(u: np.ndarray, n: int) -> float:
    """min over P != I of the phase-optimized Frobenius distance from U P to
    the nearest P' U, quantifying how far U is from letting any Pauli slip
    through. Zero for Clifford U; the signing construction keeps it above
    NONCOMMUTATIVITY_THRESHOLD for every key."""
    dim = 2**n
    # all 4^n Paulis, register 0 most significant, codes I, X, Y, Z
    paulis = [reduce(np.kron, row) for row in product(_PAULIS, repeat=n)]
    right = [p @ u for p in paulis]
    best = np.inf
    for p in paulis[1:]:
        up = u @ p
        m = max(abs(np.einsum("ij,ij->", up.conj(), r)) for r in right)
        best = min(best, 2.0 * dim - 2.0 * float(m))
    return float(np.sqrt(max(best, 0.0)))


def signing_distance(n: int, sig_seed: int) -> float:
    """Pauli-covariance distance of the signing unitary for one key."""
    return pauli_covariance_distance(signing_ops(n, sig_seed).entries, n)


# ---------------------------------------------------------------------------
# parties


@dataclass
class Party:
    config: SessionConfig
    links: dict[str, LinkKey]
    rng: Sampled
    macs: dict[str, MacKey]
    signer: GateMatrix | None = None


@dataclass
class SessionParties:
    alice: Party
    bob: Party
    arbiter: Party


def setup(config: SessionConfig) -> SessionParties:
    """Deal key material: alice-arbiter and bob-arbiter links, nothing between
    alice and bob. Each party samples outcomes from its own rng stream and
    counts its draws. Alice's key is folded once, and she and the arbiter
    hold the same immutable GateMatrix."""

    def party(name: str, roles: list[str]) -> Party:
        links = derive_keys(config.seed, roles)
        rng = Sampled(new_rng(derive_seed(config.seed, "party", name)))
        macs = {role: link.mac_key(config.b) for role, link in links.items()}
        return Party(config, links, rng, macs)

    alice, bob, arbiter = party("alice", ["alice"]), party("bob", ["bob"]), party("arbiter", ["alice", "bob"])
    alice.signer = arbiter.signer = signing_ops(config.n, alice.links["alice"].sig_seed())
    return SessionParties(alice, bob, arbiter)


# ---------------------------------------------------------------------------
# protocol phases


def alice_sign(alice: Party, message_state: PureState, message_copy: PureState) -> ProtocolMessage:
    """SIGMA: sign the message, adjoin the plaintext copy, authenticate, MAC."""
    n, t = alice.config.n, alice.config.t
    for st in (message_state, message_copy):
        if st.d != 2 or st.n != n:
            raise ValueError(f"message must be {n} qubit registers, got d={st.d}, n={st.n}")
    signed = apply_gate(message_state, alice.signer, range(n))
    block = qauth_encode(tensor(signed, message_copy), alice.links["alice"].auth_key_at(0), t)
    return _send(PHASE_SIGMA, block, alice.macs["alice"], 0)


def bob_wrap(bob: Party, sigma_msg: ProtocolMessage) -> ProtocolMessage:
    """Y: re-authenticate alice's block under bob's key and forward it.

    Bob cannot check anything yet. His keyed Clifford already encrypts the
    block (trap authentication implies encryption), so no pad goes under it:
    each hop carries exactly one trap authentication. Bob binds what he saw
    (alice's metadata and tag travel inside his own MAC'd metadata) and sends
    it to the arbiter. A tag that is no MAC tag travels as None, and so does
    the metadata of a message in another phase. When what he saw cannot go
    under his MAC (JSON cannot encode it, or it is too long for one tag),
    both travel as None. The arbiter rejects any of these at arb_auth_inner.
    A payload that is not 2n + t qubit registers travels as None too, which
    the arbiter rejects at arb_auth_outer.
    """
    n, t = bob.config.n, bob.config.t
    mac = bob.macs["bob"]
    block = None
    if _qubit_block(sigma_msg.payload, 2 * n + t):
        block = qauth_encode(sigma_msg.payload, bob.links["bob"].auth_key_at(0), t)
    alice_meta = sigma_msg.meta if sigma_msg.phase == PHASE_SIGMA else None
    seen = {"alice_meta": alice_meta, "alice_tag": _tag_fields(sigma_msg.tag)}
    if _meta_bytes({"phase": PHASE_Y, **seen}, mac) is None:
        seen = dict.fromkeys(seen)
    return _send(PHASE_Y, block, mac, 0, **seen)


def arbiter_adjudicate(arbiter: Party, y_msg: ProtocolMessage) -> ProtocolMessage:
    """T_REPLY or ABORT: peel both wrappings, judge the signature, repack.

    Validity r = 1 means the unsigned message registers match the plaintext
    copy: one symmetric-subspace measurement, whose outcome comes from the
    arbiter's rng in protocol mode and from the referee (accept exactly when
    its probability is at least 1 - TOL) in referee mode. The reply carries
    the post-measurement state.
    A message that fails the open check of the outer (bob's) or the inner
    (alice's) wrapping ends in ABORT like any other failed check: one in
    another phase, with a payload that is not 2n + 2t qubit registers, or
    with metadata bob MAC'd that is no dict or carries a malformed alice tag.
    """
    n, t = arbiter.config.n, arbiter.config.t
    bob_link = arbiter.links["bob"]
    bob_mac = arbiter.macs["bob"]

    def abort(stage: str) -> ProtocolMessage:
        return _send(PHASE_ABORT, None, bob_mac, 1, failure_stage=stage)

    meta = _open(y_msg, PHASE_Y, bob_mac, 2 * n + 2 * t)
    if meta is None:
        return abort("arb_auth_outer")
    ok, inner = qauth_verify(y_msg.payload, bob_link.auth_key_at(0), t, arbiter.rng)
    if not ok:
        return abort("arb_auth_outer")

    sigma = ProtocolMessage(PHASE_SIGMA, None, meta.get("alice_meta"), _mac_tag(meta.get("alice_tag")))
    if _open(sigma, PHASE_SIGMA, arbiter.macs["alice"]) is None:
        return abort("arb_auth_inner")
    ok, core = qauth_verify(inner, arbiter.links["alice"].auth_key_at(0), t, arbiter.rng)
    if not ok:
        return abort("arb_auth_inner")

    unsigned = apply_gate(core, arbiter.signer.dagger(), range(n))
    source = outcome_source(arbiter.config.mode, arbiter.rng)
    rec = symmetric_subspace_measure(unsigned, list(range(n)), list(range(n, 2 * n)), source)
    r = 1 if rec.outcome == 0 else 0

    resigned = apply_gate(rec.post_state, arbiter.signer, range(n))
    reply_core = permute_registers(resigned, list(range(n, 2 * n)) + list(range(n)))
    block = qauth_encode(reply_core, bob_link.auth_key_at(1), t)
    return _send(PHASE_T_REPLY, block, bob_mac, 1, r=r)


def _tag_fields(tag) -> list[int] | None:
    """The [value, width, pad_index] list a tag travels as, or None if it is no MAC tag."""
    return [tag.value, tag.width, tag.pad_index] if isinstance(tag, MacTag) else None


def _mac_tag(raw) -> MacTag | None:
    """The tag a [value, width, pad_index] list names, or None for anything
    else; wc_check rejects a tag whose fields are no valid width and pad."""
    return MacTag(*raw) if isinstance(raw, list) and len(raw) == 3 else None


def bob_finalize(bob: Party, t_msg: ProtocolMessage) -> VerdictRecord:
    """Bob's verdict: check the arbiter's MAC and traps, then read r. A message
    in neither the T_REPLY nor the ABORT phase, or a T_REPLY payload that is
    not 2n + t qubit registers, fails at bob_auth."""
    n, t = bob.config.n, bob.config.t
    if t_msg.phase == PHASE_ABORT:
        stage = (_open(t_msg, PHASE_ABORT, bob.macs["bob"]) or {}).get("failure_stage")
        return VerdictRecord(0, False, stage if stage in FAILURE_STAGES else "abort", None, None)
    meta = _open(t_msg, PHASE_T_REPLY, bob.macs["bob"], 2 * n + t)
    if meta is None:
        return VerdictRecord(0, False, "bob_auth", None, None)
    ok, stripped = qauth_verify(t_msg.payload, bob.links["bob"].auth_key_at(1), t, bob.rng)
    if not ok:
        return VerdictRecord(0, False, "bob_final_auth", None, None)
    if meta.get("r") != 1:
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
    positions "sigma", "y", "t_reply". The transcript logs the payload state
    and cumulative RNG draw counts after every step, and the verdict gains
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
        events.append({"event": event, "party": party, "payload": payload, "rng_draws": draws})

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
