"""Shared-key primitives: key schedule, one-time MAC, quantum OTP, trap authentication.

Everything here is information-theoretic given fresh key material; the key
schedule itself is a deterministic SHA-256 expansion of a master seed so
that two parties holding the same link seed derive bit-identical material
without communicating. Derivation paths are disjoint per purpose (``auth``,
``mac``, ``sig``) and per index; callers name the index they use, and
one-time MAC pads are guarded against reuse (below). The quantum one-time
pad takes its key from the caller and has no place in the schedule.

The MAC is a polynomial-evaluation universal hash over GF(2^b) masked with
a one-time pad: tag = H_r(message) xor pad[index]. The message is split
into big-endian b-bit blocks with zero padding and no length block, so the
hash of the empty (or all-zero) message is zero and its tag is the pad
itself. Messages that differ only by trailing zero padding therefore
collide; callers MAC fixed-format metadata where lengths are implied, which
keeps that out of scope. Reusing a pad index for tagging raises.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .clifford import CliffordOp, apply_clifford_padded, sample_clifford, undo_clifford_column
from .qsim import PureState, Sampled, derive_seed, make_state, new_rng, parity_labels

MAC_WIDTHS = (16, 32, 64)

# Irreducible reduction polynomials x^b + ... for GF(2^b).
_REDUCTION = {16: 0x1002B, 32: 0x10000008D, 64: 0x1000000000000001B}

_MAX_BLOCKS = 1 << 16


class PadReuseError(RuntimeError):
    """A one-time MAC pad index was used for tagging twice."""


# ---------------------------------------------------------------------------
# key schedule


@dataclass(frozen=True)
class AuthKey:
    """Seed selecting the trap-scrambling Clifford."""

    seed: int

    def __post_init__(self) -> None:
        if self.seed is None:
            raise TypeError("an auth key needs an integer seed")


@dataclass
class MacKey:
    """Evaluation point plus per-index pads for the one-time polynomial MAC."""

    width: int
    seed: int
    used: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.width not in MAC_WIDTHS:
            raise ValueError(f"tag width must be one of {MAC_WIDTHS}, got {self.width}")

    @cached_property
    def point(self) -> int:
        return derive_seed(self.seed, "mac_point", self.width) & ((1 << self.width) - 1)

    def pad(self, index: int) -> int:
        if index < 0:
            raise ValueError("pad index must be nonnegative")
        return derive_seed(self.seed, "mac_pad", self.width, index) & ((1 << self.width) - 1)


@dataclass(frozen=True)
class LinkKey:
    """All key material one party shares with one counterpart, seed-derived.

    Every method is a pure lookup, so the counterpart re-derives the same
    material from the same index.
    """

    role: str
    seed: int

    def auth_key_at(self, index: int) -> AuthKey:
        return AuthKey(derive_seed(self.seed, "auth", index))

    def mac_key(self, width: int) -> MacKey:
        return MacKey(width, derive_seed(self.seed, "mac", width))

    def sig_seed(self) -> int:
        return derive_seed(self.seed, "sig")


def derive_keys(master_seed: int, roles: list[str]) -> dict[str, LinkKey]:
    """Derive independent link keys for each role from one master seed."""
    if len(set(roles)) != len(roles):
        raise ValueError(f"duplicate roles in {roles}")
    return {role: LinkKey(role, derive_seed(master_seed, "link", role)) for role in roles}


# ---------------------------------------------------------------------------
# one-time MAC


def gf_mul(a: int, b: int, width: int) -> int:
    """Carry-less multiply in GF(2^width) with the fixed reduction polynomial."""
    poly = _REDUCTION[width]
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> width:
            a ^= poly
    return r


def mac_capacity(width: int) -> int:
    """The longest message, in bytes, that one tag of this width covers."""
    return _MAX_BLOCKS * (width // 8)


def _blocks(message: bytes, width: int) -> list[int]:
    nbytes = width // 8
    if len(message) > mac_capacity(width):
        raise ValueError(f"message exceeds {_MAX_BLOCKS} blocks")
    padded = message + b"\x00" * (-len(message) % nbytes)
    return [int.from_bytes(padded[i : i + nbytes], "big") for i in range(0, len(padded), nbytes)]


def _wc_hash(key: MacKey, message: bytes) -> int:
    h = 0
    for blk in _blocks(message, key.width):
        h = gf_mul(h, key.point, key.width) ^ blk
    return gf_mul(h, key.point, key.width)


@dataclass(frozen=True)
class MacTag:
    value: int
    width: int
    pad_index: int


def wc_tag(key: MacKey, message: bytes, pad_index: int) -> MacTag:
    """One-time tag: polynomial hash at the secret point, masked by pad[pad_index]."""
    if pad_index in key.used:
        raise PadReuseError(f"pad index {pad_index} already consumed on this key")
    key.used.add(pad_index)
    return MacTag(_wc_hash(key, message) ^ key.pad(pad_index), key.width, pad_index)


def wc_check(key: MacKey, message: bytes, tag: MacTag) -> bool:
    """Verify a tag. Does not consume the pad: checking is free, tagging is not.
    A tag of another width or whose pad index is not a nonnegative int fails."""
    if tag.width != key.width or not (isinstance(tag.pad_index, int) and tag.pad_index >= 0):
        return False
    return tag.value == (_wc_hash(key, message) ^ key.pad(tag.pad_index))


# ---------------------------------------------------------------------------
# quantum one-time pad


def qotp(state: PureState, qotp_key: np.ndarray, direction: str) -> PureState:
    """Pauli one-time pad on every register: X^a Z^b with (a, b) = key row.

    Encryption applies the phase part first, then the shifts; decryption
    inverts in the opposite order. Averaging the encryption over all d^2
    single-register keys yields the maximally mixed state exactly.
    """
    key = np.asarray(qotp_key, dtype=np.int64)
    if key.shape != (state.n, 2):
        raise ValueError(f"key shape must be ({state.n}, 2), got {key.shape}")
    key = key % state.d
    d, n = state.d, state.n
    if direction == "encrypt":
        amps = _phase_layer(state.amps, d, n, key[:, 1])
        amps = _shift_layer(amps, d, n, key[:, 0])
    elif direction == "decrypt":
        amps = _shift_layer(state.amps, d, n, -key[:, 0] % d)
        amps = _phase_layer(amps, d, n, -key[:, 1] % d)
    else:
        raise ValueError(f"direction must be 'encrypt' or 'decrypt', got {direction!r}")
    return PureState(d, n, amps)


def _phase_layer(amps: np.ndarray, d: int, n: int, phases: np.ndarray) -> np.ndarray:
    if not phases.any():
        return amps
    expo = parity_labels(d, n, phases, range(n))
    return amps * np.exp(2j * np.pi * expo / d)


def _shift_layer(amps: np.ndarray, d: int, n: int, shifts: np.ndarray) -> np.ndarray:
    if not shifts.any():
        return amps
    arr = amps.reshape((d,) * n)
    moved = [q for q in range(n) if shifts[q]]
    arr = np.roll(arr, shift=[int(shifts[q]) for q in moved], axis=moved)
    return arr.reshape(-1)


# ---------------------------------------------------------------------------
# trap authentication


def _auth_clifford(auth_key: AuthKey, m: int) -> CliffordOp:
    return sample_clifford(m, new_rng(auth_key.seed))


def qauth_encode(state: PureState, auth_key: AuthKey, t: int) -> PureState:
    """Append t |0> traps and scramble payload+traps with the keyed Clifford.

    Equal to applying the Clifford to tensor(state, |0^t>), but the block is
    never built: the Clifford's first H-free stage moves only the 2^n payload
    rows, into a zeroed 2^(n+t) array."""
    if state.d != 2:
        raise ValueError("trap authentication requires qubit registers (d = 2)")
    if t < 0:
        raise ValueError(f"trap count must be nonnegative, got {t}")
    if t == 0:
        warnings.warn("t = 0 gives an authentication block with no traps", stacklevel=2)
    return apply_clifford_padded(state, _auth_clifford(auth_key, state.n + t), t)


def _read_traps(weights: np.ndarray, t: int, source: Sampled) -> int:
    """Draw trap j from its Born distribution given traps 0..j-1, one
    source.draw per trap, from the 2^t column weights; returns the column."""
    col = 0
    for j in range(t):
        col = 2 * col + source.draw(weights.reshape(2**j, 2, -1)[col].sum(axis=1))
    return col


def qauth_verify(state: PureState, auth_key: AuthKey, t: int, source: Sampled) -> tuple[bool, PureState]:
    """Unscramble, measure the last t registers as traps, accept iff all read 0.

    Returns the payload, the first state.n - t registers after unscrambling,
    whether or not the traps accept, so callers can decide what to do with a
    rejected block. With t = 0 acceptance is vacuous.

    The traps are read from the (payload, traps) column weights of the
    unscrambled block: trap j is drawn from its Born distribution given traps
    0..j-1, one source.draw per trap, as measuring them one at a time would
    draw. The last H-free stage of the unscrambling only permutes and phases,
    so the weights are taken before it, and only the kept column goes
    through it.
    """
    if not 0 <= t < state.n:
        raise ValueError(f"need 0 <= t < {state.n} traps to leave a payload register, got t = {t}")
    if t == 0:
        warnings.warn("verifying an authentication block with no traps is vacuous", stacklevel=2)
    op = _auth_clifford(auth_key, state.n)
    col, payload = undo_clifford_column(state, op, t, lambda weights: _read_traps(weights, t, source))
    # with no traps the unscrambled block is the payload, already normalized
    return col == 0, make_state(2, state.n - t, payload) if t else PureState(2, state.n, payload)
