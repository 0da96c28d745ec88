"""Uniform random qubit Clifford elements, kept as their canonical-form data.

Sampling follows the canonical form U = F1 H S F2 of Bravyi and Maslov
(arXiv:2003.09412): a Weyl element (a qubit permutation S and a set of
Hadamards H) drawn by quantum Mallows sampling, and two independent uniform
Hadamard-free Borel elements F1 and F2, each a lower-triangular CNOT network
followed by S and CZ phases. A uniform Pauli layer then sets the sign bits,
giving every Clifford (mod global phase) the same probability. A CliffordOp
keeps these draws as they came and derives its gate list from them.

Application works on a state vector and does not go gate by gate: F2 with
the permutation, then the H layer, then F1 with the Pauli layer. The H layer
runs each butterfly on one of the top bits of a rotated amplitude layout,
where its rows are long.

Each application runs on two buffers of the state's size. Every stage and
every rotation writes from the buffer that holds the data into the idle one,
and a butterfly keeps its difference half in the idle one. The two buffers
and each stage's index and phase tables are this thread's workspace: views of
the first 2^m entries of arrays kept from call to call, which grow to the
largest m applied and are never shrunk, so a thread retains 48 B x 2^m (3 MiB
at 16 qubits, 48 MiB at MAX_AMPS); the process also keeps one read-only
int64 x-mask per size and trap count (512 KiB at 16 qubits with no traps).
No result aliases the workspace: the last step of each form writes into a
fresh array. The pick of undo_clifford_column runs while the trap weights sit
in the workspace, so it must not apply a Clifford.

There are two application routines, both trap-aware. The first H-free
stage is a permutation with a phase, so apply_clifford_padded applies an op
to a payload followed by t |0> traps without building that block: only the
2^n payload rows go through the stage, into a zeroed array.
undo_clifford_column undoes an op and keeps one column of the (payload,
traps) view: the inverse ends with that stage, whose phase leaves squared
magnitudes alone, so the column weights are read before it and only the
kept column goes through it. apply_clifford is these forms with no traps:
the padded form for an op, and for an inverted op the column read's undo up
to that last stage, then the stage's gather on the whole vector.

Bit conventions: a Pauli on m qubits is a length-2m GF(2) vector with
v[2i] the X-bit and v[2i+1] the Z-bit of qubit i; a symplectic matrix's row
2i is the image of X_i, row 2i+1 the image of Z_i.
"""
from __future__ import annotations

import functools
import threading
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import compress

import numpy as np

from .qsim import PureState

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# canonical-form data and sampling


@dataclass(frozen=True)
class CliffordOp:
    """U = F1 H S F2 followed by X and Z, or U^dagger if inverted.

    Each Borel element F is a pair (lower, gamma) of m x m 0/1 rows: CNOT(j -> i)
    for each lower[i][j] with j < i, then S on qubit i for gamma[i][i] and CZ on
    (i, j) for gamma[i][j] with i < j. The permutation brings qubit perm[i] to
    position i, H acts on each qubit q with had[q], and X and Z on the qubits
    set in xs and zs. Empty data is the identity, so CliffordOp(m) is one.
    """

    m: int
    f2: Sequence = ((), ())
    perm: Sequence[int] = ()
    had: Sequence[bool] = ()
    f1: Sequence = ((), ())
    xs: Sequence[int] = ()
    zs: Sequence[int] = ()
    inverted: bool = False

    def inverse(self) -> "CliffordOp":
        return replace(self, inverted=not self.inverted)

    @property
    def gates(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """The gate sequence in circuit order (first gate acts first)."""
        gates = _borel_gates(*self.f2)
        order = list(range(self.m))
        for i, q in enumerate(self.perm):  # bring qubit perm[i] to position i
            j = order.index(q)
            if j != i:
                gates.append(("swap", (i, j)))
                order[i], order[j] = q, order[i]
        gates += [("h", (q,)) for q, h in enumerate(self.had) if h]
        gates += _borel_gates(*self.f1)
        gates += [("x", (q,)) for q, x in enumerate(self.xs) if x] + [("z", (q,)) for q, z in enumerate(self.zs) if z]
        if self.inverted:
            return tuple(("sdg" if name == "s" else name, qs) for name, qs in reversed(gates))
        return tuple(gates)


def _borel_gates(lower, gamma) -> list[tuple[str, tuple[int, ...]]]:
    """CNOT(j -> i) for each set bit of the strictly lower part of lower,
    targets in decreasing i, then S on the diagonal and CZ on the upper part
    of gamma."""
    gates = [("cnot", (j, i)) for i in range(len(lower) - 1, -1, -1) for j in range(i) if lower[i][j]]
    gates += [("s", (i,)) for i, row in enumerate(gamma) if row[i]]
    gates += [("cz", (i, j)) for i, row in enumerate(gamma) for j in range(i + 1, len(row)) if row[j]]
    return gates


def sample_clifford(m: int, rng: np.random.Generator) -> CliffordOp:
    """Uniformly random m-qubit Clifford (mod phase), in canonical form."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    # Weyl element by quantum Mallows sampling: Hadamard flags and a permutation,
    # from one draw below 4^(m - i) for each position i
    had, perm, inds = [], [], list(range(m))
    for i, r in enumerate(rng.integers(1, [4 ** (m - i) for i in range(m)]).tolist()):
        mm = m - i
        k = 2 * mm - r.bit_length()
        had.append(k < mm)
        perm.append(inds.pop(k if k < mm else 2 * mm - k - 1))
    # Borel elements F2 and F1, then the X and Z bits, from one draw: only the
    # strict lower part of L and the upper part of Gamma (a symmetric matrix) are read
    rows = rng.integers(0, 2, size=(4 * m + 2, m)).tolist()
    f2, f1 = [rows[:m], rows[m : 2 * m]], [rows[2 * m : 3 * m], rows[3 * m : 4 * m]]
    xs, zs = rows[4 * m :]
    return CliffordOp(m, f2, perm, had, f1, xs, zs)


# ---------------------------------------------------------------------------
# fast application
#
# Each H-free stage, F2 then the permutation or F1 then X and Z, maps basis
# states as |x> -> i^q(y) |P y + xs> with y = (I + L) x over GF(2) and
# q(y) = sum_i Gamma_ii y_i + 2 sum_{i<j} Gamma_ij y_i y_j + 2 zs.y + 2 |zs & xs|
# (Dehaene & De Moor, PRA 68, 042318, 2003). It is built from the sampled rows
# with Python-int bitmasks and applied as one scatter times i^q, its inverse as
# the gather from the same arrays times i^-q; each H is a butterfly. Every step
# is exact apart from the butterflies, which do the same IEEE arithmetic as one
# H at a time, so the result matches gate-by-gate application up to the sign
# of zeros. A zero input row contributes nothing to a scatter, so a stage
# can be built for the rows whose low lo bits are 0 alone (_index_phase's
# lo), and a gather for any subset of its rows.
#
# A butterfly on qubit q pairs rows of 2^(m-1-q) amplitudes, which are short
# for high q. The H layer therefore keeps the state in a rotated qubit order
# and moves the next qubit up with one transpose copy into the idle buffer
# whenever it falls below the top _TOP bits; each element still meets the same
# butterflies in the same order, so the bytes do not change.
#
# Bits: x is the flat amplitude index, so qubit q is bit m - 1 - q. Mod 4 the
# phase is const + (odd & x has odd parity) + 2 (even . x) + 2 x^T quad x over
# GF(2), quad held as row bitmasks: the S terms sum to the parity of their
# y_i plus twice their pairwise products, which join the CZ terms. One table
# entry is a key word of 3m + 1 bits, the xor over the set bits j of x of
#   cols[j] | quad[j] << m | quad[j] << 2m | odd_j << 3m
# from key[0] = b | even << m | even << 2m. Its low m bits are the index
# A x + b; the two copies of C = even ^ xor_{j in x} quad[j] and the parity
# of odd & x lie under the size's x-mask x << m | x << 2m | 1 << 3m, so the
# popcount of key & mask is 2 |C & x| + (odd & x parity), which is the phase
# less const mod 4. The table is doubled over the bits of x, one xor per bit.
# Phases are reduced to 0..3 because take is fast only while every index is in
# range: with out-of-range indices its wrap mode took 766 us instead of 48 us
# at m = 16 on a 2-core machine. So a gather reads i^-q from _I_POW_INV rather
# than negating q.

_I_POW = np.array([1, 1j, -1, -1j], dtype=np.complex64)  # exact, and the size of an int64 phase
_I_POW_INV = _I_POW[[0, 3, 2, 1]]  # i^-q: the same entries, so the same bytes
_TOP = 4  # butterflies run on the top _TOP bits of the rotated layout
_scratch = threading.local()


def _workspace(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """This thread's two complex128 state buffers, int64 index table and
    int64 phase table, as views of their first 2^m entries."""
    arrays = getattr(_scratch, "arrays", None)
    if arrays is None or arrays[0].size < 1 << m:
        dtypes = (np.complex128, np.complex128, np.int64, np.int64)
        arrays = _scratch.arrays = [np.empty(1 << m, dtype=dt) for dt in dtypes]
    size = 1 << m
    return arrays[0][:size], arrays[1][:size], arrays[2][:size], arrays[3][:size]


@functools.lru_cache(maxsize=None)
def _x_mask(m: int, lo: int) -> np.ndarray:
    """x << m | x << 2m | 1 << 3m for each flat index x whose low lo bits are
    0, in order of x: a read-only constant of the size, built in place."""
    mask = np.arange(0, 1 << 2 * m, 1 << (m + lo), dtype=np.int64)
    mask *= (1 << m) + 1
    mask |= 1 << 3 * m
    mask.flags.writeable = False
    return mask


def _factor(phase: np.ndarray, powers: np.ndarray = _I_POW) -> np.ndarray:
    """powers[phase], i^phase by default, written over the phase table's own
    memory; phase is in 0..3."""
    return powers.take(phase, out=phase.view(np.complex64), mode="clip")


def _index_phase(m: int, cols, b: int, const: int, odd: int, even: int, quad, lo: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Destination index A x + b and Z4 phase of every flat index x whose low
    lo bits are 0, in order of x, where bit j of x flips the output bits of
    cols[j]. Both are the workspace tables."""
    key, phase = _workspace(m - lo)[2:]
    key[0] = b | (even | even << m) << m
    for j in range(lo, m):
        # entries [2^(j-lo), 2^(j-lo+1)) are entries [0, 2^(j-lo)) with bit j set
        h = 1 << (j - lo)
        np.bitwise_xor(key[:h], cols[j] | (quad[j] | quad[j] << m | (odd >> j & 1) << 2 * m) << m, out=key[h : 2 * h])
    np.bitwise_and(key, _x_mask(m, lo), out=phase)
    np.bitwise_count(phase, out=phase)
    if const:
        phase += const
    phase &= 3
    key &= (1 << m) - 1
    return key, phase


def _stage(m: int, borel, perm, xs, zs, lo: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """_index_phase of |x> -> i^q(y) |P y + xs>, y = (I + L) x."""
    lower, gamma = borel
    bit = [1 << (m - 1 - i) for i in range(m)]
    # y_i is the parity of x & rows[i]; the bits are distinct, so sum is or
    rows = [bit[i] + sum(compress(bit, row[:i])) for i, row in enumerate(lower)] or bit
    # CZ adds 2 y_i y_j. Mod 4 the S terms sum to the parity of their y_i,
    # which is that of x & odd, plus 2 y_i y_j for each pair of them
    partners, odd = [0] * m, 0
    for i in range(len(gamma) - 1, -1, -1):
        row, p = gamma[i], 0
        for j in range(i + 1, m):
            if row[j]:
                p ^= rows[j]
        if row[i]:
            p ^= odd
            odd ^= rows[i]
        partners[i] = p
    even = 0
    for i, z in enumerate(zs):
        if z:
            even ^= rows[i]
    # output qubit k is y_perm[k], so y_i lands on out_bit[i]; each bit j of
    # rows[i] flips that output bit and adds partners[i] to quad[j]
    out_bit = bit[:]
    for i, q in enumerate(perm):
        out_bit[q] = bit[i]
    cols, quad = [0] * m, [0] * m
    for r, o, p in zip(rows, out_bit, partners):
        while r:
            low = r & -r
            r ^= low
            j = low.bit_length() - 1
            cols[j] |= o
            quad[j] ^= p
    b = sum(bit[i] for i, x in enumerate(xs) if x)
    return _index_phase(m, cols, b, 2 * sum(x & z for x, z in zip(xs, zs)), odd, even, quad, lo)


def _scatter(src: np.ndarray, out: np.ndarray, m: int, borel, perm, xs, zs) -> None:
    """out = |x> -> i^q(y) |P y + xs>, y = (I + L) x, of src, which it phases
    in place first."""
    dest, phase = _stage(m, borel, perm, xs, zs)
    src *= _factor(phase)
    out[dest] = src


def _gather(src: np.ndarray, out: np.ndarray, m: int, borel, perm, xs, zs) -> None:
    """out = the inverse of _scatter's map, of src: out[x] = i^-q[x] src[dest[x]].
    Each element meets the same product as when src is phased at dest first."""
    dest, phase = _stage(m, borel, perm, xs, zs)
    # dest is a permutation, so clip never clips; it spares raise mode's buffered copy of out
    np.take(src, dest, out=out, mode="clip")
    out *= _factor(phase, _I_POW_INV)


def _hadamard(a: np.ndarray, q: int, idle: np.ndarray) -> None:
    """H on qubit q of a, in place; the difference half goes through idle."""
    v = a.reshape(1 << q, 2, -1)
    v0, v1 = v[:, 0], v[:, 1]
    d = np.subtract(v0, v1, out=idle.reshape(-1)[: v0.size].reshape(v0.shape))
    v0 += v1
    v0 *= _INV_SQRT2
    np.multiply(d, _INV_SQRT2, out=v1)


def _rotate(buf: np.ndarray, idle: np.ndarray, m: int, s: int) -> None:
    """idle = buf with its top s qubit bits moved below the other m - s."""
    idle.reshape(1 << (m - s), 1 << s, -1)[...] = buf.reshape(1 << s, 1 << (m - s), -1).transpose(1, 0, 2)


def _hadamards(buf: np.ndarray, idle: np.ndarray, m: int, hs: list[int], inverted: bool):
    """H on each qubit of hs, in that order; returns the buffer that holds the
    result and the idle one. hs ascends, or descends for an inverse; a rotation
    puts the qubit on the top bit or on bit _TOP - 1 respectively, so that the
    next qubits need no copy. Each rotation writes into the idle buffer, and
    the two swap roles."""
    r = 0  # buf holds qubits r, ..., m - 1, 0, ..., r - 1 from the top bit down
    for q in hs:
        p = (q - r) % m
        if p >= _TOP:
            p = _TOP - 1 if inverted else 0
            _rotate(buf, idle, m, (q - p - r) % m)
            buf, idle = idle, buf
            r = (q - p) % m
        _hadamard(buf, p, idle)
    # test r, not the buffer: an even count of rotations can end on buf with r != 0
    if r:
        _rotate(buf, idle, m, -r % m)
        buf, idle = idle, buf
    return buf, idle


def _layers(op: CliffordOp):
    """The H-free stage a forward op applies first, its H qubits in order, and
    the H-free stage it applies last."""
    return (op.f2, op.perm, (), ()), [q for q, h in enumerate(op.had) if h], (op.f1, (), op.xs, op.zs)


def _check_state(state: PureState, n: int) -> None:
    if state.d != 2:
        raise ValueError("Clifford application requires qubit registers (d = 2)")
    if state.n != n:
        raise ValueError(f"expected a state of {n} qubits, got {state.n}")


def apply_clifford(state: PureState, op: CliffordOp) -> PureState:
    """Apply a Clifford to a qubit state (all registers): the padded form
    with no traps, or for an inverted op the undo of its forward op up to the
    first stage, then that stage's gather."""
    if not op.inverted:
        return apply_clifford_padded(state, op, 0)
    amps, _, first = _undo_to_first_stage(state, op.inverse())
    out = np.empty_like(amps)
    _gather(amps, out, op.m, *first)
    return PureState(2, op.m, out)


def apply_clifford_padded(state: PureState, op: CliffordOp, t: int) -> PureState:
    """op applied to tensor(state, |0^t>), for an op that is not inverted.

    Only the 2^n rows of the payload are nonzero, and the first stage is a
    permutation with a phase, so it takes just those rows (the traps are the
    low t bits of the flat index) and scatters them into a zeroed block.
    Every nonzero amplitude meets the same arithmetic as on the full block."""
    if op.inverted:
        raise ValueError("the padded application takes an op that is not inverted")
    _check_state(state, op.m - t)
    first, hs, last = _layers(op)
    amps, idle = _workspace(op.m)[:2]
    dest, phase = _stage(op.m, *first, lo=t)
    payload = np.multiply(state.amps, _factor(phase), out=idle[: state.amps.size])
    amps.fill(0)
    amps[dest] = payload
    buf, idle = _hadamards(amps, idle, op.m, hs, False)
    out = np.empty_like(buf)
    _scatter(buf, out, op.m, *last)
    return PureState(2, op.m, out)


def _undo_to_first_stage(state: PureState, op: CliffordOp):
    """The inverse of a forward op on state, all but its last step: the
    gather of op's last stage, then the H layer in reverse. Returns the
    workspace buffer that holds the result, the idle one, and op's first
    stage, whose gather completes the inverse."""
    _check_state(state, op.m)
    first, hs, last = _layers(op)
    amps, idle = _workspace(op.m)[:2]
    _gather(state.amps, amps, op.m, *last)
    amps, idle = _hadamards(amps, idle, op.m, hs[::-1], True)
    return amps, idle, first


def undo_clifford_column(state: PureState, op: CliffordOp, t: int, pick) -> tuple[int, np.ndarray]:
    """c and column c of the (2^n, 2^t) view of apply_clifford(state,
    op.inverse()), for an op that is not inverted. c = pick(w), where w holds
    the squared norms of the 2^t columns.

    The last stage of the inverse is the gather a[x] = i^-q[x] out[dest[x]],
    whose phase leaves |a|^2 unchanged: w is read from |out|^2 through dest,
    and only the 2^n rows of column c are gathered and phased. The values
    equal those of the full inverse."""
    if op.inverted:
        raise ValueError("the column read takes an op that is not inverted")
    amps, idle, first = _undo_to_first_stage(state, op)
    dest, phase = _stage(op.m, *first)
    # |amps|^2 and its gather through dest go to the two halves of the idle buffer
    sq, weights = np.split(idle.view(np.float64), 2)
    np.abs(amps, out=sq)
    np.multiply(sq, sq, out=sq)
    np.take(sq, dest, out=weights, mode="clip")
    cols = 1 << t
    col = pick(weights.reshape(-1, cols).sum(axis=0))
    rows = slice(col, None, cols)
    kept = amps[dest[rows]]
    kept *= _factor(phase[rows], _I_POW_INV)
    return col, kept

