"""Uniform random qubit Clifford elements, kept as their canonical-form data.

Sampling follows the canonical form U = F1 H S F2 of Bravyi and Maslov
(arXiv:2003.09412): a Weyl element (a qubit permutation S and a set of
Hadamards H) drawn by quantum Mallows sampling, and two independent uniform
Hadamard-free Borel elements F1 and F2, each a lower-triangular CNOT network
followed by S and CZ phases. A uniform Pauli layer then sets the sign bits,
giving every Clifford (mod global phase) the same probability. A CliffordOp
keeps these draws as they came and derives its gate list from them.

Application works on a state vector and does not go gate by gate: F2 with
the permutation, then the H layer, then F1 with the Pauli layer. Inside the
H layer the qubits sit in another order: each H qubit is on the bottom bit of
the flat index when its turn comes, so each butterfly pairs neighbouring
entries and writes contiguous halves, and the stages on either side of the
layer write and read that order directly.

Each application runs on two buffers of the state's size. Every stage and
every butterfly writes from the buffer that holds the data into the idle
one, and the two swap roles. The two buffers and each stage's index and
phase tables are this thread's workspace: views of the first 2^m entries of
arrays kept from call to call, which grow to the largest m applied and are
never shrunk, so a thread retains 48 B x 2^m (3 MiB at 16 qubits, 48 MiB at
MAX_AMPS); the process also keeps one read-only int64 x-mask per size and
trap count (512 KiB at 16 qubits with no traps). No result aliases the
workspace: the last step of each form writes into a fresh array. The pick of
undo_clifford_column runs while the trap weights sit in the workspace, so it
must not apply a Clifford.

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
# A layout gives each qubit its bit of the flat amplitude index; in the
# natural one, which every state outside this module has, qubit q is bit
# m - 1 - q. A butterfly in place on qubit q would pair rows of 2^(m-1-q)
# amplitudes, which are short for high q. So the layer's first layout puts
# the H qubits on the low bits in the order they run (_layers), and each
# butterfly reads its pair at the bottom bit and writes the sum and
# difference as the two halves of the idle buffer: that rotates the index
# down by one bit and brings the next H qubit to the bottom (_hadamards).
# The stage before the layer scatters into its first layout and the stage
# after it reads its last: a stage takes the bit of each qubit on both
# sides, so a layout costs nothing at table build. Each element still meets
# the same butterflies in the same order, and each stage entry is the same
# product at a relabelled index, so the bytes are those of the natural
# layout throughout.
#
# Bits: x is the flat index on the stage's input side. Mod 4 the
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


def _stage(m: int, borel, perm, xs, zs, bit_in, bit_out, lo: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """_index_phase of |x> -> i^q(y) |P y + xs>, y = (I + L) x, where qubit i
    is the flat-index bit bit_in[i] of x and bit_out[i] of the output."""
    lower, gamma = borel
    # y_i is the parity of x & rows[i]; the bits are distinct, so sum is or
    rows = [bit_in[i] + sum(compress(bit_in, row[:i])) for i, row in enumerate(lower)] or bit_in
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
    out_bit = bit_out[:]
    for i, q in enumerate(perm):
        out_bit[q] = bit_out[i]
    cols, quad = [0] * m, [0] * m
    for r, o, p in zip(rows, out_bit, partners):
        while r:
            low = r & -r
            r ^= low
            j = low.bit_length() - 1
            cols[j] |= o
            quad[j] ^= p
    b = sum(bit_out[i] for i, x in enumerate(xs) if x)
    return _index_phase(m, cols, b, 2 * sum(x & z for x, z in zip(xs, zs)), odd, even, quad, lo)


def _scatter(src: np.ndarray, out: np.ndarray, m: int, *stage) -> None:
    """out = |x> -> i^q(y) |P y + xs>, y = (I + L) x, of src, which it phases
    in place first; stage is _stage's arguments after m."""
    dest, phase = _stage(m, *stage)
    src *= _factor(phase)
    out[dest] = src


def _gather(src: np.ndarray, out: np.ndarray, m: int, *stage) -> None:
    """out = the inverse of _scatter's map, of src: out[x] = i^-q[x] src[dest[x]].
    Each element meets the same product as when src is phased at dest first."""
    dest, phase = _stage(m, *stage)
    # dest is a permutation, so clip never clips; it spares raise mode's buffered copy of out
    np.take(src, dest, out=out, mode="clip")
    out *= _factor(phase, _I_POW_INV)


def _hadamards(buf: np.ndarray, idle: np.ndarray, m: int, count: int):
    """H on the bottom bit of buf, count times; returns the buffer that holds
    the result and the idle one. Each butterfly writes the sums and
    differences of the even and odd entries of buf, scaled, to the low and
    high halves of the idle buffer, which rotates the index down by one bit."""
    half = 1 << (m - 1)
    for _ in range(count):
        np.add(buf[0::2], buf[1::2], out=idle[:half])
        np.subtract(buf[0::2], buf[1::2], out=idle[half:])
        np.multiply(idle, _INV_SQRT2, out=idle)
        buf, idle = idle, buf
    return buf, idle


def _layers(op: CliffordOp, inverted: bool = False):
    """The H-free stage a forward op applies first, the number of its H
    qubits, and the H-free stage it applies last, each with its input and
    output layouts (_stage's bit_in and bit_out) for the H layer of op, or of
    its inverse if inverted.

    The state side of each stage has the natural layout. The layer's first
    layout holds its H qubits from the bottom bit up in the order it runs
    them, ascending for op and descending for its inverse, then the other
    qubits ascending; its last is that layout rotated down by one bit per H."""
    m = op.m
    hs = [q for q, h in enumerate(op.had) if h]
    if inverted:
        hs.reverse()
    order = hs + [q for q in range(m) if q not in hs]
    start, end = [0] * m, [0] * m
    for i, q in enumerate(order):
        start[q], end[q] = 1 << i, 1 << (i - len(hs)) % m
    # start and end meet op's first and last stage: the inverse layer runs from end to start
    if inverted:
        start, end = end, start
    natural = [1 << (m - 1 - q) for q in range(m)]
    return (op.f2, op.perm, (), (), natural, start), len(hs), (op.f1, (), op.xs, op.zs, end, natural)


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
    first, count, last = _layers(op)
    amps, idle = _workspace(op.m)[:2]
    dest, phase = _stage(op.m, *first, lo=t)
    payload = np.multiply(state.amps, _factor(phase), out=idle[: state.amps.size])
    amps.fill(0)
    amps[dest] = payload
    buf, idle = _hadamards(amps, idle, op.m, count)
    out = np.empty_like(buf)
    _scatter(buf, out, op.m, *last)
    return PureState(2, op.m, out)


def _undo_to_first_stage(state: PureState, op: CliffordOp):
    """The inverse of a forward op on state, all but its last step: the
    gather of op's last stage, then the H layer in reverse. Returns the
    workspace buffer that holds the result, the idle one, and op's first
    stage, whose gather completes the inverse."""
    _check_state(state, op.m)
    first, count, last = _layers(op, inverted=True)
    amps, idle = _workspace(op.m)[:2]
    _gather(state.amps, amps, op.m, *last)
    amps, idle = _hadamards(amps, idle, op.m, count)
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

