"""Uniform random qubit Clifford elements, as exact gate sequences.

Sampling follows the canonical form U = F1 H S F2 of Bravyi and Maslov
(arXiv:2003.09412): a Weyl element (a qubit permutation S and a set of
Hadamards H) drawn by quantum Mallows sampling, and two independent uniform
Hadamard-free Borel elements F1 and F2, each a lower-triangular CNOT network
followed by S and CZ phases. A uniform Pauli layer then sets the sign bits,
giving every Clifford (mod global phase) the same probability. The gate list
comes out directly, in circuit order: F2, the SWAPs realizing the
permutation, H on the Hadamard qubits, F1, then X and Z.

Application works in place, on a state vector or on the columns of a dense
matrix, and does not go gate by gate. Each maximal run of gates without H is
folded into one map |x> -> i^q(x) |Ax + b>, with A and b affine over GF(2)
and q a Z4 quadratic form (Dehaene and De Moor, PRA 68, 042318, 2003). The
run then costs one index scatter and one phase multiply; each H is a
butterfly. A sampled operator, or its inverse, is two such passes around one
H layer. Dense matrices are materialized only on request and only for
m <= MATRIX_CAP.

Bit conventions: a Pauli on m qubits is a length-2m GF(2) vector with
v[2i] the X-bit and v[2i+1] the Z-bit of qubit i; a symplectic matrix's row
2i is the image of X_i, row 2i+1 the image of Z_i.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .qsim import GateMatrix, PureState

MATRIX_CAP = 12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_DAGGER = {"h": "h", "s": "sdg", "sdg": "s", "cnot": "cnot", "cz": "cz", "swap": "swap", "x": "x", "z": "z"}


# ---------------------------------------------------------------------------
# gate sequences and sampling


def is_symplectic(g: np.ndarray) -> bool:
    nn = g.shape[0]
    jmat = np.zeros((nn, nn), dtype=np.int64)
    for i in range(nn // 2):
        jmat[2 * i, 2 * i + 1] = 1
        jmat[2 * i + 1, 2 * i] = 1
    return np.array_equal(g @ jmat @ g.T % 2, jmat)


@dataclass(frozen=True)
class CliffordOp:
    """A Clifford as a gate sequence in circuit order (first gate acts first)."""

    m: int
    gates: tuple[tuple[str, tuple[int, ...]], ...]

    def inverse(self) -> "CliffordOp":
        inv = tuple((_DAGGER[name], qs) for name, qs in reversed(self.gates))
        return CliffordOp(self.m, inv)

    def unitary(self) -> GateMatrix:
        """Dense matrix realization; capped at m <= MATRIX_CAP."""
        if self.m > MATRIX_CAP:
            raise ValueError(f"dense realization capped at m={MATRIX_CAP}, got {self.m}")
        mat = np.eye(2**self.m, dtype=np.complex128)
        _apply_gates(mat, self.m, self.gates)
        return GateMatrix(2, self.m, mat)


def _borel_gates(m: int, rng: np.random.Generator) -> list[tuple[str, tuple[int, ...]]]:
    """Uniform Hadamard-free Borel element: CNOT(j -> i) for each set bit of a
    strictly lower-triangular L, targets in decreasing i, then S on the
    diagonal and CZ on the upper part of a symmetric Gamma."""
    lower, gamma = rng.integers(0, 2, size=(2, m, m)).tolist()
    gates = [("cnot", (j, i)) for i in range(m - 1, -1, -1) for j in range(i) if lower[i][j]]
    gates += [("s", (i,)) for i in range(m) if gamma[i][i]]
    gates += [("cz", (i, j)) for i in range(m) for j in range(i + 1, m) if gamma[i][j]]
    return gates


def sample_clifford(m: int, rng: np.random.Generator) -> CliffordOp:
    """Uniformly random m-qubit Clifford (mod phase), as a gate sequence."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    # Weyl element by quantum Mallows sampling: Hadamard flags and a permutation
    had, perm, inds = [], [], list(range(m))
    for i in range(m):
        mm = m - i
        k = 2 * mm - int(rng.integers(1, 4**mm)).bit_length()
        had.append(k < mm)
        perm.append(inds.pop(k if k < mm else 2 * mm - k - 1))
    gates = _borel_gates(m, rng)  # F2
    order = list(range(m))
    for i, q in enumerate(perm):  # bring qubit perm[i] to position i
        j = order.index(q)
        if j != i:
            gates.append(("swap", (i, j)))
            order[i], order[j] = q, order[i]
    gates += [("h", (q,)) for q in range(m) if had[q]]
    gates += _borel_gates(m, rng)  # F1
    xs, zs = rng.integers(0, 2, size=(2, m)).tolist()
    gates += [("x", (q,)) for q in range(m) if xs[q]] + [("z", (q,)) for q in range(m) if zs[q]]
    return CliffordOp(m, tuple(gates))


# ---------------------------------------------------------------------------
# fast in-place application
#
# A maximal run of H-free gates (cnot, swap, x, z, s, sdg, cz) maps basis
# states as |x> -> i^phase(x) |A x + b> over GF(2), with phase a Z4 quadratic
# form in x (Dehaene & De Moor, PRA 68, 042318, 2003). Each run is folded into
# that form with Python-int bitmasks and applied as one scatter times i^phase;
# the H gates between runs are butterflies. Every step is exact apart from the
# butterflies, which do the same IEEE arithmetic as one H at a time, so the
# result matches gate-by-gate application up to the sign of zeros.
#
# Bits: x is the flat amplitude index, so qubit q is bit m - 1 - q. The phase
# is const + sum_j lin[j] x_j + 2 sum_{j,k} quad[j]_k x_j x_k (mod 4), with
# quad held as row bitmasks; only its GF(2) value matters.

_PHASE_POWER = {"s": 1, "z": 2, "sdg": 3}  # the gate is diag(1, i^k)
_I_POW = np.array([1, 1j, -1, -1j], dtype=np.complex64)  # exact; half the bytes of a complex128 factor


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows: list[int], m: int) -> list[int]:
    cols = [0] * m
    for p, r in enumerate(rows):
        for j in _bits(r):
            cols[j] |= 1 << p
    return cols


def _affine_phase(m: int, run) -> tuple[np.ndarray, np.ndarray]:
    """Destination index A x + b and Z4 phase of every flat index x for an
    H-free run of gates."""
    rows = [1 << p for p in range(m)]  # output bit p is the parity of x & rows[p], xor b_p
    b, const, lin, quad = 0, 0, [0] * m, [0] * m
    cz: dict[int, int] = {}  # pending CZ partners of each output bit, folded in one product per bit

    def add_product(alpha: int, beta: int, gamma: int, delta: int) -> None:
        # phase += 2 (alpha.x + beta)(gamma.x + delta)
        nonlocal const
        for j in _bits(alpha):
            quad[j] ^= gamma
        for j in _bits((alpha if delta else 0) ^ (gamma if beta else 0)):
            lin[j] += 2
        const += 2 * (beta & delta)

    def flush_cz() -> None:
        for p, partners in cz.items():
            gamma = 0
            for r in _bits(partners):
                gamma ^= rows[r]
            add_product(rows[p], (b >> p) & 1, gamma, (b & partners).bit_count() & 1)
        cz.clear()

    for name, qs in run:
        ps = [m - 1 - q for q in qs]
        if name in ("cnot", "swap", "x"):
            flush_cz()
            if name == "x":
                b ^= 1 << ps[0]
            elif name == "cnot":
                c, t = ps
                rows[t] ^= rows[c]
                b ^= ((b >> c) & 1) << t
            else:
                p, r = ps
                rows[p], rows[r] = rows[r], rows[p]
                if ((b >> p) ^ (b >> r)) & 1:
                    b ^= (1 << p) | (1 << r)
        elif name == "cz":
            cz[ps[0]] = cz.get(ps[0], 0) ^ (1 << ps[1])
        elif name in _PHASE_POWER:
            # k y_p with y_p = parity(alpha.x) xor beta; mod 4, a parity is
            # sum_j x_j - 2 sum_{j<l} x_j x_l, and beta = 1 turns k y into k - k y
            k, p = _PHASE_POWER[name], ps[0]
            alpha = rows[p]
            if (b >> p) & 1:
                const += k
                k = -k
            for j in _bits(alpha):
                lin[j] += k
                if k & 1:
                    quad[j] ^= alpha & ~((2 << j) - 1)
        else:
            raise ValueError(f"unknown gate {name!r}")
    flush_cz()

    # Double over the bits of x: entries [2^j, 2^(j+1)) are entries [0, 2^j)
    # with bit j set. The low m bits of key hold A x + b; bit m + k holds the
    # parity of x against the cross terms pairing bit k with lower bits.
    cols, quad_cols = _transpose(rows, m), _transpose(quad, m)
    n = 1 << m
    key = np.empty(n, dtype=np.int64)
    phase = np.empty(n, dtype=np.int64)
    key[0], phase[0] = b, const
    for j in range(m):
        h = 1 << j
        cross = quad[j] ^ quad_cols[j]
        np.bitwise_xor(key[:h], cols[j] | (cross >> (j + 1) << (m + j + 1)), out=key[h : 2 * h])
        hi = phase[h : 2 * h]
        np.right_shift(key[:h], m + j - 1, out=hi)
        hi &= 2
        hi += phase[:h]
        hi += lin[j] + 2 * ((quad[j] >> j) & 1)
    key &= n - 1
    phase &= 3
    return key, phase


# Each step gets its own function, and the phase is dropped before the scatter
# copies the state, so at most the index and one state copy are alive at once.


def _apply_run(a2: np.ndarray, m: int, run) -> None:
    dest, phase = _affine_phase(m, run)
    a2 *= _I_POW[phase][:, None]
    del phase
    a2[dest] = a2.copy()


def _hadamard(a2: np.ndarray, q: int) -> None:
    v = a2.reshape(1 << q, 2, -1)
    v0, v1 = v[:, 0], v[:, 1]
    d = v0 - v1
    v0 += v1
    v0 *= _INV_SQRT2
    np.multiply(d, _INV_SQRT2, out=v1)


def _apply_gates(a: np.ndarray, m: int, gates) -> None:
    """Apply gates in circuit order, in place, on a (2^m,) vector or (2^m, batch) array."""
    a2 = a.reshape(1 << m, -1)
    for is_h, run in itertools.groupby(gates, key=lambda g: g[0] == "h"):
        if is_h:
            for _, (q,) in run:
                _hadamard(a2, q)
        else:
            _apply_run(a2, m, run)


def apply_clifford(state: PureState, op: CliffordOp) -> PureState:
    """Apply a Clifford gate sequence to a qubit state (all registers)."""
    if state.d != 2:
        raise ValueError("Clifford application requires qubit registers (d = 2)")
    if state.n != op.m:
        raise ValueError(f"operator acts on {op.m} qubits, state has {state.n}")
    amps = state.amps.copy()
    _apply_gates(amps, op.m, op.gates)
    return PureState(2, op.m, amps)


# ---------------------------------------------------------------------------
# dense Pauli helper (tests, calibration)

_P1 = {
    (0, 0): np.eye(2, dtype=np.complex128),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=np.complex128),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=np.complex128),  # Y = i X Z
    (0, 1): np.diag([1.0, -1.0]).astype(np.complex128),
}


def pauli_from_bits(vec: np.ndarray, sign: int) -> np.ndarray:
    """Hermitian Pauli matrix for an (x|z) bit vector with a sign bit."""
    out = np.array([[1.0 + 0j]])
    for q in range(len(vec) // 2):
        out = np.kron(out, _P1[(int(vec[2 * q]), int(vec[2 * q + 1]))])
    return (-1) ** int(sign) * out
