"""Uniform random qubit Clifford elements, as exact gate sequences.

Sampling follows the canonical form U = F1 H S F2 of Bravyi and Maslov
(arXiv:2003.09412): a Weyl element (a qubit permutation S and a set of
Hadamards H) drawn by quantum Mallows sampling, and two independent uniform
Hadamard-free Borel elements F1 and F2, each a lower-triangular CNOT network
followed by S and CZ phases. A uniform Pauli layer then sets the sign bits,
giving every Clifford (mod global phase) the same probability. The gate list
comes out directly, in circuit order: F2, the SWAPs realizing the
permutation, H on the Hadamard qubits, F1, then X and Z. Application is in
place and slice-based so 16-qubit blocks stay in the tens of milliseconds;
dense matrices are materialized only on request and only for m <= MATRIX_CAP.

Bit conventions: a Pauli on m qubits is a length-2m GF(2) vector with
v[2i] the X-bit and v[2i+1] the Z-bit of qubit i; a symplectic matrix's row
2i is the image of X_i, row 2i+1 the image of Z_i.
"""
from __future__ import annotations

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

# Views: for a C-contiguous (2^m,) or (2^m, batch) array, qubit q's axis can
# be exposed as reshape(2^q, 2, rest) with the batch folded into the tail.


def _axis_view(a: np.ndarray, m: int, q: int, batch: int) -> np.ndarray:
    return a.reshape(1 << q, 2, (1 << (m - 1 - q)) * batch)


def _pair_view(a: np.ndarray, m: int, qa: int, qb: int, batch: int) -> np.ndarray:
    # requires qa < qb
    return a.reshape(1 << qa, 2, 1 << (qb - qa - 1), 2, (1 << (m - 1 - qb)) * batch)


def _apply_gates(a: np.ndarray, m: int, gates) -> None:
    """Apply gates in circuit order, in place, on a vector or column batch."""
    batch = a.shape[1] if a.ndim == 2 else 1
    for name, qs in gates:
        if name == "h":
            v = _axis_view(a, m, qs[0], batch)
            a0 = v[:, 0, :].copy()
            v[:, 0, :] += v[:, 1, :]
            v[:, 0, :] *= _INV_SQRT2
            v[:, 1, :] *= -1.0
            v[:, 1, :] += a0
            v[:, 1, :] *= _INV_SQRT2
        elif name == "s":
            _axis_view(a, m, qs[0], batch)[:, 1, :] *= 1j
        elif name == "sdg":
            _axis_view(a, m, qs[0], batch)[:, 1, :] *= -1j
        elif name == "z":
            _axis_view(a, m, qs[0], batch)[:, 1, :] *= -1.0
        elif name == "x":
            v = _axis_view(a, m, qs[0], batch)
            tmp = v[:, 0, :].copy()
            v[:, 0, :] = v[:, 1, :]
            v[:, 1, :] = tmp
        elif name == "cz":
            qa, qb = sorted(qs)
            _pair_view(a, m, qa, qb, batch)[:, 1, :, 1, :] *= -1.0
        elif name == "cnot":
            c, t = qs
            if c < t:
                v = _pair_view(a, m, c, t, batch)
                blk = v[:, 1, :, 0, :].copy()
                v[:, 1, :, 0, :] = v[:, 1, :, 1, :]
                v[:, 1, :, 1, :] = blk
            else:
                v = _pair_view(a, m, t, c, batch)
                blk = v[:, 0, :, 1, :].copy()
                v[:, 0, :, 1, :] = v[:, 1, :, 1, :]
                v[:, 1, :, 1, :] = blk
        elif name == "swap":
            qa, qb = sorted(qs)
            v = _pair_view(a, m, qa, qb, batch)
            blk = v[:, 0, :, 1, :].copy()
            v[:, 0, :, 1, :] = v[:, 1, :, 0, :]
            v[:, 1, :, 0, :] = blk
        else:
            raise ValueError(f"unknown gate {name!r}")


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
