"""State, gate and Pauli constructors that only the tests use."""
from typing import Sequence

import numpy as np

from qsiglab.clifford import CliffordOp
from qsiglab.fieldcode import FunctionalMatrix, mod_rref
from qsiglab.qsim import GateMatrix, PureState

# ---------------------------------------------------------------------------
# qudit states and gates


def basis_state(d: int, n: int, digits: Sequence[int]) -> PureState:
    """Computational basis state |digits[0], ..., digits[n-1]>."""
    if len(digits) != n:
        raise ValueError(f"expected {n} digits, got {len(digits)}")
    amps = np.zeros(d**n, dtype=np.complex128)
    amps[np.ravel_multi_index(tuple(digits), (d,) * n)] = 1.0
    return PureState(d, n, amps)


def identity_gate(d: int, m: int = 1) -> GateMatrix:
    return GateMatrix(d, m, np.eye(d**m))


def shift_gate(d: int, a: int = 1) -> GateMatrix:
    """Generalized X^a: adds a to the computational label mod d."""
    entries = np.zeros((d, d))
    for j in range(d):
        entries[(j + a) % d, j] = 1.0
    return GateMatrix(d, 1, entries)


def clock_gate(d: int, b: int = 1) -> GateMatrix:
    """Generalized Z^b: phase omega^(b*label) per label."""
    omega = np.exp(2j * np.pi / d)
    return GateMatrix(d, 1, np.diag(omega ** (b * np.arange(d))))


# ---------------------------------------------------------------------------
# qubit Paulis, symplectic matrices and Clifford references, in clifford's bit conventions

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def is_symplectic(g: np.ndarray) -> bool:
    nn = g.shape[0]
    jmat = np.zeros((nn, nn), dtype=np.int64)
    for i in range(nn // 2):
        jmat[2 * i, 2 * i + 1] = 1
        jmat[2 * i + 1, 2 * i] = 1
    return np.array_equal(g @ jmat @ g.T % 2, jmat)


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


def reference_hadamard(a: np.ndarray, q: int, idle: np.ndarray) -> None:
    """H on qubit q (flat-index bit m - 1 - q) of a, in place, one butterfly on
    the pairs of rows that bit splits; the difference half goes through idle.
    The H layer's arithmetic: each amplitude pair (u, v) becomes
    ((u + v) * 2^-1/2, (u - v) * 2^-1/2)."""
    v = a.reshape(1 << q, 2, -1)
    v0, v1 = v[:, 0], v[:, 1]
    d = np.subtract(v0, v1, out=idle.reshape(-1)[: v0.size].reshape(v0.shape))
    v0 += v1
    v0 *= _INV_SQRT2
    np.multiply(d, _INV_SQRT2, out=v1)


def reference_sample_clifford(m: int, rng: np.random.Generator) -> CliffordOp:
    """sample_clifford with one rng call per Mallows bound and one per Borel
    element: the draws and rng state that its batched calls must reproduce."""
    had, perm, inds = [], [], list(range(m))
    for i in range(m):
        mm = m - i
        k = 2 * mm - int(rng.integers(1, 4**mm)).bit_length()
        had.append(k < mm)
        perm.append(inds.pop(k if k < mm else 2 * mm - k - 1))
    f2 = rng.integers(0, 2, size=(2, m, m)).tolist()
    f1 = rng.integers(0, 2, size=(2, m, m)).tolist()
    xs, zs = rng.integers(0, 2, size=(2, m)).tolist()
    return CliffordOp(m, f2, perm, had, f1, xs, zs)


# ---------------------------------------------------------------------------
# field-code reference


def evaluate(fm: FunctionalMatrix, x) -> np.ndarray:
    """All 2k coordinates y_i(x) of message vector(s) x under fm's functionals."""
    return np.asarray(x, dtype=np.int64) % fm.d @ fm.rows.T % fm.d


def mod_inv_matrix(mat, d: int) -> np.ndarray:
    """Inverse of a square matrix mod prime d; raises on singular input."""
    a = np.array(mat, dtype=np.int64) % d
    k = a.shape[0]
    if a.shape != (k, k):
        raise ValueError("matrix must be square")
    aug = np.concatenate([a, np.eye(k, dtype=np.int64)], axis=1)
    rref, pivots = mod_rref(aug, d)
    if pivots[:k] != list(range(k)):
        raise ValueError("matrix is singular mod d")
    return np.array([row[k:] for row in rref], dtype=np.int64)


def reference_decode_tables(fm: FunctionalMatrix, subset: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The decode's forward and inverse tables by matrix inversion: solve the
    subset rows for x on every label, then emit (x_0, out-row coordinates)."""
    d, k = fm.d, fm.k
    subset = sorted(subset)
    out_rows = [i for i in range(1, 2 * k) if i not in subset]
    a_inv = mod_inv_matrix(fm.rows[subset], d)
    labels = np.indices((d,) * k).reshape(k, -1)
    x_all = a_inv @ labels % d
    out = np.concatenate([x_all[:1], fm.rows[out_rows] @ x_all % d])
    forward = np.ravel_multi_index(out, (d,) * k)
    inverse = np.empty_like(forward)
    inverse[forward] = np.arange(d**k)
    return forward, inverse
