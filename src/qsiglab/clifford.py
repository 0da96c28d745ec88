"""Uniform random qubit Clifford elements, as exact gate sequences.

Sampling is two-stage: a uniformly random symplectic matrix over GF(2) by
the transvection recursion, then uniform sign bits, giving every Clifford
(mod global phase) the same probability. Synthesis reduces the signed
tableau to the identity over {H, S, CNOT, CZ, SWAP, X, Z} and returns the
inverse circuit, which realizes the tableau exactly (checked densely in
tests for small m). Application is in place and slice-based so 16-qubit
blocks stay in the tens of milliseconds; dense matrices are materialized
only on request and only for m <= MATRIX_CAP.

Bit conventions: a Pauli on m qubits is a length-2m GF(2) vector with
v[2i] the X-bit and v[2i+1] the Z-bit of qubit i. Tableau row 2i is the
image of X_i, row 2i+1 the image of Z_i, plus one sign bit per row
(image = (-1)^sign times the Hermitian Pauli of the row vector).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qsim import GateMatrix, PureState

MATRIX_CAP = 12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_DAGGER = {"h": "h", "s": "sdg", "sdg": "s", "cnot": "cnot", "cz": "cz", "swap": "swap", "x": "x", "z": "z"}


# ---------------------------------------------------------------------------
# symplectic group over GF(2)


def sym_inner(u: np.ndarray, v: np.ndarray) -> int:
    """Symplectic form <u, v> = sum_i u_xi v_zi + u_zi v_xi mod 2."""
    t = 0
    for i in range(len(u) // 2):
        t ^= (u[2 * i] & v[2 * i + 1]) ^ (u[2 * i + 1] & v[2 * i])
    return int(t)


def transvect(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (v + sym_inner(h, v) * h) % 2


def find_transvection(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h0, h1 with T_h1(T_h0(x)) = y, for nonzero x, y."""
    nn = len(x)
    z = np.zeros(nn, dtype=np.int64)
    if np.array_equal(x, y):
        return z.copy(), z.copy()
    if sym_inner(x, y) == 1:
        return (x + y) % 2, z.copy()
    # a qubit where both have support
    for i in range(nn // 2):
        ii = 2 * i
        if (x[ii] or x[ii + 1]) and (y[ii] or y[ii + 1]):
            z[ii] = (x[ii] + y[ii]) % 2
            z[ii + 1] = (x[ii + 1] + y[ii + 1]) % 2
            if z[ii] == 0 and z[ii + 1] == 0:  # x equals y on this qubit
                z[ii + 1] = 1
                if x[ii] != x[ii + 1]:
                    z[ii] = 1
            return (x + z) % 2, (y + z) % 2
    # disjoint supports: one qubit from each side
    for i in range(nn // 2):
        ii = 2 * i
        if (x[ii] or x[ii + 1]) and not (y[ii] or y[ii + 1]):
            if x[ii] == x[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = x[ii]
                z[ii] = x[ii + 1]
            break
    for i in range(nn // 2):
        ii = 2 * i
        if not (x[ii] or x[ii + 1]) and (y[ii] or y[ii + 1]):
            if y[ii] == y[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = y[ii]
                z[ii] = y[ii + 1]
            break
    return (x + z) % 2, (y + z) % 2


def random_symplectic(m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random element of Sp(2m, 2); row j is the image of basis vector j."""
    nn = 2 * m
    f1 = np.zeros(nn, dtype=np.int64)
    while not f1.any():
        f1 = rng.integers(0, 2, size=nn)
    e1 = np.zeros(nn, dtype=np.int64)
    e1[0] = 1
    t0, t1 = find_transvection(e1, f1)
    bits = rng.integers(0, 2, size=nn - 1)
    eprime = e1.copy()
    eprime[2:] = bits[1:]
    h0 = transvect(t1, transvect(t0, eprime))
    if bits[0] == 1:
        f1 = np.zeros(nn, dtype=np.int64)  # disables the final transvection
    if m == 1:
        g = np.eye(2, dtype=np.int64)
    else:
        g = np.eye(nn, dtype=np.int64)
        g[2:, 2:] = random_symplectic(m - 1, rng)
    for j in range(nn):
        r = transvect(t0, g[j])
        r = transvect(t1, r)
        r = transvect(h0, r)
        g[j] = transvect(f1, r)
    return g


def is_symplectic(g: np.ndarray) -> bool:
    nn = g.shape[0]
    jmat = np.zeros((nn, nn), dtype=np.int64)
    for i in range(nn // 2):
        jmat[2 * i, 2 * i + 1] = 1
        jmat[2 * i + 1, 2 * i] = 1
    return np.array_equal(g @ jmat @ g.T % 2, jmat)


# ---------------------------------------------------------------------------
# signed tableau


class Tableau:
    """Signed stabilizer tableau: conjugation action of a Clifford on Paulis."""

    def __init__(self, mat: np.ndarray, signs: np.ndarray):
        self.m = mat.shape[0] // 2
        self.mat = np.array(mat, dtype=np.int64) % 2
        self.signs = np.array(signs, dtype=np.int64) % 2

    def copy(self) -> "Tableau":
        return Tableau(self.mat, self.signs)

    # conjugation rules P -> G P Gdg, applied to every row

    def h(self, q: int) -> None:
        x, z = self.mat[:, 2 * q], self.mat[:, 2 * q + 1]
        self.signs ^= x & z
        self.mat[:, 2 * q], self.mat[:, 2 * q + 1] = z.copy(), x.copy()

    def s(self, q: int) -> None:
        x, z = self.mat[:, 2 * q], self.mat[:, 2 * q + 1]
        self.signs ^= x & z
        self.mat[:, 2 * q + 1] = z ^ x

    def cnot(self, c: int, t: int) -> None:
        xc, zc = self.mat[:, 2 * c], self.mat[:, 2 * c + 1]
        xt, zt = self.mat[:, 2 * t], self.mat[:, 2 * t + 1]
        self.signs ^= xc & zt & (xt ^ zc ^ 1)
        self.mat[:, 2 * t] = xt ^ xc
        self.mat[:, 2 * c + 1] = zc ^ zt

    def cz(self, a: int, b: int) -> None:
        xa, za = self.mat[:, 2 * a], self.mat[:, 2 * a + 1]
        xb, zb = self.mat[:, 2 * b], self.mat[:, 2 * b + 1]
        self.signs ^= xa & xb & (za ^ zb)
        self.mat[:, 2 * a + 1] = za ^ xb
        self.mat[:, 2 * b + 1] = zb ^ xa

    def swap(self, a: int, b: int) -> None:
        for off in (0, 1):
            col = self.mat[:, 2 * a + off].copy()
            self.mat[:, 2 * a + off] = self.mat[:, 2 * b + off]
            self.mat[:, 2 * b + off] = col

    def zgate(self, q: int) -> None:
        self.signs ^= self.mat[:, 2 * q]

    def xgate(self, q: int) -> None:
        self.signs ^= self.mat[:, 2 * q + 1]

    def apply(self, name: str, qs: tuple[int, ...]) -> None:
        if name == "h":
            self.h(qs[0])
        elif name == "s":
            self.s(qs[0])
        elif name == "cnot":
            self.cnot(qs[0], qs[1])
        elif name == "cz":
            self.cz(qs[0], qs[1])
        elif name == "swap":
            self.swap(qs[0], qs[1])
        elif name == "z":
            self.zgate(qs[0])
        elif name == "x":
            self.xgate(qs[0])
        else:
            raise ValueError(f"unknown gate {name!r}")


def sample_tableau(m: int, rng: np.random.Generator) -> Tableau:
    """Uniform signed tableau: uniform symplectic part, uniform sign bits."""
    return Tableau(random_symplectic(m, rng), rng.integers(0, 2, size=2 * m))


# ---------------------------------------------------------------------------
# synthesis


def _reduction_ops(tab: Tableau) -> list[tuple[str, tuple[int, ...]]]:
    """Gate list that reduces tab to the identity tableau (circuit order)."""
    t = tab.copy()
    m = t.m
    ops: list[tuple[str, tuple[int, ...]]] = []

    def emit(name: str, *qs: int) -> None:
        ops.append((name, qs))
        t.apply(name, qs)

    for j in range(m):
        # image of X_j -> exactly X_j
        row = 2 * j
        xs = [q for q in range(j, m) if t.mat[row, 2 * q]]
        if not xs:
            zq = next(q for q in range(j, m) if t.mat[row, 2 * q + 1])
            emit("h", zq)
            xs = [zq]
        p = xs[0]
        for r in xs[1:]:
            emit("cnot", p, r)
        if p != j:
            emit("swap", p, j)
        if t.mat[row, 2 * j + 1]:  # Y at j -> X
            emit("s", j)
        for r in range(j + 1, m):
            if t.mat[row, 2 * r + 1]:
                emit("cz", j, r)
        if t.signs[row]:
            emit("z", j)
        # image of Z_j -> exactly Z_j, with X_j kept fixed (H-conjugated pass)
        row = 2 * j + 1
        emit("h", j)
        for r in range(j + 1, m):
            if t.mat[row, 2 * r]:
                emit("cnot", j, r)
        if t.mat[row, 2 * j + 1]:
            emit("s", j)
        for r in range(j + 1, m):
            if t.mat[row, 2 * r + 1]:
                emit("cz", j, r)
        if t.signs[row]:
            emit("z", j)
        emit("h", j)
    assert np.array_equal(t.mat, np.eye(2 * m, dtype=np.int64)), "tableau reduction failed"
    assert not t.signs.any(), "sign reduction failed"
    return ops


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


def synthesize(tab: Tableau) -> CliffordOp:
    """Circuit whose conjugation action is exactly the given signed tableau."""
    reduction = _reduction_ops(tab)
    gates = tuple((_DAGGER[name], qs) for name, qs in reversed(reduction))
    return CliffordOp(tab.m, gates)


def sample_clifford(m: int, rng: np.random.Generator) -> CliffordOp:
    """Uniformly random m-qubit Clifford (mod phase), as a gate sequence."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return synthesize(sample_tableau(m, rng))


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
