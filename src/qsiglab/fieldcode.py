"""Prime-field machinery behind the stand-alone signature scheme.

A key is a stack of 2k linear functionals on Z_d^k (d prime), built as a
Vandermonde matrix over distinct evaluation points so that every k-row
submatrix is invertible (the MDS property). From it derive:

  * the decode bijection: k received coordinates determine the underlying
    message vector x, hence also x_0 and every remaining coordinate;
  * the parity constraints: the k-1 independent linear relations satisfied
    by every valid coordinate tuple (y_1, ..., y_{2k-1}).

All arithmetic is mod d with d prime; inverses via pow(a, -1, d).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

# ---------------------------------------------------------------------------
# modular linear algebra (small systems, plain elimination)


def is_prime(d: int) -> bool:
    if d < 2:
        return False
    f = 2
    while f * f <= d:
        if d % f == 0:
            return False
        f += 1
    return True


def mod_rref(mat, d: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod prime d; returns (rref rows, pivot columns).

    The elimination runs on Python int lists: the systems here are at most
    k x 2k, where per-element numpy calls cost more than the arithmetic."""
    a = (np.array(mat, dtype=np.int64) % d).tolist()
    rows, cols = len(a), len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        scale = pow(a[r][c], -1, d)
        a[r] = [v * scale % d for v in a[r]]
        for i in range(rows):
            f = a[i][c]
            if i != r and f:
                a[i] = [(v - f * w) % d for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def mod_rank(mat, d: int) -> int:
    return len(mod_rref(mat, d)[1])


def mod_nullspace(mat, d: int) -> np.ndarray:
    """Basis (rows) of the nullspace {v : mat @ v = 0 mod d}."""
    cols = np.shape(mat)[1]
    rref, pivots = mod_rref(mat, d)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc] % d
        basis.append(v)
    return np.array(basis, dtype=np.int64).reshape(len(free), cols)


@functools.cache
def labels(d: int, m: int) -> np.ndarray:
    """Every label tuple of m registers of dimension d, as the columns of a read-only (m, d^m) table in flat order."""
    table = np.indices((d,) * m).reshape(m, -1)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class FunctionalMatrix:
    """2k linear functionals on Z_d^k: row i computes coordinate y_i(x).

    Row 0 is the unit vector e_0, so y_0 = x_0 always. ``codewords`` (read-only)
    holds the 2k coordinates of every x, one column per x in ``labels(d, k)``.
    """

    d: int
    k: int
    rows: np.ndarray
    codewords: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_prime(self.d):
            raise ValueError(f"modulus {self.d} is not prime")
        if self.d < 2 * self.k:
            raise ValueError(f"need d >= 2k, got d={self.d}, k={self.k}")
        rows = np.asarray(self.rows, dtype=np.int64) % self.d
        if rows.shape != (2 * self.k, self.k):
            raise ValueError(f"expected {2 * self.k}x{self.k} rows, got {rows.shape}")
        e0 = np.zeros(self.k, dtype=np.int64)
        e0[0] = 1
        if not np.array_equal(rows[0], e0):
            raise ValueError("row 0 must be the unit vector e_0")
        rows.flags.writeable = False
        codewords = rows @ labels(self.d, self.k) % self.d
        codewords.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "codewords", codewords)


@dataclass(frozen=True)
class TableBijection:
    """Bijection on Z_d^m backed by precomputed flat-index lookup tables.

    Construction checks that the two tables invert each other over all d^m
    labels and stores read-only int64 copies, so a built instance is a
    bijection and its users need not check again.
    """

    d: int
    m: int
    forward_table: np.ndarray
    inverse_table: np.ndarray

    def __post_init__(self) -> None:
        fwd = np.array(self.forward_table, dtype=np.int64)
        inv = np.array(self.inverse_table, dtype=np.int64)
        order = np.arange(self.d**self.m)
        if not (np.array_equal(fwd[inv], order) and np.array_equal(inv[fwd], order)):
            raise ValueError("supplied map is not a bijection (forward/inverse mismatch)")
        for name, table in (("forward_table", fwd), ("inverse_table", inv)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)


@dataclass(frozen=True)
class DecodeBijection(TableBijection):
    """The receiver-side relabeling on k registers.

    Forward: read the coordinates (y_{r_1}, ..., y_{r_k}) at the input rows
    ``in_subset``, solve the k x k system for the message vector x, and
    output (x_0, complement coordinates excluding index 0, ascending order):
    ``out_indices`` lists the complement rows actually emitted. Index 0 must
    not be in ``in_subset`` (the output slot for x_0 is what keeps the tuple
    length at k). Inverse lookup provided; both directions are total on
    Z_d^k.
    """

    in_subset: tuple[int, ...] = ()
    out_indices: tuple[int, ...] = ()

    @property
    def k(self) -> int:
        return self.m


@dataclass(frozen=True)
class ParityConstraintSet:
    """k-1 independent vectors annihilating every (y_1, ..., y_{2k-1}) tuple."""

    d: int
    vectors: np.ndarray

    def __post_init__(self) -> None:
        vecs = np.asarray(self.vectors, dtype=np.int64) % self.d
        vecs.flags.writeable = False
        object.__setattr__(self, "vectors", vecs)


# ---------------------------------------------------------------------------
# operations


def gen_functionals(d: int, k: int, betas) -> FunctionalMatrix:
    """Vandermonde functional stack: row i = (beta_i^0, ..., beta_i^{k-1}).

    Distinct betas with beta_0 = 0 guarantee the MDS property (every k x k
    row submatrix is a Vandermonde matrix on distinct points).
    """
    if not is_prime(d):
        raise ValueError(f"modulus {d} is not prime")
    betas = [int(b) % d for b in betas]
    if len(betas) != 2 * k:
        raise ValueError(f"need 2k = {2 * k} evaluation points, got {len(betas)}")
    if len(set(betas)) != len(betas):
        raise ValueError(f"duplicate evaluation points in {betas}")
    if betas[0] != 0:
        raise ValueError(f"betas[0] must be 0, got {betas[0]}")
    rows = np.empty((2 * k, k), dtype=np.int64)
    for i, b in enumerate(betas):
        rows[i] = [pow(b, e, d) for e in range(k)]
    return FunctionalMatrix(d, k, rows)


def check_mds(fm: FunctionalMatrix) -> bool:
    """True iff every k-row submatrix is invertible mod d (exhaustive)."""
    for subset in itertools.combinations(range(2 * fm.k), fm.k):
        if mod_rank(fm.rows[list(subset)], fm.d) < fm.k:
            return False
    return True


def decode_bijection(fm: FunctionalMatrix, in_subset) -> DecodeBijection:
    """Build the relabeling (y at in_subset rows) -> (x_0, complement coords).

    ``in_subset``: k distinct row indices in 1..2k-1 (index 0 excluded; its
    coordinate IS x_0, which occupies the first output slot). The tables are
    read off the codewords, with no inversion: forward sends each codeword's
    subset label to its (x_0, complement) label. Two codewords that agree on
    either label (a stack that is not MDS) leave a label unset: ValueError.
    """
    d, k = fm.d, fm.k
    subset = tuple(sorted(int(i) for i in in_subset))
    if len(subset) != k or len(set(subset)) != k:
        raise ValueError(f"in_subset must hold {k} distinct indices, got {in_subset}")
    if any(i < 0 or i >= 2 * k for i in subset):
        raise ValueError(f"row indices out of range in {in_subset}")
    if 0 in subset:
        raise ValueError("index 0 cannot be an input row (its coordinate is the output x_0)")
    out_rows = tuple(i for i in range(2 * k) if i not in subset and i != 0)

    src = np.ravel_multi_index(fm.codewords[list(subset)], (d,) * k)
    dst = np.ravel_multi_index(fm.codewords[[0, *out_rows]], (d,) * k)
    forward = np.full(d**k, -1, dtype=np.int64)
    forward[src] = dst
    inverse = np.full(d**k, -1, dtype=np.int64)
    inverse[dst] = src
    if forward.min() < 0 or inverse.min() < 0:
        raise ValueError(f"two codewords agree on rows {subset} or on {(0, *out_rows)}: the stack is not MDS")
    return DecodeBijection(d, k, forward, inverse, in_subset=subset, out_indices=out_rows)


def parity_constraints(fm: FunctionalMatrix) -> ParityConstraintSet:
    """Nullspace of the coordinate rows 1..2k-1: exactly k-1 constraints.

    Each returned vector c satisfies sum_i c_i * y_i(x) = 0 mod d for every
    message vector x (the y_i here are coordinates 1..2k-1).
    """
    basis = mod_nullspace(fm.rows[1:].T, fm.d)
    if basis.shape[0] != fm.k - 1:
        raise ValueError(f"internal fault: expected {fm.k - 1} constraints, got {basis.shape[0]}")
    return ParityConstraintSet(fm.d, basis)

