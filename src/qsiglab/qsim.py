"""Pure-state simulator for n registers of equal qudit dimension d.

Conventions, fixed once and relied on everywhere:

  * register 0 is the most significant digit of the flat amplitude index
    (big-endian): numpy's C order, so ``state.amps.reshape((d,) * n)`` puts
    register q on axis q, ``numpy.ravel_multi_index(labels, (d,) * n)``
    gives the flat index of a label tuple, and ``numpy.kron(a, b)`` makes
    ``a`` the leading registers;
  * measurement outcome 0 is always the accepting outcome;
  * norm and fidelity checks use absolute tolerance ``TOL`` = 1e-9;
  * every stochastic operation takes an explicit source so trials are
    replayable: state sampling a ``numpy.random.Generator``, measurements an
    outcome source asked ``accept(p)`` or ``draw(weights)``: ``Sampled(rng)``,
    or the referee, which outcome_source returns for ``mode="referee"``.

States are immutable values: operations return new ``PureState`` objects.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TOL = 1e-9
# Collapse-to-identity threshold for "the state already lies in the measured
# sector": two orders tighter than TOL so honest paths return inputs unchanged.
_EXACT = 1e-12
# Default cap on simulable amplitude-vector length (configuration knob).
MAX_AMPS = 2**20


class EntangledFactorError(ValueError):
    """Raised by extract_factor when the requested registers are not a product factor."""


def new_rng(seed: int | None = None) -> np.random.Generator:
    return np.random.default_rng(seed)


class Sampled:
    """Outcomes drawn from an rng at their Born probabilities, one draw per
    call; ``draws`` counts them, so transcripts can log randomness use."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.draws = 0

    def accept(self, p: float) -> bool:
        self.draws += 1
        return bool(self.rng.random() < p)

    def draw(self, weights: np.ndarray) -> int:
        self.draws += 1
        return int(self.rng.choice(len(weights), p=weights / weights.sum()))


class _Referee:
    """The noiseless referee's outcome source: each test takes its accepting
    outcome 0 exactly when that outcome's Born probability is at least
    1 - TOL, and otherwise its most likely rejecting outcome, which has
    weight, so it names an outcome the protocol can draw."""

    def accept(self, p: float) -> bool:
        return p >= 1.0 - TOL

    def draw(self, weights: np.ndarray) -> int:
        p = weights / weights.sum()
        return 0 if p[0] >= 1.0 - TOL else int(np.argmax(p[1:])) + 1


_REFEREE = _Referee()


def outcome_source(mode: str, sampled: Sampled | None = None) -> Sampled | _Referee:
    """Where measurements take their outcomes: sampled in "protocol" mode, the referee in "referee"."""
    if mode not in ("referee", "protocol"):
        raise ValueError(f"mode must be 'referee' or 'protocol', got {mode!r}")
    if mode == "protocol" and sampled is None:
        raise ValueError("protocol mode samples measurement outcomes and needs an rng")
    return sampled if mode == "protocol" else _REFEREE


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from a path of labels, for per-trial/per-party streams."""
    text = ":".join(map(str, parts))
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over n qudit registers of dimension d."""

    d: int
    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {self.d}")
        if self.n < 1:
            raise ValueError(f"register count must be >= 1, got {self.n}")
        dim = self.d**self.n
        if dim > MAX_AMPS:
            raise ValueError(f"state size {dim} exceeds cap {MAX_AMPS}")
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if amps.shape != (dim,):
            raise ValueError(f"expected {dim} amplitudes, got shape {amps.shape}")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= TOL:  # written so that a NaN norm fails too
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)


@dataclass(frozen=True)
class GateMatrix:
    """Unitary on m registers of dimension d, as a dense d^m x d^m matrix."""

    d: int
    m: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        dim = self.d**self.m
        entries = np.ascontiguousarray(self.entries, dtype=np.complex128)
        if entries.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {entries.shape}")
        if dim <= 64:
            dev = np.abs(entries.conj().T @ entries - np.eye(dim)).max()
        else:
            # large matrices: probe unitarity on fixed random vectors
            probe_rng = np.random.default_rng(0)
            probes = probe_rng.standard_normal((dim, 8)) + 1j * probe_rng.standard_normal((dim, 8))
            probes /= np.linalg.norm(probes, axis=0)
            dev = np.abs(entries.conj().T @ (entries @ probes) - probes).max()
        if not dev <= TOL:  # written so that a NaN entry fails too
            raise ValueError(f"matrix not unitary: max deviation {dev:.3e}")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    def dagger(self) -> "GateMatrix":
        return GateMatrix(self.d, self.m, self.entries.conj().T)


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome label, its Born probability, and the post-measurement state."""

    outcome: int
    probability: float
    post_state: PureState


# ---------------------------------------------------------------------------
# construction


def make_state(d: int, n: int, amps: Sequence[complex] | np.ndarray) -> PureState:
    """Build a PureState, normalizing the given amplitude vector."""
    vec = np.asarray(amps, dtype=np.complex128).reshape(-1)
    if vec.shape != (d**n,):
        raise ValueError(f"expected {d**n} amplitudes for d={d}, n={n}, got {vec.shape[0]}")
    norm = np.linalg.norm(vec)
    if not 0.0 < norm < np.inf:  # written so that a NaN norm fails too
        raise ValueError(f"cannot normalize amps: their norm is {norm}")
    return PureState(d, n, vec / norm)


def sample_random_pure(d: int, n: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state: iid complex normal amplitudes, normalized."""
    re_im = rng.standard_normal((2, d**n))
    return make_state(d, n, re_im[0] + 1j * re_im[1])


def parity_labels(d: int, n: int, coeffs: Sequence[int], targets: Sequence[int]) -> np.ndarray:
    """sum(coeffs[i] * label(targets[i])) mod d for every flat index 0..d^n-1."""
    parity = np.zeros((d,) * n, dtype=np.int64)
    for c, q in zip(coeffs, targets):
        c = int(c) % d
        if c:
            # label values c * 0..d-1 along register q's axis, broadcast over the rest
            parity += (c * np.arange(d)).reshape((d,) + (1,) * (n - 1 - q))
    parity %= d
    return parity.reshape(-1)


# ---------------------------------------------------------------------------
# gates


def apply_gate(state: PureState, gate: GateMatrix, targets: Sequence[int]) -> PureState:
    """Apply a unitary to the target registers, identity elsewhere."""
    targets = list(targets)
    _check_targets(state, targets)
    if gate.d != state.d:
        raise ValueError(f"gate dimension {gate.d} != state dimension {state.d}")
    if gate.m != len(targets):
        raise ValueError(f"gate arity {gate.m} != {len(targets)} targets")
    out = gate.entries @ _front(state, targets)
    return PureState(state.d, state.n, _back(out, targets, state.d, state.n))


def apply_classical_bijection(state: PureState, f, targets: Sequence[int]) -> PureState:
    """Move the amplitude of basis label v on the targets to label f(v).

    ``f`` carries ``forward_table`` and ``inverse_table``: index arrays of
    length d^m (m = number of targets) over the big-endian flat encoding of
    the target labels. Bijectivity is checked on every call; the permutation
    is never materialized as a d^m x d^m matrix.
    """
    targets = list(targets)
    _check_targets(state, targets)
    fwd = np.asarray(f.forward_table, dtype=np.int64)
    inv = np.asarray(f.inverse_table, dtype=np.int64)
    order = np.arange(state.d ** len(targets))
    if not (np.array_equal(fwd[inv], order) and np.array_equal(inv[fwd], order)):
        raise ValueError("supplied map is not a bijection (forward/inverse mismatch)")
    out = _front(state, targets)[inv]  # new label w receives the amplitude of f^{-1}(w)
    return PureState(state.d, state.n, _back(out, targets, state.d, state.n))


def _front(state: PureState, regs: list[int]) -> np.ndarray:
    """Amplitudes as a matrix: rows are the labels of ``regs`` in the given order,
    columns those of the other registers ascending. Only _front/_back move registers."""
    rest = [q for q in range(state.n) if q not in regs]
    arr = state.amps.reshape((state.d,) * state.n)
    return arr.transpose(regs + rest).reshape(state.d ** len(regs), -1)


def _back(mat: np.ndarray, regs: list[int], d: int, n: int) -> np.ndarray:
    """Flat amplitudes of a matrix laid out as _front(state, regs) lays it out."""
    order = regs + [q for q in range(n) if q not in regs]
    return mat.reshape((d,) * n).transpose([order.index(q) for q in range(n)]).reshape(-1)


def _check_targets(state: PureState, targets: Sequence[int]) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError(f"targets must be distinct, got {targets}")
    for q in targets:
        if not 0 <= q < state.n:
            raise ValueError(f"target {q} out of range for {state.n} registers")


# ---------------------------------------------------------------------------
# comparisons and measurements


def fidelity(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2."""
    if (a.d, a.n) != (b.d, b.n):
        raise ValueError(f"shape mismatch: ({a.d},{a.n}) vs ({b.d},{b.n})")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def _exchange_swapped(state: PureState, regs_a: Sequence[int], regs_b: Sequence[int]) -> np.ndarray:
    """Amplitudes of S|state> where S exchanges regs_a[i] <-> regs_b[i]."""
    order = list(range(state.n))
    for qa, qb in zip(regs_a, regs_b):
        order[qa], order[qb] = order[qb], order[qa]
    return _front(state, order).reshape(-1)


def _check_blocks(state: PureState, regs_a: Sequence[int], regs_b: Sequence[int]) -> None:
    if len(regs_a) != len(regs_b):
        raise ValueError("register blocks must have equal length")
    both = list(regs_a) + list(regs_b)
    _check_targets(state, both)


def symmetric_subspace_measure(
    state: PureState, regs_a: Sequence[int], regs_b: Sequence[int], source: Sampled | _Referee
) -> MeasurementRecord:
    """Projective measurement onto the exchange-symmetric subspace of two blocks.

    Outcome 0 (accept) occurs with probability (1 + <S>)/2, which is
    (1 + F)/2 when the blocks hold unentangled pure factors with squared
    overlap F: the statistics of the swap test. The post-state is the
    renormalized projection onto the symmetric (accept) or antisymmetric
    (reject) exchange subspace, so a state of the form psi (x) psi on the
    two blocks accepts with probability 1 and is returned unchanged.
    """
    _check_blocks(state, regs_a, regs_b)
    swapped = _exchange_swapped(state, regs_a, regs_b)
    overlap = np.vdot(state.amps, swapped).real
    p_acc = float(min(max((1.0 + overlap) / 2.0, 0.0), 1.0))
    if source.accept(p_acc):
        if p_acc >= 1.0 - _EXACT:
            post = state  # already symmetric: unchanged
        else:
            vec = state.amps + swapped
            post = PureState(state.d, state.n, vec / np.linalg.norm(vec))
        return MeasurementRecord(0, p_acc, post)
    if p_acc <= _EXACT:
        post = state  # already antisymmetric
    else:
        vec = state.amps - swapped
        post = PureState(state.d, state.n, vec / np.linalg.norm(vec))
    return MeasurementRecord(1, 1.0 - p_acc, post)


def parity_measure(
    state: PureState, coeffs: Sequence[int], targets: Sequence[int], source: Sampled | _Referee
) -> MeasurementRecord:
    """Measure sum(coeffs[i] * label(targets[i])) mod d, nondestructively.

    Outcome s in Z_d has Born probability equal to the state's weight in the
    parity-s sector; the post-state is the renormalized projection onto that
    sector, so states fully inside one sector are returned unchanged.
    """
    weights = sector_weights(state, coeffs, targets)
    outcome = source.draw(weights)
    p = float(weights[outcome] / weights.sum())
    if p >= 1.0 - _EXACT:
        return MeasurementRecord(outcome, p, state)
    parity = parity_labels(state.d, state.n, coeffs, targets)
    vec = np.where(parity == outcome, state.amps, 0.0)
    return MeasurementRecord(outcome, p, PureState(state.d, state.n, vec / np.linalg.norm(vec)))


def sector_weights(state: PureState, coeffs: Sequence[int], targets: Sequence[int]) -> np.ndarray:
    """The state's weight in each sector s = sum(coeffs[i] * label(targets[i])) mod d."""
    targets = list(targets)
    _check_targets(state, targets)
    if len(coeffs) != len(targets):
        raise ValueError(f"{len(coeffs)} coefficients for {len(targets)} targets")
    parity = parity_labels(state.d, state.n, coeffs, targets)
    return np.bincount(parity, weights=np.abs(state.amps) ** 2, minlength=state.d)


# ---------------------------------------------------------------------------
# register plumbing


def tensor(a: PureState, b: PureState) -> PureState:
    """Joint state with a's registers leading (most significant)."""
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    return PureState(a.d, a.n + b.n, np.multiply.outer(a.amps, b.amps).reshape(-1))


def permute_registers(state: PureState, order: Sequence[int]) -> PureState:
    """Reorder registers: new register i is old register order[i]."""
    order = list(order)
    if sorted(order) != list(range(state.n)):
        raise ValueError(f"order must be a permutation of 0..{state.n - 1}, got {order}")
    return PureState(state.d, state.n, _front(state, order).reshape(-1))


def reduced_density(state: PureState, regs: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of the given registers (measurement plumbing).

    Returned as a plain array for Born-probability computations; density
    matrices are not a state representation anywhere in this package.
    """
    regs = list(regs)
    _check_targets(state, regs)
    mat = _front(state, regs)
    return mat @ mat.conj().T


def extract_factor(state: PureState, regs: Sequence[int]) -> tuple[PureState, PureState]:
    """Split off the given registers as an unentangled pure factor.

    Returns (factor, rest) with factor on ``regs`` (in the given order) and
    rest on the remaining registers in ascending order, such that
    factor (x) rest reproduces the suitably permuted state. Raises
    EntangledFactorError if the cut carries entanglement above tolerance.
    """
    regs = list(regs)
    _check_targets(state, regs)
    mat = _front(state, regs)
    col = int(np.argmax(np.linalg.norm(mat, axis=0)))
    u = mat[:, col]
    u = u / np.linalg.norm(u)
    v = u.conj() @ mat
    diff = np.outer(u, v)
    np.subtract(mat, diff, out=diff)
    residual = float(np.abs(diff).max())
    if residual > TOL:
        raise EntangledFactorError(f"registers {regs} are entangled with the rest (residual {residual:.3e})")
    factor = PureState(state.d, len(regs), u)
    rest = PureState(state.d, state.n - len(regs), v / np.linalg.norm(v))
    return factor, rest


# ---------------------------------------------------------------------------
# primitive gate constructors


def fourier_gate(d: int) -> GateMatrix:
    """Discrete Fourier transform |j> -> d^{-1/2} sum_k omega^{jk} |k>."""
    j = np.arange(d)
    omega = np.exp(2j * np.pi / d)
    return GateMatrix(d, 1, omega ** np.outer(j, j) / np.sqrt(d))


def hadamard_gate() -> GateMatrix:
    return GateMatrix(2, 1, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))


def phase_eighth_gate(c: int = 1) -> GateMatrix:
    """diag(1, exp(i pi c / 4)) on a qubit; c odd makes it non-Clifford."""
    return GateMatrix(2, 1, np.diag([1.0, np.exp(1j * np.pi * c / 4.0)]))


def pauli_gate(name: str) -> GateMatrix:
    mats = {
        "I": np.eye(2),
        "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
        "Y": np.array([[0.0, -1j], [1j, 0.0]]),
        "Z": np.diag([1.0, -1.0]),
    }
    if name not in mats:
        raise ValueError(f"unknown Pauli {name!r}")
    return GateMatrix(2, 1, mats[name])


def controlled_add_gate(d: int) -> GateMatrix:
    """Two-register gate |a, b> -> |a, b + a mod d> (control first)."""
    entries = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            entries[a * d + (a + b) % d, a * d + b] = 1.0
    return GateMatrix(d, 2, entries)


# ---------------------------------------------------------------------------
# digests


def state_digest(state: PureState) -> str:
    """Stable hex digest of the exact amplitude bytes (plus shape header).

    Adding +0.0 turns every -0.0 into +0.0 first: the sign of a zero amplitude
    is not a property of the state."""
    h = hashlib.sha256()
    h.update(f"{state.d}|{state.n}|".encode())
    h.update((state.amps + 0.0).tobytes())
    return h.hexdigest()

