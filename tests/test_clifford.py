"""Random Clifford sampling: group coverage, exact realization, fast application."""
import dataclasses
import functools
import hashlib
import itertools
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
import math
import sys
import time

import numpy as np
import pytest

from qsiglab.clifford import (
    CliffordOp,
    _hadamards,
    _layers,
    _stage,
    apply_clifford,
    apply_clifford_padded,
    sample_clifford,
    undo_clifford_column,
)
from qsiglab.qsim import GateMatrix, apply_gate, fidelity, new_rng, sample_random_pure

from _helpers import basis_state, is_symplectic, pauli_from_bits, reference_hadamard, reference_sample_clifford

# Explicit gate matrices, applied one by one with qsim.apply_gate: the
# reference shares no code with clifford's application.
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
_S = np.diag([1, 1j]).astype(np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z = np.diag([1, -1]).astype(np.complex128)
_CZ = np.diag([1, 1, 1, -1]).astype(np.complex128)
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128)
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128)
SINGLE_QUBIT = {"h": _H, "s": _S, "sdg": _S.conj().T, "x": _X, "z": _Z}
TWO_QUBIT = {"cz": _CZ, "cnot": _CNOT, "swap": _SWAP}
_REFERENCE = {name: GateMatrix(2, 1, mat) for name, mat in SINGLE_QUBIT.items()}
_REFERENCE.update({name: GateMatrix(2, 2, mat) for name, mat in TWO_QUBIT.items()})


def _reference_apply(st, gates):
    for name, qs in gates:
        st = apply_gate(st, _REFERENCE[name], list(qs))
    return st


def _embed(mat, qs, m):
    """Dense 2^m matrix of a gate on qubits qs; qubit 0 is the most significant bit."""
    def sub(x):
        return sum(((x >> (m - 1 - q)) & 1) << (len(qs) - 1 - k) for k, q in enumerate(qs))

    rest = ~sum(1 << (m - 1 - q) for q in qs)
    dim = 2**m
    u = np.zeros((dim, dim), dtype=np.complex128)
    for r in range(dim):
        for c in range(dim):
            if r & rest == c & rest:
                u[r, c] = mat[sub(r), sub(c)]
    return u


@functools.lru_cache(maxsize=None)
def _embedded(name, qs, m):
    u = _embed(SINGLE_QUBIT.get(name, TWO_QUBIT.get(name)), qs, m)
    u.flags.writeable = False
    return u


def _dense(op: CliffordOp) -> np.ndarray:
    """Dense unitary of op: the product of the dense embeddings of its gates,
    sharing no code with clifford's application."""
    u = np.eye(2**op.m, dtype=np.complex128)
    for name, qs in op.gates:
        u = _embedded(name, qs, op.m) @ u
    return u


def _one_field_ops(m):
    """(op, gate) pairs: each op sets one field of the sampled data, and gate
    is the single gate that field stands for."""

    def rows(*bits):
        r = [[0] * m for _ in range(m)]
        for i, j in bits:
            r[i][j] = 1
        return r

    cases = []
    for field in ("f2", "f1"):
        for i in range(m):
            cases += [(CliffordOp(m, **{field: (rows((i, j)), rows())}), ("cnot", (j, i))) for j in range(i)]
            cases.append((CliffordOp(m, **{field: (rows(), rows((i, i)))}), ("s", (i,))))
            cases += [(CliffordOp(m, **{field: (rows(), rows((i, j), (j, i)))}), ("cz", (i, j))) for j in range(i + 1, m)]
    for i, j in itertools.combinations(range(m), 2):
        perm = list(range(m))
        perm[i], perm[j] = j, i
        cases.append((CliffordOp(m, perm=perm), ("swap", (i, j))))
    for q in range(m):
        one = [int(k == q) for k in range(m)]
        cases += [(CliffordOp(m, had=one), ("h", (q,))), (CliffordOp(m, xs=one), ("x", (q,)))]
        cases.append((CliffordOp(m, zs=one), ("z", (q,))))
        cases.append((CliffordOp(m, f1=(rows(), rows((q, q)))).inverse(), ("sdg", (q,))))
    return cases


# ---------------------------------------------------------------------------
# conjugation action, read off the dense unitary


@functools.lru_cache(maxsize=None)
def _paulis(m):
    labels = list(itertools.product((0, 1), repeat=2 * m))
    return labels, np.array([pauli_from_bits(np.array(v), 0) for v in labels])


def _action(op: CliffordOp) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic matrix (row i is the image of generator i) and sign bits of
    U P U^dagger over the generators X_i, Z_i; asserts each image is a signed Pauli."""
    m = op.m
    labels, paulis = _paulis(m)
    u = _dense(op)
    mat = np.zeros((2 * m, 2 * m), dtype=np.int64)
    signs = np.zeros(2 * m, dtype=np.int64)
    for i, generator in enumerate(np.eye(2 * m, dtype=np.int64)):
        image = u @ pauli_from_bits(generator, 0) @ u.conj().T
        coeffs = np.einsum("pij,ji->p", paulis, image) / 2**m
        hit = np.flatnonzero(np.abs(coeffs) > 1e-9)
        assert len(hit) == 1 and abs(abs(coeffs[hit[0]].real) - 1.0) < 1e-9, "image is not a signed Pauli"
        mat[i] = labels[hit[0]]
        signs[i] = coeffs[hit[0]].real < 0
    return mat, signs


# ---------------------------------------------------------------------------
# sampling


@pytest.mark.parametrize("m", [1, 2, 3])
def test_generators_map_to_signed_paulis(m):
    rng = new_rng(10 + m)
    for _ in range(25):
        mat, _ = _action(sample_clifford(m, rng))
        assert is_symplectic(mat)


def test_single_qubit_clifford_class_count():
    # 24 single-qubit Cliffords mod global phase, each hit within 5 sigma
    rng = new_rng(12)
    n = 6000
    counts = Counter()
    for _ in range(n):
        u = _dense(sample_clifford(1, rng))
        flat = u.reshape(-1)
        phase = flat[np.argmax(np.abs(flat))]
        counts[(np.round(u / (phase / abs(phase)), 6) + 0.0).tobytes()] += 1
    assert len(counts) == 24
    sigma = math.sqrt(n * (1 / 24) * (23 / 24))
    assert all(abs(c - n / 24) <= 5 * sigma for c in counts.values())


def test_symplectic_coverage_m2():
    # |Sp(4, 2)| = 720: every element hit, chi-square within 6 sigma of its
    # mean 719 (variance 2 * 719); the 16 sign patterns each within 5 sigma
    rng = new_rng(3)
    n = 14_400
    classes, sign_counts = Counter(), Counter()
    for _ in range(n):
        mat, signs = _action(sample_clifford(2, rng))
        classes[mat.tobytes()] += 1
        sign_counts[signs.tobytes()] += 1
    assert len(classes) == 720
    expected = n / 720
    chi2 = sum((c - expected) ** 2 / expected for c in classes.values())
    assert chi2 <= 719 + 6 * math.sqrt(2 * 719), chi2
    assert len(sign_counts) == 16
    sigma = math.sqrt(n * (1 / 16) * (15 / 16))
    assert all(abs(c - n / 16) <= 5 * sigma for c in sign_counts.values())


def test_distinct_draws_rarely_collide():
    rng_a, rng_b = new_rng(100), new_rng(200)
    different = 0
    for _ in range(1000):
        (ma, sa), (mb, sb) = _action(sample_clifford(2, rng_a)), _action(sample_clifford(2, rng_b))
        if not (np.array_equal(ma, mb) and np.array_equal(sa, sb)):
            different += 1
    assert different >= 990


def test_sign_bits_change_the_unitary():
    op = sample_clifford(2, new_rng(5))
    flipped = dataclasses.replace(op, xs=[1 - op.xs[0], *op.xs[1:]])
    (plain_mat, plain_signs), (flip_mat, flip_signs) = _action(op), _action(flipped)
    assert np.array_equal(plain_mat, flip_mat)
    assert not np.array_equal(plain_signs, flip_signs)
    assert not np.allclose(_dense(op), _dense(flipped))


# ---------------------------------------------------------------------------
# application


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 9, 16])
def test_apply_matches_gate_by_gate_reference(m):
    # from m = 8 on, the H layer rotates the amplitude layout, and an inverse
    # can rotate back to the original order in a new buffer
    rng = new_rng(80 + m)
    for _ in range(6 if m < 16 else 1):
        op = sample_clifford(m, rng)
        for o in (op, op.inverse()):
            st = sample_random_pure(2, m, rng)
            diff = apply_clifford(st, o).amps - _reference_apply(st, o.gates).amps
            assert np.abs(diff).max() < 1e-12


@pytest.mark.parametrize("m", [1, 2, 4, 6])
def test_inverse_round_trip(m):
    rng = new_rng(30 + m)
    op = sample_clifford(m, rng)
    st = sample_random_pure(2, m, rng)
    back = apply_clifford(apply_clifford(st, op), op.inverse())
    assert fidelity(back, st) > 1 - 1e-12


def test_trap_aware_forms_reject_inverted_ops_and_wrong_sizes():
    # both forms build the first stage of a forward op; see test_authcrypto
    # for their equivalence with the full block. apply_clifford runs them with
    # no traps, so it checks the state for op and its inverse alike
    op = sample_clifford(4, new_rng(80))
    payload, block = sample_random_pure(2, 3, new_rng(81)), sample_random_pure(2, 4, new_rng(82))
    for o in (op, op.inverse()):
        for st in (basis_state(3, 4, [0] * 4), payload):
            with pytest.raises(ValueError):
                apply_clifford(st, o)
    with pytest.raises(ValueError):
        apply_clifford_padded(payload, op.inverse(), 1)
    with pytest.raises(ValueError):
        apply_clifford_padded(payload, op, 2)
    with pytest.raises(ValueError):
        undo_clifford_column(block, op.inverse(), 1, lambda w: 0)
    with pytest.raises(ValueError):
        undo_clifford_column(payload, op, 1, lambda w: 0)


def test_empty_clifford_is_noop():
    st = sample_random_pure(2, 3, new_rng(40))
    out = apply_clifford(st, CliffordOp(3))
    assert np.allclose(out.amps, st.amps)


def test_gate_vocabulary_against_dense_embeddings():
    # one field of the canonical-form data at a time, on 3 qubits: the derived
    # gate list names the expected gate, and application matches both the
    # reference on that list and the gate's explicit matrix
    rng = new_rng(50)
    st = sample_random_pure(2, 3, rng)
    cases = _one_field_ops(3)
    assert {name for _, (name, _) in cases} == set(SINGLE_QUBIT) | set(TWO_QUBIT)
    for op, (name, qs) in cases:
        assert op.gates == ((name, qs),)
        dense = _embed(SINGLE_QUBIT.get(name, TWO_QUBIT.get(name)), qs, 3)
        fast = apply_clifford(st, op).amps
        assert np.abs(fast - dense @ st.amps).max() < 1e-12, (name, qs)
        assert np.abs(fast - _reference_apply(st, op.gates).amps).max() < 1e-12, (name, qs)


def _reference_stage(m, borel, perm, xs, zs, bit_in, bit_out, lo):
    """dest = P y + xs and q(y) = sum_i Gamma_ii y_i + 2 sum_{i<j} Gamma_ij y_i y_j
    + 2 zs.y + 2 |zs & xs|, y = (I + L) x, of every flat index x whose low lo
    bits are 0, one index at a time from the canonical-form data; qubit i is
    the bit bit_in[i] of x and bit_out[i] of dest, empty data the identity."""
    lower, gamma = borel
    xs, zs, perm = xs or [0] * m, zs or [0] * m, perm or range(m)
    dests, phases = [], []
    for x in range(0, 1 << m, 1 << lo):
        xq = [int(x & bit_in[i] != 0) for i in range(m)]
        y = [(xq[i] + sum(lower[i][j] * xq[j] for j in range(i))) % 2 if lower else xq[i] for i in range(m)]
        dests.append(sum(bit_out[i] for i, q in enumerate(perm) if y[q] ^ xs[i]))
        q = sum(gamma[i][i] * y[i] + 2 * sum(gamma[i][j] * y[i] * y[j] for j in range(i + 1, m)) for i in range(len(gamma)))
        phases.append(q + 2 * sum(z * v for z, v in zip(zs, y)) + 2 * sum(z & v for z, v in zip(zs, xs)))
    return dests, phases


def _layouts(m):
    """The natural layout (qubit q on bit m - 1 - q) and the bit-reversed one,
    and at m <= 5 every rotation of each, as _stage's bit lists."""
    shifts = range(m) if m <= 5 else [0]
    return [[1 << (b + r) % m for b in base] for base in (range(m - 1, -1, -1), range(m)) for r in shifts]


def test_stage_tables_match_the_reference():
    # the index and phase tables of both H-free stages, built from each bit's
    # key word and a popcount, against the canonical-form formula. Phases must
    # be exact and in 0..3, where the factor lookups read them. Each stage
    # runs with the layouts _layers gives it for the op and for its inverse.
    # The sampled ops and the identity also run with each of _layouts on the
    # input side, paired with the layout k further on in that list for op k
    for m in range(1, 10):
        sampled = [sample_clifford(m, new_rng(s)) for s in range(90 + m, 94 + m)] + [CliffordOp(m)]
        ops = sampled[:]
        if m <= 5:  # every single-field op at m = 9 would take the reference 7 s
            ops += [op for op, _ in _one_field_ops(m) if not op.inverted]
        layouts = _layouts(m)
        for k, op in enumerate(ops):
            stages = [stage for inverted in (False, True) for stage in _layers(op, inverted)[::2]]
            if k < len(sampled):
                pairs = list(zip(layouts, layouts[k:] + layouts[:k]))
                stages += [(*stage[:4], bit_in, bit_out) for stage in stages[:2] for bit_in, bit_out in pairs]
            for stage in stages:
                for lo in sorted({0, 1, m - 1} & set(range(m))):
                    dest, phase = (a.tolist() for a in _stage(m, *stage, lo=lo))
                    ref_dest, ref_phase = _reference_stage(m, *stage, lo)
                    assert dest == ref_dest, (op, stage, lo)
                    assert phase == [q % 4 for q in ref_phase], (op, stage, lo)


def _signed_zero_state(m, rng):
    """2^m amplitudes whose parts are drawn from 1, -1, 0.5, +0 and -0, so that
    sums and differences cancel exactly and the signs of zeros show."""
    parts = rng.choice(np.array([1.0, -1.0, 0.5, 0.0, -0.0]), size=(1 << m, 2))
    amps = parts[:, 0] + 0j
    amps.imag = parts[:, 1]
    amps[: 1 << (m // 2)] = complex(-0.0, -0.0)
    return amps


@pytest.mark.parametrize("inverted", [False, True], ids=["forward", "inverse"])
def test_h_layer_matches_one_h_at_a_time(inverted):
    # the layer runs in the layouts _layers gives its stages: laid out in the
    # first, run, and read back through the last, its bytes, signed zeros
    # included, must be those of one H at a time in the natural layout
    for m in list(range(1, 13)) + [16]:
        x = np.arange(1 << m)
        rng = new_rng(300 + m)
        ops = [sample_clifford(m, rng) for _ in range(3 if m < 16 else 1)]
        ops += [CliffordOp(m, had=[1] * m), CliffordOp(m, had=[q % 2 for q in range(m)])]
        for op in ops:
            first, count, last = _layers(op, inverted)
            into, outof = (last[4], first[5]) if inverted else (first[5], last[4])
            hs = [q for q, h in enumerate(op.had) if h][:: -1 if inverted else 1]
            assert count == len(hs)
            for amps in (_signed_zero_state(m, rng), sample_random_pure(2, m, rng).amps):
                ref, idle = amps.copy(), np.empty_like(amps)
                for q in hs:
                    reference_hadamard(ref, q, idle)
                buf = np.empty_like(amps)
                buf[sum((x >> (m - 1 - q) & 1) * b for q, b in enumerate(into))] = amps
                out, _ = _hadamards(buf, np.empty_like(amps), m, count)
                got = out[sum((x >> (m - 1 - q) & 1) * b for q, b in enumerate(outof))]
                assert got.tobytes() == ref.tobytes(), (m, op)


def test_sampler_makes_the_rng_calls_it_replaces():
    # one array-bound draw for the Mallows integers and one for every bit
    # stand for one call per bound and one per Borel element: the same op,
    # and the generator left in the same state
    for m in range(1, 21):
        for s in range(50):
            rng, ref = new_rng(s), new_rng(s)
            assert sample_clifford(m, rng) == reference_sample_clifford(m, ref), (m, s)
            assert rng.bit_generator.state == ref.bit_generator.state, (m, s)


def test_sample_clifford_rejects_bad_m():
    with pytest.raises(ValueError):
        sample_clifford(0, new_rng(0))


def test_large_block_application_speed():
    rng = new_rng(60)
    op = sample_clifford(16, rng)
    st = sample_random_pure(2, 16, rng)
    t0 = time.perf_counter()
    out = apply_clifford(st, op)
    elapsed = time.perf_counter() - t0
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-9
    # two permutation passes built from the sampled data, around one H layer,
    # on two buffers: about 3.7 ms for this op (16 H) on a 2-core machine, of
    # which the H layer is about 1.6 ms; 30-40 ms gate by gate. The 1 s bound
    # is a regression fence
    assert elapsed < 1.0


def test_determinism_same_seed_same_op():
    a = sample_clifford(4, new_rng(70))
    b = sample_clifford(4, new_rng(70))
    assert a == b
    assert a != sample_clifford(4, new_rng(71))


# SHA-256 over repr(op.gates) and repr(op.inverse().gates) of sample_clifford(m, new_rng(s)),
# m = 1..16 and s = 0..3: the gate lists the tracer counts and the reference applies
_GATE_LIST_DIGEST = "a91b36e43b2609775f8c5998cd8ddd56d41f5da1482a4ea0074e461c61db5b98"


def test_gate_lists_pinned():
    h = hashlib.sha256()
    for m in range(1, 17):
        for s in range(4):
            op = sample_clifford(m, new_rng(s))
            h.update(repr(op.gates).encode())
            h.update(repr(op.inverse().gates).encode())
    assert h.hexdigest() == _GATE_LIST_DIGEST, h.hexdigest()


# SHA-256 over the bytes of apply_clifford (op, then its inverse), apply_clifford_padded
# and undo_clifford_column (trap weights, column index, payload) for sample_clifford(m,
# new_rng(s)), m = 1..16, s = 0..7, t = min(6, m - 1). The seeds give the H layer zero,
# odd and even counts of rotations, some of which end away from the original layout.
_APPLICATION_BYTES_DIGEST = "c81823e334e482bd03f88979d8e83dde1c1217a513d944ceaa66a2e2153f3849"


def test_application_bytes_pinned():
    h = hashlib.sha256()

    def pick(w):
        h.update(w.tobytes())
        return s % len(w)

    for m in range(1, 17):
        t = min(6, m - 1)
        for s in range(8):
            op = sample_clifford(m, new_rng(s))
            rng = new_rng(1000 + s)
            st, payload = sample_random_pure(2, m, rng), sample_random_pure(2, m - t, rng)
            h.update(apply_clifford(st, op).amps.tobytes())
            h.update(apply_clifford(st, op.inverse()).amps.tobytes())
            h.update(apply_clifford_padded(payload, op, t).amps.tobytes())
            col, kept = undo_clifford_column(st, op, t, pick)
            h.update(col.to_bytes(1, "little") + kept.tobytes())
    assert h.hexdigest() == _APPLICATION_BYTES_DIGEST, h.hexdigest()


def _all_forms(m: int, seed: int) -> list[np.ndarray]:
    """The results of every application form for one sampled m-qubit op."""
    op = sample_clifford(m, new_rng(seed))
    rng = new_rng(2000 + seed)
    st, payload = sample_random_pure(2, m, rng), sample_random_pure(2, m - 2, rng)
    return [
        apply_clifford(st, op).amps,
        apply_clifford(st, op.inverse()).amps,
        apply_clifford_padded(payload, op, 2).amps,
        undo_clifford_column(st, op, 2, lambda w: 1)[1],
    ]


def test_results_never_alias_the_workspace():
    # application runs on scratch arrays kept from call to call; a result
    # must keep its bytes through later calls at the same m and at a larger one
    first = _all_forms(8, 0)
    kept = [hashlib.sha256(a.tobytes()).hexdigest() for a in first]
    later = _all_forms(8, 1) + _all_forms(10, 2)
    assert [hashlib.sha256(a.tobytes()).hexdigest() for a in first] == kept
    for a, b in itertools.combinations(first + later, 2):
        assert not np.shares_memory(a, b)


def test_threads_keep_their_own_workspace():
    # 16-qubit trap encode and column read, two threads at once, against the
    # same calls made one at a time
    ops = [sample_clifford(16, new_rng(s)) for s in range(6)]
    payloads = [sample_random_pure(2, 10, new_rng(100 + s)) for s in range(6)]

    def digest(i):
        block = apply_clifford_padded(payloads[i], ops[i], 6)
        col, kept = undo_clifford_column(block, ops[i], 6, lambda w: int(np.argmax(w)))
        return hashlib.sha256(block.amps.tobytes() + col.to_bytes(1, "little") + kept.tobytes()).hexdigest()

    expected = [digest(i) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(2) as pool:
            for _ in range(10):
                futures = [pool.submit(digest, i) for i in range(6)]
                assert [f.result(timeout=30) for f in futures] == expected
    finally:
        sys.setswitchinterval(interval)
