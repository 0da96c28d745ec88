"""Random Clifford sampling: group coverage, exact realization, fast application."""
import time

import numpy as np
import pytest

from qsiglab.clifford import (
    CliffordOp,
    MATRIX_CAP,
    Tableau,
    apply_clifford,
    is_symplectic,
    pauli_from_bits,
    random_symplectic,
    sample_clifford,
    sample_tableau,
    sym_inner,
    synthesize,
    find_transvection,
    transvect,
)
from qsiglab.qsim import apply_gate, basis_state, fidelity, new_rng, sample_random_pure


# ---------------------------------------------------------------------------
# symplectic layer


def test_sym_inner_is_the_commutation_form():
    x = np.array([1, 0, 0, 0])  # X on qubit 0
    z = np.array([0, 1, 0, 0])  # Z on qubit 0
    z1 = np.array([0, 0, 0, 1])
    assert sym_inner(x, z) == 1  # X and Z anticommute
    assert sym_inner(x, z1) == 0  # different qubits commute


def test_find_transvection_maps_x_to_y():
    rng = new_rng(4)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        x = rng.integers(0, 2, size=2 * m)
        y = rng.integers(0, 2, size=2 * m)
        if not x.any() or not y.any():
            continue
        h0, h1 = find_transvection(x, y)
        assert np.array_equal(transvect(h1, transvect(h0, x)), y)


def test_random_symplectic_always_symplectic():
    rng = new_rng(1)
    for m in (1, 2, 3, 5):
        for _ in range(20):
            assert is_symplectic(random_symplectic(m, rng))


def test_symplectic_coverage_m1():
    # |Sp(2, 2)| = 6; sampling must hit all six and nothing else
    rng = new_rng(2)
    seen = {random_symplectic(1, rng).tobytes() for _ in range(600)}
    assert len(seen) == 6


def test_symplectic_coverage_m2():
    # |Sp(4, 2)| = 720
    rng = new_rng(3)
    seen = set()
    for _ in range(14_000):
        seen.add(random_symplectic(2, rng).tobytes())
    assert len(seen) == 720


def test_symplectic_m1_roughly_uniform():
    rng = new_rng(8)
    counts = {}
    n = 6000
    for _ in range(n):
        key = random_symplectic(1, rng).tobytes()
        counts[key] = counts.get(key, 0) + 1
    # each of the 6 elements expected n/6 = 1000; allow 5 sigma (~150)
    assert all(800 < c < 1200 for c in counts.values())


# ---------------------------------------------------------------------------
# tableau realization


def _realizes(op: CliffordOp, tab: Tableau) -> bool:
    u = op.unitary().entries
    m = tab.m
    for i in range(2 * m):
        vec = np.zeros(2 * m, dtype=np.int64)
        vec[i] = 1
        gen = pauli_from_bits(vec, 0)
        expected = pauli_from_bits(tab.mat[i], tab.signs[i])
        if not np.allclose(u @ gen @ u.conj().T, expected, atol=1e-9):
            return False
    return True


@pytest.mark.parametrize("m", [1, 2, 3])
def test_synthesis_realizes_sampled_tableaus(m):
    rng = new_rng(10 + m)
    for _ in range(25):
        tab = sample_tableau(m, rng)
        assert _realizes(synthesize(tab), tab)


def test_single_qubit_clifford_class_count():
    # 24 single-qubit Cliffords mod global phase
    rng = new_rng(12)
    classes = set()
    for _ in range(1500):
        u = sample_clifford(1, rng).unitary().entries
        flat = u.reshape(-1)
        phase = flat[np.argmax(np.abs(flat))]
        canon = np.round(u / (phase / abs(phase)), 6) + 0.0
        classes.add(canon.tobytes())
    assert len(classes) == 24


def test_distinct_draws_rarely_collide():
    rng_a, rng_b = new_rng(100), new_rng(200)
    different = 0
    for _ in range(1000):
        ta, tb = sample_tableau(2, rng_a), sample_tableau(2, rng_b)
        if ta.mat.tobytes() != tb.mat.tobytes() or ta.signs.tobytes() != tb.signs.tobytes():
            different += 1
    assert different >= 990


def test_sign_bits_change_the_unitary():
    g = random_symplectic(2, new_rng(5))
    plain = synthesize(Tableau(g, np.zeros(4, dtype=np.int64))).unitary().entries
    signed = synthesize(Tableau(g, np.array([1, 0, 0, 0]))).unitary().entries
    assert not np.allclose(plain, signed)


# ---------------------------------------------------------------------------
# application


@pytest.mark.parametrize("m", [1, 2, 3])
def test_apply_matches_dense_unitary(m):
    rng = new_rng(20 + m)
    for _ in range(10):
        op = sample_clifford(m, rng)
        st = sample_random_pure(2, m, rng)
        fast = apply_clifford(st, op)
        dense = apply_gate(st, op.unitary(), list(range(m)))
        assert np.abs(fast.amps - dense.amps).max() < 1e-9


@pytest.mark.parametrize("m", [1, 2, 4, 6])
def test_inverse_round_trip(m):
    rng = new_rng(30 + m)
    op = sample_clifford(m, rng)
    st = sample_random_pure(2, m, rng)
    back = apply_clifford(apply_clifford(st, op), op.inverse())
    assert fidelity(back, st) > 1 - 1e-12


def test_empty_clifford_is_noop():
    st = sample_random_pure(2, 3, new_rng(40))
    out = apply_clifford(st, CliffordOp(3, ()))
    assert np.allclose(out.amps, st.amps)


def test_gate_vocabulary_against_dense_embeddings():
    # every gate name the synthesizer can emit, checked on 3 qubits
    from qsiglab.qsim import GateMatrix

    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    s = np.diag([1, 1j]).astype(np.complex128)
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    z = np.diag([1, -1]).astype(np.complex128)
    cz = np.diag([1, 1, 1, -1]).astype(np.complex128)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128)
    singles = {"h": h, "s": s, "sdg": s.conj().T, "x": x, "z": z}
    rng = new_rng(50)
    st = sample_random_pure(2, 3, rng)
    for name, mat in singles.items():
        for q in range(3):
            fast = apply_clifford(st, CliffordOp(3, ((name, (q,)),)))
            dense = apply_gate(st, GateMatrix(2, 1, mat), [q])
            assert np.abs(fast.amps - dense.amps).max() < 1e-12, (name, q)
    pairs = {"cz": cz, "cnot": cnot, "swap": swap}
    for name, mat in pairs.items():
        for qs in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]:
            fast = apply_clifford(st, CliffordOp(3, ((name, qs),)))
            dense = apply_gate(st, GateMatrix(2, 2, mat), list(qs))
            assert np.abs(fast.amps - dense.amps).max() < 1e-12, (name, qs)


def test_unitary_cap():
    op = CliffordOp(MATRIX_CAP + 1, ())
    with pytest.raises(ValueError):
        op.unitary()


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
    assert elapsed < 1.0  # measured tens of milliseconds; this is a regression fence


def test_determinism_same_seed_same_op():
    a = sample_clifford(4, new_rng(70))
    b = sample_clifford(4, new_rng(70))
    assert a.gates == b.gates
