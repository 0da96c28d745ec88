"""Prime-field functional stacks, decode bijections, parity constraints."""
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsiglab.fieldcode import (
    FunctionalMatrix,
    check_mds,
    decode_bijection,
    gen_functionals,
    is_prime,
    mod_nullspace,
    mod_rank,
    mod_rref,
    parity_constraints,
)

from _helpers import evaluate, mod_inv_matrix, reference_decode_tables


# ---------------------------------------------------------------------------
# modular linear algebra


def test_is_prime_small_values():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0)


def test_mod_rref_worked_example():
    rref, pivots = mod_rref(np.array([[1, 1, 1], [1, 2, 3]]), 5)
    assert pivots == [0, 1]
    assert np.array_equal(rref, np.array([[1, 0, 4], [0, 1, 2]]))  # -1 = 4 mod 5


def test_mod_inv_matrix_round_trip():
    a = np.array([[1, 1], [1, 2]])
    inv = mod_inv_matrix(a, 5)
    assert np.array_equal(a @ inv % 5, np.eye(2, dtype=np.int64))
    with pytest.raises(ValueError):
        mod_inv_matrix(np.array([[1, 2], [2, 4]]), 5)  # rank 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 4), st.integers(0, 10_000))
def test_mod_inv_matrix_random(d, k, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, d, size=(k, k))
    if mod_rank(a, d) < k:
        with pytest.raises(ValueError):
            mod_inv_matrix(a, d)
    else:
        assert np.array_equal(a @ mod_inv_matrix(a, d) % d, np.eye(k, dtype=np.int64))


def test_mod_nullspace_annihilates():
    a = np.array([[1, 1, 1], [1, 2, 3]])
    basis = mod_nullspace(a, 5)
    assert basis.shape == (1, 3)
    assert np.array_equal(a @ basis.T % 5, np.zeros((2, 1), dtype=np.int64))


# ---------------------------------------------------------------------------
# functional stacks


def test_gen_functionals_worked_example():
    fm = gen_functionals(5, 2, [0, 1, 2, 3])
    assert np.array_equal(fm.rows, np.array([[1, 0], [1, 1], [1, 2], [1, 3]]))
    assert tuple(fm.rows[:, 1]) == (0, 1, 2, 3)  # row i evaluates at beta_i


def test_gen_functionals_validation():
    with pytest.raises(ValueError):
        gen_functionals(6, 2, [0, 1, 2, 3])  # not prime
    with pytest.raises(ValueError):
        gen_functionals(5, 2, [1, 2, 3, 4])  # beta_0 != 0
    with pytest.raises(ValueError):
        gen_functionals(5, 2, [0, 1, 2, 7])  # 7 = 2 mod 5: duplicate
    with pytest.raises(ValueError):
        gen_functionals(5, 3, [0, 1, 2, 3, 4, 5])  # d < 2k after 5 = 0 collision
    with pytest.raises(ValueError):
        gen_functionals(3, 2, [0, 1, 2, 3])  # d < 2k outright


def test_functional_matrix_requires_e0_row():
    rows = np.array([[0, 1], [1, 1], [1, 2], [1, 3]])
    with pytest.raises(ValueError):
        FunctionalMatrix(5, 2, rows)


def test_evaluate_matches_manual():
    fm = gen_functionals(5, 2, [0, 1, 2, 3])
    x = np.array([2, 1])
    assert np.array_equal(evaluate(fm, x), np.array([2, 3, 4, 0]))  # x0, x0+x1, x0+2x1, x0+3x1


def test_check_mds_vandermonde_true_and_counterexample():
    assert check_mds(gen_functionals(5, 2, [0, 1, 2, 3]))
    rows = np.array([[1, 0], [1, 1], [2, 2], [1, 3]])  # rows 1 and 2 proportional
    assert not check_mds(FunctionalMatrix(5, 2, rows))


def test_codewords_are_read_only_and_match_evaluate():
    fm = gen_functionals(7, 3, [0, 2, 3, 4, 5, 6])
    with pytest.raises(ValueError):
        fm.codewords[0, 0] = 1
    for col, x in enumerate(itertools.product(range(7), repeat=3)):
        assert np.array_equal(fm.codewords[:, col], evaluate(fm, np.array(x))), x


@pytest.mark.parametrize("d,k", [(5, 2), (7, 2), (7, 3), (11, 2), (11, 3), (13, 3)])
def test_check_mds_generated_grids(d, k):
    fm = gen_functionals(d, k, list(range(2 * k)))
    assert check_mds(fm)


# ---------------------------------------------------------------------------
# decode bijection


def _image(table, labels, d):
    """Label tuple that an index table sends the given label tuple to."""
    shape = (d,) * len(labels)
    return tuple(int(v) for v in np.unravel_index(table[np.ravel_multi_index(labels, shape)], shape))


def test_decode_bijection_worked_example():
    fm = gen_functionals(5, 2, [0, 1, 2, 3])
    db = decode_bijection(fm, in_subset=(1, 2))
    # y_1 = 3, y_2 = 4 solves to x = (2, 1); y_3 = 2 + 3 = 0; output (x_0, y_3)
    assert _image(db.forward_table, (3, 4), 5) == (2, 0)
    assert _image(db.inverse_table, (2, 0), 5) == (3, 4)
    assert db.in_subset == (1, 2) and db.out_indices == (3,)
    assert db.k == 2


def test_decode_bijection_rejects_row_zero():
    fm = gen_functionals(5, 2, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        decode_bijection(fm, in_subset=(0, 1))


def test_decode_bijection_rejects_bad_subsets():
    fm = gen_functionals(5, 2, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        decode_bijection(fm, in_subset=(1,))
    with pytest.raises(ValueError):
        decode_bijection(fm, in_subset=(1, 9))


@pytest.mark.parametrize(
    "rows, subset",
    [
        ([[1, 0], [1, 1], [2, 2], [1, 3]], (1, 2)),  # the input rows 1 and 2 are proportional
        ([[1, 0], [1, 1], [1, 2], [2, 0]], (1, 2)),  # the output row 3 is proportional to row 0
    ],
)
def test_decode_bijection_rejects_a_stack_that_is_not_mds(rows, subset):
    with pytest.raises(ValueError, match="not MDS"):
        decode_bijection(FunctionalMatrix(5, 2, np.array(rows)), subset)


def test_decode_tables_are_permutations():
    fm = gen_functionals(7, 3, [0, 1, 2, 3, 4, 5])
    db = decode_bijection(fm, in_subset=(1, 2, 3))
    size = 7**3
    assert sorted(db.forward_table) == list(range(size))
    assert np.array_equal(db.forward_table[db.inverse_table], np.arange(size))


def test_decode_consistency_with_evaluate():
    fm = gen_functionals(7, 2, [0, 2, 5, 6])
    db = decode_bijection(fm, in_subset=(1, 3))
    for x0 in range(7):
        for x1 in range(7):
            y = evaluate(fm, np.array([x0, x1]))
            out = _image(db.forward_table, (int(y[1]), int(y[3])), 7)
            assert out[0] == x0
            assert out[1] == int(y[2])  # the one complement coordinate


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(5, 2), (7, 2), (7, 3)]), st.integers(0, 10_000))
def test_decode_round_trip_random_subsets(dk, seed):
    d, k = dk
    rng = np.random.default_rng(seed)
    betas = [0] + list(rng.permutation(np.arange(1, d))[: 2 * k - 1])
    fm = gen_functionals(d, k, betas)
    subset = tuple(sorted(rng.permutation(np.arange(1, 2 * k))[:k]))
    db = decode_bijection(fm, subset)
    labels = tuple(int(v) for v in rng.integers(0, d, size=k))
    assert _image(db.inverse_table, _image(db.forward_table, labels, d), d) == labels


# one SHA-256 over the forward and inverse table of every decode subset and the
# parity constraints of every criterion-10 instance, in the order built below
_KEY_TABLES_DIGEST = "c811d2ec9ab616f6680c95227130e8527ee081d31fe4f0b0562881c51ee96cad"


def test_key_tables_match_the_reference_on_every_instance():
    # criterion 10's Vandermonde instances (d in 5, 7, 11, k in 2, 3, d >= 2k),
    # decoded through every k-subset of rows 1..2k-1
    h, instances = hashlib.sha256(), 0
    for d, k in [(5, 2), (7, 2), (7, 3), (11, 2), (11, 3)]:
        subsets = list(itertools.combinations(range(1, 2 * k), k))
        for tail in itertools.combinations(range(1, d), 2 * k - 1):
            fm = gen_functionals(d, k, [0, *tail])
            for subset in subsets:
                db = decode_bijection(fm, subset)
                forward, inverse = reference_decode_tables(fm, subset)
                assert np.array_equal(db.forward_table, forward), (d, tail, subset)
                assert np.array_equal(db.inverse_table, inverse), (d, tail, subset)
                h.update(db.forward_table.tobytes() + db.inverse_table.tobytes())
            h.update(parity_constraints(fm).vectors.tobytes())
            instances += 1
    assert instances == 402
    assert h.hexdigest() == _KEY_TABLES_DIGEST, h.hexdigest()


# ---------------------------------------------------------------------------
# parity constraints


def test_parity_constraints_worked_example():
    fm = gen_functionals(5, 2, [0, 1, 2, 3])
    cs = parity_constraints(fm)
    assert cs.vectors.shape == (1, 3)
    assert np.array_equal(cs.vectors[0], np.array([1, 3, 1]))


def test_parity_constraints_annihilate_all_codewords():
    for d, k in [(5, 2), (7, 3), (11, 3)]:
        fm = gen_functionals(d, k, list(range(2 * k)))
        cs = parity_constraints(fm)
        assert cs.vectors.shape == (k - 1, 2 * k - 1)
        xs = np.stack(np.meshgrid(*[np.arange(d)] * k, indexing="ij"), axis=-1).reshape(-1, k)
        ys = xs @ fm.rows[1:].T % d
        assert not (ys @ cs.vectors.T % d).any()


def test_parity_constraints_independent():
    fm = gen_functionals(11, 3, [0, 1, 2, 3, 4, 5])
    cs = parity_constraints(fm)
    assert mod_rank(cs.vectors, 11) == 2


def test_exhaustive_mds_equivalence_small():
    # check_mds agrees with directly testing every k-subset determinant
    fm = gen_functionals(7, 2, [0, 1, 3, 6])
    for subset in itertools.combinations(range(4), 2):
        sub = fm.rows[list(subset)]
        det = (sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]) % 7
        assert det != 0
    assert check_mds(fm)
