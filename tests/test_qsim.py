"""Simulator core: states, gates, measurements, factor extraction."""
import itertools
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsiglab.fieldcode import TableBijection
from qsiglab.qsim import (
    EntangledFactorError,
    GateMatrix,
    MAX_AMPS,
    TOL,
    PureState,
    Sampled,
    apply_classical_bijection,
    apply_gate,
    controlled_add_gate,
    derive_seed,
    extract_factor,
    fidelity,
    fourier_gate,
    hadamard_gate,
    make_state,
    new_rng,
    outcome_source,
    parity_labels,
    parity_measure,
    pauli_gate,
    permute_registers,
    phase_eighth_gate,
    reduced_density,
    sample_random_pure,
    state_digest,
    symmetric_subspace_measure,
    tensor,
)

from _helpers import basis_state, clock_gate, identity_gate, shift_gate


# ---------------------------------------------------------------------------
# construction and labels


def test_make_state_normalizes():
    st_ = make_state(2, 2, [2, 0, 0, 0])
    assert np.allclose(st_.amps, [1, 0, 0, 0])


def test_make_state_rejects_zero_vector():
    with pytest.raises(ValueError):
        make_state(2, 1, [0, 0])


def test_make_state_rejects_wrong_length():
    with pytest.raises(ValueError):
        make_state(2, 2, [1, 0, 0])


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(2, 1, np.array([1.0, 1.0], dtype=np.complex128))


@pytest.mark.parametrize("d,n", [(2, 1), (7, 5)])
def test_pure_state_norm_check_at_tol(d, n):
    # a flat state of norm 1 + delta: accepted inside TOL, rejected outside it
    flat = np.full(d**n, 1 / np.sqrt(d**n), dtype=np.complex128)
    for delta in (0.5 * TOL, -0.5 * TOL):
        PureState(d, n, flat * (1 + delta))
    for delta in (2 * TOL, -2 * TOL):
        with pytest.raises(ValueError, match="normalized"):
            PureState(d, n, flat * (1 + delta))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0.0, np.inf)])
def test_pure_state_rejects_infinite_amplitudes(bad):
    with pytest.raises(ValueError, match="normalized"):
        PureState(2, 1, np.array([bad, 0.0], dtype=np.complex128))


def test_nan_fails_state_and_gate_validation():
    with pytest.raises(ValueError):
        PureState(2, 1, np.array([np.nan, 0.0], dtype=np.complex128))
    with pytest.raises(ValueError, match="amps"), warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any division by the norm
        make_state(2, 1, [np.nan, 1.0])
    with pytest.raises(ValueError):
        GateMatrix(2, 1, np.array([[np.nan, 0.0], [0.0, 1.0]]))
    big = np.eye(2**7, dtype=np.complex128)  # above 64 rows: the probed check
    big[5, 5] = complex(np.nan, 0.0)
    with pytest.raises(ValueError):
        GateMatrix(2, 7, big)


def test_pure_state_amps_read_only():
    st_ = basis_state(2, 1, [0])
    with pytest.raises(ValueError):
        st_.amps[0] = 0.0


def test_amplitude_cap_enforced():
    with pytest.raises(ValueError):
        basis_state(2, 21, [0] * 21)  # 2^21 > MAX_AMPS
    assert 2**20 == MAX_AMPS


def test_big_endian_register_order():
    # register 0 is most significant: |1,0> sits at flat index d^1
    assert np.argmax(np.abs(basis_state(2, 2, [1, 0]).amps)) == 2
    assert np.argmax(np.abs(basis_state(5, 2, [3, 1]).amps)) == 16


@given(st.integers(2, 7), st.integers(1, 4), st.data())
def test_label_codec_round_trip(d, m, data):
    # the flat index is numpy's C order: tensoring one-register basis states
    # puts a label tuple at its ravel_multi_index
    idx = data.draw(st.integers(0, d**m - 1))
    digits = np.unravel_index(idx, (d,) * m)
    joint = basis_state(d, 1, [digits[0]])
    for v in digits[1:]:
        joint = tensor(joint, basis_state(d, 1, [v]))
    assert int(np.argmax(np.abs(joint.amps))) == idx


def test_derive_seed_deterministic_and_sensitive():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a") != derive_seed(1, "b")


# ---------------------------------------------------------------------------
# gates


def test_gate_constructors_unitary_relations():
    d = 5
    f, x, z = fourier_gate(d).entries, shift_gate(d).entries, clock_gate(d).entries
    assert np.allclose(f @ x @ f.conj().T, z)  # F X F+ = Z
    omega = np.exp(2j * np.pi / d)
    assert np.allclose(z @ x, omega * x @ z)
    assert np.allclose(hadamard_gate().entries, fourier_gate(2).entries)
    assert np.allclose(pauli_gate("Y").entries, 1j * pauli_gate("X").entries @ pauli_gate("Z").entries)
    t = phase_eighth_gate(1).entries
    assert np.allclose(np.diag(t), [1.0, np.exp(1j * np.pi / 4)])
    assert np.allclose(np.linalg.matrix_power(t, 8), np.eye(2))


def test_controlled_add_is_cnot_for_qubits():
    expected = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
    assert np.allclose(controlled_add_gate(2).entries, expected)


def test_controlled_add_action_qudit():
    st_ = basis_state(5, 2, [3, 4])
    out = apply_gate(st_, controlled_add_gate(5), [0, 1])
    assert np.allclose(out.amps, basis_state(5, 2, [3, 2]).amps)  # 4 + 3 = 7 = 2 mod 5


def test_gate_matrix_rejects_nonunitary():
    with pytest.raises(ValueError):
        GateMatrix(2, 1, np.array([[1, 0], [0, 2]], dtype=np.complex128))


def test_apply_gate_targets_matter():
    st_ = basis_state(2, 2, [0, 0])
    on0 = apply_gate(st_, pauli_gate("X"), [0])
    on1 = apply_gate(st_, pauli_gate("X"), [1])
    assert np.allclose(on0.amps, basis_state(2, 2, [1, 0]).amps)
    assert np.allclose(on1.amps, basis_state(2, 2, [0, 1]).amps)


def test_apply_gate_arity_checks():
    st_ = basis_state(2, 2, [0, 0])
    with pytest.raises(ValueError):
        apply_gate(st_, pauli_gate("X"), [0, 1])
    with pytest.raises(ValueError):
        apply_gate(st_, shift_gate(3), [0])
    with pytest.raises(ValueError):
        apply_gate(st_, pauli_gate("X"), [2])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3, 5]), st.integers(1, 3))
def test_gate_then_dagger_is_identity(seed, d, n):
    rng = new_rng(seed)
    st_ = sample_random_pure(d, n, rng)
    gate = fourier_gate(d)
    q = int(rng.integers(0, n))
    back = apply_gate(apply_gate(st_, gate, [q]), gate.dagger(), [q])
    assert fidelity(back, st_) > 1 - 1e-12


def test_two_register_gate_order_convention():
    # controlled_add control is the FIRST listed target
    st_ = basis_state(2, 2, [1, 0])
    out = apply_gate(st_, controlled_add_gate(2), [1, 0])  # control = reg 1 (holds 0)
    assert np.allclose(out.amps, st_.amps)
    out = apply_gate(st_, controlled_add_gate(2), [0, 1])  # control = reg 0 (holds 1)
    assert np.allclose(out.amps, basis_state(2, 2, [1, 1]).amps)


# ---------------------------------------------------------------------------
# classical bijections


def _tables(d, m, f):
    """Forward/inverse index tables of a map f on m-digit label tuples."""
    shape = (d,) * m
    fwd = np.array([np.ravel_multi_index(f(np.unravel_index(i, shape)), shape) for i in range(d**m)])
    inv = np.empty_like(fwd)
    inv[fwd] = np.arange(d**m)
    return TableBijection(d, m, fwd, inv)


def test_classical_bijection_moves_labels_forward():
    f = _tables(2, 1, lambda v: ((v[0] + 1) % 2,))
    out = apply_classical_bijection(basis_state(2, 2, [0, 1]), f, [0])
    assert np.allclose(out.amps, basis_state(2, 2, [1, 1]).amps)


def test_classical_bijection_rejects_noninverse_pair():
    # a table pair is checked once, when it is built
    with pytest.raises(ValueError, match="not a bijection"):
        TableBijection(2, 1, np.array([1, 0]), np.array([0, 1]))


@pytest.mark.parametrize(
    "fwd, inv",
    [
        ([0, 1, 0], [0, 1]),  # forward after inverse is the identity; forward has an extra label
        ([0, 1], [0, 1, 0]),  # inverse after forward is the identity; inverse has an extra label
    ],
    ids=["long forward", "long inverse"],
)
def test_table_bijection_checks_both_directions(fwd, inv):
    with pytest.raises(ValueError, match="not a bijection"):
        TableBijection(2, 1, np.array(fwd), np.array(inv))


def test_classical_bijection_takes_only_a_checked_table_pair():
    # an object that merely carries the tables skips the construction check
    unchecked = types.SimpleNamespace(d=2, m=1, forward_table=np.array([1, 0]), inverse_table=np.array([0, 1]))
    with pytest.raises(TypeError, match="TableBijection"):
        apply_classical_bijection(basis_state(2, 1, [0]), unchecked, [0])
    with pytest.raises(ValueError, match="registers"):
        apply_classical_bijection(basis_state(2, 2, [0, 0]), _tables(2, 1, lambda v: v), [0, 1])


def test_table_bijection_tables_are_read_only_copies():
    fwd, inv = np.array([1, 0]), np.array([1, 0])
    f = TableBijection(2, 1, fwd, inv)
    fwd[:] = 0  # the caller's array; the checked copy keeps its labels
    assert f.forward_table.tolist() == [1, 0]
    with pytest.raises(ValueError):
        f.inverse_table[0] = 0


def test_classical_bijection_preserves_superposition_weights():
    rng = new_rng(3)
    st_ = sample_random_pure(3, 2, rng)
    f = _tables(3, 2, lambda v: ((v[1] + 1) % 3, v[0]))
    out = apply_classical_bijection(st_, f, [0, 1])
    assert np.allclose(np.sort(np.abs(out.amps)), np.sort(np.abs(st_.amps)))
    assert np.allclose(out.amps[f.forward_table], st_.amps)  # label v moved to f(v)
    back = apply_classical_bijection(out, TableBijection(3, 2, f.inverse_table, f.forward_table), [0, 1])
    assert fidelity(back, st_) > 1 - 1e-12


# ---------------------------------------------------------------------------
# measurements


def test_symmetric_measure_accept_probability_matches_overlap():
    psi = make_state(2, 1, [1, 0])
    phi = make_state(2, 1, [np.sqrt(0.3), np.sqrt(0.7)])
    joint = tensor(psi, phi)
    for seed in range(8):
        rec = symmetric_subspace_measure(joint, [0], [1], Sampled(new_rng(seed)))
        p_accept = rec.probability if rec.outcome == 0 else 1.0 - rec.probability
        assert abs(p_accept - (1 + 0.3) / 2) < 1e-12


def test_symmetric_measure_identical_blocks_accept_and_unchanged():
    rng = new_rng(11)
    psi = sample_random_pure(2, 2, rng)
    joint = tensor(psi, psi)
    rec = symmetric_subspace_measure(joint, [0, 1], [2, 3], Sampled(rng))
    assert rec.outcome == 0 and abs(rec.probability - 1.0) < 1e-12
    assert rec.post_state is joint  # exactly symmetric: returned untouched


def test_symmetric_measure_statistics_and_post_states():
    rng = Sampled(new_rng(5))
    psi = make_state(2, 1, [1, 0])
    phi = make_state(2, 1, [0, 1])  # orthogonal: accept prob 1/2
    joint = tensor(psi, phi)
    seen = {0: 0, 1: 0}
    for _ in range(400):
        rec = symmetric_subspace_measure(joint, [0], [1], rng)
        seen[rec.outcome] += 1
        sym = (joint.amps + tensor(phi, psi).amps) / np.sqrt(2)
        anti = (joint.amps - tensor(phi, psi).amps) / np.sqrt(2)
        target = sym if rec.outcome == 0 else anti
        assert abs(abs(np.vdot(rec.post_state.amps, target)) - 1.0) < 1e-12
    assert 130 < seen[0] < 270  # ~Bin(400, 1/2)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.data())
def test_parity_labels_match_digit_sums(d, n, data):
    targets = data.draw(st.permutations(range(n)))
    coeffs = data.draw(st.lists(st.integers(-2 * d, 2 * d), min_size=n, max_size=n))
    labels = parity_labels(d, n, coeffs, targets)
    for idx in range(d**n):
        digits = np.unravel_index(idx, (d,) * n)
        assert labels[idx] == sum(c * digits[q] for c, q in zip(coeffs, targets)) % d


def test_parity_measure_sector_and_post_state():
    rng = Sampled(new_rng(2))
    st_ = make_state(3, 2, [1, 0, 0, 0, 1, 0, 0, 0, 1])  # the maximally correlated pair
    rec = parity_measure(st_, [1, 2], [0, 1], rng)  # a + 2b mod 3 = 0 on |00>,|11>,|22> iff a=b... 0: 0, 1+2=3=0, 2+4=6=0
    assert rec.outcome == 0 and abs(rec.probability - 1.0) < 1e-12
    assert rec.post_state is st_


def test_parity_measure_collapses_mixed_sectors():
    rng = Sampled(new_rng(9))
    st_ = make_state(2, 2, [1, 1, 0, 0])  # parities (reg0+reg1): 0 and 1, equal weight
    counts = {0: 0, 1: 0}
    for _ in range(300):
        rec = parity_measure(st_, [1, 1], [0, 1], rng)
        counts[rec.outcome] += 1
        assert abs(rec.probability - 0.5) < 1e-12
        expect = basis_state(2, 2, [0, 0]) if rec.outcome == 0 else basis_state(2, 2, [0, 1])
        assert fidelity(rec.post_state, expect) > 1 - 1e-12
    assert 90 < counts[0] < 210


def test_parity_measure_validates_coeffs():
    with pytest.raises(ValueError):
        parity_measure(basis_state(2, 2, [0, 0]), [1], [0, 1], Sampled(new_rng(0)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_parity_outcome_probabilities_sum_to_one(seed):
    rng = new_rng(seed)
    d = int(rng.integers(2, 6))
    st_ = sample_random_pure(d, 2, rng)
    parity = [(int(a) + int(b)) % d for a in range(d) for b in range(d)]
    weights = np.bincount(parity, weights=np.abs(st_.amps) ** 2, minlength=d)
    assert abs(weights.sum() - 1.0) < 1e-9
    rec = parity_measure(st_, [1, 1], [0, 1], Sampled(rng))
    assert abs(rec.probability - weights[rec.outcome]) < 1e-9


# ---------------------------------------------------------------------------
# outcome sources: sampled from an rng, or the referee

REFEREE = outcome_source("referee")


def test_outcome_source_by_mode():
    sampled = Sampled(new_rng(0))
    assert outcome_source("protocol", sampled) is sampled
    assert outcome_source("referee", sampled) is REFEREE
    with pytest.raises(ValueError, match="needs an rng"):
        outcome_source("protocol")
    with pytest.raises(ValueError, match="mode must be"):
        outcome_source("exact", sampled)


def test_sampled_makes_the_rng_calls_it_replaces():
    # accept(p) is random() < p and draw(w) is choice(len(w), p=w / sum(w)):
    # the generator moves as the replayed calls move it, one draw per call
    sampled, replay = Sampled(new_rng(3)), new_rng(3)
    weights = np.array([0.5, 0.0, 1.5, 2.0])
    for p in (0.0, 0.3, 0.7, 1.0):
        assert sampled.accept(p) == (replay.random() < p)
        assert sampled.draw(weights) == replay.choice(4, p=weights / weights.sum())
    assert sampled.draws == 8
    assert sampled.rng.bit_generator.state == replay.bit_generator.state


def test_referee_accepts_from_one_minus_tol():
    assert REFEREE.accept(1.0 - TOL) and REFEREE.accept(1.0)
    assert not REFEREE.accept(float(np.nextafter(1.0 - TOL, 0.0)))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 7.0])
def test_draw_normalises_weights(scale):
    # both sources read weights relative to their sum: the referee names the
    # same outcome at every scale, and a sampled draw lands only on outcomes
    # that have weight
    for w, outcome in (([1 - TOL / 2, TOL / 2, 0], 0), ([1 - 2 * TOL, 0, 2 * TOL], 2), ([0.2, 0.5, 0.3], 1)):
        assert REFEREE.draw(np.array(w) * scale) == outcome
    sampled = Sampled(new_rng(4))
    assert {sampled.draw(np.array([0.0, 2.0, 0.0, 6.0]) * scale) for _ in range(40)} == {1, 3}


@pytest.mark.parametrize("infidelity, outcome", [(TOL, 0), (3 * TOL, 1)])
def test_referee_exchange_test_accepts_at_one_minus_tol(infidelity, outcome):
    # product blocks of squared overlap F accept with (1 + F)/2: at least
    # 1 - TOL for F = 1 - TOL, below it for F = 1 - 3 TOL
    psi = make_state(2, 1, [1, 0])
    phi = make_state(2, 1, [np.sqrt(1 - infidelity), np.sqrt(infidelity)])
    joint = tensor(psi, phi)
    rec = symmetric_subspace_measure(joint, [0], [1], REFEREE)
    assert rec.outcome == outcome
    assert abs(rec.probability - (infidelity / 2 if outcome else 1 - infidelity / 2)) < 1e-15
    sign = -1 if outcome else 1
    projected = make_state(2, 2, joint.amps + sign * tensor(phi, psi).amps)
    assert fidelity(rec.post_state, projected) > 1 - 1e-12


def test_referee_exchange_test_accepts_a_symmetric_entangled_pair():
    # (|01> + |10>)/sqrt(2) is exchange-symmetric though no product: it accepts, untouched
    pair = make_state(2, 2, [0, 1, 1, 0])
    rec = symmetric_subspace_measure(pair, [0], [1], REFEREE)
    assert rec.outcome == 0 and rec.post_state is pair


@pytest.mark.parametrize(
    "weights, outcome",
    [
        ([1 - TOL / 2, 0, 0, TOL / 2, 0], 0),
        ([1 - 2 * TOL, 0, 0, 2 * TOL, 0], 3),
        ([0.6, 0, 0.15, 0.25, 0], 3),  # outcome 0 likeliest, short of 1 - TOL; 1 has no weight
        ([0, 0, 0, 0, 1], 4),
    ],
    ids=["p0_at_least_1-TOL", "p0_below_1-TOL", "p0_likeliest", "p0_zero"],
)
def test_referee_parity_measure_names_an_outcome_with_weight(weights, outcome):
    # one qudit, parity = its label: outcome 0 only at p0 >= 1 - TOL, else the
    # likeliest rejecting outcome, and the post-state is that sector
    st_ = make_state(5, 1, np.sqrt(weights))
    rec = parity_measure(st_, [1], [0], REFEREE)
    assert rec.outcome == outcome
    assert abs(rec.probability - weights[outcome]) < 1e-12
    assert fidelity(rec.post_state, basis_state(5, 1, [outcome])) > 1 - 1e-12


# ---------------------------------------------------------------------------
# register plumbing


def test_tensor_and_permute():
    a = basis_state(2, 1, [1])
    b = basis_state(2, 2, [0, 1])
    joint = tensor(a, b)
    assert np.allclose(joint.amps, basis_state(2, 3, [1, 0, 1]).amps)
    flipped = permute_registers(joint, [2, 1, 0])
    assert np.allclose(flipped.amps, basis_state(2, 3, [1, 0, 1]).amps)
    rolled = permute_registers(joint, [1, 2, 0])
    assert np.allclose(rolled.amps, basis_state(2, 3, [0, 1, 1]).amps)


@pytest.mark.parametrize(
    "d, na, nb",
    # forge: a message register onto the d^(2k-2) pair amplitudes; alice_sign:
    # n signed qubits onto their n-qubit copy
    [(5, 1, 2), (7, 1, 4), (7, 3, 2), (11, 1, 2), (11, 1, 4), (2, 1, 1), (2, 2, 2), (2, 3, 3)],
)
def test_tensor_bytes_equal_kron(d, na, nb):
    rng = new_rng(d * 100 + na * 10 + nb)
    for _ in range(20):
        a, b = sample_random_pure(d, na, rng), sample_random_pure(d, nb, rng)
        assert tensor(a, b).amps.tobytes() == np.kron(a.amps, b.amps).tobytes()


def test_permute_rejects_non_permutation():
    with pytest.raises(ValueError):
        permute_registers(basis_state(2, 2, [0, 0]), [0, 0])


def test_reduced_density_of_product_state():
    rng = new_rng(21)
    a, b = sample_random_pure(2, 1, rng), sample_random_pure(2, 1, rng)
    rho = reduced_density(tensor(a, b), [1])
    assert np.allclose(rho, np.outer(b.amps, b.amps.conj()))


def test_extract_factor_product_state():
    rng = new_rng(13)
    a = sample_random_pure(3, 1, rng)
    b = sample_random_pure(3, 2, rng)
    factor, rest = extract_factor(tensor(a, b), [0])
    assert fidelity(factor, a) > 1 - 1e-12
    assert fidelity(rest, b) > 1 - 1e-12
    # middle register of a 3-register product
    joint = tensor(tensor(b0 := sample_random_pure(2, 1, rng), a2 := sample_random_pure(2, 1, rng)), b1 := sample_random_pure(2, 1, rng))
    factor, rest = extract_factor(joint, [1])
    assert fidelity(factor, a2) > 1 - 1e-12
    assert fidelity(rest, tensor(b0, b1)) > 1 - 1e-12


def test_extract_factor_rejects_entangled_cut():
    bell = make_state(2, 2, [1, 0, 0, 1])
    with pytest.raises(EntangledFactorError):
        extract_factor(bell, [0])


@pytest.mark.parametrize("eps,entangled", [(1.01e-9, True), (0.99e-9, False)])
def test_extract_factor_residual_threshold(eps, entangled):
    # one unit amplitude at labels (0, 1, 2) and eps at (1, 2, 0): across the
    # cut [2, 0] | [1] the residual of the best product is exactly eps
    amps = np.zeros(27, dtype=np.complex128)
    amps[np.ravel_multi_index((0, 1, 2), (3, 3, 3))] = 1.0
    amps[np.ravel_multi_index((1, 2, 0), (3, 3, 3))] = eps
    state = PureState(3, 3, amps)
    if entangled:
        with pytest.raises(EntangledFactorError, match="1.010e-09"):
            extract_factor(state, [2, 0])
    else:
        factor, rest = extract_factor(state, [2, 0])
        assert factor.amps[2 * 3 + 0] == 1.0 and rest.amps[1] == 1.0


def test_extract_factor_phase_bookkeeping():
    # factor (x) rest reconstructs the state exactly; any global phase lands
    # on one side only, so fidelity against references is still exact
    d = 5
    amps = np.zeros(d * d)
    amps[:: d + 1] = 1.0
    omega = make_state(d, 2, amps)
    rng = new_rng(17)
    psi = sample_random_pure(d, 1, rng)
    joint = tensor(psi, omega)
    factor, rest = extract_factor(joint, [1, 2])
    assert fidelity(factor, omega) > 1 - 1e-12
    assert np.abs(tensor(rest, factor).amps - tensor(psi, omega).amps).max() < 1e-12
    # next to a real-positive co-factor both halves split with no phase at all
    factor0, rest0 = extract_factor(joint, [0])
    assert np.abs(factor0.amps - psi.amps).max() < 1e-12
    assert np.abs(rest0.amps - omega.amps).max() < 1e-12


# ---------------------------------------------------------------------------
# register layout on unsorted, non-contiguous targets, against index loops


def _flat(labels, d):
    """Big-endian flat index of a label tuple, by Horner's rule."""
    idx = 0
    for v in labels:
        idx = idx * d + int(v)
    return idx


def _digits(idx, m, d):
    out = []
    for _ in range(m):
        out.append(idx % d)
        idx //= d
    return out[::-1]


def _with(labels, targets, values):
    out = list(labels)
    for q, v in zip(targets, values):
        out[q] = v
    return out


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("targets", [[3, 1], [2, 0, 3]])
def test_layout_matches_index_loops(d, targets):
    n, m = 4, len(targets)
    rest = [q for q in range(n) if q not in targets]
    rng = new_rng(7 * d + m)
    state = sample_random_pure(d, n, rng)
    every = list(itertools.product(range(d), repeat=n))

    q_mat, _ = np.linalg.qr(rng.standard_normal((d**m, d**m)) + 1j * rng.standard_normal((d**m, d**m)))
    expect = np.zeros(d**n, dtype=np.complex128)
    for x in every:
        col = _flat([x[q] for q in targets], d)
        for row in range(d**m):
            y = _with(x, targets, _digits(row, m, d))
            expect[_flat(y, d)] += q_mat[row, col] * state.amps[_flat(x, d)]
    out = apply_gate(state, GateMatrix(d, m, q_mat), targets)
    assert np.abs(out.amps - expect).max() < 1e-12

    fwd = rng.permutation(d**m)
    inv = np.empty_like(fwd)
    inv[fwd] = np.arange(d**m)
    expect = np.zeros(d**n, dtype=np.complex128)
    for x in every:
        image = _digits(int(fwd[_flat([x[q] for q in targets], d)]), m, d)
        expect[_flat(_with(x, targets, image), d)] = state.amps[_flat(x, d)]
    out = apply_classical_bijection(state, TableBijection(d, m, fwd, inv), targets)
    assert np.array_equal(out.amps, expect)

    u = sample_random_pure(d, m, rng).amps
    v = sample_random_pure(d, n - m, rng).amps
    amps = np.zeros(d**n, dtype=np.complex128)
    for x in every:
        amps[_flat(x, d)] = u[_flat([x[q] for q in targets], d)] * v[_flat([x[q] for q in rest], d)]
    product = PureState(d, n, amps)
    factor, other = extract_factor(product, targets)
    for x in every:
        rebuilt = factor.amps[_flat([x[q] for q in targets], d)] * other.amps[_flat([x[q] for q in rest], d)]
        assert abs(rebuilt - amps[_flat(x, d)]) < 1e-12


# ---------------------------------------------------------------------------
# digests


def test_state_digest_distinguishes_and_repeats():
    a = basis_state(2, 2, [0, 1])
    b = basis_state(2, 2, [1, 0])
    assert state_digest(a) == state_digest(a)
    assert state_digest(a) != state_digest(b)
    # the sign of a zero amplitude is not part of the state
    signed = np.array([complex(-0.0, -0.0), complex(-0.0, 1.0), 0.0, 0.0])
    plain = np.array([0.0, 1j, 0.0, 0.0])
    assert np.signbit(signed.real[:2]).all() and not np.signbit(plain.real).any()
    assert state_digest(PureState(2, 2, signed)) == state_digest(PureState(2, 2, plain))


def test_identity_gate_is_identity():
    st_ = sample_random_pure(3, 2, new_rng(30))
    out = apply_gate(st_, identity_gate(3, 2), [0, 1])
    assert np.allclose(out.amps, st_.amps)
