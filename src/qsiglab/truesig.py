"""Stand-alone qudit signature scheme and the attack that breaks it.

The signer encodes a one-register message psi = sum_x0 psi(x0)|x0> into a
(2k-1)-register signed state

    s = d^{-(k-1)/2} sum_{x in Z_d^k} psi(x_0) |y_1(x), ..., y_{2k-1}(x)>

where the y_i are the keyed linear functionals of a FunctionalMatrix (y_0 =
x_0 stays implicit). Alongside travel one reference pair Omega =
d^{-1/2} sum_j |jj> and a plaintext copy of psi. Verification is a four-step
check measuring the parity syndrome, decoding, testing the k-1 residual
pairs against Omega, and comparing the decoded register with the copy.

The point of this module is negative: verification only needs the decode
bijection and the parity constraints, and anyone holding those can decode a
valid signed state, swap in a different message, and re-encode. forge()
does exactly that, using nothing but the verifying key, and its output is
indistinguishable from a fresh signature on the substituted message. The
scheme's security therefore cannot rest on the signed state itself.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fieldcode import (
    DecodeBijection,
    FunctionalMatrix,
    ParityConstraintSet,
    decode_bijection,
    gen_functionals,
    labels,
    parity_constraints,
)
from .qsim import (
    _EXACT,
    PureState,
    Sampled,
    apply_classical_bijection,
    extract_factor,
    fidelity,
    fourier_gate,
    make_state,
    new_rng,
    outcome_source,
)

# ---------------------------------------------------------------------------
# keys


@dataclass(frozen=True)
class VerifyingKey:
    """What a verifier holds: the relabeling and the syndrome constraints.

    Deliberately NOT enough to bind messages: forge() consumes exactly this.
    """

    d: int
    k: int
    decode: DecodeBijection
    constraints: ParityConstraintSet


@dataclass(frozen=True)
class TrueSigKeys:
    signing: FunctionalMatrix
    verifying: VerifyingKey

    @property
    def d(self) -> int:
        return self.signing.d

    @property
    def k(self) -> int:
        return self.signing.k


def keygen(d: int, k: int, seed: int) -> TrueSigKeys:
    """Sample evaluation points, fix the decode subset to rows 1..k."""
    if k < 2:
        raise ValueError(f"the scheme needs k >= 2 (no redundant coordinates otherwise), got k={k}")
    rng = new_rng(seed)
    points = [0] + [int(b) for b in 1 + rng.permutation(d - 1)[: 2 * k - 1]]
    fm = gen_functionals(d, k, points)
    in_subset = tuple(range(1, k + 1))
    vk = VerifyingKey(d, k, decode_bijection(fm, in_subset), parity_constraints(fm))
    return TrueSigKeys(fm, vk)


# ---------------------------------------------------------------------------
# signing


@dataclass(frozen=True)
class SignedBundle:
    """Signed state plus the two references the verifier compares against."""

    d: int
    k: int
    s_state: PureState
    omega_pair: PureState
    p_copy: PureState


@functools.cache
def canonical_omega(d: int) -> PureState:
    amps = np.zeros(d * d, dtype=np.complex128)
    amps[:: d + 1] = 1.0
    return make_state(d, 2, amps)


def sign(keys: TrueSigKeys, psi_amplitudes, psi_copy: PureState) -> SignedBundle:
    """Encode psi into the signed (2k-1)-register state; attach references."""
    fm = keys.signing
    d, k = fm.d, fm.k
    psi = make_state(d, 1, np.asarray(psi_amplitudes, dtype=np.complex128))
    if psi_copy.d != d or psi_copy.n != 1:
        raise ValueError(f"copy must be one register of dimension {d}")
    y_all = fm.codewords  # row 0 is y_0 = x_0; rows 1..2k-1 are the signed labels
    flat = np.ravel_multi_index(y_all[1:], (d,) * (2 * k - 1))
    amps = np.zeros(d ** (2 * k - 1), dtype=np.complex128)
    amps[flat] = psi.amps[y_all[0]] * d ** (-(k - 1) / 2)  # injective placement
    return SignedBundle(d, k, PureState(d, 2 * k - 1, amps), canonical_omega(d), psi_copy)


def decode(keys: TrueSigKeys | VerifyingKey, s_state: PureState) -> PureState:
    """Relabel registers 0..k-1: afterwards register 0 holds the message and
    registers (i, k-1+i) for i = 1..k-1 hold the residual reference pairs."""
    vk = keys.verifying if isinstance(keys, TrueSigKeys) else keys
    if s_state.d != vk.d or s_state.n != 2 * vk.k - 1:
        raise ValueError(f"signed state must be {2 * vk.k - 1} registers of dimension {vk.d}")
    return apply_classical_bijection(s_state, vk.decode, list(range(vk.k)))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class FourStepVerdict:
    """Per-step outcomes; steps after the first failure are not executed."""

    step1_syndrome: tuple[int, ...]
    step2_decoded: bool
    step3_entanglement: bool
    step4_equality: bool
    overall: bool
    mode: str


def failed_step(verdict: FourStepVerdict) -> str:
    if verdict.overall:
        return "none"
    if any(s != 0 for s in verdict.step1_syndrome):
        return "step1"
    if not verdict.step2_decoded:
        return "step2"
    if not verdict.step3_entanglement:
        return "step3"
    return "step4"


@functools.cache
def _pair_differences(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every tuple of k - 1 pair differences, as columns, and for each cell (a, b)
    of the decoded pair labels (registers 1..2k-2) the column of (b - a) mod d."""
    cells = labels(d, 2 * k - 2)
    idx = np.ravel_multi_index((cells[k - 1 :] - cells[: k - 1]) % d, (d,) * (k - 1))
    idx.flags.writeable = False
    return labels(d, k - 1), idx


@functools.cache
def _fourier(d: int) -> np.ndarray:
    """The Fourier matrix of one register, for the conjugate-basis pair test."""
    return fourier_gate(d).entries


def _pair_grid(state: PureState) -> np.ndarray:
    """Born weight of each label of registers 1.., register 0 (the message) summed out."""
    return (np.abs(state.amps) ** 2).reshape(state.d, -1).sum(axis=0)


def verify(
    keys: TrueSigKeys | VerifyingKey,
    bundle: SignedBundle,
    mode: str,
    rng: np.random.Generator | None = None,
) -> FourStepVerdict:
    """Four-step verification: one sequence of tests, read in either of two
    inspection regimes.

    The tests are the syndrome measurements, the decode, one conjugate-basis
    test per residual pair (a + b), and the equality tests: the swap test of
    the message against the copy, then the exchange test of the reference
    pair against the shipped one, which accept with (1 + F)/2. The syndromes
    are read on the decoded labels, where constraint c takes the value
    c[k:] . (b - a) mod d on pair labels (a, b): the same observable as
    c . y on the signed labels y, since the decode is a bijection and c
    annihilates the code point it solves for. a - b = 0 follows from a zero
    syndrome, so it needs no test of its own. Each pair that passes is
    exactly Omega and is contracted away, so step 4 meets the one-register
    message.
    "protocol" draws every outcome from the rng at its Born probability
    (rng required; one draw per test). "referee" is the noiseless classical
    referee: the same tests, with outcome 0 taken exactly when its Born
    probability is at least 1 - TOL and no randomness. Both short-circuit at
    the first failed step.
    """
    vk = keys.verifying if isinstance(keys, TrueSigKeys) else keys
    source = outcome_source(mode, None if rng is None else Sampled(rng))
    d, k = vk.d, vk.k
    for name, ref, n in (("omega_pair", bundle.omega_pair, 2), ("p_copy", bundle.p_copy, 1)):
        if (ref.d, ref.n) != (d, n):
            raise ValueError(f"reference {name} must be {n} register(s) of dimension {d}, got ({ref.d},{ref.n})")

    def fail(syndrome, s2=False) -> FourStepVerdict:
        return FourStepVerdict(tuple(syndrome), s2, False, False, False, mode)

    # step 2 runs first: the decode relabeling (a bijection; no pass/fail of
    # its own; it checks the signed state's shape). Register 0 then holds the
    # message and pair i = (i, k - 1 + i) the labels (a_i, b_i); every
    # syndrome is a function of the differences b - a alone.
    cur = decode(vk, bundle.s_state)
    grid = _pair_grid(cur)
    tuples, idx = _pair_differences(d, k)
    labels = np.take(vk.constraints.vectors[:, k:] @ tuples % d, idx, axis=1)

    # step 1: parity syndrome, one constraint at a time
    syndrome: list[int] = []
    for row in labels:
        weights = np.bincount(row, weights=grid, minlength=d)
        syndrome.append(source.draw(weights))
        if syndrome[-1] != 0:
            return fail(syndrome)
        if weights[0] / weights.sum() < 1.0 - _EXACT:  # an uncertain outcome: project onto it
            vec = np.where(row == 0, cur.amps.reshape(d, -1), 0.0).reshape(-1)
            cur = PureState(d, 2 * k - 1, vec / np.linalg.norm(vec))
            grid = _pair_grid(cur)

    # step 3: every residual pair must be the reference pair. A zero syndrome
    # is k - 1 independent constraints c[k:] . (b - a) = 0, so it leaves only
    # a = b on every pair, and each pair's one test is a + b in the conjugate
    # basis. On 2j + 1 registers the next pair is (1, j + 1): (1, k),
    # (2, k + 1), ... of the decoded state, as each passed pair leaves.
    ff = _fourier(d)
    for j in range(k - 1, 0, -1):
        # F on the a = b diagonal gives the amplitudes of the conjugate-basis
        # sectors a + b = s, row s
        diag = np.diagonal(cur.amps.reshape(d, d, d ** (j - 1), d, d ** (j - 1)), axis1=1, axis2=3)
        conj = ff @ np.moveaxis(diag, -1, 0).reshape(d, -1)
        if source.draw(np.sum(np.abs(conj) ** 2, axis=1)) != 0:
            return fail(syndrome, s2=True)
        cur = make_state(d, 2 * j - 1, conj[0])  # row 0 of F sums the diagonal: <Omega|_pair cur

    # step 4: decoded message vs plaintext copy, the reference pair vs shipped pair
    p_swap = (1.0 + fidelity(cur, bundle.p_copy)) / 2.0
    p_pair = (1.0 + fidelity(canonical_omega(d), bundle.omega_pair)) / 2.0
    ok4 = source.accept(p_swap) and source.accept(p_pair)
    return FourStepVerdict(tuple(syndrome), True, True, ok4, ok4, mode)


# ---------------------------------------------------------------------------
# the forgery


def forge(
    verifying_key: VerifyingKey,
    bundle: SignedBundle,
    psi_prime_amplitudes,
    psi_prime_copy: PureState,
) -> SignedBundle:
    """Decode, replace the message register, re-encode. No signing key used.

    Works on any bundle whose signed state decodes to an unentangled message
    register (every honestly signed bundle does). The output verifies and is
    state-identical to a fresh signature on the substituted message.
    """
    if isinstance(verifying_key, TrueSigKeys):
        raise TypeError("forge takes the verifying key only; the point is that it suffices")
    vk = verifying_key
    d, k = vk.d, vk.k
    psi_prime = make_state(d, 1, np.asarray(psi_prime_amplitudes, dtype=np.complex128))
    decoded = decode(vk, bundle.s_state)
    _, rest = extract_factor(decoded, [0])  # discard the signed message
    # re-encode psi' (x) rest in one gather: signed label w of registers 0..k-1
    # holds decoded label fwd[w] = (message m, pair labels a), so its row is
    # psi'(m) times row a of rest, whose columns are the other pair halves b
    fwd = vk.decode.forward_table
    dim = d ** (k - 1)
    rows = np.take(rest.amps.reshape(dim, dim), fwd % dim, axis=0)
    # psi' is the first operand, as in psi' (x) rest: under FMA a complex
    # product's bits depend on the operand order
    np.multiply(psi_prime.amps[fwd // dim][:, None], rows, out=rows)
    return SignedBundle(d, k, PureState(d, 2 * k - 1, rows.reshape(-1)), bundle.omega_pair, psi_prime_copy)
