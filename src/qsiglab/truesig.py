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

from dataclasses import dataclass

import numpy as np

from .fieldcode import (
    DecodeBijection,
    FunctionalMatrix,
    ParityConstraintSet,
    decode_bijection,
    gen_functionals,
    parity_constraints,
)
from .qsim import (
    _EXACT,
    TOL,
    PureState,
    apply_classical_bijection,
    apply_gate,
    extract_factor,
    factor_fidelity,
    fourier_gate,
    make_state,
    new_rng,
    parity_measure,
    partial_inner,
    sector_weights,
    tensor,
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
    x_all = np.indices((d,) * k).reshape(k, -1)  # every message vector x, as columns
    y_all = fm.rows[1:] @ x_all % d  # coordinates y_1..y_{2k-1} for every x
    flat = np.ravel_multi_index(y_all, (d,) * (2 * k - 1))
    amps = np.zeros(d ** (2 * k - 1), dtype=np.complex128)
    amps[flat] = psi.amps[x_all[0]] * d ** (-(k - 1) / 2)  # injective placement
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


def _omega_pairs(k: int) -> list[tuple[int, int]]:
    return [(i, k - 1 + i) for i in range(1, k)]


def _equality_probabilities(cur: PureState, k: int, bundle: SignedBundle) -> tuple[float, float]:
    """Born probabilities of protocol-mode step 4 on cur (x) copy, read off
    cur's cuts so that the joint state is never built.

    The swap test of register 0 against the copy accepts with (1 + <S>)/2,
    <S> = |<copy|_0 cur|^2. After it accepts, the exchange test of registers
    (1, k) against the shipped pair accepts with (1 + f)/2, where f is the
    pair's weight <Omega|rho|Omega> in the symmetrized post-state: with
    B = <Omega|_{1,k} cur, f = (|B|^2 + |<copy|_0 B|^2) / (1 + <S>). A state
    the swap test finds already symmetric is left as it is, and f = |B|^2.
    """
    overlap = float(np.linalg.norm(partial_inner(cur, [0], bundle.p_copy)) ** 2)
    p_swap = min(max((1.0 + overlap) / 2.0, 0.0), 1.0)
    b = partial_inner(cur, [1, k], bundle.omega_pair).reshape(cur.d, -1)
    f = float(np.linalg.norm(b) ** 2)
    if p_swap < 1.0 - _EXACT:
        f = (f + float(np.linalg.norm(bundle.p_copy.amps.conj() @ b) ** 2)) / (1.0 + overlap)
    return p_swap, min(max((1.0 + f) / 2.0, 0.0), 1.0)


def verify(
    keys: TrueSigKeys | VerifyingKey,
    bundle: SignedBundle,
    mode: str,
    rng: np.random.Generator | None = None,
) -> FourStepVerdict:
    """Four-step verification in either of two inspection regimes.

    "protocol" runs the physically implementable sequence: syndrome
    measurements, decode, pairwise parity tests in both bases, and the
    equality tests (the swap test of the message against the copy, then the
    exchange test of the first pair against the shipped one), sampled at
    their exact Born probabilities on message (x) copy, which are computed
    from the message cut (rng required; one draw per test).
    "referee" is the noiseless classical referee: deterministic sector
    weights, unentangled-factor extraction and fidelity thresholds at
    1 - 1e-9, no randomness. Both short-circuit at the first failed step.
    """
    vk = keys.verifying if isinstance(keys, TrueSigKeys) else keys
    if mode not in ("referee", "protocol"):
        raise ValueError(f"mode must be 'referee' or 'protocol', got {mode!r}")
    if mode == "protocol" and rng is None:
        raise ValueError("protocol mode samples measurement outcomes and needs an rng")
    d, k = vk.d, vk.k
    cur = bundle.s_state
    if cur.d != d or cur.n != 2 * k - 1:
        raise ValueError(f"signed state must be {2 * k - 1} registers of dimension {d}")
    if bundle.omega_pair.n != 2 or bundle.p_copy.n != 1:
        raise ValueError("bundle references have the wrong register counts")

    def fail(syndrome, s2=False, s3=False) -> FourStepVerdict:
        return FourStepVerdict(tuple(syndrome), s2, s3, False, False, mode)

    # step 1: parity syndrome over all coordinate registers
    syndrome: list[int] = []
    regs = list(range(2 * k - 1))
    for c in vk.constraints.vectors:
        if mode == "protocol":
            rec = parity_measure(cur, [int(v) for v in c], regs, rng)
            cur = rec.post_state
            syndrome.append(rec.outcome)
        else:
            weights = sector_weights(cur, c, regs)
            dominant = int(np.argmax(weights))
            syndrome.append(0 if dominant == 0 and weights[0] >= 1.0 - TOL else (dominant or 1))
        if syndrome[-1] != 0:
            return fail(syndrome)

    # step 2: decode relabeling (a bijection; carries no pass/fail of its own)
    cur = decode(vk, cur)

    # step 3: every residual pair must be the reference pair
    omega = canonical_omega(d)
    if mode == "protocol":
        ff = fourier_gate(d)
        ff_dg = ff.dagger()
        for a, b in _omega_pairs(k):
            rec = parity_measure(cur, [1, d - 1], [a, b], rng)
            cur = rec.post_state
            if rec.outcome != 0:
                return fail(syndrome, s2=True)
            cur = apply_gate(apply_gate(cur, ff, [a]), ff, [b])
            rec = parity_measure(cur, [1, 1], [a, b], rng)
            cur = rec.post_state
            if rec.outcome != 0:
                return fail(syndrome, s2=True)
            cur = apply_gate(apply_gate(cur, ff_dg, [a]), ff_dg, [b])
    else:
        for a, b in _omega_pairs(k):
            if not factor_fidelity(cur, [a, b], omega) >= 1.0 - TOL:
                return fail(syndrome, s2=True)

    # step 4: decoded message vs plaintext copy, first pair vs shipped pair
    if mode == "referee":
        ok4 = (
            factor_fidelity(cur, [0], bundle.p_copy) >= 1.0 - TOL
            and factor_fidelity(cur, [1, k], bundle.omega_pair) >= 1.0 - TOL
        )
    else:
        p_swap, p_pair = _equality_probabilities(cur, k, bundle)
        ok4 = bool(rng.random() < p_swap and rng.random() < p_pair)
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
    replaced = tensor(psi_prime, rest)
    s_new = apply_classical_bijection(replaced, vk.decode.inverted(), list(range(k)))
    return SignedBundle(d, k, s_new, bundle.omega_pair, psi_prime_copy)

