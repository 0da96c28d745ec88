"""Three-party session tests: signing unitary, message flow, failure stages."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsiglab.arbitrated import (
    FAILURE_STAGES,
    NONCOMMUTATIVITY_THRESHOLD,
    PHASE_ABORT,
    PHASE_SIGMA,
    PHASE_T_REPLY,
    PHASE_Y,
    ProtocolMessage,
    SessionConfig,
    alice_sign,
    arbiter_adjudicate,
    bob_finalize,
    bob_wrap,
    canonical_meta,
    pauli_covariance_distance,
    run_session,
    setup,
    signing_distance,
    signing_ops,
)
from qsiglab import arbitrated
from qsiglab.attacks import Scenario, run_scenario
from qsiglab.authcrypto import MacTag, PadReuseError, wc_tag
from qsiglab.qsim import (
    apply_gate,
    controlled_add_gate,
    fidelity,
    hadamard_gate,
    new_rng,
    pauli_gate,
    phase_eighth_gate,
    sample_random_pure,
)

from _helpers import basis_state

# ---------------------------------------------------------------------------
# configuration


def test_config_defaults():
    cfg = SessionConfig()
    assert (cfg.n, cfg.t, cfg.mode, cfg.b) == (2, 4, "referee", 16)


@pytest.mark.parametrize(
    "kwargs",
    [dict(n=0), dict(t=-1), dict(mode="lenient"), dict(b=8), dict(n=9, t=2), dict(n=11, t=0)],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SessionConfig(**kwargs)


# ---------------------------------------------------------------------------
# the signing unitary


def test_signing_ops_deterministic():
    a = signing_ops(2, 123).entries
    assert np.array_equal(a, signing_ops(2, 123).entries)
    assert not np.array_equal(a, signing_ops(2, 124).entries)


def _reference_signing_unitary(n: int, sig_seed: int) -> np.ndarray:
    """The keyed signing unitary built gate by gate: the layer draws of
    signing_ops, each gate put through apply_gate on every basis state."""
    rng = new_rng(sig_seed)

    def pauli_layer():
        return [(pauli_gate("IXYZ"[rng.integers(0, 4)]), (q,)) for q in range(n)]

    def phase_layer():
        return [(phase_eighth_gate(int(2 * rng.integers(0, 4) + 1)), (q,)) for q in range(n)]

    def h_layer():
        return [(hadamard_gate(), (q,)) for q in range(n)]

    def cadd_layer():
        q = int(rng.integers(0, n - 1))
        flip = int(rng.integers(0, 2))
        return [(controlled_add_gate(2), (q + 1, q) if flip else (q, q + 1))]

    layers = [pauli_layer()] if n > 1 else []
    layers += [phase_layer(), h_layer(), phase_layer()]
    while len(layers) < 3 * n:
        layers.append((pauli_layer, h_layer, cadd_layer)[int(rng.integers(0, 3))]())
    u = np.zeros((2**n, 2**n), dtype=np.complex128)
    for j in range(2**n):
        st = basis_state(2, n, np.unravel_index(j, (2,) * n))
        for gate, targets in (g for layer in layers for g in layer):
            st = apply_gate(st, gate, targets)
        u[:, j] = st.amps
    return u


def test_layer_kron_is_bytewise_numpy_kron():
    # the fold's products of blocks give np.kron's bytes, signed zeros included
    rng = new_rng(7)
    blocks = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for k in (1, 2, 4, 8)]
    blocks += [arbitrated._HADAMARD, *arbitrated._EIGHTH_PHASES, *arbitrated._CADDS, *arbitrated._PAULIS]
    for a in blocks:
        for b in blocks:
            assert arbitrated._kron(a, b).tobytes() == np.kron(a, b).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_signing_unitary_matches_gate_by_gate_reference(n):
    for seed in range(100 * n, 100 * n + 16):
        u = signing_ops(n, seed).entries
        assert np.abs(u - _reference_signing_unitary(n, seed)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signing_inverse_round_trip(n):
    rng = new_rng(n)
    signer = signing_ops(n, 55 + n)
    st = sample_random_pure(2, n, rng)
    back = apply_gate(apply_gate(st, signer, range(n)), signer.dagger(), range(n))
    assert np.abs(back.amps - st.amps).max() < 1e-9


def test_covariance_distance_vanishes_for_cliffords():
    # the sqrt turns ~1e-16 trace noise into ~1e-8, hence the loose cut
    assert pauli_covariance_distance(hadamard_gate().entries, 1) < 1e-6
    assert pauli_covariance_distance(pauli_gate("X").entries, 1) < 1e-6


def test_covariance_distance_positive_off_axis():
    # a rotation about the Bloch (1,1,1) axis by 60 degrees keeps every Pauli
    # axis away from every axis, so no Pauli is covariant
    x = pauli_gate("X").entries
    y = pauli_gate("Y").entries
    z = pauli_gate("Z").entries
    axis = (x + y + z) / np.sqrt(3)
    theta = np.pi / 3
    u = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * axis
    assert pauli_covariance_distance(u, 1) > 1.0


def test_covariance_distance_zero_for_diagonal_magic():
    # the eighth-phase gate is not Clifford, yet Z commutes with it, so the
    # min-over-Paulis distance is still zero; the signing unitary must do better
    assert pauli_covariance_distance(phase_eighth_gate().entries, 1) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signing_distance_floor(n):
    # every key must keep all Paulis visibly non-covariant
    for seed in range(8):
        assert signing_distance(n, 1000 * n + seed) >= NONCOMMUTATIVITY_THRESHOLD


# ---------------------------------------------------------------------------
# honest sessions


@pytest.mark.parametrize("mode", ["referee", "protocol"])
def test_honest_session_accepts(mode):
    tr = run_session(SessionConfig(mode=mode, seed=101))
    assert tr.verdict.accepted
    assert tr.verdict.r == 1
    assert tr.verdict.failure_stage == "none"
    assert tr.verdict.recovered_fidelity is not None
    assert abs(tr.verdict.recovered_fidelity - 1.0) < 1e-9


def test_honest_session_n1_t2():
    tr = run_session(SessionConfig(n=1, t=2, seed=102))
    assert tr.verdict.accepted
    assert abs(tr.verdict.recovered_fidelity - 1.0) < 1e-9


def test_transcript_is_reproducible():
    a = run_session(SessionConfig(seed=103)).json_lines()
    b = run_session(SessionConfig(seed=103)).json_lines()
    assert a == b
    assert a != run_session(SessionConfig(seed=104)).json_lines()


def test_transcript_shape():
    tr = run_session(SessionConfig(seed=105))
    lines = tr.json_lines().strip().split("\n")
    records = [json.loads(line) for line in lines]
    assert [r["type"] for r in records] == ["event"] * 4 + ["verdict"]
    events = [r["event"] for r in records[:4]]
    assert events == ["alice_sign", "bob_wrap", "arbiter_adjudicate", "bob_finalize"]
    for r in records[:3]:
        assert r["digest"]  # payload-carrying steps log a digest
        assert isinstance(r["rng_draws"], int)
    assert records[-1]["accepted"] is True


def test_setup_shares_derived_material():
    cfg = SessionConfig(seed=106)
    parties = setup(cfg)
    assert parties.alice.macs["alice"].point == parties.arbiter.macs["alice"].point
    assert parties.bob.macs["bob"].point == parties.arbiter.macs["bob"].point
    assert parties.alice.signer is parties.arbiter.signer  # folded once per session


def test_signing_twice_consumes_the_pad():
    cfg = SessionConfig(seed=107)
    parties = setup(cfg)
    psi = sample_random_pure(2, cfg.n, new_rng(1))
    alice_sign(parties.alice, psi, psi)
    with pytest.raises(PadReuseError):
        alice_sign(parties.alice, psi, psi)


def test_phase_ordering_enforced():
    # a message in the wrong phase ends in a verdict at the receiving party's
    # first check, never in an exception
    cfg = SessionConfig(seed=108)
    parties = setup(cfg)
    psi = sample_random_pure(2, cfg.n, new_rng(2))
    sigma = alice_sign(parties.alice, psi, psi)
    reply = arbiter_adjudicate(parties.arbiter, sigma)
    assert reply.phase == PHASE_ABORT
    assert reply.meta["failure_stage"] == "arb_auth_outer"
    y = bob_wrap(parties.bob, sigma)
    assert bob_finalize(parties.bob, y).failure_stage == "bob_auth"
    # bob forwards a non-SIGMA message without alice's metadata; a fresh bob,
    # since wrapping twice reuses his MAC pad. Its 2(n + t)-register payload
    # fails bob's shape check, so he forwards no payload, and the arbiter
    # rejects that on its outer check.
    fresh = setup(cfg)
    rewrapped = bob_wrap(fresh.bob, y)
    assert rewrapped.meta["alice_meta"] is None
    assert arbiter_adjudicate(fresh.arbiter, rewrapped).meta["failure_stage"] == "arb_auth_outer"


def test_message_shape_enforced():
    cfg = SessionConfig(seed=109)
    parties = setup(cfg)
    with pytest.raises(ValueError):
        alice_sign(parties.alice, basis_state(2, 3, [0, 0, 0]), basis_state(2, 3, [0, 0, 0]))


def test_mode_override_in_adjudication():
    # the session config's mode is the arbiter's only source of its regime
    cfg = SessionConfig(seed=110, mode="protocol")
    parties = setup(cfg)
    psi = sample_random_pure(2, cfg.n, new_rng(3))
    sigma = alice_sign(parties.alice, psi, psi)
    y = bob_wrap(parties.bob, sigma)
    reply = arbiter_adjudicate(parties.arbiter, y)
    assert reply.phase == PHASE_T_REPLY
    assert reply.meta["r"] == 1


# ---------------------------------------------------------------------------
# failure stages, each reached deliberately


def _x_tamper(msg: ProtocolMessage) -> ProtocolMessage:
    return dataclasses.replace(msg, payload=apply_gate(msg.payload, pauli_gate("X"), [0]))


def _meta_tamper(msg: ProtocolMessage) -> ProtocolMessage:
    return dataclasses.replace(msg, meta={**msg.meta, "forged": "evil"})


def _hook(position, mutate):
    def hook(pos, msg):
        return mutate(msg) if pos == position else msg

    return hook


def test_stage_bob_auth():
    # tampered T_REPLY metadata fails bob's MAC check
    tr = run_session(SessionConfig(seed=120), adversary_hook=_hook("t_reply", _meta_tamper))
    assert not tr.verdict.accepted
    assert tr.verdict.failure_stage == "bob_auth"


def test_stage_arb_auth_outer_and_abort_forwarding():
    # tampered Y metadata fails the arbiter's MAC; the MAC'd ABORT carries the
    # stage back to bob intact
    tr = run_session(SessionConfig(seed=121), adversary_hook=_hook("y", _meta_tamper))
    assert not tr.verdict.accepted
    assert tr.verdict.failure_stage == "arb_auth_outer"


def test_stage_arb_auth_inner():
    # tampering alice's metadata before bob binds it passes the outer checks
    # and fails the inner MAC
    tr = run_session(SessionConfig(seed=122), adversary_hook=_hook("sigma", _meta_tamper))
    assert not tr.verdict.accepted
    assert tr.verdict.failure_stage == "arb_auth_inner"


def test_stage_sig_check_under_wrong_key():
    cfg = SessionConfig(seed=123)
    parties = setup(cfg)
    parties.arbiter.signer = signing_ops(cfg.n, 999999)
    tr = run_session(cfg, parties=parties)
    assert not tr.verdict.accepted
    assert tr.verdict.failure_stage == "sig_check"
    assert tr.verdict.r == 0


def test_stage_bob_final_auth():
    # payload tamper on the reply trips bob's trap check (detection odds 15/16
    # per trial; the seeds below are fixed, so the outcome is reproducible)
    stages = set()
    for seed in (124, 125, 126):
        tr = run_session(SessionConfig(seed=seed), adversary_hook=_hook("t_reply", _x_tamper))
        assert not tr.verdict.accepted or tr.verdict.failure_stage == "none"
        stages.add(tr.verdict.failure_stage)
    assert "bob_final_auth" in stages


def test_stage_abort_on_corrupted_abort():
    # corrupt the Y message to force an ABORT, then corrupt the ABORT itself
    def hook(pos, msg):
        if pos == "y":
            return _meta_tamper(msg)
        if pos == "t_reply":
            return dataclasses.replace(msg, meta={**msg.meta, "failure_stage": "none"})
        return msg

    tr = run_session(SessionConfig(seed=127), adversary_hook=hook)
    assert not tr.verdict.accepted
    assert tr.verdict.failure_stage == "abort"


def test_unknown_abort_stage_collapses_to_abort():
    cfg = SessionConfig(seed=128)
    parties = setup(cfg)
    meta = {"phase": PHASE_ABORT, "failure_stage": "bogus_stage"}
    tag = wc_tag(parties.arbiter.macs["bob"], canonical_meta(meta), 1)
    verdict = bob_finalize(parties.bob, ProtocolMessage(PHASE_ABORT, None, meta, tag))
    assert verdict.failure_stage == "abort"
    assert not verdict.accepted


@pytest.mark.parametrize(
    "rewrite, stage",
    [
        (lambda meta: {**meta, "alice_tag": [*meta["alice_tag"][:2], -1]}, "arb_auth_inner"),
        (lambda meta: {**meta, "alice_tag": meta["alice_tag"][:2]}, "arb_auth_inner"),
        (lambda meta: {**meta, "alice_tag": "not a tag"}, "arb_auth_inner"),
        (lambda meta: [1, 2], "arb_auth_outer"),
    ],
    ids=["negative_pad_index", "two_element_tag", "non_list_tag", "list_meta"],
)
def test_bob_malformed_metadata_aborts(rewrite, stage):
    # a dishonest bob MACs malformed Y metadata under his own key: the arbiter
    # must answer with a MAC'd ABORT, never raise
    cfg = SessionConfig(seed=132)
    parties = setup(cfg)
    psi = sample_random_pure(2, cfg.n, new_rng(4))
    y = bob_wrap(parties.bob, alice_sign(parties.alice, psi, psi))
    meta = rewrite(y.meta)
    forged = ProtocolMessage(PHASE_Y, y.payload, meta, wc_tag(parties.bob.macs["bob"], canonical_meta(meta), 1))
    reply = arbiter_adjudicate(parties.arbiter, forged)
    assert reply.phase == PHASE_ABORT
    assert reply.meta["failure_stage"] == stage
    assert stage in FAILURE_STAGES
    assert bob_finalize(parties.bob, reply).failure_stage == stage


def _nested(depth):
    out = []
    for _ in range(depth):
        out = [out]
    return out


_GARBAGE = {
    "tag_none": lambda msg: dataclasses.replace(msg, tag=None),
    "tag_negative_pad": lambda msg: dataclasses.replace(msg, tag=MacTag(0, 16, -1)),
    "meta_set": lambda msg: dataclasses.replace(msg, meta={**msg.meta, "extra": {1, 2}}),
    # longer than the 65536 16-bit blocks one tag covers
    "meta_oversized": lambda msg: dataclasses.replace(msg, meta={**msg.meta, "extra": "x" * (1 << 17)}),
    "meta_nested": lambda msg: dataclasses.replace(msg, meta={**msg.meta, "extra": _nested(10**5)}),
    "tag_unencodable": lambda msg: dataclasses.replace(msg, tag=MacTag({1}, 16, 0)),
    "phase_renamed": lambda msg: dataclasses.replace(msg, phase="RENAMED"),
    "payload_none": lambda msg: dataclasses.replace(msg, payload=None),
    "qutrit_payload": lambda msg: dataclasses.replace(msg, payload=basis_state(3, msg.payload.n, [0] * msg.payload.n)),
    "oversized_payload": lambda msg: dataclasses.replace(msg, payload=basis_state(2, 17, [0] * 17)),
}
_STAGE_AT = {"sigma": "arb_auth_inner", "y": "arb_auth_outer", "t_reply": "bob_auth"}


@pytest.mark.parametrize(
    "garbage, position, stage",
    [
        pytest.param(*case, id="-".join(case))
        for case in [
            *[
                (g, pos, _STAGE_AT[pos])
                for g in ("tag_none", "tag_negative_pad", "meta_set", "meta_oversized", "meta_nested", "phase_renamed")
                for pos in _STAGE_AT
            ],
            ("tag_unencodable", "sigma", "arb_auth_inner"),
            ("payload_none", "sigma", "arb_auth_outer"),
            ("qutrit_payload", "sigma", "arb_auth_outer"),
            ("oversized_payload", "sigma", "arb_auth_outer"),
            ("qutrit_payload", "y", "arb_auth_outer"),
            ("qutrit_payload", "t_reply", "bob_auth"),
        ]
    ],
)
def test_channel_garbage_ends_in_a_verdict(garbage, position, stage):
    # a keyless channel adversary swaps the tag for None, for one with a
    # negative pad index or for one with a field JSON cannot encode, adds a
    # value JSON cannot encode or one too long for a tag to cover, renames the
    # phase, or swaps the payload for None, a qutrit state of the expected
    # register count or a 17-qubit state: the receiving party rejects, never
    # raises. Bob forwards a SIGMA payload of the wrong shape as no payload,
    # which the arbiter rejects outright.
    tr = run_session(SessionConfig(seed=133), adversary_hook=_hook(position, _GARBAGE[garbage]))
    assert not tr.verdict.accepted
    assert tr.verdict.failure_stage == stage
    assert stage in FAILURE_STAGES


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hostile_messages_end_in_a_verdict(data):
    # one or two fields of one message rewritten in flight with whatever a
    # channel could put there: every session still ends in a declared stage.
    # The other fields stay honest, so the checks behind the first are reached.
    position = data.draw(st.sampled_from(sorted(_STAGE_AT)), label="position")
    names = st.sampled_from(["payload", "meta", "tag", "phase"])
    rewritten = data.draw(st.lists(names, min_size=1, max_size=2, unique=True), label="rewritten")

    def field(name, honest, hostile):
        return data.draw(hostile, label=name) if name in rewritten else honest

    def rewrite(msg):
        n = msg.payload.n
        payload = field(
            "payload",
            msg.payload,
            st.one_of(
                st.none(),
                st.builds(lambda: basis_state(3, n, [0] * n)),
                st.builds(lambda: basis_state(2, n + 1, [0] * (n + 1))),
            ),
        )
        meta = field(
            "meta",
            msg.meta,
            st.one_of(
                st.dictionaries(st.text(max_size=8), _JSON, max_size=4),
                st.lists(_JSON, max_size=3),
                st.none(),
                st.just({**msg.meta, "extra": {1, 2}}),
                st.just({**msg.meta, "extra": "x" * (1 << 17)}),
            ),
        )
        tag = field(
            "tag",
            msg.tag,
            st.one_of(
                st.none(),
                # the key's width, so a random value and pad index reach the check
                st.builds(MacTag, st.integers(), st.just(msg.tag.width), st.integers(-4, 4)),
                st.lists(st.integers(), max_size=4),
                st.just(MacTag({1}, msg.tag.width, 0)),
            ),
        )
        phases = [PHASE_SIGMA, PHASE_Y, PHASE_T_REPLY, PHASE_ABORT, "RENAMED"]
        phase = field("phase", msg.phase, st.sampled_from(phases))
        return ProtocolMessage(phase, payload, meta, tag)

    tr = run_session(SessionConfig(seed=134), adversary_hook=_hook(position, rewrite))
    assert tr.verdict.failure_stage in FAILURE_STAGES


def test_wrong_shape_reply_is_bob_auth():
    def hook(pos, msg):
        if pos == "t_reply":
            return dataclasses.replace(msg, payload=basis_state(2, 3, [0, 0, 0]))
        return msg

    tr = run_session(SessionConfig(seed=129), adversary_hook=hook)
    assert not tr.verdict.accepted
    assert tr.verdict.failure_stage == "bob_auth"


def test_all_observed_stages_are_declared():
    assert set(FAILURE_STAGES) >= {
        "none",
        "bob_auth",
        "arb_auth_outer",
        "arb_auth_inner",
        "sig_check",
        "bob_final_auth",
        "abort",
    }


def test_channel_tamper_is_logged():
    tr = run_session(SessionConfig(seed=130), adversary_hook=_hook("sigma", _x_tamper))
    parties_seen = [e["party"] for e in tr.events]
    assert "adversary" in parties_seen


def test_scenarios_hash_no_states(monkeypatch):
    # a transcript digests its payload states only when json_lines() asks,
    # and run_scenario never does
    def refuse(state):
        raise AssertionError("state_digest called")

    monkeypatch.setattr(arbitrated, "state_digest", refuse)
    report = run_scenario(Scenario("eve_pauli_tamper", {}, 2, 0))
    assert sum(report.failure_stages.values()) == 2
    with pytest.raises(AssertionError, match="state_digest called"):
        run_session(SessionConfig(seed=1)).json_lines()


def test_recovered_message_matches_original():
    tr = run_session(SessionConfig(seed=131, mode="protocol"))
    assert tr.verdict.recovered_message is not None
    assert fidelity(tr.verdict.recovered_message, tr.message) > 1 - 1e-9
