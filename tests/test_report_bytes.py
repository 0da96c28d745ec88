"""Report bytes across code versions: the behavioural oracle for refactors.

Each case runs one registered scenario at a fixed seed and trial count and
compares the SHA-256 of its canonical report JSON with a digest recorded
from an earlier version of the code. A refactor that keeps behaviour keeps
every digest; a change that alters the map from seed to key material (a new
Clifford sampler, say) must re-baseline these digests and say so.

Every scenario runs at its defaults, and every scenario that takes ``mode``
runs again in protocol mode, each at seeds 0 and 17.

Reports of honest sessions hold only accept and stage counts, which do not
depend on the Clifford a seed selects, so two more digests pin session
transcripts: they log a state digest after every protocol step. The second
covers sessions whose arbiter unsigns with the wrong key, where the reply
carries the rejected exchange test's post-measurement state.
"""
import hashlib

import pytest

from qsiglab.arbitrated import SessionConfig, run_session, setup
from qsiglab.attacks import (
    SCENARIOS,
    Scenario,
    canonical_report_json,
    pauli_tamper_hook,
    run_scenario,
    unrelated_signer,
)
from qsiglab.qsim import derive_seed, new_rng

TRIALS = {
    "honest_arbitrated": 4,
    "eve_pauli_tamper": 8,
    "bob_pauli_forgery": 8,
    "wrong_key_binding": 4,
    "honest_truesig": 20,
    "truesig_forgery": 20,
    "truesig_random_substitution": 20,
    "mac_forgery": 200,
    "qotp_mixing": 5,
}

# (scenario, mode override or None for the defaults, seed) -> SHA-256 hex
DIGESTS = {
    ("honest_arbitrated", None, 0): "77f46427207073e07ec6ba90bd00ecdd30a6d0e044df531b6cdef0458632793c",
    ("honest_arbitrated", None, 17): "eaf6e5102afe902801b30bcf9d1e78cc0e40e4097adb03eb7a45ac6c2eb4dae5",
    ("honest_arbitrated", "protocol", 0): "745b0a44a774c951abb7d5ee7010d14609d75c3dc439d1746069bdde42d2cbac",
    ("honest_arbitrated", "protocol", 17): "05b640ae7756ec59eff5b755d43e2c94c127c4c3230b667d98270c9a10fed6bd",
    ("eve_pauli_tamper", None, 0): "be49d69c6926dadeccd3c19f87b0da665200a2df70643430b0350c7020262bb9",
    ("eve_pauli_tamper", None, 17): "00fe53a4f7ea89a3e47e31a16681cb29cb73925d3dee07be9635cb7563b9382a",
    ("eve_pauli_tamper", "protocol", 0): "059dc25cacc8530a023c26db70a9242a86d90ff9bd578f59d270c6120b0e3f60",
    ("eve_pauli_tamper", "protocol", 17): "1b426a2d65e890d0b85359ccdf74935934571cb80b87c3100f7dae277606e2f4",
    ("bob_pauli_forgery", None, 0): "5b9edec9673ca2555b8f790764fd115c87272896308623d0944bfbb1d0194b8d",
    ("bob_pauli_forgery", None, 17): "3fcbce1eea6a7f4fbeb41966aec3347d61354d63ded46dd3ee7ab54be47e8443",
    ("bob_pauli_forgery", "protocol", 0): "b6f72df58864f065e88aa764c0fad18cdfdc6424417bed576ba54ca48a02691c",
    ("bob_pauli_forgery", "protocol", 17): "4555e8759e4f66c1f7593f1e03bb41b507be407d296b162e3fc42e2cefbdff69",
    ("wrong_key_binding", None, 0): "b07fad07e298d79c6d7fb323a1c88aaeca7b730d61a549a20bfef7fcdb622696",
    ("wrong_key_binding", None, 17): "97517508d867e94a08f1592a2cd5d19341df84d9036e692c42fb403ffbe7aa15",
    ("wrong_key_binding", "protocol", 0): "4d1722efbdeacd44d148ce8c1d5b2e0d3b0a81c8bf1608ebda90654d9935f020",
    ("wrong_key_binding", "protocol", 17): "3bc88c03133ab9712cdc622bb73332c17af117a1b36607c9e4843cdfe1587d95",
    ("honest_truesig", None, 0): "22b90f28b2157c2f2535cffbaf85d3d4eaba157f16197e2d0b9df2fc1aaa4d09",
    ("honest_truesig", None, 17): "f7faab33c8010a6d146e8d00584bf63f3d4e37df45b124858edec1ca14b56695",
    ("honest_truesig", "protocol", 0): "2fee9f954f449817dbc4b2c47f43f9e23f0c7bb4a4debb693faa545b15455bf2",
    ("honest_truesig", "protocol", 17): "4f522c08830757fa953efb26f8550276e2f1cf0d9d3c76f420876d368fc685ee",
    ("truesig_forgery", None, 0): "d2ca058096f9b5a9738619ba6ed9e2cdda2727f971f047a2fa3bf9ca06224445",
    ("truesig_forgery", None, 17): "7e69d05bfbb939bf994cb1894fcdb925576e5dbbe32b8f9d1dc8591048fec756",
    ("truesig_forgery", "protocol", 0): "e4b2e2f03b102d1371200c820becc15ac51726dabba36c253c8db462bfefa5bb",
    ("truesig_forgery", "protocol", 17): "113914099ded9328f7b3eafe6a392367ea694bee5153fd5434de1f4e4b0c91e4",
    ("truesig_random_substitution", None, 0): "383b39d89ede3ad918f774ffb9cdf7ffb950981da966910043ee5d773498def7",
    ("truesig_random_substitution", None, 17): "5ae81c4d843887ff55347c015d4b89cb8313350408e7551cd0482698327f4f2a",
    ("truesig_random_substitution", "protocol", 0): "6f97ca7cd49a8e3310bf9994cc31d84af6b719d8e7234d09170310661aa4f382",
    ("truesig_random_substitution", "protocol", 17): "414ba8e3de0ab77859fb051090474892839ac2ffaf85556a47bdcc159d1dc47f",
    ("mac_forgery", None, 0): "7ba1b0392d0a0a666bb38b09b4da892d95fe2562f8b0f90ed5e5dbe622191b44",
    ("mac_forgery", None, 17): "43dd6295c45fe43a7978c9ad3d45ac64794893483b34f9e924b84f3e4513a880",
    ("qotp_mixing", None, 0): "0072f13fd4a44e90b7916222ba65f93dd19e4cb01d82303cb4101d37886c3cac",
    ("qotp_mixing", None, 17): "8a802981f9fd6a9d2a02d67c2a52574298aef8a6937606a4a8b2d3bfe63f4662",
}


def test_cases_cover_every_scenario_and_mode():
    expected = {
        (name, mode, seed)
        for name, spec in SCENARIOS.items()
        for mode in ([None, "protocol"] if "mode" in spec.defaults else [None])
        for seed in (0, 17)
    }
    assert set(DIGESTS) == expected


@pytest.mark.parametrize("name, mode, seed", sorted(DIGESTS, key=str))
def test_report_bytes_unchanged(name, mode, seed):
    params = {} if mode is None else {"mode": mode}
    report = run_scenario(Scenario(name, params, TRIALS[name], seed))
    digest = hashlib.sha256(canonical_report_json(report).encode("utf-8")).hexdigest()
    assert digest == DIGESTS[(name, mode, seed)], f"computed digest {digest}"


# one SHA-256 over the transcripts of honest sessions and of eve's Pauli tamper
# at each channel position, for seeds 0-5 in both modes at t = 4 and 6
TRANSCRIPTS_DIGEST = "34b579e22436248952c76c2b14c243c8422027ea077ad60f42803f7cd5a6900a"


def test_transcript_bytes_unchanged():
    h = hashlib.sha256()
    for seed in range(6):
        for mode in ("referee", "protocol"):
            for t in (4, 6):
                cfg = SessionConfig(t=t, mode=mode, seed=seed)
                h.update(run_session(cfg).json_lines().encode("utf-8"))
                for position in ("sigma", "y", "t_reply"):
                    hook = pauli_tamper_hook(position, new_rng(derive_seed(seed, "adversary", position)))
                    h.update(run_session(cfg, adversary_hook=hook).json_lines().encode("utf-8"))
    assert h.hexdigest() == TRANSCRIPTS_DIGEST, f"computed digest {h.hexdigest()}"


# one SHA-256 over the transcripts of wrong_key_binding sessions (the arbiter
# holds an unrelated signing key), for seeds 0-5 in both modes at the defaults
WRONG_KEY_TRANSCRIPTS_DIGEST = "68eaff787c51f47aa1191d3e73c75463ca89495f6852a45f4cca3db752d36ae8"


def test_wrong_key_transcript_bytes_unchanged():
    h = hashlib.sha256()
    for seed in range(6):
        for mode in ("referee", "protocol"):
            cfg = SessionConfig(mode=mode, seed=seed)
            parties = setup(cfg)
            unrelated_signer(parties, cfg, seed)
            h.update(run_session(cfg, parties=parties).json_lines().encode("utf-8"))
    assert h.hexdigest() == WRONG_KEY_TRANSCRIPTS_DIGEST, f"computed digest {h.hexdigest()}"
