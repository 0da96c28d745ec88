"""Desk-scale laboratory for two quantum signature designs.

One arbitrated protocol whose tamper detection holds up, one stand-alone
scheme whose signed states can be rewritten by anyone holding the verifying
key. Exact pure-state simulation throughout; see the module docstrings.
"""

from .arbitrated import SessionConfig, Transcript, VerdictRecord, run_session, setup
from .attacks import Report, Scenario, adversary_catalog, canonical_report_json, regime_check, run_scenario
from .authcrypto import derive_keys, qauth_encode, qauth_verify, qotp, wc_check, wc_tag
from .clifford import CliffordOp, apply_clifford, sample_clifford
from .fieldcode import check_mds, decode_bijection, gen_functionals, parity_constraints
from .qsim import PureState, Sampled, fidelity, make_state, new_rng
from .truesig import FourStepVerdict, SignedBundle, TrueSigKeys, forge, keygen, sign, verify

__version__ = "0.1.0"

__all__ = [
    "CliffordOp",
    "FourStepVerdict",
    "PureState",
    "Report",
    "Scenario",
    "Sampled",
    "SessionConfig",
    "SignedBundle",
    "Transcript",
    "TrueSigKeys",
    "VerdictRecord",
    "__version__",
    "adversary_catalog",
    "apply_clifford",
    "canonical_report_json",
    "check_mds",
    "decode_bijection",
    "derive_keys",
    "fidelity",
    "forge",
    "gen_functionals",
    "keygen",
    "make_state",
    "new_rng",
    "parity_constraints",
    "qauth_encode",
    "qauth_verify",
    "qotp",
    "regime_check",
    "run_scenario",
    "run_session",
    "sample_clifford",
    "setup",
    "sign",
    "verify",
    "wc_check",
    "wc_tag",
]
