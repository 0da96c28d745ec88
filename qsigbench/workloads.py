"""The benchmark's workloads: one registered scenario each, at fixed parameters.

One operation is one ``run_scenario`` call with ``trials`` trials. Its
scenario seed is derived from the workload name, the workload seed given on
the command line and the operation's index, so a workload seed fixes every
input of a run.
"""
from __future__ import annotations

from dataclasses import dataclass

import refs


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    params: dict
    trials: int  # trials per run_scenario call (one operation)
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "session_honest",
            "honest_arbitrated",
            {"n": 2, "t": 4, "mode": "referee", "b": 16},
            1,
            "all four protocol phases; Clifford sampling dominates and MAC hashing is a few percent",
        ),
        Workload(
            "session_tamper_t6",
            "eve_pauli_tamper",
            {"n": 2, "t": 6, "mode": "referee", "b": 16, "position": "sigma"},
            1,
            "10- and 16-qubit auth blocks where Clifford application outweighs sampling; ends on the ABORT path",
        ),
        Workload(
            "truesig_forgery_d7k3",
            "truesig_forgery",
            {"d": 7, "k": 3, "mode": "protocol"},
            1,
            "control: qudit measurement kernels and field-code keygen, no Clifford or MAC calls",
        ),
        Workload(
            "mac_forgery_b16",
            "mac_forgery",
            {"b": 16},
            200,
            "the classical half of authcrypto alone: GF(2^16) polynomial hash and the SHA-256 key schedule",
        ),
    )
}


def op_seed(workload: str, seed: int, index: int) -> int:
    """Scenario seed of operation ``index`` (index -1 is the warm-up call)."""
    return refs.derive_seed("qsigbench", workload, seed, index)
