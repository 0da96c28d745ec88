"""Span tracer that times qsiglab's public functions from outside the program.

qsiglab's modules bind each other's functions with ``from ... import``, so
a call from ``authcrypto`` to ``sample_clifford`` looks the name up in
``authcrypto``'s globals, not in ``clifford``'s. ``install`` therefore
replaces a traced function under every name that is bound to it in every
module of the package, and ``uninstall`` puts the originals back.

Each wrapped call records one span (id, name, start, end, parent span id,
trial id). Per-name call counts, total time and self time (duration minus
the time covered by child spans) are accumulated as the spans close, so
the aggregates cover every call; the span list itself is capped so a long
run of the cheap MAC workload cannot exhaust memory.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import time

PACKAGE_MODULES = ("qsim", "fieldcode", "clifford", "authcrypto", "arbitrated", "truesig", "attacks", "cli")

# module -> traced public functions (the layers of the per-layer metrics)
TRACED = {
    "qsim": (
        "apply_gate",
        "parity_measure",
        "extract_factor",
        "symmetric_subspace_measure",
        "reduced_density",
        "apply_classical_bijection",
        "derive_seed",
    ),
    "clifford": ("sample_clifford", "apply_clifford"),
    "authcrypto": ("qauth_encode", "qauth_verify", "qotp", "wc_tag", "wc_check", "derive_keys"),
    "fieldcode": ("gen_functionals", "decode_bijection", "parity_constraints"),
    "arbitrated": ("setup", "alice_sign", "bob_wrap", "arbiter_adjudicate", "bob_finalize", "signing_ops"),
    "truesig": ("keygen", "sign", "verify", "forge"),
    "attacks": ("run_scenario",),
}

# functions whose total (inclusive) time is reported besides self time
WITH_TOTAL = {
    "arbitrated.alice_sign",
    "arbitrated.bob_wrap",
    "arbitrated.arbiter_adjudicate",
    "arbitrated.bob_finalize",
    "truesig.keygen",
    "truesig.sign",
    "truesig.verify",
    "truesig.forge",
}


# counters computed from the arguments of a call, before it runs


def _count_amps(tr: "Tracer", args: tuple) -> None:
    tr.amps_bytes += args[0].amps.nbytes


def _count_apply(tr: "Tracer", args: tuple) -> None:
    op = args[1]
    tr.gates_applied += len(op.gates)
    tr.apply_bytes += len(op.gates) * (1 << op.m) * 16


def _count_sample(tr: "Tracer", args: tuple) -> None:
    tr.samples.add((args[0], str(args[1].bit_generator.state)))


def _count_mac(tr: "Tracer", args: tuple) -> None:
    tr.mac_blocks += math.ceil(len(args[1]) / (args[0].width // 8))


COUNTERS = {f"qsim.{f}": _count_amps for f in TRACED["qsim"] if f != "derive_seed"}
COUNTERS.update(
    {
        "clifford.apply_clifford": _count_apply,
        "clifford.sample_clifford": _count_sample,
        "authcrypto.wc_tag": _count_mac,
        "authcrypto.wc_check": _count_mac,
    }
)

SPAN_CAP = 50_000


class Tracer:
    """Owns the spans, the aggregates and the patched bindings of one run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.trial = 0
        self.agg = {f"{m}.{f}": [0, 0.0, 0.0] for m, fs in TRACED.items() for f in fs}  # calls, total s, self s
        self.amps_bytes = 0
        self.gates_applied = 0
        self.apply_bytes = 0
        self.mac_blocks = 0
        self.samples: set = set()
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stack, agg, spans = self._stack, self.agg[name], self.spans
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self, args)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, name, start, end, parent[0] if parent else None, self.trial))
                else:
                    self.dropped += 1

        return traced

    # -- patching

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("qsiglab")] + [importlib.import_module(f"qsiglab.{m}") for m in PACKAGE_MODULES]
        for mod_name, funcs in TRACED.items():
            home = importlib.import_module(f"qsiglab.{mod_name}")
            for func in funcs:
                original = getattr(home, func)
                wrapper = self.wrap(f"{mod_name}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results

    def per_trial(self, trials: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each divided by the number of traced trials."""
        out: dict[str, tuple[float, str]] = {}
        for name, (calls, total, self_s) in self.agg.items():
            out[f"{name}.calls"] = (calls / trials, "calls/trial")
            out[f"{name}.self_ms"] = (self_s * 1e3 / trials, "ms/trial")
            if name in WITH_TOTAL:
                out[f"{name}.total_ms"] = (total * 1e3 / trials, "ms/trial")
        mib = float(1 << 20)
        out["qsim.amps_mib"] = (self.amps_bytes / mib / trials, "MiB/trial")
        out["clifford.gates_applied"] = (self.gates_applied / trials, "gates/trial")
        out["clifford.apply_mib"] = (self.apply_bytes / mib / trials, "MiB/trial")
        calls = self.agg["clifford.sample_clifford"][0]
        out["clifford.sample_useful_ratio"] = (len(self.samples) / calls if calls else 1.0, "ratio")
        out["authcrypto.mac_blocks"] = (self.mac_blocks / trials, "blocks/trial")
        return out

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines, then one summary line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, trial in self.spans:
                fh.write(
                    json.dumps({"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "trial": trial}) + "\n"
                )
            fh.write(json.dumps({"kept": len(self.spans), "dropped": self.dropped}) + "\n")
