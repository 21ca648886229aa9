"""The benchmark's workloads, one per ``qmalab.cli`` scenario it is named
after.

Each workload builds its inputs from the run seed exactly as the scenario
does (``RunConfig`` defaults, per-trial generators seeded ``[seed, i]``, or
the one shared generator of ``jllw-correctness``) and runs one iteration of
the scenario's loop per ``trial`` call, through the same public calls.  The
package modules are looked up when a workload is built and their functions
are called through the module at every trial, so a freshly imported package
and patched tracing wrappers are both picked up.

``fingerprint_trials`` is the number of leading trials the seed fingerprint
covers; every run runs at least that many.

A trial returns an outcome dict: ``fp`` is its entry in the seed
fingerprint, ``kind`` names the trial's cost class (the branch it took, or
its arity), ``error`` names a failed per-trial check, and ``*_ns`` keys are
stage latencies.  ``parts``, where given, splits the trial's time into
consecutive parts that cover it.  ``summary`` turns a list of outcomes into the scenario's
own report values; ``checks`` applies the acceptance gate's tolerances.
"""

from __future__ import annotations

import time

import numpy as np

now = time.perf_counter_ns


class E2EExtract:
    """ext0 -> prove -> verify, then ext1 and the per-copy check on accepted
    trials, at the reference configuration (12 physical qubits)."""

    name = "e2e-extract"
    fingerprint_trials = 100

    def __init__(self, seed: int):
        from qmalab import cli, obfstack, permver, protocol, zxham

        self.seed = seed
        self.obfstack, self.protocol, self.zxham = obfstack, protocol, zxham
        self.cfg = cli.RunConfig.from_json({"scenario": self.name, "seed": seed})
        self.h = self.cfg.load_instance(cli.REFERENCE_YES)
        self.g, self.pcfg = self.cfg.gamma_params(), self.cfg.protocol_config()
        self.list_len = permver.build(self.h, self.pcfg.k).list_len

    def trial(self, i: int) -> dict:
        protocol, h, g, pcfg = self.protocol, self.h, self.g, self.pcfg
        t_start = now()
        rng = np.random.default_rng([self.seed, i])
        qpro = self.obfstack.QPrOSim.from_seed(rng, instance_count=self.cfg.lambda_cc + 1)
        _, gs = self.zxham.ground_state(h)
        crs, td = protocol.ext0(rng, pcfg)
        t0 = now()
        proof = protocol.prove(crs, h, gs, pcfg, qpro, rng)
        t1 = now()
        accept, residual, _ = protocol.verify(crs, g, h, proof, pcfg, qpro, rng)
        t2 = now()
        out = {"fp": [int(accept), proof.obf.chal], "accept": int(accept),
               "kind": "accept" if accept else "reject",
               "prove_ns": t1 - t0, "verify_ns": t2 - t1,
               "parts": {"prepare": t0 - t_start, "prove": t1 - t0, "verify": t2 - t1}}
        if not accept:
            return out
        # the scenario counts any exception of the extractor as a violation
        try:
            extracted = protocol.ext1(g, crs, td, h, residual, pcfg, qpro)
            out["extract_ns"] = now() - t2
            quality = protocol.per_copy_acceptance(h, extracted, self.list_len)
            out["parts"]["extract"] = now() - t2
        except Exception as exc:
            out["error"] = f"ext1:{type(exc).__name__}"
            return out
        out["quality"] = quality
        if quality < 1 - self.cfg.gamma - 1e-9:
            out["error"] = "per_copy_acceptance"
        return out

    def summary(self, outcomes: list[dict]) -> dict:
        qualities = [o["quality"] for o in outcomes if "quality" in o]
        return {
            "accept_rate": sum(o.get("accept", 0) for o in outcomes) / len(outcomes),
            "extraction_violations": sum(
                1 for o in outcomes if o.get("error", "").startswith(("ext1:", "per_copy"))
            ),
            # the scenario starts its running minimum at 1.0
            "min_per_copy_acceptance": min(1.0, *qualities) if qualities else None,
        }

    def checks(self, s: dict) -> dict:
        floor = 1 - self.cfg.gamma
        q = s["min_per_copy_acceptance"]
        return {
            "accept_rate": (s["accept_rate"], ">= 0.9", s["accept_rate"] >= 0.9),
            "extraction_violations": (
                s["extraction_violations"], "= 0", s["extraction_violations"] == 0
            ),
            "min_per_copy_acceptance": (q, f">= {floor}", q is None or q >= floor - 1e-9),
        }


class CutChooseDetect:
    """pc_setup -> pc_obfuscate of the arity-2 [0,1,1,0] table circuit with
    bundles 1-3 corrupted -> pc_verify."""

    name = "cutchoose-detect"
    fingerprint_trials = 1000
    corrupted = (1, 2, 3)

    def __init__(self, seed: int):
        from qmalab import cli, obfstack

        self.seed = seed
        self.obfstack = obfstack
        self.cfg = cli.RunConfig.from_json({"scenario": self.name, "seed": seed})
        self.circuit = obfstack.table_circuit([0, 1, 1, 0])

    def trial(self, i: int) -> dict:
        obfstack, lam = self.obfstack, self.cfg.lambda_cc
        rng = np.random.default_rng([self.seed, i])
        qpro = obfstack.QPrOSim.from_seed(rng, instance_count=lam + 1)
        pp = obfstack.pc_setup(rng, lam)
        o = obfstack.pc_obfuscate(
            pp, obfstack.PHI_ANY, self.circuit, qpro, rng, corrupt_bundles=self.corrupted
        )
        ok, _ = obfstack.pc_verify(pp, obfstack.PHI_ANY, o, qpro)
        return {"fp": [int(ok)], "rejected": int(not ok), "kind": "accept" if ok else "reject"}

    def summary(self, outcomes: list[dict]) -> dict:
        return {"reject_rate": sum(o.get("rejected", 0) for o in outcomes) / len(outcomes)}

    def checks(self, s: dict) -> dict:
        floor = 1 - 0.5 ** len(self.corrupted) - 0.05
        return {"reject_rate": (s["reject_rate"], f">= {floor}", s["reject_rate"] >= floor)}


class JllwCorrectness:
    """Random table circuits of arity 1-4: tree-obfuscate, evaluate every
    input against the table, and tamper-probe one walk once."""

    name = "jllw-correctness"
    fingerprint_trials = 200

    def __init__(self, seed: int):
        from qmalab import cli, obfstack

        self.obfstack = obfstack
        self.tampered = cli._TamperedQPrO  # the scenario's own tamper model
        # one generator for the whole run, as in the scenario
        self.rng = np.random.default_rng(seed)
        self.qpro = obfstack.QPrOSim.from_seed(self.rng, instance_count=2)

    def trial(self, i: int) -> dict:
        obfstack, rng, qpro = self.obfstack, self.rng, self.qpro
        d = int(rng.integers(1, 5))
        table = rng.integers(0, 2, size=2**d)
        c = obfstack.table_circuit(table)
        o = obfstack.jllw_obfuscate(c, qpro, 1, rng)
        inputs = [tuple((x >> (d - 1 - j)) & 1 for j in range(d)) for x in range(2**d)]
        outputs = [int(obfstack.jllw_eval(o, qpro, bits)) for bits in inputs]
        mismatches = sum(y != c.eval_bits(bits) for y, bits in zip(outputs, inputs))
        probe = tuple(int(b) for b in rng.integers(0, 2, size=d))
        level = int(rng.integers(0, d))
        try:
            obfstack.jllw_eval(o, self.tampered(qpro, o.B * level + probe[level]), probe)
            detected = 0
        except obfstack.IntegrityError:
            detected = 1
        out = {
            "fp": [table.tolist(), outputs, list(probe), level, detected],
            "kind": f"arity{d}",
            "mismatches": mismatches,
            "undetected": 1 - detected,
        }
        if mismatches:
            out["error"] = "eval_mismatch"
        elif not detected:
            out["error"] = "undetected_tamper"
        return out

    def summary(self, outcomes: list[dict]) -> dict:
        return {
            "eval_mismatches": sum(o.get("mismatches", 0) for o in outcomes),
            "undetected_tampers": sum(o.get("undetected", 0) for o in outcomes),
        }

    def checks(self, s: dict) -> dict:
        return {
            name: (s[name], "= 0", s[name] == 0)
            for name in ("eval_mismatches", "undetected_tampers")
        }


WORKLOADS = {w.name: w for w in (E2EExtract, CutChooseDetect, JllwCorrectness)}
