"""Command-line driver: scenario runner, Monte-Carlo experiment harness,
JSON reporting.

Every scenario is seeded explicitly through its config (no ambient entropy)
and emits a JSON report whose metrics carry their tolerance context; the
process exits 0 iff all asserted tolerances pass.  Reports are bit-for-bit
reproducible under a fixed seed except for the wall_clock_s field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ati, csa, obfstack, permver, protocol, simstate, zxham
from .gf2 import BitVector
from .obfstack import QPrOSim
from .toycrypto import _wire_field, _wire_int, _wire_json, _wire_number

REFERENCE_YES = {
    "qubits": 2,
    "terms": [
        {"i": 0, "j": 1, "basis": "Z", "beta": 0, "p": 0.5},
        {"i": 0, "j": 1, "basis": "X", "beta": 1, "p": 0.5},
    ],
}
ALT_YES = {
    "qubits": 2,
    "terms": [
        {"i": 0, "j": 1, "basis": "Z", "beta": 1, "p": 0.5},
        {"i": 0, "j": 1, "basis": "X", "beta": 0, "p": 0.5},
    ],
}
SINGLE_Z = {
    "qubits": 2,
    "terms": [{"i": 0, "j": 1, "basis": "Z", "beta": 0, "p": 0.5}],
}


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    seed: int
    trials: int = 0  # 0 means the scenario default
    k: int = 0  # 0 means the scenario default (2 for protocol runs, 6 for the bench)
    gamma: float = 0.2
    p_margin: float = 0.1
    lambda_code: int = 1
    lambda_cc: int = 8
    prg_bits: int = 12
    instance: dict | None = None
    instance_b: dict | None = None
    game: str = "key-swap"
    budget: int = 32
    out: str | None = None

    @classmethod
    def from_json(cls, data: dict) -> RunConfig:
        if "seed" not in data:
            raise ValueError("config must carry an explicit seed")
        declared = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(declared)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**{
            name: None if value is None and declared[name].endswith(" | None")
            else _wire_field(data, name, _CONFIG_READERS[declared[name].removesuffix(" | None")])
            for name, value in data.items()
        })
        for name in ("lambda_code", "lambda_cc"):
            if getattr(cfg, name) < 1:
                raise ValueError(f"config field {name!r} must be at least 1")
        return cfg

    def trials_or(self, default: int) -> int:
        return self.trials if self.trials > 0 else default

    def protocol_config(self) -> protocol.ProtocolConfig:
        return protocol.ProtocolConfig(
            k=self.k or 2,
            lambda_code=self.lambda_code,
            lambda_cc=self.lambda_cc,
            prg_bits=self.prg_bits,
        )

    def gamma_params(self) -> protocol.GammaParams:
        return protocol.GammaParams(self.gamma, self.p_margin)

    def load_instance(self, default: dict) -> zxham.HamiltonianInstance:
        return zxham.HamiltonianInstance.from_json(self.instance or default)


def _instance(ref) -> dict:
    """An instance field's object, given inline or as the path of a JSON file:
    shape-checked and returned as read, so the report's config echoes it."""
    if type(ref) is str:
        try:
            ref = _wire_json(Path(ref).read_bytes())
        except OSError as exc:
            why = "does not exist" if isinstance(exc, FileNotFoundError) else f"is unreadable: {exc.strerror}"
            raise ValueError(f"instance file {ref} {why}") from None
    zxham.HamiltonianInstance.from_json(ref)
    return ref


# the reader of each RunConfig annotation, less its " | None"
_CONFIG_READERS = {"int": _wire_int, "float": _wire_number, "str": str, "dict": _instance}


def metric(value, tolerance: str, ok: bool | None = None) -> dict:
    out = {"value": value, "tolerance": tolerance}
    if ok is not None:
        out["pass"] = bool(ok)
    return out


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    z = 1.96  # 95% two-sided
    p = hits / n
    denom = 1 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    rad = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    return max(0.0, center - rad), min(1.0, center + rad)


# -- scenarios ---------------------------------------------------------------


def scenario_csa_correctness(cfg: RunConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for n in (1, 2):
        fams = [[0] * (2**n), [1] * (2**n)]
        if n == 1:
            fams.append([0, 1])
        else:
            fams += [[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 0, 1]]
        for _ in range(2):
            key = csa.keygen(1, n, rng)
            for th in range(2**n):
                theta = BitVector.from_index(th, n)
                for tab in fams:
                    dev = csa.correctness_deviation(key, theta, simstate.BasisPredicate(tab))
                    worst = max(worst, dev)
    code_worst = 0.0
    for _ in range(20):
        key = csa.keygen(1, 1, rng)
        code_worst = max(code_worst, csa.codespace_projector_check(key))
    return {
        "correctness_max_deviation": metric(worst, "<= 1e-9", worst <= 1e-9),
        "codespace_max_deviation": metric(code_worst, "<= 1e-9", code_worst <= 1e-9),
    }


# sub-measurements per witness (trials x list length) permver-bench runs at most;
# each takes about 30 us, so the cap is about a minute, and criterion 03 runs 3 * 10**4
PERMVER_BENCH_WORK_CAP = 10**6


def scenario_permver_bench(cfg: RunConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    h = cfg.load_instance(SINGLE_Z)
    k, trials = cfg.k or 6, cfg.trials_or(10_000)
    work = trials * permver.list_length(h, k)  # refused before permver.build
    if work > PERMVER_BENCH_WORK_CAP:
        raise ValueError(
            f"configuration needs {work} sub-measurements per witness ({trials} trials x "
            f"{work // trials} list entries), cap is {PERMVER_BENCH_WORK_CAP}"
        )
    v = permver.require_passable(permver.build(h, k))
    _, gs = zxham.ground_state(h)
    e = zxham.acceptance_operator(h)
    diag = np.real(np.diag(e))
    no_idx = int(np.argmin(diag))
    no_state = simstate.StateVector.basis(h.num_qubits, no_idx)

    yes_hits = sum(permver.verify_product(v, gs, rng) for _ in range(trials))
    no_hits = sum(permver.verify_product(v, no_state, rng) for _ in range(trials))
    yes_rate, no_rate = yes_hits / trials, no_hits / trials
    hoeffding = permver.hoeffding_completeness_bound(v)
    q_no = float(diag[no_idx])
    bintail = permver.binomial_accept_tail(v, q_no)
    return {
        "k": metric(v.k, "configured"),
        "threshold": metric(v.threshold, "k*(a+b)/2"),
        "accept_freq_yes": metric(
            yes_rate, ">= 1 - hoeffding - 0.03", yes_rate >= 1 - hoeffding - 0.03
        ),
        "accept_freq_no": metric(no_rate, "<= binomial tail + 0.03", no_rate <= bintail + 0.03),
        "hoeffding_bound": metric(hoeffding, "2exp(-2t^2/len)"),
        "binomial_tail_no": metric(bintail, "Pr[Bin(len,q) >= threshold]"),
    }


def scenario_ati_check(cfg: RunConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    gamma = 0.2
    # shared +1 eigenvector |00>, eigenvalue 1/2 on |01> and |11>, 0 on |10>
    mix = ati.SpectralMixture.from_projectors(
        2, [(0.5, np.diag([1.0 + 0j, 1, 0, 0])), (0.5, np.diag([1.0 + 0j, 0, 0, 1]))]
    )
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps[0] += 3.0  # tilt toward the eigenvalue-1 vector so both sides get hit
    state = simstate.StateVector.from_amplitudes(amps / np.linalg.norm(amps))
    trials = cfg.trials_or(1000)
    agreement = ati.repeat_projectivity_check(mix, state, gamma, trials, rng)

    # global rejection: two orthogonal rank-1 projectors at weight 1/2 each
    lo = ati.SpectralMixture.from_projectors(
        1, [(0.5, np.diag([1.0 + 0j, 0.0])), (0.5, np.diag([0.0, 1.0 + 0j]))]
    )
    reject_hits = sum(
        ati.threshold_measure(lo, simstate.StateVector.basis(1, 0), gamma, rng).accept
        for _ in range(trials)
    )

    min_resid = 1.0
    accepted = 0
    for _ in range(trials):
        out = ati.threshold_measure(mix, state, gamma, rng)
        if out.accept:
            accepted += 1
            min_resid = min(min_resid, ati.mixture_expectation(mix, out.post))
    return {
        "projectivity_agreement": metric(agreement, "= 1.0", agreement == 1.0),
        "global_rejection_accepts": metric(reject_hits, "= 0", reject_hits == 0),
        "accepted_trials": metric(accepted, "informational"),
        "min_accepted_residual_expectation": metric(
            min_resid if accepted else None,
            ">= 1 - gamma/2",
            (min_resid >= 1 - gamma / 2 - 1e-9) if accepted else True,
        ),
    }


def _e2e_run(cfg: RunConfig, h: zxham.HamiltonianInstance, i: int, g, pcfg):
    rng = np.random.default_rng([cfg.seed, i])
    qpro = QPrOSim.from_seed(rng, instance_count=cfg.lambda_cc + 1)
    _, gs = zxham.ground_state(h)
    crs, td = protocol.ext0(rng, pcfg)
    proof = protocol.prove(crs, h, gs, pcfg, qpro, rng)
    accept, residual, info = protocol.verify(crs, g, h, proof, pcfg, qpro, rng)
    return accept, residual, info, crs, td, qpro


def scenario_e2e_complete(cfg: RunConfig) -> dict:
    h = cfg.load_instance(REFERENCE_YES)
    g, pcfg = cfg.gamma_params(), cfg.protocol_config()
    protocol.witness_registers(h, pcfg)  # refuses a run above the qubit cap before its first trial
    trials = cfg.trials_or(200)
    hits = sum(_e2e_run(cfg, h, i, g, pcfg)[0] for i in range(trials))
    rate = hits / trials
    return {
        "accept_rate": metric(rate, ">= 0.9", rate >= 0.9),
        "trials": metric(trials, "configured"),
    }


def scenario_e2e_extract(cfg: RunConfig) -> dict:
    h = cfg.load_instance(REFERENCE_YES)
    g, pcfg = cfg.gamma_params(), cfg.protocol_config()
    trials = cfg.trials_or(200)
    accepted = 0
    violations = 0
    min_quality = 1.0
    pv = protocol.witness_registers(h, pcfg)[0]
    for i in range(trials):
        accept, residual, _, crs, td, qpro = _e2e_run(cfg, h, i, g, pcfg)
        if not accept:
            continue
        accepted += 1
        try:
            extracted = protocol.ext1(g, crs, td, h, residual, pcfg, qpro)
            quality = protocol.per_copy_acceptance(h, extracted, pv.list_len)
            min_quality = min(min_quality, quality)
            if quality < 1 - cfg.gamma - 1e-9:
                violations += 1
        except (ValueError, obfstack.IntegrityError):
            violations += 1
    return {
        "accept_rate": metric(accepted / trials, ">= 0.9", accepted / trials >= 0.9),
        "extraction_violations": metric(violations, "= 0", violations == 0),
        "min_per_copy_acceptance": metric(
            min_quality if accepted else None, f">= {1 - cfg.gamma}", True
        ),
    }


def _popcount_hist(chals: list[int], lam_cc: int) -> np.ndarray:
    counts = np.zeros(lam_cc + 1, dtype=int)
    for c in chals:
        counts[bin(c).count("1")] += 1
    return counts


def scenario_e2e_simulate(cfg: RunConfig) -> dict:
    h_a = cfg.load_instance(REFERENCE_YES)
    h_b = zxham.HamiltonianInstance.from_json(cfg.instance_b or ALT_YES)
    g, pcfg = cfg.gamma_params(), cfg.protocol_config()
    for h in (h_a, h_b):
        protocol.witness_registers(h, pcfg)  # refuses a run above the qubit cap before its first trial
    trials = cfg.trials_or(200)
    rates = {}
    chal_samples: dict[str, list[int]] = {"a": [], "b": []}
    for label, h in (("a", h_a), ("b", h_b)):
        hits = 0
        for i in range(trials):
            rng = np.random.default_rng([cfg.seed, 7 if label == "a" else 11, i])
            qpro = QPrOSim.from_seed(rng, instance_count=cfg.lambda_cc + 1)
            crs, _, proof = protocol.simulate(h, pcfg, qpro, rng)
            accept, _, _ = protocol.verify(crs, g, h, proof, pcfg, qpro, rng)
            hits += accept
            chal_samples[label].append(proof.obf.chal)
        rates[label] = hits / trials
    hist_a = _popcount_hist(chal_samples["a"], cfg.lambda_cc)
    hist_b = _popcount_hist(chal_samples["b"], cfg.lambda_cc)
    keep = (hist_a + hist_b) >= 5
    table = np.stack([hist_a[keep], hist_b[keep]])
    if table.shape[1] < 2:
        p_value = 1.0
    else:
        # imported here: scipy.stats adds ~70 MB and ~1 s to any process that imports it
        from scipy import stats

        p_value = float(stats.chi2_contingency(table)[1])
    return {
        "sim_accept_rate_a": metric(rates["a"], ">= 0.9", rates["a"] >= 0.9),
        "sim_accept_rate_b": metric(rates["b"], ">= 0.9", rates["b"] >= 0.9),
        "transcript_chi2_p": metric(p_value, "> 0.01", p_value > 0.01),
    }


class _TamperedQPrO:
    """Eval proxy that flips one byte of one oracle answer."""

    def __init__(self, inner: QPrOSim, hit_index: int):
        self.inner = inner
        self.hit_index = hit_index
        self.count = 0

    def eval(self, instance: int, handle: int, x: bytes, out_len: int) -> bytes:
        out = self.inner.eval(instance, handle, x, out_len)
        if self.count == self.hit_index:
            out = bytes([out[0] ^ 0x01]) + out[1:]
        self.count += 1
        return out


def scenario_jllw_correctness(cfg: RunConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    circuits = cfg.trials_or(50)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    mismatches = 0
    undetected = 0
    for _ in range(circuits):
        d = int(rng.integers(1, 5))
        table = rng.integers(0, 2, size=2**d)
        c = obfstack.table_circuit(table)
        o = obfstack.jllw_obfuscate(c, qpro, 1, rng)
        labels = obfstack.jllw_eval_table(o, qpro, (), d)
        mismatches += int(np.count_nonzero(labels != c.table_for_prefix((), d)))
        probe = tuple(int(b) for b in rng.integers(0, 2, size=d))
        # flip a byte of the pad segment covering the child ciphertext the
        # walk actually consumes (segment j = probe bit at that level)
        level = int(rng.integers(0, d))
        tampered = _TamperedQPrO(qpro, o.B * level + probe[level])
        try:
            obfstack.jllw_eval(o, tampered, probe)
            undetected += 1
        except obfstack.IntegrityError:
            pass
    return {
        "circuits": metric(circuits, "configured"),
        "eval_mismatches": metric(mismatches, "= 0", mismatches == 0),
        "undetected_tampers": metric(undetected, "= 0", undetected == 0),
    }


def scenario_cutchoose_detect(cfg: RunConfig) -> dict:
    trials = cfg.trials_or(1000)
    corrupt = (1, 2, 3)
    corrupted = len(corrupt)
    if cfg.lambda_cc < corrupted:  # model_rate and the floor assume every index is a bundle
        raise ValueError(f"cutchoose-detect corrupts bundles {corrupt}, so it needs lambda_cc >= {corrupted}")
    rejected = 0
    c = obfstack.table_circuit([0, 1, 1, 0])
    for i in range(trials):
        rng = np.random.default_rng([cfg.seed, i])
        qpro = QPrOSim.from_seed(rng, instance_count=cfg.lambda_cc + 1)
        pp = obfstack.pc_setup(rng, cfg.lambda_cc)
        o = obfstack.pc_obfuscate(
            pp, obfstack.PHI_ANY, c, qpro, rng, corrupt_bundles=corrupt
        )
        ok, _ = obfstack.pc_verify(pp, obfstack.PHI_ANY, o, qpro)
        rejected += not ok
    rate = rejected / trials
    floor = 1 - 0.5**corrupted - 0.05
    return {
        "reject_rate": metric(rate, f">= {floor}", rate >= floor),
        "model_rate": metric(1 - 0.5**corrupted, "binomial: 1 - (1/2)^corrupted"),
        "trials": metric(trials, "configured"),
    }


# -- distinguishing games -----------------------------------------------------


def _game_key_swap(cfg: RunConfig, world: int, rng: np.random.Generator) -> int:
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    (k0, k1), probe = qpro.sample_draws(rng, [("keys", 2), ("bytes", 8)])
    handle = qpro.gen(1, k0)
    # the tester's probe, answered through k0's handle in world 0 and under k1 in world 1
    seen = qpro.eval(1, handle, probe, 16) if world == 0 else obfstack.qpro_prf(1, k1, probe, 16)
    # chunked draws are the draws of one call, so the first hit is the same guess
    for start in range(0, cfg.budget, _KEY_SWAP_CHUNK):
        (guesses,) = qpro.sample_draws(rng, [("keys", min(_KEY_SWAP_CHUNK, cfg.budget - start))])
        handles = qpro.gen_many(1, guesses)
        if handle in handles:
            guess_key = guesses[handles.index(handle)]
            return int(obfstack.qpro_prf(1, guess_key, probe, 16) != seen)
    return 0


def _game_csa_hiding(cfg: RunConfig, world: int, rng: np.random.Generator) -> int:
    key = csa.keygen(cfg.lambda_code, 1, rng)
    encoded = csa.enc(key, simstate.StateVector.basis(1, world))
    probs = np.abs(encoded.amplitudes) ** 2
    outcome = int(rng.choice(len(probs), p=probs / probs.sum()))
    ver = csa.ver_predicate(key, BitVector((0,))).table()
    # fixed-measurement tester: standard-basis outcome parity, plus the
    # (uninformative) membership bit from the Ver oracle
    return (bin(outcome).count("1") & 1) ^ (1 - int(ver[outcome]))


def _game_csa_measure(cfg: RunConfig, world: int, rng: np.random.Generator) -> int:
    # measurement-indistinguishability harness: world 0 encodes |0> with the
    # identity predicate, world 1 encodes |1> with its complement; both
    # decode to the same transcript distribution
    key = csa.keygen(cfg.lambda_code, 1, rng)
    encoded = csa.enc(key, simstate.StateVector.basis(1, world))
    f = simstate.BasisPredicate([0, 1] if world == 0 else [1, 0])
    dec = csa.dec_predicate(csa.DecSpec(key, BitVector((0,)), f)).table()
    probs = np.abs(encoded.amplitudes) ** 2
    outcome = int(rng.choice(len(probs), p=probs / probs.sum()))
    queries = [int(dec[outcome])]
    for _ in range(cfg.budget):
        queries.append(int(dec[int(rng.integers(0, len(dec)))]))
    return int(sum(queries) % 2)


def _game_evasive(cfg: RunConfig, world: int, rng: np.random.Generator) -> int:
    arity, num = 16, 4
    subs = [
        obfstack.point_circuit(arity, None if world == 1 else int(rng.integers(0, 2**arity)))
        for _ in range(num)
    ]
    combined = obfstack.combine_circuits(subs, index_bits=2)
    for _ in range(cfg.budget):
        i = int(rng.integers(0, num))
        x = tuple(int(b) for b in rng.integers(0, 2, size=arity))
        sel = ((i >> 1) & 1, i & 1)
        if combined.eval_bits(sel + x):
            return 1
    return 0


# guesses or queries (trials x budget) a distinguishing game plays at most: about a minute
# of key-swap at about a microsecond a guess
GAME_WORK_CAP = 5 * 10**7
# each game's own work, in microseconds on a 2-CPU host: (a trial, each budget query);
# csa-hiding makes no query, and a key-swap trial stops at its first hit
_GAME_COST_US = {"key-swap": (40, 1), "csa-hiding": (300, 0), "csa-measure": (300, 2), "evasive-comb": (25, 20)}
GAME_SECONDS_CAP = 60  # about a minute of any game's own work
_KEY_SWAP_CHUNK = 4096  # key-swap guesses drawn and handled at a time, so its memory is flat at any budget

_GAMES = {
    "key-swap": _game_key_swap,
    "csa-hiding": _game_csa_hiding,
    "csa-measure": _game_csa_measure,
    "evasive-comb": _game_evasive,
}


def distinguish_game(cfg: RunConfig) -> dict:
    """Two-world Monte-Carlo distinguishing experiment.

    Reports the tester's empirical advantage with Wilson intervals per world.
    No pass/fail threshold is asserted: the corresponding claims are
    computational, so the report is informational.
    """
    if cfg.game not in _GAMES:
        raise ValueError(f"unknown game {cfg.game!r}; have {sorted(_GAMES)}")
    play = _GAMES[cfg.game]
    trials = cfg.trials_or(1000)
    per_world = trials // 2
    if per_world < 1:
        raise ValueError(f"a game plays trials // 2 per world, so it needs trials >= 2, not {trials}")
    if trials * cfg.budget > GAME_WORK_CAP:
        raise ValueError(f"configuration plays {trials} trials x {cfg.budget} budget, cap is {GAME_WORK_CAP}")
    per_trial, per_query = _GAME_COST_US[cfg.game]
    seconds = trials * (per_trial + cfg.budget * per_query) / 10**6
    if seconds > GAME_SECONDS_CAP:
        raise ValueError(
            f"configuration plays about {seconds:.0f} s of {cfg.game} ({trials} trials x {cfg.budget} budget), "
            f"cap is {GAME_SECONDS_CAP} s"
        )
    hits = [0, 0]
    for world in (0, 1):
        for i in range(per_world):
            rng = np.random.default_rng([cfg.seed, world, i])
            hits[world] += play(cfg, world, rng)
    p0, p1 = hits[0] / per_world, hits[1] / per_world
    lo0, hi0 = wilson_interval(hits[0], per_world)
    lo1, hi1 = wilson_interval(hits[1], per_world)
    advantage = abs(p1 - p0)
    spread = (hi0 - lo0) / 2 + (hi1 - lo1) / 2
    return {
        "game": metric(cfg.game, "configured"),
        "advantage": metric(advantage, "informational (computational claim)"),
        "advantage_ci": metric(
            [max(0.0, advantage - spread), advantage + spread], "Wilson 95% (per-world spread)"
        ),
        "world0_rate": metric(p0, f"Wilson [{lo0:.4f}, {hi0:.4f}]"),
        "world1_rate": metric(p1, f"Wilson [{lo1:.4f}, {hi1:.4f}]"),
        "trials_per_world": metric(per_world, "configured"),
    }


SCENARIOS = {
    "csa-correctness": scenario_csa_correctness,
    "permver-bench": scenario_permver_bench,
    "ati-check": scenario_ati_check,
    "e2e-complete": scenario_e2e_complete,
    "e2e-extract": scenario_e2e_extract,
    "e2e-simulate": scenario_e2e_simulate,
    "jllw-correctness": scenario_jllw_correctness,
    "cutchoose-detect": scenario_cutchoose_detect,
    "distinguish-game": distinguish_game,
}


def run_scenario(cfg: RunConfig) -> dict:
    """Execute one scenario and assemble its report."""
    if cfg.scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {cfg.scenario!r}; have {sorted(SCENARIOS)}")
    start = time.monotonic()
    metrics = SCENARIOS[cfg.scenario](cfg)
    elapsed = time.monotonic() - start
    passed = all(m.get("pass", True) for m in metrics.values())
    return {
        "scenario": cfg.scenario,
        "config": {k: v for k, v in dataclasses.asdict(cfg).items() if v is not None},
        "metrics": metrics,
        "passed": passed,
        "wall_clock_s": round(elapsed, 3),
    }


# -- entry points --------------------------------------------------------------


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, default=str)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qmalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario from a JSON config")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None)

    sub.add_parser("list-scenarios", help="print the available scenario names")

    perm_p = sub.add_parser("permver", help="permuting-verifier utilities")
    perm_sub = perm_p.add_subparsers(dest="perm_command", required=True)
    bench_p = perm_sub.add_parser("bench", help="acceptance benchmark JSON")
    bench_p.add_argument("--config", required=True)
    bench_p.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        print(json.dumps(sorted(SCENARIOS)))
        return 0

    try:
        data = _wire_json(Path(args.config).read_bytes())
    except (OSError, ValueError) as exc:  # unreadable, or not JSON text
        print(json.dumps({"error": f"config unreadable: {exc}"}), file=sys.stderr)
        return 2

    if not isinstance(data, dict):
        print(json.dumps({"error": "config must be a JSON object"}), file=sys.stderr)
        return 2
    data["scenario"] = "permver-bench" if args.command == "permver" else args.scenario
    try:
        cfg = RunConfig.from_json(data)
        report = run_scenario(cfg)
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    if args.command == "permver":
        report["bench"] = {
            name: report["metrics"][name]["value"]
            for name in ("k", "threshold", "accept_freq_yes", "accept_freq_no", "hoeffding_bound")
        }
    _emit(report, args.out or cfg.out)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
