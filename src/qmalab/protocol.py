"""NIZK argument of knowledge for QMA over 2-local ZX Hamiltonians.

The prover encodes a tensor power of the witness with coset-state
authentication, obfuscates the combined circuit Ver_k || M_k (codespace
tester plus seeded logical-measurement decoder) through the provably-correct
obfuscator, and ships both.  The verifier audits the obfuscation transcript,
then runs the exact threshold measurement over the mixture of three-step
checks P_r (codespace in both bases, then the complemented decoder for the
seed-selected permuted measurement) and keeps the residual state as the
post-verified proof.  The extractor recovers the authentication key from the
transcript, strips the encoding off the residual, and returns the logical
witness; the simulator produces verifying proofs from an encoded zero state
and a null decoder branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ati, csa, obfstack, permver, toycrypto
from .csa import CSAKey, DecSpec
from .gf2 import BitVector, bits_to_index, index_to_bits
from .obfstack import CircuitDesc, PCObfuscation, PcParams, PhiSpec, QPrOSim
from .permver import PermutingVerifier
from .simstate import (
    StateVector,
    apply_hadamard,
    hadamard_layer,
    project_predicate,
    tensor_many,
)
from .zxham import HamiltonianInstance, acceptance_operator

PHYSICAL_QUBIT_CAP = 14


@dataclass(frozen=True)
class GammaParams:
    """Target quality 1 - gamma, with the threshold run at the slack value
    gamma_prime = gamma + p_margin (cutoff 1 - gamma_prime/2)."""

    gamma: float
    p_margin: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.p_margin <= 0 or not self.gamma_prime < 1.0:
            raise ValueError("need 0 < gamma < gamma + p_margin < 1")

    @property
    def gamma_prime(self) -> float:
        return self.gamma + self.p_margin


@dataclass(frozen=True)
class ProtocolConfig:
    k: int = 2
    lambda_code: int = 1
    lambda_cc: int = 8
    prg_bits: int = 12
    backend: str = "ideal"


@dataclass(frozen=True)
class QmaCrs:
    pp: PcParams


@dataclass(frozen=True)
class QmaProof:
    encoded: StateVector
    obf: PCObfuscation

    def to_json(self, debug: bool = False) -> dict:
        """Classical transcript; the quantum register is re-derivable from
        seeds in honest runs and is dumped only under the debug flag."""
        out = {"obf": self.obf.to_json(), "encoded_qubits": self.encoded.num_qubits}
        if debug:
            out["encoded_amplitudes"] = self.encoded.debug_dump()
        return out


def setup(rng: np.random.Generator, cfg: ProtocolConfig) -> QmaCrs:
    return QmaCrs(obfstack.pc_setup(rng, cfg.lambda_cc))


def ext0(rng: np.random.Generator, cfg: ProtocolConfig) -> tuple[QmaCrs, bytes]:
    pp, td = obfstack.pc_ext_setup(rng, cfg.lambda_cc)
    return QmaCrs(pp), td


# -- seeded measurement selection ---------------------------------------------


def prg_expand(seed_bits: tuple[int, ...], out_bits: int) -> BitVector:
    """Deterministic expansion of a seed into measurement-selection bits."""
    raw = _prg_bytes(seed_bits, (out_bits + 7) // 8)
    bits = []
    for byte in raw:
        bits.extend((byte >> (7 - i)) & 1 for i in range(8))
    return BitVector(tuple(bits[:out_bits]))


def _prg_bytes(seed_bits: tuple[int, ...], out_len: int) -> bytes:
    seed = "".join(str(int(b) & 1) for b in seed_bits).encode()
    return toycrypto.stream(toycrypto.digest(b"qmalab-prg", seed), out_len)


def _perm_for_seed(seed_bits: tuple[int, ...], list_len: int) -> tuple[int, ...]:
    if list_len <= 1:
        return tuple(range(list_len))
    return permver.permutation_from_bytes(
        _prg_bytes(seed_bits, 4 * (list_len - 1)), list_len
    )


@lru_cache(maxsize=32)
def permutation_weights(prg_bits: int, list_len: int) -> tuple[tuple[tuple[int, ...], float, tuple[int, ...]], ...]:
    """Exact distribution over permutations induced by enumerating all
    2**prg_bits seeds: (permutation, weight, representative seed) triples."""
    counts: dict[tuple[int, ...], int] = {}
    reps: dict[tuple[int, ...], tuple[int, ...]] = {}
    total = 2**prg_bits
    for r in range(total):
        seed = index_to_bits(r, prg_bits)
        perm = _perm_for_seed(seed, list_len)
        counts[perm] = counts.get(perm, 0) + 1
        reps.setdefault(perm, seed)
    return tuple((perm, counts[perm] / total, reps[perm]) for perm in sorted(counts))


# -- the obfuscated circuits ---------------------------------------------------


def _payload_width(m: int, prg_bits: int, phys: int) -> int:
    return max(m, prg_bits) + phys


def m_circuit(key: CSAKey, verifier: PermutingVerifier, prg_bits: int) -> CircuitDesc:
    """Decoder circuit M_k(r, s): the seed r selects a permuted measurement
    (theta, f) and the output is Dec_{k, theta, 1-f}(s)."""
    return m_circuit_from_combined(combined_circuit(key, verifier, prg_bits))


def combined_circuit(
    key: CSAKey, verifier: PermutingVerifier, prg_bits: int, null_m: bool = False
) -> CircuitDesc:
    """Ver_k || M_k as one selector-routed classical circuit.

    Input layout: selector bit, then a control field of width
    max(m, prg_bits) (bases theta for the Ver branch, the PRG seed for the M
    branch, zero-padded), then the physical measurement outcome.  The
    simulator's variant replaces the M branch by the null circuit.
    """
    m = verifier.list_len * verifier.ell
    if key.n != m:
        raise ValueError("key must cover list_len * ell logical qubits")
    phys = key.physical_qubits
    ctrl = max(m, prg_bits)
    dec_cache: dict[tuple[int, ...], object] = {}

    def _mdec(perm: tuple[int, ...]):
        if perm not in dec_cache:
            theta_big, f_big = permver.permuted_spec(verifier, perm)
            dec_cache[perm] = csa.dec_predicate(DecSpec(key, theta_big, f_big.complement()))
        return dec_cache[perm]

    def _prefix_table(prefix: tuple[int, ...], suffix_arity: int) -> np.ndarray:
        if suffix_arity != phys or len(prefix) != 1 + ctrl:
            raise ValueError("table split must expose exactly the physical register")
        sel, control = prefix[0], prefix[1:]
        if sel == 0:
            return csa.ver_predicate(key, BitVector(control[:m])).table()
        if null_m:
            return np.zeros(2**phys, dtype=bool)
        perm = _perm_for_seed(tuple(control[:prg_bits]), verifier.list_len)
        return _mdec(perm).table()

    def _sem(bits: tuple[int, ...]) -> int:
        split = 1 + ctrl
        return int(_prefix_table(bits[:split], phys)[bits_to_index(bits[split:])])

    return CircuitDesc(
        input_arity=1 + ctrl + phys,
        semantics=_sem,
        canonical={
            "kind": "csa-ver-mcirc",
            "key": key.to_json(),
            "ham": verifier.base.to_json(),
            "k": verifier.k,
            "a": verifier.a,
            "b": verifier.b,
            "prg_bits": prg_bits,
            "null_m": bool(null_m),
        },
        size_hint=2**key.block_width * key.n,
        prefix_table=_prefix_table,
    )


def _build_combined_from_canonical(canonical: dict) -> CircuitDesc:
    key = CSAKey.from_json(canonical["key"])
    ham = HamiltonianInstance.from_json(canonical["ham"])
    verifier = permver.build(ham, int(canonical["k"]), canonical["a"], canonical["b"])
    return combined_circuit(
        key, verifier, int(canonical["prg_bits"]), null_m=bool(canonical["null_m"])
    )


obfstack.register_circuit_kind("csa-ver-mcirc", _build_combined_from_canonical)
obfstack.register_circuit_kind(
    "csa-mcirc",
    lambda c: m_circuit_from_combined(_build_combined_from_canonical(c["inner"])),
)


def m_circuit_from_combined(base: CircuitDesc) -> CircuitDesc:
    return CircuitDesc(
        input_arity=base.input_arity - 1,
        semantics=lambda bits: base.eval_bits((1,) + bits),
        canonical={"kind": "csa-mcirc", "inner": base.canonical},
        prefix_table=lambda prefix, sa: base.table_for_prefix((1,) + prefix, sa),
    )


def _phi_check(c: CircuitDesc) -> bool:
    canon = c.canonical
    if canon.get("kind") != "csa-ver-mcirc" or canon.get("null_m"):
        return False
    try:
        CSAKey.from_json(canon["key"])
        HamiltonianInstance.from_json(canon["ham"])
    except (KeyError, TypeError, ValueError):
        return False
    return True


PROTOCOL_PHI = obfstack.register_phi(PhiSpec("csa-ver-mcirc", _phi_check))


# -- prover ---------------------------------------------------------------------


def witness_registers(h: HamiltonianInstance, cfg: ProtocolConfig) -> tuple[PermutingVerifier, int, int]:
    pv = permver.build(h, cfg.k)
    m = pv.list_len * pv.ell
    phys = m * (2 * cfg.lambda_code + 1)
    return pv, m, phys


def prove(
    crs: QmaCrs,
    h: HamiltonianInstance,
    witness_copy: StateVector,
    cfg: ProtocolConfig,
    qpro: QPrOSim,
    rng: np.random.Generator,
) -> QmaProof:
    pv, m, phys = witness_registers(h, cfg)
    if witness_copy.num_qubits != pv.ell:
        raise ValueError("witness copy must span the instance's qubit count")
    if phys > PHYSICAL_QUBIT_CAP:
        raise ValueError(
            f"configuration needs {phys} physical qubits "
            f"({pv.list_len} registers x {pv.ell} x {2 * cfg.lambda_code + 1}), "
            f"cap is {PHYSICAL_QUBIT_CAP}"
        )
    full = tensor_many([witness_copy] * pv.list_len)
    key = csa.keygen(cfg.lambda_code, m, rng)
    encoded = csa.enc(key, full)
    circuit = combined_circuit(key, pv, cfg.prg_bits)
    obf = obfstack.pc_obfuscate(crs.pp, PROTOCOL_PHI, circuit, qpro, rng, backend=cfg.backend)
    return QmaProof(encoded, obf)


# -- verifier --------------------------------------------------------------------


@dataclass(frozen=True)
class VerifierPovm:
    """Structured mixture over the three-step checks P_r.

    isometry spans the subspace accepted by both codespace checks; block is
    the mixture restricted there (everything orthogonal has eigenvalue 0).
    """

    isometry: np.ndarray
    block: np.ndarray
    spectral: ati.SpectralMixture
    control_width: int
    m: int
    phys: int


def assemble_verifier_povm(
    obf: PCObfuscation,
    qpro: QPrOSim,
    pv: PermutingVerifier,
    cfg: ProtocolConfig,
) -> VerifierPovm:
    """Build the exact mixture operator from evaluation access to the
    transcript's circuits: the two codespace tables plus one decoder table
    per reachable permutation, averaged with exact seed weights."""
    m = pv.list_len * pv.ell
    phys = m * (2 * cfg.lambda_code + 1)
    ctrl = max(m, cfg.prg_bits)
    if obf.arity != 1 + ctrl + phys:
        raise ValueError("transcript circuit arity disagrees with the configuration")
    pad = (0,) * (ctrl - m)
    ver0 = obfstack.pc_eval_table(obf, qpro, (0,) + (0,) * m + pad, phys)
    ver1 = obfstack.pc_eval_table(obf, qpro, (0,) + (1,) * m + pad, phys)
    ones = (1,) * phys

    def _pi_k(mat: np.ndarray) -> np.ndarray:
        out = hadamard_layer(mat * ver0[:, None], ones)
        return hadamard_layer(out * ver1[:, None], ones)

    dim = 2**phys
    probes = 2**m + 4
    rng_local = np.random.default_rng(
        np.frombuffer(toycrypto.digest(b"qmalab-povm-basis", obf.proof.inner), dtype=np.uint8)
    )
    g = rng_local.normal(size=(dim, probes)) + 1j * rng_local.normal(size=(dim, probes))
    image = _pi_k(g)
    q, r = np.linalg.qr(image)
    keep = np.abs(np.diag(r)) > 1e-8
    isometry = np.ascontiguousarray(q[:, keep])

    block = np.zeros((isometry.shape[1], isometry.shape[1]), dtype=np.complex128)
    width = 2 * cfg.lambda_code + 1
    seed_pad = (0,) * (ctrl - cfg.prg_bits)
    for perm, weight, rep_seed in permutation_weights(cfg.prg_bits, pv.list_len):
        theta_big, _ = permver.permuted_spec(pv, perm)
        mask = tuple(b for bit in theta_big.bits for b in (bit,) * width)
        mdec = obfstack.pc_eval_table(obf, qpro, (1,) + rep_seed + seed_pad, phys)
        accept3 = ~mdec
        p3v = hadamard_layer(isometry, mask)
        p3v = hadamard_layer(p3v * accept3[:, None], mask)
        block += weight * (isometry.conj().T @ p3v)
    block = (block + block.conj().T) / 2.0
    spectral = ati.SpectralMixture.from_isometry_block(isometry, block)
    return VerifierPovm(isometry, block, spectral, ctrl, m, phys)


def verify(
    crs: QmaCrs,
    g: GammaParams,
    h: HamiltonianInstance,
    proof: QmaProof,
    cfg: ProtocolConfig,
    qpro: QPrOSim,
    rng: np.random.Generator,
) -> tuple[int, QmaProof | None, dict]:
    """Transcript audit, then the exact threshold measurement at cutoff
    1 - gamma_prime/2; returns (accept, residual proof, diagnostics)."""
    pv, m, phys = witness_registers(h, cfg)
    info: dict = {}
    ok, diags = obfstack.pc_verify(crs.pp, PROTOCOL_PHI, proof.obf, qpro)
    info["transcript_ok"] = ok
    info["transcript_diagnostics"] = diags
    if not ok:
        return 0, None, info
    if proof.encoded.num_qubits != phys:
        info["transcript_diagnostics"] = ["encoded_size_mismatch"]
        return 0, None, info
    try:
        povm = assemble_verifier_povm(proof.obf, qpro, pv, cfg)
    except ValueError as exc:
        # e.g. a challenge that opened every bundle leaves nothing to evaluate
        info["transcript_diagnostics"] = [f"povm_unavailable: {exc}"]
        return 0, None, info
    outcome = ati.threshold_measure(povm.spectral, proof.encoded, g.gamma_prime, rng)
    info["eigenvalue_measured"] = outcome.eigenvalue_measured
    info["mixture_expectation"] = ati.mixture_expectation(povm.spectral, proof.encoded)
    residual = QmaProof(outcome.post, proof.obf)
    return outcome.accept, residual, info


# -- extractor -------------------------------------------------------------------


def ext1(
    g: GammaParams,
    crs: QmaCrs,
    td: bytes,
    h: HamiltonianInstance,
    residual: QmaProof,
    cfg: ProtocolConfig,
    qpro: QPrOSim,
) -> StateVector:
    """Post-verified extraction: recover the key from the transcript, run the
    two codespace projections, and invert the encoding isometry."""
    circuit = obfstack.pc_extract(crs.pp, td, PROTOCOL_PHI, residual.obf, qpro)
    key = CSAKey.from_json(circuit.canonical["key"])
    state = residual.encoded
    _, post0, _ = project_predicate(state, csa.ver_predicate(key, BitVector.zeros(key.n)))
    if post0 is None:
        raise ValueError("residual state annihilated by the standard-basis codespace check")
    ones = BitVector((1,) * key.n)
    mask = csa.physical_theta(key, ones)
    rotated = apply_hadamard(post0, mask)
    _, post1, _ = project_predicate(rotated, csa.ver_predicate(key, ones))
    if post1 is None:
        raise ValueError("residual state annihilated by the Hadamard-basis codespace check")
    return csa.enc_adjoint(key, apply_hadamard(post1, mask))


def per_copy_acceptance(h: HamiltonianInstance, logical: StateVector, list_len: int) -> float:
    """Average single-copy acceptance Tr[E rho_t] over the witness registers."""
    ell = h.num_qubits
    if logical.num_qubits != ell * list_len:
        raise ValueError("state must span list_len witness registers")
    e = acceptance_operator(h)
    amps = logical.amplitudes.reshape([2**ell] * list_len)
    total = 0.0
    for t in range(list_len):
        moved = np.tensordot(e, amps, axes=([1], [t]))
        moved = np.moveaxis(moved, 0, t)
        total += float(np.real(np.vdot(amps, moved)))
    return total / list_len


# -- simulator -------------------------------------------------------------------


def simulate(
    h: HamiltonianInstance,
    cfg: ProtocolConfig,
    qpro: QPrOSim,
    rng: np.random.Generator,
) -> tuple[QmaCrs, bytes, QmaProof]:
    """Zero-knowledge simulator: simulation-mode setup, then a proof built
    from an encoded zero state and a null decoder branch (no witness input)."""
    pp, td = obfstack.pc_sim_setup(rng, cfg.lambda_cc)
    pv, m, phys = witness_registers(h, cfg)
    if phys > PHYSICAL_QUBIT_CAP:
        raise ValueError("configuration exceeds the physical qubit cap")
    key = csa.keygen(cfg.lambda_code, m, rng)
    encoded = csa.enc(key, StateVector.basis(m, 0))
    circuit = combined_circuit(key, pv, cfg.prg_bits, null_m=True)
    obf = obfstack.pc_sim_obfuscate(pp, td, PROTOCOL_PHI, circuit, qpro, rng, backend=cfg.backend)
    return QmaCrs(pp), td, QmaProof(encoded, obf)
