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
from .gf2 import BitVector, index_to_bits
from .obfstack import CircuitDesc, PCObfuscation, PcParams, PhiSpec, QPrOSim
from .permver import PermutingVerifier
from .simstate import (
    StateVector,
    apply_hadamard,  # not called here; the benchmark's tracer tests patch this lookup site
    measure_zx,
    project_predicate,
    tensor_many,
    zx_apply,
)
from .toycrypto import _wire_field
from .zxham import HamiltonianInstance, acceptance_operator

PHYSICAL_QUBIT_CAP = 14
PRG_BITS_CAP = 16  # permutation_weights enumerates 2**prg_bits seeds: under half a second at 16


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

    def __post_init__(self):
        if not 0 <= self.prg_bits <= PRG_BITS_CAP:
            raise ValueError(f"prg_bits must lie in 0..{PRG_BITS_CAP}, not {self.prg_bits}")
        for name in ("k", "lambda_code", "lambda_cc"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, not {getattr(self, name)}")


@dataclass(frozen=True)
class QmaProof:
    encoded: StateVector
    obf: PCObfuscation

    def to_json(self) -> dict:
        """Classical transcript; the quantum register is re-derivable from
        seeds in honest runs."""
        return {"obf": self.obf.to_json(), "encoded_qubits": self.encoded.num_qubits}


def ext0(rng: np.random.Generator, cfg: ProtocolConfig) -> tuple[PcParams, bytes]:
    """The one setup: the crs (the obfuscator's public parameters) and the trapdoor."""
    return obfstack.pc_ext_setup(rng, cfg.lambda_cc)


# -- seeded measurement selection ---------------------------------------------


def _prg_input(seed_bits: tuple[int, ...]):
    """(state, text) of a seed: the text spells its bits in '0'/'1', and the
    prepared state, shared by every seed of that length, has absorbed all of
    digest(b"qmalab-prg", text) that comes before the text."""
    text = "".join(str(int(b) & 1) for b in seed_bits).encode()
    return toycrypto.digest_state(b"qmalab-prg", (), next_len=len(text)), text


def _prg_bytes(state, seed_text: bytes, out_len: int) -> bytes:
    h = state.copy()
    h.update(seed_text)
    return toycrypto.stream(h.digest(), out_len)


def _perm_for_text(state, seed_text: bytes, list_len: int) -> tuple[int, ...]:
    """The one definition of seed -> PRG bytes -> permutation."""
    if list_len <= 1:
        return tuple(range(list_len))
    return permver.permutation_from_bytes(
        _prg_bytes(state, seed_text, 4 * (list_len - 1)), list_len
    )


def _perm_for_seed(seed_bits: tuple[int, ...], list_len: int) -> tuple[int, ...]:
    return _perm_for_text(*_prg_input(seed_bits), list_len)


@lru_cache(maxsize=32)
def permutation_weights(prg_bits: int, list_len: int) -> tuple[tuple[tuple[int, ...], float, tuple[int, ...]], ...]:
    """Exact distribution over permutations induced by enumerating all
    2**prg_bits seeds: (permutation, weight, representative seed) triples.
    Exact weights keep the seed split's bias: at prg_bits=12, list_len=2,
    (0, 1) weighs 2050/4096 and (1, 0) 2046/4096, i.e. 1/2 +- 2**-11.
    Every seed copies one prepared hash state; seed r's text is its
    prg_bits-digit binary numeral, the text of index_to_bits(r, prg_bits)."""
    counts: dict[tuple[int, ...], int] = {}
    reps: dict[tuple[int, ...], tuple[int, ...]] = {}
    total = 2**prg_bits
    state, _ = _prg_input((0,) * prg_bits)
    for r in range(total):
        text = format(r, f"0{prg_bits}b").encode() if prg_bits else b""  # not "0" at width 0
        perm = _perm_for_text(state, text, list_len)
        counts[perm] = counts.get(perm, 0) + 1
        if perm not in reps:
            reps[perm] = index_to_bits(r, prg_bits)
    return tuple((perm, counts[perm] / total, reps[perm]) for perm in sorted(counts))


# -- the obfuscated circuits ---------------------------------------------------


def combined_circuit(
    key: CSAKey, verifier: PermutingVerifier, prg_bits: int, null_m: bool = False
) -> CircuitDesc:
    """Ver_k || M_k as one selector-routed classical circuit.

    Input layout: selector bit, then a control field of width
    max(m, prg_bits) (bases theta for the Ver branch, the PRG seed for the M
    branch, zero-padded), then the physical measurement outcome.  A table
    split fixes the selector and the control field and may fall anywhere in
    the physical register.  The simulator's variant replaces the M branch by
    the null circuit.
    """
    m = verifier.list_len * verifier.ell
    if key.n != m:
        raise ValueError("key must cover list_len * ell logical qubits")
    phys = key.physical_qubits
    ctrl = max(m, prg_bits)
    # read-only physical-register table per branch: Ver by theta, Dec by
    # permutation, and the null branch; at most 2**m + list_len! entries
    branch_tables: dict[tuple, np.ndarray] = {}

    def _branch_table(sel: int, control: tuple[int, ...]) -> np.ndarray:
        if sel == 0:
            branch = (0, control[:m])
        elif null_m:
            branch = (1,)
        else:
            branch = (1, _perm_for_seed(tuple(control[:prg_bits]), verifier.list_len))
        full = branch_tables.get(branch)
        if full is None:
            if sel == 0:
                full = csa.ver_predicate(key, BitVector(control[:m])).table()
            elif null_m:
                full = np.zeros(2**phys, dtype=bool)
            else:
                theta_big, f_big = permver.permuted_spec(verifier, branch[1])
                full = csa.dec_predicate(DecSpec(key, theta_big, f_big.complement())).table()
            full.flags.writeable = False
            branch_tables[branch] = full
        return full

    def _table(prefix: tuple[int, ...], suffix_arity: int) -> np.ndarray:
        split = 1 + ctrl
        if len(prefix) < split:
            raise ValueError("table split must not reach into the control field")
        full = _branch_table(prefix[0], prefix[1:split])
        return obfstack.table_slice(full, prefix[split:], suffix_arity)

    return CircuitDesc(
        input_arity=1 + ctrl + phys,
        table=_table,
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
    )


def _phi_check(canon) -> bool:
    """The one reader of combined_circuit's description: not null, key and ham parse."""
    if not isinstance(canon, dict) or canon.get("kind") != "csa-ver-mcirc" or canon.get("null_m"):
        return False
    try:
        _wire_field(canon, "key", CSAKey.from_json)
        _wire_field(canon, "ham", HamiltonianInstance.from_json)
    except ValueError:
        return False
    return True


PROTOCOL_PHI = PhiSpec("csa-ver-mcirc", _phi_check)


# -- prover ---------------------------------------------------------------------


def witness_registers(h: HamiltonianInstance, cfg: ProtocolConfig) -> tuple[PermutingVerifier, int, int]:
    """(verifier, logical qubits m, physical qubits); rejects a configuration
    above PHYSICAL_QUBIT_CAP before any work, building the verifier included,
    and one whose verifier no state can pass (permver.require_passable)."""
    list_len = permver.list_length(h, cfg.k)
    m = list_len * h.num_qubits
    phys = m * (2 * cfg.lambda_code + 1)
    if phys > PHYSICAL_QUBIT_CAP:
        raise ValueError(
            f"configuration needs {phys} physical qubits "
            f"({list_len} registers x {h.num_qubits} x {2 * cfg.lambda_code + 1}), "
            f"cap is {PHYSICAL_QUBIT_CAP}"
        )
    return permver.require_passable(permver.build(h, cfg.k)), m, phys


def prove(
    crs: PcParams,
    h: HamiltonianInstance,
    witness_copy: StateVector,
    cfg: ProtocolConfig,
    qpro: QPrOSim,
    rng: np.random.Generator,
) -> QmaProof:
    pv, m, _ = witness_registers(h, cfg)
    if witness_copy.num_qubits != pv.ell:
        raise ValueError("witness copy must span the instance's qubit count")
    full = tensor_many([witness_copy] * pv.list_len)
    key = csa.keygen(cfg.lambda_code, m, rng)
    encoded = csa.enc(key, full)
    circuit = combined_circuit(key, pv, cfg.prg_bits)
    obf = obfstack.pc_obfuscate(crs, PROTOCOL_PHI, circuit, qpro, rng)
    return QmaProof(encoded, obf)


# -- verifier --------------------------------------------------------------------


def _probe_matrix(seed: bytes, shape: tuple[int, int]) -> np.ndarray:
    """normal + 1j*normal from a generator seeded by the transcript, the two
    draws written in that order into the real and imaginary parts of one
    complex array.  The bytes are the formula's: numpy's normal(0, 1) is
    0.0 + 1.0 * standard_normal, which np.add(0.0, draw) repeats, and
    a + 1j*b is exactly (a, b) for draws that are never -0.0."""
    rng_local = np.random.default_rng(
        np.frombuffer(toycrypto.digest(b"qmalab-povm-basis", seed), dtype=np.uint8)
    )
    g = np.empty(shape, dtype=np.complex128)
    for part in (g.real, g.imag):
        np.add(0.0, rng_local.standard_normal(size=shape), out=part)
    return g


def _codespace_image(obf: PCObfuscation, qpro: QPrOSim, m: int, ctrl: int, phys: int) -> np.ndarray:
    """Had Ver1 Had Ver0 applied to 2**m + 4 probes; Ver0 masks the probe
    matrix in place."""
    pad = (0,) * (ctrl - m)
    ver0 = obfstack.pc_eval_table(obf, qpro, (0,) + (0,) * m + pad, phys)
    ver1 = obfstack.pc_eval_table(obf, qpro, (0,) + (1,) * m + pad, phys)
    g = _probe_matrix(obf.proof.inner, (2**phys, 2**m + 4))
    np.multiply(g, ver0[:, None], out=g)
    return zx_apply(g, (1,) * phys, ver1)


def _column_basis(image: np.ndarray) -> np.ndarray:
    """Orthonormal basis of image's column space from its QR factors."""
    q, r = np.linalg.qr(image)
    return np.ascontiguousarray(q[:, np.abs(np.diag(r)) > 1e-8])


def assemble_verifier_povm(
    obf: PCObfuscation,
    qpro: QPrOSim,
    pv: PermutingVerifier,
    cfg: ProtocolConfig,
) -> ati.SpectralMixture:
    """Build the exact mixture operator from evaluation access to the
    transcript's circuits: the two codespace tables plus one decoder table
    per reachable permutation, averaged with exact seed weights, factored
    through the subspace both codespace checks accept (eigenvalue 0 off it)."""
    m = pv.list_len * pv.ell
    width = 2 * cfg.lambda_code + 1
    phys = m * width
    ctrl = max(m, cfg.prg_bits)
    if obf.arity != 1 + ctrl + phys:
        raise ValueError("transcript circuit arity disagrees with the configuration")
    # each large temporary is freed as soon as the next step has consumed it
    isometry = _column_basis(_codespace_image(obf, qpro, m, ctrl, phys))

    block = np.zeros((isometry.shape[1], isometry.shape[1]), dtype=np.complex128)
    adjoint = isometry.conj().T
    seed_pad = (0,) * (ctrl - cfg.prg_bits)
    for perm, weight, rep_seed in permutation_weights(cfg.prg_bits, pv.list_len):
        theta_big, _ = permver.permuted_spec(pv, perm)
        mask = tuple(b for bit in theta_big.bits for b in (bit,) * width)
        mdec = obfstack.pc_eval_table(obf, qpro, (1,) + rep_seed + seed_pad, phys)
        block += weight * (adjoint @ zx_apply(isometry, mask, ~mdec))
    block = (block + block.conj().T) / 2.0
    return ati.SpectralMixture.from_isometry_block(isometry, block)


def verify(
    crs: PcParams,
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
    ok, diags = obfstack.pc_verify(crs, PROTOCOL_PHI, proof.obf, qpro)
    info["transcript_ok"] = ok
    info["transcript_diagnostics"] = diags
    if not ok:
        return 0, None, info
    if proof.encoded.num_qubits != phys:
        info["transcript_diagnostics"] = ["encoded_size_mismatch"]
        return 0, None, info
    # the two transcripts that audit clean and still leave no POVM to build
    if not proof.obf.unopened:  # the challenge opened every bundle
        info["transcript_diagnostics"] = ["povm_unavailable: all_bundles_opened"]
        return 0, None, info
    if proof.obf.arity != 1 + max(m, cfg.prg_bits) + phys:
        info["transcript_diagnostics"] = ["povm_unavailable: arity_mismatch"]
        return 0, None, info
    mixture = assemble_verifier_povm(proof.obf, qpro, pv, cfg)
    outcome = ati.threshold_measure(mixture, proof.encoded, g.gamma_prime, rng)
    info["eigenvalue_measured"] = outcome.eigenvalue_measured
    info["mixture_expectation"] = ati.mixture_expectation(mixture, proof.encoded)
    residual = QmaProof(outcome.post, proof.obf)
    return outcome.accept, residual, info


# -- extractor -------------------------------------------------------------------


def ext1(
    g: GammaParams,
    crs: PcParams,
    td: bytes,
    h: HamiltonianInstance,
    residual: QmaProof,
    cfg: ProtocolConfig,
    qpro: QPrOSim,
) -> StateVector:
    """Post-verified extraction: recover the key from the transcript, run the
    two codespace projections, and invert the encoding isometry."""
    desc = obfstack.pc_extract(crs, td, PROTOCOL_PHI, residual.obf, qpro)
    key = _wire_field(desc, "key", CSAKey.from_json)
    state = residual.encoded
    _, post0, _ = project_predicate(state, csa.ver_predicate(key, BitVector.zeros(key.n)))
    if post0 is None:
        raise ValueError("residual state annihilated by the standard-basis codespace check")
    ones = BitVector((1,) * key.n)
    _, post1 = measure_zx(post0, csa.physical_theta(key, ones), csa.ver_predicate(key, ones))
    if post1 is None:
        raise ValueError("residual state annihilated by the Hadamard-basis codespace check")
    return csa.enc_adjoint(key, post1)


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
) -> tuple[PcParams, bytes, QmaProof]:
    """Zero-knowledge simulator: a fresh setup, then a proof built from an
    encoded zero state and a null decoder branch (no witness input)."""
    pv, m, _ = witness_registers(h, cfg)
    pp, td = obfstack.pc_ext_setup(rng, cfg.lambda_cc)  # simulation has no trapdoor of its own yet
    key = csa.keygen(cfg.lambda_code, m, rng)
    encoded = csa.enc(key, StateVector.basis(m, 0))
    circuit = combined_circuit(key, pv, cfg.prg_bits, null_m=True)
    obf = obfstack.pc_sim_obfuscate(pp, td, PROTOCOL_PHI, circuit, qpro, rng)
    return pp, td, QmaProof(encoded, obf)
