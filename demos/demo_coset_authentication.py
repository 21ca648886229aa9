#!/usr/bin/env python3
"""Coset-state authentication walk-through.

Encodes single qubits into one-time-padded coset states, shows that the
classical verify/decode circuits realize logical measurements on the
codespace, and checks the codespace-projector identity numerically.
"""

import numpy as np

from qmalab import csa
from qmalab.gf2 import BitVector
from qmalab.simstate import BasisPredicate, StateVector

rng = np.random.default_rng(2024)

print("== key generation (lambda_code = 1: 3 physical qubits per logical) ==")
key = csa.keygen(lambda_code=1, n=1, rng=rng)
rec = key.records[0]
print("subspace S      :", rec.s.to_json())
print("shift delta     :", rec.delta.to_string())
print("pads x, z       :", rec.x.to_string(), rec.z.to_string())
s_hat, d_hat = rec.dual
print("dual S_hat      :", s_hat.to_json(), " dual shift:", d_hat.to_string())

print("\n== encoding |0> and |1> ==")
enc0 = csa.enc(key, StateVector.basis(1, 0))
enc1 = csa.enc(key, StateVector.basis(1, 1))
print("support of enc(|0>):", [i for i, a in enumerate(enc0.amplitudes) if abs(a) > 1e-9])
print("support of enc(|1>):", [i for i, a in enumerate(enc1.amplitudes) if abs(a) > 1e-9])
print("<enc0|enc1> =", abs(np.vdot(enc0.amplitudes, enc1.amplitudes)))

print("\n== logical measurements through the decode circuit ==")
ident = BasisPredicate([0, 1])
p_std, _ = csa.logical_measure(key, BitVector((0,)), ident, enc1)
print("Pr[decode |1> to logical 1, standard basis] =", round(p_std, 12))
plus = StateVector.from_amplitudes(np.array([1, 1]) / np.sqrt(2))
p_had, _ = csa.logical_measure(key, BitVector((1,)), ident, csa.enc(key, plus))
print("Pr[decode |+> to logical 1, Hadamard basis] =", round(p_had, 12), "(|+> is logical 0 there)")

print("\n== correctness identity, all bases and a predicate family ==")
worst = 0.0
for th in (0, 1):
    for table in ([0, 0], [1, 1], [0, 1]):
        dev = csa.correctness_deviation(key, BitVector((th,)), BasisPredicate(table))
        worst = max(worst, dev)
print("max |Enc^dag (H^theta Dec H^theta) Enc - M[theta,f]| =", worst)

print("\n== codespace projector identity over fresh keys ==")
devs = [csa.codespace_projector_check(csa.keygen(1, 1, rng)) for _ in range(5)]
print("max deviation over 5 keys:", max(devs))

print("\n== round trip through the encoding isometry ==")
state = StateVector.from_amplitudes(np.array([0.6, 0.8]))
back = csa.enc_adjoint(key, csa.enc(key, state))
print("fidelity of enc_adjoint(enc(psi)) with psi:", back.fidelity(state))
