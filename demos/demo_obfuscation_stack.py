#!/usr/bin/env python3
"""Obfuscation stack: JLLW tree evaluation and cut-and-choose transcripts.

Obfuscates a majority circuit through the functional-encryption tree, then
builds a provably-correct transcript, audits it, extracts the circuit back,
and shows how a cheating key-to-handle mapping gets caught.
"""

import numpy as np

from qmalab import obfstack
from qmalab.obfstack import PHI_ANY, QPrOSim

rng = np.random.default_rng(99)
qpro = QPrOSim.from_seed(rng)

print("== JLLW tree obfuscation of 3-bit majority ==")
maj = obfstack.table_circuit([0, 0, 0, 1, 0, 1, 1, 1])
o = obfstack.jllw_obfuscate(maj, qpro, instance=1, rng=rng)
outputs = [obfstack.jllw_eval(o, qpro, tuple((x >> (2 - i)) & 1 for i in range(3))) for x in range(8)]
print("tree parameters: D =", o.D, " blocks =", o.B, " block length =", o.L, "bytes")
print("evaluations on all inputs:", outputs)

print("\n== provably-correct (cut-and-choose) transcript, ideal backend ==")
pp, td = obfstack.pc_ext_setup(rng)
transcript = obfstack.pc_obfuscate(pp, PHI_ANY, maj, qpro, rng)
print("challenge bits:", format(transcript.chal, "08b"), " opened bundles:", sorted(transcript.open_set()))
ok, diags = obfstack.pc_verify(pp, PHI_ANY, transcript, qpro)
print("verifier accepts:", ok, diags)
print("majority vote on input 110:", obfstack.pc_eval(transcript, qpro, (1, 1, 0)))

extracted = obfstack.pc_extract(pp, td, PHI_ANY, transcript, qpro)
print("extracted circuit equals the source:", extracted == maj.canonical)

print("\n== a cheating prover with 3 mismatched key bundles ==")
caught = 0
trials = 200
for i in range(trials):
    r = np.random.default_rng([5, i])
    q = QPrOSim.from_seed(r)
    pp_i = obfstack.pc_setup(r)
    bad = obfstack.pc_obfuscate(pp_i, PHI_ANY, maj, q, r, corrupt_bundles=(1, 2, 3))
    ok_i, _ = obfstack.pc_verify(pp_i, PHI_ANY, bad, q)
    caught += not ok_i
print(f"detected {caught}/{trials} = {caught / trials:.3f}  (model: 1 - (1/2)^3 = 0.875)")
