"""Mutated cut-and-choose transcripts of either backend:
PCObfuscation.from_json followed by pc_verify raises ValueError at parse time
or rejects with a diagnostic; it never accepts.  A JLLW transcript that
parses also evaluates: a blob that does not parse votes failed."""

from __future__ import annotations

import base64
import copy
import json

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from qmalab.obfstack import (
    _FAILED,
    PCObfuscation,
    PHI_ANY,
    QPrOSim,
    pc_eval_table,
    pc_obfuscate,
    pc_setup,
    pc_verify,
    table_circuit,
)


def _honest_transcript(backend: str):
    rng = np.random.default_rng(41)
    qpro = QPrOSim.from_seed(rng)
    pp = pc_setup(rng)
    o = pc_obfuscate(pp, PHI_ANY, table_circuit([0, 1, 1, 0]), qpro, rng, backend=backend)
    return qpro, pp, o.to_json()


QPRO, PP, HONEST = _honest_transcript("ideal")
JLLW_QPRO, JLLW_PP, JLLW_HONEST = _honest_transcript("jllw")
OTHER_TYPES = [None, True, False, 0, 1, -1, 2**70, 1.5, "", "2", "zz", [], [0], {}, {"0": 0}]


def _paths(node, prefix=()):
    """Every (container path, key) below the root, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _flip_hex(text: str, bit: int) -> str:
    raw = bytearray(bytes.fromhex(text))
    raw[bit // 8 % len(raw)] ^= 1 << (bit % 8)
    return raw.hex()


def _flip_b64(text: str, bit: int) -> str:
    raw = bytearray(base64.b64decode(text))
    raw[bit // 8 % len(raw)] ^= 1 << (bit % 8)
    return base64.b64encode(bytes(raw)).decode()


@st.composite
def delete_field(draw, data):
    path, key = draw(st.sampled_from(list(_paths(data))))
    parent = _at(data, path)
    del parent[key]
    return "delete", path + (key,)


@st.composite
def swap_type(draw, data):
    path, key = draw(st.sampled_from(list(_paths(data))))
    parent = _at(data, path)
    old = parent[key]
    parent[key] = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(old)]))
    return "swap", path + (key,), parent[key]


@st.composite
def flip_bit(draw, data):
    bit = draw(st.integers(0, 255))
    # an unopened ideal instance posts a handle with a uid, a JLLW one a blob
    unopened = "uid" if data["backend"] == "ideal" else "blob"
    target = draw(st.sampled_from(["commitment", "handle", "key", "r", unopened, "ct", "inner"]))
    if target == "commitment":
        i = draw(st.integers(0, len(data["commitments"]) - 1))
        data["commitments"][i] = _flip_hex(data["commitments"][i], bit)
    elif target == "handle":
        bundle = data["handle_bundles"][draw(st.integers(0, len(data["handle_bundles"]) - 1))]
        i = draw(st.integers(0, len(bundle) - 1))
        bundle[i] ^= 1 << (bit % 64)
    elif target in ("key", "r"):
        entry = data["opened"][draw(st.sampled_from(sorted(data["opened"])))]
        if target == "key":
            i = draw(st.integers(0, len(entry["keys"]) - 1))
            entry["keys"][i] ^= 1 << (bit % 64)
        else:
            entry["r"] = _flip_hex(entry["r"], bit)
    elif target == "uid":
        entry = data["unopened"][draw(st.sampled_from(sorted(data["unopened"])))]
        entry["uid"] = _flip_hex(entry["uid"], bit)
    elif target == "blob":
        t = draw(st.sampled_from(sorted(data["unopened"])))
        bit = draw(st.integers(0, 4 * len(data["unopened"][t]) - 1))  # anywhere in the blob
        data["unopened"][t] = _flip_hex(data["unopened"][t], bit)
    else:
        data["proof"][target] = _flip_b64(data["proof"][target], bit)
    return "flip", target, bit


@st.composite
def reorder_bundles(draw, data):
    perm = list(range(len(data["commitments"])))
    i = draw(st.integers(0, len(perm) - 2))
    j = draw(st.integers(i + 1, len(perm) - 1))
    perm[i], perm[j] = perm[j], perm[i]
    which = draw(st.sampled_from(["commitments", "handle_bundles", "both"]))
    for name in ("commitments", "handle_bundles") if which == "both" else (which,):
        data[name] = [data[name][i] for i in perm]
    if which == "both" and draw(st.booleans()):
        # relabel the openings to follow their bundles
        new_t = {str(old + 1): str(new + 1) for new, old in enumerate(perm)}
        for part in ("opened", "unopened"):
            data[part] = {new_t[t]: v for t, v in data[part].items()}
    return "reorder", which, tuple(perm)


@st.composite
def bad_header(draw, data):
    field = draw(st.sampled_from(["chal", "arity", "lam_cc"]))
    lam_cc = data["lam_cc"]
    if field == "chal":
        value = draw(st.one_of(st.integers(-(2**70), -1), st.integers(1 << lam_cc, 2**70)))
    else:
        value = draw(st.integers(-5, 3 * data[field] + 5).filter(lambda v: v != data[field]))
    data[field] = value
    return "header", field, value


@st.composite
def blob_field(draw, data):
    """Delete or retype one field, at any depth (FE key params included), of
    one unopened JLLW blob, and re-encode the blob."""
    t = draw(st.sampled_from(sorted(data["unopened"])))
    blob = json.loads(bytes.fromhex(data["unopened"][t]))
    path, key = draw(st.sampled_from(list(_paths(blob))))
    parent = _at(blob, path)
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(parent[key])]))
    data["unopened"][t] = json.dumps(blob, sort_keys=True, separators=(",", ":")).encode().hex()
    return "blob", t, path + (key,)


MUTATIONS = [delete_field, swap_type, flip_bit, reorder_bundles, bad_header]
JLLW_MUTATIONS = MUTATIONS + [blob_field]


def _refused_or_rejected(data, honest, pp, qpro, mutations=MUTATIONS) -> None:
    mutated = copy.deepcopy(honest)
    data.draw(data.draw(st.sampled_from(mutations))(mutated))
    assert mutated != honest
    try:
        o = PCObfuscation.from_json(mutated)
    except ValueError:
        event("refused at parse")
        return  # the documented parse-time refusal
    ok, diagnostics = pc_verify(pp, PHI_ANY, o, qpro)
    event(f"rejected: {diagnostics[0].split(':')[0] if diagnostics else 'none'}")
    assert not ok and diagnostics
    if o.backend == "jllw":
        # an unverified transcript still evaluates: every instance that fails votes failed
        assert pc_eval_table(o, qpro, (), o.arity).shape == (2**o.arity,)
        event(f"blobs failed at parse or fit: {sum(tree == _FAILED for tree in o._trees.values())}")


def test_the_honest_transcript_parses_and_verifies_with_bundles_on_both_sides():
    for honest, pp, qpro in ((HONEST, PP, QPRO), (JLLW_HONEST, JLLW_PP, JLLW_QPRO)):
        o = PCObfuscation.from_json(copy.deepcopy(honest))
        assert o.opened and o.unopened
        assert pc_verify(pp, PHI_ANY, o, qpro) == (True, [])


@settings(max_examples=400, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_mutated_transcript_is_refused_or_rejected_never_accepted(data):
    _refused_or_rejected(data, HONEST, PP, QPRO)


@settings(max_examples=400, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_mutated_jllw_transcript_is_refused_or_rejected_never_accepted(data):
    _refused_or_rejected(data, JLLW_HONEST, JLLW_PP, JLLW_QPRO, JLLW_MUTATIONS)
