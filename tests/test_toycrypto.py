"""Hash-based toy primitives."""

from __future__ import annotations

import ast
import hashlib
import hmac
from pathlib import Path

import numpy as np
import pytest

from qmalab import toycrypto
from qmalab.toycrypto import IntegrityError


@pytest.mark.parametrize("n", [0, 1, 7, 64, 4096])
def test_xor_bytes_matches_per_byte_definition(n):
    rng = np.random.default_rng(n)
    a, b = bytearray(rng.bytes(n)), bytearray(rng.bytes(n))
    for lead in range(min(n, 3)):
        a[lead] = 0  # leading zero bytes must survive
    b[: min(n, 2)] = a[: min(n, 2)]  # and so must leading zero results
    a, b = bytes(a), bytes(b)
    out = toycrypto.xor_bytes(a, b)
    assert out == bytes(x ^ y for x, y in zip(a, b))
    assert len(out) == n and isinstance(out, bytes)
    assert toycrypto.xor_bytes(out, b) == a


def test_xor_bytes_rejects_length_mismatch():
    with pytest.raises(IntegrityError, match="length mismatch"):
        toycrypto.xor_bytes(b"\0\1", b"\1")
    with pytest.raises(IntegrityError, match="length mismatch"):
        toycrypto.xor_bytes(b"", b"\0")


DIGEST_PINS = [
    ((b"qmalab-qpro-perm", b"\x01\x02\x03"), 4, "de6df7d0"),
    (
        (b"qmalab-commit", b"", b"abc", bytes(range(40))),
        32,
        "f866085b1e72aa11c64e921e45daf240e6e8b9f5d6dbf49d53cf70a8613bd5df",
    ),
    (
        (b"a-tag-longer-than-sixteen-bytes", b"x", b"", b"yz" * 50, b"\xff" * 7, b"\x00"),
        100,
        "5cc26853d0ec97b0bd30763fc70fbf5f97b366c9f3c08aeb2d5486523a2b30afb668b80c9bc023ad624861960e724e01"
        "55e384b4b9637d604e9626b0e6304c522fd2fd3c096eb18ba48d0de1292299f9630c6b0d3d76239a07a052f6983b3f1f"
        "232ee200",
    ),
]


@pytest.mark.parametrize("args, out_len, expected", DIGEST_PINS)
def test_digest_bytes_are_pinned(args, out_len, expected):
    """1, 3 and 5 length-prefixed parts; the framing cannot drift."""
    assert toycrypto.digest(*args, out_len=out_len).hex() == expected


STREAM_PINS = [
    (b"", 0, ""),
    (b"k", 1, "26"),
    (
        bytes(range(16)),
        63,
        "24ff5753e55bdbd961bd163c32123d1523f1ec726c45e18b230deb7b9398cb226e46cb247ba35b39eb19ac6831f715ae"
        "dfb19a7e5f8c1f9451797449d1945a"
    ),
    (
        b"qmalab" * 8,
        64,
        "c4634245ff215c2f28953ca7da444d25cad2a4d9a1b87b33973c63cd3d7fe2604f34620d5c68d3c1e51bc846f25cee0c"
        "55e56e3e7cc1a8e714dc4466b08e044f"
    ),
    (
        bytes(range(48)),
        65,
        "fd816296d825e0f177b8969791eff54efb81a11490ae67fa445ceeb6ee3e804811ea2f9c318da21e0e446df4ffa20c88"
        "96e43e81ef97cbe7a74db9f55118c69a73"
    ),
    (
        b"\xff" * 32,
        1000,
        "459735766ad6cfd211558f00052fb8fc63ab1bcf71b58e654a1875a5a6305362b4723044ee17ed58cee6da5e12a5936f"
        "43d1c986c8fe424d47bcd171527239cb450061b656db7fd547720e1cafe81531e83e8e87a6c8802e2d6dd42d033d88bc"
        "0513b7b05a6d91c949d41cfbdc6065e3c441a4fba24c3a6a0d1984f7a8b8bb42336cf080a19a5f2932b6d41f6f237897"
        "d484e33f2088bc1305e30dbcc55c5cabc55232c4fde49178b1cc5fff02c70836cb70289031d40ec1843ddd839ecd5b62"
        "882abbcdfe29694433b638eaee935990d777b9ecacc93bd358874da41c84a57bbb8940f137efad11d72f6c653fe9108c"
        "0c051ef4fce8cb515fc2b5ffcde41264c28f2b1aca576e5354b7c4e1f894c57ac66ffb921bbdb51c2968a1bfa624d210"
        "766fc7ee25a0917994fdccf33447e39956b64695f57e794b7e7eaf74798d37136e48b6deeaa106fc2953b469e460d761"
        "718767146e82164b0d33f46029b0ed48aee37c8e39a9baf5f1efb2c5f2c3b8e8b767069198fe0bd47d50cb0d711ba93d"
        "c1ea69c216d3040910086e2d2d1419ac3825f25e329c74e50e1cb5d3dc08b52f3e824e7e5eb296cba98767ccb013e953"
        "24e790f4b05813a53649474fc2dd86da3c9c5958f5b649cd7f9f20747891b455848341973291fdf02268e5609e8612dc"
        "a603ea9afc95d5ab594edeec576491af02f79aba76af001fd984750008ef6c8920cce083662d6653460216d719155ab8"
        "ee504b399d4aa5e14ef1f94227c4491ab308c4e4409b12872326cf42f0e87f05a5b8b5ab41d8794bb2d117a58c0574bd"
        "0963a384509e2628bedc4fe89282f9aab22a7d32d6f24c5d5bbb0b32bcac682972cd3147d0d8b84a404493b994875f6f"
        "3fa676943a6fe67f692f8938b5153819ecdebf67141195a0a8b9595c93cf7c3e0b11f6a5ff1099b378309a894f23b457"
        "03a2c11521182cb174c541d2c2ce702258192d8bdfc1163435e716fb98e9ef1a8da7c7310478af56cf4cdc4c7aeeb939"
        "b853e36aab3e1b932850eb13f60e4509d08c82a6a236756eb519b063205e0ce1f665155f83e5a35a7875b2e3289b74df"
        "318befebde01ce81e1c3ebcd46f7a4c9f1de3e32b0539351a24f5b6d9856bac51220e386dd9d3c8fe5e8b7604f717655"
        "bb7ba0513efce32acddb0a33645cea35f5578333e4feaa0c5ed239fc754b49027ca22f23b4d044fbe1c8a9daac8ca986"
        "a3e6089932ffcd829bbc290b4459668b3a7198c4969f8e27761961e3ece5dd4057ce9655f0611b12f36d34cb78740e6f"
        "4e00f345a5f38ae9618a11e2e85349fe8540858340ad02285a0cab1d75495f2ee80bb0a619929a43ba0778d522861de3"
        "3dbd872050cafe170e5fec45dc8d1a8ec90307220eccd0a91626d9572b79cf0b4cc091a7d50f64a4"
    ),
]


@pytest.mark.parametrize("seed, n, expected", STREAM_PINS, ids=[f"n{n}" for _, n, _ in STREAM_PINS])
def test_stream_bytes_are_pinned(seed, n, expected):
    """Short of a block, one block, just over one, and many; the keystream
    cannot drift."""
    assert toycrypto.stream(seed, n).hex() == expected


def test_stream_is_counter_mode_and_a_prefix_of_every_longer_stream():
    rng = np.random.default_rng(64)
    for seed in (b"", b"\0", rng.bytes(16), rng.bytes(48), rng.bytes(200)):
        # block i is the personalized BLAKE2b of the 8-byte counter i and the seed
        blocks = b"".join(
            hashlib.blake2b(i.to_bytes(8, "big") + seed, digest_size=64, person=b"qmalab-stream\0\0\0").digest()
            for i in range(5)
        )
        assert toycrypto.stream(seed, 300) == blocks[:300]
        for n in range(0, 200, 7):
            for k in (0, 1, 63, 64, 65, 100):
                assert toycrypto.stream(seed, n) == toycrypto.stream(seed, n + k)[:n]


def _stream_reference(seed: bytes, n: int) -> bytes:
    out = bytearray()
    ctr = 0
    while len(out) < n:
        out += hashlib.blake2b(ctr.to_bytes(8, "big") + seed, digest_size=64, person=b"qmalab-stream\0\0\0").digest()
        ctr += 1
    return bytes(out[:n])


def _mac_reference(key: bytes, message: bytes, out_len: int = 16) -> bytes:
    return hmac.new(key, message, hashlib.sha256).digest()[:out_len]


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1000])
def test_mac_and_stream_equal_their_reference_definitions(n):
    """n is the keystream's length, and the length of the MAC's key and message."""
    rng = np.random.default_rng(1000 + n)
    for seed in (b"", rng.bytes(16), rng.bytes(n)):
        assert toycrypto.stream(seed, n) == _stream_reference(seed, n)
    key, message = rng.bytes(n), rng.bytes(n)
    for out_len in (16, 32):
        assert toycrypto.mac(key, message, out_len) == _mac_reference(key, message, out_len)
    assert toycrypto.mac(key, message) == _mac_reference(key, message)


@pytest.mark.parametrize("out_len", [1, 4, 32, 64])
def test_digest_state_with_the_next_length_absorbed_finishes_digest(out_len):
    rng = np.random.default_rng(out_len)
    tag, parts = b"qmalab-qpro-perm", [rng.bytes(n) for n in (32, 4, 1)]
    for last in (b"", rng.bytes(4), rng.bytes(100)):
        state = toycrypto.digest_state(tag, tuple(parts), out_len, next_len=len(last))
        for _ in range(2):  # the prepared state is reused through copies
            h = state.copy()
            h.update(last)
            assert h.digest() == toycrypto.digest(tag, *parts, last, out_len=out_len)
    assert toycrypto.digest_state(tag, tuple(parts), out_len).digest() == toycrypto.digest(
        tag, *parts, out_len=out_len
    )


class _Recorder:
    """A hash stand-in that records every update it is fed."""

    def __init__(self):
        self.fed = []

    def update(self, data: bytes) -> None:
        self.fed.append(bytes(data))


@pytest.mark.parametrize("count", [0, 1, 2, 3])
@pytest.mark.parametrize("next_len", [None, 0, 4, 300])
def test_framed_bytes_are_what_absorb_feeds_in(count, next_len):
    rng = np.random.default_rng(count)
    parts = tuple(rng.bytes(n) for n in (0, 5, 70)[:count])
    recorder = toycrypto.absorb(_Recorder(), parts, next_len)
    assert toycrypto.framed(parts, next_len) == b"".join(recorder.fed)
    # the framing spelled out: each part after its 4-byte big-endian length
    spelled = b"".join(len(p).to_bytes(4, "big") + p for p in parts)
    spelled += b"" if next_len is None else next_len.to_bytes(4, "big")
    assert toycrypto.framed(parts, next_len) == spelled
    # one update of the framed bytes leaves a state as absorb does
    for tag in (b"qmalab-qpro-perm", b"t"):
        h = hashlib.blake2b(digest_size=4, person=tag.ljust(16, b"\0"))
        h.update(toycrypto.framed(parts, next_len))
        assert h.digest() == toycrypto.digest_state(tag, parts, 4, next_len).digest()


def test_digest_states_copy_one_prepared_state_per_tag_and_size(monkeypatch):
    built = []
    blake2b = hashlib.blake2b

    def counted(*args, **kwargs):
        built.append(kwargs.get("person"))
        return blake2b(*args, **kwargs)

    monkeypatch.setattr(hashlib, "blake2b", counted)
    toycrypto._empty_state.cache_clear()  # later digests prepare their states again
    tag = b"qmalab-fresh-tag-of-this-test"
    first = toycrypto.digest(tag, b"a", out_len=16)
    assert built == [tag[:16]]  # the first digest of a (tag, size) prepares its state
    for _ in range(3):
        assert toycrypto.digest(tag, b"a", out_len=16) == first
        toycrypto.digest(tag, b"b", out_len=16)
    assert len(built) == 1  # later ones copy it, so the prepared state never absorbs input
    toycrypto.digest(tag, b"a", out_len=32)
    assert len(built) == 2  # another digest size is another personalized state
    assert first == blake2b(b"\0\0\0\x01a", digest_size=16, person=tag[:16]).digest()


def _handled(node: ast.expr | None) -> list[str]:
    """The exception names an except clause lists; a bare except lists none."""
    if node is None:
        return []
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _handled(elt)]
    return [node.attr if isinstance(node, ast.Attribute) else ast.unparse(node)]


def test_no_except_clause_can_turn_a_bug_into_a_rejection():
    """Malformed input raises ValueError (or IntegrityError) at its reader, so
    no handler in the package is bare or catches a broad or lookup error."""
    broad = {"Exception", "BaseException", "KeyError", "IndexError", "TypeError", "AttributeError"}
    offending = []
    for path in sorted(Path(toycrypto.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler):
                names = _handled(node.type)
                if not names or broad & set(names):
                    offending.append(f"{path.name}:{node.lineno} except {', '.join(names) or '(bare)'}")
    assert not offending


def _unbounded_cache(node: ast.AST) -> bool:
    """node, a call or a decorator, is functools.cache or an lru_cache
    without an integer maxsize."""
    func = node.func if isinstance(node, ast.Call) else node
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name != "lru_cache":
        return name == "cache"
    if not isinstance(node, ast.Call):
        return True  # a bare @lru_cache states no maxsize
    sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
    return not (
        len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int
    )


def test_no_module_level_cache_grows_with_its_inputs():
    """Every function cache in the package states a finite integer maxsize."""
    offending = []
    for path in sorted(Path(toycrypto.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # a called decorator is itself a Call node
            sites = [d for d in getattr(node, "decorator_list", []) if not isinstance(d, ast.Call)]
            if isinstance(node, ast.Call):
                sites.append(node)
            for site in sites:
                if _unbounded_cache(site):
                    offending.append(f"{path.name}:{site.lineno} {ast.unparse(site)}")
    assert not offending


def test_the_field_readers_raise_value_error_naming_the_field():
    with pytest.raises(ValueError, match="field 'a' is missing"):
        toycrypto._wire_field({}, "a")
    with pytest.raises(ValueError, match="list is not a JSON object"):
        toycrypto._wire_field([], "a")
    with pytest.raises(ValueError, match="field 'a': field 'b': expected an integer"):
        toycrypto._wire_field({"a": {"b": True}}, "a", toycrypto._wire_field, "b", toycrypto._wire_int)
    for text in (b"\xff", b"{", b"[" * 100000 + b"]" * 100000):
        with pytest.raises(ValueError, match="not JSON text"):
            toycrypto._wire_json(text)


# Public functions that no code outside the tests calls, kept in the package
# because each states a definition or bound: the name, and why it stays.
REFERENCE_DEFINITIONS = {
    "obfstack.ideal_eval": "the definition ideal_eval_table is checked against",
    "zxham.zxver": "the sampled verifier acceptance_operator is checked against",
    "permver.thresholds_from_energy": "bound calculator: energy to acceptance thresholds",
    "permver.matrix_bernstein_tail": "bound calculator: the matrix Bernstein tail",
}


def test_every_public_function_is_used_outside_the_tests():
    """Each public module-level function and method of the package is named
    somewhere in the package, the demos or the benchmark, or is one of the
    reference definitions above; a helper only tests use lives in the test
    file that uses it.  Names are matched, not resolved, so a method sharing
    its name with a used one passes; an attribute of a name that the file
    imports from outside the package, such as json.loads or np.linalg.norm,
    names no package function."""
    package = sorted(Path(toycrypto.__file__).parent.glob("*.py"))
    root = Path(__file__).resolve().parents[1]
    users = package + sorted((root / "demos").rglob("*.py")) + sorted((root / "perfbench").rglob("*.py"))
    named = set()
    for path in users:
        tree = ast.parse(path.read_text())
        foreign = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] != "qmalab"
            for alias in node.names
            if alias.name.split(".")[0] != "qmalab"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                root_node = node.value
                while isinstance(root_node, ast.Attribute):
                    root_node = root_node.value
                if not (isinstance(root_node, ast.Name) and root_node.id in foreign):
                    named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = set()
    for path in package:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                found = [(node.name, node.name)]
            elif isinstance(node, ast.ClassDef):
                found = [(m.name, f"{node.name}.{m.name}") for m in node.body if isinstance(m, ast.FunctionDef)]
            else:
                found = []
            unused.update(f"{path.stem}.{q}" for name, q in found if not name.startswith("_") and name not in named)
    assert sorted(unused) == sorted(REFERENCE_DEFINITIONS)
