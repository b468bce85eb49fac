"""On-disk image format: round trips, corruption detection, error types."""

import array
import hashlib
import random
import struct
import zlib

import pytest

from palfm.index import (
    _WIDE_WALK,
    MAGIC,
    BadMagicError,
    ChecksumError,
    IndexFormatError,
    TruncatedError,
    VersionError,
    build,
    deserialize,
    serialize,
)
from palfm.succinct import CodeSeq


def _random_text(rng, n, sigma=3):
    return "".join(rng.choice("abcd"[:sigma]) for _ in range(n))


def test_round_trip_is_byte_identical():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(0, 80)
        t = _random_text(rng, n)
        idx = build(t, delta=rng.randint(1, max(n, 1)))
        img = serialize(idx)
        back = deserialize(img)
        assert serialize(back) == img
        assert back.n == idx.n and back.delta == idx.delta
        assert back.K == idx.K
        assert back.lf_values == idx.lf_values
        assert back.S == idx.S
        # numpy scalars would leak into CLI and repr output
        rows = idx.n + 1
        for got in (back.lf_values, back.S, back.locate(t[:2] or "a"),
                    [back.sa_access(r) for r in range(1, rows + 1)],
                    [back.L.rank(rows, c) for c in range(back.K + 2)],
                    [back.B.rank(rows, 1), back.B.select(1, 1),
                     back.F.select(1, 0)]):
            assert all(type(v) is int for v in got)


def test_round_trip_preserves_queries():
    idx = build("abbabbcbc", delta=2)
    back = deserialize(serialize(idx))
    for p in ("bb", "ab", "aba", "abbabbcbc"):
        assert back.count(p) == idx.count(p)
        assert back.locate(p) == idx.locate(p)
    assert back.verify("abbabbcbc").ok


def test_loaded_index_builds_only_the_tables_queries_read():
    t = _random_text(random.Random(67), 300)
    img = serialize(build(t, delta=4))
    idx = deserialize(img)
    idx.count(t[10:14])
    # a count reads no mark
    assert idx.B._cum is None
    idx.locate(t[20:23])
    assert idx.F._cum is None
    assert idx.L._pos is None
    assert idx.lf_rmq._v is idx.lf_values
    # the code rows are the image's sections, and B holds the marks as a
    # CodeSeq over 0 and 1, one byte a row
    sections = dict(_sections(img))
    assert type(idx.F._codes) is bytes and idx.F._codes == sections[2]
    assert type(idx.L._codes) is bytes and idx.L._codes == sections[1]
    assert isinstance(idx.B, CodeSeq)
    assert set(vars(idx.B)) == set(vars(CodeSeq(b"", 1)))
    marks = sections[3]
    assert type(idx.B._codes) is bytes and idx.B._codes == bytes(
        marks[i >> 3] >> (i & 7) & 1 for i in range(idx.n + 1))
    # built on first use, the tables answer as the codes say
    f, l = idx.F.codes(), idx.L.codes()
    for c in range(idx.K + 2):
        assert [idx.F.rank(i, c) for i in range(len(f) + 1)] \
            == [f[:i].count(c) for i in range(len(f) + 1)]
        assert [idx.L.select(r, c) for r in range(1, l.count(c) + 1)] \
            == [i + 1 for i, x in enumerate(l) if x == c]


def test_loaded_tables_hold_four_byte_entries():
    t = _random_text(random.Random(71), 2000, sigma=4)
    idx = deserialize(serialize(build(t, delta=8)))
    idx.count(t[100:108])
    idx.locate(t[200:206])
    rmq = idx.lf_rmq
    tables = [idx.lf_values, idx.S, idx._hop,
              rmq._head, rmq._tail, *rmq._table, *idx.L._cum, idx.F._pos]
    assert len(rmq._table) > 1 and len(idx.L._cum) == idx.K + 1
    for table in tables:
        assert type(table) is array.array and table.itemsize == 4
    assert "shared_pool_bits" not in idx.stats()


def test_first_walk_on_a_loaded_index_builds_the_mark_ranks():
    t = _random_text(random.Random(73), 2000, sigma=2)
    idx = build(t, delta=8)
    img = serialize(idx)
    narrow, wide = t[300:310], t[:2]
    assert 1 <= idx.count(narrow) < _WIDE_WALK <= idx.count(wide)
    # each of the three walks, reached first, builds what it reads
    assert deserialize(img).sa_access(5) == idx.sa_access(5)
    assert deserialize(img).locate(narrow) == idx.locate(narrow)
    assert deserialize(img).locate(wide) == idx.locate(wide)
    back = deserialize(img)
    held = back.stats()["derived_bits"]["B"]
    back.count(wide)
    assert back.stats()["derived_bits"]["B"] == held
    back.locate(narrow)
    assert back.stats()["derived_bits"]["B"] > held


def test_first_walk_builds_the_hop_table_and_a_count_none():
    t = _random_text(random.Random(73), 2000, sigma=2)
    img = serialize(build(t, delta=8))
    narrow, wide = t[300:310], t[:2]
    for first in (lambda idx: idx.sa_access(5),
                  lambda idx: idx.locate(narrow),
                  lambda idx: idx.locate(wide)):
        idx = deserialize(img)
        assert 1 <= idx.count(narrow) < _WIDE_WALK <= idx.count(wide)
        assert idx._hop is None
        first(idx)
        # unmarked rows hold their LF row, marked rows rows + their sample,
        # and no walk builds B's zero counts any more
        rows, samples = idx.n + 1, iter(idx.S)
        assert list(idx._hop) == [rows + next(samples) if mark else lf - 1
                                  for mark, lf in zip(idx.B._codes,
                                                      idx.lf_values)]
        assert idx.B._cum is None


def _fibonacci(n):
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


_DIGEST_TEXTS = {
    "abbabbcbc": "abbabbcbc",
    "aaaaabbbbb": "aaaaabbbbb",
    "abcabcabc": "abcabcabc",
    "a^300": "a" * 300,
    "(ab)^150": "ab" * 150,
    "fibonacci-400": _fibonacci(400),
    "random-s2-2000": _random_text(random.Random(2), 2000, sigma=2),
    "random-s3-2000": _random_text(random.Random(3), 2000, sigma=3),
}

# SHA-256 of serialize(build(text, delta)) for delta = 1, 2, 7, 32, each
# clamped to the text length as the CLI does: an encoder or sort change
# that moves any of these changes the on-disk images
_FROZEN_DIGESTS = {
    "abbabbcbc": (
        "dcb9cec76b783c606c911e4679fcbfa974fd3573bd2daa91bc7e37651a9ba0aa",
        "5382f5a731dcde79d7b9ad9d1ef3a169e3131512859967120a8a3127a3de28c1",
        "b3ec834137627e1475df759afe4ad6617d897b1eafca02b4b1c2afe31d573e4a",
        "53689353d14edbae96647f572f9bfcd930450f8ad0e07ed64e644f5f91c642db"),
    "aaaaabbbbb": (
        "656433ab20d2bce42df0a3db860eeea0f81fb3eefba4d2abc8f29ab71874649e",
        "5630f1b37acc131e3afef2c5294ac5beb3cd445164fb98967f3a7e477c089e39",
        "c0326bb93986ccd3385ca602f446eb3a86a9d37ff34b88f8ca1ca7498b4bd9e7",
        "f1618569868a57665b0c511ce0ca7660e7d9cd4cb0afa703df354dafe189d948"),
    "abcabcabc": (
        "0956b801caf0374b58d397ee3f72fd57076406f99b14ee75d172bf9182141f67",
        "0b28278ef5cda10698312674c68768ced30a4ca50af5c7ba823a6eba482b17b7",
        "23d219b16544bf008ac0cb76cdd4edbbc0d1f5bb338b514892887ffb02d75559",
        "ae3ecff577ae6f143dca9fb705d3d883f14d032c1bdb255344019a7bd36d2317"),
    "a^300": (
        "ac67c6c9cde5f68727cb51fed57ee1c42bd3458cb6252f31e2ed41474c6bced7",
        "6fa69753325ca1fcca7e2eae758bf1e8ffa198b29ff94a4afd039b608eeb24a7",
        "fd22fe886f70e7ad8c81c4466ddb6026848d63804b9ca8722280129dd6b89d3f",
        "aa44236508c6fd3a71f043a8dcc5edc7224b3717f23809fd769e85432e422090"),
    "(ab)^150": (
        "4f179a4fcb8a76203a9411e1251aa7578ece819194dacf47c3c5bf89cadf541b",
        "42249a6136db130ec9480fefff78f7828eb85883c9542e9b8aaff83c67464f88",
        "8a12be5c81baac3d1764e3e6b718ddbbbb8bc0f4e52d13950b02368ecbff5e13",
        "255f4a4982efb4c81d23bfff386bc28821fd6495569d610a2ca4f9fdb1811fd8"),
    "fibonacci-400": (
        "ec5293f38227d81d532f22565c9ca0de222b9ce0f72c2d3b79be7b04b0de6339",
        "459895073bd002a18ea5a153f149dc47b4b8f7918cc67480cd1990fc1f3aed02",
        "5e9c27129b9a31d57e71cd6ada77fe36af3d0e1be88b9706d185b5d61a16fc8a",
        "4bac7df77c541fc6d9fdaf6d7d5b2e409cba32e42420feb37e1a672682f3f577"),
    "random-s2-2000": (
        "c9d6d7b436749af42d3b979df4ffef7006d5c0fd27c862613d63b8eacb084bd9",
        "59e37560532f36635cd259b06cbeceab393620fd8349e7fa9da2738fb83cd970",
        "4ade793d96275e53860aa3a90a59aae9f9621d470001c85bb0cb138cbdf550a1",
        "fa7f160661c978ff7be815d5e2a4f3565e8f78f84b2bdd311ee93ca50219e416"),
    "random-s3-2000": (
        "f48b97976ce23ee049fd510a719ea3233403a84343a4d1d4759b7f9407f9dfef",
        "110a329497b72a89968c5c035a16db32eaf188838dcdd4b52fbb276f7d3f0b3b",
        "0875161d1993f5861cf9db70e80d62fe360337032339f72a8acfa44e7ebf0707",
        "e1bf93310daeab3dfeb9d5a9c1f1addf71760bd3dfcb9b8ebd852075d1642460"),
}


@pytest.mark.parametrize("name", sorted(_DIGEST_TEXTS))
def test_images_match_frozen_digests(name):
    t = _DIGEST_TEXTS[name]
    for delta, want in zip((1, 2, 7, 32), _FROZEN_DIGESTS[name]):
        img = serialize(build(t, delta=min(delta, len(t))))
        assert hashlib.sha256(img).hexdigest() == want, (name, delta)


def test_image_layout_starts_with_magic_and_version():
    img = serialize(build("ab", delta=1))
    assert img[:8] == MAGIC
    version, flags = struct.unpack_from("<II", img, 8)
    assert (version, flags) == (1, 0)
    n, delta = struct.unpack_from("<QQ", img, 16)
    assert (n, delta) == (2, 1)


def test_bad_magic():
    img = serialize(build("ab", delta=1))
    with pytest.raises(BadMagicError):
        deserialize(b"XALFMIX1" + img[8:])
    with pytest.raises(TruncatedError):
        deserialize(b"PAL")


def test_unsupported_version_and_flags():
    img = serialize(build("ab", delta=1))
    bumped = img[:8] + struct.pack("<II", 2, 0) + img[16:]
    with pytest.raises(VersionError):
        deserialize(bumped)
    flagged = img[:8] + struct.pack("<II", 1, 1) + img[16:]
    with pytest.raises(VersionError):
        deserialize(flagged)


def test_truncation():
    img = serialize(build("abbabbcbc", delta=2))
    for cut in (10, 30, len(img) // 2, len(img) - 5):
        with pytest.raises(TruncatedError):
            deserialize(img[:cut])


def test_checksum_catches_payload_damage():
    img = serialize(build("abbabbcbc", delta=2))
    damaged = bytearray(img)
    damaged[36] ^= 0x01
    with pytest.raises(ChecksumError):
        deserialize(bytes(damaged))


def test_every_single_byte_flip_is_detected():
    img = serialize(build("abbabbcbc", delta=2))
    rng = random.Random(67)
    for pos in range(len(img)):
        damaged = bytearray(img)
        damaged[pos] ^= 1 << rng.randrange(8)
        with pytest.raises(IndexFormatError):
            deserialize(bytes(damaged))


def _reseal(img):
    return img[:-4] + struct.pack("<I", zlib.crc32(img[:-4]) & 0xFFFFFFFF)


def _payload_offsets(img):
    """Section tag -> offset of its payload in the image."""
    off = 8 + 4 + 4 + 8 + 8 + 4
    out = {}
    while off < len(img) - 4:
        tag, length = struct.unpack_from("<IQ", img, off)
        out[tag] = off + 12
        off += 12 + length
    return out


def _sections(img):
    """The image's (tag, payload) sections in order."""
    off = 8 + 4 + 4 + 8 + 8 + 4
    out = []
    while off < len(img) - 4:
        tag, length = struct.unpack_from("<IQ", img, off)
        out.append((tag, img[off + 12:off + 12 + length]))
        off += 12 + length
    return out


def _with_sections(img, sections):
    """img's header followed by the given (tag, payload) sections,
    resealed."""
    body = b"".join(struct.pack("<IQ", tag, len(payload)) + payload
                    for tag, payload in sections)
    return _reseal(img[:36] + body + b"\x00\x00\x00\x00")


def test_missing_section_is_reported():
    img = serialize(build("ab", delta=1))
    # strip the final section (sample values) and fix the checksum
    kept = [(tag, payload) for tag, payload in _sections(img) if tag != 4]
    with pytest.raises(IndexFormatError, match="missing sections"):
        deserialize(_with_sections(img, kept))


@pytest.mark.parametrize("edit", ["unknown tag", "L twice"])
def test_section_table_lists_each_known_section_once(edit):
    img = serialize(build("abbabbcbc", delta=2))
    sections = _sections(img)
    assert _with_sections(img, sections) == img
    sections.append((5, b"") if edit == "unknown tag" else sections[0])
    with pytest.raises(IndexFormatError, match="unknown or repeated") as err:
        deserialize(_with_sections(img, sections))
    assert not isinstance(err.value, ChecksumError)


@pytest.mark.parametrize("n", [0, 1, 2000])
@pytest.mark.parametrize("delta", [1, 7, 32])
def test_stats_section_sizes_are_the_image_sections(n, delta):
    # delta is clamped to the text length, as the CLI does
    t = _random_text(random.Random(n), n, sigma=4)
    idx = build(t, delta=min(delta, max(n, 1)))
    img = serialize(idx)
    names = {1: "l_codes", 2: "f_codes", 3: "sample_marks",
             4: "sample_values"}
    want = {"header": 36 * 8, "checksum": 4 * 8}
    want.update((names[tag], 8 * (12 + len(payload)))
                for tag, payload in _sections(img))
    st = idx.stats()
    assert st["section_bits"] == want
    assert st["total_bits"] == 8 * len(img)


def test_code_outside_declared_alphabet_is_reported():
    idx = build("ab", delta=1)
    img = bytearray(serialize(idx))
    # first byte of the L section payload
    img[_payload_offsets(img)[1]] = idx.K + 2
    with pytest.raises(IndexFormatError, match="alphabet"):
        deserialize(_reseal(bytes(img)))
    # a declared K past the byte codes would size every rank table by it
    img = bytearray(serialize(idx))
    struct.pack_into("<I", img, 32, 0xFFFFFFFF)
    with pytest.raises(IndexFormatError, match="alphabet"):
        deserialize(_reseal(bytes(img)))


def test_unequal_code_histograms_are_reported():
    img = bytearray(serialize(build("abbabbcbc", delta=2)))
    # L codes are [inf, inf, 2, inf, 2, $, 2, 2, 1, 1]: a fifth 2 in L
    # meets four in F, so LF would select past F's last 2
    img[_payload_offsets(img)[1]] = 2
    with pytest.raises(IndexFormatError) as err:
        deserialize(_reseal(bytes(img)))
    assert not isinstance(err.value, ChecksumError)


def test_sample_values_must_be_the_sampled_starts():
    idx = build("abbabbcbc", delta=2)
    img = serialize(idx)
    off = _payload_offsets(img)[4]
    for bad in ([10 ** 12], [idx.S[1]], [2], [idx.S[1], idx.S[0]]):
        damaged = bytearray(img)
        struct.pack_into("<%dQ" % len(bad), damaged, off, *bad)
        with pytest.raises(IndexFormatError) as err:
            deserialize(_reseal(bytes(damaged)))
        assert not isinstance(err.value, ChecksumError)


def test_swapped_l_codes_and_moved_marks_are_rejected():
    # each edit keeps the histograms and the sample values, and used to
    # load with locate("a") == [1, 3, 4, 5, 6, 7, 8, 9, 9]
    img = serialize(build("abbabbcbc", delta=2))
    offs = _payload_offsets(img)
    l_swap = bytearray(img)
    l0 = offs[1]
    l_swap[l0], l_swap[l0 + 2] = img[l0 + 2], img[l0]
    moved_mark = bytearray(img)
    assert img[offs[3]] & 0b110 == 0b010  # row 2 marked, row 3 not
    moved_mark[offs[3]] ^= 0b110
    for damaged in (l_swap, moved_mark):
        with pytest.raises(IndexFormatError) as err:
            deserialize(_reseal(bytes(damaged)))
        assert not isinstance(err.value, ChecksumError)


def test_resealed_section_edits_never_load_a_wrong_index():
    """Byte changes and byte swaps inside the code, mark and sample
    sections, CRC recomputed: each image is refused with IndexFormatError
    or loads an index that verify() rejects against the text."""
    rng = random.Random(71)
    for _ in range(12):
        n = rng.randint(1, 24)
        t = _random_text(rng, n, rng.choice((2, 3)))
        img = serialize(build(t, delta=rng.randint(1, n)))
        section = [p for off in _payload_offsets(img).values()
                   for p in range(off, off + struct.unpack_from(
                       "<Q", img, off - 8)[0])]
        for _ in range(150):
            damaged = bytearray(img)
            if rng.random() < 0.5:
                p = rng.choice(section)
                damaged[p] = rng.choice((rng.randrange(256), img[p] ^ 1,
                                         img[p] + 1 & 0xFF))
            else:
                p, q = rng.sample(section, 2)
                damaged[p], damaged[q] = img[q], img[p]
            if damaged == img:
                continue
            try:
                loaded = deserialize(_reseal(bytes(damaged)))
            except IndexFormatError as err:
                assert not isinstance(err, ChecksumError)
                continue
            assert not loaded.verify(t).ok


def test_error_types_share_a_base():
    for cls in (BadMagicError, VersionError, TruncatedError, ChecksumError):
        assert issubclass(cls, IndexFormatError)
    assert issubclass(IndexFormatError, ValueError)
