"""On-disk image format: round trips, corruption detection, error types."""

import random
import struct
import zlib

import pytest

from palfm.index import (
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


def test_missing_section_is_reported():
    img = serialize(build("ab", delta=1))
    # strip the final section (sample values) and fix the checksum
    off = 8 + 4 + 4 + 8 + 8 + 4
    end = len(img) - 4
    sections = []
    while off < end:
        tag, length = struct.unpack_from("<IQ", img, off)
        sections.append((tag, img[off:off + 12 + length]))
        off += 12 + length
    kept = b"".join(raw for tag, raw in sections if tag != 4)
    rebuilt = img[:36] + kept + b"\x00\x00\x00\x00"
    with pytest.raises(IndexFormatError, match="missing sections"):
        deserialize(_reseal(rebuilt))


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
