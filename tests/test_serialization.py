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
    for bad in (10 ** 12, idx.S[1], 2):
        damaged = bytearray(img)
        struct.pack_into("<Q", damaged, off, bad)
        with pytest.raises(IndexFormatError) as err:
            deserialize(_reseal(bytes(damaged)))
        assert not isinstance(err.value, ChecksumError)


def test_error_types_share_a_base():
    for cls in (BadMagicError, VersionError, TruncatedError, ChecksumError):
        assert issubclass(cls, IndexFormatError)
    assert issubclass(IndexFormatError, ValueError)
