"""Command-line behaviour, exercised in process through main()."""

import struct
import zlib

import pytest

from palfm import build, cli, serialize
from palfm import index as index_mod
from palfm.index import deserialize

T = b"abbabbcbc"


@pytest.fixture()
def files(tmp_path):
    text = tmp_path / "t.txt"
    text.write_bytes(T)
    idx = tmp_path / "t.idx"
    idx.write_bytes(serialize(build(T, delta=2)))
    return text, idx


def test_build_writes_a_loadable_index(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_bytes(T)
    out = tmp_path / "out.idx"
    rc = cli.main(["build", str(text), str(out), "--delta", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n 9"
    assert lines[1] == "K 2"
    assert lines[2].startswith("seconds ")
    assert lines[3].startswith("bits_per_symbol ")
    assert deserialize(out.read_bytes()).count(b"bb") == 2


def test_count_matches_library_output(files, capsys):
    text, idx = files
    rc = cli.main(["count", str(idx), "bb"])
    assert rc == 0
    assert capsys.readouterr().out == "2\n"


def test_locate_plain_and_tsv(files, capsys):
    _, idx = files
    assert cli.main(["locate", str(idx), "aba"]) == 0
    assert capsys.readouterr().out == "3\n6\n7\n"
    assert cli.main(["locate", str(idx), "aba", "--format", "tsv"]) == 0
    assert capsys.readouterr().out == "3\t6\t7\n"


def test_locate_without_hits(files, capsysbinary):
    # the pattern is longer than the text
    _, idx = files
    assert cli.main(["locate", str(idx), "a" * 10]) == 0
    assert capsysbinary.readouterr().out == b""
    assert cli.main(["locate", str(idx), "a" * 10, "--format", "tsv"]) == 0
    assert capsysbinary.readouterr().out == b"\n"


def test_locate_prints_every_hit_of_a_wide_interval(tmp_path, capsys):
    idx = build(b"a" * 600, delta=32)
    path = tmp_path / "a.idx"
    path.write_bytes(serialize(idx))
    want = idx.locate(b"aaaa")
    assert len(want) == 597 >= index_mod._WIDE_WALK
    assert cli.main(["locate", str(path), "aaaa"]) == 0
    assert capsys.readouterr().out == "".join("%d\n" % p for p in want)
    assert cli.main(["locate", str(path), "aaaa", "--format", "tsv"]) == 0
    assert capsys.readouterr().out == "\t".join(map(str, want)) + "\n"


def test_pattern_from_file_drops_one_trailing_newline(files, tmp_path,
                                                      capsys):
    _, idx = files
    pat = tmp_path / "p.bin"
    pat.write_bytes(b"bb\n")
    assert cli.main(["count", str(idx), "@" + str(pat)]) == 0
    assert capsys.readouterr().out == "2\n"


def test_encode_fixture(tmp_path, capsys):
    text = tmp_path / "w.txt"
    text.write_bytes(b"abbbabb")
    assert cli.main(["encode", str(text), "ssp"]) == 0
    assert capsys.readouterr().out == "inf\ninf\n2\n2\n5\n3\n2\n"
    assert cli.main(["encode", str(text), "lpal"]) == 0
    assert capsys.readouterr().out == "1\n1\n2\n3\n5\n3\n5\n"


def test_encode_empty_text(tmp_path, capsys):
    text = tmp_path / "e.txt"
    text.write_bytes(b"")
    assert cli.main(["encode", str(text), "ssp"]) == 0
    assert capsys.readouterr().out == ""


def test_encode_rejects_unknown_encoding(tmp_path, capsys):
    text = tmp_path / "w.txt"
    text.write_bytes(b"ab")
    assert cli.main(["encode", str(text), "nope"]) == 1


def test_stats_reports_key_value_lines(files, capsys):
    _, idx = files
    assert cli.main(["stats", str(idx)]) == 0
    out = capsys.readouterr().out
    assert "n 9\n" in out
    assert "bits_per_symbol " in out
    assert "section_bits.l_codes " in out


@pytest.mark.parametrize("fmt", ["plain", "tsv"])
def test_stats_prints_every_key_in_order(files, capsys, fmt):
    _, idx = files
    assert cli.main(["stats", str(idx), "--format", fmt]) == 0
    sep = "\t" if fmt == "tsv" else " "
    pairs = [line.split(sep) for line in
             capsys.readouterr().out.splitlines()]
    assert all(len(pair) == 2 for pair in pairs)
    assert [key for key, _ in pairs] == [
        "n", "rows", "delta", "K", "samples", "total_bits",
        "bits_per_symbol",
        "section_bits.checksum", "section_bits.f_codes",
        "section_bits.header", "section_bits.l_codes",
        "section_bits.sample_marks", "section_bits.sample_values",
        "derived_bits.B", "derived_bits.F", "derived_bits.L",
        "derived_bits.S", "derived_bits.lf_rmq", "derived_bits.lf_values",
    ]
    values = dict(pairs)
    assert (values["n"], values["rows"], values["delta"]) == ("9", "10", "2")
    assert values["total_bits"] == str(8 * len(idx.read_bytes()))
    assert values["bits_per_symbol"] == "%.2f" % (
        8 * len(idx.read_bytes()) / 9)


def test_verify_clean_pair(files, capsys):
    text, idx = files
    assert cli.main(["verify", str(idx), str(text)]) == 0
    assert "ok" in capsys.readouterr().out


def test_verify_empty_text(tmp_path, capsys):
    text = tmp_path / "e.txt"
    text.write_bytes(b"")
    idx = tmp_path / "e.idx"
    idx.write_bytes(serialize(build(b"", delta=1)))
    assert cli.main(["verify", str(idx), str(text)]) == 0
    assert capsys.readouterr().out == \
        "verify: ok (invariants + oracle spot check)\n"


def test_verify_reports_an_oracle_mismatch(files, capsys, monkeypatch):
    text, idx = files
    count = index_mod.PalFMIndex.count
    monkeypatch.setattr(index_mod.PalFMIndex, "count",
                        lambda self, p: count(self, p) + 1)
    assert cli.main(["verify", str(idx), str(text)]) == 3
    assert capsys.readouterr().out.startswith("verify: oracle-mismatch: ")


def test_verify_past_the_oracle_checks_invariants_only(files, capsys,
                                                       monkeypatch):
    text, idx = files
    monkeypatch.setattr(cli.oracle, "SIZE_LIMIT", len(T) - 1)
    assert cli.main(["verify", str(idx), str(text)]) == 0
    assert capsys.readouterr().out == "verify: ok (invariants)\n"


def test_verify_mismatched_text_exits_3(files, tmp_path, capsys):
    _, idx = files
    other = tmp_path / "other.txt"
    other.write_bytes(b"abbabbcbb")
    assert cli.main(["verify", str(idx), str(other)]) == 3
    assert "definitional-lf" in capsys.readouterr().out


def test_corrupt_index_exits_2(files, tmp_path, capsys):
    text, idx = files
    img = bytearray(idx.read_bytes())
    img[40] ^= 0xFF
    bad = tmp_path / "bad.idx"
    bad.write_bytes(bytes(img))
    assert cli.main(["count", str(bad), "bb"]) == 2
    assert cli.main(["verify", str(bad), str(text)]) == 2


def test_resealed_index_with_unequal_histograms_exits_2(files, tmp_path,
                                                        capsys):
    _, idx = files
    img = bytearray(idx.read_bytes())
    img[36 + 12] = 2  # first L code: INF -> 2, one more 2 than F holds
    img[-4:] = struct.pack("<I", zlib.crc32(bytes(img[:-4])) & 0xFFFFFFFF)
    bad = tmp_path / "bad.idx"
    bad.write_bytes(bytes(img))
    assert cli.main(["count", str(bad), "bb"]) == 2
    assert "histograms" in capsys.readouterr().err


def test_missing_files_exit_2(tmp_path, capsys):
    assert cli.main(["count", str(tmp_path / "no.idx"), "bb"]) == 2
    assert cli.main(["build", str(tmp_path / "no.txt"),
                     str(tmp_path / "o.idx")]) == 2


def test_empty_pattern_exits_1(files, capsys):
    _, idx = files
    for command in ("count", "locate"):
        assert cli.main([command, str(idx), ""]) == 1
        assert capsys.readouterr().err == "error: empty pattern\n"


def test_usage_errors_exit_1(capsys):
    for argv in ([], ["frobnicate"], ["count"]):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: palfm"), argv
        assert "palfm" in err and ": error: " in err, argv
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: palfm")


def test_bad_delta_exits_1(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_bytes(T)
    out = tmp_path / "o.idx"
    assert cli.main(["build", str(text), str(out), "--delta", "0"]) == 1


def test_oversized_delta_is_clamped(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_bytes(b"abba")
    out = tmp_path / "o.idx"
    assert cli.main(["build", str(text), str(out), "--delta", "99"]) == 0
    err = capsys.readouterr().err
    assert "clamped" in err
    assert deserialize(out.read_bytes()).delta == 4


def test_strip_newlines(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_bytes(b"abb\nabb\r\ncbc\n")
    out = tmp_path / "o.idx"
    assert cli.main(["build", str(text), str(out), "--delta", "2",
                     "--strip-newlines"]) == 0
    capsys.readouterr()
    assert cli.main(["count", str(out), "bb"]) == 0
    assert capsys.readouterr().out == "2\n"
    assert cli.main(["verify", str(out), str(text),
                     "--strip-newlines"]) == 0


def test_guard_refusal_names_the_flag(tmp_path, capsys, monkeypatch):
    from palfm import index as index_mod
    monkeypatch.setattr(index_mod, "BUILD_GUARD", 4)
    text = tmp_path / "t.txt"
    text.write_bytes(b"abcdef")
    out = tmp_path / "o.idx"
    assert cli.main(["build", str(text), str(out), "--delta", "2"]) == 1
    assert "--force-large" in capsys.readouterr().err
    assert cli.main(["build", str(text), str(out), "--delta", "2",
                     "--force-large"]) == 0


def test_failed_self_check_exits_3_without_an_index(tmp_path, capsys,
                                                    monkeypatch):
    from palfm import index as index_mod
    sort = index_mod._pal_suffix_sort

    def swapped(codes):
        sa, lcp = sort(codes)
        sa[[2, 3]] = sa[[3, 2]]
        return sa, lcp

    monkeypatch.setattr(index_mod, "_pal_suffix_sort", swapped)
    text = tmp_path / "t.txt"
    text.write_bytes(T)
    out = tmp_path / "o.idx"
    assert cli.main(["build", str(text), str(out), "--delta", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: construction self-check failed: ")
    assert not out.exists()


def test_failed_lf_walk_self_check_exits_3_without_an_index(tmp_path,
                                                           capsys,
                                                           monkeypatch):
    # pi codes 1 and 5 swapped: the certified order holds, but the codes
    # give an LF walk that returns to row 1 early
    codes, k_max, pi_codes = index_mod._encode(T)
    pi_codes[[1, 5]] = pi_codes[[5, 1]]
    monkeypatch.setattr(index_mod, "_encode",
                        lambda text: (codes, k_max, pi_codes))
    text = tmp_path / "t.txt"
    text.write_bytes(T)
    out = tmp_path / "o.idx"
    assert cli.main(["build", str(text), str(out), "--delta", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: construction self-check failed: LF walk")
    assert not out.exists()
