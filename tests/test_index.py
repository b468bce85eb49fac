"""Index construction, backward search, locate sampling, verification."""

import random

import pytest

from palfm import index as index_mod
from palfm import oracle, palcore
from palfm.index import DOLLAR, PalInterval, build, deserialize, serialize
from palfm.palcore import INF
from palfm.succinct import BitVec, CodeSeq

T = "abbabbcbc"


@pytest.fixture(scope="module")
def fix():
    return build(T, delta=2)


def _sa(idx):
    return [idx.sa_access(i) for i in range(1, idx.n + 2)]


def test_fixture_rows(fix):
    inf = fix.K + 1
    assert fix.K == 2
    assert _sa(fix) == [10, 9, 2, 5, 8, 1, 4, 7, 3, 6]
    assert fix.F.codes() == [DOLLAR, inf, 1, 1, inf, 2, inf, 2, 2, 2]
    assert fix.L.codes() == [inf, inf, 2, inf, 2, DOLLAR, 2, 2, 1, 1]
    assert fix.lf_values == [2, 5, 6, 7, 8, 1, 9, 10, 3, 4]


def test_lf_accessor(fix):
    assert [fix.lf(i) for i in range(1, 11)] == fix.lf_values
    with pytest.raises(ValueError):
        fix.lf(0)
    with pytest.raises(ValueError):
        fix.lf(11)


def test_backward_step_walkthrough(fix):
    # processing "b", then extending to "bb" and to "ab"
    whole = PalInterval(1, 10)
    after_b = fix.backward_step(whole, INF, 0)
    assert (after_b.b, after_b.e) == (2, 10)
    after_bb = fix.backward_step(after_b, 1, 0)
    assert (after_bb.b, after_bb.e) == (3, 4)
    after_ab = fix.backward_step(after_b, INF, 1)
    assert (after_ab.b, after_ab.e) == (5, 10)


def test_backward_step_rejects_bad_arguments(fix):
    with pytest.raises(ValueError):
        fix.backward_step(PalInterval(3, 2), 1, 0)
    with pytest.raises(ValueError):
        fix.backward_step(PalInterval(1, 10), DOLLAR, 0)
    with pytest.raises(ValueError):
        fix.backward_step(PalInterval(1, 10), INF, -1)


def test_count_and_locate_fixtures(fix):
    assert fix.count("bb") == 2
    assert fix.locate("bb") == [2, 5]
    assert fix.locate("aba") == [3, 6, 7]
    assert fix.count("z") == 9
    assert fix.count("ab") == 6
    assert fix.count("abbabbcbcz") == 0
    with pytest.raises(ValueError):
        fix.count("")


def test_against_oracle_on_fixture_text(fix):
    for p in ["a", "ba", "abb", "abba", "cbc", "ccc", "xyx", T]:
        want = oracle.naive_search(T, p)
        assert fix.count(p) == len(want)
        assert fix.locate(p) == want


def test_pattern_group_count_can_exceed_text_alphabet():
    # pi and group values of the pattern live in the pattern's own group
    # numbering; ids the text never reaches must fall out as zero matches
    idx = build("ab", delta=1)
    assert idx.K == 0
    assert idx.count("aa") == 0
    assert idx.count("ab") == 1
    for p in ["aaa", "aba", "ba", "b"]:
        assert idx.count(p) == len(oracle.naive_search("ab", p))


def test_sampling_walk():
    idx = build(T, delta=4)
    marked = [s for s in _sa(idx) if (s - 1) % 4 == 0]
    assert idx.S == marked == [9, 5, 1]
    assert idx.sa_access(3) == 2
    assert _sa(idx) == [10, 9, 2, 5, 8, 1, 4, 7, 3, 6]
    with pytest.raises(ValueError):
        idx.sa_access(0)
    with pytest.raises(ValueError):
        idx.sa_access(11)


def test_sampling_walk_is_bounded_by_delta():
    # only the empty suffix's row marked: from the row of start s the walk
    # needs s steps, more than delta = 2 for most hits of "ab"
    idx = build(T, delta=2)
    idx.B = BitVec([1] + [0] * idx.n)
    idx.S = [idx.n + 1]
    assert idx.sa_access(1) == idx.n + 1
    with pytest.raises(index_mod.IndexFormatError, match="delta"):
        idx.locate("ab")
    with pytest.raises(index_mod.IndexFormatError, match="delta"):
        idx.sa_access(2)  # start 9


def test_locate_independent_of_sampling_rate():
    rng = random.Random(47)
    t = "".join(rng.choice("ab") for _ in range(80))
    results = []
    for delta in (1, 4, 16):
        idx = build(t, delta=delta)
        results.append([idx.locate(p) for p in ("aa", "ab", "aabaa")])
    assert results[0] == results[1] == results[2]


def test_interval_tracks_encoding_prefix_rows():
    """After each backward step the interval holds exactly the rows whose
    suffix encoding extends the processed pattern suffix's encoding."""
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(2, 30)
        t = "".join(rng.choice("ab") for _ in range(n))
        idx = build(t, delta=1)
        sa = _sa(idx)
        m = rng.randint(1, 6)
        p = "".join(rng.choice("ab") for _ in range(m))
        prof = palcore.pattern_preprocess(p)
        iv = PalInterval(1, idx.n + 1)
        for i in range(m, 0, -1):
            iv = idx.backward_step(iv, prof.pi_arr[i - 1],
                                   prof.g_arr[i - 1])
            tail = p[i - 1:]
            enc = palcore.ssp(tail)
            want = [r for r, s in enumerate(sa, 1)
                    if n - s + 1 >= len(tail)
                    and palcore.ssp(t[s - 1:])[:len(tail)] == enc]
            got = [] if iv.is_empty else list(range(iv.b, iv.e + 1))
            assert got == want, (t, p, i)
            if iv.is_empty:
                break


def test_degenerate_texts():
    idx = build("aaa", delta=1)
    assert _sa(idx) == [4, 3, 2, 1]
    empty = build("", delta=1)
    assert empty.n == 0
    assert empty.F.codes() == [DOLLAR]
    assert empty.L.codes() == [DOLLAR]
    assert empty.sa_access(1) == 1
    one = build("x", delta=1)
    assert _sa(one) == [2, 1]
    assert one.count("q") == 1


def test_delta_validation():
    with pytest.raises(ValueError):
        build("abc", delta=0)
    with pytest.raises(ValueError):
        build("abc", delta=4)
    with pytest.raises(ValueError):
        build("", delta=2)


def test_construction_guard(monkeypatch):
    monkeypatch.setattr(index_mod, "BUILD_GUARD", 5)
    with pytest.raises(ValueError, match="force"):
        build("abcdef", delta=2)
    assert build("abcdef", delta=2, force=True).n == 6


def test_interval_helpers():
    assert PalInterval(3, 2).is_empty
    assert PalInterval(3, 2).width() == 0
    assert not PalInterval(2, 5).is_empty
    assert PalInterval(2, 5).width() == 4


def test_random_texts_against_oracle():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(1, 60)
        sigma = int(rng.choice("234"))
        t = "".join(rng.choice("abcd"[:sigma]) for _ in range(n))
        idx = build(t, delta=min(4, n))
        for _ in range(6):
            m = rng.randint(1, min(12, n + 2))
            if rng.random() < 0.5 and m <= n:
                s = rng.randint(0, n - m)
                p = t[s:s + m]
            else:
                p = "".join(rng.choice("abcd"[:sigma]) for _ in range(m))
            want = oracle.naive_search(t, p)
            assert idx.count(p) == len(want), (t, p)
            assert idx.locate(p) == want, (t, p)


def test_verify_accepts_clean_index(fix):
    res = fix.verify(T)
    assert res.ok
    assert res.violation == ""


def _copy(idx):
    return deserialize(serialize(idx))


def test_verify_names_crossed_lf(fix):
    bad = _copy(fix)
    bad.lf_values[2], bad.lf_values[6] = bad.lf_values[6], bad.lf_values[2]
    res = bad.verify(T)
    assert not res.ok
    assert res.violation == "lf-noncrossing"


def test_verify_names_histogram_mismatch(fix):
    bad = _copy(fix)
    codes = bad.L.codes()
    codes[0] = 2
    bad.L = CodeSeq(codes, bad.L.max_code)
    res = bad.verify(T)
    assert not res.ok
    assert res.violation == "histogram"


def test_verify_names_displaced_dollar(fix):
    bad = _copy(fix)
    codes = bad.F.codes()
    codes[0], codes[1] = codes[1], codes[0]
    bad.F = CodeSeq(codes, bad.F.max_code)
    res = bad.verify(T)
    assert not res.ok
    assert res.violation == "dollar-placement"


def test_verify_names_wrong_text(fix):
    res = fix.verify("abbabbcbb")
    assert not res.ok
    assert res.violation == "definitional-lf"
    res = fix.verify(T + "x")
    assert not res.ok
    assert res.violation == "definitional-lf"


def test_verify_names_relabeled_rows(fix):
    # same histograms, same LF, but F/L contents drift from the text
    bad = _copy(fix)
    f = bad.F.codes()
    l = bad.L.codes()
    f[1], l[0] = 2, 2
    bad.F = CodeSeq(f, bad.F.max_code)
    bad.L = CodeSeq(l, bad.L.max_code)
    res = bad.verify(T)
    assert not res.ok
    assert res.violation == "fl-content"


def test_verify_names_bad_samples(fix):
    bad = _copy(fix)
    bad.S = [v + 1 for v in bad.S]
    res = bad.verify(T)
    assert not res.ok
    assert res.violation == "sampling"


def test_stats_reports_sizes(fix):
    st = fix.stats()
    assert st["n"] == 9
    assert st["rows"] == 10
    assert st["delta"] == 2
    assert st["K"] == 2
    assert st["samples"] == 5
    assert st["total_bits"] == sum(st["section_bits"].values())
    assert st["bits_per_symbol"] == pytest.approx(st["total_bits"] / 9)
    assert all(v > 0 for v in st["derived_bits"].values())


def test_bytes_and_str_agree():
    a = build("abbabb", delta=2)
    b = build(b"abbabb", delta=2)
    assert a.count("bb") == b.count(b"bb")
    assert a.locate("ab") == b.locate(b"ab")
