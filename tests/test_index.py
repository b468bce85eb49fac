"""Index construction, backward search, locate sampling, verification."""

import itertools
import random
import tracemalloc

import numpy as np
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
    assert list(fix.lf_values) == [2, 5, 6, 7, 8, 1, 9, 10, 3, 4]


def test_lf_accessor(fix):
    assert [fix.lf(i) for i in range(1, 11)] == list(fix.lf_values)
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
    assert list(idx.S) == marked == [9, 5, 1]
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


def test_wide_walk_is_bounded_by_delta():
    # the setup above, on a text whose 399 hits of "ab" take the numpy walk
    idx = build("ab" * 200, delta=2)
    idx.B = BitVec([1] + [0] * idx.n)
    idx.S = [idx.n + 1]
    assert idx.count("ab") >= index_mod._WIDE_WALK
    with pytest.raises(index_mod.IndexFormatError, match="delta"):
        idx.locate("ab")


def _walk_text(kind, n=3000):
    rng = random.Random(59)
    if kind == "a^n":
        return "a" * n
    if kind == "(ab)^n":
        return "ab" * (n // 2)
    if kind == "fibonacci":
        return _fibonacci(n)
    return "".join(rng.choice("abcd"[:int(kind[-1])]) for _ in range(n))


@pytest.mark.parametrize("delta", [1, 4, 32])
@pytest.mark.parametrize("kind", ["a^n", "(ab)^n", "fibonacci", "random-2",
                                  "random-4"])
def test_wide_walk_matches_the_row_walk(kind, delta):
    text = _walk_text(kind)
    idx = build(text, delta=delta)
    rows, wide = idx.n + 1, index_mod._WIDE_WALK
    for width in (wide - 1, wide, wide + 1):
        for b in (1, 2, rows // 3, rows - width + 1):
            e = b + width - 1
            assert idx._wide_walk(b, e) == sorted(idx._walk(range(b, e + 1)))
    # a one-symbol pattern matches every non-empty suffix
    b, e = idx._pattern_interval(text[:1])
    assert (b, e) == (2, rows)
    assert idx._wide_walk(b, e) == sorted(idx._walk(range(b, e + 1)))
    assert idx.locate(text[:1]) == list(range(1, rows))
    assert idx._wide_walk(1, rows) == list(range(1, rows + 1))


@pytest.mark.parametrize("delta", [1, 4, 32])
@pytest.mark.parametrize("kind", ["a^n", "(ab)^n", "fibonacci", "random-2",
                                  "random-4"])
def test_hop_table_leads_every_row_to_its_start(kind, delta):
    # followed by hand, the table gives the sorted starts, each within
    # delta - 1 steps of its sample; nothing else is read
    text = _walk_text(kind, 1000)
    idx = build(text, delta=delta)
    sa = index_mod._pal_suffix_sort(index_mod._encode(text)[0])[0].tolist()
    hop, rows = idx._hops(), idx.n + 1
    starts = []
    for j in range(rows):
        v, steps = hop[j], 0
        while v < rows:
            v, steps = hop[v], steps + 1
        assert steps < delta
        starts.append(v - rows + steps)
    assert starts == sa
    assert idx._walk(range(1, rows + 1)) == sa


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


def _replay(idx, p):
    """(interval, emptied before the last symbol) of the public search:
    one backward_step per symbol of p, right to left, over
    pattern_preprocess."""
    prof = palcore.pattern_preprocess(p)
    iv = PalInterval(1, idx.n + 1)
    for i in range(len(p), 0, -1):
        iv = idx.backward_step(iv, prof.pi_arr[i - 1], prof.g_arr[i - 1])
        if iv.is_empty:
            return iv, i > 1
    return iv, False


@pytest.mark.parametrize("kind", ["random-4", "a^500", "fibonacci"])
def test_count_and_locate_equal_the_public_replay(kind):
    text = {"random-4": _walk_text("random-4"), "a^500": "a" * 500,
            "fibonacci": _fibonacci(1000)}[kind]
    idx = build(text, delta=8)
    rng = random.Random(79)
    # the Zimin word (w becomes w x w for each new letter x) nests its
    # palindromes, so its prefixes reach group ids above K, which no
    # row's L holds
    zimin = ""
    for x in "abcdefg":
        zimin += x + zimin
    patterns = []
    for m in (1, 2, 8, 32, 100):
        for _ in range(3):
            s = rng.randrange(len(text) - m + 1)
            patterns.append(text[s:s + m])
        for sigma in ("ab", "abcd"):
            for _ in range(2):
                patterns.append("".join(rng.choice(sigma) for _ in range(m)))
        patterns.append(zimin[:m])
    above_k = early = 0
    for p in patterns:
        iv, emptied = _replay(idx, p)
        assert idx.count(p) == iv.width(), p
        assert idx.locate(p) == sorted(
            idx.sa_access(r) for r in range(iv.b, iv.e + 1)), p
        pis = palcore.pattern_preprocess(p).pi_arr
        above_k += any(v != INF and v > idx.K for v in pis)
        early += emptied
    assert above_k and early


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


def _swapped_sort(rows):
    sort = index_mod._pal_suffix_sort

    def swapped(codes):
        sa, lcp = sort(codes)
        i, j = rows[0] - 1, rows[1] - 1
        sa[i], sa[j] = sa[j], sa[i]
        return sa, lcp

    return swapped


@pytest.mark.parametrize("rows", list(itertools.combinations(range(1, 11),
                                                             2)))
def test_construction_self_check(monkeypatch, rows):
    # every swap of two of T's 10 rows; among them rows 2/3, 4/5, 4/6, 5/6
    # and 6/7 leave F and L codes whose LF walk still meets the swapped
    # starts, which only the sorted-order check sees
    monkeypatch.setattr(index_mod, "_pal_suffix_sort", _swapped_sort(rows))
    with pytest.raises(index_mod.SelfCheckError,
                       match="construction self-check failed"):
        build(T, delta=2)


def test_self_check_sees_swaps_past_its_exact_columns(monkeypatch):
    # adjacent rows of a^300 share up to 299 columns; the check takes its
    # claims from the sort, which finds most of them by fingerprints
    monkeypatch.setattr(index_mod, "_pal_suffix_sort",
                        _swapped_sort((200, 201)))
    with pytest.raises(index_mod.SelfCheckError, match="rows 200 and 201"):
        build("a" * 300, delta=2)


def test_self_check_names_a_refuted_claim_apart_from_disorder(monkeypatch):
    # the true order of a^300 with one claim one too long: the pair is in
    # order, so build and verify say the claim is refuted, not the order
    sort = index_mod._pal_suffix_sort

    def overclaimed(codes):
        sa, lcp = sort(codes)
        lcp[199] += 1
        return sa, lcp

    idx = build("a" * 300, delta=2)
    monkeypatch.setattr(index_mod, "_pal_suffix_sort", overclaimed)
    detail = "the common prefix claimed for rows 200 and 201 is refuted"
    with pytest.raises(index_mod.SelfCheckError) as err:
        build("a" * 300, delta=2)
    assert str(err.value) == "construction self-check failed: " + detail
    res = idx.verify("a" * 300)
    assert (res.violation, res.detail) == ("sorted-order", detail)


def _fibonacci(n):
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def _mirrored_bytes(rng, n, width):
    """Runs of width distinct bytes, each followed by its mirror image."""
    out = b""
    while len(out) < n:
        run = bytes(rng.sample(range(256), width))
        out += run + run[::-1]
    return out[:n]


def _small_text(rng, kind, n):
    if kind == 0:
        return "".join(rng.choice("abcd"[:rng.randint(1, 4)])
                       for _ in range(n))
    if kind == 1:
        return (("a" * rng.randint(1, 4) + "b") * n)[:n]
    if kind == 2:
        period = "".join(rng.choice("abc") for _ in range(rng.randint(1, 4)))
        return (period * n)[:n]
    if kind == 3:
        return _fibonacci(n + 3)[rng.randint(0, 3):][:n]
    return _mirrored_bytes(rng, n, rng.randint(1, 6))


def _fingerprint_order(codes, depth):
    """The order and adjacent common prefixes phase 2 of the sort reaches
    from the groups phase 1 leaves after depth columns; at depth 0 all
    rows are one group."""
    order, lcp, rows, groups, reached = index_mod._refine_by_columns(
        codes, lambda col, steps: col >= depth)
    if rows.size:
        index_mod._refine_by_fingerprints(codes, order, lcp, rows, groups,
                                          reached)
    return (order + 1).tolist(), lcp.tolist()


def test_pal_suffix_sort_matches_oracle_on_small_texts():
    # random texts, (a^k b)*, periodic words, Fibonacci windows and byte
    # texts of mirrored runs; phase 2 also runs alone and after 2 columns,
    # every variant finds the true adjacent common prefixes, and the
    # certificate accepts the order with them
    rng = random.Random(61)
    for i in range(2000):
        t = _small_text(rng, i % 5, rng.randint(0, 16))
        want = oracle.suffix_order_naive(t)
        want_lcp = _common_prefixes(t, want)
        codes = index_mod._encode(t)[0]
        sa, lcp = index_mod._pal_suffix_sort(codes)
        assert index_mod._first_refuted(codes, sa - 1, lcp) == (-1, False), t
        assert sa.tolist() == want, t
        assert lcp.tolist() == want_lcp, t
        assert _fingerprint_order(codes, 0) == (want, want_lcp), t
        assert _fingerprint_order(codes, 2) == (want, want_lcp), t


@pytest.mark.parametrize("text", [
    "a" * 150, "ab" * 90, _fibonacci(500),
    _mirrored_bytes(random.Random(67), 1200, 255),
    _mirrored_bytes(random.Random(71), 900, 7)],
    ids=["a^150", "(ab)^90", "fibonacci-500", "mirrored-255x1200",
         "mirrored-7x900"])
def test_pal_suffix_sort_on_mid_size_repetitive_texts(text):
    want = oracle.suffix_order_naive(text)
    want_lcp = _common_prefixes(text, want)
    codes = index_mod._encode(text)[0]
    sa, lcp = index_mod._pal_suffix_sort(codes)
    assert sa.tolist() == want
    assert lcp.tolist() == want_lcp
    assert _fingerprint_order(codes, 0) == (want, want_lcp)
    assert _fingerprint_order(codes, 9) == (want, want_lcp)


def _common_prefixes(t, order):
    """Common encoding prefixes of the suffixes at adjacent starts of
    order, from ssp_naive encodings ended by DOLLAR."""
    enc = [oracle.ssp_naive(t[s - 1:]) + [DOLLAR] for s in order]
    return [sum(1 for _ in itertools.takewhile(lambda c: c[0] == c[1],
                                               zip(x, y)))
            for x, y in zip(enc, enc[1:])]


def test_certificate_refutes_every_swap_and_lcp_edit():
    # T (all 45 swaps), the empty and one-symbol texts, and small texts of
    # all five kinds: every +-1 edit of one true common prefix and every
    # swap of two rows fails, the swap both with the true order's claims
    # and with its own true common prefixes, and the true pair passes
    rng = random.Random(73)
    texts = [T, "", "a"] + [_small_text(rng, i % 5, rng.randint(2, 10))
                            for i in range(250)]
    for t in texts:
        sa = np.array(oracle.suffix_order_naive(t))
        codes = index_mod._encode(t)[0]
        lcp = np.array(_common_prefixes(t, sa), dtype=np.int64)
        assert index_mod._first_refuted(codes, sa - 1, lcp) == (-1, False), t
        for r, d in itertools.product(range(lcp.size), (-1, 1)):
            edited = lcp.copy()
            edited[r] += d
            assert index_mod._first_refuted(codes, sa - 1, edited)[0] >= 0, \
                (t, r, d)
        for i, j in itertools.combinations(range(sa.size), 2):
            swapped = sa.copy()
            swapped[[i, j]] = sa[[j, i]]
            assert index_mod._first_refuted(codes, swapped - 1, lcp)[0] >= 0, \
                (t, i, j)
            own = np.array(_common_prefixes(t, swapped), dtype=np.int64)
            assert index_mod._first_refuted(codes, swapped - 1, own)[0] >= 0, \
                (t, i, j)


def test_certificate_names_a_pair_out_of_order_before_a_wild_claim():
    # a claim past the shorter suffix is refuted, not read as a pair out
    # of order; a claim one short shows its pair equal, so not increasing
    codes = index_mod._encode(T)[0]
    sa, lcp = index_mod._pal_suffix_sort(codes)
    lcp[2] = len(T) + 1
    lcp[5] -= 1
    assert index_mod._first_refuted(codes, sa - 1, lcp) == (5, True)


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


def test_build_and_verify_run_one_manacher_pass(monkeypatch):
    # ssp for the sort and pi for the F and L codes share one pass
    calls = []
    manacher = palcore.maximal_palindromes

    def counted(w):
        calls.append(len(w))
        return manacher(w)

    monkeypatch.setattr(palcore, "maximal_palindromes", counted)
    text = _fibonacci(300)
    idx = build(text, delta=4)
    assert calls == [300]
    calls.clear()
    assert idx.verify(text).ok
    assert calls == [300]


def test_text_encoder_peaks_below_the_pattern_profile(monkeypatch):
    # the numpy encoder holds int32 arrays where _profile holds lists of
    # 8-byte pointers; compared in one process, so on any numpy version.
    # Both run the same Manacher pass, which is slow under tracemalloc:
    # it is replaced by a copy of its result, allocated as the pass does.
    rng = random.Random(79)
    text = bytes(rng.choice(b"acgt") for _ in range(40_000))
    lens = {w: palcore.maximal_palindromes(w) for w in (text, text[::-1])}
    monkeypatch.setattr(palcore, "maximal_palindromes",
                        lambda w: list(lens[w]))

    def peak(encode):
        tracemalloc.start()
        try:
            encode()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: index_mod._encode(text)) \
        <= peak(lambda: palcore._profile(text[::-1]))


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


def test_verify_names_unsorted_rows(monkeypatch):
    # rows 2 and 3 of T swapped keep an LF walk that meets the swapped
    # starts, so only the sorted-order check can tell
    swapped = _swapped_sort((2, 3))
    monkeypatch.setattr(index_mod, "_pal_suffix_sort", swapped)
    ssp_codes, k, codes = index_mod._encode(T)
    sa, _ = swapped(ssp_codes)
    bad, starts = index_mod._assemble(len(T), 2, k, codes[sa], codes[sa - 1])
    assert starts.tolist() == sa.tolist()
    res = bad.verify(T)
    assert not res.ok
    assert res.violation == "sorted-order"


def test_verify_names_swaps_past_the_exact_columns(monkeypatch):
    # verify certifies its own re-sort of a^300 before comparing rows
    idx = build("a" * 300, delta=2)
    monkeypatch.setattr(index_mod, "_pal_suffix_sort",
                        _swapped_sort((200, 201)))
    res = idx.verify("a" * 300)
    assert (res.violation, res.detail) == (
        "sorted-order", "rows 200 and 201 are not strictly increasing")


def test_verify_names_bad_samples(fix):
    bad = _copy(fix)
    bad.S = [v + 1 for v in bad.S]
    res = bad.verify(T)
    assert not res.ok
    assert res.violation == "sampling"


def test_stats_reports_sizes():
    idx = build(T, delta=2)
    st = idx.stats()
    assert st["n"] == 9
    assert st["rows"] == 10
    assert st["delta"] == 2
    assert st["K"] == 2
    assert st["samples"] == 5
    assert st["total_bits"] == sum(st["section_bits"].values())
    assert st["total_bits"] == len(serialize(idx)) * 8
    assert st["bits_per_symbol"] == pytest.approx(st["total_bits"] / 9)
    assert all(v > 0 for v in st["derived_bits"].values())
    # F's rank directories exist only once a query builds them
    idx.F.rank(3, 1)
    grown = idx.stats()["derived_bits"]
    assert grown["F"] > st["derived_bits"]["F"]
    assert {k: v for k, v in grown.items() if k != "F"} \
        == {k: v for k, v in st["derived_bits"].items() if k != "F"}


def test_bytes_and_str_agree():
    a = build("abbabb", delta=2)
    b = build(b"abbabb", delta=2)
    assert a.count("bb") == b.count(b"bb")
    assert a.locate("ab") == b.locate(b"ab")
