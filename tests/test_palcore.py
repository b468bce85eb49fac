"""Encoding primitives against frozen values and the brute-force oracle."""

import itertools
import random
import tracemalloc

import pytest

from palfm import oracle, palcore
from palfm.palcore import INF


def _fibonacci_word(n):
    fib, prev = "a", "b"
    while len(fib) < n:
        fib, prev = fib + prev, fib
    return fib[:n]


# a^m, (ab)^m and Fibonacci windows up to m = 200: palindromes that span
# most of the string, which the sweep frontiers must run across
_LONG_PALINDROMES = [w for m in (1, 2, 3, 8, 13, 60, 200)
                     for w in ("a" * m, "ab" * m,
                               _fibonacci_word(400)[m:2 * m],
                               _fibonacci_word(600)[200:200 + m])]


def test_maximal_palindromes_center_layout():
    # centers 2..2n, character centers at even entries, gaps between
    assert palcore.maximal_palindromes("aba") == [1, 0, 3, 0, 1]
    assert palcore.maximal_palindromes("aa") == [1, 2, 1]
    assert palcore.maximal_palindromes("") == []
    assert palcore.maximal_palindromes("x") == [1]


def test_maximal_palindromes_match_center_expansion():
    rng = random.Random(11)
    words = ["".join(rng.choice("abc") for _ in range(rng.randint(1, 40)))
             for _ in range(200)]
    # mirror reads across long palindromes, where the pass could read a
    # center it has not written yet
    words += _LONG_PALINDROMES
    words += ["".join(bits) for n in range(1, 13)
              for bits in itertools.product("ab", repeat=n)]
    for w in words:
        n = len(w)
        got = palcore.maximal_palindromes(w)
        for t in range(2, 2 * n + 1):
            if t % 2 == 0:
                i = j = t // 2
            else:
                i, j = (t + 1) // 2, t // 2
            while i > 1 and j < n and w[i - 2] == w[j]:
                i -= 1
                j += 1
            assert got[t - 2] == j - i + 1, (w, t)


def test_maximal_palindromes_hold_only_their_result():
    # the pass writes into its result and holds no other per-center list
    for w in ("a" * 5000, _fibonacci_word(5000)):
        tracemalloc.start()
        try:
            res = palcore.maximal_palindromes(w)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res) == 2 * len(w) - 1
        assert peak <= 1.25 * held, (w[:8], peak, held)


def test_longest_suffix_palindrome_fixtures():
    assert palcore.lpal("abbbabb") == [1, 1, 2, 3, 5, 3, 5]
    assert palcore.lpal("babbbabb") == [1, 1, 3, 2, 3, 5, 7, 5]


def test_second_longest_counts_the_empty_suffix():
    assert palcore.lpal_second("abbbabb") == [0, 0, 1, 2, 1, 1, 2]
    assert palcore.lpal_second("aaa") == [0, 1, 2]


def test_longest_pair_against_brute_force():
    rng = random.Random(5)
    words = ["".join(rng.choice("ab") for _ in range(rng.randint(1, 30)))
             for _ in range(300)]
    for w in words + _LONG_PALINDROMES:
        n = len(w)
        lp = palcore.lpal(w)
        lp2 = palcore.lpal_second(w)
        for i in range(1, n + 1):
            pals = [l for l in range(i, -1, -1)
                    if oracle.is_palindrome(w[i - l:i])]
            assert lp[i - 1] == pals[0]
            assert lp2[i - 1] == pals[1]


def test_shortest_nontrivial_suffix_palindrome_fixtures():
    assert palcore.ssp("abbbabb") == [INF, INF, 2, 2, 5, 3, 2]
    assert palcore.ssp("babbbabb") == [INF, INF, 3, 2, 2, 5, 3, 2]
    assert palcore.ssp("abbabbcbc") == [INF, INF, 2, 4, 3, 2, INF, 3, 3]
    assert palcore.ssp("") == []


def test_ssp_matches_oracle_on_random_strings():
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(0, 60)
        sigma = rng.choice("234")
        w = "".join(rng.choice("abcd"[:int(sigma)]) for _ in range(n))
        assert palcore.ssp(w) == oracle.ssp_naive(w)
    for w in _LONG_PALINDROMES:
        assert palcore.ssp(w) == oracle.ssp_naive(w), w


def test_ssp_exhaustive_binary():
    for n in range(0, 11):
        for bits in range(2 ** n):
            w = "".join("ab"[(bits >> k) & 1] for k in range(n))
            assert palcore.ssp(w) == oracle.ssp_naive(w)


def test_prefix_dual_fixtures():
    assert palcore.spp("bbabbbab") == [2, 3, 5, 2, 2, 3, INF, INF]
    assert palcore.spp("aab") == [2, INF, INF]


def test_prefix_dual_is_shortest_prefix_palindrome_of_each_suffix():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 40)
        w = "".join(rng.choice("abc") for _ in range(n))
        sp = palcore.spp(w)
        for i in range(1, n + 1):
            lens = [l for l in range(2, n - i + 2)
                    if oracle.is_palindrome(w[i - 1:i - 1 + l])]
            assert sp[i - 1] == (min(lens) if lens else INF)


def test_group_count_fixtures():
    assert palcore.group_counts("babbbabb") == [1, 2, 2, 2, 2, 2, 2, 2]
    assert palcore.group_counts("ba") == [1, 2]


def _random_abc(rng):
    return "".join(rng.choice("abc") for _ in range(rng.randint(1, 50)))


# a^m, (ab)^m and Fibonacci windows: long runs of nested palindromes,
# where the group representatives pile up at few end positions
_REPETITIVE = [w for m in (1, 2, 3, 5, 8, 13, 30, 60)
               for w in ("a" * m, ("ab" * m)[:m],
                         _fibonacci_word(200)[m:2 * m],
                         _fibonacci_word(200)[3 * m:3 * m + 60])]


def test_group_counts_match_oracle():
    rng = random.Random(17)
    for w in [_random_abc(rng) for _ in range(300)] + _REPETITIVE:
        got = palcore.group_counts(w)
        per_prefix = oracle.groups_naive(w)
        assert got == [len(groups) for groups, _ in per_prefix]


def test_group_identifier_fixtures():
    # position 8 of the longer string is 1: the shortest suffix palindrome
    # "bb" extends the group holding "b", which sorts first
    assert palcore.sspg("babbbabb") == [INF, INF, 2, 1, 1, 2, 2, 1]
    assert palcore.sspg("aa") == [INF, 1]


def test_group_identifiers_match_oracle():
    rng = random.Random(19)
    for w in [_random_abc(rng) for _ in range(300)] + _REPETITIVE:
        assert palcore.sspg(w) == oracle.sspg_naive(w), w


def test_prepending_changes_at_most_one_position():
    """ssp of cw differs from ssp of w at no more than one index, and any
    change turns INF into the full new prefix length."""
    rng = random.Random(23)
    for _ in range(1000):
        n = rng.randint(0, 60)
        sigma = int(rng.choice("234"))
        w = "".join(rng.choice("abcd"[:sigma]) for _ in range(n))
        c = rng.choice("abcd"[:sigma])
        a = palcore.ssp(w)
        b = palcore.ssp(c + w)
        changed = [j for j in range(2, n + 2) if b[j - 1] != a[j - 2]]
        assert len(changed) <= 1, (c, w)
        for j in changed:
            assert a[j - 2] == INF and b[j - 1] == j, (c, w)


def test_encoding_equality_is_pal_match():
    rng = random.Random(29)
    for _ in range(500):
        n = rng.randint(1, 25)
        x = "".join(rng.choice("ab") for _ in range(n))
        y = "".join(rng.choice("ab") for _ in range(n))
        assert (palcore.ssp(x) == palcore.ssp(y)) == oracle.pal_match(x, y)


def test_pi_fixtures():
    assert palcore.pi("abbabbcbc") == 2
    assert palcore.pi("bbabbcbc") == 1
    assert palcore.pi("ab") == INF
    with pytest.raises(ValueError):
        palcore.pi("")


def test_pattern_preprocess_fixtures():
    prof = palcore.pattern_preprocess("bb")
    assert prof.pi_arr == (1, INF)
    assert prof.g_arr == (1, 0)
    prof = palcore.pattern_preprocess("bab")
    assert prof.pi_arr == (2, INF, INF)
    assert prof.g_arr == (2, 1, 0)
    prof = palcore.pattern_preprocess("a")
    assert prof.pi_arr == (INF,)
    assert prof.g_arr == (0,)
    with pytest.raises(ValueError, match="empty pattern"):
        palcore.pattern_preprocess("")


def test_search_profile_is_the_pattern_profile_in_search_order():
    for m in range(1, 11):
        for bits in itertools.product("ab", repeat=m):
            p = "".join(bits)
            pis, gs = palcore._search_profile(p)
            prof = palcore.pattern_preprocess(p)
            assert (tuple(pis[::-1]), tuple(gs[::-1])) \
                == (prof.pi_arr, prof.g_arr)
            # the numpy encoder of the reversed pattern, independently
            r = p[::-1]
            assert pis == palcore.sspg(r)
            assert gs == [0] + palcore.group_counts(r)[:-1]


def test_pattern_preprocess_agrees_with_per_suffix_values():
    rng = random.Random(31)
    fib = "a"
    prev = "b"
    while len(fib) < 300:
        fib, prev = fib + prev, fib
    patterns = []
    for _ in range(200):
        m = rng.randint(1, 20)
        patterns.append("".join(rng.choice("abc") for _ in range(m)))
    for _ in range(25):
        m = rng.randint(21, 120)
        sigma = rng.choice("234")
        patterns.append("".join(rng.choice("abcd"[:int(sigma)])
                                for _ in range(m)))
    for m in (1, 2, 3, 7, 60, 120):
        patterns += ["a" * m, ("ab" * m)[:m], fib[m:2 * m]]
    for _ in range(20):
        s = rng.randrange(len(fib) - 120)
        patterns.append(fib[s:s + rng.randint(1, 120)])
    patterns += [p.encode() for p in patterns[::10]]
    for p in patterns:
        m = len(p)
        prof = palcore.pattern_preprocess(p)
        # prefix k of the reversed pattern is the reversed suffix p[m-k..]
        groups_rev = oracle.groups_naive(p[::-1])
        for i in range(1, m + 1):
            assert prof.pi_arr[i - 1] == palcore.pi(p[i - 1:]), (p, i)
            if i == m:
                assert prof.g_arr[i - 1] == 0
            else:
                groups, _ = groups_rev[m - i - 1]
                assert prof.g_arr[i - 1] == len(groups), (p, i)


def test_encodings_accept_bytes():
    assert palcore.ssp(b"abbbabb") == palcore.ssp("abbbabb")
    assert palcore.sspg(b"babbbabb") == palcore.sspg("babbbabb")
    assert palcore.group_counts(b"ba") == palcore.group_counts("ba")
    assert palcore.pi(b"ab") == palcore.pi("ab")


def _mirrored_runs(rng, n):
    """Runs of 255 distinct bytes, each followed by its mirror image."""
    out = b""
    while len(out) < n:
        run = bytes(rng.sample(range(256), 255))
        out += run + run[::-1]
    return out[:n]


def _encoding_lists(w):
    """palcore._encoding(w) in the form of _profile's first three lists:
    lists, INF for every code above n; checks the two ssp arrays' end
    code on the way."""
    n = len(w)
    s, sp, groups = palcore._encoding(w)
    assert s[n] == sp[n] == 0
    return (palcore._with_inf(s[:n], n), palcore._with_inf(sp[:n], n),
            palcore._with_inf(groups, n))


def _check_encoding_against_oracle(w):
    # the numpy path against _profile and the oracle; the group counts,
    # which only _profile computes, against the oracle
    got = _encoding_lists(w)
    profile = palcore._profile(w)
    assert got == profile[:3], w
    s, sp, groups = got
    assert s == oracle.ssp_naive(w), w
    assert sp == oracle.ssp_naive(w[::-1]), w
    assert groups == oracle.sspg_naive(w), w
    assert profile[3] == [len(g) for g, _ in oracle.groups_naive(w)], w


def test_numpy_encoding_exhaustive_binary():
    for n in range(0, 13):
        for bits in range(2 ** n):
            w = "".join("ab"[(bits >> k) & 1] for k in range(n))
            _check_encoding_against_oracle(w)


def test_numpy_encoding_on_random_strings():
    rng = random.Random(37)
    for _ in range(400):
        n = rng.randint(0, 80)
        letters = "abcd"[:rng.randint(1, 4)]
        _check_encoding_against_oracle(
            "".join(rng.choice(letters) for _ in range(n)))
    for _ in range(100):
        n = rng.randint(0, 300)
        _check_encoding_against_oracle(
            bytes(rng.randrange(256) for _ in range(n)))


@pytest.mark.parametrize("text", [
    "a" * 40_000, "ab" * 20_000, _fibonacci_word(40_000),
    _mirrored_runs(random.Random(41), 40_000)],
    ids=["a^40000", "(ab)^20000", "fibonacci-40000", "mirrored-255x40000"])
def test_numpy_encoding_matches_profile_on_long_texts(text):
    # the longest chains of the ssp recurrence and the widest frontiers
    assert _encoding_lists(text) == palcore._profile(text)[:3]
