"""Self-checks for the brute-force reference implementations."""

import pytest

from palfm import oracle
from palfm.palcore import INF


def test_is_palindrome():
    assert oracle.is_palindrome("")
    assert oracle.is_palindrome("a")
    assert oracle.is_palindrome("abba")
    assert not oracle.is_palindrome("ab")


def test_pal_windows():
    assert oracle.pal_windows("aba") == {(1, 3)}
    assert oracle.pal_windows("aaa") == {(1, 2), (2, 3), (1, 3)}
    assert oracle.pal_windows("ab") == set()


def test_pal_match_basics():
    assert oracle.pal_match("aba", "cdc")
    assert not oracle.pal_match("aba", "abc")
    assert oracle.pal_match("", "")
    with pytest.raises(ValueError):
        oracle.pal_match("a", "ab")


def test_ssp_naive_fixture():
    assert oracle.ssp_naive("abbbabb") == [INF, INF, 2, 2, 5, 3, 2]


def test_groups_naive_shape():
    per_prefix = oracle.groups_naive("babbbabb")
    groups, boundary = per_prefix[7]
    assert len(groups) == 2
    assert boundary is None
    groups, boundary = oracle.groups_naive("aa")[1]
    assert len(groups) == 1
    assert boundary == 2


def test_sspg_naive_fixture():
    assert oracle.sspg_naive("babbbabb") == [INF, INF, 2, 1, 1, 2, 2, 1]


def test_naive_search_fixture():
    assert oracle.naive_search("abbabbcbc", "bb") == [2, 5]
    assert oracle.naive_search("abbabbcbc", "aba") == [3, 6, 7]
    assert oracle.naive_search("abbabbcbc", "z") == list(range(1, 10))
    assert oracle.naive_search("ab", "abc") == []
    with pytest.raises(ValueError):
        oracle.naive_search("ab", "")


def test_naive_search_positions_are_pal_matches():
    t, p = "abbaabba", "cd"
    for s in oracle.naive_search(t, p):
        assert oracle.pal_match(t[s - 1:s - 1 + len(p)], p)


def test_suffix_order_naive_fixture():
    assert oracle.suffix_order_naive("abbabbcbc") == [10, 9, 2, 5, 8, 1, 4,
                                                      7, 3, 6]
    assert oracle.suffix_order_naive("aaa") == [4, 3, 2, 1]
    assert oracle.suffix_order_naive("") == [1]


def test_size_guard():
    with pytest.raises(ValueError):
        oracle.ssp_naive("a" * (oracle.SIZE_LIMIT + 1))
    with pytest.raises(ValueError):
        oracle.suffix_order_naive("a" * (oracle.SIZE_LIMIT + 1))
