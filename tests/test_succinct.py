"""rank/select/rangeCount/RMQ structures against linear scans."""

import random

import pytest

from palfm.succinct import BitVec, CodeSeq, QueryRangeError, RmqIndex


def test_bitvec_rank_select_inverse():
    rng = random.Random(3)
    for _ in range(100):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 80))]
        bv = BitVec(bits)
        for b in (0, 1):
            total = bits.count(b)
            assert bv.rank(len(bits), b) == total
            for r in range(1, total + 1):
                p = bv.select(r, b)
                assert bits[p - 1] == b
                assert bv.rank(p, b) == r
        for i in range(len(bits) + 1):
            assert bv.rank(i, 1) == sum(bits[:i])


def test_bitvec_errors():
    bv = BitVec([1, 0, 1])
    with pytest.raises(QueryRangeError):
        bv.rank(-1, 1)
    with pytest.raises(QueryRangeError):
        bv.rank(4, 0)
    with pytest.raises(QueryRangeError):
        bv.select(0, 1)
    with pytest.raises(QueryRangeError):
        bv.select(3, 1)
    with pytest.raises(QueryRangeError):
        bv.bit_at(0)


def test_codeseq_rank_matches_counting():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(0, 60)
        k = rng.randint(0, 6)
        codes = [rng.randint(0, k) for _ in range(n)]
        cs = CodeSeq(codes, k)
        for c in range(-1, k + 3):
            for i in range(0, n + 1, max(1, n // 7)):
                assert cs.rank(i, c) == codes[:i].count(c)
                for b in (1, i // 2 + 1, i + 1):
                    assert cs.rank_pair(b, i, c) == (codes[:b - 1].count(c),
                                                     codes[:i].count(c))
    cs = CodeSeq([1, 0, 2], 2)
    for b, e in ((0, 2), (3, 1), (1, 4)):
        with pytest.raises(QueryRangeError):
            cs.rank_pair(b, e, 1)


def test_codeseq_select_inverse():
    codes = [0, 3, 1, 1, 3, 2, 3, 2, 2, 2]
    cs = CodeSeq(codes, 3)
    for c in range(4):
        for r in range(1, codes.count(c) + 1):
            p = cs.select(r, c)
            assert codes[p - 1] == c
            assert cs.rank(p, c) == r
            for r2 in range(r, codes.count(c) + 1):
                assert cs.select_pair(r, r2, c) == (p, cs.select(r2, c))
    for r1, r2, c in ((0, 1, 2), (2, 1, 2), (1, 5, 2), (1, 1, 9)):
        with pytest.raises(QueryRangeError):
            cs.select_pair(r1, r2, c)
    with pytest.raises(QueryRangeError):
        cs.select(5, 2)
    with pytest.raises(QueryRangeError):
        cs.select(1, 9)


def test_codeseq_range_count_matches_loop():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 50)
        k = rng.randint(0, 5)
        codes = [rng.randint(0, k) for _ in range(n)]
        cs = CodeSeq(codes, k)
        for _ in range(30):
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            lo = rng.randint(-1, k + 2)
            hi = rng.randint(-1, k + 2)
            want = sum(1 for t in range(i, j + 1)
                       if lo <= codes[t - 1] <= hi)
            assert cs.range_count(i, j, lo, hi) == want


def test_codeseq_range_count_edge_forms():
    cs = CodeSeq([1, 0, 2, 1], 2)
    assert cs.range_count(3, 2, 0, 2) == 0
    assert cs.range_count(1, 4, 2, 1) == 0
    assert cs.range_count(1, 4, 3, 9) == 0
    with pytest.raises(QueryRangeError):
        cs.range_count(0, 4, 0, 2)
    with pytest.raises(QueryRangeError):
        cs.range_count(1, 5, 0, 2)


def test_codeseq_validates_codes():
    with pytest.raises(ValueError):
        CodeSeq([0, 4], 3)
    with pytest.raises(ValueError):
        CodeSeq([-1], 3)


def test_codeseq_codes_returns_a_copy():
    cs = CodeSeq([1, 2], 2)
    cs.codes()[0] = 9
    assert cs.codes() == [1, 2]
    assert cs.code_at(1) == 1
    assert cs.max_code == 2


def test_rmq_matches_linear_scan():
    rng = random.Random(43)
    for _ in range(80):
        n = rng.randint(1, 60)
        v = [rng.randint(0, 30) for _ in range(n)]
        rm = RmqIndex(v)
        for _ in range(40):
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            p = rm.rmq(i, j)
            best = max(v[i - 1:j])
            assert v[p - 1] == best
            assert rm.max_value(i, j) == best
            assert all(v[q - 1] < best for q in range(i, p))


def test_rmq_ties_go_left():
    assert RmqIndex([5, 5, 5, 5]).rmq(2, 4) == 2


def test_rmq_errors():
    rm = RmqIndex([1, 2])
    for query in (rm.rmq, rm.max_value):
        with pytest.raises(QueryRangeError):
            query(2, 1)
        with pytest.raises(QueryRangeError):
            query(0, 1)
        with pytest.raises(QueryRangeError):
            query(1, 3)
