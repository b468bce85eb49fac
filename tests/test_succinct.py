"""rank/select/RMQ structures against linear scans."""

import random

import pytest

from palfm import build, deserialize, serialize
from palfm.succinct import (BitVec, CodeSeq, QueryRangeError, RmqIndex,
                            int_list)


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
        for lo in range(-1, k + 3):
            for hi in range(-1, k + 3):
                for i in range(0, n + 1, max(1, n // 7)):
                    for b in (1, i // 2 + 1, i + 1):
                        assert cs.rank_pair(b, i, lo, hi) == (
                            sum(lo <= x <= hi for x in codes[:b - 1]),
                            sum(lo <= x <= hi for x in codes[:i]))
    cs = CodeSeq([1, 0, 2], 2)
    for b, e in ((0, 2), (3, 1), (1, 4)):
        with pytest.raises(QueryRangeError):
            cs.rank_pair(b, e, 1, 1)


def test_codeseq_rank_and_select_of_every_code_class():
    # a code that occurs once (as DOLLAR does in F and L), codes that never
    # occur, and common codes, with max_code from 12 up
    rng = random.Random(47)
    for _ in range(20):
        k = rng.randint(12, 40)
        common = rng.sample(range(1, k + 1), rng.randint(1, k // 2))
        codes = [rng.choice(common) for _ in range(rng.randint(0, 120))]
        codes.insert(rng.randint(0, len(codes)), 0)
        cs = CodeSeq(codes, k)
        assert {c for c in range(k + 1) if c not in codes} \
            and codes.count(0) == 1
        for c in range(-1, k + 2):
            assert [cs.rank(i, c) for i in range(len(codes) + 1)] \
                == [codes[:i].count(c) for i in range(len(codes) + 1)]
            where = [i + 1 for i, x in enumerate(codes) if x == c]
            assert [cs.select(r, c) for r in range(1, len(where) + 1)] \
                == where
            with pytest.raises(QueryRangeError):
                cs.select(len(where) + 1, c)
            if where:
                assert cs.select_pair(1, len(where), c) \
                    == (where[0], where[-1])


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
    for r1, r2, c in ((0, 1, 2), (2, 1, 2), (1, 5, 2), (1, 1, 9), (1, 1, -1),
                      (1, 1, cs.max_code + 1)):
        with pytest.raises(QueryRangeError):
            cs.select_pair(r1, r2, c)
    with pytest.raises(QueryRangeError):
        cs.select(5, 2)
    with pytest.raises(QueryRangeError):
        cs.select(1, 9)


def test_codeseq_rank_pair_differences_match_loop():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 50)
        k = rng.randint(0, 5)
        codes = [rng.randint(0, k) for _ in range(n)]
        cs = CodeSeq(codes, k)
        for _ in range(30):
            i, j = sorted((rng.randint(1, n), rng.randint(1, n)))
            lo = rng.randint(-1, k + 2)
            hi = rng.randint(-1, k + 2)
            want = sum(1 for t in range(i, j + 1)
                       if lo <= codes[t - 1] <= hi)
            before, through = cs.rank_pair(i, j, lo, hi)
            assert through - before == want


def test_codeseq_rank_pair_edge_forms():
    cs = CodeSeq([1, 0, 2, 1], 2)
    # an empty code range, or one past the alphabet, counts 0
    assert cs.rank_pair(1, 4, 2, 1) == (0, 0)
    assert cs.rank_pair(1, 4, 3, 9) == (0, 0)
    assert cs.rank_pair(2, 4, -5, -1) == (0, 0)
    # a range reaching past the alphabet counts the codes inside it
    assert cs.rank_pair(2, 4, -1, 9) == (1, 4)
    assert cs.rank_pair(3, 4, 1, 9) == (1, 3)
    for b, e in ((0, 4), (1, 5)):
        with pytest.raises(QueryRangeError):
            cs.rank_pair(b, e, 0, 2)


def test_codeseq_validates_codes():
    with pytest.raises(ValueError):
        CodeSeq([0, 4], 3)
    with pytest.raises(ValueError):
        CodeSeq([-1], 3)
    # codes are held one byte each
    with pytest.raises(ValueError):
        CodeSeq([0, 1], 256)


def test_codeseq_codes_returns_a_copy():
    cs = CodeSeq([1, 2], 2)
    cs.codes()[0] = 9
    assert cs.codes() == [1, 2]
    assert cs.code_at(1) == 1
    assert cs.max_code == 2


def test_rmq_matches_linear_scan():
    rng = random.Random(43)
    # every range of every sequence of 1..97 values, so every range
    # length and offset around the blocks of 32; n of 300..700 and
    # 1,023..1,025 reach the sparse table's upper levels, with values
    # drawn from [0..10n] so that a wrong block seldom shares the true
    # maximum
    for n in range(1, 98):
        v = [rng.randint(0, 10 * n) for _ in range(n)]
        for rm in (RmqIndex(v), RmqIndex(int_list(v))):
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    assert rm.max_value(i, j) == max(v[i - 1:j])
    for lo, hi, runs in ((300, 700, 10), (1023, 1025, 6)):
        for _ in range(runs):
            n = rng.randint(lo, hi)
            v = [rng.randint(0, 10 * n) for _ in range(n)]
            rms = RmqIndex(v), RmqIndex(int_list(v))
            for _ in range(200):
                i = rng.randint(1, n)
                j = rng.randint(i, n)
                for rm in rms:
                    assert rm.max_value(i, j) == max(v[i - 1:j])


def test_rmq_reads_an_end_block_only_when_it_can_hold_the_maximum():
    # one unique maximum planted at every position of 5 blocks, against
    # ranges whose ends fall on and around block edges: planted in a
    # partial end block, that end is read and holds the answer; planted
    # in a whole block, or outside the range, an end block's read is
    # skipped or finds nothing above the whole blocks
    rng = random.Random(47)
    base = [rng.randint(0, 9) for _ in range(160)]
    starts = (1, 2, 31, 32, 33, 34, 63, 64, 65, 66)
    ends = (95, 96, 97, 98, 127, 128, 129, 159, 160)
    for p in range(160):
        v = list(base)
        v[p] = 100
        rm = RmqIndex(int_list(v))
        for i in starts:
            for j in ends:
                assert rm.max_value(i, j) == max(v[i - 1:j]), (p, i, j)


def test_loaded_range_maximum_holds_no_table_per_row():
    rng = random.Random(53)
    t = bytes(rng.choice(b"abcd") for _ in range(2000))
    rmq = deserialize(serialize(build(t, delta=8))).lf_rmq
    assert rmq.held_bytes() < 2 * 2001


def test_rmq_errors():
    rm = RmqIndex([1, 2])
    for i, j in ((2, 1), (0, 1), (1, 3)):
        with pytest.raises(QueryRangeError):
            rm.max_value(i, j)


def test_int_list_rejects_negative_values():
    assert list(int_list([3, 0, 2])) == [3, 0, 2]
    assert int_list([2 ** 31 - 1]).typecode == "i"
    assert int_list([2 ** 31]).typecode == "q"
    with pytest.raises(ValueError):
        int_list([3, -1, -2])
    with pytest.raises(ValueError):
        RmqIndex([4, -1])

