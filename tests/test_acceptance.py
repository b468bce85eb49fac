"""End-to-end acceptance checks, one verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
test also asserts, so the suite fails loudly without -s too.
"""

import math
import random
import time

from palfm import index as index_mod
from palfm import oracle, palcore
from palfm.index import build, deserialize, serialize
from palfm.palcore import INF


def _line(num, name, ok, extra=""):
    print("acceptance %d %s: %s%s"
          % (num, name, "PASS" if ok else "FAIL",
             " " + extra if extra else ""))
    assert ok, "acceptance %d %s" % (num, name)


def _random_text(rng, n, sigma):
    return "".join(rng.choice("abcd"[:sigma]) for _ in range(n))


def test_1_index_rows_exact():
    t0 = time.perf_counter()
    idx = build("abbabbcbc", delta=2)
    sa = [idx.sa_access(i) for i in range(1, 11)]
    inf = idx.K + 1
    ok = (sa == [10, 9, 2, 5, 8, 1, 4, 7, 3, 6]
          and idx.F.codes() == [0, inf, 1, 1, inf, 2, inf, 2, 2, 2]
          and idx.L.codes() == [inf, inf, 2, inf, 2, 0, 2, 2, 1, 1]
          and list(idx.lf_values) == [2, 5, 6, 7, 8, 1, 9, 10, 3, 4])
    elapsed = time.perf_counter() - t0
    _line(1, "index-rows-exact", ok and elapsed < 1.0,
          "(%.3f s)" % elapsed)


def test_2_encoding_tables_exact():
    ok = (palcore.lpal("abbbabb") == [1, 1, 2, 3, 5, 3, 5]
          and palcore.ssp("abbbabb") == [INF, INF, 2, 2, 5, 3, 2]
          and palcore.lpal("babbbabb") == [1, 1, 3, 2, 3, 5, 7, 5]
          and palcore.ssp("babbbabb") == [INF, INF, 3, 2, 2, 5, 3, 2])
    sg = palcore.sspg("babbbabb")
    ok = ok and sg[:7] == [INF, INF, 2, 1, 1, 2, 2]
    ok = ok and sg[7] == oracle.sspg_naive("babbbabb")[7] == 1
    print("  note: sspg('babbbabb') position 8 is 1 (group of the "
          "shortest representative); the tempting value 2 fails the "
          "definitional oracle")
    _line(2, "encoding-tables-exact", ok)


def test_3_search_matches_oracle():
    rng = random.Random(555)
    t0 = time.perf_counter()
    trials = 1000
    deltas = (1, 4, 16)
    ok = True
    for k in range(trials):
        n = rng.randint(1, 200)
        sigma = rng.choice((2, 3, 4))
        t = _random_text(rng, n, sigma)
        idx = build(t, delta=min(deltas[k % 3], n))
        m = rng.randint(1, 20)
        if rng.random() < 0.6 and m <= n:
            s = rng.randint(0, n - m)
            p = t[s:s + m]
        else:
            p = _random_text(rng, m, sigma)
        want = oracle.naive_search(t, p)
        if idx.count(p) != len(want) or idx.locate(p) != want:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    _line(3, "search-matches-oracle", ok and elapsed < 60,
          "(%d trials, %.1f s)" % (trials, elapsed))


def test_4_pal_match_iff_encoding_equal():
    ok = True
    for n in range(0, 13):
        windows_to_ssp = {}
        ssp_to_windows = {}
        for bits in range(2 ** n):
            w = "".join("ab"[(bits >> k) & 1] for k in range(n))
            wkey = frozenset(oracle.pal_windows(w))
            skey = tuple(palcore.ssp(w))
            if windows_to_ssp.setdefault(wkey, skey) != skey:
                ok = False
            if ssp_to_windows.setdefault(skey, wkey) != wkey:
                ok = False
    _line(4, "pal-match-iff-encoding-equal", ok,
          "(all binary strings to length 12)")


def test_5_prepend_stability():
    rng = random.Random(777)
    violations = 0
    for _ in range(10_000):
        n = rng.randint(0, 100)
        sigma = rng.choice((2, 3, 4))
        w = _random_text(rng, n, sigma)
        c = rng.choice("abcd"[:sigma])
        a = palcore.ssp(w)
        b = palcore.ssp(c + w)
        changed = [j for j in range(2, n + 2) if b[j - 1] != a[j - 2]]
        if len(changed) > 1:
            violations += 1
        elif changed and (a[changed[0] - 2] != INF
                          or b[changed[0] - 1] != changed[0]):
            violations += 1
    _line(5, "prepend-stability", violations == 0, "(10000 trials)")


def test_6_structural_invariants():
    rng = random.Random(888)
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        n = rng.randint(1, 500)
        sigma = rng.choice((2, 3, 4))
        t = _random_text(rng, n, sigma)
        idx = build(t, delta=min(rng.choice((1, 4, 16, 32)), n))
        res = idx.verify(t)
        if not res.ok:
            ok = False
            break
        for i in range(1, idx.n + 2):
            if idx._lf_formula(i) != idx.lf_values[i - 1]:
                ok = False
                break
    elapsed = time.perf_counter() - t0
    _line(6, "structural-invariants", ok, "(100 texts, %.1f s)" % elapsed)


def test_7_group_count_bound():
    rng = random.Random(999)
    ok = True
    for _ in range(50):
        n = rng.randint(1, 300)
        sigma = rng.choice((2, 3, 4))
        t = _random_text(rng, n, sigma)
        gc = palcore.group_counts(t)
        seen = set()
        for j in range(1, n + 1):
            seen.add(t[j - 1])
            if gc[j - 1] > len(seen):
                ok = False
    for _ in range(30):
        n = rng.randint(1, 120)
        t = _random_text(rng, n, rng.choice((2, 3)))
        per_prefix = oracle.groups_naive(t)
        gc = palcore.group_counts(t)
        seen = set()
        for j, (groups, boundary) in enumerate(per_prefix, 1):
            seen.add(t[j - 1])
            total = len(groups) + (1 if boundary is not None else 0)
            if gc[j - 1] != len(groups) or total > len(seen) + 1:
                ok = False
    big = _random_text(rng, 10_000, 4)
    observed = max(palcore.group_counts(big))
    _line(7, "group-count-bound", ok,
          "(max %d on n=10000, log2 n = %.1f)"
          % (observed, math.log2(10_000)))


def test_8_serialization():
    rng = random.Random(1234)
    ok = True
    for _ in range(100):
        n = rng.randint(0, 120)
        t = _random_text(rng, n, rng.choice((2, 3, 4)))
        idx = build(t, delta=rng.randint(1, max(n, 1)))
        img = serialize(idx)
        if serialize(deserialize(img)) != img:
            ok = False
    flips = 0
    for t in ("abbabbcbc", "aaaaabbbbb", "abcabcabc"):
        img = serialize(build(t, delta=2))
        for pos in range(len(img)):
            bad = bytearray(img)
            bad[pos] ^= 1 << rng.randrange(8)
            flips += 1
            try:
                deserialize(bytes(bad))
                ok = False
            except index_mod.IndexFormatError:
                pass
    _line(8, "serialization", ok,
          "(100 round trips, %d byte flips all detected)" % flips)


def test_9_performance_smoke():
    rng = random.Random(4321)
    t = _random_text(rng, 10_000, 4)
    t0 = time.perf_counter()
    idx = build(t, delta=32)
    build_s = time.perf_counter() - t0
    patterns = []
    for _ in range(1000):
        s = rng.randrange(len(t) - 100)
        patterns.append(t[s:s + 100])
    t0 = time.perf_counter()
    for p in patterns:
        idx.count(p)
    count_s = time.perf_counter() - t0
    s = rng.randrange(len(t) - 10)
    p10 = t[s:s + 10]
    t0 = time.perf_counter()
    occ = idx.locate(p10)
    locate_s = time.perf_counter() - t0
    sane = s + 1 in occ and occ == sorted(occ)
    ok = sane and build_s < 60 and count_s < 1 and locate_s < 0.010
    _line(9, "performance-smoke", ok,
          "(build %.2f s, 1000 counts %.2f s, locate %.2f ms)"
          % (build_s, count_s, locate_s * 1e3))
