"""Palindromic structure encodings.

Two equal-length strings pal-match when every window of one is a palindrome
exactly when the same window of the other is.  The encodings here reduce that
relation to plain equality: ssp records, for every prefix, the length of the
shortest non-trivial suffix-palindrome, and sspg renames those lengths by
small group identifiers so that appending a character changes at most one
entry.  Everything in this module runs in O(n).

Positions are 1-based throughout; a returned list r holds the value for
position i at r[i-1].  INF marks "no such palindrome" and compares above
every finite length.  Inputs may be str, bytes, or any indexable sequence
with comparable elements.
"""

import math
from dataclasses import dataclass

INF = math.inf


def maximal_palindromes(w):
    """Lengths of the maximal palindromes at every center of w.

    Centers are addressed as t = i + j over substrings w[i..j]; t runs over
    [2..2n], so the result has 2n-1 entries and entry [t-2] belongs to center
    t/2.  Even t carry odd-length palindromes (>= 1), odd t carry even-length
    ones, 0 when the two neighbours differ.
    """
    n = len(w)
    if n == 0:
        return []
    # Manacher, two passes over 0-based w.
    # d1[i]: number of odd palindromes centered at i, longest length 2*d1[i]-1
    d1 = [0] * n
    l, r = 0, -1
    for i in range(n):
        k = 1 if i > r else min(d1[l + r - i], r - i + 1)
        while k <= i and i + k < n and w[i - k] == w[i + k]:
            k += 1
        d1[i] = k
        if i + k - 1 > r:
            l, r = i - k + 1, i + k - 1
    # d2[i]: number of even palindromes whose right half starts at i,
    # longest length 2*d2[i]
    d2 = [0] * n
    l, r = 0, -1
    for i in range(n):
        k = 0 if i > r else min(d2[l + r - i + 1], r - i + 1)
        while k < i and i + k < n and w[i - k - 1] == w[i + k]:
            k += 1
        d2[i] = k
        if i + k - 1 > r:
            l, r = i - k, i + k - 1
    res = [0] * (2 * n - 1)
    for i in range(n):
        res[2 * i] = 2 * d1[i] - 1
    for i in range(1, n):
        res[2 * i - 1] = 2 * d2[i]
    return res


def _end_positions(lens):
    """ends[t-2] = end position of the maximal palindrome at center t.

    For a palindrome w[i..j] at center t = i+j with length L, the end is
    j = (t + L - 1) // 2; the formula also covers L = 0 (the empty palindrome
    between two positions), whose end is the position on its left.
    """
    return [(t + lens[t - 2] - 1) // 2 for t in range(2, len(lens) + 2)]


def _suffix_pal_sweep(w, lens=None):
    """(lpal, lpal_second) for w in one left-to-right sweep.

    A suffix-palindrome of w[..i] with start a corresponds to center
    t = a + i whose maximal palindrome ends at >= i, so the longest one
    belongs to the smallest such t in [i+1..2i] and the second longest to
    the next one.  Both frontiers only ever move right: a center dropped
    for ending before i ends before every later i as well, and the window
    floor i+1 only grows.
    """
    n = len(w)
    if lens is None:
        lens = maximal_palindromes(w)
    ends = _end_positions(lens)
    first = [0] * n
    second = [0] * n
    t1 = 2
    t2 = 3
    for i in range(1, n + 1):
        if t1 < i + 1:
            t1 = i + 1
        while ends[t1 - 2] < i:
            t1 += 1
        first[i - 1] = 2 * i + 1 - t1
        if t2 < t1 + 1:
            t2 = t1 + 1
        while t2 <= 2 * i and ends[t2 - 2] < i:
            t2 += 1
        # beyond 2i there is no center left; only the empty suffix remains
        second[i - 1] = 2 * i + 1 - t2 if t2 <= 2 * i else 0
    return first, second


def lpal(w):
    """Longest suffix-palindrome length for every prefix of w."""
    return _suffix_pal_sweep(w)[0]


def lpal_second(w):
    """Second-longest suffix-palindrome length for every prefix of w.

    The empty suffix counts as a palindrome of length 0, so the value is 0
    exactly when the prefix has no suffix-palindrome besides the longest
    and the empty one.
    """
    return _suffix_pal_sweep(w)[1]


def ssp(w):
    """Shortest non-trivial suffix-palindrome length per prefix, INF if none.

    Non-trivial means length >= 2.  Computed by the recurrence on
    (lpal, lpal_second): with no second suffix-palindrome the longest is
    also the shortest, and otherwise the answer repeats at the mirrored
    position i - lpal[i] + lpal_second[i], where the same short
    suffix-palindromes end again.
    """
    return _ssp_from(*_suffix_pal_sweep(w))


def _ssp_from(lp, lp2):
    n = len(lp)
    res = [0] * n
    for i in range(1, n + 1):
        if lp[i - 1] == 1:
            res[i - 1] = INF
        elif lp2[i - 1] <= 1:
            res[i - 1] = lp[i - 1]
        else:
            res[i - 1] = res[i - 1 - lp[i - 1] + lp2[i - 1]]
    return res


def spp(w):
    """Shortest non-trivial prefix-palindrome length per start position.

    spp(w)[i-1] covers palindromes starting at i; the dual of ssp under
    reversal: spp(w)[i-1] = ssp(reverse(w))[n-i].
    """
    return ssp(w[::-1])[::-1]


def _rep_buckets(w, lens):
    """Maximal palindromes bucketed by end position as start indices.

    buckets[j] lists the 1-based starts i of maximal palindromes w[i..j]
    (i = j+1 for the empty palindrome ending at j).  Each center lands in
    exactly one bucket.
    """
    n = len(w)
    buckets = [[] for _ in range(n + 1)]
    for t in range(2, 2 * n + 1):
        L = lens[t - 2]
        j = (t + L - 1) // 2
        buckets[j].append(j - L + 1)
    return buckets


def group_counts(w):
    """Number of character-keyed suffix-palindrome groups for every prefix.

    The suffix-palindromes of w[..j] (empty suffix included) are grouped by
    the character immediately to their left; the whole prefix, when it is a
    palindrome, has no such character and its group is not counted.  A group
    keyed by the upcoming character w[j+1] exists iff lpal[j+1] > 1; every
    other group is represented by its shortest member, which is a maximal
    palindrome w[i..j] with no shorter palindrome at the same key, i.e. with
    spp[i-1] > j-i+2.  At j = n there is no upcoming character and all
    suffix-palindromes sit at the text boundary; the empty suffix (whose
    center 2n+1 is outside the maximal-palindrome range) is added directly.
    """
    n = len(w)
    if n == 0:
        return []
    lens = maximal_palindromes(w)
    return _group_counts_from(n, lpal(w), spp(w), _rep_buckets(w, lens))


def _group_counts_from(n, lp, sp, buckets):
    out = [0] * n
    for j in range(1, n + 1):
        c = 0
        if j < n and lp[j] > 1:
            c += 1
        for i in buckets[j]:
            if i >= 2 and sp[i - 2] > j - i + 2:
                c += 1
        if j == n:
            c += 1
        out[j - 1] = c
    return out


def sspg(w):
    """Group-identifier renaming of ssp; INF stays INF.

    The shortest non-trivial suffix-palindrome of w[..i] extends a
    suffix-palindrome of w[..i-1] of length ssp[i]-2, the representative of
    its group; identifiers count groups in increasing representative length,
    so sspg[i] is one more than the number of representatives ending at i-1
    that are strictly shorter than ssp[i]-2.  Those are exactly the maximal
    palindromes w[a..i-1] passing the same representative test as in
    group_counts plus the length cut i-1-a+1 < ssp[i]-1.
    """
    n = len(w)
    if n == 0:
        return []
    lens = maximal_palindromes(w)
    return _sspg_from(n, ssp(w), spp(w), _rep_buckets(w, lens))


def _sspg_from(n, s, sp, buckets):
    out = [INF] * n
    for i in range(2, n + 1):
        if s[i - 1] == INF:
            continue
        j = i - 1
        c = 1
        cut = s[i - 1] - 1
        for a in buckets[j]:
            if a >= 2 and sp[a - 2] > j - a + 2 and j - a + 1 < cut:
                c += 1
        out[i - 1] = c
    return out


def pi(w):
    """sspg value of the whole reversed string: the group-renamed shortest
    non-trivial prefix-palindrome of w, INF when w has none."""
    if len(w) == 0:
        raise ValueError("pi of the empty string is undefined")
    return sspg(w[::-1])[-1]


@dataclass(frozen=True)
class PatternProfile:
    """Per-position backward-search inputs for a pattern P.

    pi_arr[i-1] = pi(P[i..]); g_arr[i-1] = number of character-keyed
    prefix-palindrome groups of P[i+1..] (0 at i = m, where the processed
    suffix is empty).
    """

    pi_arr: tuple
    g_arr: tuple


def pattern_preprocess(p):
    """PatternProfile for pattern p from sspg and group counts of the
    reversed pattern r, computed in fused passes:

    - One Manacher pass over r.  Reversing mirrors the centers, so the
      maximal palindromes of p are those of r read backwards.
    - One sweep per direction gives ssp of r and ssp of p (spp of r read
      backwards), each applying the ssp recurrence as it goes.
    - One pass over the maximal palindromes of r applies the
      representative test of group_counts once; each representative adds
      to the group count at its end and, when it is shorter than the
      bound sspg uses one position later, to that sspg identifier.

    The suffix-palindrome group keyed by the upcoming character exists iff
    r has a non-trivial suffix-palindrome there, i.e. iff ssp is finite.
    """
    m = len(p)
    if m == 0:
        raise ValueError("empty pattern")
    r = p[::-1]
    lens = maximal_palindromes(r)
    ends = [(t + ln - 1) >> 1 for t, ln in enumerate(lens, 2)]
    s = _ssp_sweep(ends, m)
    # a palindrome r[a..j] is p[m+1-j..m+1-a], so p's centers come in
    # reverse order, and sp[m+1-a] is spp of r at position a-1
    sp = _ssp_sweep([m - j + ln for j, ln in zip(reversed(ends),
                                                 reversed(lens))], m)
    reps = [0] * (m + 1)
    below = [0] * (m + 1)
    for j, ln in zip(ends, lens):
        a = j - ln + 1
        if a >= 2 and sp[m + 1 - a] > ln + 1:
            reps[j] += 1
            if j < m and ln + 1 < s[j]:
                below[j] += 1
    pi_arr = tuple(INF if s[q] == INF else below[q] + 1
                   for q in range(m - 1, -1, -1))
    g_arr = tuple((s[q] != INF) + reps[q] for q in range(m - 1, 0, -1))
    return PatternProfile(pi_arr=pi_arr, g_arr=g_arr + (0,))


def _ssp_sweep(ends, n):
    """ssp of a length-n string from the end positions of its maximal
    palindromes: the frontiers of _suffix_pal_sweep with the _ssp_from
    recurrence applied at each position.

    The second frontier only matters where the longest suffix-palindrome
    is non-trivial; it is caught up lazily, which is safe because every
    center it skips ends before the current position.
    """
    out = [INF] * n
    t1 = 2
    t2 = 3
    for i in range(1, n + 1):
        if t1 <= i:
            t1 = i + 1
        while ends[t1 - 2] < i:
            t1 += 1
        top = 2 * i
        if t1 < top:
            if t2 <= t1:
                t2 = t1 + 1
            while t2 < top and ends[t2 - 2] < i:
                t2 += 1
            # second longest 2i+1-t2 <= 1: the longest is also the shortest
            out[i - 1] = top + 1 - t1 if t2 >= top else out[i - 1 + t1 - t2]
    return out
