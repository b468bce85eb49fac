"""Palindromic structure encodings.

Two equal-length strings pal-match when every window of one is a palindrome
exactly when the same window of the other is.  The encodings here reduce that
relation to plain equality: ssp records, for every prefix, the length of the
shortest non-trivial suffix-palindrome, and sspg renames those lengths by
small group identifiers so that appending a character changes at most one
entry.  Everything in this module runs in O(n).

_profile derives ssp, sspg and the group counts of a string, and ssp of its
reversal, from one Manacher pass.  sspg, group_counts, pattern_preprocess
and the index's text encoder all read it; ssp, lpal and lpal_second sweep
their own pass, and the oracle module stays the independent reference.
Every sweep reads the palindrome lengths of its pass as they are, one
entry per center.

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


def _suffix_pal_sweep(w):
    """(lpal, lpal_second) for w in one left-to-right sweep.

    A suffix-palindrome of w[..i] with start a corresponds to center
    t = a + i whose maximal palindrome reaches i, so the longest one
    belongs to the smallest such t in [i+1..2i] and the second longest to
    the next one.  The maximal palindrome of length L at center t ends at
    (t + L - 1) // 2 (L = 0 included), so it ends before i exactly when
    t + L <= 2i.  Both frontiers only ever move right: a center dropped
    for ending before i ends before every later i as well, and the window
    floor i+1 only grows.
    """
    n = len(w)
    lens = maximal_palindromes(w)
    first = [0] * n
    second = [0] * n
    t1 = 2
    t2 = 3
    for i in range(1, n + 1):
        if t1 < i + 1:
            t1 = i + 1
        while t1 + lens[t1 - 2] <= 2 * i:
            t1 += 1
        first[i - 1] = 2 * i + 1 - t1
        if t2 < t1 + 1:
            t2 = t1 + 1
        while t2 <= 2 * i and t2 + lens[t2 - 2] <= 2 * i:
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
    return _ssp_sweep(maximal_palindromes(w), len(w))


def spp(w):
    """Shortest non-trivial prefix-palindrome length per start position.

    spp(w)[i-1] covers palindromes starting at i; the dual of ssp under
    reversal: spp(w)[i-1] = ssp(reverse(w))[n-i].
    """
    return ssp(w[::-1])[::-1]


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
    return _profile(w)[3]


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
    return _profile(w)[2]


def _profile(w):
    """(ssp(w), ssp(reverse(w)), sspg(w), group_counts(w)) in fused passes:

    - One Manacher pass over w.  Reversing mirrors the centers, so the
      maximal palindromes of reverse(w) are those of w read backwards.
    - One _ssp_sweep per direction.
    - One pass over the maximal palindromes of w applies the
      representative test of group_counts once; each representative adds
      to the group count at its end and, when it is shorter than the
      bound sspg uses one position later, to that sspg identifier.

    The group keyed by the upcoming character exists iff w has a
    non-trivial suffix-palindrome there, i.e. iff ssp is finite.
    """
    n = len(w)
    if n == 0:
        return [], [], [], []
    lens = maximal_palindromes(w)
    s = _ssp_sweep(lens, n)
    # a palindrome w[a..j] is reverse(w)[n+1-j..n+1-a], so the reversed
    # string's centers come in reverse order, and sp[n+1-a] is spp of w
    # at position a-1
    sp = _ssp_sweep(lens[::-1], n)
    reps = [0] * (n + 1)
    below = [0] * (n + 1)
    for t, ln in enumerate(lens, 2):
        # the maximal palindrome w[a..j] at center t = a + j
        j = (t + ln - 1) >> 1
        a = j - ln + 1
        if a >= 2 and sp[n + 1 - a] > ln + 1:
            reps[j] += 1
            if j < n and ln + 1 < s[j]:
                below[j] += 1
    groups = [INF if v == INF else b + 1 for v, b in zip(s, below)]
    counts = [(v != INF) + c for v, c in zip(s[1:], reps[1:n])]
    counts.append(reps[n] + 1)
    return s, sp, groups, counts


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
    """PatternProfile for pattern p, read backwards off _profile of the
    reversed pattern r: one Manacher pass for the whole pattern.

    pi(P[i..]) is sspg of r at position m+1-i, and the prefix-palindrome
    groups of P[i+1..] are the suffix-palindrome groups of r[..m-i].
    """
    m = len(p)
    if m == 0:
        raise ValueError("empty pattern")
    _, _, groups, counts = _profile(p[::-1])
    return PatternProfile(pi_arr=tuple(reversed(groups)),
                          g_arr=tuple(reversed(counts[:-1])) + (0,))


def _ssp_sweep(lens, n):
    """ssp of a length-n string from the lengths of its maximal
    palindromes (maximal_palindromes): the frontiers of _suffix_pal_sweep
    with the ssp recurrence applied at each position.

    The second frontier only matters where the longest suffix-palindrome
    is non-trivial; it is caught up lazily, which is safe because every
    center it skips ends before the current position.
    """
    out = [INF] * n
    t1 = 2
    t2 = 3
    for i in range(1, n + 1):
        top = 2 * i
        if t1 <= i:
            t1 = i + 1
        while t1 + lens[t1 - 2] <= top:
            t1 += 1
        if t1 < top:
            if t2 <= t1:
                t2 = t1 + 1
            while t2 < top and t2 + lens[t2 - 2] <= top:
                t2 += 1
            # second longest 2i+1-t2 <= 1: the longest is also the shortest
            out[i - 1] = top + 1 - t1 if t2 >= top else out[i - 1 + t1 - t2]
    return out
