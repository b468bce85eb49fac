"""Palindromic structure encodings.

Two equal-length strings pal-match when every window of one is a palindrome
exactly when the same window of the other is.  The encodings here reduce that
relation to plain equality: ssp records, for every prefix, the length of the
shortest non-trivial suffix-palindrome, and sspg renames those lengths by
small group identifiers so that appending a character changes at most one
entry.

The encodings are computed on two paths, each from one Manacher pass
(maximal_palindromes, O(n)).  Whole strings, the index's text and the
public lpal, lpal_second, ssp, spp, sspg and pi, take the numpy path
(_encoding and its parts): prefix maxima and searchsorted find the
centers of the longest and second-longest suffix-palindromes, pointer
jumping resolves the ssp recurrence in at most ceil(lg n) rounds, and
one bincount applies the group representative test; O(n log n) in all.
Patterns take the pure-Python path, _profile, which runs the same steps
as O(m) sweeps: numpy's fixed cost per call exceeds a whole Python
profile below about a hundred symbols, and queries are usually shorter.
Group counts matter only for patterns, so _profile alone computes them,
for group_counts too.  _profile is also the reference the numpy path is
tested against, and the oracle module stays the independent one.

Positions are 1-based throughout; a returned list r holds the value for
position i at r[i-1].  INF marks "no such palindrome" and compares above
every finite length.  Inputs may be str, bytes, or any indexable sequence
with comparable elements.
"""

import math
from dataclasses import dataclass

import numpy as np

INF = math.inf


def maximal_palindromes(w):
    """Lengths of the maximal palindromes at every center of w.

    Centers are addressed as t = i + j over substrings w[i..j]; t runs over
    [2..2n], so the result has 2n-1 entries and entry [t-2] belongs to center
    t/2.  Even t carry odd-length palindromes (>= 1), odd t carry even-length
    ones, 0 when the two neighbours differ.

    Manacher's algorithm in pure Python, holding one list: the 2n-1
    lengths it returns.
    """
    n = len(w)
    # two passes over 0-based w, each writing its lengths straight into
    # res and reading a mirror's length back from it: the mirror lies
    # left of i, so its entry is already written, and the odd pass
    # touches only even entries, the even pass only odd ones
    res = [0] * (2 * n - 1)
    # odd: k palindromes centered at i, the longest of length 2k-1
    l, r = 0, -1
    for i in range(n):
        k = 1 if i > r else min((res[2 * (l + r - i)] + 1) >> 1, r - i + 1)
        while k <= i and i + k < n and w[i - k] == w[i + k]:
            k += 1
        res[2 * i] = 2 * k - 1
        if i + k - 1 > r:
            l, r = i - k + 1, i + k - 1
    # even: k palindromes whose right half starts at i, the longest of
    # length 2k
    l, r = 0, -1
    for i in range(1, n):
        k = 0 if i > r else min(res[2 * (l + r - i) + 1] >> 1, r - i + 1)
        while k < i and i + k < n and w[i - k - 1] == w[i + k]:
            k += 1
        res[2 * i - 1] = 2 * k
        if i + k - 1 > r:
            l, r = i - k, i + k - 1
    return res


def _lengths(w):
    """maximal_palindromes(w) as an int32 array."""
    return np.array(maximal_palindromes(w), dtype=np.int32)


def _ends(lens):
    """E(t) = (t + L - 1) >> 1 for the centers t = 2..2n of lens: where
    the maximal palindrome of length L at t ends (L = 0 included)."""
    ends = np.arange(1, len(lens) + 1, dtype=np.int32)
    ends += lens
    ends >>= 1
    return ends


def _suffix_pal_lengths(lens):
    """(lpal, lpal_second) as int32 arrays for the string whose maximal
    palindromes are lens; lpal_second is 0 or below where the second
    longest suffix-palindrome is the empty one.

    A suffix-palindrome of w[..i] with start a belongs to the center
    t = a + i, whose maximal palindrome ends (_ends) at i or later.  A
    center t <= i ends before i, as its palindrome starts at 1 or later.
    So the longest belongs to the first center where the prefix maximum
    of the ends reaches i, and the second longest to the first where the
    prefix second maximum does: one searchsorted each, and the length is
    2i + 1 - t.
    """
    n = (len(lens) + 1) // 2
    ends = _ends(lens)
    top = np.maximum.accumulate(ends)
    at = np.arange(1, n + 1, dtype=np.int32)
    # top[k] belongs to center k + 2
    longest = 2 * at - 1
    longest -= np.searchsorted(top, at)
    # runner_up[k]: the second largest end through center k + 3
    runner_up = np.minimum(ends[1:], top[:-1], out=ends[1:])
    del top
    np.maximum.accumulate(runner_up, out=runner_up)
    second = 2 * at - 2
    second -= np.searchsorted(runner_up, at)
    return longest, second


def _ssp_array(lens):
    """ssp of the string whose maximal palindromes are lens, as n+1 int32
    codes: INF as n+2, and 0 at index n, past the string.

    Where the second-longest suffix-palindrome is non-trivial, ssp repeats
    the value lpal - lpal_second positions back (see ssp).  Pointer
    jumping follows these links to a position that holds its own value,
    in at most ceil(lg n) rounds.
    """
    n = (len(lens) + 1) // 2
    longest, second = _suffix_pal_lengths(lens)
    out = np.zeros(n + 1, dtype=np.int32)
    out[:n] = np.where(longest > 1, longest, n + 2)
    jump = second > 1
    link = np.arange(n, dtype=np.int32)
    link[jump] -= (longest - second)[jump]
    del longest, second
    todo = np.flatnonzero(jump)
    while todo.size:
        link[todo] = link[link[todo]]
        todo = todo[jump[link[todo]]]
    out[:n] = out[link]
    return out


def _groups(lens, s, sp):
    """sspg of w as an int array, INF as n+2, from its maximal palindromes
    lens, and the _ssp_array s of w and sp of reverse(w): the
    representative test of _profile over every center at once, and one
    bincount of the representatives below each sspg bound.  The group
    counts themselves come from _profile (group_counts)."""
    n = len(s) - 1
    ends = _ends(lens)
    # w[a..j] of length L is a representative when spp of w at a-1 is
    # above L + 1.  It is reverse(w)[n+1-j..n+1-a], so that spp is
    # sp[n+1-a] = sp[n-j+L]; at a = 1 it is sp[n] = 0, which fails.
    at = n - ends
    at += lens
    limit = sp[at]
    del at
    limit -= 1
    rep = limit > lens
    # it counts towards sspg at j+1 when it is shorter than ssp there
    # minus 1; s[n] = 0 fails, as no sspg follows n
    limit = s[ends]
    limit -= 1
    rep &= limit > lens
    del limit
    below = np.bincount(ends[rep], minlength=n + 1)
    return np.where(s[:n] > n, n + 2, below[:n] + 1)


def _encoding(w):
    """(ssp(w), ssp(reverse(w)), sspg(w)) as int arrays, from one Manacher
    pass: the first two as _ssp_array, sspg with INF as n+2.  The numpy
    counterpart of _profile's first three lists, for whole strings; the
    group counts come from _profile alone."""
    lens = _lengths(w)
    s = _ssp_array(lens)
    # reversing mirrors the centers: reverse(w) has lens read backwards
    sp = _ssp_array(lens[::-1])
    return s, sp, _groups(lens, s, sp)


def _with_inf(codes, n):
    """codes as a list, INF for every code above n."""
    return [INF if v > n else v for v in codes.tolist()]


def lpal(w):
    """Longest suffix-palindrome length for every prefix of w."""
    return _suffix_pal_lengths(_lengths(w))[0].tolist()


def lpal_second(w):
    """Second-longest suffix-palindrome length for every prefix of w.

    The empty suffix counts as a palindrome of length 0, so the value is 0
    exactly when the prefix has no suffix-palindrome besides the longest
    and the empty one.
    """
    return np.maximum(_suffix_pal_lengths(_lengths(w))[1], 0).tolist()


def ssp(w):
    """Shortest non-trivial suffix-palindrome length per prefix, INF if none.

    Non-trivial means length >= 2.  Computed by the recurrence on
    (lpal, lpal_second): with no second suffix-palindrome the longest is
    also the shortest, and otherwise the answer repeats at the mirrored
    position i - lpal[i] + lpal_second[i], where the same short
    suffix-palindromes end again.
    """
    n = len(w)
    return _with_inf(_ssp_array(_lengths(w))[:n], n)


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

    Computed by _profile, the pure-Python path, which alone counts groups.
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
    return _with_inf(_encoding(w)[2], len(w))


def _profile(w):
    """(ssp(w), ssp(reverse(w)), sspg(w), group_counts(w)) as lists, in
    fused pure-Python passes, for patterns (see the module docstring):

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
    """PatternProfile for pattern p: _search_profile's lists read
    backwards, so that index i-1 holds position i of P."""
    if len(p) == 0:
        raise ValueError("empty pattern")
    pis, gs = _search_profile(p)
    return PatternProfile(pi_arr=tuple(reversed(pis)),
                          g_arr=tuple(reversed(gs)))


def _search_profile(p):
    """(pi, g) lists of a non-empty pattern p in the order backward search
    takes its steps, last symbol first, off _profile of the reversed
    pattern r: one Manacher pass for the whole pattern.

    Step k (0-based) extends the suffix P[m-k+1..] by P[m-k]: pi of the
    extended suffix is sspg of r at position k+1, and the prefix-palindrome
    groups of the old suffix are the suffix-palindrome groups of r[..k],
    none at k = 0.
    """
    _, _, groups, counts = _profile(p[::-1])
    return groups, [0] + counts[:-1]


def _ssp_sweep(lens, n):
    """ssp of a length-n string from the lengths of its maximal
    palindromes (maximal_palindromes): the centers t1 and t2 of the
    longest and second-longest suffix-palindromes (_suffix_pal_lengths)
    as two frontiers that only move right, with the ssp recurrence
    applied at each position.  A center dropped for ending before i ends
    before every later i as well, and the window floor i+1 only grows.

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
