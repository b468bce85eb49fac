"""The palindrome-matching index: build, search, locate, persist.

Rows follow the suffixes of the text (empty suffix included) sorted by the
ssp encodings of the suffixes, with the out-of-bounds symbol DOLLAR below
every value and INF above.  F holds each row's pi value (the group-renamed
shortest non-trivial prefix-palindrome of the row's suffix), L the pi value
of the suffix starting one position earlier.  Backward search is then the
FM-index loop: rank/select over L and F step intervals for finite pi, and a
rangeCount plus range-maximum over LF handle the no-prefix-palindrome case.

Construction sorts the suffixes in two phases: exact refinement of the
still-tied rows one encoding column at a time, then, once that stops
paying, a multikey quicksort whose comparisons find common prefixes by
Karp-Rabin fingerprints with randomly drawn bases.  A suffix's encoding is
the text's ssp with INF wherever the palindrome starts before the suffix
(a prev-encoding, as for Baker's parameterized strings), so its
fingerprint is the text's plus a correction for those positions.  The
sort also returns the common prefix of each pair of adjacent rows, which
it finds as it splits them.  build and verify certify the order exactly
with these, in O(n log n): the prefixes are checked against each other
through the one column in which a suffix's encoding differs from its
successor's shifted by one (_first_refuted).

Row numbers and text positions are 1-based; sequences store row i at
index i-1.
"""

import random
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import palcore
from .palcore import INF
from .succinct import BitVec, CodeSeq, RmqIndex, int_list

DOLLAR = 0

MAGIC = b"PALFMIX1"
FORMAT_VERSION = 1

_SEC_L = 1
_SEC_F = 2
_SEC_MARKS = 3
_SEC_SAMPLES = 4

# the v1 image: the header (magic, version, flags, n, delta, K), each
# section as its header (tag, payload length) and payload, then the crc32
# of all that precedes it; stats() names the sections as below
_HEADER = struct.Struct("<8sIIQQI")
_SECTION = struct.Struct("<IQ")
_CRC = struct.Struct("<I")
_SECTION_NAMES = {_SEC_L: "l_codes", _SEC_F: "f_codes",
                  _SEC_MARKS: "sample_marks", _SEC_SAMPLES: "sample_values"}

# larger texts need force=True / --force-large: a loaded index holds about
# 15 times its image once it has answered a count and a locate (4-byte
# arrays of LF, the range-maximum block table, the samples and the
# rank/select tables its queries build, and the F, L and mark codes as
# bytes; 15.3 times by tracemalloc on random text over 4 letters,
# n = 40,000, delta 32, Python 3.11 and numpy 2.4 on a 2-vCPU Xeon)
BUILD_GUARD = 50_000

# locate walks an interval of this many rows or more in numpy, one LF step
# for all its rows a round (_wide_walk), and a narrower one row by row in
# Python (_walk).  A numpy round costs 3-6 us whatever the width, and a
# walk takes up to delta rounds, so numpy wins past about 140 rows at
# delta 32, 64 at delta 4 and 30 at delta 1 (random text over 4 letters,
# n = 40,000; one pinned core of a shared 2-vCPU host).  At this width the
# row walk is 6-7 % faster at delta 32, but numpy 1.8 times faster at delta
# 4 and 3.3 times at delta 1, so the cut stays below delta 32's crossover
_WIDE_WALK = 128


class IndexFormatError(ValueError):
    """A serialized index image cannot be loaded."""


class BadMagicError(IndexFormatError):
    """The image does not start with the index magic."""


class VersionError(IndexFormatError):
    """The image declares an unsupported version or flags."""


class TruncatedError(IndexFormatError):
    """The image ends before its declared content."""


class ChecksumError(IndexFormatError):
    """The image checksum does not match its content."""


class SelfCheckError(RuntimeError):
    """build's self-check found the suffix order or the rows it built
    inconsistent."""


@dataclass(frozen=True)
class PalInterval:
    """Row interval [b..e] of the index, empty when b > e."""

    b: int
    e: int

    @property
    def is_empty(self):
        return self.b > self.e

    def width(self):
        return 0 if self.is_empty else self.e - self.b + 1


_EMPTY = PalInterval(1, 0)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    violation: str = ""
    detail: str = ""


def _encode(text):
    """(ssp codes, K, pi codes) from one palcore._encoding pass over the
    reversed text.

    The ssp codes are ssp(T) as n+1 int64 codes, INF as n+2 (above every
    finite value and every column) and DOLLAR at index n, the position
    past the text.  pi codes[s] is the section code of pi(T[s..]) for s in
    1..n (INF as K+1, K the largest group id) and DOLLAR at 0 and n+1, one
    byte each as in the image, so for the sorted starts sa, F is
    pi codes[sa] and L is pi codes[sa - 1]."""
    n = len(text)
    pi_codes = np.zeros(n + 2, dtype=np.uint8)
    _, codes, groups = palcore._encoding(text[::-1])
    # pi(T[s..]) is sspg of the reversed text at n-s
    pi_suf = groups[::-1]
    inf = pi_suf > n
    k = int(pi_suf.max(initial=0, where=~inf))
    pi_codes[1:n + 1] = np.where(inf, k + 1, pi_suf)
    return codes.astype(np.int64), k, pi_codes


# -- the pal-suffix sort -------------------------------------------------
#
# Suffix i (0-based start) shows, at encoding column k (1-based), text
# position q = i+k-1: ssp(T)[q] when that palindrome starts inside the
# suffix, i.e. when ssp(T)[q] <= k, INF when it starts before i (it
# crosses the suffix start), and DOLLAR at q = n.  Suffixes of different
# lengths differ by the column after the shorter one at the latest.

# primes below 2**31: a product of two residues fits in an int64
_MODULI = (2147483647, 2147483629)


def _shown(codes, pos, col):
    """Encoding values at text positions pos seen from encoding columns
    col (pos = start + col - 1, at most n)."""
    v = codes[pos]
    return np.where(v <= col, v, len(codes) + 1)


class _Handover:
    """When exact column-by-column work hands its open rows to
    fingerprints: once it has spent 2 (n+1) lg(n+1) row-steps, at the first
    column past which the crossing corrections of _Windows fit in n+1
    entries.  Random text finishes well inside the step budget; repetitive
    text would need about n columns."""

    def __init__(self, codes):
        rows = len(codes)
        self.codes = codes
        self.steps = 2 * rows * max(1, (rows - 1).bit_length())
        self.beyond = None

    def __call__(self, col, steps):
        if steps < self.steps:
            return False
        if self.beyond is None:
            self.beyond = _crossings_beyond(self.codes)
        return self.beyond[col] <= len(self.codes)


def _crossings_beyond(codes):
    """c[d] for d in 0..n+1: the (suffix, position) pairs at encoding
    columns past d where the suffix shows INF for a finite ssp value.
    Position q with ssp value v is crossed by v-1 suffixes, at columns
    1..v-1."""
    n = len(codes) - 1
    crossed = codes[:n][codes[:n] <= n] - 1
    # g[j]: positions crossed at column j or later
    g = np.bincount(crossed, minlength=n + 3)[::-1].cumsum()[::-1]
    return g[::-1].cumsum()[::-1][1:]


class _Windows:
    """Karp-Rabin fingerprints of encoding windows, columns depth+1..L.

    The window of suffix i is the raw window ssp(T)[i+depth..i+L) plus,
    at each position whose palindrome crosses i, the step from its ssp
    value up to INF.  Raw windows come from prefix sums of ssp(T)[q] B^q;
    the crossing steps from prefix sums over a list of (suffix, position)
    entries sorted by suffix, then position, found by one searchsorted
    per window that every modulus shares.  The list holds only the
    columns past depth: _crossings_beyond(codes)[depth] entries.

    Two windows of length L are compared as polynomials in a base B drawn
    at random per instance and modulus.  Different windows collide only
    when B is a root of their non-zero difference, of degree below L:
    with probability at most L/P per comparison and modulus P, so at
    most (L/P1)(L/P2) < 2**-60 L**2 for both.
    """

    def __init__(self, codes, depth):
        n = len(codes) - 1
        self.n, self.depth = n, depth
        # positions crossed past column depth, and by how many suffixes
        finite = np.where(codes[:n] <= n, codes[:n], 0)
        pos = np.flatnonzero(finite > depth + 1)
        count = finite[pos] - (depth + 1)
        total = int(count.sum())
        self.keys = None
        if total:
            at = np.repeat(pos, count)
            # suffixes pos-depth, pos-depth-1, ..., down to the palindrome
            # start + 1, i.e. pos - ssp + 2
            runs = np.repeat(np.cumsum(count) - count, count)
            first = at - depth - (np.arange(total) - runs)
            self.keys = np.sort(first * (n + 1) + at)
            at = self.keys % (n + 1)
            self.lower = np.searchsorted(self.keys,
                                         np.arange(n + 1) * (n + 1))
        # numpy.random would map megabytes of extension code into build
        rng = random.SystemRandom()
        self.mods = []
        for m in _MODULI:
            pw = _powers(rng.randrange(2, m - 1), n + 1, m)
            pre = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(codes[:n] * pw[:n] % m, out=pre[1:])
            cum = None
            if total:
                cum = np.zeros(total + 1, dtype=np.int64)
                np.cumsum((n + 2 - codes[at]) * pw[at] % m, out=cum[1:])
            self.mods.append((m, pw, pre, cum))

    def _corrections(self, starts, length):
        """Index pair into the crossing sums for the windows of the
        suffixes at starts, columns depth+1..length."""
        upper = np.searchsorted(self.keys,
                                starts * (self.n + 1) + starts + length)
        return self.lower[starts], upper

    def equal(self, a, b, length):
        """Whether the windows of suffixes a and b agree through column
        length."""
        d = self.depth
        if self.keys is not None:
            a_lo, a_hi = self._corrections(a, length)
            b_lo, b_hi = self._corrections(b, length)
        same = None
        for m, pw, pre, cum in self.mods:
            fa = pre[a + length] - pre[a + d]
            fb = pre[b + length] - pre[b + d]
            if cum is not None:
                fa += cum[a_hi] - cum[a_lo]
                fb += cum[b_hi] - cum[b_lo]
            # B^-a fa = B^-b fb, cross-multiplied
            fa %= m
            fb %= m
            fa *= pw[b]
            fb *= pw[a]
            eq = fa % m == fb % m
            same = eq if same is None else same & eq
        return same

    def lcp(self, a, b, lo, hi):
        """Common encoding prefix of the suffixes a and b, known to be at
        least lo (and lo >= depth) and at most hi: galloping from lo, then
        binary search.  Overwrites lo and hi, and returns lo."""
        todo = np.flatnonzero(lo < hi)
        gallop = np.ones(todo.size, dtype=bool)
        step = 1
        while todo.size:
            low, high = lo[todo], hi[todo]
            probe = np.where(gallop, np.minimum(low + step, high),
                             (low + high + 1) >> 1)
            eq = self.equal(a[todo], b[todo], probe)
            low = np.where(eq, probe, low)
            high = np.where(eq, high, probe - 1)
            lo[todo] = low
            hi[todo] = high
            gallop &= eq
            open_ = low < high
            todo = todo[open_]
            gallop = gallop[open_]
            step <<= 1
        return lo


def _powers(base, count, m):
    """base**0 .. base**(count-1) modulo m, by doubling."""
    pw = np.empty(count, dtype=np.int64)
    pw[0] = 1
    done, mult = 1, base
    while done < count:
        t = min(done, count - done)
        np.multiply(pw[:t], mult, out=pw[done:done + t])
        pw[done:done + t] %= m
        mult = mult * mult % m
        done += t
    return pw


def _refine_by_columns(codes, handover):
    """Phase 1: refine the rows still tied with a neighbour by one exact
    column at a time, until none is tied or handover says to stop.

    Returns (order, lcp, rows, groups, depth): order[r] is the suffix at
    row r, and lcp[r] the common prefix of rows r and r+1 once a column
    has told them apart (col - 1 for a boundary drawn at column col);
    rows lists the tied rows in row order and groups their group labels
    (non-decreasing), all of whose suffixes agree on the first depth
    columns.
    """
    order = np.arange(len(codes), dtype=np.int64)
    lcp = np.empty(len(codes) - 1, dtype=np.int64)
    rows = order.copy()
    groups = np.zeros(len(codes), dtype=np.int64)
    stride = len(codes) + 2
    col = steps = 0
    while rows.size and not handover(col, steps):
        col += 1
        steps += rows.size
        starts = order[rows]
        key = _shown(codes, starts + (col - 1), col)
        key += groups * stride
        perm = np.argsort(key, kind="stable")
        key = key[perm]
        order[rows] = starts[perm]
        head = np.empty(rows.size, dtype=bool)
        head[0] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        lcp[rows[:-1][head[1:] & (groups[1:] == groups[:-1])]] = col - 1
        keep = _tied(head)
        groups, rows = np.cumsum(head)[keep], rows[keep]
    return order, lcp, rows, groups, col


def _tied(head):
    """Mask of the rows whose group, the rows from one flagged in head to
    the next, has at least two rows."""
    alone = head.copy()
    alone[:-1] &= head[1:]
    return ~alone


def _refine_by_fingerprints(codes, order, adjacent, rows, groups, depth):
    """Phase 2: multikey quicksort of the tied groups left by phase 1, in
    place on order and on adjacent, the common prefixes of adjacent rows.

    Each group takes its middle row as pivot.  Every member finds its
    common prefix with the pivot by fingerprints and is split on the
    exact value at the next column: members below the pivot in ascending
    order of that prefix length, members above in descending order, and
    members agreeing on (side, length, value) stay tied one column
    deeper.  Two rows a split tells apart have the smaller of their
    common prefixes with the pivot in common (the pivot's own is its
    length), so adjacent takes that at each boundary drawn inside a
    group.
    """
    n = len(codes) - 1
    windows = _Windows(codes, depth)
    known = np.full(rows.size, depth, dtype=np.int64)
    while rows.size:
        starts = order[rows]
        head = np.empty(rows.size, dtype=bool)
        head[0] = True
        np.not_equal(groups[1:], groups[:-1], out=head[1:])
        first = np.flatnonzero(head)
        group = np.cumsum(head) - 1
        pivot_at = (first + np.append(first[1:], rows.size)) >> 1
        pivot = starts[pivot_at][group]
        cap = np.minimum(n - starts, n - pivot)
        known[pivot_at] = cap[pivot_at]
        lcp = windows.lcp(starts, pivot, known, cap)
        mine = _shown(codes, starts + lcp, lcp + 1)
        side = np.where(mine > _shown(codes, pivot + lcp, lcp + 1), 2, 0)
        side[pivot_at] = 1
        perm = np.lexsort((mine, np.where(side, -lcp, lcp), side, group))
        order[rows] = starts[perm]
        group, side, lcp, mine = group[perm], side[perm], lcp[perm], mine[perm]
        head = np.empty(rows.size, dtype=bool)
        head[0] = True
        head[1:] = ((group[1:] != group[:-1]) | (side[1:] != side[:-1])
                    | (lcp[1:] != lcp[:-1]) | (mine[1:] != mine[:-1]))
        cut = np.flatnonzero(head[1:] & (group[1:] == group[:-1]))
        adjacent[rows[cut]] = np.minimum(lcp[cut], lcp[cut + 1])
        keep = _tied(head)
        groups, rows, known = np.cumsum(head)[keep], rows[keep], lcp[keep] + 1
        # this round's permuted rows would otherwise stay alive through
        # the next round's fingerprint search, the sort's memory peak
        del group, side, lcp, mine, perm


def _pal_suffix_sort(codes):
    """(sa, lcp) for the ssp codes of a text (_encode): sa holds the
    starts 1..n+1 sorted by the ssp encodings of the suffixes, and lcp[r]
    the common encoding prefix of rows r+1 and r+2, both as int64 arrays.

    Phase 1 refines tied rows column by column; phase 2 takes over the
    groups still tied once that stops paying (see _Handover) and splits
    them by fingerprinted common prefixes.  The order does not depend on
    the fingerprint bases; a collision can only yield a wrong order or a
    wrong lcp, which the certificate of _first_refuted then rejects.
    """
    order, lcp, rows, groups, depth = _refine_by_columns(codes,
                                                         _Handover(codes))
    if rows.size:
        _refine_by_fingerprints(codes, order, lcp, rows, groups, depth)
    order += 1
    return order, lcp


def _first_refuted(codes, starts, lcp):
    """(r, unsorted) for the first adjacent pair r of the 0-based starts
    (n+1 values in 0..n) that the claimed common prefixes lcp fail to
    certify, or (-1, False) when starts is a permutation and every pair
    (a, b) with claim l passes:

    (i) l is inside both suffixes, and a is below b at column l+1;
    (ii) a and b have the same events (below) at columns 2..l;
    (iii) every claim between the rows of a+1 and b+1 is at least l-1.

    The event of start a is the position q whose shortest
    suffix-palindrome starts at a, at column E(a) = ssp(T)[q].  There is
    at most one: were T[a..q] and T[a..q'], q < q', both shortest, the
    mirror image of the first inside the second would be a shorter
    suffix-palindrome ending at q'.  Column k+1 of suffix a shows what
    column k of suffix a+1 does, except at E(a), where a+1 shows INF.  By
    induction on j, every true common prefix is then at least
    min(claim, j): (iii) lifts this to a+1 and b+1, as the common prefix
    is an ultrametric along any row order, and (ii) and the INF at column
    1 carry it to a and b.  So every claim is a lower bound, and (i)
    makes it exact and the pair strictly increasing: a wrong claim can
    only be refuted.  This is the LCP check for suffix arrays (Burkhardt
    and Karkkainen, CPM 2003), with events for the one column in which a
    shift by one start changes a suffix.

    unsorted says that the pair named fails (i)'s order: a is above b at
    column l+1, or starts repeats one.  Equal values there refute the
    claim, not the order, as a true claim l makes the two differ at l+1.
    A pair out of order is named before any pair whose claim alone is
    refuted.
    """
    n = len(codes) - 1
    row_of = np.full(n + 1, -1, dtype=np.int32)
    row_of[starts] = np.arange(n + 1, dtype=np.int32)
    # n+1 starts in 0..n leave a row unset only when one repeats
    if (row_of < 0).any():
        return 0, True
    a, b = starts[:-1], starts[1:]
    # a claim outside the shorter suffix is refuted, and checked as 0
    refuted = (lcp < 0) | (lcp > n - np.maximum(a, b))
    lcp = np.where(refuted, 0, lcp)
    at_a, at_b = (_shown(codes, s + lcp, lcp + 1) for s in (a, b))
    unsorted = ~refuted & (at_a > at_b)
    refuted |= at_a == at_b
    # 8 B a row each: kept through the checks below, they would raise the
    # build's memory peak
    del at_a, at_b
    deep = np.flatnonzero(lcp >= 2)
    ra, rb = row_of[a[deep] + 1], row_of[b[deep] + 1]
    refuted[deep] |= (_range_minima(lcp, np.minimum(ra, rb),
                                    np.maximum(ra, rb)) < lcp[deep] - 1)
    event = np.zeros(n + 1, dtype=np.int32)
    q = np.flatnonzero(codes[:n] <= n)
    event[q - codes[q] + 1] = codes[q]
    ea, eb = event[a], event[b]
    refuted |= np.where(ea <= lcp, ea, 0) != np.where(eb <= lcp, eb, 0)
    # a pair out of order is named before a claim other pairs refute
    out_of_order = bool(unsorted.any())
    bad = np.flatnonzero(unsorted if out_of_order else refuted)
    return (int(bad[0]), out_of_order) if bad.size else (-1, False)


def _refutation(r, unsorted):
    """What _first_refuted's (r, unsorted) says of rows r+1 and r+2: that
    they are out of order, or that their claimed common prefix is
    refuted."""
    if unsorted:
        return "rows %d and %d are not strictly increasing" % (r + 1, r + 2)
    return ("the common prefix claimed for rows %d and %d is refuted"
            % (r + 1, r + 2))


def _certified_order(text):
    """(K, pi codes, sa, verdict): _encode's K and pi codes, the sorted
    starts sa from _pal_suffix_sort, and _first_refuted's (r, unsorted)
    on them with the common prefixes the sort claims."""
    codes, k, pi_codes = _encode(text)
    sa, lcp = _pal_suffix_sort(codes)
    return k, pi_codes, sa, _first_refuted(codes, sa - 1, lcp)


def _range_minima(vals, lo, hi):
    """min(vals[lo[i]:hi[i]]) for every i, lo < hi, offline in int32: one
    buffer holds the minima of the windows of length 2**k, one level k at
    a time, and each range of width [2**k, 2**(k+1)) reads the two windows
    of its level that cover it."""
    width = hi - lo
    out = np.empty(lo.size, dtype=np.int32)
    buf = vals.astype(np.int32)
    for k in range(int(width.max(initial=0)).bit_length()):
        at = np.flatnonzero(width >> k == 1)
        out[at] = np.minimum(buf[lo[at]], buf[hi[at] - (1 << k)])
        np.minimum(buf[:-(1 << k)], buf[1 << k:], out=buf[:-(1 << k)])
    return out


@dataclass
class PalFMIndex:
    """Built index over a text of length n; n+1 rows."""

    n: int
    delta: int
    K: int
    F: CodeSeq
    L: CodeSeq
    lf_values: array
    lf_rmq: RmqIndex
    B: BitVec
    S: array
    _hop: array = field(default=None, init=False, repr=False,
                        compare=False)

    # -- queries ---------------------------------------------------------

    def lf(self, i):
        """Last-to-first row mapping; 1 for the row whose suffix starts
        the text (its L is DOLLAR)."""
        if not 1 <= i <= self.n + 1:
            raise ValueError("row %r out of range" % (i,))
        return self.lf_values[i - 1]

    def _lf_formula(self, i):
        c = self.L.code_at(i)
        if c == DOLLAR:
            return 1
        return self.F.select(self.L.rank(i, c), c)

    def backward_step(self, iv, pi_cw, g):
        """Interval for cw from the interval for w.

        pi_cw is pi of the extended pattern suffix; g is the number of
        character-keyed prefix-palindrome groups of the old suffix w.
        """
        if iv.is_empty:
            raise ValueError("backward_step on an empty interval")
        if pi_cw == DOLLAR:
            raise ValueError("pi_cw cannot be DOLLAR")
        if g < 0:
            raise ValueError("negative group count")
        if pi_cw != INF:
            pi_cw = int(pi_cw)
        b, e = self._step(iv.b, iv.e, pi_cw, g)
        return _EMPTY if b > e else PalInterval(b, e)

    def _step(self, b, e, pi_cw, g):
        """Rows (b', e') for cw from the rows [b..e] of w; (1, 0) when no
        row survives."""
        if pi_cw != INF:
            if pi_cw > self.K:
                # finite group id no text suffix ever takes; its section
                # code would collide with INF's, so answer before encoding
                return 1, 0
            before, through = self.L.rank_pair(b, e, pi_cw, pi_cw)
            if through == before:
                return 1, 0
            return self.F.select_pair(before + 1, through, pi_cw)
        # no prefix-palindrome in cw: survivors are rows whose L exceeds g,
        # and they map to the top of the LF image of [b..e].  INF rows
        # qualify whatever g is, so the lower cut clamps to the INF code.
        hi = self.K + 1
        before, through = self.L.rank_pair(b, e, g + 1 if g < hi else hi, hi)
        cnt = through - before
        if cnt == 0:
            return 1, 0
        top = self.lf_rmq.max_value(b, e)
        return top - cnt + 1, top

    def _pattern_interval(self, p):
        """Rows (b, e) whose suffixes pal-match p; (1, 0) when none."""
        if len(p) == 0:
            raise ValueError("empty pattern")
        step = self._step
        b, e = 1, self.n + 1
        for pi_cw, g in zip(*palcore._search_profile(p)):
            b, e = step(b, e, pi_cw, g)
            if b > e:
                break
        return b, e

    def count(self, p):
        """Number of windows of the text pal-matching p."""
        b, e = self._pattern_interval(p)
        return e - b + 1

    def locate(self, p):
        """Sorted 1-based start positions of windows pal-matching p.

        An interval of at least _WIDE_WALK rows takes all its rows one LF
        step at a time in numpy (_wide_walk); a narrower one walks row by
        row in Python (_walk)."""
        b, e = self._pattern_interval(p)
        if e - b + 1 >= _WIDE_WALK:
            return self._wide_walk(b, e)
        return sorted(self._walk(range(b, e + 1)))

    def sa_access(self, i):
        """Suffix start stored at row i, via the delta-sampled walk."""
        if not 1 <= i <= self.n + 1:
            raise ValueError("row %r out of range" % (i,))
        return self._walk((i,))[0]

    def _hops(self):
        """The one table the walks read, built on the first walk from
        lf_values, B and S: 0-based row j holds its LF row, 0-based, when
        unmarked, and rows + its sample value when marked, so one
        comparison with rows tells a sampled row from the next step."""
        rows = self.n + 1
        hop = np.asarray(self.lf_values, dtype=np.int64) - 1
        hop[np.frombuffer(self.B._codes, np.bool_)] = \
            rows + np.asarray(self.S, dtype=np.int64)
        self._hop = int_list(hop)
        return self._hop

    def _walk(self, rows):
        """Suffix starts of the given rows: each follows LF until a
        sampled row, at most delta steps, and adds the steps taken to the
        sample stored there.  One read of the hop table (_hops) a step
        both moves a row and tells whether it is sampled.

        One row at a time in Python: a hit costs 0.11-0.13 us at delta 1,
        0.18-0.19 us at delta 4 and 0.71-0.73 us at delta 32, however many
        rows there are (random text over 4 letters, n = 40,000; one pinned
        core of a shared 2-vCPU Xeon)."""
        hop = self._hop or self._hops()
        top = self.n + 1
        span = range(self.delta + 1)
        starts = []
        for j in rows:
            v = hop[j - 1]
            for steps in span:
                if v >= top:
                    break
                v = hop[v]
            else:
                raise IndexFormatError("sampling walk exceeded delta; "
                                       "index is inconsistent")
            starts.append(v - top + steps)
        return starts

    def _wide_walk(self, b, e):
        """Sorted suffix starts of the rows [b..e], as _walk finds them,
        but every row takes its LF step in one numpy round: a round reads
        the hop table at every row still walking, and sets aside the rows
        that reached a sampled row with their starts.  The table is read
        through a zero-copy view, so nothing but the table, built on the
        first walk as in _walk, is held between calls.

        A round costs 3-6 us plus a few ns a row, and a walk takes up to
        delta rounds, so a narrow interval pays about 0.1 ms at delta 32.
        On 8,000 rows a hit costs 0.02 us at delta 1, 0.04 us at delta 4
        and 0.11 us at delta 32, on the text and host _walk gives."""
        hop = np.asarray(self._hop or self._hops())
        top = self.n + 1
        j = np.arange(b - 1, e)
        found = []
        for steps in range(self.delta + 1):
            v = hop[j]
            on = v >= top
            found.append(v[on] + (steps - top))
            # an intp index spares the gather a cast of int32 rows
            j = v[~on].astype(np.intp)
            if not j.size:
                break
        else:
            raise IndexFormatError("sampling walk exceeded delta; "
                                   "index is inconsistent")
        starts = np.concatenate(found)
        starts.sort()
        return starts.tolist()

    # -- reporting -------------------------------------------------------

    def stats(self):
        """Image section sizes, the bytes each loaded component holds (a
        table no query has built yet counts 0, LF, which lf_rmq reads from
        lf_values, counts once, and the walks' hop table counts with the
        sampling, B), and the index's headline parameters."""
        section_bits = {"header": _HEADER.size * 8}
        for tag, payload in _sections(self):
            section_bits[_SECTION_NAMES[tag]] = \
                (_SECTION.size + len(payload)) * 8
        section_bits["checksum"] = _CRC.size * 8
        held_bytes = {
            "F": self.F.held_bytes(),
            "L": self.L.held_bytes(),
            "lf_values": sys.getsizeof(self.lf_values),
            "lf_rmq": self.lf_rmq.held_bytes(),
            "B": self.B.held_bytes() + (0 if self._hop is None
                                        else sys.getsizeof(self._hop)),
            "S": sys.getsizeof(self.S),
        }
        total_bits = sum(section_bits.values())
        return {
            "n": self.n,
            "rows": self.n + 1,
            "delta": self.delta,
            "K": self.K,
            "samples": len(self.S),
            "section_bits": section_bits,
            "total_bits": total_bits,
            "bits_per_symbol": total_bits / max(self.n, 1),
            "derived_bits": {k: v * 8 for k, v in held_bytes.items()},
        }

    # -- verification ----------------------------------------------------

    def verify(self, text):
        """Check the structural invariants, strongest-precondition last.

        Intrinsic checks (histograms, DOLLAR placement, LF non-crossing)
        run before anything that rebuilds from the text, so a corrupted
        component is named rather than drowned in downstream noise.  The
        suffix order rebuilt from the text is certified (sorted-order)
        before any row is compared against it, so a wrong re-sort is named
        as such.
        """
        rows = self.n + 1
        fc, lc = (np.frombuffer(c._codes, np.uint8) for c in (self.F, self.L))

        bad = _code_mismatch(fc, lc, self.K)
        if bad:
            return VerifyResult(False, *bad)

        # rows sharing an L code must map to increasing rows
        lf = np.array(self.lf_values)
        order = np.argsort(lc, kind="stable")
        crossed = (np.diff(lc[order]) == 0) & (np.diff(lf[order]) <= 0)
        if crossed.any():
            i = order[crossed.argmax() + 1]
            return VerifyResult(False, "lf-noncrossing",
                                "rows with L code %d map out of order "
                                "at row %d" % (lc[i], i + 1))

        if len(text) != self.n:
            return VerifyResult(False, "definitional-lf",
                                "text length %d does not match n = %d"
                                % (len(text), self.n))
        k, pi_codes, sa, (bad, unsorted) = _certified_order(text)
        if bad >= 0:
            return VerifyResult(False, "sorted-order",
                                _refutation(bad, unsorted))
        # row_of[s]: the row of start s; row 1 is LF of the row of start 1
        row_of = np.ones(rows + 1, dtype=np.int64)
        row_of[sa] = np.arange(1, rows + 1)
        want = row_of[sa - 1]
        differ = np.flatnonzero(lf != want)
        if differ.size:
            i = differ[0]
            return VerifyResult(False, "definitional-lf",
                                "row %d: LF is %d, definition gives %d"
                                % (i + 1, lf[i], want[i]))

        differ = np.flatnonzero((fc != pi_codes[sa])
                                | (lc != pi_codes[sa - 1]) | (k != self.K))
        if differ.size:
            return VerifyResult(False, "fl-content",
                                "row %d differs from the pi values "
                                "recomputed off the text (K %d, text "
                                "gives %d)" % (differ[0] + 1, self.K, k))

        marked = (sa - 1) % self.delta == 0
        marks = np.frombuffer(self.B._codes, np.uint8)
        if not (np.array_equal(marks, marked)
                and np.array_equal(self.S, sa[marked])):
            return VerifyResult(False, "sampling",
                                "delta marks or sample values do not match "
                                "the suffix order")
        return VerifyResult(True)


def _code_mismatch(fcodes, lcodes, k):
    """(violation, detail) when the F and L code rows cannot belong to any
    index, else None: their histograms over [0..k+1] must be equal, and
    F's only DOLLAR must sit in row 1 (the empty suffix)."""
    f_hist = np.bincount(fcodes, minlength=k + 2)
    l_hist = np.bincount(lcodes, minlength=k + 2)
    differ = np.flatnonzero(f_hist != l_hist)
    if differ.size:
        c = differ[0]
        return ("histogram", "F and L code histograms differ: code %d: "
                "F has %d, L has %d" % (c, f_hist[c], l_hist[c]))
    if fcodes[0] != DOLLAR or f_hist[DOLLAR] != 1:
        return ("dollar-placement", "each of F and L needs exactly one "
                "DOLLAR, F's in row 1")
    return None


def _assemble(n, delta, k, fcodes, lcodes):
    """(index, starts) for F and L code rows, int arrays or bytes of n+1
    codes in [0..k+1]; starts[r-1] is the suffix start of row r.  Rows
    given as bytes become F's and L's codes as they are.

    The r-th occurrence of a code in L maps to its r-th occurrence in F,
    which gives LF; walking LF from row 1 (the empty suffix) must meet
    every row once, at the starts n+1, n, ..., 1, which fix the sampling.
    Raises IndexFormatError when the codes allow no such walk.
    """
    F, L = CodeSeq(fcodes, k + 1), CodeSeq(lcodes, k + 1)
    fcodes, lcodes = (np.frombuffer(c._codes, np.uint8) for c in (F, L))
    bad = _code_mismatch(fcodes, lcodes, k)
    if bad:
        raise IndexFormatError(bad[1])
    rows = n + 1
    # LF is filled in place in its int32 array, which RmqIndex reads by
    # reference: an int64 LF beside the two int64 argsorts would raise a
    # load's memory peak; the 1 is added in place too, sparing a third
    # 8 B/row temporary beside them
    typecode = "i" if rows <= 2 ** 31 - 1 else "q"
    lf_values = array(typecode, [0]) * rows
    order = np.argsort(fcodes, kind="stable")
    order += 1
    np.asarray(lf_values)[np.argsort(lcodes, kind="stable")] = order
    del order
    # LF is a permutation: the walk returns to row 1, after all n+1 rows
    walk = array(typecode, [0])
    r = lf_values[0] - 1
    while r:
        walk.append(r)
        r = lf_values[r] - 1
    if len(walk) != rows:
        raise IndexFormatError("LF walk from row 1 returns after %d of %d "
                               "rows" % (len(walk), rows))
    starts = np.empty(rows, dtype=np.int64)
    starts[walk] = np.arange(rows, 0, -1)
    marked = (starts - 1) % delta == 0
    idx = PalFMIndex(
        n=n, delta=delta, K=k,
        F=F, L=L,
        lf_values=lf_values,
        lf_rmq=RmqIndex(lf_values),
        B=BitVec(marked),
        S=int_list(starts[marked]),
    )
    return idx, starts


def build(text, delta=32, force=False):
    """Index the text with locate sampling rate delta.

    The suffix order and its adjacent common prefixes come from
    _pal_suffix_sort.  A self-check then certifies every pair of adjacent
    rows strictly increasing with those prefixes (_first_refuted, exact
    whatever the fingerprints drew) and requires the LF walk over the F
    and L codes to meet the sorted starts; a failure raises
    SelfCheckError.  Texts longer than BUILD_GUARD are rejected
    unless force is given.
    """
    n = len(text)
    if not 1 <= delta <= max(n, 1):
        raise ValueError("delta must be in [1..%d]" % max(n, 1))
    if n > BUILD_GUARD and not force:
        raise ValueError("text of %d symbols exceeds the construction guard "
                         "(%d; a loaded index takes about 15 times its "
                         "image in memory); pass force=True (--force-large) "
                         "to override" % (n, BUILD_GUARD))
    k_max, pi_codes, sa, (bad, unsorted) = _certified_order(text)
    if bad >= 0:
        raise SelfCheckError("construction self-check failed: %s"
                             % _refutation(bad, unsorted))
    # the LF walk over the codes must find the sorted starts again
    try:
        idx, starts = _assemble(n, delta, k_max, pi_codes[sa],
                                pi_codes[sa - 1])
    except IndexFormatError as err:
        raise SelfCheckError("construction self-check failed: %s" % err)
    if not np.array_equal(starts, sa):
        raise SelfCheckError("construction self-check failed: the LF walk "
                             "does not meet the sorted starts")
    return idx


# -- persistence ---------------------------------------------------------


def _sections(idx):
    """The image's (tag, payload) sections in order: the codes L and F
    hold, the 0/1 row marks packed eight to a byte, and the sample
    values."""
    marks = np.frombuffer(idx.B._codes, np.uint8)
    return [(_SEC_L, idx.L._codes),
            (_SEC_F, idx.F._codes),
            (_SEC_MARKS, np.packbits(marks, bitorder="little").tobytes()),
            (_SEC_SAMPLES, np.asarray(idx.S, dtype="<u8").tobytes())]


def serialize(idx):
    """Little-endian image: magic, version, flags, n, delta, K, tagged
    sections (L codes, F codes, packed marks, sample values), crc32.
    The code sections are the bytes F and L hold."""
    image = _HEADER.pack(MAGIC, FORMAT_VERSION, 0, idx.n, idx.delta, idx.K)
    image += b"".join(_SECTION.pack(tag, len(payload)) + payload
                      for tag, payload in _sections(idx))
    return image + _CRC.pack(zlib.crc32(image))


def deserialize(data):
    """Rebuild an index from serialize() output.

    LF, the sampling and the succinct tables are derived from F and L, and
    the stored mark and sample sections must equal the derived ones.  Each
    of the four sections must appear exactly once; bad magic, version,
    truncation and checksum raise their own error types.
    """
    if len(data) < len(MAGIC):
        raise TruncatedError("image shorter than the magic")
    if data[:len(MAGIC)] != MAGIC:
        raise BadMagicError("not an index image")
    if len(data) < _HEADER.size + _CRC.size:
        raise TruncatedError("image shorter than its fixed header")
    _, version, flags, n, delta, k_max = _HEADER.unpack_from(data)
    if version != FORMAT_VERSION or flags != 0:
        raise VersionError("unsupported version %d / flags %#x"
                           % (version, flags))
    end = len(data) - _CRC.size
    (stored,) = _CRC.unpack_from(data, end)
    sections = []
    off = _HEADER.size
    while off < end:
        if off + _SECTION.size > end:
            raise TruncatedError("section header runs past the image")
        tag, length = _SECTION.unpack_from(data, off)
        off += _SECTION.size
        if off + length > end:
            raise TruncatedError("section %d runs past the image" % tag)
        sections.append((tag, bytes(data[off:off + length])))
        off += length
    if stored != zlib.crc32(data[:end]):
        raise ChecksumError("checksum mismatch")
    payloads = dict(sections)
    missing = set(_SECTION_NAMES) - set(payloads)
    if missing:
        raise IndexFormatError("missing sections %s" % sorted(missing))
    # all four are there, so any further section is unknown or repeated
    if len(sections) > len(_SECTION_NAMES):
        raise IndexFormatError("unknown or repeated sections")
    lbytes, fbytes = payloads[_SEC_L], payloads[_SEC_F]
    rows = n + 1
    if len(lbytes) != rows or len(fbytes) != rows:
        raise IndexFormatError("code section length does not match n")
    # a one-symbol suffix has no prefix-palindrome, so INF (K+1) is the
    # largest code of any text but the empty one, whose K is 0
    if np.frombuffer(lbytes + fbytes, np.uint8).max() != k_max + (n > 0):
        raise IndexFormatError("largest code is not K+1, the INF of the "
                               "declared alphabet")
    if not 1 <= delta <= max(n, 1):
        raise IndexFormatError("delta outside [1..max(n,1)]")
    idx = _assemble(n, delta, k_max, fbytes, lbytes)[0]
    if payloads != dict(_sections(idx)):
        raise IndexFormatError("mark or sample section differs from the "
                               "sampling the LF walk derives")
    return idx
