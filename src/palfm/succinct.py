"""Rank/select/range-count sequences and a range-maximum index.

Desk-scale stand-ins for the succinct structures an FM-index style search
needs: per-symbol prefix counts and position lists give O(1) rank/select
and rangeCount over a small integer alphabet, and a sparse table gives O(1)
range maximum with the leftmost winner on ties.  All of it costs
O(n log n) bits or less; the index reports measured sizes instead of
pretending to be entropy-compressed.

Positions are 1-based, matching the row numbering of the index; rank takes
i in [0..n] with rank at 0 being 0.

Backward search takes each of its steps through one call per structure,
so that the table layout stays private to this module:

- ``CodeSeq.rank_pair(b, e, c)``: the ranks of code c at b-1 and at e,
  i.e. the occurrences of c before a row interval [b..e] and through it;
- ``CodeSeq.select_pair(r1, r2, c)``: the positions of the r1-th and the
  r2-th occurrence of c, the ends of the rows those occurrences map to;
- ``CodeSeq.range_count(i, j, lo, hi)``: codes in [lo..hi] within [i..j];
- ``RmqIndex.max_value(i, j)``: the maximum value itself over [i..j].

Each checks its arguments once and raises QueryRangeError outside its
domain.

numpy builds every table; the read path still indexes Python lists, since
a list read returns an int the list already holds, while an ndarray or
memoryview read allocates a scalar (5-15 % slower counts, up to 30 %
slower locates).  All tables take their ints from one shared pool, so an
entry costs a pointer rather than a pointer and an int object.
"""

import numpy as np

_pool = np.arange(0, dtype=object)  # _pool[v]: the shared int of value v


def int_list(values):
    """Non-negative integers as a list of ints from the shared pool."""
    global _pool
    idx = np.asarray(values, dtype=np.intp)
    if idx.size and idx.max() >= len(_pool):
        _pool = np.arange(int(idx.max()) + 1, dtype=object)
    return _pool[idx].tolist()


class QueryRangeError(ValueError):
    """A rank/select/rmq argument is outside the structure's domain."""


class BitVec:
    """Bit sequence with O(1) rank and select for both bit values."""

    def __init__(self, bits):
        ones = np.asarray(bits, dtype=bool)
        self._n = len(ones)
        self._bits = int_list(ones)
        self._rank1 = int_list(np.concatenate(([0], np.cumsum(ones))))
        self._pos = (int_list(np.flatnonzero(~ones) + 1),
                     int_list(np.flatnonzero(ones) + 1))

    def __len__(self):
        return len(self._bits)

    def bit_at(self, i):
        if not 0 < i <= self._n:
            raise QueryRangeError("position %r out of range" % (i,))
        return self._bits[i - 1]

    def rank(self, i, b):
        """Occurrences of bit b in positions [1..i]."""
        if not 0 <= i <= len(self._bits):
            raise QueryRangeError("rank position %r out of range" % (i,))
        ones = self._rank1[i]
        return ones if b else i - ones

    def select(self, r, b):
        """Position of the r-th occurrence of bit b."""
        pos = self._pos[1 if b else 0]
        if not 1 <= r <= len(pos):
            raise QueryRangeError("select rank %r out of range" % (r,))
        return pos[r - 1]


class CodeSeq:
    """Sequence over codes [0..max_code] with rank, select and rangeCount.

    Codes outside the alphabet are legal query arguments for rank and
    rangeCount and simply never occur.
    """

    def __init__(self, codes, max_code):
        arr = np.asarray(codes, dtype=np.int64)
        self._max = int(max_code)
        n = self._n = len(arr)
        if n and not 0 <= arr.min() <= arr.max() <= self._max:
            raise ValueError("code outside [0..max_code]")
        self._codes = int_list(arr)
        # cum[c][i] = number of codes <= c among the first i entries
        le = np.zeros(n + 1, dtype=np.int64)
        self._cum = []
        for c in range(self._max + 1):
            np.cumsum(arr <= c, out=le[1:])
            self._cum.append(int_list(le))
        # a stable sort lists each code's positions in order, code by code
        order = np.argsort(arr, kind="stable") + 1
        ends = np.cumsum(np.bincount(arr, minlength=self._max + 1))
        self._pos = {c: int_list(pos)
                     for c, pos in enumerate(np.split(order, ends[:-1]))
                     if len(pos)}

    def __len__(self):
        return len(self._codes)

    @property
    def max_code(self):
        return self._max

    def code_at(self, i):
        if not 1 <= i <= len(self._codes):
            raise QueryRangeError("position %r out of range" % (i,))
        return self._codes[i - 1]

    def codes(self):
        """The raw code list (a copy)."""
        return list(self._codes)

    def _le(self, c, i):
        # codes <= c among first i; c may fall outside the alphabet
        if c < 0:
            return 0
        if c > self._max:
            c = self._max
        return self._cum[c][i]

    def rank(self, i, c):
        """Occurrences of code c in positions [1..i]."""
        if not 0 <= i <= len(self._codes):
            raise QueryRangeError("rank position %r out of range" % (i,))
        return self._le(c, i) - self._le(c - 1, i)

    def rank_pair(self, b, e, c):
        """(rank(b-1, c), rank(e, c)) for 1 <= b <= e+1 <= n+1."""
        if not 0 < b <= e + 1 <= self._n + 1:
            raise QueryRangeError("rank pair [%r..%r] out of range" % (b, e))
        if not 0 < c <= self._max:
            return self.rank(b - 1, c), self.rank(e, c)
        b -= 1
        hi = self._cum[c]
        lo = self._cum[c - 1]
        return hi[b] - lo[b], hi[e] - lo[e]

    def select(self, r, c):
        """Position of the r-th occurrence of code c."""
        pos = self._pos.get(c, ())
        if not 1 <= r <= len(pos):
            raise QueryRangeError("select rank %r out of range" % (r,))
        return pos[r - 1]

    def select_pair(self, r1, r2, c):
        """(select(r1, c), select(r2, c)) for 1 <= r1 <= r2 <= rank(n, c)."""
        pos = self._pos.get(c, ())
        if not 0 < r1 <= r2 <= len(pos):
            raise QueryRangeError("select pair %r, %r out of range"
                                  % (r1, r2))
        return pos[r1 - 1], pos[r2 - 1]

    def range_count(self, i, j, lo, hi):
        """Occurrences of codes in [lo..hi] within positions [i..j].

        An empty position range (i > j) or value range (lo > hi) counts 0.
        """
        if i > j:
            return 0
        if i < 1 or j > self._n:
            raise QueryRangeError("range [%r..%r] out of range" % (i, j))
        if hi > self._max:
            hi = self._max
        if lo > hi or hi < 0:
            return 0
        i -= 1
        row = self._cum[hi]
        cnt = row[j] - row[i]
        if lo > 0:
            row = self._cum[lo - 1]
            cnt -= row[j] - row[i]
        return cnt


class RmqIndex:
    """Sparse-table range maximum over a fixed integer array.

    rmq(i, j) returns the position of the maximum in [i..j]; on ties the
    leftmost maximum wins.
    """

    def __init__(self, values):
        self._v = list(values)
        n = self._n = len(self._v)
        v = np.asarray(self._v)
        # level k: 0-based position of the leftmost maximum of the 2^k
        # values from each i on; made a list at once, to keep peaks low
        level = np.arange(n)
        self._table = [int_list(level)] if n else []
        span = 1
        while 2 * span <= n:
            a = level[:n - 2 * span + 1]
            b = level[span:n - span + 1]
            level = np.where(v[a] >= v[b], a, b)
            self._table.append(int_list(level))
            span *= 2

    def __len__(self):
        return len(self._v)

    def table_entries(self):
        """Number of positions the sparse table stores."""
        return sum(len(row) for row in self._table)

    def rmq(self, i, j):
        """1-based position of the leftmost maximum of values[i..j]."""
        if not 1 <= i <= j <= len(self._v):
            raise QueryRangeError("rmq range [%r..%r] invalid" % (i, j))
        k = (j - i + 1).bit_length() - 1
        a = self._table[k][i - 1]
        b = self._table[k][j - (1 << k)]
        # a <= b because the blocks overlap, so >= keeps the leftmost winner
        return (a if self._v[a] >= self._v[b] else b) + 1

    def max_value(self, i, j):
        """Maximum of values[i..j], 1-based and inclusive."""
        if not 0 < i <= j <= self._n:
            raise QueryRangeError("rmq range [%r..%r] invalid" % (i, j))
        k = (j - i + 1).bit_length() - 1
        row = self._table[k]
        v = self._v
        a = v[row[i - 1]]
        b = v[row[j - (1 << k)]]
        return a if a >= b else b
