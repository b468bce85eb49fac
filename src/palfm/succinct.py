"""Rank/select sequences and a range-maximum index.

Desk-scale stand-ins for the succinct structures an FM-index style search
needs: per-symbol prefix counts and one stably sorted position table
give O(1) rank of a code range and select over a byte alphabet, and
per-block running maxima plus a sparse table over block maxima give O(1)
range maximum values.  A CodeSeq holds its codes as bytes, one per
position, the same bytes an index image stores; its prefix counts and
position table are built on first use, so an index holds only the ones
its queries read.  A BitVec is a CodeSeq over the codes 0 and 1, one
byte a bit; the locate walks read its bytes once, to build their own
table, and never its prefix counts.  The range maximum holds about two
entries per value.  The index reports what each structure holds
(held_bytes) instead of pretending to be entropy-compressed.

Positions are 1-based, matching the row numbering of the index; rank takes
i in [0..n] with rank at 0 being 0.

Backward search takes each of its steps through one call per structure,
so that the table layout stays private to this module:

- ``CodeSeq.rank_pair(b, e, lo, hi)``: the occurrences of codes in
  [lo..hi] before a row interval [b..e] and through it, so rank of one
  code at lo = hi, and the paper's rangeCount as their difference;
- ``CodeSeq.select_pair(r1, r2, c)``: the positions of the r1-th and the
  r2-th occurrence of c, the ends of the rows those occurrences map to;
- ``RmqIndex.max_value(i, j)``: the maximum value itself over [i..j].

Each checks its arguments once and raises QueryRangeError outside its
domain.

numpy builds every table, and each table with an entry per position is
an array('i') of 4-byte entries (int_list), where a Python list would
cost an 8-byte pointer per entry and an int object behind it.  On random
text over 4 letters, n = 40,000, a loaded index holds 16.4 bytes per
row, and 44.5 after one count and one locate (tracemalloc).  An array
read allocates the int it returns: 66 ns a read against 47 ns for a list
and 94 ns for an ndarray (Python 3.11, one core of a shared 2-vCPU
machine).  Counts pay that on a few reads per backward step, 5-10 % of a
count.
The locate walk reads none of this module's tables: on its first walk the
index merges LF, the marks and the samples into one hop table
(PalFMIndex._hops) of 4-byte entries, a row's LF row or, on a sampled
row, the row count plus its sample, so an LF step is one read, in one of
two ways (PalFMIndex.locate).  Row by row in Python a hit costs
0.71-0.73 us at delta 32 and 0.11-0.13 us at delta 1.  An interval of at
least index._WIDE_WALK rows is walked in numpy instead, through a
zero-copy ndarray view of the table, one LF step for all its rows still
walking a round: a round costs 3-6 us, and a walk takes up to delta
rounds, so on 8,000 rows a hit costs 0.10-0.11 us at delta 32 and 0.02 us
at delta 1 (Python 3.11, numpy 2.4, one pinned core of a shared 2-vCPU
Xeon).
"""

import sys
from array import array

import numpy as np


def int_list(values):
    """Non-negative integers as an array('i') of 4-byte entries, or as an
    array('q') when a value passes 2**31 - 1."""
    arr = np.asarray(values)
    if arr.min(initial=0) < 0:
        raise ValueError("int_list takes non-negative integers")
    wide = arr.max(initial=0) > 2 ** 31 - 1
    # a repeated array is sized exactly; frombytes and extend over-allocate
    out = array("q" if wide else "i", [0]) * arr.size
    np.asarray(out)[:] = arr
    return out


class QueryRangeError(ValueError):
    """A rank/select/rmq argument is outside the structure's domain."""


class CodeSeq:
    """Sequence over codes [0..max_code] with rank and select.

    max_code is at most 255: the codes are held as bytes, and codes given
    as bytes are held as they are.  Codes outside the alphabet are legal
    rank arguments and simply never occur; select raises on them.  The
    prefix counts (rank) and the position table (select) are each built
    on first use.
    """

    def __init__(self, codes, max_code):
        as_is = isinstance(codes, bytes)
        arr = np.frombuffer(codes, np.uint8) if as_is else np.asarray(codes)
        self._max = int(max_code)
        self._n = len(arr)
        if not 0 <= arr.min(initial=0) <= arr.max(initial=0) \
                <= self._max <= 255:
            raise ValueError("code outside [0..max_code], or max_code "
                             "above 255, the largest byte")
        self._codes = codes if as_is else arr.astype(np.uint8).tobytes()
        self._cum = self._pos = self._off = None

    def _build_cum(self):
        # cum[c][i] = number of codes <= c among the first i entries, for
        # c below max_code: every code is at most max_code, so its row
        # would read i, and rank_pair uses i itself
        arr = np.frombuffer(self._codes, dtype=np.uint8)
        le = np.zeros(self._n + 1, dtype=np.int64)
        self._cum = []
        for c in range(self._max):
            np.cumsum(arr <= c, out=le[1:])
            self._cum.append(int_list(le))
        return self._cum

    def _build_pos(self):
        # a stable sort lists each code's positions in order, code by code;
        # code c's run is pos[off[c]:off[c + 1]]
        arr = np.frombuffer(self._codes, dtype=np.uint8)
        ends = np.cumsum(np.bincount(arr, minlength=self._max + 1))
        self._off = [0, *ends.tolist()]
        self._pos = int_list(np.argsort(arr, kind="stable") + 1)
        return self._pos

    def __len__(self):
        return len(self._codes)

    @property
    def max_code(self):
        return self._max

    def held_bytes(self):
        """Bytes of the codes and of the tables held, 0 for a table not
        built yet."""
        held = [self._codes]
        if self._cum is not None:
            held += [self._cum, *self._cum]
        if self._pos is not None:
            held += [self._pos, self._off]
        return sum(map(sys.getsizeof, held))

    def code_at(self, i):
        if not 1 <= i <= len(self._codes):
            raise QueryRangeError("position %r out of range" % (i,))
        return self._codes[i - 1]

    def codes(self):
        """The raw code list (a copy)."""
        return list(self._codes)

    def rank(self, i, c):
        """Occurrences of code c in positions [1..i]."""
        return self.rank_pair(1, i, c, c)[1]

    def rank_pair(self, b, e, lo, hi):
        """Occurrences of codes in [lo..hi] in positions [1..b-1] and in
        [1..e], for 1 <= b <= e+1 <= n+1.  Codes outside [0..max_code]
        never occur, and an empty code range (lo > hi) counts 0."""
        if not 0 < b <= e + 1 <= self._n + 1:
            raise QueryRangeError("rank pair [%r..%r] out of range" % (b, e))
        if hi > self._max:
            hi = self._max
        if lo > hi or hi < 0:
            return 0, 0
        cum = self._cum or self._build_cum()
        b -= 1
        if hi < self._max:
            row = cum[hi]
            before, through = row[b], row[e]
        else:
            before, through = b, e
        if lo > 0:
            row = cum[lo - 1]
            before -= row[b]
            through -= row[e]
        return before, through

    def select(self, r, c):
        """Position of the r-th occurrence of code c."""
        return self.select_pair(r, r, c)[0]

    def select_pair(self, r1, r2, c):
        """(select(r1, c), select(r2, c)) for 1 <= r1 <= r2 <= rank(n, c)."""
        pos = self._pos or self._build_pos()
        off = self._off
        # c goes first: off[-1] would read the last code's end
        if not (0 <= c <= self._max and 0 < r1 <= r2 <= off[c + 1] - off[c]):
            raise QueryRangeError("select pair %r, %r of code %r out of "
                                  "range" % (r1, r2, c))
        at = off[c] - 1
        return pos[at + r1], pos[at + r2]


class BitVec(CodeSeq):
    """Bit sequence: a CodeSeq over the codes 0 and 1, one byte a bit,
    whose rank and select tables are built on first use."""

    def __init__(self, bits):
        super().__init__(np.asarray(bits, dtype=bool).view(np.uint8), 1)

    bit_at = CodeSeq.code_at


class RmqIndex:
    """Range maximum over a fixed sequence of non-negative integers.

    The sequence is held by reference, not copied.  Cut into blocks of 32
    values, each position keeps the running maximum from its block's start
    (head) and to its block's end (tail), and a sparse table over the
    block maxima covers the whole blocks between a query's ends.
    """

    def __init__(self, values):
        self._v = values
        n = self._n = len(values)
        # padding with the last value leaves every tail maximum unchanged
        blocks = np.pad(np.asarray(values), (0, -n % 32),
                        mode="edge").reshape(-1, 32)
        run = np.maximum.accumulate
        self._head = int_list(run(blocks, axis=1).ravel()[:n])
        self._tail = int_list(run(blocks[:, ::-1], axis=1)[:, ::-1]
                              .ravel()[:n])
        # level k: the maximum of the 2^k block maxima from each block on
        level = blocks.max(axis=1)
        self._table = [int_list(level)]
        span = 1
        while 2 * span <= len(blocks):
            level = np.maximum(level[:-span], level[span:])
            self._table.append(int_list(level))
            span *= 2

    def __len__(self):
        return self._n

    def held_bytes(self):
        """Bytes of the block tables; the values are the caller's."""
        return sum(map(sys.getsizeof,
                       (self._head, self._tail, self._table, *self._table)))

    def max_value(self, i, j):
        """Maximum of values[i..j], 1-based and inclusive."""
        if not 0 < i <= j <= self._n:
            raise QueryRangeError("rmq range [%r..%r] invalid" % (i, j))
        if i == j:
            return self._v[i - 1]
        i -= 1
        # 0-based position p lies in block p >> 5 (blocks of 32)
        lo = i >> 5
        hi = (j - 1) >> 5
        if lo == hi:
            return max(self._v[i:j])
        if hi - lo == 1:
            return max(self._tail[i], self._head[j - 1])
        k = (hi - lo - 1).bit_length() - 1
        row = self._table[k]
        return max(self._tail[i], self._head[j - 1], row[lo + 1],
                   row[hi - (1 << k)])
