"""The palindrome-matching index: build, search, locate, persist.

Rows follow the suffixes of the text (empty suffix included) sorted by the
ssp encodings of the suffixes, with the out-of-bounds symbol DOLLAR below
every value and INF above.  F holds each row's pi value (the group-renamed
shortest non-trivial prefix-palindrome of the row's suffix), L the pi value
of the suffix starting one position earlier.  Backward search is then the
FM-index loop: rank/select over L and F step intervals for finite pi, and a
rangeCount plus range-maximum over LF handle the no-prefix-palindrome case.

Row numbers and text positions are 1-based; plain lists store row i at
index i-1.
"""

import struct
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import palcore
from .palcore import INF
from .succinct import BitVec, CodeSeq, RmqIndex

DOLLAR = 0

MAGIC = b"PALFMIX1"
FORMAT_VERSION = 1

_SEC_L = 1
_SEC_F = 2
_SEC_MARKS = 3
_SEC_SAMPLES = 4

# explicit-sort construction guard; larger texts need force=True / --force-large
BUILD_GUARD = 50_000


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


def _code_of(value, k):
    """Symbol -> section code: DOLLAR = 0, ids unchanged, INF = k+1."""
    if value == INF:
        return k + 1
    return int(value)


def _value_of(code, k):
    if code == k + 1:
        return INF
    return code


def _encoding_column(ssp_codes, starts, col, n, inf_code):
    """Column `col` of every suffix's ssp encoding, as sortable ints.

    ssp of a standalone suffix T[s..] at offset k equals ssp(T)[s+k-1] when
    that value fits in the window (<= k) and INF otherwise; out of bounds
    is DOLLAR = 0.  ssp_codes holds ssp(T) with INF already as inf_code.
    """
    e = starts + (col - 1)
    out = np.zeros(len(starts), dtype=np.int64)
    valid = e <= n
    vals = ssp_codes[e[valid] - 1]
    out[valid] = np.where(vals <= col, vals, inf_code)
    return out


def _pal_suffix_sort(ssp_arr):
    """Starts 1..n+1 sorted by the ssp encodings of the suffixes.

    Rank refinement one column at a time; stops once all ranks are
    distinct, which is guaranteed by column n+1 where every suffix has
    shown its terminating DOLLAR.
    """
    n = len(ssp_arr)
    if n == 0:
        return [1]
    inf_code = n + 2
    ssp_codes = np.fromiter(
        (inf_code if v == INF else int(v) for v in ssp_arr),
        dtype=np.int64, count=n)
    starts = np.arange(1, n + 2, dtype=np.int64)
    rank = np.zeros(n + 1, dtype=np.int64)
    order = starts - 1
    for col in range(1, n + 2):
        c = _encoding_column(ssp_codes, starts, col, n, inf_code)
        order = np.lexsort((c, rank))
        rs = rank[order]
        cs = c[order]
        change = np.empty(n + 1, dtype=bool)
        change[0] = True
        change[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
        new_sorted = np.cumsum(change) - 1
        rank = np.empty_like(rank)
        rank[order] = new_sorted
        if new_sorted[-1] == n:
            break
    return [int(starts[o]) for o in order]


@dataclass
class PalFMIndex:
    """Built index over a text of length n; n+1 rows."""

    n: int
    delta: int
    K: int
    F: CodeSeq
    L: CodeSeq
    lf_values: list
    lf_rmq: RmqIndex
    B: BitVec
    S: list

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
            before, through = self.L.rank_pair(b, e, pi_cw)
            if through == before:
                return 1, 0
            return self.F.select_pair(before + 1, through, pi_cw)
        # no prefix-palindrome in cw: survivors are rows whose L exceeds g,
        # and they map to the top of the LF image of [b..e].  INF rows
        # qualify whatever g is, so the lower cut clamps to the INF code.
        hi = self.K + 1
        cnt = self.L.range_count(b, e, g + 1 if g < hi else hi, hi)
        if cnt == 0:
            return 1, 0
        top = self.lf_rmq.max_value(b, e)
        return top - cnt + 1, top

    def _pattern_interval(self, p):
        """Rows (b, e) whose suffixes pal-match p; (1, 0) when none."""
        if len(p) == 0:
            raise ValueError("empty pattern")
        prof = palcore.pattern_preprocess(p)
        step = self._step
        b, e = 1, self.n + 1
        for pi_cw, g in zip(reversed(prof.pi_arr), reversed(prof.g_arr)):
            b, e = step(b, e, pi_cw, g)
            if b > e:
                break
        return b, e

    def count(self, p):
        """Number of windows of the text pal-matching p."""
        b, e = self._pattern_interval(p)
        return e - b + 1

    def locate(self, p):
        """Sorted 1-based start positions of windows pal-matching p."""
        b, e = self._pattern_interval(p)
        return sorted(self._walk(range(b, e + 1)))

    def sa_access(self, i):
        """Suffix start stored at row i, via the delta-sampled walk."""
        if not 1 <= i <= self.n + 1:
            raise ValueError("row %r out of range" % (i,))
        return self._walk((i,))[0]

    def _walk(self, rows):
        """Suffix starts of the given rows: each follows LF until a
        sampled row, at most delta steps, and adds the steps taken to the
        sample stored there."""
        marked, rank = self.B.bit_at, self.B.rank
        lf, S = self.lf_values, self.S
        span = range(self.delta + 1)
        starts = []
        for j in rows:
            for steps in span:
                if marked(j):
                    break
                j = lf[j - 1]
            else:
                raise IndexFormatError("sampling walk exceeded delta; "
                                       "index is inconsistent")
            starts.append(S[rank(j, 1) - 1] + steps)
        return starts

    # -- reporting -------------------------------------------------------

    def stats(self):
        """Measured sizes plus the index's headline parameters."""
        image = serialize(self)
        rows = self.n + 1
        section_bits = {
            "header": (len(MAGIC) + 4 + 4 + 8 + 8 + 4) * 8,
            "l_codes": (12 + rows) * 8,
            "f_codes": (12 + rows) * 8,
            "sample_marks": (12 + (rows + 7) // 8) * 8,
            "sample_values": (12 + 8 * len(self.S)) * 8,
            "checksum": 32,
        }
        # 64-bit slots held by the rebuilt-on-load structures
        derived_slots = {
            "rank_tables": 2 * (self.K + 2) * (rows + 1),
            "positions": 2 * rows,
            "lf": rows,
            "rmq": self.lf_rmq.table_entries(),
            "samples": len(self.S) + rows + 1,
        }
        total_bits = len(image) * 8
        return {
            "n": self.n,
            "rows": rows,
            "delta": self.delta,
            "K": self.K,
            "samples": len(self.S),
            "section_bits": section_bits,
            "total_bits": total_bits,
            "bits_per_symbol": total_bits / max(self.n, 1),
            "derived_bits": {k: v * 64 for k, v in derived_slots.items()},
        }

    # -- verification ----------------------------------------------------

    def verify(self, text):
        """Check the structural invariants, strongest-precondition last.

        Intrinsic checks (histograms, DOLLAR placement, LF non-crossing)
        run before anything that rebuilds from the text, so a corrupted
        component is named rather than drowned in downstream noise.
        """
        rows = self.n + 1
        fc = self.F.codes()
        lc = self.L.codes()

        c = _histogram_mismatch(self.F, self.L, self.K)
        if c is not None:
            return VerifyResult(False, "histogram",
                                "code %d: F has %d, L has %d"
                                % (c, self.F.rank(rows, c),
                                   self.L.rank(rows, c)))

        if fc[0] != DOLLAR or fc.count(DOLLAR) != 1 or lc.count(DOLLAR) != 1:
            return VerifyResult(False, "dollar-placement",
                                "each of F and L needs exactly one DOLLAR, "
                                "F's in row 1")

        last = {}
        for i in range(1, rows + 1):
            c = lc[i - 1]
            if c == DOLLAR:
                continue
            v = self.lf_values[i - 1]
            if c in last and v <= last[c]:
                return VerifyResult(False, "lf-noncrossing",
                                    "rows with L code %d map out of order "
                                    "at row %d" % (c, i))
            last[c] = v

        if len(text) != self.n:
            return VerifyResult(False, "definitional-lf",
                                "text length %d does not match n = %d"
                                % (len(text), self.n))
        ssp_arr = palcore.ssp(text)
        sa = _pal_suffix_sort(ssp_arr)
        row_of = [0] * (self.n + 2)
        for r, s in enumerate(sa, 1):
            row_of[s] = r
        for i in range(1, rows + 1):
            s = sa[i - 1]
            want = 1 if s == 1 else row_of[s - 1]
            if self.lf_values[i - 1] != want:
                return VerifyResult(False, "definitional-lf",
                                    "row %d: LF is %d, definition gives %d"
                                    % (i, self.lf_values[i - 1], want))

        if self.n:
            sg_rev = palcore.sspg(text[::-1])
            pi_suf = [None] * (self.n + 2)
            for s in range(1, self.n + 1):
                pi_suf[s] = sg_rev[self.n - s]
            for i in range(1, rows + 1):
                s = sa[i - 1]
                fw = DOLLAR if i == 1 else _code_of(pi_suf[s], self.K)
                lw = DOLLAR if s == 1 else _code_of(pi_suf[s - 1], self.K)
                if fc[i - 1] != fw or lc[i - 1] != lw:
                    return VerifyResult(False, "fl-content",
                                        "row %d differs from the pi values "
                                        "recomputed off the text" % i)

        marks = [1 if (s - 1) % self.delta == 0 else 0 for s in sa]
        samples = [s for s in sa if (s - 1) % self.delta == 0]
        if [self.B.bit_at(i) for i in range(1, rows + 1)] != marks \
                or self.S != samples:
            return VerifyResult(False, "sampling",
                                "delta marks or sample values do not match "
                                "the suffix order")

        inf_code = self.n + 2
        codes = [inf_code if v == INF else int(v) for v in ssp_arr]

        def enc(s):
            out = []
            for k in range(1, self.n - s + 2):
                v = codes[s + k - 2]
                out.append(v if v <= k else inf_code)
            return out

        prev = enc(sa[0])
        for i in range(2, rows + 1):
            cur = enc(sa[i - 1])
            if cur <= prev:
                return VerifyResult(False, "sorted-order",
                                    "rows %d and %d are not strictly "
                                    "increasing" % (i - 1, i))
            prev = cur
        return VerifyResult(True)


def _histogram_mismatch(f_seq, l_seq, k):
    """First code in [0..k+1] that F and L hold different numbers of
    times, or None."""
    rows = len(f_seq)
    for c in range(k + 2):
        if f_seq.rank(rows, c) != l_seq.rank(rows, c):
            return c
    return None


def build(text, delta=32, force=False):
    """Index the text with locate sampling rate delta.

    The explicit-sort construction is quadratic in the worst case, so texts
    longer than BUILD_GUARD are rejected unless force is given.
    """
    n = len(text)
    if not 1 <= delta <= max(n, 1):
        raise ValueError("delta must be in [1..%d]" % max(n, 1))
    if n > BUILD_GUARD and not force:
        raise ValueError("text of %d symbols exceeds the construction guard "
                         "(%d); pass force=True (--force-large) to override"
                         % (n, BUILD_GUARD))
    ssp_arr = palcore.ssp(text)
    sa = _pal_suffix_sort(ssp_arr)
    pi_suf = [None] * (n + 2)
    if n:
        sg_rev = palcore.sspg(text[::-1])
        for s in range(1, n + 1):
            pi_suf[s] = sg_rev[n - s]
    k_max = 0
    for s in range(1, n + 1):
        v = pi_suf[s]
        if v != INF and v > k_max:
            k_max = int(v)
    rows = n + 1
    row_of = [0] * (n + 2)
    for r, s in enumerate(sa, 1):
        row_of[s] = r
    fcodes = [0] * rows
    lcodes = [0] * rows
    lf_values = [0] * rows
    for r in range(1, rows + 1):
        s = sa[r - 1]
        if r > 1:
            fcodes[r - 1] = _code_of(pi_suf[s], k_max)
        if s > 1:
            lcodes[r - 1] = _code_of(pi_suf[s - 1], k_max)
            lf_values[r - 1] = row_of[s - 1]
        else:
            lf_values[r - 1] = 1
    idx = PalFMIndex(
        n=n, delta=delta, K=k_max,
        F=CodeSeq(fcodes, k_max + 1),
        L=CodeSeq(lcodes, k_max + 1),
        lf_values=lf_values,
        lf_rmq=RmqIndex(lf_values),
        B=BitVec([1 if (s - 1) % delta == 0 else 0 for s in sa]),
        S=[s for s in sa if (s - 1) % delta == 0],
    )
    for r in range(1, rows + 1):
        if idx._lf_formula(r) != lf_values[r - 1]:
            raise RuntimeError("construction self-check failed at row %d" % r)
    return idx


# -- persistence ---------------------------------------------------------


def serialize(idx):
    """Little-endian image: magic, version, flags, n, delta, K, tagged
    sections (L codes, F codes, packed marks, sample values), crc32."""
    if idx.K + 1 > 0xFF:
        raise ValueError("group alphabet too large for byte-coded sections")
    rows = idx.n + 1
    head = MAGIC + struct.pack("<II", FORMAT_VERSION, 0)
    head += struct.pack("<QQ", idx.n, idx.delta)
    head += struct.pack("<I", idx.K)
    sections = []
    sections.append((_SEC_L, bytes(idx.L.codes())))
    sections.append((_SEC_F, bytes(idx.F.codes())))
    marks = bytearray((rows + 7) // 8)
    for r in range(rows):
        if idx.B.bit_at(r + 1):
            marks[r >> 3] |= 1 << (r & 7)
    sections.append((_SEC_MARKS, bytes(marks)))
    sections.append((_SEC_SAMPLES,
                     b"".join(struct.pack("<Q", v) for v in idx.S)))
    body = b"".join(struct.pack("<IQ", tag, len(payload)) + payload
                    for tag, payload in sections)
    image = head + body
    return image + struct.pack("<I", zlib.crc32(image) & 0xFFFFFFFF)


def deserialize(data):
    """Rebuild an index from serialize() output.

    Derived structures (LF, its range-maximum table, rank directories) are
    recomputed; bad magic, unsupported version, truncation and checksum
    mismatch raise their own error types.
    """
    if len(data) < len(MAGIC):
        raise TruncatedError("image shorter than the magic")
    if data[:len(MAGIC)] != MAGIC:
        raise BadMagicError("not an index image")
    fixed = len(MAGIC) + 4 + 4 + 8 + 8 + 4
    if len(data) < fixed + 4:
        raise TruncatedError("image shorter than its fixed header")
    version, flags = struct.unpack_from("<II", data, len(MAGIC))
    if version != FORMAT_VERSION or flags != 0:
        raise VersionError("unsupported version %d / flags %#x"
                           % (version, flags))
    n, delta = struct.unpack_from("<QQ", data, len(MAGIC) + 8)
    (k_max,) = struct.unpack_from("<I", data, len(MAGIC) + 24)
    stored = struct.unpack_from("<I", data, len(data) - 4)[0]
    actual = zlib.crc32(data[:-4]) & 0xFFFFFFFF
    payloads = {}
    off = fixed
    end = len(data) - 4
    while off < end:
        if off + 12 > end:
            raise TruncatedError("section header runs past the image")
        tag, length = struct.unpack_from("<IQ", data, off)
        off += 12
        if off + length > end:
            raise TruncatedError("section %d runs past the image" % tag)
        payloads[tag] = data[off:off + length]
        off += length
    if stored != actual:
        raise ChecksumError("checksum mismatch")
    missing = {_SEC_L, _SEC_F, _SEC_MARKS, _SEC_SAMPLES} - set(payloads)
    if missing:
        raise IndexFormatError("missing sections %s" % sorted(missing))
    rows = n + 1
    lcodes = list(payloads[_SEC_L])
    fcodes = list(payloads[_SEC_F])
    if len(lcodes) != rows or len(fcodes) != rows:
        raise IndexFormatError("code section length does not match n")
    if max(lcodes + fcodes) > k_max + 1:
        raise IndexFormatError("code outside the declared alphabet")
    marks_raw = payloads[_SEC_MARKS]
    if len(marks_raw) != (rows + 7) // 8:
        raise IndexFormatError("mark section length does not match n")
    bits = [(marks_raw[r >> 3] >> (r & 7)) & 1 for r in range(rows)]
    sraw = payloads[_SEC_SAMPLES]
    if len(sraw) % 8:
        raise IndexFormatError("sample section length not a multiple of 8")
    samples = [v[0] for v in struct.iter_unpack("<Q", sraw)]
    if len(samples) != sum(bits):
        raise IndexFormatError("sample count does not match the marks")
    if not 1 <= delta <= max(n, 1):
        raise IndexFormatError("delta outside [1..max(n,1)]")
    starts = range(1, rows + 1, delta)
    if len(samples) != len(starts) or set(samples) != set(starts):
        raise IndexFormatError("sample values are not the starts 1, "
                               "1+delta, ... up to n+1, each once")
    f_seq = CodeSeq(fcodes, k_max + 1)
    l_seq = CodeSeq(lcodes, k_max + 1)
    # equal histograms keep every select that LF and backward search make
    # in range
    if _histogram_mismatch(f_seq, l_seq, k_max) is not None:
        raise IndexFormatError("F and L code histograms differ")
    lf_values = []
    for i in range(1, rows + 1):
        c = l_seq.code_at(i)
        if c == DOLLAR:
            lf_values.append(1)
        else:
            lf_values.append(f_seq.select(l_seq.rank(i, c), c))
    return PalFMIndex(
        n=n, delta=delta, K=k_max, F=f_seq, L=l_seq,
        lf_values=lf_values, lf_rmq=RmqIndex(lf_values),
        B=BitVec(bits), S=samples,
    )


def build_timed(text, delta=32, force=False):
    """(index, seconds) pair; convenience for reporting build cost."""
    t0 = time.perf_counter()
    idx = build(text, delta=delta, force=force)
    return idx, time.perf_counter() - t0
