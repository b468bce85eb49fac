"""Brute-force reference implementations, small inputs only.

Everything here scans exhaustively and serves as ground truth for the fast
code; nothing is meant to be quick.  Inputs beyond the size guard are
rejected to prevent accidental blowups in test loops.
"""

SIZE_LIMIT = 2000


def _guard(w):
    if len(w) > SIZE_LIMIT:
        raise ValueError("oracle input longer than %d" % SIZE_LIMIT)


def is_palindrome(w):
    """w reads the same both ways (the empty string counts)."""
    return w == w[::-1]


def pal_windows(w):
    """Set of 1-based windows (i, j), i < j, where w[i..j] is a palindrome.

    Single characters are palindromes trivially and are left out, matching
    the windows that the pal-match relation actually compares.
    """
    _guard(w)
    n = len(w)
    out = set()
    # expand around every center; cheaper than the O(n^3) all-windows scan
    for c in range(n):
        a, b = c - 1, c + 1
        while a >= 0 and b < n and w[a] == w[b]:
            out.add((a + 1, b + 1))
            a -= 1
            b += 1
        a, b = c, c + 1
        while a >= 0 and b < n and w[a] == w[b]:
            out.add((a + 1, b + 1))
            a -= 1
            b += 1
    return out


def pal_match(x, y):
    """True when x and y agree on palindromicity of every window."""
    if len(x) != len(y):
        raise ValueError("pal_match needs equal lengths")
    return pal_windows(x) == pal_windows(y)


def ssp_naive(w):
    """Definitional ssp: scan each prefix's suffixes shortest-first."""
    from .palcore import INF

    _guard(w)
    n = len(w)
    ends = {}  # j -> set of palindrome lengths ending at j (non-trivial)
    for (i, j) in pal_windows(w):
        ends.setdefault(j, set()).add(j - i + 1)
    out = []
    for i in range(1, n + 1):
        lens = ends.get(i)
        out.append(min(lens) if lens else INF)
    return out


def groups_naive(w):
    """Suffix-palindrome groups of every prefix, by direct enumeration.

    Returns a list with one entry per prefix w[..j]: a pair
    (groups, boundary) where groups is a list, in identifier order
    (identifier = index + 1), of (key, lengths) with key the character
    immediately left of the group's palindromes and lengths sorted
    ascending (the first is the representative); boundary is the length of
    the whole-prefix palindrome when w[..j] is one, else None.  The
    boundary entry carries no identifier.
    """
    _guard(w)
    n = len(w)
    out = []
    for j in range(1, n + 1):
        p = w[:j]
        bykey = {}
        boundary = None
        for ln in range(0, j + 1):
            if ln and not is_palindrome(p[j - ln:]):
                continue
            if ln == j:
                boundary = ln
            else:
                bykey.setdefault(p[j - ln - 1], []).append(ln)
        groups = sorted(((k, sorted(v)) for k, v in bykey.items()),
                        key=lambda kv: kv[1][0])
        out.append((groups, boundary))
    return out


def sspg_naive(w):
    """Definitional sspg, derived from groups_naive and ssp_naive."""
    from .palcore import INF

    _guard(w)
    ss = ssp_naive(w)
    gs = groups_naive(w)
    out = []
    for i in range(1, len(w) + 1):
        if ss[i - 1] == INF:
            out.append(INF)
            continue
        want = ss[i - 1] - 2
        groups = gs[i - 2][0]  # groups of w[..i-1]
        ident = None
        for gi, (_, lengths) in enumerate(groups, 1):
            if lengths[0] == want:
                ident = gi
                break
        assert ident is not None, "extended representative must exist"
        out.append(ident)
    return out


def suffix_order_naive(w):
    """Starts 1..n+1 of w sorted by the ssp encodings of their suffixes,
    each computed from scratch by ssp_naive and ended by DOLLAR, which
    sorts below every value (the empty suffix is DOLLAR alone)."""
    _guard(w)
    encodings = [ssp_naive(w[s - 1:]) + [0] for s in range(1, len(w) + 2)]
    return sorted(range(1, len(w) + 2), key=lambda s: encodings[s - 1])


def naive_search(t, p):
    """All 1-based positions whose window of |p| chars pal-matches p."""
    _guard(t)
    m = len(p)
    if m == 0:
        raise ValueError("empty pattern")
    n = len(t)
    want = pal_windows(p)
    return [q for q in range(1, n - m + 2)
            if pal_windows(t[q - 1:q - 1 + m]) == want]
