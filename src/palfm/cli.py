"""Command-line front end for the palindrome-matching index.

Subcommands: build, count, locate, encode, stats, verify.  Texts are raw
bytes (the alphabet is byte values, no encoding interpretation); patterns
are literal arguments (utf-8) or @file for binary data, with one trailing
newline stripped from @file reads.  Exit codes: 0 success, 1 usage,
2 I/O or index-load failure, 3 verification failure or a failed
construction self-check.
"""

import argparse
import random
import sys
import time

from . import index as index_mod
from . import oracle, palcore
from .index import IndexFormatError, SelfCheckError
from .palcore import INF


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _read_text(path, strip_newlines):
    data = _read_bytes(path)
    if strip_newlines:
        data = data.replace(b"\r", b"").replace(b"\n", b"")
    return data


def _read_pattern(arg):
    """Literal argument, or @path for raw bytes (one trailing LF dropped)."""
    if arg.startswith("@"):
        data = _read_bytes(arg[1:])
        if data.endswith(b"\n"):
            data = data[:-1]
        return data
    return arg.encode("utf-8")


def _load_index(path):
    return index_mod.deserialize(_read_bytes(path))


def _effective_delta(delta, n):
    limit = max(n, 1)
    if delta > limit:
        print("note: delta %d exceeds text length, clamped to %d"
              % (delta, limit), file=sys.stderr)
        return limit
    return delta


def _emit_pairs(pairs, fmt):
    sep = "\t" if fmt == "tsv" else " "
    for key, value in pairs:
        print("%s%s%s" % (key, sep, value))


def cmd_build(args):
    text = _read_text(args.text, args.strip_newlines)
    delta = _effective_delta(args.delta, len(text))
    t0 = time.perf_counter()
    idx = index_mod.build(text, delta=delta, force=args.force_large)
    seconds = time.perf_counter() - t0
    image = index_mod.serialize(idx)
    with open(args.index, "wb") as fh:
        fh.write(image)
    _emit_pairs([
        ("n", idx.n),
        ("K", idx.K),
        ("seconds", "%.3f" % seconds),
        ("bits_per_symbol", "%.2f" % (len(image) * 8 / max(idx.n, 1))),
    ], args.format)
    return 0


def cmd_count(args):
    idx = _load_index(args.index)
    print(idx.count(_read_pattern(args.pattern)))
    return 0


def cmd_locate(args):
    idx = _load_index(args.index)
    positions = idx.locate(_read_pattern(args.pattern))
    # one write for all positions: no hit prints nothing in plain and a
    # lone newline in tsv
    if args.format == "tsv":
        sys.stdout.write("\t".join(map(str, positions)) + "\n")
    else:
        sys.stdout.write("".join(map("{}\n".format, positions)))
    return 0


_ENCODINGS = {
    "lpal": palcore.lpal,
    "ssp": palcore.ssp,
    "sspg": palcore.sspg,
    "g": palcore.group_counts,
}


def cmd_encode(args):
    text = _read_text(args.text, args.strip_newlines)
    for v in _ENCODINGS[args.which](text):
        print("inf" if v == INF else v)
    return 0


def cmd_stats(args):
    st = _load_index(args.index).stats()
    st["bits_per_symbol"] = "%.2f" % st["bits_per_symbol"]
    tables = [k for k, v in st.items() if isinstance(v, dict)]
    _emit_pairs([(k, v) for k, v in st.items() if k not in tables]
                + [("%s.%s" % (t, k), v)
                   for t in tables for k, v in sorted(st[t].items())],
                args.format)
    return 0


def _oracle_spot_check(idx, text, trials=50, seed=0):
    """Cross-check count/locate against the brute-force search on random
    windows of the text itself; only called at oracle-friendly sizes."""
    n = len(text)
    if n == 0:
        return None
    rng = random.Random(seed)
    for _ in range(trials):
        m = rng.randint(1, min(20, n))
        s = rng.randint(0, n - m)
        p = text[s:s + m]
        want = oracle.naive_search(text, p)
        if idx.count(p) != len(want) or idx.locate(p) != want:
            return "pattern %r disagrees with the brute-force search" % (p,)
    return None


def cmd_verify(args):
    idx = _load_index(args.index)
    text = _read_text(args.text, args.strip_newlines)
    result = idx.verify(text)
    if not result.ok:
        print("verify: %s: %s" % (result.violation, result.detail))
        return 3
    if idx.n <= oracle.SIZE_LIMIT:
        problem = _oracle_spot_check(idx, text)
        if problem is not None:
            print("verify: oracle-mismatch: %s" % problem)
            return 3
        print("verify: ok (invariants + oracle spot check)")
    else:
        print("verify: ok (invariants)")
    return 0


def _make_parser():
    parser = _Parser(prog="palfm",
                     description="index a text for palindrome pattern "
                                 "matching and query it")
    sub = parser.add_subparsers(dest="command", required=True)

    def fmt(p):
        p.add_argument("--format", choices=("plain", "tsv"),
                       default="plain")

    p = sub.add_parser("build", help="index a text file")
    p.add_argument("text")
    p.add_argument("index")
    p.add_argument("--delta", type=int, default=32,
                   help="locate sampling rate (default 32)")
    p.add_argument("--strip-newlines", action="store_true")
    p.add_argument("--force-large", action="store_true",
                   help="index texts beyond the construction guard")
    fmt(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("count", help="number of pal-matching windows")
    p.add_argument("index")
    p.add_argument("pattern")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("locate", help="positions of pal-matching windows")
    p.add_argument("index")
    p.add_argument("pattern")
    fmt(p)
    p.set_defaults(func=cmd_locate)

    p = sub.add_parser("encode", help="dump an encoding of a text")
    p.add_argument("text")
    p.add_argument("which", choices=sorted(_ENCODINGS))
    p.add_argument("--strip-newlines", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("stats", help="size breakdown of an index file")
    p.add_argument("index")
    fmt(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="check an index against its text")
    p.add_argument("index")
    p.add_argument("text")
    p.add_argument("--strip-newlines", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    try:
        args = _make_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    try:
        return args.func(args)
    except (OSError, ValueError, SelfCheckError) as e:
        print("error: %s" % e, file=sys.stderr)
        # an IndexFormatError is a ValueError, but a load failure
        if isinstance(e, (OSError, IndexFormatError)):
            return 2
        return 3 if isinstance(e, SelfCheckError) else 1


if __name__ == "__main__":
    sys.exit(main())
