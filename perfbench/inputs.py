"""Seeded inputs for the benchmark workloads.

Everything a run feeds to palfm is made here from the run's seed: the texts
each workload builds, the text it verifies, and the pools of query patterns
its count and locate operations draw from.  palfm only ever receives the
generated bytes.

Each workload runs every kind of operation (build, verify, count, locate,
one-shot CLI), so every metric is defined on every workload; what differs
is the texts and how the run's time is shared out, which decides the layer
that dominates.
"""

import random
from dataclasses import dataclass

# The adversarial texts are capped at 8,000 symbols only because the
# pal-suffix sort is quadratic on them (about 5 s per 8k pass of the three
# texts).  Raising the cap once construction is sub-quadratic is a change to
# this file alone.
N_REPETITIVE = 8_000
N_RANDOM = 40_000

LETTERS = b"abcdefghijklmnopqrstuvwxyz"
# enough entries that count_p99_us rests on ten of them
COUNT_POOL = 1_000
PATTERN_LENGTHS = (8, 32, 100)


@dataclass(frozen=True)
class Query:
    """One pool entry: a pattern aimed at one of the workload's texts.

    start is the 1-based position the pattern was cut from, or None for a
    pattern drawn at random over the text's letters.
    """

    text: str
    pattern: bytes
    start: object = None


@dataclass(frozen=True)
class Stratum:
    """A fixed share of a query pool: patterns of one length on one text."""

    text: str
    m: int
    share: float
    window_share: float = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    texts: dict           # label -> bytes, each built, serialized, queried
    verify_text: bytes
    cli_text: str         # label of the image the one-shot CLI queries
    count_pool: tuple     # of Query
    locate_pool: tuple    # of Query
    shares: dict          # component -> share of --seconds


def fibonacci_word(n, x, y):
    """First n symbols of the Fibonacci word over the letters x, y."""
    a, b = bytes([x]), bytes([x, y])
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def _letters(rng, k):
    return bytes(rng.sample(LETTERS, k))


def _random_text(rng, n, sigma):
    alphabet = _letters(rng, sigma)
    return bytes(rng.choices(alphabet, k=n))


def _pool(rng, texts, strata, size):
    """Stratified pool: each stratum gets exactly round(share * size)
    entries, so the latency mixture, and hence which class a percentile
    falls in, does not move with the seed."""
    out = []
    for st in strata:
        text = texts[st.text]
        alphabet = sorted(set(text))
        k = max(1, round(st.share * size))
        windows = round(st.window_share * k)
        for i in range(k):
            if i < windows:
                s = rng.randrange(len(text) - st.m + 1)
                out.append(Query(st.text, text[s:s + st.m], s + 1))
            else:
                out.append(Query(st.text,
                                 bytes(rng.choices(alphabet, k=st.m)), None))
    rng.shuffle(out)
    return tuple(out)


def _even(labels, lengths, window_share):
    share = 1.0 / (len(labels) * len(lengths))
    return [Stratum(t, m, share, window_share)
            for t in labels for m in lengths]


def _build_repetitive(rng, tiny):
    n = 400 if tiny else N_REPETITIVE
    x, y = _letters(rng, 2)
    fib = fibonacci_word(n, x, y)
    r = rng.randrange(n)
    texts = {
        "a^n": bytes([x]) * n,
        "(ab)^n": bytes([x, y]) * (n // 2),
        "fib": fib[r:] + fib[:r],
    }
    vfib = fibonacci_word(200 if tiny else 2_000, x, y)
    # Counts: every text and length alike, a quarter random patterns.
    counts = _even(list(texts), PATTERN_LENGTHS, 0.75)
    # Locates: a^n and (ab)^n windows hit almost every position, so they are
    # the 20 % heavy tail that locate_p99_us measures.  A Fibonacci window's
    # hits take one of three values per length; the shares put the median
    # in the middle of the commonest value at length 32 (about 270 hits),
    # away from the edges between values.
    locates = ([Stratum("fib", 100, 0.2), Stratum("fib", 32, 0.5),
                Stratum("fib", 8, 0.1)]
               + [Stratum(t, m, 0.1 / 3)
                  for t in ("a^n", "(ab)^n") for m in PATTERN_LENGTHS])
    return texts, vfib, "fib", counts, (locates, 100), {
        "build": 0.55, "verify": 0.08, "count": 0.07, "locate": 0.15,
        "cli": 0.15}


def _build_random(rng, tiny):
    n = 1_000 if tiny else N_RANDOM
    texts = {"rand2": _random_text(rng, n, 2), "rand4": _random_text(rng, n, 4)}
    vtext = _random_text(rng, 300 if tiny else 4_000, 4)
    counts = _even(list(texts), PATTERN_LENGTHS, 0.75)
    # Short windows only: the median in the sigma = 4 class (about 60 hits),
    # the p99 in the sigma = 2 class (about 300 hits).
    locates = [Stratum("rand4", 8, 0.8), Stratum("rand2", 8, 0.2)]
    return texts, vtext, "rand4", counts, (locates, 200), {
        "build": 0.40, "verify": 0.20, "count": 0.12, "locate": 0.13,
        "cli": 0.15}


def _query(rng, tiny):
    n_rep = 400 if tiny else N_REPETITIVE
    x, y = _letters(rng, 2)
    fib = fibonacci_word(n_rep, x, y)
    r = rng.randrange(n_rep)
    texts = {
        "rand4": _random_text(rng, 1_000 if tiny else N_RANDOM, 4),
        "a^n": bytes([x]) * n_rep,
        "fib": fib[r:] + fib[:r],
    }
    vtext = _random_text(rng, 200 if tiny else 1_000, 4)
    counts = ([Stratum("rand4", m, 0.75 / 3, 0.75) for m in PATTERN_LENGTHS]
              + [Stratum("fib", m, 0.25 / 3, 0.75) for m in PATTERN_LENGTHS])
    # Mostly short windows on the random text; a^n windows (about n hits
    # each) are 2 %, so the p99 is the middle of that class, not its edge.
    locates = ([Stratum("rand4", 8, 0.88)]
               + [Stratum("fib", m, 0.10 / 3) for m in PATTERN_LENGTHS]
               + [Stratum("a^n", m, 0.02 / 3) for m in PATTERN_LENGTHS])
    return texts, vtext, "rand4", counts, (locates, 500), {
        "build": 0.15, "verify": 0.05, "count": 0.25, "locate": 0.35,
        "cli": 0.20}


_MAKERS = {
    "build-repetitive": _build_repetitive,
    "build-random": _build_random,
    "query": _query,
}
WORKLOADS = tuple(_MAKERS)


def make(name, seed, tiny=False):
    """The workload's inputs for this seed; the same seed gives the same
    inputs."""
    rng = random.Random("%s/%d" % (name, seed))
    texts, vtext, cli_text, counts, (locates, locate_size), shares = \
        _MAKERS[name](rng, tiny)
    count_size = COUNT_POOL
    if tiny:
        count_size = locate_size = 30
    return Workload(
        name=name, texts=texts, verify_text=vtext, cli_text=cli_text,
        count_pool=_pool(rng, texts, counts, count_size),
        locate_pool=_pool(rng, texts, locates, locate_size),
        shares=shares)
