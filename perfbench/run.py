"""Seeded end-to-end and per-layer benchmark for palfm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see inputs.py and README.md): build-repetitive, build-random,
query.  One run, in one process with one client and no threads:

1. a fresh child builds every text of the workload and writes the images
   (its resident-set high-water mark gives build_peak_mib);
2. the images are loaded here and checked: deserialize round-trips to the
   same bytes, every pool pattern's locate answer is checked against the
   brute-force oracle, and a few full window scans confirm nothing is
   missing;
3. fresh children time `import palfm` plus deserializing every image
   (setup_s) and measure the resident growth;
4. for --seconds seconds, closed-loop operations run interleaved: build +
   serialize of each text, verify, count, locate and one-shot CLI commands,
   each component for the workload's share of the time, and every answer
   is compared with the checked reference outside its timed call.

Timings are corrected for the machine's momentary speed (see Speed): on a
shared host the same call runs up to 1.5 times slower while neighbours are
busy, in phases of seconds, which no amount of repetition inside one run
averages out.  The uncorrected figures are printed beside the corrected
ones.  Each unit of work (a pool pattern, a text's build, a CLI command)
is repeated, and the median of its corrected times is kept.  A count or
locate call is timed right after an untimed identical call, so that it
finds its rows in cache: cold, the same locate was up to 1.3 times slower
from one run to the next, with the cache the host shares, and no
correction tracked that.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 every other lap of operations is traced and it carries the
per-layer metrics, including the traced-minus-untraced difference of
end-to-end figures.  Layer timings come from spans around public calls,
made here; where a layer runs inside another call, the part is re-run
right after that call as a child span, so a parent's self time is its
duration minus its children's.  Spans are written to perfbench/out/.

--tiny shrinks every input so that selftest.py can run all workloads fast.
Without palfm sources under ./src the run exits with status 1.
"""

import argparse
import collections
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT = 120

END_TO_END = {
    "setup_s": "s",
    "build_sym_per_s": "symbols/s",
    "build_peak_mib": "MiB",
    "bits_per_sym": "bits/symbol",
    "verify_s": "s",
    "count_p50_us": "us",
    "count_p99_us": "us",
    "locate_p50_us": "us",
    "locate_p99_us": "us",
    "locate_hits_per_s": "hits/s",
    "resident_x_image": "ratio",
    "cli_count_s": "s",
    "cli_locate_s": "s",
}

PER_LAYER = {
    "palcore.ssp_s": "s",
    "palcore.sspg_s": "s",
    "palcore.pattern_preprocess_us": "us",
    "index.build_s": "s",
    "index.build_other_s": "s",
    "succinct.codeseq_build_s": "s",
    "succinct.rmq_build_s": "s",
    "succinct.bitvec_build_s": "s",
    "index.serialize_s": "s",
    "index.deserialize_s": "s",
    "index.image_bytes": "bytes",
    "index.resident_bytes": "bytes",
    "index.build_peak_bytes": "bytes",
    "index.search_us": "us",
    "index.backward_steps": "count",
    "index.inf_steps": "count",
    "index.empty_exit_ratio": "ratio",
    "index.locate_hits": "count",
    "index.lf_steps_per_hit": "steps/hit",
    "index.sa_access_us_per_hit": "us/hit",
    "index.verify_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "palcore.self_s": "s",
    "index.self_s": "s",
    "succinct.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.count_p50_us_delta": "us",
    "trace.locate_p50_us_delta": "us",
    "trace.build_sym_per_s_delta": "symbols/s",
}

COMPONENTS = ("build", "verify", "count", "locate", "cli")
BUILD_PARTS = ("ssp", "sspg", "codeseq", "rmq", "bitvec")
SETUP_REPS = 7
SCANS = 3

CAL_REF_S = 1.5e-3      # corrected times read as if the mix took this long
CAL_EVERY_S = 0.05      # period of the calibration timer
CAL_TEXT = bytes(random.Random(0).choice(b"ab") for _ in range(200))


def _import_palfm():
    if not os.path.isfile(os.path.join(SRC, "palfm", "__init__.py")):
        sys.exit("perfbench: no palfm sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import palfm
    from palfm import oracle

    if not os.path.abspath(palfm.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: palfm imported from %s, not %s"
                 % (palfm.__file__, SRC))
    return palfm, oracle


def _percentile(values, q):
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def get(self, i):
        return self.v[i]


def _calibration_mix():
    """Fixed interpreter work that calls nothing of palfm: arithmetic,
    method calls, a dict and a sort, and a palindrome-radius scan.  A mix
    tracks how the host slows palfm's kinds of code better than any one of
    its parts does."""
    s = 0
    for i in range(8000):
        s += i * i % 7
    cell, seen = _Cell(list(range(1000))), {}
    for i in range(1200):
        j = i * 7919 % 1000
        s += cell.get(j)
        seen[j] = s
    sorted(seen.items(), key=lambda kv: -kv[1])
    w, n, radii = CAL_TEXT, len(CAL_TEXT), []
    for c in range(n):
        a, b = c - 1, c + 1
        while a >= 0 and b < n and w[a] == w[b]:
            a -= 1
            b += 1
        radii.append(b - a)
    return sorted(radii)


class Speed:
    """Corrects timings for the machine's momentary speed.

    While started, a timer signal runs the calibration mix every
    CAL_EVERY_S and records when each run started and ended.  correct()
    takes the mix's runs out of an interval and scales the rest by
    CAL_REF_S over the median duration of the runs inside the interval (of
    the last three before it when it holds none), so a corrected time reads
    as if the mix took exactly CAL_REF_S throughout.  That removes the
    host's slow and fast phases from the comparison of two runs.

    The benchmark and its children share one CPU (see main), so runs of
    the mix just before and after a child measure the CPU the child ran on.
    """

    def __init__(self):
        self._runs = []         # (start, end) of each run of the mix

    def sample(self, *_):
        t0 = time.perf_counter()
        _calibration_mix()
        t1 = time.perf_counter()
        self._runs.append((t0, t1))
        return t1 - t0

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def recent_factor(self):
        """The factor from the median of the last four runs of the mix."""
        return CAL_REF_S / statistics.median(
            b - a for a, b in self._runs[-4:])

    def correct(self, t0, t1):
        inside, before = [], []
        for a, b in reversed(self._runs):
            if a >= t0 and b <= t1:
                inside.append(b - a)
            elif b <= t1:
                before.append(b - a)
                if len(before) == 3:
                    break
        if not inside and not before:
            before.append(self.sample())
        return ((t1 - t0 - sum(inside)) * CAL_REF_S
                / statistics.median(inside or before))


def _run_child(argv):
    """Completed process of a fresh interpreter with palfm on its path."""
    return subprocess.run([sys.executable] + argv, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, timeout=CHILD_TIMEOUT)


class Tracer:
    """Spans in memory: (op, id, parent, name, start, end).

    The spans of one operation share its op id, which is also the id of the
    operation's root span.  Recording is off while `on` is false.
    """

    def __init__(self):
        self.on = False
        self.spans = []
        self._next = 0

    def open(self):
        self._next += 1
        return self._next

    def add(self, op, parent, name, t0, t1):
        sid = self.open()
        if self.on:
            self.spans.append((op, sid, parent, name, t0, t1))
        return sid

    def close(self, op, name, t0):
        if self.on:
            self.spans.append((op, op, None, name, t0, time.perf_counter()))

    def self_times(self):
        """Per layer, summed span durations minus their children's."""
        child = {}
        for _, _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out = {}
        for _, sid, _, name, t0, t1 in self.spans:
            layer = name.split(".")[0]
            layer = "bench" if layer == "op" else layer
            out[layer] = out.get(layer, 0.0) + (t1 - t0) - child.get(sid, 0.0)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1})
                         + "\n")


class Bench:
    def __init__(self, palfm, oracle, workload, seed, trace, workdir):
        self.palfm = palfm
        self.oracle = oracle
        self.w = workload
        self.seed = seed
        self.trace = trace
        self.work = workdir
        self.tr = Tracer()
        self.speed = Speed()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.stems = {label: "t%d" % i
                      for i, label in enumerate(workload.texts)}
        self.images = {}
        self.indexes = {}
        self.ref = {}       # (text, pattern) -> checked sorted positions
        self.iv = {}        # (text, pattern) -> replayed interval and steps
        self.counts = {}    # replayed step counters
        self.setup_runs = []
        self.interp = []
        self.import_wall = []
        # component -> unit -> (untraced, traced) lists of (uncorrected,
        # corrected) seconds; a unit is a text, a (text, pattern) pair, a
        # CLI command or the verify call, so that pool entries that repeat a
        # pattern pool their repetitions
        self.samples = {c: {} for c in COMPONENTS}
        self.parts = {label: [] for label in workload.texts}
        self.preprocess = []
        self.search = []
        self.sa_access = [0.0, 0]

    # -- bookkeeping -----------------------------------------------------

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def _record(self, comp, unit, traced, t0, t1):
        self.samples[comp].setdefault(unit, ([], []))[traced].append(
            (t1 - t0, self.speed.correct(t0, t1)))

    # -- preparation (untimed) -------------------------------------------

    def prepare(self):
        os.makedirs(self.work)
        for label, text in self.w.texts.items():
            with open(os.path.join(self.work, self.stems[label] + ".txt"),
                      "wb") as fh:
                fh.write(text)
        with open(os.path.join(self.work, "manifest.json"), "w") as fh:
            json.dump(list(self.stems.values()), fh)
        proc = _run_child([CHILD, "build", self.work])
        if proc.returncode != 0:
            raise RuntimeError("build child failed: %s"
                               % proc.stderr.decode(errors="replace"))
        self.build_peak_kib = json.loads(proc.stdout)["build_peak_kib"]

        palfm = self.palfm
        for label, stem in self.stems.items():
            with open(os.path.join(self.work, stem + ".img"), "rb") as fh:
                image = fh.read()
            idx = palfm.deserialize(image)
            self.expect(palfm.serialize(idx) == image,
                        "%s: image does not round-trip" % label)
            self.images[label] = image
            self.indexes[label] = idx
            print("image %s n=%d bytes=%d sha256=%s"
                  % (label, len(self.w.texts[label]), len(image),
                     hashlib.sha256(image).hexdigest()))

        # warm-up, and construction must not depend on the process
        first = next(iter(self.w.texts))
        image = palfm.serialize(palfm.build(self.w.texts[first]))
        self.expect(image == self.images[first],
                    "%s: image differs between processes" % first)
        self.verify_index = palfm.build(self.w.verify_text)

        for q in self.w.count_pool + self.w.locate_pool:
            self._reference(q)
        self._replay_counts()
        rng = random.Random(self.seed)
        short = sorted({(q.text, q.pattern)
                        for q in self.w.count_pool + self.w.locate_pool
                        if len(q.pattern) == 8})
        for key in rng.sample(short, min(SCANS, len(short))):
            self._scan(*key)

    def _reference(self, q):
        """Check one pool pattern's locate answer and keep it."""
        key = (q.text, q.pattern)
        if key not in self.ref:
            text, p, m = self.w.texts[q.text], q.pattern, len(q.pattern)
            idx = self.indexes[q.text]
            pos = idx.locate(p)
            self.expect(all(a < b for a, b in zip(pos, pos[1:]))
                        and all(1 <= s <= len(text) - m + 1 for s in pos),
                        "%s %r: positions unsorted or out of range" % key)
            match = {}
            for s in pos:
                window = text[s - 1:s - 1 + m]
                if window not in match:
                    match[window] = self.oracle.pal_match(window, p)
            self.expect(all(match.values()),
                        "%s %r: a reported window does not pal-match" % key)
            self.expect(idx.count(p) == len(pos),
                        "%s %r: count differs from len(locate)" % key)
            self.ref[key] = pos
            self._replay(key)
        if q.start is not None:
            self.expect(q.start in self.ref[key],
                        "%s %r: own start %d not found" % (key + (q.start,)))

    def _replay(self, key):
        """Backward search from outside, one backward_step per symbol; the
        interval width must equal the checked count."""
        palfm = self.palfm
        idx, p = self.indexes[key[0]], key[1]
        prof = palfm.pattern_preprocess(p)
        iv = palfm.PalInterval(1, idx.n + 1)
        steps = inf = 0
        early = False
        for i in range(len(p), 0, -1):
            pi = prof.pi_arr[i - 1]
            iv = idx.backward_step(iv, pi, prof.g_arr[i - 1])
            steps += 1
            inf += pi == palfm.INF
            if iv.is_empty:
                early = i > 1
                break
        self.expect(iv.width() == len(self.ref[key]),
                    "%s %r: replayed width differs from count" % key)
        self.iv[key] = (iv, steps, inf, early)

    def _walk(self, key):
        """The delta-sampled walk from outside: lf() until a marked row."""
        idx = self.indexes[key[0]]
        iv = self.iv[key][0]
        starts, steps = [], 0
        for row in range(iv.b, iv.e + 1):
            j, k = row, 0
            while not idx.B.bit_at(j):
                j = idx.lf(j)
                k += 1
            starts.append(idx.S[idx.B.rank(j, 1) - 1] + k)
            steps += k
        self.expect(sorted(starts) == self.ref[key],
                    "%s %r: replayed walk disagrees with locate" % key)
        return steps

    def _replay_counts(self):
        c = dict.fromkeys(("backward_steps", "inf_steps", "early", "queries",
                           "locate_hits", "lf_steps"), 0)
        walks = {}
        for pool, located in ((self.w.count_pool, False),
                              (self.w.locate_pool, True)):
            for q in pool:
                key = (q.text, q.pattern)
                _, steps, inf, early = self.iv[key]
                c["backward_steps"] += steps
                c["inf_steps"] += inf
                c["early"] += early
                c["queries"] += 1
                if located:
                    if key not in walks:
                        walks[key] = self._walk(key)
                    c["locate_hits"] += len(self.ref[key])
                    c["lf_steps"] += walks[key]
        self.counts = c

    def _scan(self, label, p):
        """Every window of the text against p with the oracle."""
        text, m = self.w.texts[label], len(p)
        match, found = {}, []
        for s in range(1, len(text) - m + 2):
            window = text[s - 1:s - 1 + m]
            if window not in match:
                match[window] = self.oracle.pal_match(window, p)
            if match[window]:
                found.append(s)
        self.expect(found == self.ref[(label, p)],
                    "%s %r: window scan disagrees with locate" % (label, p))

    # -- set-up ----------------------------------------------------------

    def _child(self, argv):
        """(uncorrected, corrected) wall seconds, the correction factor and
        the completed process.  The timer is off meanwhile, or the mix would
        compete with the child for the CPU; the factor comes from the last
        runs of the mix before the child and one run after it."""
        self.speed.stop()
        self.speed.sample()
        t0 = time.perf_counter()
        proc = _run_child(argv)
        t1 = time.perf_counter()
        self.speed.sample()
        self.speed.start()
        factor = self.speed.recent_factor()
        return (t1 - t0, (t1 - t0) * factor), factor, proc

    def setup(self, reps):
        """Fresh interpreters that import palfm and deserialize every image;
        each reports its own timestamps."""
        rows = sum(len(t) + 1 for t in self.w.texts.values())
        for _ in range(reps):
            _, factor, proc = self._child([CHILD, "load", self.work])
            ok = proc.returncode == 0
            self.expect(ok, "load child failed: %s"
                        % proc.stderr.decode(errors="replace")[-500:])
            if ok:
                run = json.loads(proc.stdout)
                self.expect(run["rows"] == rows, "load child row count")
                start, imported, end = run["t"]
                self.setup_runs.append({
                    "setup": (end - start, (end - start) * factor),
                    "deserialize": (end - imported) * factor,
                    "resident_kib": run["resident_kib"]})
        if self.trace:
            for _ in range(reps):
                self.interp.append(self._child(["-c", "pass"])[0][1])
                self.import_wall.append(
                    self._child(["-c", "import palfm"])[0][1])

    # -- timed phase -----------------------------------------------------

    def measure(self, seconds, tiny):
        """Interleave the components for `seconds`, each getting its share
        of the time: the next operation goes to the component furthest
        behind its share.  Spreading every component over the whole run
        means each sees the same machine conditions."""
        # two of everything: when tracing, one traced and one untraced
        minimum = {"build": 2 * len(self.w.texts),
                   "verify": 2,
                   "count": 2 * len(self.w.count_pool),
                   "locate": 2 * len(self.w.locate_pool),
                   "cli": 2 if tiny else 16}
        ops = {c: getattr(self, "_" + c)() for c in COMPONENTS}
        share = self.w.shares
        done = dict.fromkeys(COMPONENTS, 0)
        spent = dict.fromkeys(COMPONENTS, 0.0)
        start = time.perf_counter()
        while True:
            todo = [c for c in COMPONENTS if done[c] < minimum[c]]
            if time.perf_counter() - start >= seconds:
                if not todo:
                    return
            else:
                todo = COMPONENTS
            c = min(todo, key=lambda c: spent[c] / share[c])
            t0 = time.perf_counter()
            next(ops[c])
            spent[c] += time.perf_counter() - t0
            done[c] += 1

    def _traced(self, lap):
        self.tr.on = self.trace and lap % 2 == 0
        return self.tr.on

    def _build(self):
        """Build + serialize each text in turn; passes alternate between
        traced and untraced."""
        labels = list(self.w.texts)
        for i in itertools.count():
            label = labels[i % len(labels)]
            self._build_one(label, self._traced(i // len(labels)))
            yield

    def _build_one(self, label, traced):
        palfm, text = self.palfm, self.w.texts[label]
        op, t_op = self.tr.open(), time.perf_counter()
        try:
            t0 = time.perf_counter()
            idx = palfm.build(text)
            t1 = time.perf_counter()
            image = palfm.serialize(idx)
            t2 = time.perf_counter()
        except Exception as err:  # noqa: BLE001 - counted, run goes on
            self.attempted += 1
            self.fail("build %s: %r" % (label, err))
            return
        self._record("build", label, traced, t0, t2)
        self.expect(image == self.images[label],
                    "build %s: image differs from the reference" % label)
        if traced:
            sid = self.tr.add(op, op, "index.build", t0, t1)
            self.tr.add(op, op, "index.serialize", t1, t2)
            parts = {"build": self.speed.correct(t0, t1),
                     "serialize": self.speed.correct(t1, t2)}
            parts.update(self._decompose(op, sid, idx, text))
            self.parts[label].append(parts)
            self.tr.close(op, "op.build", t_op)

    def _decompose(self, op, parent, idx, text):
        """Re-run build's palcore and succinct parts as child spans."""
        palfm = self.palfm
        bits = [idx.B.bit_at(r) for r in range(1, idx.n + 2)]
        fc, lc = idx.F.codes(), idx.L.codes()
        calls = {
            "ssp": ("palcore.ssp", lambda: palfm.ssp(text)),
            "sspg": ("palcore.sspg", lambda: palfm.sspg(text[::-1])),
            "codeseq": ("succinct.codeseq_build",
                        lambda: (palfm.CodeSeq(fc, idx.F.max_code),
                                 palfm.CodeSeq(lc, idx.L.max_code))),
            "rmq": ("succinct.rmq_build",
                    lambda: palfm.RmqIndex(idx.lf_values)),
            "bitvec": ("succinct.bitvec_build", lambda: palfm.BitVec(bits)),
        }
        parts = {}
        for part in BUILD_PARTS:
            name, fn = calls[part]
            t0 = time.perf_counter()
            fn()
            t1 = time.perf_counter()
            self.tr.add(op, parent, name, t0, t1)
            parts[part] = self.speed.correct(t0, t1)
        return parts

    def _verify(self):
        idx, text = self.verify_index, self.w.verify_text
        for i in itertools.count():
            traced = self._traced(i)
            op, t_op = self.tr.open(), time.perf_counter()
            try:
                t0 = time.perf_counter()
                result = idx.verify(text)
                t1 = time.perf_counter()
            except Exception as err:  # noqa: BLE001 - counted, run goes on
                self.attempted += 1
                self.fail("verify: %r" % (err,))
            else:
                self._record("verify", "verify", traced, t0, t1)
                self.expect(result.ok, "verify: %s %s"
                            % (result.violation, result.detail))
                self.tr.add(op, op, "index.verify", t0, t1)
                self.tr.close(op, "op.verify", t_op)
            yield

    def _cycle(self, pool):
        """(entry, lap) in seeded shuffled order, reshuffled every lap, so
        every entry repeats once per lap."""
        rng = random.Random("%d/%d" % (self.seed, len(pool)))
        order = list(pool)
        for lap in itertools.count():
            rng.shuffle(order)
            for q in order:
                yield q, lap

    def _count(self):
        for q, lap in self._cycle(self.w.count_pool):
            key = (q.text, q.pattern)
            traced = self._traced(lap)
            op, t_op = self.tr.open(), time.perf_counter()
            try:
                self.indexes[q.text].count(q.pattern)   # warm the caches
                t0 = time.perf_counter()
                c = self.indexes[q.text].count(q.pattern)
                t1 = time.perf_counter()
            except Exception as err:  # noqa: BLE001 - counted, run goes on
                self.attempted += 1
                self.fail("count %s %r: %r" % (key + (err,)))
            else:
                self._record("count", key, traced, t0, t1)
                self.expect(c == len(self.ref[key]),
                            "count %s %r: wrong" % key)
                if traced:
                    sid = self.tr.add(op, op, "index.count", t0, t1)
                    pre = self._preprocess(op, sid, q.pattern)
                    self.search.append(self.speed.correct(t0, t1) - pre)
                    self.preprocess.append(pre)
                    self.tr.close(op, "op.count", t_op)
            yield

    def _preprocess(self, op, parent, p):
        t0 = time.perf_counter()
        self.palfm.pattern_preprocess(p)
        t1 = time.perf_counter()
        self.tr.add(op, parent, "palcore.pattern_preprocess", t0, t1)
        return self.speed.correct(t0, t1)

    def _locate(self):
        for q, lap in self._cycle(self.w.locate_pool):
            key = (q.text, q.pattern)
            idx = self.indexes[q.text]
            traced = self._traced(lap)
            op, t_op = self.tr.open(), time.perf_counter()
            try:
                idx.locate(q.pattern)   # warm the caches
                t0 = time.perf_counter()
                pos = idx.locate(q.pattern)
                t1 = time.perf_counter()
            except Exception as err:  # noqa: BLE001 - counted, run goes on
                self.attempted += 1
                self.fail("locate %s %r: %r" % (key + (err,)))
            else:
                self._record("locate", key, traced, t0, t1)
                self.expect(pos == self.ref[key],
                            "locate %s %r: wrong" % key)
                if traced:
                    sid = self.tr.add(op, op, "index.locate", t0, t1)
                    self._preprocess(op, sid, q.pattern)
                    iv = self.iv[key][0]
                    a = time.perf_counter()
                    for row in range(iv.b, iv.e + 1):
                        idx.sa_access(row)
                    b = time.perf_counter()
                    self.tr.add(op, sid, "index.sa_access", a, b)
                    self.sa_access[0] += self.speed.correct(a, b)
                    self.sa_access[1] += len(pos)
                    self.tr.close(op, "op.locate", t_op)
            yield

    def _cli(self):
        """One-shot `palfm count` and `palfm locate`, alternately."""
        label = self.w.cli_text
        image = os.path.join(self.work, self.stems[label] + ".img")
        pools = {kind: self._cycle([q for q in pool if q.text == label])
                 for kind, pool in (("count", self.w.count_pool),
                                    ("locate", self.w.locate_pool))}
        for i in itertools.count():
            kind = ("count", "locate")[i % 2]
            q, _ = next(pools[kind])
            want = self.ref[(label, q.pattern)]
            self.tr.on = self.trace
            op, t_op = self.tr.open(), time.perf_counter()
            t0 = time.perf_counter()
            wall, _, proc = self._child(
                ["-m", "palfm.cli", kind, image, q.pattern.decode("ascii")])
            out = proc.stdout.decode(errors="replace").split()
            got = [int(x) for x in out if x.isdigit()]
            ok = proc.returncode == 0 and got == (
                [len(want)] if kind == "count" else want)
            self.expect(ok, "cli %s %r: exit %d or wrong answer"
                        % (kind, q.pattern, proc.returncode))
            if ok:
                self.samples["cli"].setdefault(kind, ([], []))[0].append(wall)
            self.tr.add(op, op, "cli." + kind, t0, t0 + wall[0])
            self.tr.close(op, "op.cli", t_op)
            yield

    # -- results ---------------------------------------------------------

    def _per_unit(self, comp, traced, corrected):
        """Per unit, the median of its repetitions."""
        return {u: statistics.median(s[corrected] for s in v[traced])
                for u, v in self.samples[comp].items() if v[traced]}

    def _image_bytes(self):
        return sum(len(img) for img in self.images.values())

    def _throughput(self, traced, corrected):
        symbols = sum(len(t) for t in self.w.texts.values())
        return symbols / sum(self._per_unit("build", traced, corrected).values())

    def _per_entry(self, comp, traced, corrected):
        """Per pool entry that ran, by its number: its pattern's median."""
        times = self._per_unit(comp, traced, corrected)
        pool = self.w.count_pool if comp == "count" else self.w.locate_pool
        return {e: times[(q.text, q.pattern)] for e, q in enumerate(pool)
                if (q.text, q.pattern) in times}

    def end_to_end(self, corrected=True):
        symbols = sum(len(t) for t in self.w.texts.values())
        count = self._per_entry("count", False, corrected).values()
        locate = self._per_entry("locate", False, corrected)
        hits = sum(len(self.ref[(q.text, q.pattern)])
                   for e, q in enumerate(self.w.locate_pool) if e in locate)
        cli = self._per_unit("cli", False, corrected)
        return {
            "setup_s": statistics.median(
                r["setup"][corrected] for r in self.setup_runs),
            "build_sym_per_s": self._throughput(False, corrected),
            "build_peak_mib": self.build_peak_kib / 1024,
            "bits_per_sym": 8 * self._image_bytes() / symbols,
            "verify_s": self._per_unit("verify", False, corrected)["verify"],
            "count_p50_us": 1e6 * _percentile(count, 50),
            "count_p99_us": 1e6 * _percentile(count, 99),
            "locate_p50_us": 1e6 * _percentile(locate.values(), 50),
            "locate_p99_us": 1e6 * _percentile(locate.values(), 99),
            "locate_hits_per_s": hits / sum(locate.values()),
            "resident_x_image": statistics.median(
                r["resident_kib"] for r in self.setup_runs)
            * 1024 / self._image_bytes(),
            "cli_count_s": cli["count"],
            "cli_locate_s": cli["locate"],
        }

    def per_layer(self):
        def part(name, minus=()):
            # per text the median traced build, summed over the texts
            return sum(statistics.median(p[name] - sum(p[n] for n in minus)
                                         for p in runs)
                       for runs in self.parts.values())

        def p50_delta(comp):
            return 1e6 * (
                _percentile(self._per_entry(comp, True, True).values(), 50)
                - _percentile(self._per_entry(comp, False, True).values(), 50))

        c = self.counts
        self_times = self.tr.self_times()
        interp = statistics.median(self.interp)
        return {
            "palcore.ssp_s": part("ssp"),
            "palcore.sspg_s": part("sspg"),
            "palcore.pattern_preprocess_us":
                1e6 * statistics.median(self.preprocess),
            "index.build_s": part("build"),
            "index.build_other_s": part("build", BUILD_PARTS),
            "succinct.codeseq_build_s": part("codeseq"),
            "succinct.rmq_build_s": part("rmq"),
            "succinct.bitvec_build_s": part("bitvec"),
            "index.serialize_s": part("serialize"),
            "index.deserialize_s": statistics.median(
                r["deserialize"] for r in self.setup_runs),
            "index.image_bytes": self._image_bytes(),
            "index.resident_bytes": 1024 * statistics.median(
                r["resident_kib"] for r in self.setup_runs),
            "index.build_peak_bytes": 1024 * self.build_peak_kib,
            "index.search_us": 1e6 * statistics.median(self.search),
            "index.backward_steps": c["backward_steps"],
            "index.inf_steps": c["inf_steps"],
            "index.empty_exit_ratio": c["early"] / c["queries"],
            "index.locate_hits": c["locate_hits"],
            "index.lf_steps_per_hit": c["lf_steps"] / max(c["locate_hits"], 1),
            "index.sa_access_us_per_hit":
                1e6 * self.sa_access[0] / max(self.sa_access[1], 1),
            "index.verify_s": self._per_unit("verify", True, True)["verify"],
            "cli.interpreter_s": interp,
            "cli.import_s": statistics.median(self.import_wall) - interp,
            **{"%s.self_s" % layer: self_times.get(layer, 0.0)
               for layer in ("palcore", "index", "succinct", "cli", "bench")},
            "trace.count_p50_us_delta": p50_delta("count"),
            "trace.locate_p50_us_delta": p50_delta("locate"),
            "trace.build_sym_per_s_delta":
                self._throughput(True, True) - self._throughput(False, True),
        }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the harness self-test")
    args = ap.parse_args(argv)
    palfm, oracle = _import_palfm()
    workload = inputs.make(args.workload, args.seed, args.tiny)
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, "work-%d" % os.getpid())
    bench = Bench(palfm, oracle, workload, args.seed, bool(args.trace), work)
    # One CPU for the run and its children: the calibration mix then
    # measures the CPU every timed piece of work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        bench.prepare()
        bench.speed.start()
        bench.setup(2 if args.tiny else SETUP_REPS)
        bench.measure(args.seconds, args.tiny)
    finally:
        bench.speed.stop()
        shutil.rmtree(work, ignore_errors=True)
    raw = bench.end_to_end(corrected=False)
    if args.trace:
        metrics, units = bench.per_layer(), PER_LAYER
        bench.tr.write(os.path.join(OUT, "trace-%s-seed%d.jsonl"
                                    % (args.workload, args.seed)))
    else:
        metrics, units = bench.end_to_end(), END_TO_END
    for problem in bench.problems:
        print("FAILED: %s" % problem, file=sys.stderr)
    print("fail_ratio %.6g ratio (%d of %d operations)"
          % (bench.failed / max(bench.attempted, 1), bench.failed,
             bench.attempted))
    for name, value in metrics.items():
        extra = "  (uncorrected %.6g)" % raw[name] if name in raw else ""
        print("%-32s %.6g %s%s" % (name, value, units[name], extra))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
