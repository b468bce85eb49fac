"""Work the benchmark runs in fresh interpreters, one JSON line out.

    python perfbench/child.py build WORKDIR   build + serialize every text
    python perfbench/child.py load WORKDIR    import palfm, deserialize images

WORKDIR holds manifest.json (a list of file stems) with STEM.txt inputs;
`build` writes STEM.img next to them.  palfm comes from PYTHONPATH.  Both
commands report resident-set sizes, which a fresh process makes repeatable:
nothing else has allocated and freed memory before the measured step.
"""

import json
import os
import sys
import time


def _status_kib(field):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError("no %s in /proc/self/status" % field)


def _rss_kib():
    return _status_kib("VmRSS")


def _peak_kib():
    # VmHWM belongs to this process image; getrusage's ru_maxrss also
    # carries the high-water mark of the parent that spawned it
    return _status_kib("VmHWM")


def _stems(workdir):
    with open(os.path.join(workdir, "manifest.json")) as fh:
        return json.load(fh)


def build(workdir):
    import palfm

    texts = []
    for stem in _stems(workdir):
        with open(os.path.join(workdir, stem + ".txt"), "rb") as fh:
            texts.append((stem, fh.read()))
    base = _rss_kib()
    for stem, text in texts:
        image = palfm.serialize(palfm.build(text))
        with open(os.path.join(workdir, stem + ".img"), "wb") as fh:
            fh.write(image)
    # the high-water mark covers every build; imports peak below the base
    return {"build_peak_kib": _peak_kib() - base}


def load(workdir):
    images = []
    for stem in _stems(workdir):
        with open(os.path.join(workdir, stem + ".img"), "rb") as fh:
            images.append(fh.read())
    t0 = time.perf_counter()
    import palfm
    t1 = time.perf_counter()
    base = _rss_kib()
    loaded = [palfm.deserialize(img) for img in images]
    t2 = time.perf_counter()
    held = _rss_kib() - base
    return {"t": [t0, t1, t2], "resident_kib": held,
            "rows": sum(i.n + 1 for i in loaded)}


if __name__ == "__main__":
    command, workdir = sys.argv[1], sys.argv[2]
    print(json.dumps({"build": build, "load": load}[command](workdir)))
