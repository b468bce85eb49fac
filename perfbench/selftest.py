"""Self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json with --tiny, untraced and traced, and
checks that each run exits 0, reports correct answers with no failures, and
prints exactly the metrics BENCHMARK.json names, with its units.  Then
checks that a copy holding only BENCHMARK.json and the benchmark's own files
refuses to run: it must exit non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT = 300


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_workload(spec, workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(want), set(got) ^ set(want)
    for name, metric in got.items():
        assert metric["unit"] == want[name], (name, metric)
        assert math.isfinite(metric["value"]), (name, metric)


def check_refuses_without_sources(spec):
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, proc.stdout[-2000:]
        assert not any(line.startswith("{")
                       for line in proc.stdout.splitlines()), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, w["name"], trace)
            print("ok %s --trace %d" % (w["name"], trace))
    check_refuses_without_sources(spec)
    print("ok refuses to run without palfm sources")


if __name__ == "__main__":
    main()
