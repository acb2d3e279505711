#!/usr/bin/env python3
"""Smoke test of the serving benchmark: every workload, untraced and
traced, in --smoke mode (a tiny run). Checks that each run is correct and
prints exactly the metrics BENCHMARK.json names, with their units.

    python3 servbench/test_run.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the workload list)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []
    for w in sorted(run.WORKLOADS):
        for trace in (0, 1):
            r = subprocess.run(
                bench["command"] + ["--workload", w, "--seed", "1",
                                    "--seconds", "1", "--trace", str(trace),
                                    "--smoke"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=900)
            name = "%s trace=%d" % (w, trace)
            if r.returncode != 0:
                failures.append("%s: exit %d\n%s" % (name, r.returncode,
                                                     r.stderr[-2000:]))
                continue
            out = json.loads(r.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (name, sorted(out)))
            if got != want[trace]:
                failures.append("%s: metrics differ from BENCHMARK.json: "
                                "missing %s, extra %s" % (
                                    name, sorted(set(want[trace]) - set(got)),
                                    sorted(set(got) - set(want[trace]))))
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                failures.append("%s: correct=%s attempted=%d failed=%d\n%s" % (
                    name, out["correct"], out["attempted"], out["failed"],
                    r.stderr[-2000:]))
            print("ok " if not failures else ".. ", name, flush=True)
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
