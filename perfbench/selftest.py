#!/usr/bin/env python3
"""Self-tests of the perfbench harness's own checks.

    python3 perfbench/selftest.py

Runs short loops of every workload through perfbench/run.py and requires:
  * a clean run is correct, with nothing failed;
  * a corrupted output (--self-test corrupt: one key of the first timed
    sort, or one replayed campaign slot, is altered before its check) makes
    the run incorrect and its exit code non-zero;
  * an injected fail-stop on an honest sort (--self-test failstop: one node
    computes with the inverted direction, which S_FT detects) is counted in
    `failed` without being retried, and the run stays correct.
Exits 0 iff every case behaves as required.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload, *extra):
    p = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "0", *extra],
        capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result


def main():
    failures = []

    def expect(name, ok):
        print("%-40s %s" % (name, "ok" if ok else "FAILED"), flush=True)
        if not ok:
            failures.append(name)

    for w in ("fleet", "campaign", "sim-sft"):
        rc, r = run(w)
        expect(w + ": clean run", rc == 0 and r and r["correct"] and r["failed"] == 0)
        rc, r = run(w, "--self-test", "corrupt")
        expect(w + ": corrupted output fails the run",
               rc != 0 and r is not None and not r["correct"])
    for w in ("fleet", "sim-sft"):
        rc, r = run(w, "--self-test", "failstop")
        expect(w + ": injected fail-stop is counted",
               rc == 0 and r and r["correct"] and r["failed"] == 1
               and r["attempted"] > 1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
