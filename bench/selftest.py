#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate, at tiny sizes.

    python3 bench/selftest.py

A planted 2|2 channel runs one round three ways: with its true expected
answers, with a deliberately wrong expected capacity, and with a
deliberately wrong expected CLI exit code.  The first must give
failed_frac = 0; each of the others must give failed_frac > 0 without an
exception escaping, neither from the round nor from the rates derived
from it.  With a wrong capacity every analysis fails and no teleport
runs, so the rates must still come out (as 0.0 where nothing ran).
Exits 0 when all three hold.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from harness import Runner  # noqa: E402
from workloads import CliCall, planted_case  # noqa: E402


def failed_frac(case) -> tuple[float, list[str]]:
    runner = Runner([case])
    runner.run_round(0)
    runner.rates([0])
    attempted, failed = runner.attempted_failed()
    return failed / attempted, runner.failures


def main() -> int:
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=out)
    try:
        true = planted_case("selftest", random.Random(0), workdir, 2, 2, 1, 1, 4)
        wrong_exit = CliCall(true.cli[0].argv, 4, true.cli[0].capacity)
        cases = {
            "true answers": (true, lambda f: f == 0),
            "wrong capacity": (dataclasses.replace(true, capacity=2), lambda f: f > 0),
            "wrong exit code": (dataclasses.replace(true, cli=(wrong_exit,)), lambda f: f > 0),
        }
        ok = True
        for name, (case, expect) in cases.items():
            frac, failures = failed_frac(case)
            passed = expect(frac)
            ok &= passed
            print(f"{'ok  ' if passed else 'FAIL'} {name}: failed_frac={frac:.3f}"
                  + (f" ({failures[0]})" if failures else ""))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
