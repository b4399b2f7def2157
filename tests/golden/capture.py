#!/usr/bin/env python3
"""Record the golden CLI transcripts replayed by tests/test_golden.py.

    PYTHONPATH=src python3 tests/golden/capture.py

Runs a fixed list of telecap commands in process, in order, inside a
temporary directory, and writes tests/golden/cli_transcripts.json: for each
command its argv, exit code, stdout and stderr, plus the SHA-256 of the
file it writes, if any.  Re-run it only when a change to the CLI output is
intended; the test then pins the new bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "cli_transcripts.json")

# (m, n, planted d, seed): both orientations, lopsided splits and d = 0
PLANTED = (
    (3, 3, 2, 31),
    (4, 2, 1, 42),
    (2, 4, 2, 24),
    (5, 5, 3, 55),
    (6, 2, 2, 62),
    (2, 6, 1, 26),
    (7, 1, 1, 71),
    (3, 5, 0, 35),
)


def commands() -> list[list[str]]:
    out = []
    for m, n, d, seed in PLANTED:
        f = f"planted_{m}_{n}.json"
        s = ["--seed", str(seed)]
        out += [
            ["generate", str(m), str(n), str(d), *s, "-o", f],
            ["analyze", f],
            ["verify", f, str(d)],
            ["verify", f, str(d + 1)],
            ["teleport", f, *s],
            ["teleport", f, *s, "--method", "circuit"],
            ["teleport", f, *s, "--mode", "sample", "--trials", "8"],
            ["teleport", f, *s, "--mode", "sample", "--trials", "8", "--method", "circuit"],
        ]
    out += [
        ["demo-ghz", "4", "2"],
        ["demo-ghz", "5", "1", "--method", "circuit"],
        ["demo-ghz", "6", "4", "--mode", "sample", "--trials", "6", "--seed", "9"],
    ]
    return out


def run(argv: list[str]) -> dict:
    """One command in the current directory, as a transcript entry."""
    from telecap.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    entry = {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
             "stderr": err.getvalue()}
    if "-o" in argv:
        with open(argv[argv.index("-o") + 1], "rb") as fp:
            entry["sha256"] = hashlib.sha256(fp.read()).hexdigest()
    return entry


def capture() -> list[dict]:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return [run(argv) for argv in commands()]
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
    with open(GOLDEN, "w", encoding="utf-8") as fp:
        json.dump(capture(), fp, indent=1)
        fp.write("\n")
    print(f"wrote {GOLDEN}")
