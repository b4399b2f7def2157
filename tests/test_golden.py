"""Replay the golden CLI transcripts byte for byte.

The transcripts were recorded with tests/golden/capture.py; every command
must reproduce its exit code, stdout, stderr and written file exactly.
"""

import json

from golden.capture import GOLDEN, run

with open(GOLDEN, encoding="utf-8") as _fp:
    TRANSCRIPTS = json.load(_fp)


def test_transcripts_cover_every_subcommand():
    used = {entry["argv"][0] for entry in TRANSCRIPTS}
    assert used == {"generate", "analyze", "verify", "teleport", "demo-ghz"}
    assert {entry["exit"] for entry in TRANSCRIPTS} >= {0, 1, 4}


def test_replay_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for expected in TRANSCRIPTS:
        got = run(expected["argv"])
        assert got == expected, " ".join(expected["argv"])
