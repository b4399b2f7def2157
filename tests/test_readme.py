"""README's library quickstart runs as written and shows the values its
comments state."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs_and_matches_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    report, result = scope["report"], scope["result"]
    assert report.capacity == 2
    assert report.pairs == ((0, 3), (1, 4))
    assert len(result.branches) == 16
    assert abs(report.entropy_bits - 2.0) <= 1e-12
    assert abs(result.min_fidelity - 1.0) <= 1e-12
