"""The mutant list of scripts/mutants.py can run: each mutant's text occurs
exactly once in its module, and each test file it names exists.  The
mutation run checks the same before its first mutant; here an edit that
moves a mutant's text fails tier-1 at once."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_can_run():
    assert mutants.unrunnable() == []


def test_text_that_occurs_twice_is_reported(tmp_path, monkeypatch):
    first = mutants.MUTANTS[0]
    package = Path(shutil.copytree(mutants.PACKAGE, tmp_path / "telecap"))
    module = package / first.module
    module.write_text(module.read_text() + f"\n# {first.old}\n")
    monkeypatch.setattr(mutants, "PACKAGE", package)
    same = [m for m in mutants.MUTANTS if (m.module, m.old) == (first.module, first.old)]
    assert mutants.unrunnable() == [
        f"invalid mutant, its text does not occur exactly once: {m.label}" for m in same]


def test_missing_test_file_is_reported(monkeypatch):
    mutant = mutants.Mutant("linalg.py", "DEFAULT_EPS = 1e-9 ", "DEFAULT_EPS = 1e-8 ",
                            ("tests/test_tolerances.py", "tests/test_missing.py::TestNone"))
    monkeypatch.setattr(mutants, "MUTANTS", [mutant])
    assert mutants.unrunnable() == [
        f"invalid mutant, tests/test_missing.py::TestNone names no test file: {mutant.label}"]
