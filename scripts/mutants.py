#!/usr/bin/env python3
"""Mutation run over telecap's tolerances and conventions.

Each mutant replaces one piece of text, which must occur exactly once, in
one module of src/telecap.  The run copies the package into a temporary
directory, applies one mutant at a time to the copy and runs
`pytest -x -q` on the test files the mutant names, with the copy first on
PYTHONPATH.  A mutant is killed when those tests fail (pytest exits 1) and
survives when they pass (exit 0).  Any other exit status means no test
judged the mutant: collection failed, pytest was misused or found no
tests, or the run timed out.  Such a mutant is invalid and fails the run.

Before any mutant, the unmutated copy must pass every named test file.
The run fails if a mutant survives, unless the mutant is marked
equivalent: an equivalent mutant changes no output on any input the
package accepts, and its entry states the argument.  An equivalent mutant
that is killed also fails the run, since its argument would then be
wrong.  A mutant is never dropped from the list to make the run pass:
kill it with a test, or argue that it is equivalent.

Usage (from anywhere; the repository root is found from this file):

    python3 scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "telecap"
TOL = "tests/test_tolerances.py"
REPORT = "tests/test_cli.py::TestAnalyzeCommand"


class Mutant(NamedTuple):
    module: str
    old: str
    new: str
    tests: tuple[str, ...] = (TOL,)
    equivalent: str | None = None

    @property
    def label(self) -> str:
        return f"{self.module}: {self.old.strip()!r} -> {self.new.strip()!r}"


MUTANTS = [
    # ------------------------------------------------------------------
    # The 23 valid mutants of the first mutation run over the tolerances
    # (24 were made; one hit a docstring and was invalid), in today's text.
    # The first twelve survived the whole suite at the time.
    Mutant("capacity.py", "eta_hat, np.eye(du) / du))) <= eps)",
           "eta_hat, np.eye(du) / du))) <= 1e3 * eps)"),
    Mutant("capacity.py", "if np.max(off) > ABSENT_WEIGHT:", "if np.max(off) > 1e-3:"),
    Mutant("capacity.py", "np.clip(mu, 0.0, None) * 2.0 ** -d > ABSENT_WEIGHT)",
           "np.clip(mu, 0.0, None) * 2.0 ** -d > 1e-8)"),
    Mutant("capacity.py", "(weights > ABSENT_WEIGHT) & (rows >= 0)",
           "(weights > 1e-8) & (rows >= 0)"),
    Mutant("capacity.py", "_FACTOR_TOL = linalg.UNITARY_TOL / 10", "_FACTOR_TOL = 1e-4"),
    Mutant("capacity.py", "p = p[p > ABSENT_WEIGHT]", "p = p[p > 1e-6]"),
    Mutant("linalg.py", "_HERMITIAN_TOL = 1e-9 ", "_HERMITIAN_TOL = 1e-3 "),
    Mutant("teleport.py", "indices = np.flatnonzero(probabilities > ABSENT_WEIGHT)",
           "indices = np.flatnonzero(probabilities > 1e-6)"),
    Mutant("teleport.py", "if probability <= ABSENT_WEIGHT:", "if probability <= 1e-6:"),
    Mutant("cli.py", "_RENORM_REJECT = 1e-6", "_RENORM_REJECT = 1e-3"),
    Mutant("cli.py", "match = np.array_equal(chained, ghz_canonical_form(n).amplitudes)",
           "match = True",
           equivalent="the chained amplitudes equal the canonical form bit for bit on all "
                      "120 splits the CLI accepts (1 <= split < qubits <= 16), as "
                      "test_ghz_cnot_chain_is_exact_on_every_split checks, so the "
                      "comparison is true wherever it runs"),
    Mutant("teleport.py", "np.count_nonzero(cdf <= uniforms[:, t, None], axis=1)",
           "np.count_nonzero(cdf < uniforms[:, t, None], axis=1)", ("tests/test_branch_table.py",),
           equivalent="it differs only when a 53-bit uniform variate equals a normalized "
                      "cumulative probability exactly, an event of probability about "
                      "2**-53 per draw that no fixed seed of the tests or goldens meets"),
    # the eleven the suite killed at the time
    Mutant("linalg.py", "anchor - w[stop] <= eps:", "anchor - w[stop] < eps:"),
    Mutant("linalg.py", "return _unitarity_defect(u) <= UNITARY_TOL",
           "return _unitarity_defect(u) <= 1e-3"),
    Mutant("linalg.py", "v *= ph.conj() / np.hypot(ph.real, ph.imag)",
           "v *= ph / np.hypot(ph.real, ph.imag)", ("tests/test_linalg.py",)),
    Mutant("linalg.py", "if np.any(np.diff(w) > ABSENT_WEIGHT):", "if np.any(np.diff(w) > 1.0):"),
    Mutant("capacity.py", "return min(d, m, n)", "return min(d, n)", ("tests/test_capacity.py",)),
    Mutant("capacity.py", '(-1.0) ** (d - bin(i).count("1"))', '(1.0) ** (d - bin(i).count("1"))',
           ("tests/test_sender_unitary.py",)),
    Mutant("capacity.py", "_GS_ACCEPT = np.sqrt(ABSENT_WEIGHT) / 10", "_GS_ACCEPT = 1e-5"),
    Mutant("capacity.py", "pad = (1 << len(channel.bob)) - w.size - 1", "pad = 0",
           ("tests/test_capacity.py",)),
    Mutant("teleport.py", "fidelities = captured[indices] / probabilities[indices]",
           "fidelities = captured[indices]", ("tests/test_teleport.py",)),
    Mutant("states.py", "if abs(norm - 1.0) > NORM_TOL:", "if abs(norm - 1.0) > 1e-3:"),
    Mutant("cli.py", "FIDELITY_FLOOR = 1.0 - 1e-6", "FIDELITY_FLOOR = 1.0 - 1e-3"),
    # ------------------------------------------------------------------
    # Each of the eight independent values, moved by 10x each way (or,
    # for the value already moved above, the other way).
    Mutant("linalg.py", "DEFAULT_EPS = 1e-9 ", "DEFAULT_EPS = 1e-8 "),
    Mutant("linalg.py", "DEFAULT_EPS = 1e-9 ", "DEFAULT_EPS = 1e-10"),
    Mutant("linalg.py", "UNITARY_TOL = 1e-9 ", "UNITARY_TOL = 1e-8 "),
    Mutant("linalg.py", "UNITARY_TOL = 1e-9 ", "UNITARY_TOL = 1e-10"),
    Mutant("linalg.py", "NORM_TOL = 1e-9 ", "NORM_TOL = 1e-8 "),
    Mutant("linalg.py", "NORM_TOL = 1e-9 ", "NORM_TOL = 1e-10"),
    Mutant("linalg.py", "ABSENT_WEIGHT = 1e-12 ", "ABSENT_WEIGHT = 1e-11 "),
    Mutant("linalg.py", "ABSENT_WEIGHT = 1e-12 ", "ABSENT_WEIGHT = 1e-13 "),
    Mutant("linalg.py", "_HERMITIAN_TOL = 1e-9 ", "_HERMITIAN_TOL = 1e-10"),
    Mutant("linalg.py", "_PHASE_TOL = 1e-12 ", "_PHASE_TOL = 1e-11 "),
    Mutant("linalg.py", "_PHASE_TOL = 1e-12 ", "_PHASE_TOL = 1e-13 "),
    Mutant("cli.py", "_RENORM_REJECT = 1e-6", "_RENORM_REJECT = 1e-7"),
    Mutant("cli.py", "FIDELITY_FLOOR = 1.0 - 1e-6", "FIDELITY_FLOOR = 1.0 - 1e-5"),
    Mutant("cli.py", "FIDELITY_FLOOR = 1.0 - 1e-6", "FIDELITY_FLOOR = 1.0 - 1e-7"),
    # the two derived values, the other way
    Mutant("capacity.py", "_FACTOR_TOL = linalg.UNITARY_TOL / 10", "_FACTOR_TOL = 1e-11"),
    Mutant("capacity.py", "_GS_ACCEPT = np.sqrt(ABSENT_WEIGHT) / 10", "_GS_ACCEPT = 1e-8"),
    # the certificate's eps, the other way
    Mutant("capacity.py", "eta_hat, np.eye(du) / du))) <= eps)",
           "eta_hat, np.eye(du) / du))) <= 0.1 * eps)"),
    # ------------------------------------------------------------------
    # Each place that treats a weight at or below ABSENT_WEIGHT as absent,
    # its bound moved by 10x each way, and each comparison made strict or
    # loose where a test can put a value on the bound.
    Mutant("linalg.py", "if np.any(np.diff(w) > ABSENT_WEIGHT):", "if np.any(np.diff(w) > 1e-11):"),
    Mutant("linalg.py", "if np.any(np.diff(w) > ABSENT_WEIGHT):", "if np.any(np.diff(w) > 1e-13):"),
    Mutant("capacity.py", "p = p[p > ABSENT_WEIGHT]", "p = p[p > 1e-11]"),
    Mutant("capacity.py", "p = p[p > ABSENT_WEIGHT]", "p = p[p > 1e-13]"),
    Mutant("capacity.py", "if np.max(off) > ABSENT_WEIGHT:", "if np.max(off) > 1e-11:"),
    Mutant("capacity.py", "if np.max(off) > ABSENT_WEIGHT:", "if np.max(off) > 1e-13:"),
    Mutant("capacity.py", "np.clip(mu, 0.0, None) * 2.0 ** -d > ABSENT_WEIGHT)",
           "np.clip(mu, 0.0, None) * 2.0 ** -d > 1e-11)"),
    Mutant("capacity.py", "np.clip(mu, 0.0, None) * 2.0 ** -d > ABSENT_WEIGHT)",
           "np.clip(mu, 0.0, None) * 2.0 ** -d > 1e-13)"),
    Mutant("capacity.py", "(weights > ABSENT_WEIGHT) & (rows >= 0)",
           "(weights > 1e-11) & (rows >= 0)"),
    Mutant("capacity.py", "(weights > ABSENT_WEIGHT) & (rows >= 0)",
           "(weights > 1e-13) & (rows >= 0)"),
    Mutant("teleport.py", "indices = np.flatnonzero(probabilities > ABSENT_WEIGHT)",
           "indices = np.flatnonzero(probabilities > 1e-11)"),
    Mutant("teleport.py", "indices = np.flatnonzero(probabilities > ABSENT_WEIGHT)",
           "indices = np.flatnonzero(probabilities > 1e-13)"),
    Mutant("teleport.py", "indices = np.flatnonzero(probabilities > ABSENT_WEIGHT)",
           "indices = np.flatnonzero(probabilities >= ABSENT_WEIGHT)"),
    Mutant("teleport.py", "if probability <= ABSENT_WEIGHT:", "if probability <= 1e-13:"),
    Mutant("teleport.py", "if probability <= ABSENT_WEIGHT:", "if probability < ABSENT_WEIGHT:"),
    Mutant("states.py", "if probability <= ABSENT_WEIGHT:", "if probability <= 1e-11:"),
    Mutant("states.py", "if probability <= ABSENT_WEIGHT:", "if probability <= 1e-13:"),
    Mutant("states.py", "if probability <= ABSENT_WEIGHT:", "if probability < ABSENT_WEIGHT:"),
    # A residual label is cut in the unit of its columns' weight, as the
    # sender unitary cuts the columns: in the unit of mu, a weight between
    # 1e-12 / 2**d and 1e-12 is labelled but its columns are dropped.
    Mutant("capacity.py", "np.clip(mu, 0.0, None) * 2.0 ** -d > ABSENT_WEIGHT)",
           "np.clip(mu, 0.0, None) > ABSENT_WEIGHT)"),
    # A column whose own weight is above ABSENT_WEIGHT but whose label's
    # mean weight is not has no target, so the sender unitary drops it.
    Mutant("capacity.py", "(weights > ABSENT_WEIGHT) & (rows >= 0)", "weights > ABSENT_WEIGHT"),
    # ------------------------------------------------------------------
    # The certificate's capacity range, and the entropy-word count the
    # sampled path places a child's own word by.
    Mutant("capacity.py", "if not 0 <= d <= min(m, n):", "if not 0 <= d <= n:",
           ("tests/test_capacity.py",)),
    Mutant("teleport.py", "return max(1, -(-int(x).bit_length() // 32))",
           "return max(1, int(x).bit_length() // 32)", ("tests/test_branch_table.py",)),
    # ------------------------------------------------------------------
    # The canonical form a report keeps is keyed by the channel object:
    # reused for any channel of the same split, it teleports another state.
    Mutant("capacity.py", "kept[0] is channel", "True", ("tests/test_kept_canonical.py",)),
    # ------------------------------------------------------------------
    # The report checks the canonical form it makes, once; the joint state
    # holds at most 16 qubits, payload included.
    Mutant("capacity.py", "        _check_unit(mat)\n", "",
           ("tests/test_teleport.py::TestReportChecks::"
            "test_report_that_stretches_the_channel_rejected",)),
    Mutant("teleport.py", "k + channel.state.n_qubits > MAX_QUBITS:",
           "k + channel.state.n_qubits >= MAX_QUBITS:",
           ("tests/test_branch_table.py", "tests/test_teleport.py")),
    Mutant("teleport.py", "if k + channel.state.n_qubits > MAX_QUBITS:", "if False:",
           ("tests/test_teleport.py::TestReportChecks::"
            "test_channel_and_payload_over_the_cap_rejected",)),
    # States each within NORM_TOL of unit norm: tensor renormalizes their
    # product, and a teleport's fidelity is against the normalized payload.
    Mutant("states.py", "v = v / scale", "pass",
           ("tests/test_states.py::TestPermuteAndTensor",)),
    Mutant("teleport.py", "captured /= np.vdot(payload.amplitudes, payload.amplitudes).real",
           "pass", ("tests/test_teleport.py::TestNormEdge",)),
    # ------------------------------------------------------------------
    # verify names the first cluster whose multiplicity 2**d does not
    # divide, and the largest Bell stack fills the 16-qubit cap.
    Mutant("cli.py", "_two_adic(c.multiplicity) < d)", "_two_adic(c.multiplicity) <= d)",
           ("tests/test_cli.py::TestVerifyCommand",)),
    Mutant("corpus.py", "if not 1 <= n <= MAX_QUBITS // 2:", "if not 1 <= n < MAX_QUBITS // 2:",
           ("tests/test_corpus.py::TestBellStacks",)),
    # ------------------------------------------------------------------
    # The receiver's correction after Bell outcome 3 is -sigma_x: the
    # reference rounds take it from the oracle's table, not the package's.
    Mutant("teleport.py", "[[0, -1], [-1, 0]],  # 3: -sigma_x", "[[0, 1], [1, 0]],  # 3: -sigma_x",
           ("tests/test_teleport.py",)),
    # ------------------------------------------------------------------
    # A planted reference is the singlets, then the residual; the circuit
    # flavour reads outcome r as computational basis state r.
    Mutant("corpus.py", "mat = np.kron(mat, _gapped_residual(ra, rb, d, eps, residual_seq))",
           "mat = np.kron(_gapped_residual(ra, rb, d, eps, residual_seq), mat)",
           ("tests/test_corpus.py",)),
    Mutant("teleport.py", "np.eye(4, dtype=complex), _CIRCUIT",
           "np.eye(4, dtype=complex)[::-1], _CIRCUIT", ("tests/test_teleport.py",)),
    # The measurement circuit is CNOT, then H: without the CNOT it reads no
    # Bell state.
    Mutant("teleport.py", "@ np.eye(4, dtype=complex)[[0, 3, 2, 1]]", "@ np.eye(4, dtype=complex)",
           ("tests/test_teleport.py",)),
    # ------------------------------------------------------------------
    # A planted residual needs both halves of its gap test, every gap and
    # the smallest weight above the margin; the generator's exhaustion and
    # the sender unitary's residual-rank ArithmeticError are each reached.
    Mutant("corpus.py", "np.append(-np.diff(p), p[-1])", "-np.diff(p)",
           ("tests/test_corpus.py::TestPlanted",)),
    Mutant("corpus.py", "np.append(-np.diff(p), p[-1])", "p[-1:]",
           ("tests/test_corpus.py::TestPlanted",)),
    Mutant("corpus.py", 'raise ArithmeticError("could not draw a gapped residual spectrum")',
           "return candidate", ("tests/test_corpus.py::TestPlanted",)),
    Mutant("capacity.py", "if labels.size and labels[-1] >= da_res:", "if False:",
           ("tests/test_sender_unitary.py",)),
    # ------------------------------------------------------------------
    # A failed certificate ends analyze and verify with an error, even
    # when the spectrum admits the capacity.
    Mutant("capacity.py", "if not holds:\n        raise ArithmeticError(",
           "if False:\n        raise ArithmeticError(", ("tests/test_capacity.py::TestAnalyze", REPORT)),
    Mutant("cli.py", "if not holds:", "if False:", ("tests/test_cli.py::TestVerifyCommand",)),
    # ------------------------------------------------------------------
    # --report writes the purifier as the report keeps it: as its factors,
    # on the purifying side.
    Mutant("capacity.py", "return (p.w, p.dc) if isinstance(p, _LowRank) else None",
           "return None", (REPORT,)),
    Mutant("cli.py", 'doc["u_b" if report.swapped else "u_a"] = ',
           'doc["u_a" if report.swapped else "u_b"] = ', (REPORT,)),
    Mutant("cli.py", "[report.u_a, *factors] if report.swapped else [*factors, report.u_b]",
           "[*factors, report.u_b] if report.swapped else [report.u_a, *factors]", (REPORT,)),
]


def _pytest(tests, env) -> int:
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=600).returncode
    except subprocess.TimeoutExpired:
        return -1


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="telecap-mutants-") as tmp:
        copy = Path(tmp) / "telecap"
        shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [tmp, os.environ.get("PYTHONPATH")])), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", "import telecap; print(telecap.__file__)"],
                               env=env, capture_output=True, text=True, check=True).stdout
        if Path(where.strip()).parent != copy:
            print(f"the copy is not imported first: telecap comes from {where.strip()}")
            return 2
        for mutant in MUTANTS:
            if (copy / mutant.module).read_text().count(mutant.old) != 1:
                print(f"invalid mutant, its text does not occur exactly once: {mutant.label}")
                return 2
        files = sorted({t for m in MUTANTS for t in m.tests})
        if _pytest(files, env) != 0:
            print(f"the unmutated package fails {' '.join(files)}")
            return 2
        failures = 0
        for mutant in MUTANTS:
            path = copy / mutant.module
            original = path.read_text()
            path.write_text(original.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            try:
                code = _pytest(mutant.tests, env)
            finally:
                path.write_text(original)
            killed = code == 1
            if code not in (0, 1):
                verdict = f"INVALID, pytest exit {code}"
                failures += 1
            elif mutant.equivalent:
                verdict = "KILLED, but marked equivalent" if killed else "equivalent, survived"
                failures += killed
            else:
                verdict = "killed" if killed else "SURVIVED"
                failures += not killed
            print(f"{verdict:30} {time.perf_counter() - start:5.1f} s  {mutant.label}", flush=True)
    print(f"{len(MUTANTS)} mutants, {failures} failing the run")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
