"""Closed-loop rounds over a workload's cases, with the correctness gate,
the residuals and the metrics derived from them.

One caller in one process issues each call when the previous one returns.
A round runs every case of the workload once, in order; every round does
identical work, so per-round rates can be compared and their median taken.
Checks run after the timer stops, with tracing paused.
"""

from __future__ import annotations

import re
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import telecap
from tracing import TRACED, Tracer, nearest_ancestor, self_times
from workloads import Case, cli_call

FIDELITY_FLOOR = 1.0 - 1e-6    # the CLI's fidelity floor
PROBABILITY_TOL = 1e-9         # |sum of branch probabilities - 1|
CERTIFICATE_TOL = 1e-9         # max-norm factorization defect (DEFAULT_EPS)

END_TO_END_RATES = {
    "answers_per_s": "answer",
    "analyze_per_s": "analyze",
    "teleport_branches_per_s": "exhaustive",
    "sample_trials_per_s": "sample",
    "cli_calls_per_s": "cli",
}

RESIDUALS = (
    "capacity.unitarity_defect_max",
    "capacity.factorization_defect_max",
    "capacity.canonical_fidelity_defect_max",
    "teleport.fidelity_defect_max",
    "teleport.probability_defect_max",
)

# Functions that run only while inputs are built; their metrics come from
# the traced set-up rather than from the traced rounds.
SETUP_SPANS = ("corpus.generate_planted", "corpus.haar_unitary", "cli.save_state_file")
TOTAL_SPANS = ("capacity.analyze", "teleport.teleport_bell", "teleport.teleport_circuit",
               "corpus.generate_planted", "cli.main")
PER_ANALYZE = ("capacity.verify_condition", "capacity.reduced_density",
               "linalg.hermitian_eig")
ROUND_SPANS = ("teleport.bell_round", "teleport.circuit_round")

_CAPACITY = re.compile(r"capacity=(\d+)")


@dataclass
class Op:
    """One timed call: kind is analyze, exhaustive.<method>,
    sample.<method> or cli; units are branches or trials delivered, else 1."""

    round: int
    case: str
    kind: str
    seconds: float
    units: int = 0
    ok: bool = False


class Runner:
    def __init__(self, cases: list[Case], tracer: Tracer | None = None):
        self.cases = cases
        self.tracer = tracer
        self.ops: list[Op] = []
        self.failures: list[str] = []
        self.residuals = dict.fromkeys(RESIDUALS, 0.0)
        self._first_stdout: dict[tuple[str, ...], str] = {}

    # ------------------------------------------------------------ running

    def run_round(self, r: int) -> None:
        for case in self.cases:
            self._run_case(r, case)

    def _timed(self, r: int, case: Case, kind: str, call):
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # counted as a failed operation, run continues
            result = exc
        op = Op(r, case.label, kind, time.perf_counter() - start)
        self.ops.append(op)
        return op, result

    @contextmanager
    def _untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def _fail(self, op: Op, why: str) -> None:
        op.ok = False
        self.failures.append(f"{op.case} {op.kind}: {why}")

    def _run_case(self, r: int, case: Case) -> None:
        op, report = self._timed(r, case, "analyze", lambda: telecap.analyze(case.channel))
        with self._untraced():
            self._check(self._check_analysis, op, case, report)
        if not op.ok:
            report = None
        for method in ("bell", "circuit"):
            if case.payload is not None:
                self._teleport(r, case, report, method, "exhaustive")
            if case.sample_trials:
                self._teleport(r, case, report, method, "sample")
        for call in case.cli:
            op, result = self._timed(r, case, "cli", lambda: cli_call(call.argv))
            self._check(self._check_cli, op, call, result)

    def _teleport(self, r: int, case: Case, report, method: str, mode: str) -> None:
        kind = f"{mode}.{method}"
        if report is None:
            self.ops.append(Op(r, case.label, kind, 0.0))
            return self._fail(self.ops[-1], "skipped: no valid analysis")
        trials = case.sample_trials if mode == "sample" else 1
        op, result = self._timed(r, case, kind, lambda: getattr(telecap, f"teleport_{method}")(
            case.channel, case.payload, report, mode=mode, seed=case.sample_seed,
            trials=trials))
        self._check(self._check_teleport, op, result, mode, trials)

    # ------------------------------------------------------------- checks

    def _check(self, check, op: Op, *args) -> None:
        try:
            check(op, *args)
        except Exception as exc:  # a malformed result fails its operation
            self._fail(op, f"check raised {exc!r}")

    def _check_analysis(self, op: Op, case: Case, report) -> None:
        if isinstance(report, Exception):
            return self._fail(op, f"raised {report!r}")
        if report.capacity != case.capacity:
            return self._fail(op, f"capacity {report.capacity}, built as {case.capacity}")
        factorization, unitarity, canonical = analysis_residuals(case.channel, report)
        res = self.residuals
        res["capacity.factorization_defect_max"] = max(
            res["capacity.factorization_defect_max"], factorization)
        res["capacity.unitarity_defect_max"] = max(res["capacity.unitarity_defect_max"],
                                                   unitarity)
        res["capacity.canonical_fidelity_defect_max"] = max(
            res["capacity.canonical_fidelity_defect_max"], canonical)
        if factorization > CERTIFICATE_TOL:
            return self._fail(op, f"certificate defect {factorization:.3e}")
        op.units, op.ok = 1, True

    def _check_teleport(self, op: Op, result, mode: str, trials: int) -> None:
        if isinstance(result, Exception):
            return self._fail(op, f"raised {result!r}")
        res = self.residuals
        fidelity = result.min_fidelity
        res["teleport.fidelity_defect_max"] = max(res["teleport.fidelity_defect_max"],
                                                  1.0 - fidelity)
        if fidelity < FIDELITY_FLOOR:
            return self._fail(op, f"min fidelity {fidelity!r}")
        if mode == "exhaustive":
            off = abs(result.total_probability - 1.0)
            res["teleport.probability_defect_max"] = max(
                res["teleport.probability_defect_max"], off)
            if off > PROBABILITY_TOL:
                return self._fail(op, f"total probability off 1 by {off:.3e}")
        elif len(result.branches) != trials:
            return self._fail(op, f"{len(result.branches)} records for {trials} trials")
        op.units, op.ok = len(result.branches), True

    def _check_cli(self, op: Op, call, result) -> None:
        if isinstance(result, Exception):
            return self._fail(op, f"{' '.join(call.argv[:1])} raised {result!r}")
        code, out = result
        if code != call.exit_code:
            return self._fail(op, f"{call.argv[0]} exit {code}, expected {call.exit_code}")
        if call.capacity is not None:
            found = _CAPACITY.findall(out)
            if not found or int(found[-1]) != call.capacity:
                return self._fail(op, f"{call.argv[0]} printed capacity {found}, "
                                      f"built as {call.capacity}")
        first = self._first_stdout.setdefault(call.argv, out)
        if out != first:
            return self._fail(op, f"{call.argv[0]} stdout differs from the first pass")
        op.units, op.ok = 1, True

    # ------------------------------------------------------------ metrics

    def round_seconds(self, rounds) -> list[float]:
        """Timed seconds of each listed round (checks excluded)."""
        by_round = dict.fromkeys(rounds, 0.0)
        for op in self.ops:
            if op.round in by_round:
                by_round[op.round] += op.seconds
        return list(by_round.values())

    def rates(self, rounds) -> dict[str, float]:
        """Median over rounds of units delivered per second of call time;
        0.0 for a kind that never ran because every analysis failed."""
        per = {r: {k: [0, 0.0] for k in END_TO_END_RATES.values()} for r in rounds}
        answered: dict[tuple[int, str], bool] = {}
        for op in self.ops:
            if op.round not in per:
                continue
            kind = op.kind.split(".")[0]
            cell = per[op.round][kind]
            cell[0] += op.units
            cell[1] += op.seconds
            if kind in ("analyze", "exhaustive"):
                key = (op.round, op.case)
                answered[key] = answered.get(key, True) and op.ok
                per[op.round]["answer"][1] += op.seconds
        for (r, _), ok in answered.items():
            per[r]["answer"][0] += ok
        out = {}
        for name, kind in END_TO_END_RATES.items():
            values = [units / secs for units, secs in (per[r][kind] for r in rounds) if secs]
            out[name] = statistics.median(values) if values else 0.0
        return out

    def attempted_failed(self) -> tuple[int, int]:
        return len(self.ops), sum(not op.ok for op in self.ops)


def analysis_residuals(channel, report) -> tuple[float, float, float]:
    """(factorization, unitarity, canonical-fidelity) defects of a report,
    from its public fields and telecap's public functions."""
    oriented = channel.swapped() if report.swapped else channel
    u = report.u_a if report.swapped else report.u_b
    rho = u @ telecap.reduced_density(oriented, "bob") @ u.conj().T
    du = 1 << report.capacity
    eta = np.ones((1, 1)) if report.eta is None else report.eta
    factorization = float(np.max(np.abs(rho - np.kron(eta, np.eye(du) / du))))
    unitarity = max(float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
                    for m in (report.u_a, report.u_b))
    psi = telecap.apply_unitary(channel.state, report.u_a, channel.alice)
    psi = telecap.apply_unitary(psi, report.u_b, channel.bob)
    canonical = abs(1.0 - telecap.fidelity(psi, telecap.canonical_state(channel, report)))
    return factorization, unitarity, canonical


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _span_counts(spans) -> dict[int, dict[str, int]]:
    """Span counts by name for each operation."""
    counts: dict[int, dict[str, int]] = {}
    for s in spans:
        if s.op >= 0:
            row = counts.setdefault(s.op, {})
            row[s.name] = row.get(s.name, 0) + 1
    return counts


def count_mismatches(spans, ops: list[Op], rounds) -> list[str]:
    """Exact span counts must repeat op for op between traced rounds."""
    counts = _span_counts(spans)
    per_round: dict[int, list] = {r: [] for r in rounds}
    for i, op in enumerate(ops):
        if op.round in per_round:
            per_round[op.round].append((op.case, op.kind, sorted(counts.get(i, {}).items())))
    rounds = list(rounds)
    return [f"span counts of round {r} differ from round {rounds[0]}"
            for r in rounds[1:] if per_round[r] != per_round[rounds[0]]]


def layer_metrics(tracer: Tracer, ops: list[Op], rounds) -> dict[str, float]:
    """Per-layer metrics from the traced rounds, normalised per round; the
    set-up functions from the single traced set-up."""
    spans = tracer.spans
    rounds = set(rounds)
    selfs = self_times(spans)
    in_rounds = [i for i, s in enumerate(spans) if s.op >= 0 and ops[s.op].round in rounds]
    in_setup = [i for i, s in enumerate(spans) if s.op < 0]
    out: dict[str, float] = {}
    for module, fname in TRACED:
        name = f"{module}.{fname}"
        setup = name in SETUP_SPANS
        idx = [i for i in (in_setup if setup else in_rounds) if spans[i].name == name]
        per = 1 if setup else len(rounds)
        durations = sorted(spans[i].seconds for i in idx)
        out[f"{name}.calls"] = len(idx) / per
        if name in TOTAL_SPANS:
            out[f"{name}.s"] = sum(durations) / per
        out[f"{name}.self_s"] = sum(selfs[i] for i in idx) / per
        out[f"{name}.p50_ms"] = 1e3 * _percentile(durations, 0.5)
        out[f"{name}.p90_ms"] = 1e3 * _percentile(durations, 0.9)

    owner = nearest_ancestor(spans, "capacity.analyze")
    analyses = sum(1 for i in in_rounds if spans[i].name == "capacity.analyze")
    for name in PER_ANALYZE:
        inside = sum(1 for i in in_rounds if spans[i].name == name and owner[i] >= 0)
        out[f"{name}.calls_per_analyze"] = inside / analyses if analyses else 0.0

    def per_unit(prefix: str, names) -> float:
        units = sum(op.units for op in ops if op.round in rounds and op.kind.startswith(prefix))
        calls = sum(1 for i in in_rounds
                    if spans[i].name in names and ops[spans[i].op].kind.startswith(prefix))
        return calls / units if units else 0.0

    out["teleport.rounds_per_branch"] = per_unit("exhaustive", ROUND_SPANS)
    out["teleport.projections_per_trial"] = per_unit("sample", ("states.project_and_collapse",))
    out["trace.rounds"] = len(rounds)
    return out


def case_table(tracer: Tracer, ops: list[Op], rounds) -> list[dict]:
    """One row per case from the traced rounds: medians of call times (and
    of self times inside analyze) and the exact span counts per call."""
    spans = tracer.spans
    rounds = set(rounds)
    counts = _span_counts(spans)
    selfs = self_times(spans)
    op_self: dict[int, dict[str, float]] = {}
    for i, s in enumerate(spans):
        if s.op >= 0:
            row = op_self.setdefault(s.op, {})
            row[s.name] = row.get(s.name, 0.0) + selfs[i]
    first = min(rounds)
    rows: dict[str, dict] = {}
    for i, op in enumerate(ops):
        if op.round not in rounds:
            continue
        row = rows.setdefault(op.case, {"case": op.case, "_t": {}, "_cli": {}})
        c = counts.get(i, {})
        if op.kind == "cli":
            row["_cli"][op.round] = row["_cli"].get(op.round, 0.0) + op.seconds
            row["cli_calls"] = row.get("cli_calls", 0) + (op.round == first)
            continue
        row["_t"].setdefault(op.kind, []).append(op.seconds)
        if op.kind == "analyze":
            for name in ("capacity.synthesize_u_a",) + PER_ANALYZE:
                short = name.split(".")[1]
                row["_t"].setdefault(f"{short}.self", []).append(
                    op_self.get(i, {}).get(name, 0.0))
                if name in PER_ANALYZE:
                    row[f"{short}.per_analyze"] = c.get(name, 0)
        elif op.kind.startswith("exhaustive"):
            row[f"{op.kind}.branches"] = op.units
            row[f"{op.kind}.rounds_per_branch"] = (
                sum(c.get(n, 0) for n in ROUND_SPANS) / op.units if op.units else 0.0)
        elif op.kind.startswith("sample"):
            row[f"{op.kind}.trials"] = op.units
            row[f"{op.kind}.projections_per_trial"] = (
                c.get("states.project_and_collapse", 0) / op.units if op.units else 0.0)
    table = []
    for row in rows.values():
        for kind, secs in sorted(row.pop("_t").items()):
            row[f"{kind}_ms"] = 1e3 * statistics.median(secs)
        cli = row.pop("_cli")
        if cli:
            row["cli_ms"] = 1e3 * statistics.median(cli.values())
        table.append(row)
    return table
