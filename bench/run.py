#!/usr/bin/env python3
"""telecap benchmark: run one workload in a closed loop and print its metrics.

    python3 bench/run.py --workload lopsided --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured with no
tracing installed; with ``--trace 1`` they are its per-layer metrics, from
spans recorded around telecap's public functions.  Lines before it record
the environment and, when traced, one row per case.  A traced run also
writes its spans to ``.bench_out/`` at the repository root.

One caller in one process runs the workload's cases round after round,
each call issued when the previous one returns.  Set-up (imports, input
generation, state files, warm-up) is timed apart and repeated five times.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1  # at most nproc; one thread keeps runs steady on a shared host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import telecap, telecap.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Median import time of telecap over fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise SystemExit(f"error: cannot import telecap from {SRC}:\n{done.stderr}")
        times.append(float(done.stdout))
    return statistics.median(times)


def git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fp:
            ref = fp.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fp:
                return fp.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args, load_start) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def repeat_for(step, seconds: float, min_steps: int) -> int:
    """Calls step(0), step(1), ... until the next call would end past
    ``seconds``; returns how many ran."""
    durations = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_steps and elapsed + statistics.median(durations) > seconds:
            return len(durations)


def declared_metrics(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return {m["name"]: m["unit"] for m in json.load(fp)[kind]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "telecap", "__init__.py")):
        print(f"error: no telecap package under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    load_start = list(os.getloadavg())
    setup_import = import_seconds()

    sys.path.insert(0, SRC)
    from harness import Runner, case_table, count_mismatches, layer_metrics
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # a terminated run still removes its state files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    tracer = Tracer() if args.trace else None
    workdirs = []
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            traced_setup = tracer is not None and rep == SETUP_REPEATS - 1
            if traced_setup:
                tracer.install()
            workdirs.append(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
            start = time.perf_counter()
            cases = WORKLOADS[args.workload](random.Random(args.seed), workdirs[-1])
            Runner(cases[:1]).run_round(-1)  # warm-up
            setup_times.append(time.perf_counter() - start)
            if traced_setup:
                tracer.uninstall()

        runner = Runner(cases, tracer)
        errors = []
        if tracer is None:
            rounds = range(repeat_for(runner.run_round, args.seconds, 1))
            metrics = runner.rates(rounds)
            metrics["setup_s"] = setup_import + statistics.median(setup_times)
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            # Plain and traced rounds alternate, so drift in the host's speed
            # reaches both halves of the overhead comparison alike.
            def plain_then_traced(i: int) -> None:
                runner.run_round(2 * i)
                tracer.install()
                try:
                    runner.run_round(2 * i + 1)
                finally:
                    tracer.uninstall()

            pairs = repeat_for(plain_then_traced, args.seconds, 2)
            plain, traced = range(0, 2 * pairs, 2), range(1, 2 * pairs, 2)
            errors = count_mismatches(tracer.spans, runner.ops, traced)
            metrics = layer_metrics(tracer, runner.ops, traced)
            metrics.update(runner.residuals)
            metrics["trace.timed_s"] = statistics.median(runner.round_seconds(traced))
            metrics["trace.overhead_frac"] = (
                metrics["trace.timed_s"] / statistics.median(runner.round_seconds(plain)) - 1.0)
            table = case_table(tracer, runner.ops, traced)
    finally:
        for d in workdirs:
            shutil.rmtree(d, ignore_errors=True)

    attempted, failed = runner.attempted_failed()
    for line in runner.failures[:20] + errors:
        print(f"failure: {line}", file=sys.stderr)
    env = environment(args, load_start)
    print("env " + json.dumps(env, sort_keys=True))
    if tracer is not None:
        for row in table:
            print("case " + " ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in row.items()))
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"env": env, "errors": errors, "failures": runner.failures,
                       "metrics": metrics, "cases": table,
                       "ops": [vars(op) for op in runner.ops],
                       "spans": [(s.name, s.parent, s.op, s.start, s.end)
                                 for s in tracer.spans]}, fp)
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        print(f"error: metrics and BENCHMARK.json disagree on {sorted(mismatch)}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
