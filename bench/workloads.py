"""The benchmark's workloads, built from a seed.

Every expected answer comes from how an input was built: the planted
capacity d, the size of a Bell stack, capacity 1 for GHZ, and the exit
codes the CLI documents.  Nothing here asks telecap what the answer is.

Each workload runs every kind of operation (analyze, exhaustive and
sampled teleports, in-process CLI calls), so every end-to-end metric is
defined on each; the workloads differ in which layer dominates.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass

import telecap
import telecap.cli


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    exit_code: int
    capacity: int | None = None  # expected "capacity=<d>" on stdout


@dataclass(frozen=True)
class Case:
    """One channel and everything a round does with it.

    payload, when present, is teleported exhaustively with both methods;
    sample_trials > 0 adds a sampled run per method with the same payload.
    """

    label: str
    channel: telecap.ChannelState
    capacity: int
    payload: telecap.PureState | None = None
    sample_trials: int = 0
    sample_seed: int = 0
    cli: tuple[CliCall, ...] = ()


def cli_call(argv) -> tuple[int, str]:
    """Run ``telecap.cli.main`` in process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = telecap.cli.main(list(argv))
    return code, out.getvalue()


def _save(workdir: str, name: str, state, alice=None, bob=None) -> str:
    path = os.path.join(workdir, name)
    telecap.cli.save_state_file(path, state, alice, bob)
    return path


def planted_case(workload: str, rng: random.Random, workdir: str, m: int, n: int,
                 d: int, payload_qubits: int, sample_trials: int,
                 verify: bool = True) -> Case:
    """Planted m|n channel of capacity d, optionally with CLI verifies at d
    (exit 0) and at the inadmissible d + 1 (exit 4)."""
    planted = telecap.generate_planted(m, n, d, seed=rng.getrandbits(32))
    ch = planted.channel
    label = f"{workload}.{m}x{n}.d{d}"
    path = _save(workdir, f"{label}.json", ch.state, ch.alice, ch.bob)
    payload = None
    if payload_qubits:
        payload = telecap.random_pure_state(payload_qubits, seed=rng.getrandbits(32))
    cli = ()
    if verify:
        cli = (CliCall(("verify", path, str(d)), 0, d), CliCall(("verify", path, str(d + 1)), 4))
    return Case(label, ch, d, payload, sample_trials, rng.getrandbits(32), cli)


def lopsided(rng: random.Random, workdir: str) -> list[Case]:
    # d equals the smaller side, so synthesize_u_a (cubic in 2**m) dominates
    # analyze and eigendecompositions stay 4x4 or smaller.  The CLI verify,
    # which decomposes the receiver's density, runs only where the receiver
    # is the smaller side, so no large eigh enters this workload.
    splits = ((8, 1), (1, 8), (8, 2), (2, 8), (9, 1), (1, 9), (9, 2), (2, 9))
    return [planted_case("lopsided", rng, workdir, m, n, min(m, n), min(m, n), 16,
                         verify=n < m)
            for m, n in splits]


def balanced(rng: random.Random, workdir: str) -> list[Case]:
    # Receiver densities are 128-256 wide, so spectral work is a real share
    # of analyze.  A 1-qubit payload only where it fits the 16-qubit cap.
    cases = []
    for m, n, d in ((7, 7, 2), (7, 8, 3), (8, 7, 1), (8, 8, 4), (8, 8, 0)):
        fits = d >= 1 and m + n + 1 <= 16
        cases.append(planted_case("balanced", rng, workdir, m, n, d,
                                  1 if fits else 0, 16 if fits else 0))
    return cases


def branches(rng: random.Random, workdir: str) -> list[Case]:
    # k sequential rounds over 4**k branches do nearly all the work.
    stack = telecap.n_bell_channel(4)
    path = _save(workdir, "branches.bell4.json", stack.state, stack.alice, stack.bob)
    cases = [Case("branches.bell4.d4", stack, 4,
                  telecap.random_pure_state(4, seed=rng.getrandbits(32)),
                  24, rng.getrandbits(32),
                  (CliCall(("verify", path, "4"), 0, 4), CliCall(("verify", path, "5"), 4)))]
    cases.append(planted_case("branches", rng, workdir, 5, 5, 3, 3, 24))
    cases.append(planted_case("branches", rng, workdir, 6, 6, 4, 4, 0))
    return cases


WORKLOADS = {
    "lopsided": lopsided,
    "balanced": balanced,
    "branches": branches,
}
