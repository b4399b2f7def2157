"""Command line front end.

Five subcommands: analyze, verify, teleport, generate, demo-ghz.  States
travel as JSON files holding big-endian amplitudes as [re, im] pairs; a
channel file adds the two qubit lists.  Saving is a fixed point: loading a
file and saving it again reproduces the bytes exactly, because floats are
emitted with Python's shortest round-trip repr.

Exit codes:

0  success
1  the channel cannot teleport the requested payload (capacity shortfall)
2  malformed input (unreadable or structurally invalid state file)
3  norm invariant violated (amplitudes off unit norm by more than 1e-6)
4  infeasible request (bad split, inadmissible capacity claim, failed
   condition check, out of memory, an output path that cannot be written)
5  a protocol branch fell below the fidelity floor
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import stat
import sys
from itertools import chain

import numpy as np

from .capacity import DEFAULT_EPS, _check_budget, _two_adic, analyze, certify
from .corpus import generate_planted, ghz_canonical_form, ghz_channel, ghz_cnot_chain
from .linalg import NORM_TOL
from .states import MAX_QUBITS, ChannelState, PureState, fidelity, random_pure_state
from .teleport import CapacityShortfall, teleport_bell, teleport_circuit

__all__ = [
    "EXIT_OK",
    "EXIT_CAPACITY",
    "EXIT_MALFORMED",
    "EXIT_NORM",
    "EXIT_INFEASIBLE",
    "EXIT_FIDELITY",
    "FIDELITY_FLOOR",
    "decode_state",
    "save_state_file",
    "load_state_file",
    "main",
    "entry",
]

EXIT_OK = 0
EXIT_CAPACITY = 1
EXIT_MALFORMED = 2
EXIT_NORM = 3
EXIT_INFEASIBLE = 4
EXIT_FIDELITY = 5

FIDELITY_FLOOR = 1.0 - 1e-6

_FORMAT = "telecap-state"
_RENORM_REJECT = 1e-6


class CliFailure(Exception):
    """Carries an exit code and a one-line explanation."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------- state files

def _is_int(x) -> bool:
    """JSON integer; true and false are not qubit counts or labels."""
    return isinstance(x, int) and not isinstance(x, bool)


def _amplitude_vector(amps: list) -> np.ndarray:
    """[re, im] pairs of JSON numbers as a complex vector.  true and false
    are not amplitude parts; the checks map over the lists in C, since a
    file holds up to 2**16 pairs."""
    if set(map(type, amps)) != {list} or set(map(len, amps)) != {2}:
        raise CliFailure(EXIT_MALFORMED, "amplitudes must be [re, im] pairs")
    flat = list(chain.from_iterable(amps))
    if not set(map(type, flat)) <= {int, float}:
        raise CliFailure(EXIT_MALFORMED, "amplitudes must be [re, im] pairs")
    try:
        return np.array(flat, dtype=np.float64).view(np.complex128)
    except OverflowError:  # an integer beyond the float range
        raise CliFailure(EXIT_MALFORMED, "amplitudes must be finite")


def decode_state(doc) -> tuple[PureState, tuple | None, tuple | None]:
    """Rebuild a state (and split, when present) from a parsed document.

    Structural problems raise CliFailure(2); a norm more than 1e-6 off
    raises CliFailure(3).  Deviations between 1e-9 and 1e-6 renormalize
    with a warning on stderr.
    """
    if not isinstance(doc, dict):
        raise CliFailure(EXIT_MALFORMED, "state file must hold a JSON object")
    if doc.get("format") != _FORMAT:
        raise CliFailure(EXIT_MALFORMED, f"missing format tag '{_FORMAT}'")
    qubits = doc.get("qubits")
    amps = doc.get("amplitudes")
    if not _is_int(qubits) or not 1 <= qubits <= MAX_QUBITS:
        raise CliFailure(EXIT_MALFORMED, f"qubits must be an integer in 1..{MAX_QUBITS}")
    if not isinstance(amps, list) or len(amps) != 1 << qubits:
        raise CliFailure(EXIT_MALFORMED, "amplitude count must equal 2**qubits")
    v = _amplitude_vector(amps)
    if not np.isfinite(v).all():
        raise CliFailure(EXIT_MALFORMED, "amplitudes must be finite")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > _RENORM_REJECT:
        raise CliFailure(EXIT_NORM, f"state norm {norm:.9f} is off by more than 1e-6")
    if abs(norm - 1.0) > NORM_TOL:
        print(f"warning: renormalizing state (norm deviation {abs(norm - 1.0):.3e})",
              file=sys.stderr)
        v = v / norm
    state = PureState(v)
    if ("alice" in doc) != ("bob" in doc):
        raise CliFailure(EXIT_MALFORMED, "alice and bob must appear together")
    if "alice" not in doc:
        return state, None, None
    alice, bob = doc["alice"], doc["bob"]
    if not isinstance(alice, list) or not isinstance(bob, list) or \
            not all(_is_int(q) for q in alice + bob):
        raise CliFailure(EXIT_MALFORMED, "alice and bob must be integer lists")
    return state, tuple(alice), tuple(bob)


def dump_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _pairs_text(a: np.ndarray) -> str:
    """A complex array as a value of a dump_document object: nested lists
    of [re, im] pairs, with the bytes json.dumps(..., indent=2) gives them.
    Under indent, json falls back to its pure-Python encoder, which costs
    seconds on a 16-qubit state, so one format string fills in every pair;
    %r of a Python float is the shortest round-trip repr that json uses for
    finite floats."""
    shape = a.shape + (2,)
    text = "%r"
    for depth in range(len(shape), 0, -1):  # the lists at this depth, innermost first
        item = "\n" + "  " * (depth + 1)
        text = f"[{item}" + f",{item}".join([text] * shape[depth - 1]) + "\n" + "  " * depth + "]"
    return text % tuple(np.ravel(a).view(np.float64).tolist())


def _document_pieces(doc: dict, arrays) -> list[str]:
    """dump_document(doc) as text pieces, its null values filled in order
    by the arrays' pairs (a None array stays null).  No key or other value
    of doc may print as null."""
    head, *tails = dump_document(doc).split("null")
    pieces = [head]
    for a, tail in zip(arrays, tails):
        pieces += ["null" if a is None else _pairs_text(a), tail]
    return pieces


def _state_pieces(state: PureState, alice=None, bob=None) -> list[str]:
    """A state file's text in pieces: json.dumps(doc, indent=2) plus a newline."""
    doc = {"format": _FORMAT, "qubits": state.n_qubits, "amplitudes": None}
    if alice is not None or bob is not None:
        doc["alice"] = [int(q) for q in alice]
        doc["bob"] = [int(q) for q in bob]
    return _document_pieces(doc, [state.amplitudes])


def _write_whole(path: str, pieces) -> None:
    """Write text pieces to path all or nothing, with the bytes and
    permission bits open(path, "w") would give.  An absent target or a
    regular file is written to a temporary file beside it, which os.replace
    then moves onto it, so a failed write leaves the target as it was and
    removes only the temporary file; anything else, such as a device, is
    written in place.  Raises OSError."""
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="ascii") as fp:
            fp.writelines(pieces)
        return
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # less the umask, as open gives
    try:
        with open(fd, "w", encoding="ascii") as fp:
            fp.writelines(pieces)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def save_state_file(path: str, state: PureState, alice=None, bob=None) -> None:
    _write_whole(path, _state_pieces(state, alice, bob))


def load_state_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except OSError as exc:
        raise CliFailure(EXIT_MALFORMED, f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # also not UTF-8, or nested too deep
        raise CliFailure(EXIT_MALFORMED, f"{path} is not valid JSON: {exc}")
    return decode_state(doc)


def _load_channel(path: str) -> ChannelState:
    state, alice, bob = load_state_file(path)
    if alice is None:
        raise CliFailure(EXIT_MALFORMED, f"{path} lacks the alice/bob split")
    try:
        return ChannelState(state, alice, bob)
    except ValueError as exc:
        raise CliFailure(EXIT_INFEASIBLE, f"bad split: {exc}")


def _load_payload(path: str) -> PureState:
    state, alice, _ = load_state_file(path)
    if alice is not None:
        raise CliFailure(EXIT_MALFORMED, f"{path} is a channel file, not a payload")
    return state


# ------------------------------------------------------------------ reporting

def _print_clusters(clusters) -> None:
    for c in clusters:
        print(f"cluster value={c.value:.9f} multiplicity={c.multiplicity} "
              f"v2={_two_adic(c.multiplicity)}")


def _print_analysis(report) -> None:
    print(f"entropy={report.entropy_bits:.6f} capacity={report.capacity}")
    _print_clusters(report.clusters)
    print(f"swapped={'true' if report.swapped else 'false'}")
    for t, (a, b) in enumerate(report.pairs):
        print(f"pair {t}: alice_qubit={a} bob_qubit={b}")


# Peak bytes per complex matrix entry while the --report text is built: the
# format string, the floats and the text.  Measured under tracemalloc at 200
# on planted 6|1 and 7|1 and at 218 on 8|1 and 9|1.
_REPORT_BYTES_PER_ENTRY = 240


def _write_report(path: str, report, channel: ChannelState) -> None:
    """Write the --report document of the channel's report with the bytes
    of json.dumps(doc, indent=2) plus a newline.  The budget is sized from
    the channel's party sizes.  The text is built before the file is opened
    and written all or nothing, so a refused or failed report leaves no new
    file and an existing one as it was."""
    dim_a, dim_b = 1 << len(channel.alice), 1 << len(channel.bob)
    entries = dim_a * dim_a + dim_b * dim_b + (0 if report.eta is None else report.eta.size)
    _check_budget(entries * _REPORT_BYTES_PER_ENTRY, "the --report document")
    doc = {
        "entropy_bits": report.entropy_bits,
        "capacity": report.capacity,
        "clusters": [
            {"value": c.value, "multiplicity": c.multiplicity,
             "v2": _two_adic(c.multiplicity)}
            for c in report.clusters
        ],
        "swapped": report.swapped,
        "pairs": [list(p) for p in report.pairs],
        "bob_relabeling": list(report.bob_relabeling),
        "u_a": None, "u_b": None, "eta": None,
    }
    pieces = _document_pieces(doc, (report.u_a, report.u_b, report.eta))
    try:
        _write_whole(path, pieces)
    except OSError as exc:
        raise CliFailure(EXIT_INFEASIBLE, f"cannot write {path}: {exc.strerror or exc}")


def _print_branches(result) -> None:
    print(f"payload_qubits={result.payload_qubits} method={result.method} "
          f"branches={len(result.branches)}")
    for b in result.branches:
        print(f"branch message={b.bits} probability={b.probability:.9f} "
              f"fidelity={b.fidelity:.12f}")
    print(f"min_fidelity={result.min_fidelity:.12f}")


def _check_fidelity(result) -> None:
    if result.min_fidelity < FIDELITY_FLOOR:
        raise CliFailure(
            EXIT_FIDELITY,
            f"branch fidelity {result.min_fidelity:.12f} below {FIDELITY_FLOOR}",
        )


# ---------------------------------------------------------------- subcommands

def _cmd_analyze(args) -> int:
    channel = _load_channel(args.channel)
    report = analyze(channel, args.eps)
    _print_analysis(report)
    if args.report:
        _write_report(args.report, report, channel)
    return EXIT_OK


def _cmd_verify(args) -> int:
    channel = _load_channel(args.channel)
    m, n = len(channel.alice), len(channel.bob)
    d = args.capacity
    if not 0 <= d <= min(m, n):
        raise CliFailure(EXIT_INFEASIBLE,
                         f"claimed capacity {d} outside 0..min({m}, {n})")
    clusters, holds = certify(channel, d, args.eps)
    _print_clusters(clusters)
    if holds is None:
        c = next(c for c in clusters if _two_adic(c.multiplicity) < d)
        raise CliFailure(
            EXIT_INFEASIBLE,
            f"multiplicity {c.multiplicity} at value {c.value:.9f} "
            f"is not divisible by 2**{d}",
        )
    if not holds:
        raise CliFailure(EXIT_INFEASIBLE,
                         f"factorization condition fails at capacity {d}")
    print(f"condition holds at capacity={d}")
    return EXIT_OK


def _teleport_run(channel, payload, args, method):
    report = analyze(channel, args.eps)
    payload_seed, sample_seed = np.random.SeedSequence(args.seed).spawn(2)
    if payload is None:
        if report.capacity == 0:
            raise CapacityShortfall("channel capacity is 0, nothing can be sent")
        room = MAX_QUBITS - channel.state.n_qubits
        if room == 0:
            raise CliFailure(EXIT_INFEASIBLE, f"the channel fills the {MAX_QUBITS}-qubit "
                             "cap and leaves no room for a payload")
        payload = random_pure_state(min(report.capacity, room), payload_seed)
    print(f"entropy={report.entropy_bits:.6f} capacity={report.capacity}")
    run = teleport_bell if method == "bell" else teleport_circuit
    result = run(channel, payload, report, mode=args.mode, seed=sample_seed, trials=args.trials)
    _print_branches(result)
    _check_fidelity(result)
    return EXIT_OK


def _cmd_teleport(args) -> int:
    channel = _load_channel(args.channel)
    payload = _load_payload(args.payload) if args.payload else None
    return _teleport_run(channel, payload, args, args.method)


def _cmd_generate(args) -> int:
    m, n, d = args.m, args.n, args.d
    try:
        planted = generate_planted(m, n, d, args.seed, args.eps)
    except ValueError as exc:
        raise CliFailure(EXIT_INFEASIBLE, str(exc))
    ch = planted.channel
    if args.output:
        try:
            save_state_file(args.output, ch.state, ch.alice, ch.bob)
        except OSError as exc:
            raise CliFailure(EXIT_INFEASIBLE, f"cannot write {args.output}: {exc.strerror or exc}")
        print(f"planted capacity={d} qubits={m}+{n} seed={args.seed} "
              f"file={args.output}")
    else:
        sys.stdout.writelines(_state_pieces(ch.state, ch.alice, ch.bob))
    return EXIT_OK


def _cmd_demo_ghz(args) -> int:
    n, m = args.qubits, args.split
    if not 1 <= m < n:
        raise CliFailure(EXIT_INFEASIBLE, "need 1 <= split < qubits")
    channel = ghz_channel(n, m)
    chained = PureState(channel.state.amplitudes[ghz_cnot_chain(n, m)])
    match = fidelity(chained, ghz_canonical_form(n)) > 1.0 - 1e-12
    print(f"cnot_chain_reaches_bell={'true' if match else 'false'}")
    return _teleport_run(channel, None, args, args.method)


# ----------------------------------------------------------------- entry path

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="telecap",
        description="Teleportation capacity of bipartite multiqubit channels.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, teleports: bool):
        sp.add_argument("--eps", type=float, default=DEFAULT_EPS,
                        help="degeneracy tolerance on the trace-one spectrum")
        if teleports:
            sp.add_argument("--method", choices=("bell", "circuit"),
                            default="bell", help="measurement flavour")
            sp.add_argument("--mode", choices=("exhaustive", "sample"),
                            default="exhaustive", help="branch coverage")
            sp.add_argument("--seed", type=int, default=0,
                            help="seed for payload and sampling")
            sp.add_argument("--trials", type=int, default=1,
                            help="sampled runs when --mode sample")

    sp = sub.add_parser("analyze", help="entropy, capacity, and certificate")
    sp.add_argument("channel", help="channel state file")
    sp.add_argument("--report", help="write the full analysis as JSON")
    common(sp, teleports=False)
    sp.set_defaults(fn=_cmd_analyze)

    sp = sub.add_parser("verify", help="check the capacity certificate")
    sp.add_argument("channel", help="channel state file")
    sp.add_argument("capacity", type=int, help="claimed capacity")
    common(sp, teleports=False)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("teleport", help="run a protocol over a channel")
    sp.add_argument("channel", help="channel state file")
    sp.add_argument("payload", nargs="?",
                    help="payload state file (default: seeded random payload)")
    common(sp, teleports=True)
    sp.set_defaults(fn=_cmd_teleport)

    sp = sub.add_parser("generate", help="write a planted channel")
    sp.add_argument("m", type=int, help="sender qubits")
    sp.add_argument("n", type=int, help="receiver qubits")
    sp.add_argument("d", type=int, help="planted capacity")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--output", help="output file (default: stdout)")
    sp.add_argument("--eps", type=float, default=DEFAULT_EPS)
    sp.set_defaults(fn=_cmd_generate)

    sp = sub.add_parser("demo-ghz", help="GHZ walkthrough: analysis plus a run")
    sp.add_argument("qubits", type=int, help="GHZ size")
    sp.add_argument("split", type=int, help="sender qubit count")
    common(sp, teleports=True)
    sp.set_defaults(fn=_cmd_demo_ghz)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not 0.0 < args.eps < 1.0:
        print("error: --eps must be a finite number in (0, 1)", file=sys.stderr)
        return EXIT_INFEASIBLE
    if getattr(args, "seed", 0) < 0:  # analyze and verify take no seed
        print("error: --seed must be a non-negative integer", file=sys.stderr)
        return EXIT_INFEASIBLE
    try:
        return args.fn(args)
    except CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CapacityShortfall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_INFEASIBLE


def entry() -> None:
    """Console entry point.  A closed stdout ends the process by SIGPIPE,
    as it ends cat, instead of with a traceback and exit 1, which means a
    capacity shortfall."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
