"""Command-line front end: build, simulate, verify and compare.

Exit codes: 0 on success or verified, 1 on verification failure, 2 on usage
errors (including malformed inputs and netlist files, and sizes whose circuit
would exceed MAX_GATES) and on running out of memory.

`main(argv)` may be called many times in one process: it builds its parser on
the first call, not at import, and reuses it. While a command runs it lifts
Python's int-digit limit and pauses the garbage collector: a command makes at most
one Gate per gate but no reference cycle that grows with them, so scans free nothing.
"""

import argparse
import functools
import gc
import itertools
import os
import re
import sys
import time
from collections import namedtuple

from . import analysis, io as revio, sim, synth
from .circuit import _MAX_SHOWN_CHARS, _shown
from .metrics import structural_metrics

_Block = namedtuple(
    "_Block", "flag gates build exhaustive_up_to unit verify cases_per_draw", defaults=(None,) * 3 + (1,)
)

# Per block: its size flag; its gate count at a size (the closed form in
# `analysis`, or w-1 for a rotate, whose form there covers even widths only);
# its builder; and, for `verify`, the largest size swept exhaustively by
# default, what one case is, its verifier and the cases one random draw checks
# (a cror draw is one window value under both values of the control). The
# lambdas look `synth` and `sim` up at each call, so a rebound builder or
# verifier is the one that runs.
_BLOCKS = {
    "mul": _Block("n", lambda n: analysis.formula_metrics(analysis.MULTIPLIER, n).gate_count,
                  lambda n: synth.build_multiplier(n),
                  10, "pairs", lambda n, **sweep: sim.verify_multiplier(n, **sweep)),
    "addnop": _Block("n", lambda n: analysis.formula_metrics(analysis.ADDNOP, n).gate_count,
                     lambda n: synth.build_addnop(n)),
    "ror": _Block("width", lambda w: w - 1, lambda w: synth.build_ror(w),
                  22, "states", lambda w, **sweep: sim.verify_rotate(w, **sweep)),
    "cror": _Block("width", lambda w: w - 1, lambda w: synth.build_controlled_ror(w),
                   22, "states", lambda w, **sweep: sim.verify_rotate(w, controlled=True, **sweep), 2),
}

# Largest circuit `build` and `verify` will construct, in gates, and the most
# gate lines `sim` will read (the netlist parser's own cap); the largest
# multiplier allowed is n = 418 (1,047,509 gates). Memory and time grow
# linearly with the gate count; the README gives measured figures.
MAX_GATES = revio.MAX_GATES

# Largest random sweep `verify` will run, in the cases it checks (2 per cror
# draw): no more cases, and no more cases x gates, than the largest exhaustive
# sweep (every pair of the multiplier at the exhaustive limit, 2^26 pairs,
# 989 gates).
MAX_RANDOM_CASES = 1 << (2 * sim.EXHAUSTIVE_MULTIPLIER_LIMIT)
MAX_RANDOM_WORK = MAX_RANDOM_CASES * _BLOCKS["mul"].gates(sim.EXHAUSTIVE_MULTIPLIER_LIMIT)


def _size(args) -> int:
    """The block's size flag, refused before anything is built when the other
    block's flag is also given or its circuit would exceed MAX_GATES."""
    block = _BLOCKS[args.block]
    flag = block.flag
    value = getattr(args, flag)
    if value is None:
        raise ValueError(f"{args.block} requires --{flag}")
    other = "width" if flag == "n" else "n"
    if getattr(args, other) is not None:
        raise ValueError(f"{args.block} takes --{flag}, not --{other}")
    estimate = block.gates(value)
    if estimate > MAX_GATES:
        raise ValueError(
            f"{args.block} --{flag} {value} would have {estimate} gates, "
            f"above the limit of {MAX_GATES}"
        )
    return value


# The longest `--set` value or REVMUL_SEED that `_integer` converts: room for
# every value of the widest register (MAX_QUBITS bits) in every form int(raw, 0)
# reads without leading zeros or surrounding spaces, the longest being binary
# with a sign, "0b_" and an underscore between every two digits (131,075
# characters). `main` lifts Python's digit limit, so int() of a longer decimal
# value could take minutes; it is refused by its length first.
_MAX_INTEGER_CHARS = len("+0b_") + 2 * revio.MAX_QUBITS - 1


def _integer(raw: str, source: str) -> int:
    """`raw` as a Python integer literal; a bad one names where it came from."""
    if len(raw) > _MAX_INTEGER_CHARS:
        raise ValueError(
            f"{source} must be an integer of at most {_MAX_INTEGER_CHARS} characters, "
            f"got {_shown(raw)}"
        )
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {_shown(raw)}") from None


def _flag_int(raw: str) -> int:
    """A size or count flag's value, as `type=int` reads it, refused when it
    has more than _MAX_SHOWN_CHARS digits: no command accepts such a size or
    count, and the messages that would refuse it later echo it whole."""
    try:
        value = int(raw)
    except ValueError:  # argparse's own wording; `_Parser.error` bounds the echo
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if abs(value) >= 10**_MAX_SHOWN_CHARS:
        raise argparse.ArgumentTypeError(
            f"must have at most {_MAX_SHOWN_CHARS} digits, got {_shown(raw)}"
        )
    return value


def cmd_build(args) -> int:
    size = _size(args)
    circuit = _BLOCKS[args.block].build(size)
    path = args.out or f"{args.block}{size}.{args.format}"
    text = revio.export_qasm(circuit) if args.format == "qasm" else revio.write_netlist(circuit)
    with open(path, "w", encoding="utf-8", newline="") as handle:  # "\n" on every platform
        handle.write(text)
    m = structural_metrics(circuit)
    print(f"wrote {path} ({m.gate_count} gates)")
    print(f"quantum cost: {m.quantum_cost}")
    print(f"ancilla inputs: {m.ancilla_inputs}")
    print(f"stages: {circuit.stage_count}")
    print(f"staged delay: {m.staged_delay}")
    print(f"asap depth: {m.asap_depth}")
    return 0


def cmd_sim(args) -> int:
    with open(args.file, encoding="utf-8") as handle:
        circuit = revio.parse_netlist(handle.read())
    values = {}
    for item in args.set or []:
        name, eq, raw = item.rpartition("=")
        if not eq or not name:
            raise ValueError(f"input assignment must look like NAME=VALUE, got {_shown(item)}")
        if name in values:
            raise ValueError(f"register {_shown(name, str)} is assigned more than once")
        values[name] = _integer(raw, f"the value of register {_shown(name, str)}")
    layout = circuit.layout
    state = sim.pack_state(layout, values)
    # print order: the result register first, then layout order; a `%` in a
    # name is escaped as `%%` in the template that prints their values
    order = sorted(layout.registers, key=lambda r: r.name != "P")
    template = " ".join([f"{r.name.replace('%', '%%')}=%d" for r in order])
    trace = None
    if args.trace:
        # `run` calls `trace` once per item of `circuit.stages()`, in order, so
        # walking them in step names the lines a stage may have changed. Each
        # line maps to its register's index in print order, not to a 1 << bit
        # mask: a table of masks would take O(width^2) bytes. Most stages change
        # no line, so the values' text is rendered again only after one that does.
        regs = [sim.register_value(layout, state, r.name) for r in order]
        starts = [r.start for r in order]
        owner = [0] * circuit.width
        for index, r in enumerate(order):
            owner[r.start:r.end] = [index] * r.size
        seen = list(state)
        stages = circuit.stages()
        number = itertools.count(1)
        write = sys.stdout.write
        text = template % tuple(regs) + "\n"  # print() writes twice

        def trace(live):  # each stage prints as the run reaches it; none is kept
            nonlocal text
            for gate in next(stages):
                for line in gate.lines:
                    if live[line] != seen[line]:
                        seen[line] = live[line]
                        index = owner[line]
                        regs[index] ^= 1 << line - starts[index]
                        text = None
            if text is None:
                text = template % tuple(regs) + "\n"
            write("stage %d: %s" % (next(number), text))

    final = sim.run(circuit, state, trace=trace)
    print(template % tuple([sim.register_value(layout, final, r.name) for r in order]))
    return 0


def cmd_verify(args) -> int:
    size = _size(args)
    block = _BLOCKS[args.block]
    if args.exhaustive and args.random is not None:
        raise ValueError("choose one of --exhaustive / --random")
    if args.exhaustive:
        mode, count = "exhaustive", 0
    elif args.random is not None:
        mode, count = "random", args.random
    else:
        # default: exhaustive while the sweep stays small, randomized above
        mode, count = ("exhaustive", 0) if size <= block.exhaustive_up_to else ("random", 1000)
    gates, cases = block.gates(size), count * block.cases_per_draw
    if cases > MAX_RANDOM_CASES or cases * gates > MAX_RANDOM_WORK:
        drawn = f" ({cases} cases, {block.cases_per_draw} per {args.block} draw)" if cases > count else ""
        raise ValueError(
            f"--random {count}{drawn} on a {gates}-gate circuit exceeds the largest exhaustive sweep: "
            f"at most {MAX_RANDOM_CASES} cases and {MAX_RANDOM_WORK} cases x gates"
        )
    seed = args.seed
    if seed is None:
        seed = _integer(os.environ.get("REVMUL_SEED", "0"), "REVMUL_SEED")
    start = time.perf_counter()
    report = block.verify(size, mode=mode, count=count, seed=seed)
    # Timing goes to stderr so that stdout, and so the JSON, stays byte-stable.
    elapsed = time.perf_counter() - start
    label, unit = f"{args.block} {block.flag}={size}", block.unit
    rate = report.checked / elapsed
    print(f"{label}: {report.checked} {unit} in {elapsed:.6f} s, {rate:.0f} {unit}/s", file=sys.stderr)
    if args.json:
        print(revio.metrics_json(report), end="")
    else:
        extra = f" seed={report.seed}" if report.mode == "random" else ""
        verdict = "ok" if report.ok else f"FAILED ({len(report.counterexamples)} counterexamples)"
        print(f"{label}: mode={report.mode}{extra} checked={report.checked} {verdict}")
        for ce in report.counterexamples:
            print(f"  counterexample: {ce}")
    return 0 if report.ok else 1


def cmd_compare(args) -> int:
    if args.which == "ancilla":
        rows = analysis.ancilla_rows(args.max_n)
        flags = analysis.flag_deviations(rows)
    else:
        rows = analysis.garbage_rows(args.max_n)
        flags = []
    if args.format == "md":
        text = analysis.render_markdown(rows, args.which)
    elif args.format == "csv":
        text = analysis.render_csv(rows, args.which)
    else:
        text = revio.metrics_json(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        print(text, end="")
    for flag in flags:
        print(f"deviates from the published table: {flag}", file=sys.stderr)
    return 1 if flags else 0


# A value that a usage error echoes: quoted as repr() quotes it, or bare; and
# an escape in a quoted one, which stands for one character of the value
_ECHOED = re.compile(r"""(['"])((?:\\.|(?!\1)[^\\])*)\1|\S+""")
_ESCAPE = re.compile(r"\\(?:x..|u....|U........|.)")


def _bounded(echo: re.Match) -> str:
    value = echo[0] if echo[2] is None else _ESCAPE.sub("?", echo[2])
    return echo[0] if len(value) <= _MAX_SHOWN_CHARS else _shown(value)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors, and so its subparsers' (which are
    of its class), echo a value longer than _MAX_SHOWN_CHARS by its length.
    The unrecognized arguments, which argparse joins with spaces, are one
    value."""

    def error(self, message):
        head, unrecognized, rest = message.partition("unrecognized arguments: ")
        if unrecognized and not head:
            message = unrecognized + _shown(rest, str)
        else:
            message = _ECHOED.sub(_bounded, message)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="revmul",
        description="Build, simulate and verify garbage-free reversible multiplier circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_size_flags(p):
        for flag, what in (("n", "operand width"), ("width", "register width")):
            names = ", ".join(name for name, block in _BLOCKS.items() if block.flag == flag)
            p.add_argument(f"--{flag}", type=_flag_int, help=f"{what} ({names})")

    p = sub.add_parser("build", help="generate a circuit and write its netlist")
    p.add_argument("block", choices=sorted(_BLOCKS))
    add_size_flags(p)
    p.add_argument("--format", choices=("rev", "qasm"), default="rev")
    p.add_argument("--out", help="output path (default <block><size>.<ext>)")

    p = sub.add_parser("sim", help="run a netlist file on given register values")
    p.add_argument("file")
    p.add_argument(
        "--set",
        action="append",
        metavar="NAME=VALUE",
        help="register assignment, once per register; decimal, 0x or 0b",
    )
    p.add_argument("--trace", action="store_true", help="print the state at each stage")

    p = sub.add_parser("verify", help="check a generated circuit against its oracle")
    p.add_argument("block", choices=[name for name, block in _BLOCKS.items() if block.verify])
    add_size_flags(p)
    p.add_argument("--exhaustive", action="store_true", help="sweep every input")
    p.add_argument("--random", type=_flag_int, metavar="COUNT", help="seeded random sweep")
    p.add_argument("--seed", type=int, help="seed for --random (default $REVMUL_SEED or 0)")
    p.add_argument("--json", action="store_true", help="print the report as JSON")

    p = sub.add_parser("compare", help="regenerate the ancilla/garbage comparison tables")
    p.add_argument("--max-n", type=_flag_int, default=1024, dest="max_n")
    p.add_argument("--which", choices=("ancilla", "garbage"), default="ancilla")
    p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p.add_argument("--out", help="output path (default stdout)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every `main` call reuses, built on the first call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Printed values reach 65,536 bits (`sim`) or 1,048,577 (a `verify ror`
    # counterexample), past the 4,300-digit limit Python (3.10.7 and later)
    # puts on int <-> str conversion; lift it while the command runs.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    collecting = gc.isenabled()
    gc.disable()
    try:
        # looked up by name on each call, so a rebound `cmd_*` is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        text = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:  # echoed whole by str(exc)
            text = f"[Errno {exc.errno}] {exc.strerror}: {_shown(exc.filename)}"
        print(f"error: {text}", file=sys.stderr)
        return 2
    except MemoryError:
        pass  # reported below, once leaving the handler has freed the command's frames
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
        if collecting:
            gc.enable()
    print("error: out of memory", file=sys.stderr)
    return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
