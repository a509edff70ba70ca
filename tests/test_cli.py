import _pyio
import argparse
import contextlib
import functools
import gc
import io
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import revmul
from revmul import analysis, cli, io as revio, sim, synth
from revmul.circuit import Circuit, Register, RegisterLayout
from revmul.cli import MAX_GATES, main
from revmul.gates import CNOT, SWAP, TOFFOLI, Gate
from strategies import valid_circuits


def test_build_mul_writes_netlist(tmp_path, capsys):
    out = tmp_path / "mul4.rev"
    assert main(["build", "mul", "--n", "4", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "89 gates" in printed
    assert "quantum cost: 403" in printed
    assert "ancilla inputs: 9" in printed
    assert out.read_text().startswith("rev 1\nqubits 17\n")


def test_build_ror_prints_depth(tmp_path, capsys):
    out = tmp_path / "r.rev"
    assert main(["build", "ror", "--width", "8", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "7 gates" in printed
    assert "asap depth: 6" in printed


def test_build_qasm_format(tmp_path):
    out = tmp_path / "mul2.qasm"
    assert main(["build", "mul", "--n", "2", "--format", "qasm", "--out", str(out)]) == 0
    assert out.read_text().startswith("OPENQASM 2.0;")


def test_build_usage_errors(tmp_path, capsys):
    assert main(["build", "mul", "--n", "0"]) == 2
    assert main(["build", "mul", "--width", "4"]) == 2  # wrong size flag
    err = capsys.readouterr().err
    assert "error" in err


@pytest.fixture
def no_builders(monkeypatch):
    """Make every circuit builder fail the test if anything calls it."""

    def refuse(*args, **kwargs):
        raise AssertionError("a builder ran")

    for name in ("build_multiplier", "build_addnop", "build_ror", "build_controlled_ror"):
        for module in (synth, sim):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize(
    "argv,estimate",
    [
        (["build", "mul", "--n", "100000"], 59_999_800_001),
        (["verify", "ror", "--width", "100000000", "--random", "1"], 99_999_999),
        (["build", "mul", "--n", "419"], 1_052_529),
        (["build", "addnop", "--n", "262144"], 1_048_577),
        (["verify", "cror", "--width", str(MAX_GATES + 2)], MAX_GATES + 1),
        (["verify", "mul", "--n", "100000", "--exhaustive"], 59_999_800_001),
    ],
)
def test_oversized_circuit_refused_before_building(argv, estimate, no_builders, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"would have {estimate} gates, above the limit of {MAX_GATES}" in err


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize(
    "block,flag,other", [("mul", "n", "width"), ("ror", "width", "n"), ("cror", "width", "n")]
)
def test_other_blocks_size_flag_refused(command, block, flag, other, no_builders, capsys):
    # the flag the block ignores would otherwise pass unnoticed
    assert main([command, block, f"--{flag}", "2", f"--{other}", "9"]) == 2
    assert capsys.readouterr() == ("", f"error: {block} takes --{flag}, not --{other}\n")


def test_size_limit_boundary():
    gates = cli._BLOCKS["mul"].gates
    assert gates(418) <= MAX_GATES < gates(419)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "ror", "--width", "2", "--random", "1000000000000"],
        ["verify", "ror", "--width", "2", "--random", str(2**26 + 1)],
        # 66,600,000 states: below 2^26 cases, above 2^26 x 989 cases x gates
        ["verify", "cror", "--width", "1000", "--random", "33300000"],
        ["verify", "cror", "--width", "2", "--random", str(2**25 + 1)],  # 2 states a draw
        ["verify", "mul", "--n", "418", "--random", "63361"],
    ],
)
def test_oversized_random_sweep_refused_before_building(argv, no_builders, capsys):
    assert main(argv) == 2
    assert "exceeds the largest exhaustive sweep" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, sweep",
    [
        # a cror draw checks one value under both values of the control
        (["cror", "--width", "2", "--random", str(2**25 + 1)],
         "--random 33554433 (67108866 cases, 2 per cror draw) on a 1-gate circuit"),
        (["cror", "--width", "1000", "--random", "33300000"],
         "--random 33300000 (66600000 cases, 2 per cror draw) on a 999-gate circuit"),
        # a mul or ror draw is one case
        (["ror", "--width", "2", "--random", str(2**26 + 1)], "--random 67108865 on a 1-gate circuit"),
        (["mul", "--n", "418", "--random", "63361"], "--random 63361 on a 1047509-gate circuit"),
    ],
    ids=["cror-2", "cror-1000", "ror-2", "mul-418"],
)
def test_oversized_random_sweep_message_counts_the_cases(argv, sweep, no_builders, capsys):
    assert main(["verify", *argv]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: {sweep} exceeds the largest exhaustive sweep: "
        f"at most {2**26} cases and {2**26 * 989} cases x gates\n",
    )


def test_controlled_rotate_sweep_at_the_case_cap_reaches_the_verifier(monkeypatch, no_builders, capsys):
    # 2^25 draws of the controlled rotate check 2^26 states, the cap itself
    calls = []

    def stub(width, **sweep):
        calls.append((width, sweep))
        return sim.VerifyReport(ok=True, checked=2 * sweep["count"], mode="random", seed=sweep["seed"])

    monkeypatch.setattr(sim, "verify_rotate", stub)
    assert main(["verify", "cror", "--width", "2", "--random", str(2**25), "--seed", "3"]) == 0
    assert calls == [(2, {"controlled": True, "mode": "random", "count": 2**25, "seed": 3})]
    assert f"checked={2**26} ok" in capsys.readouterr().out


def test_random_sweep_limit_is_the_largest_exhaustive_sweep(no_builders, capsys):
    assert cli.MAX_RANDOM_CASES == 2**26 and cli.MAX_RANDOM_WORK == 2**26 * 989
    gates = cli._BLOCKS["mul"].gates(418)
    assert 63360 * gates <= cli.MAX_RANDOM_WORK < 63361 * gates
    # an oversized circuit is refused for its size first
    assert main(["verify", "mul", "--n", "419", "--random", "1000000000000"]) == 2
    assert f"above the limit of {MAX_GATES}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block,size",
    [("mul", 1), ("mul", 2), ("mul", 7), ("addnop", 1), ("addnop", 5), ("ror", 2), ("ror", 9), ("cror", 6)],
)
def test_gate_count_matches_built_circuit(block, size, tmp_path, capsys):
    out = tmp_path / "c.rev"
    flag, gates = cli._BLOCKS[block][:2]
    assert main(["build", block, f"--{flag}", str(size), "--out", str(out)]) == 0
    assert f"({gates(size)} gates)" in capsys.readouterr().out


def test_sim_multiplies(tmp_path, capsys):
    path = tmp_path / "mul2.rev"
    main(["build", "mul", "--n", "2", "--out", str(path)])
    capsys.readouterr()
    assert main(["sim", str(path), "--set", "A=3", "--set", "B=3"]) == 0
    assert capsys.readouterr().out.strip() == "P=9 A=3 B=3 Zcin=0"


def test_sim_accepts_hex_and_binary(tmp_path, capsys):
    path = tmp_path / "mul4.rev"
    main(["build", "mul", "--n", "4", "--out", str(path)])
    capsys.readouterr()
    assert main(["sim", str(path), "--set", "A=0x0", "--set", "B=0b1101"]) == 0
    assert "P=0" in capsys.readouterr().out


def test_sim_missing_register_named(tmp_path, capsys):
    path = tmp_path / "mul2.rev"
    main(["build", "mul", "--n", "2", "--out", str(path)])
    capsys.readouterr()
    assert main(["sim", str(path), "--set", "A=3"]) == 2
    assert "register B" in capsys.readouterr().err


def test_sim_echoes_a_long_register_name_by_length(tmp_path, capsys):
    path = tmp_path / "long.rev"
    path.write_text("rev 1\nqubits 2\nreg " + "N" * 400_000 + " 0 1\nswap 0 1\n")
    assert main(["sim", str(path)]) == 2
    err = "error: missing value for data register of 400000 characters\n"
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize(
    "assignment, err",
    [
        ("R=" + "9" * 130_000, "error: value of 431851 bits does not fit register R (2 bits)\n"),
        ("R=" + "x" * 130_000,
         "error: the value of register R must be an integer, got of 130000 characters\n"),
        ("N" * 130_000 + "=x",
         "error: the value of register of 130000 characters must be an integer, got 'x'\n"),
        ("N" * 130_000,
         "error: input assignment must look like NAME=VALUE, got of 130000 characters\n"),
        # up to 32 characters or digits, the same bytes as before they were bounded
        ("R=" + "9" * 32, f"error: value {'9' * 32} does not fit register R (2 bits)\n"),
        ("R=-" + "9" * 32, f"error: value -{'9' * 32} does not fit register R (2 bits)\n"),
        ("R=1" + "0" * 32, "error: value of 107 bits does not fit register R (2 bits)\n"),
        ("R=" + "x" * 32, f"error: the value of register R must be an integer, got '{'x' * 32}'\n"),
        ("N" * 32 + "=x",
         f"error: the value of register {'N' * 32} must be an integer, got 'x'\n"),
        ("N" * 32, f"error: input assignment must look like NAME=VALUE, got '{'N' * 32}'\n"),
    ],
    ids=["long_value", "long_bad_value", "long_name", "long_assignment", "value_32_digits",
         "negative_32_digits", "value_33_digits", "bad_value_32", "name_32", "assignment_32"],
)
def test_sim_echoes_a_long_value_or_assignment_by_length(assignment, err, tmp_path, capsys):
    path = tmp_path / "two.rev"
    path.write_text("rev 1\nqubits 2\nreg R 0 1\nswap 0 1\n")
    assert main(["sim", str(path), "--set", assignment]) == 2
    assert capsys.readouterr() == ("", err)
    assert len(err) < 200


def test_sim_reads_values_up_to_the_longest_form_of_the_widest_register(tmp_path, capsys):
    width = revio.MAX_QUBITS
    path = tmp_path / "wide.rev"
    path.write_text(f"rev 1\nqubits {width}\nreg R 0 {width - 1}\n")
    longest = "+0b_" + "_".join("1" * width)
    assert len(longest) == cli._MAX_INTEGER_CHARS == 131_075
    assert main(["sim", str(path), f"--set=R={longest}"]) == 0
    printed = capsys.readouterr()
    with no_digit_limit():
        assert printed == (f"R={(1 << width) - 1}\n", "")
    # one character more, or 4,000,000 digits that int() would take minutes
    # to read once `main` lifts the digit limit, is refused by its length
    for value, length in ((longest + "1", 131_076), ("9" * 4_000_000, 4_000_000)):
        started = time.perf_counter()
        assert main(["sim", str(path), "--set", f"R={value}"]) == 2
        assert time.perf_counter() - started < 1
        err = (
            "error: the value of register R must be an integer of at most 131075 characters, "
            f"got of {length} characters\n"
        )
        assert capsys.readouterr() == ("", err) and len(err) < 200


def test_sim_bad_value_names_the_register(tmp_path, capsys):
    path = tmp_path / "mul2.rev"
    main(["build", "mul", "--n", "2", "--out", str(path)])
    capsys.readouterr()
    assert main(["sim", str(path), "--set", "A=", "--set", "B=3"]) == 2
    assert capsys.readouterr().err == "error: the value of register A must be an integer, got ''\n"
    assert main(["sim", str(path), "--set", "A=1", "--set", "B=0x"]) == 2
    assert "register B must be an integer, got '0x'" in capsys.readouterr().err


def test_sim_refuses_a_register_assigned_twice(tmp_path, capsys):
    path = tmp_path / "mul2.rev"
    main(["build", "mul", "--n", "2", "--out", str(path)])
    capsys.readouterr()
    assert main(["sim", str(path), "--set", "A=1", "--set", "A=2", "--set", "B=3"]) == 2
    assert capsys.readouterr() == ("", "error: register A is assigned more than once\n")
    # refused before the second value is converted
    assert main(["sim", str(path), "--set", "A=1", "--set", "A=x", "--set", "B=3"]) == 2
    assert capsys.readouterr().err == "error: register A is assigned more than once\n"
    # a long name is echoed by its length
    name = "N" * 100
    assert main(["sim", str(path), f"--set={name}=1", f"--set={name}=1"]) == 2
    assert capsys.readouterr().err == (
        "error: register of 100 characters is assigned more than once\n"
    )
    # the file is read first, so a missing one is reported as before
    missing = tmp_path / "missing.rev"
    assert main(["sim", str(missing), "--set", "A=1", "--set", "A=2"]) == 2
    assert "No such file or directory" in capsys.readouterr().err


def test_sim_sets_a_register_whose_name_holds_an_equals_sign(tmp_path, capsys):
    # no integer holds "=", so an assignment splits at its last one
    path = tmp_path / "eq.rev"
    path.write_text("rev 1\nqubits 3\nreg a=b 0 1\nreg c 2 2\nswap 0 2\n")
    assert main(["sim", str(path), "--set", "a=b=2", "--set=c=1"]) == 0
    assert capsys.readouterr() == ("a=b=3 c=0\n", "")
    assert main(["sim", str(path), "--set", "a=b=2=", "--set=c=1"]) == 2
    assert capsys.readouterr().err == "error: the value of register a=b=2 must be an integer, got ''\n"


def test_sim_trace_prints_stages(tmp_path, capsys):
    path = tmp_path / "r4.rev"
    main(["build", "ror", "--width", "4", "--out", str(path)])
    capsys.readouterr()
    assert main(["sim", str(path), "--set", "P=1", "--trace"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("stage 1:")
    assert lines[-1] == "P=8"


def reference_format_state(layout, bits):
    """`sim`'s state line as it was rendered before streaming: the result
    register first, each register read through `register_value`."""
    names = [r.name for r in layout.registers]
    if "P" in names:
        names.remove("P")
        names.insert(0, "P")
    return " ".join(f"{name}={sim.register_value(layout, bits, name)}" for name in names)


def reference_sim_stdout(circuit, values, trace):
    """`sim` stdout, each stage run on its own as a one-stage circuit."""
    state = sim.pack_state(circuit.layout, values)
    out = []
    if trace:
        for number, stage in enumerate(circuit.stages(), 1):
            part = Circuit(circuit.layout)
            for gate in stage:
                part.append(gate)
            state = sim.run(part, state)
            out.append(f"stage {number}: {reference_format_state(circuit.layout, state)}")
    else:
        state = sim.run(circuit, state)
    out.append(reference_format_state(circuit.layout, state))
    return "\n".join(out) + "\n"


def _unmarked_tail():
    circ = Circuit(RegisterLayout([Register("R", 0, 3), Register("Z", 3, 1, 1)]))
    circ.append(Gate(CNOT, (0, 1)))
    circ.append(Gate(SWAP, (2, 3)))
    circ.mark_stage()
    # no mark after these
    for gate in [Gate(TOFFOLI, (3, 1, 2)), Gate(CNOT, (2, 0)), Gate(SWAP, (0, 3))]:
        circ.append(gate)
    return circ


def _percent_names():
    # a `%` in a register name must print as itself, not as a template field
    layout = RegisterLayout([
        Register("100%", 0, 2), Register("x%d", 2, 1), Register("%s", 3, 2, 1), Register("P", 5, 1, 0)
    ])
    circ = Circuit(layout)
    gates = [(CNOT, (0, 2)), (SWAP, (3, 4)), (CNOT, (1, 5)), (TOFFOLI, (0, 1, 3)), (SWAP, (2, 4))]
    for kind, lines in gates:
        circ.append(Gate(kind, lines))
    circ.stage_marks.extend([2, 3])
    return circ


SIM_CIRCUITS = {
    **{f"mul{n}": functools.partial(synth.build_multiplier, n) for n in (1, 2, 3, 4, 5, 16, 33)},
    "addnop5": functools.partial(synth.build_addnop, 5),
    "ror9": functools.partial(synth.build_ror, 9),
    "cror7": functools.partial(synth.build_controlled_ror, 7),
    "unmarked_tail": _unmarked_tail,
    "no_gates": lambda: Circuit(RegisterLayout([Register("R", 0, 2), Register("Z", 2, 1, 1)])),
    "percent_names": _percent_names,
}


@pytest.mark.parametrize("name", sorted(SIM_CIRCUITS))
@pytest.mark.parametrize("trace", [False, True], ids=["final", "trace"])
def test_sim_stdout_matches_the_reference_renderer(name, trace, tmp_path, capsys):
    circuit = SIM_CIRCUITS[name]()
    path = tmp_path / f"{name}.rev"
    path.write_text(revio.write_netlist(circuit))
    rng = random.Random(name)
    values = {r.name: rng.getrandbits(r.size) for r in circuit.layout.registers
              if not r.is_ancilla}
    argv = ["sim", str(path)] + [f"--set={k}={v}" for k, v in values.items()]
    assert main(argv + (["--trace"] if trace else [])) == 0
    printed = capsys.readouterr().out
    # as strict as comparing the texts, but a fault fails fast: pytest diffs
    # lists of lines instead of thousands of lines character by character
    want = reference_sim_stdout(circuit, values, trace)
    assert printed.splitlines(keepends=True) == want.splitlines(keepends=True)
    if trace and name == "no_gates":
        assert printed.count("\n") == 1  # no stage line, only the final state


def _traced_sim(circuit, values, tmp_path, capsys):
    """`sim --trace` stdout of `circuit`, checked against the reference."""
    path = tmp_path / "traced.rev"
    path.write_text(revio.write_netlist(circuit))
    argv = ["sim", str(path), "--trace"] + [f"--set={k}={v}" for k, v in values.items()]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    want = reference_sim_stdout(circuit, values, True)
    assert printed.splitlines(keepends=True) == want.splitlines(keepends=True)
    return printed.splitlines()


def test_traced_sim_repeats_the_entry_state_when_no_stage_changes_it(tmp_path, capsys):
    # with A = 0 every ADD/NOP is a NOP, and each rotate moves P's zeros
    lines = _traced_sim(synth.build_multiplier(4), {"A": 0, "B": 13}, tmp_path, capsys)
    assert len(lines) == 63
    assert lines[:-1] == [f"stage {k}: P=0 A=0 B=13 Zcin=0" for k in range(1, 63)]
    assert lines[-1] == "P=0 A=0 B=13 Zcin=0"


def test_traced_sim_renders_again_only_after_a_stage_changes_a_register(tmp_path, capsys):
    # stages that change nothing, then one register, then nothing, then two
    # registers in one two-gate stage; a `%` in a name prints as itself
    circ = Circuit(RegisterLayout([Register("50%", 0, 2), Register("Q", 2, 2), Register("P", 4, 2, 0)]))
    for stage in [[(CNOT, (0, 2))], [(CNOT, (1, 2))], [(TOFFOLI, (0, 1, 4))],
                  [(CNOT, (1, 5)), (SWAP, (2, 3))]]:
        for kind, lines in stage:
            circ.append(Gate(kind, lines))
        circ.mark_stage()
    assert _traced_sim(circ, {"50%": 2, "Q": 0}, tmp_path, capsys) == [
        "stage 1: P=0 50%=2 Q=0",
        "stage 2: P=0 50%=2 Q=1",
        "stage 3: P=0 50%=2 Q=1",
        "stage 4: P=2 50%=2 Q=2",
        "P=2 50%=2 Q=2",
    ]


def _wide_circuit():
    # a 70-line register, whose values take several 30-bit int digits, with
    # marked stages and an unmarked tail
    circ = Circuit(RegisterLayout([Register("W", 0, 70), Register("P", 70, 3, 0)]))
    for kind, lines in [(TOFFOLI, (0, 69, 70)), (SWAP, (1, 68)), (CNOT, (35, 71)), (SWAP, (2, 72))]:
        circ.append(Gate(kind, lines))
        circ.mark_stage()
    for kind, lines in [(CNOT, (70, 64)), (SWAP, (0, 72)), (TOFFOLI, (71, 72, 33))]:
        circ.append(Gate(kind, lines))
    return circ


@settings(max_examples=150, deadline=None)
@given(circuit=valid_circuits(), seed=st.integers(0, 2**32 - 1), trace=st.booleans())
@example(circuit=_wide_circuit(), seed=1, trace=True)
@example(circuit=_unmarked_tail(), seed=2, trace=True)
@example(circuit=SIM_CIRCUITS["no_gates"](), seed=3, trace=True)
def test_sim_stdout_matches_the_reference_on_random_circuits(circuit, seed, trace, tmp_path_factory):
    rng = random.Random(seed)
    values = {r.name: rng.getrandbits(r.size) for r in circuit.layout.registers
              if not r.is_ancilla or rng.getrandbits(1)}
    path = tmp_path_factory.mktemp("sim") / "circuit.rev"
    path.write_text(revio.write_netlist(circuit), encoding="utf-8")
    argv = ["sim", str(path)] + [f"--set={k}={v}" for k, v in values.items()]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv + (["--trace"] if trace else [])) == 0
    assert out.getvalue() == reference_sim_stdout(circuit, values, trace)


def slice_state_renderer(layout):
    """The renderer `sim` used before each state was decoded to one integer:
    one `int(digits[lo:hi], 2)` per register, over the state's binary digits."""
    width = layout.width
    order = sorted(layout.registers, key=lambda r: r.name != "P")
    spans = [(f"{r.name}=", width - r.end, width - r.start) for r in order]

    def render(state) -> str:
        digits = bytes(state)[::-1].translate(sim._DIGITS)
        return " ".join([name + str(int(digits[lo:hi], 2)) for name, lo, hi in spans])

    return render


@pytest.mark.parametrize(
    "layout",
    [
        synth.multiplier_layout(5),
        synth.build_addnop(4).layout,
        synth.build_ror(7).layout,
        synth.build_controlled_ror(6).layout,
        RegisterLayout([Register("X", 0, 1), Register("P", 1, 3, 0), Register("Y", 4, 2, 1)]),
        *(synth.multiplier_layout(n) for n in (1, 2, 3, 4, 6, 7, 8, 300)),
    ],
)
def test_state_renderer_matches_register_value(layout, tmp_path, capsys):
    # `sim` of a gateless netlist prints back the state that `--set` gives
    # every register, ancillas included
    path = tmp_path / "gateless.rev"
    path.write_text(revio.write_netlist(Circuit(layout)))
    sliced = slice_state_renderer(layout)
    rng = random.Random(3)
    for _ in range(50):
        state = [rng.getrandbits(1) for _ in range(layout.width)]
        argv = ["sim", str(path)] + [
            f"--set={r.name}={sim.register_value(layout, state, r.name)}" for r in layout.registers
        ]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed == reference_format_state(layout, state) + "\n" == sliced(state) + "\n"


def _sim_peak_bytes(argv):
    """Peak traced allocation of one CLI command, its stdout discarded."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_traced_sim_memory_does_not_grow_with_the_stage_count(tmp_path):
    path = tmp_path / "mul32.rev"
    path.write_text(revio.write_netlist(synth.build_multiplier(32)))  # 3,198 stages
    argv = ["sim", str(path), "--set", "A=4000000000", "--set", "B=123456789"]
    untraced = _sim_peak_bytes(argv)
    traced = _sim_peak_bytes(argv + ["--trace"])
    assert traced - untraced < 64 * 1024


def test_verify_exhaustive_exit_zero(capsys):
    assert main(["verify", "mul", "--n", "4", "--exhaustive"]) == 0
    printed = capsys.readouterr().out
    assert "checked=256" in printed and "ok" in printed


def test_verify_random_echoes_seed(capsys):
    assert main(["verify", "mul", "--n", "16", "--random", "50", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert "seed=7" in first
    assert main(["verify", "mul", "--n", "16", "--random", "50", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first  # same seed, byte-identical output


def test_verify_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("REVMUL_SEED", "13")
    assert main(["verify", "ror", "--width", "15", "--random", "20"]) == 0
    assert "seed=13" in capsys.readouterr().out


@pytest.mark.parametrize("mode", [["--random", "2"], ["--exhaustive"]])
def test_verify_bad_seed_env_names_the_variable(capsys, monkeypatch, mode):
    monkeypatch.setenv("REVMUL_SEED", "zz")
    assert main(["verify", "mul", "--n", "3", *mode]) == 2
    assert capsys.readouterr().err == "error: REVMUL_SEED must be an integer, got 'zz'\n"


@pytest.mark.parametrize(
    "seed, err",
    [
        ("x" * 100_000, "error: REVMUL_SEED must be an integer, got of 100000 characters\n"),
        ("9" * 4_000_000, "error: REVMUL_SEED must be an integer of at most 131075 characters, "
                          "got of 4000000 characters\n"),
    ],
    ids=["bad", "long"],
)
def test_verify_echoes_a_long_seed_env_by_length(seed, err, capsys, monkeypatch):
    monkeypatch.setenv("REVMUL_SEED", seed)
    assert main(["verify", "mul", "--n", "3", "--random", "2"]) == 2
    assert capsys.readouterr().err == err and len(err) < 200


def test_verify_ror_exhaustive(capsys):
    assert main(["verify", "ror", "--width", "9", "--exhaustive"]) == 0
    assert "checked=512" in capsys.readouterr().out


def test_verify_default_modes(capsys):
    assert main(["verify", "mul", "--n", "3"]) == 0
    assert "mode=exhaustive" in capsys.readouterr().out
    assert main(["verify", "mul", "--n", "6"]) == 0
    assert "mode=random" in capsys.readouterr().out


def test_verify_exhaustive_cap_is_usage_error(capsys):
    assert main(["verify", "mul", "--n", "16", "--exhaustive"]) == 2


def test_verify_takes_one_sweep_mode(capsys):
    assert main(["verify", "mul", "--n", "2", "--exhaustive", "--random", "3"]) == 2
    assert capsys.readouterr() == ("", "error: choose one of --exhaustive / --random\n")


@pytest.mark.parametrize("sweep", [[], ["--exhaustive"], ["--random", "5"]])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_verify_width_below_one_is_usage_error(n, sweep, capsys):
    assert main(["verify", "mul", "--n", n, *sweep]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == f"error: operand width must be >= 1, got {n}\n"


def test_verify_json_output(capsys):
    assert main(["verify", "mul", "--n", "2", "--json"]) == 0
    printed = capsys.readouterr().out
    assert '"ok": true' in printed and '"checked": 16' in printed


@pytest.mark.parametrize(
    "argv, stdout, stderr",
    [
        (
            "verify mul --n 3",
            "mul n=3: mode=exhaustive checked=64 ok\n",
            r"mul n=3: 64 pairs in \d+\.\d{6} s, \d+ pairs/s\n",
        ),
        (
            "verify ror --width 9 --random 20 --seed 5",
            "ror width=9: mode=random seed=5 checked=20 ok\n",
            r"ror width=9: 20 states in \d+\.\d{6} s, \d+ states/s\n",
        ),
        (
            "verify mul --n 2 --json",
            revio.metrics_json(sim.verify_multiplier(2)),
            r"mul n=2: 16 pairs in \d+\.\d{6} s, \d+ pairs/s\n",
        ),
    ],
)
def test_verify_timing_goes_to_stderr(argv, stdout, stderr, capsys):
    assert main(argv.split()) == 0
    printed = capsys.readouterr()
    assert printed.out == stdout
    assert re.fullmatch(stderr, printed.err)


def test_compare_markdown_rows(capsys):
    assert main(["compare", "--max-n", "1024", "--which", "ancilla", "--format", "md"]) == 0
    printed = capsys.readouterr().out
    data_rows = [l for l in printed.splitlines() if l.startswith("| ") and "|---" not in l]
    assert len(data_rows) == 10  # header plus nine ladder sizes
    assert "| 1024 | 2049 |" in printed


def test_compare_garbage_all_hundred(capsys):
    assert main(["compare", "--which", "garbage", "--format", "csv"]) == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[0] == "n,kotiyal,zhou,imp"
    assert all(line.endswith("100%") for line in printed.strip().splitlines()[1:])


def test_compare_off_ladder_rejected(capsys):
    assert main(["compare", "--max-n", "48"]) == 2


def test_compare_reports_a_deviation_from_the_published_table(monkeypatch, capsys):
    monkeypatch.setitem(analysis.REPORTED_IMP_KOTIYAL, 4, 60.84)
    assert main(["compare", "--max-n", "4"]) == 1
    printed = capsys.readouterr()
    assert "| 4 | 9 | 23 | 28 | 60.87 | 67.86 |" in printed.out
    assert printed.err == (
        "deviates from the published table: n=4 imp_kotiyal: recomputed 60.87 vs reported 60.84\n"
    )


def test_compare_writes_file(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["compare", "--max-n", "8", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "n,ours,kotiyal,zhou,imp_kotiyal,imp_zhou"


def test_written_files_have_the_same_bytes_on_every_platform(monkeypatch, tmp_path, capsys):
    # a platform whose line separator is "\r\n": _pyio's text files read
    # os.linesep when opened, so a file opened without newline="" turns each
    # "\n" written into "\r\n"
    monkeypatch.setattr(os, "linesep", "\r\n")
    monkeypatch.setattr(cli, "open", _pyio.open, raising=False)
    rev, csv = tmp_path / "mul2.rev", tmp_path / "t.csv"
    assert main(["build", "mul", "--n", "2", "--out", str(rev)]) == 0
    assert main(["compare", "--max-n", "8", "--format", "csv", "--out", str(csv)]) == 0
    assert rev.read_bytes() == revio.write_netlist(synth.build_multiplier(2)).encode()
    assert csv.read_bytes() == analysis.render_csv(analysis.ancilla_rows(8), "ancilla").encode()


# A valid command line for each subcommand, positionals first. The test below
# gives each argument of each subcommand in turn a 100,000-character value.
VALID_COMMANDS = {
    "build": ["build", "mul", "--n", "1", "--out", "{dir}/out.rev"],
    "sim": ["sim", "{dir}/in.rev"],
    "verify": ["verify", "mul", "--n", "1"],
    "compare": ["compare", "--max-n", "4"],
}


def long_value_commands():
    """A command line for each action of each `build_parser()` subcommand,
    with that action's value 100,000 characters long (digits for an int) and
    the rest of the line valid; and the subcommand itself, and one unknown
    argument, 100,000 characters long."""
    [commands] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(commands.choices) == sorted(VALID_COMMANDS)
    cases = [pytest.param(["x" * 100_000], id="command"),
             pytest.param(VALID_COMMANDS["build"] + ["x" * 100_000], id="unrecognized")]
    for name, parser in commands.choices.items():
        positionals = [action for action in parser._actions if not action.option_strings]
        for action in parser._actions:
            argv = list(VALID_COMMANDS[name])
            value = ("9" if action.type in (int, cli._flag_int) else "x") * 100_000
            if action in positionals:
                argv[1 + positionals.index(action)] = value
            elif action.nargs == 0:  # a flag: --flag=value
                argv.append(f"{action.option_strings[-1]}={value}")
            else:
                argv += [action.option_strings[-1], value]
            cases.append(pytest.param(argv, id=f"{name} {action.dest}"))
    return cases


@pytest.mark.parametrize("name", sorted(VALID_COMMANDS))
def test_valid_commands_run(name, tmp_path, capsys):
    (tmp_path / "in.rev").write_text("rev 1\nqubits 1\nanc Z 0 0 0\n")
    assert main([arg.format(dir=tmp_path) for arg in VALID_COMMANDS[name]]) == 0


@pytest.mark.parametrize("argv", long_value_commands())
def test_every_argument_echoes_a_long_value_by_its_length(argv, tmp_path, capsys):
    (tmp_path / "in.rev").write_text("rev 1\nqubits 1\nanc Z 0 0 0\n")
    try:
        code = main([arg.format(dir=tmp_path) for arg in argv])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    printed = capsys.readouterr()
    assert code == 2 and printed.out == ""
    assert len(printed.err.encode()) < 400, printed.err[:400]
    assert " of 100000 characters" in printed.err


@pytest.mark.parametrize(
    "argv",
    [["build", "{}"], ["build", "mul", "--n", "{}"], ["sim", "f.rev", "--trace={}"],
     ["verify", "mul", "--n", "1", "{}"], ["{}"]],
    ids=["choice", "int", "flag", "unrecognized", "command"],
)
@pytest.mark.parametrize(
    "value", ["x" * 32, "a'b\"\n\t\x00é" * 4, "é" * 32, "x" * 33], ids=["x", "escaped", "é", "33"]
)
def test_usage_error_echoes_a_value_of_32_characters_whole(argv, value, monkeypatch, capsys):
    argv = [arg.format(value) for arg in argv]
    printed = []
    for error in (cli._Parser.error, argparse.ArgumentParser.error):
        monkeypatch.setattr(cli._Parser, "error", error)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        printed.append(capsys.readouterr())
    bounded, whole = printed
    if len(value) <= 32:
        assert bounded == whole
    else:
        assert bounded.err == whole.err.replace(repr(value), "of 33 characters").replace(
            value, "of 33 characters"
        )


def exit_code_and_output(argv):
    """`main(argv)`'s exit code, argparse's usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code


def size_and_count_flags():
    """(subcommand, flag) for every action of `build_parser()` whose type is
    `cli._flag_int`: the size and count flags, but not --seed."""
    [commands] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [(name, action.option_strings[-1]) for name, parser in commands.choices.items()
            for action in parser._actions if action.type is cli._flag_int]


def test_size_and_count_flags_are_the_int_flags_but_seed():
    assert sorted(size_and_count_flags()) == [
        ("build", "--n"), ("build", "--width"), ("compare", "--max-n"),
        ("verify", "--n"), ("verify", "--random"), ("verify", "--width"),
    ]


def flag_command(name, flag, value):
    """A command line of subcommand `name` that gives `flag` the value."""
    if flag == "--max-n":
        return ["compare", flag, value]
    block = "ror" if flag == "--width" else "mul"
    argv = [name, block, flag, value]
    return argv + ["--n", "4"] if flag == "--random" else argv


@pytest.mark.parametrize("value", ["9" * 4000, "-" + "9" * 4000, "9" * 33, "-1" + "0" * 32])
@pytest.mark.parametrize("name, flag", size_and_count_flags())
def test_a_size_or_count_of_33_to_4300_digits_is_refused_by_its_length(name, flag, value, capsys):
    # argparse reads these while Python's digit limit holds; each command
    # would have echoed the value whole (12,063 B for `build mul --n`)
    assert exit_code_and_output(flag_command(name, flag, value)) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert len(printed.err.encode()) < 300, printed.err[:300]
    assert printed.err.endswith(
        f"error: argument {flag}: must have at most 32 digits, got of {len(value)} characters\n"
    )


@pytest.mark.parametrize("value", ["9" * 32, "-" + "9" * 32, "0" * 40 + "4"])
@pytest.mark.parametrize("name, flag", size_and_count_flags())
def test_a_size_or_count_of_32_digits_reaches_the_command(name, flag, value, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)  # `build` writes its netlist here
    code = exit_code_and_output(flag_command(name, flag, value))
    printed = capsys.readouterr()
    if value.endswith("4"):  # a valid value, however long its text
        assert code == 0, printed.err
    else:  # refused by the command, which echoes it whole
        assert code == 2 and str(int(value)) in printed.err


@pytest.mark.parametrize(
    "tail", [["a " * 50_000], ["a"] * 50_000, ["a b c d e f g h i j k l m n o p q"]],
    ids=["one argument of 50,000 words", "50,000 arguments", "33 characters"],
)
def test_unrecognized_arguments_are_echoed_as_one_value(tail, capsys):
    assert exit_code_and_output(["build", "mul", "--n", "2", *tail]) == 2
    printed = capsys.readouterr()
    length = len(" ".join(tail))
    assert printed.err.endswith(f"error: unrecognized arguments: of {length} characters\n")
    assert len(printed.err.encode()) < 300


def adversarial_commands(tmp):
    """ROADMAP item 13's table: -1, 0 and 2^64 for every size and count flag,
    a NUL and a non-UTF-8 byte in a netlist, a directory as the netlist, a
    missing netlist, and an --out in a missing directory."""
    body = b"rev 1\nqubits 2\nreg R 0 1\ncx 0 1\n"
    (tmp / "nul.rev").write_bytes(body.replace(b"cx 0 1", b"cx 0\x00 1"))
    (tmp / "latin1.rev").write_bytes(body.replace(b"cx 0 1", b"cx 0 1 # \xe9"))
    (tmp / "dir.rev").mkdir()
    cases = [
        pytest.param(flag_command(name, flag, value), id=f"{name} {flag} {value}")
        for name, flag in size_and_count_flags()
        for value in ("-1", "0", str(1 << 64))
    ]
    for argv in (
        ["sim", "nul.rev", "--set", "R=1"],
        ["sim", "latin1.rev", "--set", "R=1"],
        ["sim", "dir.rev"],
        ["sim", "missing.rev"],
        ["build", "mul", "--n", "2", "--out", "missing/out.rev"],
        ["compare", "--out", "missing/out.md"],
    ):
        cases.append(pytest.param([str(tmp / arg) if "." in arg else arg for arg in argv], id=" ".join(argv)))
    return cases


def test_every_adversarial_input_exits_two_with_a_short_message(tmp_path, capsys):
    cases = adversarial_commands(tmp_path)
    assert len(cases) == 6 * 3 + 6
    for case in cases:
        [argv] = case.values
        assert exit_code_and_output(argv) == 2, case.id
        printed = capsys.readouterr()
        assert printed.out == "" and 0 < len(printed.err.encode()) < 300, (case.id, printed.err[:300])


def test_a_negative_seed_checks_the_pairs_of_its_absolute_value(monkeypatch, capsys):
    # CPython seeds random.Random with the absolute value of an int
    entries = []

    def recording_run(circuit, state, trace=None):
        entries.append(list(state))
        return real_run(circuit, state, trace)

    real_run = sim.run
    monkeypatch.setattr(sim, "run", recording_run)
    for seed in ("-5", "5"):
        assert main(["verify", "mul", "--n", "8", "--random", "300", "--seed", seed]) == 0
        assert capsys.readouterr().out == f"mul n=8: mode=random seed={seed} checked=300 ok\n"
    negative, positive = entries
    assert negative == positive


@pytest.mark.parametrize(
    "name, err",
    [
        ("missing.rev", "error: [Errno 2] No such file or directory: 'missing.rev'\n"),
        ("m" * 33, "error: [Errno 2] No such file or directory: of 33 characters\n"),
    ],
    ids=["short", "long"],
)
def test_sim_names_a_missing_file(name, err, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["sim", name]) == 2
    assert capsys.readouterr() == ("", err)


# `build` writes blocks of up to MAX_GATES gates, but `sim` reads only up to
# MAX_QUBITS lines: each block below is as wide as a netlist can be, and one
# size more is written but not read back.
@pytest.mark.parametrize(
    "block, flag, size", [("ror", "width", 65536), ("cror", "width", 65535), ("addnop", "n", 32766)]
)
def test_build_writes_netlists_wider_than_sim_reads(block, flag, size, tmp_path, capsys):
    path = tmp_path / "block.rev"
    assert main(["build", block, f"--{flag}", str(size), "--out", str(path)]) == 0
    text = path.read_text()
    assert revio.write_netlist(revio.parse_netlist(text)) == text
    assert main(["build", block, f"--{flag}", str(size + 1), "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["sim", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: line 2: width 65537 exceeds the limit of 65536 lines\n")


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def child_env():
    """The environment of a child that imports the same revmul as this test,
    installed or not."""
    src = str(Path(revmul.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "revmul", "verify", "mul", "--n", "2"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_every_file_is_opened_as_utf8(tmp_path):
    # an open() without an encoding reads and writes in the locale's encoding;
    # with its EncodingWarning as an error, the command fails
    netlist, table = str(tmp_path / "mul2.rev"), str(tmp_path / "table.md")
    for argv in (
        ["build", "mul", "--n", "2", "--out", netlist],
        ["sim", netlist, "--set", "A=3", "--set", "B=2"],
        ["compare", "--max-n", "4", "--out", table],
    ):
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "revmul", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert (proc.returncode, proc.stderr) == (0, ""), argv


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_out_of_memory_exits_two(tmp_path):
    # the child caps its own address space at 128 MiB; building n = 418 peaks
    # at about 211 MiB RSS, so it runs out of memory (exit 1 would be "failed")
    src = str(Path(revmul.__file__).resolve().parents[1])
    child = (
        "import resource, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))\n"
        "import gc\n"
        "from revmul.cli import main\n"
        f"code = main(['build', 'mul', '--n', '418', '--out', {str(tmp_path / 'm.rev')!r}])\n"
        "print(gc.isenabled())\n"  # the collector `main` paused is running again
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "True\n", "error: out of memory\n")


# ---------------------------------------------------------------- values past the digit limit

WIDE = 20000  # lines; a full register prints as 6,021 decimal digits


def _digit_limit():
    # None where the interpreter has no int <-> str digit limit (before 3.10.7)
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@contextlib.contextmanager
def no_digit_limit():
    """Let the test itself print and read wide ints."""
    limit = _digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_sim_prints_a_register_wider_than_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "ror.rev"
    path.write_text(revio.write_netlist(synth.build_ror(WIDE)))
    limit = _digit_limit()
    assert main(["sim", str(path), "--set", f"P={(1 << WIDE) - 1:#x}"]) == 0
    assert _digit_limit() == limit  # restored when main returns
    printed = capsys.readouterr().out
    with no_digit_limit():
        assert printed == f"P={(1 << WIDE) - 1}\n"


def test_wide_register_renders_as_the_slice_renderer_inside_main(tmp_path, capsys):
    circuit = synth.build_ror(WIDE)  # one register of 6,021 decimal digits
    path = tmp_path / "ror.rev"
    path.write_text(revio.write_netlist(circuit))
    value = random.Random(5).getrandbits(WIDE) | 1 << (WIDE - 1)
    assert main(["sim", str(path), "--set", f"P={value:#x}"]) == 0
    printed = capsys.readouterr().out
    final = sim.run(circuit, sim.pack_state(circuit.layout, {"P": value}))
    with no_digit_limit():
        # as a list, so that a failure reports the first differing line and
        # pytest does not diff two 6,000-digit strings character by character
        assert printed.splitlines() == [slice_state_renderer(circuit.layout)(final)]


def test_traced_sim_memory_is_linear_in_the_width(tmp_path):
    path = tmp_path / "ror.rev"
    path.write_text(revio.write_netlist(synth.build_ror(WIDE)))
    argv = ["sim", str(path), "--set", f"P={random.Random(5).getrandbits(WIDE):#x}"]
    untraced = _sim_peak_bytes(argv)
    traced = _sim_peak_bytes(argv + ["--trace"])
    # the printer's per-line table and copy of the bits hold one pointer per
    # line each; a table of 1 << bit masks would take about 25 MB here
    assert traced - untraced < 64 * WIDE


def _drop_last_gate(circuit):
    damaged = Circuit(circuit.layout)
    for gate in circuit.gates[:-1]:
        damaged.append(gate)
    return damaged


def _failing_rotates(monkeypatch):
    monkeypatch.setattr(sim, "build_ror", lambda width: _drop_last_gate(synth.build_ror(width)))


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_failing_wide_verify_prints_its_counterexamples(json_flag, monkeypatch, capsys):
    _failing_rotates(monkeypatch)
    limit = _digit_limit()
    argv = ["verify", "ror", "--width", str(WIDE), "--random", "5", "--seed", "3"]
    assert main(argv + json_flag) == 1
    assert _digit_limit() == limit
    printed = capsys.readouterr().out
    report = sim.verify_rotate(WIDE, mode="random", count=5, seed=3)
    count = len(report.counterexamples)
    assert count > 0
    with no_digit_limit():
        if json_flag:
            assert printed == revio.metrics_json(report)
        else:
            head = f"ror width={WIDE}: mode=random seed=3 checked=5 FAILED ({count} counterexamples)"
            want = [head] + [f"  counterexample: {ce}" for ce in report.counterexamples]
            assert printed.splitlines() == want


# ---------------------------------------------------------------- the collector's pause


@pytest.fixture
def collector():
    """The cyclic collector's state put back after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "paused_by_caller"])
@pytest.mark.parametrize(
    "case, code",
    [("build", 0), ("failing_verify", 1), ("missing_file", 2), ("usage_error", 2)],
)
def test_main_restores_the_collector_on_every_exit(
    case, code, enabled, collector, monkeypatch, tmp_path, capsys
):
    argv = {
        "build": ["build", "mul", "--n", "3", "--out", str(tmp_path / "m.rev")],
        "failing_verify": ["verify", "ror", "--width", "8"],
        "missing_file": ["sim", str(tmp_path / "missing.rev")],
        "usage_error": ["verify", "mul", "--n", "two"],
    }[case]
    if case == "failing_verify":
        _failing_rotates(monkeypatch)
    (gc.enable if enabled else gc.disable)()
    try:
        exit_code = main(argv)
    except SystemExit as exc:  # argparse's usage error
        exit_code = exc.code
    assert exit_code == code
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "paused_by_caller"])
def test_a_command_runs_with_the_collector_paused(enabled, collector, monkeypatch, capsys):
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        raise RuntimeError("not a usage error")  # leaves `main` through its finally

    monkeypatch.setattr(cli, "cmd_verify", command)
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RuntimeError):
        main(["verify", "mul", "--n", "2"])
    assert seen == [False]
    assert gc.isenabled() is enabled


def test_library_calls_keep_the_callers_collector(collector):
    # only `main` pauses the collector; a build called directly leaves it on
    gc.enable()
    collections = []
    gc.callbacks.append(lambda phase, info: collections.append(info["generation"]))
    try:
        synth.build_multiplier(32)
    finally:
        gc.callbacks.pop()
    assert collections and gc.isenabled()


# One command line of each kind at a small and a larger size ({size} is 4 or
# 16): built files, written tables and read netlists land in {dir}.
COLLECTOR_COMMANDS = {
    "build_mul": (0, ["build", "mul", "--n", "{size}", "--out", "{dir}/mul.rev"]),
    "build_ror": (0, ["build", "ror", "--width", "{size}", "--out", "{dir}/ror.rev"]),
    "build_addnop": (0, ["build", "addnop", "--n", "{size}", "--out", "{dir}/addnop.rev"]),
    "build_qasm": (0, ["build", "mul", "--n", "{size}", "--format", "qasm", "--out", "{dir}/mul.qasm"]),
    "sim": (0, ["sim", "{dir}/in{size}.rev", "--set", "A=3", "--set", "B=5"]),
    "sim_trace": (0, ["sim", "{dir}/in{size}.rev", "--set", "A=3", "--set", "B=5", "--trace"]),
    "missing_file": (2, ["sim", "{dir}/missing{size}.rev"]),
    "oversized_n": (2, ["build", "mul", "--n", "{size}000", "--out", "{dir}/big.rev"]),
    "compare": (0, ["compare", "--max-n", "{size}"]),
    "verify": (0, ["verify", "mul", "--n", "{size}", "--random", "50"]),
    "verify_json": (0, ["verify", "mul", "--n", "{size}", "--random", "50", "--json"]),
    "failing_verify": (1, ["verify", "ror", "--width", "{size}"]),
    "failing_verify_json": (1, ["verify", "ror", "--width", "{size}", "--json"]),
}


@pytest.mark.parametrize("name", sorted(COLLECTOR_COMMANDS))
def test_a_command_leaves_no_cycles_that_grow_with_its_circuit(
    name, collector, monkeypatch, tmp_path, capsys
):
    # The pause is honest only if a command leaves nothing for a later
    # collection to do per gate: what one collection finds after `main` is the
    # same at both sizes, and small. The first run, at size 4, builds the
    # parser and fills lazy caches and is not counted.
    if name.startswith("failing"):
        _failing_rotates(monkeypatch)
    gc.disable()  # no automatic collection between `main` and the count
    found = []
    for size in (4, 4, 16):
        (tmp_path / f"in{size}.rev").write_text(revio.write_netlist(synth.build_multiplier(size)))
        code, argv = COLLECTOR_COMMANDS[name]
        gc.collect()
        assert main([arg.format(size=size, dir=tmp_path) for arg in argv]) == code
        found.append(gc.collect())
        capsys.readouterr()
    assert found[1] == found[2] <= 64, found


# ---------------------------------------------------------------- one parser per process


@pytest.fixture
def fresh_parser():
    """`main`'s parser cache emptied before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_parser_is_built_once_across_calls(fresh_parser, monkeypatch, capsys):
    built, original = [], cli.build_parser

    def spy():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", spy)
    for _ in range(5):
        assert main(["verify", "mul", "--n", "2"]) == 0
    assert len(built) == 1


def test_parser_is_not_built_at_import():
    src = str(Path(revmul.__file__).resolve().parents[1])
    child = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import revmul, revmul.cli\n"
        "print(revmul.cli._parser.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "0\n")


def test_command_rebound_after_the_first_call_is_the_one_that_runs(monkeypatch, capsys):
    assert main(["verify", "mul", "--n", "2"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.n) or 7)
    assert main(["verify", "mul", "--n", "3"]) == 7
    assert seen == [3]


def test_set_lists_do_not_leak_between_calls(tmp_path, capsys):
    path = tmp_path / "mul2.rev"
    path.write_text(revio.write_netlist(synth.build_multiplier(2)))
    assert main(["sim", str(path), "--set", "A=1", "--set", "B=0"]) == 0
    assert main(["sim", str(path), "--set", "B=2"]) == 2  # A from the first call is gone
    printed = capsys.readouterr()
    assert printed.out == "P=0 A=1 B=0 Zcin=0\n"
    assert "register A" in printed.err


def test_json_flag_does_not_leak_between_calls(capsys):
    assert main(["verify", "mul", "--n", "2", "--json"]) == 0
    assert capsys.readouterr().out == revio.metrics_json(sim.verify_multiplier(2))
    assert main(["verify", "mul", "--n", "2"]) == 0
    assert capsys.readouterr().out == "mul n=2: mode=exhaustive checked=16 ok\n"


def test_seed_env_is_read_on_every_call(monkeypatch, capsys):
    argv = ["verify", "mul", "--n", "3", "--random", "4"]
    for seed in ("11", "12"):
        monkeypatch.setenv("REVMUL_SEED", seed)
        assert main(argv) == 0
        assert capsys.readouterr().out == f"mul n=3: mode=random seed={seed} checked=4 ok\n"


def test_usage_error_then_good_command(capsys):
    usage_errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["verify", "mul", "--n", "two"])
        assert info.value.code == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        usage_errors.append(printed.err)
        assert main(["verify", "mul", "--n", "2"]) == 0
        assert capsys.readouterr().out == "mul n=2: mode=exhaustive checked=16 ok\n"
    assert usage_errors[0] == usage_errors[1]
    assert usage_errors[0].endswith("error: argument --n: invalid int value: 'two'\n")


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=["top", "verify"])
def test_help_is_the_same_on_every_call(argv, fresh_parser, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    printed = []
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]
    assert printed[0].out.startswith("usage: revmul ")
