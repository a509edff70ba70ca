"""Circuit intermediate representation: register layout, gate list, stage marks."""

from collections.abc import Iterator
from dataclasses import dataclass

from .gates import Gate

_MAX_SHOWN_CHARS = 32  # the longest name or token a message echoes whole


def _shown(token: str, spell=repr) -> str:
    """`token` as a message echoes it: whole, or by its length if too long."""
    return spell(token) if len(token) <= _MAX_SHOWN_CHARS else f"of {len(token)} characters"


@dataclass(frozen=True)
class Register:
    """A named contiguous span of lines. Bit 0 of the span is the LSB.

    ``const`` is None for a data input, or the constant bit (0 or 1) every
    line of the register must carry at circuit entry (an ancilla register).
    """

    name: str
    start: int
    size: int
    const: int | None = None

    def __post_init__(self):
        # a .rev declaration splits on whitespace and a "#" opens a comment
        if not self.name or "#" in self.name or any(ch.isspace() for ch in self.name):
            raise ValueError(f"bad register name {_shown(self.name)}")
        # plain ints only: the writer prints these fields, and the parser
        # reads back only integers (a bool or float would print as True or 2.0)
        start, size, const = self.start, self.size, self.const
        if type(start) is not int or type(size) is not int or start < 0 or size < 1:
            raise ValueError(
                f"bad register span {_shown(self.name, str)}: start={start} size={size}"
            )
        if const is not None and (type(const) is not int or const not in (0, 1)):
            raise ValueError(f"ancilla constant must be 0 or 1, got {const!r}")

    @property
    def end(self) -> int:
        return self.start + self.size

    @property
    def is_ancilla(self) -> bool:
        return self.const is not None

    def line(self, bit: int) -> int:
        """Line index of the register's bit (0 = LSB)."""
        if not 0 <= bit < self.size:
            raise ValueError(f"register {_shown(self.name, str)} has no bit {bit}")
        return self.start + bit

    @property
    def lines(self) -> range:
        return range(self.start, self.end)


class RegisterLayout:
    """Named registers that cover [0, width) exactly, with no overlap."""

    def __init__(self, registers):
        regs = tuple(registers)
        names = [r.name for r in regs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate register name in layout")
        edge = 0
        for reg in sorted(regs, key=lambda r: r.start):
            if reg.start < edge:
                raise ValueError(f"register {_shown(reg.name, str)} overlaps a previous register")
            if reg.start > edge:
                raise ValueError(
                    f"layout gap before register {_shown(reg.name, str)} at line {edge}"
                )
            edge = reg.end
        self.registers = regs
        self.width = edge
        self._by_name = {r.name: r for r in regs}

    def __getitem__(self, name: str) -> Register:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no register named {_shown(name)}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __eq__(self, other):
        return isinstance(other, RegisterLayout) and self.registers == other.registers

    def __repr__(self):
        spans = ", ".join(f"{r.name}[{r.start}:{r.end}]" for r in self.registers)
        return f"RegisterLayout({spans})"

    @property
    def ancilla_inputs(self) -> int:
        """Number of lines that must enter holding a declared constant."""
        return sum(r.size for r in self.registers if r.is_ancilla)


class Circuit:
    """An ordered gate list over a fixed layout, with optional stage marks.

    A stage is a declared block of gates that execute as one parallel layer;
    mark_stage() closes the stage ending at the current last gate. Gates in a
    stage must act on pairwise disjoint lines, which is what makes the staged
    delay accounting (cost of a stage = its most expensive gate) sound.
    append() and mark_stage() are the checked way in from outside the package.
    The builders fill gates and stage_marks directly (see synth._add_stages), and
    io.parse_netlist checks them inline. Treat a built circuit as immutable.
    """

    def __init__(self, layout: RegisterLayout):
        self.layout = layout
        self.gates: list[Gate] = []
        self.stage_marks: list[int] = []

    @property
    def width(self) -> int:
        return self.layout.width

    def __len__(self):
        return len(self.gates)

    def __eq__(self, other):
        return (
            isinstance(other, Circuit)
            and self.layout == other.layout
            and self.gates == other.gates
            and self.stage_marks == other.stage_marks
        )

    def __repr__(self):
        return f"Circuit(width={self.width}, gates={len(self.gates)}, stages={self.stage_count})"

    def append(self, gate: Gate) -> None:
        lines = gate.lines
        # plain ints only, as in Register: the writer would print a bool or
        # float line as True or 1.5, which the parser rejects
        if not all(type(line) is int for line in lines):
            raise ValueError(f"gate {gate.kind} {lines} has a line index that is not a plain int")
        if max(lines) >= self.width:
            raise ValueError(f"gate {gate.kind} {lines} out of range for width {self.width}")
        self.gates.append(gate)

    def mark_stage(self) -> None:
        """Close the stage ending after the most recently appended gate."""
        first = self.stage_marks[-1] if self.stage_marks else 0
        if len(self.gates) == first:
            raise ValueError("empty stage")
        lines = [line for gate in self.gates[first:] for line in gate.lines]
        if len(set(lines)) != len(lines):
            raise ValueError("stage gates must act on pairwise disjoint lines")
        self.stage_marks.append(len(self.gates))

    def stages(self) -> Iterator[list[Gate]]:
        """Gate list partitioned into stages, yielded one at a time.

        Gates after the last mark (or all gates, if nothing was marked) carry
        no parallelism declaration and are yielded as one stage each.
        """
        start = 0
        for mark in self.stage_marks:
            yield self.gates[start:mark]
            start = mark
        for gate in self.gates[start:]:
            yield [gate]

    @property
    def stage_count(self) -> int:
        # the marked stages, plus one per gate after the last mark
        unmarked = len(self.gates) - (self.stage_marks[-1] if self.stage_marks else 0)
        return len(self.stage_marks) + unmarked
