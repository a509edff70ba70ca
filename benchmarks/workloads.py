"""The benchmark's workloads: fixed command multisets, their inputs, and the
answers each command's output is checked against.

Every answer here is computed by the benchmark itself (closed forms, integer
products, sha256 digests pinned from a known-good tree), never by the code
under test. A workload's multiset of commands is fixed; the seed varies only
their order, the operands and the ``--seed`` values, so that two seeds do the
same amount of work.

Each multiset has at least 100 commands, so that p90 has at least 10 samples
beyond it in a single pass. The counts are chosen so that the p50 and p90
ranks fall inside a group of commands of one latency class rather than on the
border between two, which would make the percentile jump between classes from
run to run.
"""

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


# sha256 of `revmul build <block> --<size flag> <size> --format <fmt>` output.
# The .rev and QASM writers promise byte-identical output across versions.
PINNED_SHA256 = {
    ("mul", 2, "rev"): "8a0a8995aa31facd2677379a6cf01c53fb449c7758432e4c1a33a4ea7a8bed7c",
    ("mul", 3, "rev"): "1e90fa1d20df9712cada5476c50e8c2ea87ddb908bbba86c89b41654f1d313b1",
    ("mul", 4, "rev"): "71fa9c5de262134a102597ccc4ea9cf64e8719cae1d9682173b0e21bd73885a8",
    ("mul", 6, "rev"): "91ac1437a8fb9298503a5336b79ff37dfea4127b63e9b1a7c14a4c2fe800469b",
    ("mul", 16, "rev"): "d78c82d0cf698da717a9235d8c5201d24a4a5a6016d0a632e9e35e66df8b2987",
    ("mul", 32, "rev"): "f843c77f2b3ebb043ec7ab0ef0717bfbc08658f1ffed05d0b1dd3bd6d60f8fc8",
    ("mul", 64, "rev"): "ae87b311c9543d2587ef283d15722ad89dec6478b6b168d02abd807812def91f",
    ("mul", 128, "rev"): "250eaa111959979bfa5fe142c6cd938f03d4c43f84c63c4152dd36b8f107eec9",
    ("mul", 3, "qasm"): "703499a90ae94a2a1bacdafdfd4fb88c5e64e60282fbc06b9fbeb781c7ae092d",
    ("mul", 16, "qasm"): "ad03941257ea298dcc4c33c5470f66a4c191ab6cec52045e1c17e5df5fb44518",
    ("mul", 32, "qasm"): "6174252be71365adceb0061da68a0eee66e78515c7878b5cec961921876fc549",
    ("mul", 64, "qasm"): "06f7fa64b2fdcc8f4b3a097e9ef3c469e049be2a1b61a8198ab0f2ee5d76e9f8",
    ("ror", 8, "rev"): "128bbfc1ab801932e3b02c4297f369bd3293802623ebe6dc00785746c08dfc26",
    ("ror", 256, "rev"): "aad1f35d013e6960428301dc7731f3c950377f5d5c6f3d33ad159c4929d81f8a",
    ("addnop", 3, "rev"): "1f37d4ed0d2c6a70a90600f825875af21de63f50c63367d487624771638ca67f",
    ("addnop", 128, "rev"): "7a856d6da20b16a6fe9af01cb37457e49104f5d687a11791de35abade56b03bd",
}

SIZE_FLAG = {"mul": "--n", "addnop": "--n", "ror": "--width", "cror": "--width"}


# ---------------------------------------------------------------- closed forms


def mul_gates(n: int) -> int:
    return 6 * n * n - 2 * n + 1


def mul_stages(n: int) -> int:
    # n ADD/NOP blocks of 3n+2 stages, n-1 rotates of 2 stages
    return n * (3 * n + 2) + 2 * (n - 1)


def expected_build_metrics(block: str, size: int) -> dict:
    """Printed `build` metrics from the paper's closed forms; `asap depth`
    is only bounded (<= staged delay), so it is absent here."""
    if block == "mul":
        n = size
        return {
            "gates": mul_gates(n),
            "quantum cost": 26 * n * n - 4 * n + 3,
            "ancilla inputs": 2 * n + 1,
            "stages": mul_stages(n),
            "staged delay": 15 * n * n + 16 * n - 6,
        }
    if block == "addnop":
        n = size
        return {
            "gates": 4 * n + 1,
            "quantum cost": 20 * n + 5,
            "ancilla inputs": n + 2,
            "stages": 3 * n + 2,
            "staged delay": 15 * n + 10,
        }
    if block == "ror":
        w = size
        stages = 1 if w == 2 else 2
        return {
            "gates": w - 1,
            "quantum cost": 3 * (w - 1),
            "ancilla inputs": 0,
            "stages": stages,
            "staged delay": 3 * stages,
        }
    raise ValueError(f"no closed form for block {block!r}")


def circuit_gates(block: str, size: int) -> int:
    return expected_build_metrics(block, size)["gates"] if block != "cror" else size - 1


# ------------------------------------------------------------------ operations


@dataclass
class Outcome:
    """What one operation produced: a CLI exit code and its captured output,
    or the return value of a library call."""

    code: int = 0
    out: str = ""
    err: str = ""
    value: object = None


@dataclass
class Op:
    """One timed operation. `argv` is a `revmul` CLI command; ops with `call`
    instead go through the library (the damaged-circuit verifications).
    `check` returns None when the outcome is right, else what was wrong."""

    kind: str
    check: Callable[[Outcome], str | None]
    gates: int  # gates built (synth), parsed+simulated (netlist) or applied (verify)
    pairs: int = 0  # input pairs or states checked
    argv: list[str] | None = None
    call: Callable[[], object] | None = None


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _printed_fields(out: str) -> dict:
    fields = {}
    for line in out.splitlines():
        if line.startswith("wrote ") and line.endswith(" gates)"):
            fields["gates"] = int(line.rsplit("(", 1)[1].split()[0])
        elif ": " in line:
            key, _, value = line.partition(": ")
            fields[key] = int(value)
    return fields


def check_build(block: str, size: int, fmt: str, path: Path):
    want = expected_build_metrics(block, size)
    pin = PINNED_SHA256[(block, size, fmt)]

    def check(o: Outcome):
        if o.code != 0:
            return f"exit code {o.code}: {o.err.strip()}"
        try:
            got = _printed_fields(o.out)
        except ValueError:
            return f"unreadable build output {o.out!r}"
        for key, value in want.items():
            if got.get(key) != value:
                return f"{key}: printed {got.get(key)}, closed form {value}"
        depth = got.get("asap depth")
        if depth is None or not 1 <= depth <= want["staged delay"]:
            return f"asap depth {depth} not in [1, staged delay {want['staged delay']}]"
        if sha256_file(path) != pin:
            return f"{path.name} differs from the pinned sha256"
        return None

    return check


def _state_fields(line: str) -> dict:
    return {name: int(value) for name, _, value in (t.partition("=") for t in line.split())}


def check_sim(n: int, a: int, b: int, trace: bool):
    want = {"P": a * b, "A": a, "B": b, "Zcin": 0}
    stages = mul_stages(n)

    def check(o: Outcome):
        if o.code != 0:
            return f"exit code {o.code}: {o.err.strip()}"
        lines = o.out.splitlines()
        if not lines:
            return "no output"
        try:
            final = _state_fields(lines[-1])
        except ValueError:
            return f"unreadable final state {lines[-1]!r}"
        if final != want:
            return f"final state {final}, expected {want}"
        stage_lines = lines[:-1]
        if not trace:
            return f"{len(stage_lines)} unexpected lines before the state" if stage_lines else None
        if len(stage_lines) != stages:
            return f"{len(stage_lines)} stage lines, expected {stages}"
        for number, line in enumerate(stage_lines, 1):
            if not line.startswith(f"stage {number}: "):
                return f"stage line {number} reads {line[:40]!r}"
        if stage_lines[-1].partition(": ")[2] != lines[-1]:
            return "last stage snapshot differs from the final state"
        return None

    return check


def check_verify_json(checked: int, mode: str, seed: int | None):
    def check(o: Outcome):
        if o.code != 0:
            return f"exit code {o.code}: {o.err.strip()}"
        try:
            report = json.loads(o.out)
        except ValueError:
            return f"unreadable JSON {o.out[:60]!r}"
        expected = {
            "ok": True,
            "checked": checked,
            "mode": mode,
            "seed": seed,
            "garbage_outputs": 0,
            "counterexamples": [],
        }
        for key, value in expected.items():
            if report.get(key) != value:
                return f"{key}: reported {report.get(key)!r}, expected {value!r}"
        return None

    return check


def check_negative(checked: int, m: int):
    """A damaged multiplier must be rejected. The removed gate is the last
    Toffoli of ADD/NOP block m, which acts exactly when A[m] = B[0] = 1, so
    each counterexample must have both bits set."""

    def check(o: Outcome):
        report = o.value
        if getattr(report, "ok", True):
            return "damaged multiplier verified ok"
        if getattr(report, "checked", None) != checked:
            return f"checked {getattr(report, 'checked', None)}, expected {checked}"
        ces = getattr(report, "counterexamples", None)
        if not ces:
            return "rejected without a counterexample"
        for ce in ces:
            if isinstance(ce, dict) and "a" in ce and "b" in ce:
                if not ((ce["a"] >> m) & 1 and ce["b"] & 1):
                    return f"counterexample a={ce['a']} b={ce['b']} cannot expose block {m}"
        return None

    return check


# ------------------------------------------------------------------- workloads


@dataclass
class Inputs:
    """What a workload's set-up produced, and anything wrong with it."""

    workdir: Path
    revmul: object
    files: dict = field(default_factory=dict)
    damaged: dict = field(default_factory=dict)  # n -> (circuit, block m)
    errors: list = field(default_factory=list)


def cli_build(block: str, size: int, fmt: str, path: Path) -> list[str]:
    return ["build", block, SIZE_FLAG[block], str(size), "--format", fmt, "--out", str(path)]


def run_cli(revmul, argv) -> Outcome:
    """Run one `revmul` command in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = revmul.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return Outcome(code=code, out=out.getvalue(), err=err.getvalue())


class Workload:
    """A workload's inputs and its command list; BENCHMARK.json says why
    each workload exists."""

    name = ""

    def __init__(self, profile: str = "full"):
        self.profile = profile

    def setup(self, revmul, workdir: Path, rng: random.Random) -> Inputs:
        """Generate this workload's inputs. Timed as part of setup_s."""
        return Inputs(workdir=workdir, revmul=revmul)

    def check_setup(self, inputs: Inputs) -> list[str]:
        """Check the generated inputs (not timed)."""
        errors = list(inputs.errors)
        for n, path in inputs.files.items():
            if not path.exists() or sha256_file(path) != PINNED_SHA256[("mul", n, "rev")]:
                errors.append(f"{path.name} differs from the pinned sha256")
        return errors

    @staticmethod
    def write_multipliers(inputs: Inputs, sizes) -> None:
        """`revmul build mul --n N` for each size, into inputs.files."""
        for n in sizes:
            path = inputs.workdir / f"mul{n}.rev"
            code = run_cli(inputs.revmul, cli_build("mul", n, "rev", path)).code
            if code != 0:
                inputs.errors.append(f"build mul {n} exited {code}")
            inputs.files[n] = path

    def ops(self, inputs: Inputs, rng: random.Random) -> list[Op]:
        raise NotImplementedError


class Synth(Workload):
    name = "synth"

    # (count, block, size, format) per pass; latency classes in rank order:
    # ror/addnop ~5 ms, mul16 ~15 ms, mul32 ~60 ms (p50), mul64 ~220 ms
    # (p90), mul128 ~900 ms.
    MIX = {
        "full": [
            (6, "ror", 256, "rev"),
            (6, "addnop", 128, "rev"),
            (18, "mul", 16, "rev"),
            (6, "mul", 16, "qasm"),
            (30, "mul", 32, "rev"),
            (12, "mul", 32, "qasm"),
            (18, "mul", 64, "rev"),
            (2, "mul", 64, "qasm"),
            (2, "mul", 128, "rev"),
        ],
        "tiny": [
            (2, "ror", 8, "rev"),
            (2, "addnop", 3, "rev"),
            (3, "mul", 2, "rev"),
            (2, "mul", 3, "qasm"),
            (3, "mul", 4, "rev"),
        ],
    }

    def ops(self, inputs, rng):
        ops = []
        for count, block, size, fmt in self.MIX[self.profile]:
            path = inputs.workdir / f"{block}{size}.{fmt}"
            for _ in range(count):
                ops.append(
                    Op(
                        kind=f"build {block} {size} {fmt}",
                        argv=cli_build(block, size, fmt, path),
                        check=check_build(block, size, fmt, path),
                        gates=circuit_gates(block, size),
                    )
                )
        rng.shuffle(ops)
        return ops


class Verify(Workload):
    name = "verify"

    # Latency classes in rank order: mul16 random, cror12 exhaustive and the
    # damaged n=16 sweep ~35 ms (p50); mul32 random ~125 ms (p90); the
    # exhaustive mul6 sweeps ~180 ms, ror16 exhaustive ~400 ms and mul64
    # random ~600 ms.
    PROFILES = {
        "full": {
            "random": [(40, 16, 100), (36, 32, 100), (1, 64, 100)],  # (count, n, K)
            "exhaustive": [(1, "mul", 6), (1, "ror", 16), (10, "cror", 12)],
            "damaged_random": (10, 16, 100),
            "damaged_exhaustive": (1, 6),
        },
        "tiny": {
            "random": [(4, 3, 20), (2, 4, 20)],
            "exhaustive": [(2, "mul", 3), (2, "ror", 8), (2, "cror", 3)],
            "damaged_random": (2, 4, 40),
            "damaged_exhaustive": (2, 3),
        },
    }

    def setup(self, revmul, workdir, rng):
        inputs = Inputs(workdir=workdir, revmul=revmul)
        spec = self.PROFILES[self.profile]
        self.write_multipliers(inputs, (spec["damaged_random"][1], spec["damaged_exhaustive"][1]))
        for n, path in inputs.files.items():
            m = rng.randrange(n)
            try:
                text = damage_multiplier(path.read_text(), n, m)
            except (OSError, ValueError) as exc:
                inputs.errors.append(str(exc))
                continue
            inputs.damaged[n] = (revmul.io.parse_netlist(text), m)
        return inputs

    def ops(self, inputs, rng):
        spec = self.PROFILES[self.profile]
        ops = []
        for count, n, k in spec["random"]:
            for _ in range(count):
                seed = rng.randrange(1 << 31)
                ops.append(
                    Op(
                        kind=f"verify mul {n} random {k}",
                        argv=["verify", "mul", "--n", str(n), "--random", str(k),
                              "--seed", str(seed), "--json"],
                        check=check_verify_json(k, "random", seed),
                        gates=k * mul_gates(n),
                        pairs=k,
                    )
                )
        for count, block, size in spec["exhaustive"]:
            states = {"mul": 1 << (2 * size), "ror": 1 << size, "cror": 1 << (size + 1)}[block]
            for _ in range(count):
                ops.append(
                    Op(
                        kind=f"verify {block} {size} exhaustive",
                        argv=["verify", block, SIZE_FLAG[block], str(size), "--exhaustive", "--json"],
                        check=check_verify_json(states, "exhaustive", None),
                        gates=states * circuit_gates(block, size),
                        pairs=states,
                    )
                )
        count, n, k = spec["damaged_random"]
        for _ in range(count):
            ops.append(self._damaged(inputs, rng, n, "random", k))
        count, n = spec["damaged_exhaustive"]
        for _ in range(count):
            ops.append(self._damaged(inputs, rng, n, "exhaustive", 1 << (2 * n)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _damaged(inputs, rng, n, mode, checked):
        seed = rng.randrange(1 << 31)
        entry = inputs.damaged.get(n)
        circuit, m = entry if entry else (None, 0)
        sim = inputs.revmul.sim

        def call():
            if circuit is None:
                raise RuntimeError(f"no damaged n={n} multiplier (set-up failed)")
            return sim.verify_multiplier(n, mode=mode, count=checked, seed=seed, circuit=circuit)

        return Op(
            kind=f"verify damaged mul {n} {mode}",
            call=call,
            check=check_negative(checked, m),
            gates=checked * (mul_gates(n) - 1),
            pairs=checked,
        )


def damage_multiplier(text: str, n: int, m: int) -> str:
    """Remove the last gate of ADD/NOP block m from a multiplier netlist.

    Block m starts at gate m*6n (each ADD/NOP has 4n+1 gates and each rotate
    2n-1); its last gate is the closing half-add Toffoli(A[m], B[0], P[n-1]),
    alone in its stage, so the stage separator after it goes too.
    """
    lines = text.splitlines(keepends=True)
    target = m * 6 * n + 4 * n
    seen = -1
    for index, line in enumerate(lines):
        head = line.split("#", 1)[0].split()
        if not head or head[0] in ("rev", "qubits", "reg", "anc", "---"):
            continue
        seen += 1
        if seen == target:
            want = ["ccx", str(m), str(n), str(3 * n - 1)]
            if head != want:
                raise ValueError(f"gate {target} of mul{n} reads {head}, expected {want}")
            drop = {index}
            if index + 1 < len(lines) and lines[index + 1].strip() == "---":
                drop.add(index + 1)
            return "".join(line for i, line in enumerate(lines) if i not in drop)
    raise ValueError(f"mul{n} netlist has no gate {target}")


class Netlist(Workload):
    name = "netlist"

    # (count, n, trace) per pass; latency classes in rank order: n=16
    # ~15 ms (p50), n=16 traced ~30 ms, n=32 ~55 ms, n=32 traced ~130 ms
    # (p90), n=64 ~200 ms, n=128 and n=64 traced ~750 ms.
    MIX = {
        "full": [
            (60, 16, False),
            (12, 16, True),
            (8, 32, False),
            (16, 32, True),
            (2, 64, False),
            (1, 64, True),
            (1, 128, False),
        ],
        "tiny": [(3, 2, False), (3, 3, True), (3, 4, False), (1, 4, True)],
    }

    def setup(self, revmul, workdir, rng):
        inputs = Inputs(workdir=workdir, revmul=revmul)
        self.write_multipliers(inputs, sorted({n for _, n, _ in self.MIX[self.profile]}))
        return inputs

    def ops(self, inputs, rng):
        ops = []
        for count, n, trace in self.MIX[self.profile]:
            for _ in range(count):
                a, b = rng.randrange(1 << n), rng.randrange(1 << n)
                argv = ["sim", str(inputs.files[n]), "--set", f"A={a}", "--set", f"B={b}"]
                ops.append(
                    Op(
                        kind=f"sim mul {n}" + (" trace" if trace else ""),
                        argv=argv + (["--trace"] if trace else []),
                        check=check_sim(n, a, b, trace),
                        gates=mul_gates(n),
                    )
                )
        rng.shuffle(ops)
        return ops


WORKLOADS = {cls.name: cls for cls in (Synth, Verify, Netlist)}
