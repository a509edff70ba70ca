"""Per-layer tracing of revmul from outside the package.

The tracer wraps the public functions of each module at the name its caller
looks up: every module global bound to the function is rebound (so
`revmul.cli.structural_metrics`, `revmul.sim.run` and `revmul.sim.build_multiplier`
all see the wrapper), and the methods below are replaced on their class. The
layers are the modules of src/revmul.

Each wrapped call is a span (name, start, end, parent). Spans stay in memory
and are dumped when the run ends. Functions called once per gate or per input
pair are listed in HOT: they are counted and timed like the others but record
no span of their own, so that a sweep over 65,536 states stays small. Self time
is a call's span time minus the time of the wrapped calls beneath it, hot ones
included.
"""

import functools
import inspect
import time
from collections import Counter

LAYERS = ("cli", "synth", "gates", "circuit", "metrics", "io", "sim")

# class name -> methods; traced as "<layer>.<method>", Gate.__init__ as "gates.Gate"
METHODS = {
    "gates": {"Gate": ("__init__",)},
    "circuit": {"Circuit": ("append", "extend", "mark_stage", "stages")},
}

HOT = {
    "gates.Gate",
    "gates.cnot",
    "gates.toffoli",
    "gates.fredkin",
    "gates.swap",
    "circuit.append",
    "circuit.extend",
    "circuit.mark_stage",
    "sim.apply_gate",
    "sim.run",
    "sim.pack_state",
    "sim.register_value",
    "sim.oracle_multiply",
    "sim.oracle_rotate_right",
}


# Names whose results feed the work counters below; synth.build_* also count.
COUNTED = {
    "gates.Gate",
    "io.write_netlist",
    "io.export_qasm",
    "io.parse_netlist",
    "sim.run",
    "sim.verify_multiplier",
    "sim.verify_rotate",
}


def _count_result(tracer, name, args, kwargs, result):
    """Work counters taken at the layer boundaries."""
    counters = tracer.counters
    if name.startswith("synth.build_"):
        if tracer.open["synth"] == 0:
            counters["synth.gates_emitted"] += len(getattr(result, "gates", ()))
    elif name == "gates.Gate" and tracer.open["synth"]:
        counters["gates.Gate.calls_in_synth"] += 1
    elif name in ("io.write_netlist", "io.export_qasm"):
        counters["io.bytes_written"] += len(result.encode())
    elif name == "io.parse_netlist":
        text = args[0] if args else kwargs.get("text", "")
        counters["io.bytes_parsed"] += len(text.encode())
        counters["io.gates_parsed"] += len(getattr(result, "gates", ()))
    elif name == "sim.run":
        circuit = args[0] if args else kwargs["circuit"]
        counters["sim.gate_applications"] += len(circuit.gates)
        if isinstance(result, tuple):
            counters["sim.trace_snapshots"] += len(result[1])
    elif name in ("sim.verify_multiplier", "sim.verify_rotate"):
        counters["sim.pairs_checked"] += getattr(result, "checked", 0)


class Tracer:
    """Install with `with Tracer(revmul): ...`; read `stats`, `counters` and
    `spans` afterwards. `only`, if given, limits tracing to those names."""

    def __init__(self, revmul, only=None):
        self.revmul = revmul
        self.only = only
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.counters = Counter()
        self.spans = []  # [name, start, end, parent index or None]
        self.open = Counter()  # layer -> wrapped calls in progress
        self._frames = []  # child seconds of each call in progress
        self._current = None  # index of the innermost open span
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def targets(self):
        """(name, owner, attribute, function) for every traceable function."""
        for layer in LAYERS:
            module = getattr(self.revmul, layer, None)
            if module is None:
                continue
            for attr, obj in sorted(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    yield f"{layer}.{attr}", module, attr, obj
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                for attr in methods:
                    fn = vars(cls).get(attr) if cls is not None else None
                    if inspect.isfunction(fn):
                        name = f"{layer}.{cls_name}" if attr == "__init__" else f"{layer}.{attr}"
                        yield name, cls, attr, fn

    def install(self):
        modules = [self.revmul] + [
            getattr(self.revmul, m) for m in LAYERS + ("analysis",) if hasattr(self.revmul, m)
        ]
        for name, owner, attr, fn in list(self.targets()):
            if self.only is not None and name not in self.only:
                continue
            wrapper = self._wrap(name, fn)
            if inspect.isclass(owner):
                self._rebind(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        layer = name.partition(".")[0]
        hot = name in HOT
        counted = name in COUNTED or name.startswith("synth.build_")
        frames, spans, opened = self._frames, self.spans, self.open
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._current
            if not hot:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent])
                tracer._current = index
            frame = [0.0]
            frames.append(frame)
            opened[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened[layer] -= 1
                frames.pop()
                took = end - start
                if frames:
                    frames[-1][0] += took
                stat[0] += 1
                stat[1] += took
                stat[2] += took - frame[0]
                if not hot:
                    spans[index][1:3] = start, end
                    tracer._current = parent
            if counted:
                _count_result(tracer, name, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ reading

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, *names, layer=None):
        return sum(
            s[2]
            for n, s in self.stats.items()
            if n in names or (layer is not None and n.partition(".")[0] == layer)
        )

    def layer_metrics(self, passes: int, overhead_s: float) -> dict:
        """Per-layer metrics per traced pass: name -> (value, unit)."""
        c = self.counters
        per = 1.0 / passes
        emitted = c["synth.gates_emitted"]
        apps = c["sim.gate_applications"]
        parsed = c["io.gates_parsed"]
        # build_* only: the layout helpers run inside a build_* span
        synth_s = sum(self.total_s(n) for n in self.stats if n.startswith("synth.build_"))
        out = {
            "cli.main.s": (self.total_s("cli.main") * per, "s"),
            "cli.self_s": (self.self_s(layer="cli") * per, "s"),
            "synth.build.s": (synth_s * per, "s"),
            "synth.self_s": (self.self_s(layer="synth") * per, "s"),
            "synth.gates_emitted": (emitted * per, "count"),
            "gates.Gate.calls": (self.calls("gates.Gate") * per, "count"),
            "gates.Gate.s": (self.total_s("gates.Gate") * per, "s"),
            "gates.Gate.calls_per_gate_emitted": (
                c["gates.Gate.calls_in_synth"] / emitted if emitted else 0.0,
                "ratio",
            ),
        }
        for method in ("append", "mark_stage", "stages"):
            out[f"circuit.{method}.calls"] = (self.calls(f"circuit.{method}") * per, "count")
            out[f"circuit.{method}.s"] = (self.total_s(f"circuit.{method}") * per, "s")
        out.update(
            {
                "metrics.asap_depth.s": (self.total_s("metrics.asap_depth") * per, "s"),
                "metrics.staged_delay.s": (self.total_s("metrics.staged_delay") * per, "s"),
                "metrics.self_s": (self.self_s(layer="metrics") * per, "s"),
                "io.write_netlist.s": (self.total_s("io.write_netlist") * per, "s"),
                "io.export_qasm.s": (self.total_s("io.export_qasm") * per, "s"),
                "io.bytes_written": (c["io.bytes_written"] * per, "B"),
                "io.parse_netlist.s": (self.total_s("io.parse_netlist") * per, "s"),
                "io.bytes_parsed": (c["io.bytes_parsed"] * per, "B"),
                "io.parse_us_per_gate": (
                    self.total_s("io.parse_netlist") / parsed * 1e6 if parsed else 0.0,
                    "us/gate",
                ),
                "io.metrics_json.s": (self.total_s("io.metrics_json") * per, "s"),
                "sim.run.calls": (self.calls("sim.run") * per, "count"),
                "sim.run.s": (self.total_s("sim.run") * per, "s"),
                "sim.gate_applications": (apps * per, "count"),
                "sim.ns_per_gate_application": (
                    self.total_s("sim.run") / apps * 1e9 if apps else 0.0,
                    "ns/gate",
                ),
                "sim.trace_snapshots": (c["sim.trace_snapshots"] * per, "count"),
                "sim.pack_state.s": (self.total_s("sim.pack_state") * per, "s"),
                "sim.register_value.calls": (self.calls("sim.register_value") * per, "count"),
                "sim.register_value.s": (self.total_s("sim.register_value") * per, "s"),
                "sim.oracle_multiply.s": (self.total_s("sim.oracle_multiply") * per, "s"),
                "sim.verify.self_s": (
                    self.self_s("sim.verify_multiplier", "sim.verify_rotate") * per,
                    "s",
                ),
                "sim.pairs_checked": (c["sim.pairs_checked"] * per, "count"),
                "trace.overhead_s": (overhead_s, "s"),
            }
        )
        return out

    def dump(self) -> dict:
        return {
            "stats": {
                n: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                for n, s in sorted(self.stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "spans": self.spans,
        }
