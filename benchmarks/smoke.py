"""Smoke test of the benchmark itself, at tiny sizes.

    python3 benchmarks/smoke.py

Runs one pass of each workload's tiny profile on the tree as it is and
requires no failure, then checks that the benchmark notices when the program
is wrong: a damaged netlist, a simulator that returns a wrong product, and a
verifier that accepts every circuit must each make commands fail. Also runs
the traced pass and checks that it reports every per-layer metric that
BENCHMARK.json lists. Exits 0 when all of that holds, 1 otherwise.
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import ROOT, end_to_end, measure_traced, remove_workdir, run_pass, setup  # noqa: E402
from workloads import WORKLOADS, Op, check_sim, damage_multiplier, mul_gates  # noqa: E402

SEED = 7


def tiny_pass(name: str, tamper=None, extra_ops=()):
    """Set up the tiny profile of a workload, let `tamper` break something,
    run one pass plus `extra_ops` and return (failed, attempted, samples)."""
    workload = WORKLOADS[name]("tiny")
    workdir = ROOT / ".bench_work" / f"smoke-{name}"
    try:
        inputs, _, _ = setup(workload, SEED, workdir, 1)
        if tamper:
            tamper(inputs)
        setup_errors = workload.check_setup(inputs)
        ops = workload.ops(inputs, random.Random(SEED)) + [op(inputs) for op in extra_ops]
        samples = run_pass(ops, inputs.revmul)
    finally:
        remove_workdir(workdir)
    failed = bool(setup_errors) + sum(1 for s in samples if s.error)
    return failed, len(samples) + 1, samples


def damage_netlist(inputs):
    path = inputs.files[3]
    path.write_text(damage_multiplier(path.read_text(), 3, 2))


def exposing_sim(inputs):
    """A sim command the damaged mul3 netlist must get wrong: the removed
    gate acts whenever A[2] = B[0] = 1."""
    return Op(
        kind="sim damaged mul 3",
        argv=["sim", str(inputs.files[3]), "--set", "A=7", "--set", "B=5"],
        check=check_sim(3, 7, 5, False),
        gates=mul_gates(3),
    )


def wrong_product(inputs):
    sim = inputs.revmul.sim
    original = sim.run

    def run(circuit, state, trace=False):
        out = original(circuit, state, trace)
        final = out[0] if trace else out
        if "P" in circuit.layout:
            final[circuit.layout["P"].start] ^= 1
        return out

    sim.run = run


def accept_everything(inputs):
    sim = inputs.revmul.sim

    def verify_multiplier(n, mode="exhaustive", count=1000, seed=0, circuit=None):
        checked = count if mode == "random" else 1 << (2 * n)
        echoed = seed if mode == "random" else None
        return sim.VerifyReport(ok=True, checked=checked, mode=mode, seed=echoed, garbage_outputs=0)

    sim.verify_multiplier = verify_multiplier


def traced_metric_names(name: str) -> set:
    workload = WORKLOADS[name]("tiny")
    workdir = ROOT / ".bench_work" / f"smoke-trace-{name}"
    try:
        inputs, _, _ = setup(workload, SEED, workdir, 1)
        tracer, samples, passes, overhead = measure_traced(workload, inputs, random.Random(SEED), 0)
    finally:
        remove_workdir(workdir)
    metrics = tracer.layer_metrics(passes, overhead)
    if name == "synth" and metrics["gates.Gate.calls_per_gate_emitted"][0] != 1.0:
        raise AssertionError("synth: Gate calls per gate emitted is not 1")
    if any(s.error for s in samples):
        raise AssertionError(f"{name}: traced pass failed")
    return set(metrics)


def main() -> int:
    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {key: {m["name"] for m in bench[key]} for key in ("end_to_end", "per_layer")}

    def expect(condition: bool, message: str):
        print(("ok   " if condition else "FAIL ") + message)
        if not condition:
            problems.append(message)

    for name in WORKLOADS:
        failed, attempted, samples = tiny_pass(name)
        expect(failed == 0, f"{name}: correct tree, fail_ratio {failed}/{attempted} is 0")
        names = set(end_to_end(samples, samples))
        expect(names == listed["end_to_end"], f"{name}: reports the end-to-end metrics listed")

    failed, attempted, _ = tiny_pass("netlist", damage_netlist, [exposing_sim])
    # the pinned-sha256 set-up check and the exposing command both fail
    expect(failed >= 2, f"netlist: damaged mul3.rev, fail_ratio {failed}/{attempted} > 0")

    for name in ("netlist", "verify"):
        failed, attempted, _ = tiny_pass(name, wrong_product)
        expect(failed > 0, f"{name}: wrong product, fail_ratio {failed}/{attempted} > 0")

    negatives = sum(
        count for count, *_ in (
            WORKLOADS["verify"].PROFILES["tiny"]["damaged_random"],
            WORKLOADS["verify"].PROFILES["tiny"]["damaged_exhaustive"],
        )
    )
    failed, attempted, _ = tiny_pass("verify", accept_everything)
    expect(
        failed == negatives,
        f"verify: verifier accepts everything, the {negatives} damaged-circuit ops "
        f"fail ({failed}/{attempted})",
    )

    for name in WORKLOADS:
        missing = sorted(listed["per_layer"] - traced_metric_names(name))
        expect(not missing, f"{name}: traced pass reports the per-layer metrics listed {missing or ''}")

    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
