"""End-to-end benchmark of the revmul CLI, with an optional traced run.

    python3 benchmarks/run.py --workload {synth,verify,netlist} --seed N \
        --seconds S --trace {0,1}

Each workload is a fixed multiset of real `revmul` commands (see
workloads.py), run in-process through `revmul.cli.main(argv)` in a closed
loop with one client: the next command starts when the previous one returns.
Commands run in whole passes over the multiset until `--seconds` is used up,
rounded to the nearest whole pass (at least one). Every command's output is
checked against answers the benchmark computes itself. All times are host
wall-clock times; simulated quantities (cost, delay, depth) are checked, never
timed.

The speed of a shared host drifts: a fixed pure-Python loop timed in 20 s
windows on a 2-vCPU VM varied with an interquartile range of 20% of its
median, and by up to 2x between single commands, so raw times of two runs of
the same code differ by that much. Each command and each set-up is therefore
bracketed by a short fixed probe workload that touches no revmul code, and the
reported times are host seconds rescaled to the host speed at which the probe
takes REFERENCE_PROBE_S: time * REFERENCE_PROBE_S / probe time. The raw times
are printed and recorded beside them.

With `--trace 0` the last line of standard output is a JSON object holding the
end-to-end metrics; with `--trace 1`, the per-layer metrics of tracer.py.
Lines before it give every metric with its unit and sample count, the
environment, and any failed command. The full results, with the traced spans,
are written to .bench_out/ at the root of the checkout.

revmul is imported from src/ of the checkout this file sits in; if it is
missing the benchmark exits with code 2 and prints no result.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, run_cli  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MAX_FAILURES_SHOWN = 10
REFERENCE_PROBE_S = 1e-3


def probe_s() -> float:
    """Time of a fixed pure-Python workload that runs no revmul code (about
    1 ms on a 2.1 GHz Xeon vCPU), taken from a collected heap."""
    gc.collect()
    start = time.perf_counter()
    table = {}
    for i in range(3000):
        table[i] = (i, i ^ 5, str(i))
    sum(a ^ b for a, b, _ in table.values())
    [x for x in range(3000) if x & 1]
    return time.perf_counter() - start


@dataclass
class Sample:
    kind: str
    seconds: float  # raw wall-clock time
    gates: int
    pairs: int
    error: str | None
    probe: float = REFERENCE_PROBE_S  # mean probe time just before and after

    @property
    def adjusted(self) -> float:
        """Seconds at the reference host speed."""
        return self.seconds * REFERENCE_PROBE_S / self.probe


def import_revmul():
    """Import revmul afresh from this checkout's src/."""
    src = (ROOT / "src").resolve()
    for name in [m for m in sys.modules if m == "revmul" or m.startswith("revmul.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    revmul = importlib.import_module("revmul")
    importlib.import_module("revmul.cli")
    origin = Path(revmul.__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"revmul was imported from {origin}, not from {src}")
    return revmul


def setup(workload, seed: int, workdir: Path, repeats: int):
    """Import revmul and generate the workload's inputs `repeats` times.

    Returns the last inputs, a Sample timing each set-up, and what was wrong
    with the inputs."""
    timings = []
    for _ in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        before = probe_s()
        start = time.perf_counter()
        revmul = import_revmul()
        inputs = workload.setup(revmul, workdir, random.Random(f"{seed}:setup"))
        seconds = time.perf_counter() - start
        timings.append(Sample("set-up", seconds, 0, 0, None, (before + probe_s()) / 2))
    return inputs, timings, workload.check_setup(inputs)


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()  # only once no other run is using it
    except OSError:
        pass


def run_op(op, revmul) -> Sample:
    gc.collect()  # each command starts from a collected heap, as in a fresh process
    error = None
    start = time.perf_counter()
    try:
        if op.call is not None:
            outcome = Outcome(value=op.call())
        else:
            outcome = run_cli(revmul, op.argv)
    except Exception as exc:  # a traceback is a failed command, not a crashed benchmark
        seconds = time.perf_counter() - start
        error = f"raised {type(exc).__name__}: {exc}"
    else:
        seconds = time.perf_counter() - start
        error = op.check(outcome)
    return Sample(op.kind, seconds, op.gates, op.pairs, error)


def run_pass(ops, revmul) -> list[Sample]:
    samples = []
    before = probe_s()
    for op in ops:
        sample = run_op(op, revmul)
        after = probe_s()
        sample.probe = (before + after) / 2
        samples.append(sample)
        before = after
    return samples


def measure(workload, inputs, rng, seconds: float) -> tuple[list[Sample], int]:
    """Whole passes over the workload until `seconds` is used up, to the
    nearest pass."""
    samples, passes = [], 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        samples += run_pass(workload.ops(inputs, rng), inputs.revmul)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 >= seconds:
            return samples, passes


def measure_traced(workload, inputs, rng, seconds: float):
    """Alternate an untraced and a traced pass over the same op list until
    `seconds` is used up. Returns the tracer, the samples, the number of
    traced passes and the mean extra time of a traced pass."""
    tracer = Tracer(inputs.revmul)
    samples, passes, overhead = [], 0, 0.0
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        ops = workload.ops(inputs, rng)
        plain = run_pass(ops, inputs.revmul)
        with tracer:
            traced = run_pass(ops, inputs.revmul)
        samples += plain + traced
        passes += 1
        overhead += sum(s.adjusted for s in traced) - sum(s.adjusted for s in plain)
        now = time.perf_counter()
        if now - start + (now - pair_start) / 2 >= seconds:
            return tracer, samples, passes, overhead / passes


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def end_to_end(samples, setups, adjusted: bool = True) -> dict:
    """The metrics BENCHMARK.json lists: name -> (value, unit, sample count).
    Times are at the reference host speed unless `adjusted` is false."""
    latencies = [s.adjusted if adjusted else s.seconds for s in samples]
    setup_s = [s.adjusted if adjusted else s.seconds for s in setups]
    n = len(samples)
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setups)),
        "op_s.p50": (percentile(latencies, 0.50), "s", n),
        "op_s.p90": (percentile(latencies, 0.90), "s", n),
        "gates_per_s": (sum(s.gates for s in samples) / sum(latencies), "1/s", n),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1),
    }


def by_kind(samples) -> dict:
    """Command count and median latency for each kind of command."""
    kinds = {}
    for s in samples:
        kinds.setdefault(s.kind, []).append(s.seconds)
    return {
        kind: {"count": len(times), "median_s": statistics.median(times)}
        for kind, times in sorted(kinds.items(), key=lambda item: statistics.median(item[1]))
    }


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(**run) -> dict:
    """What the results were measured on, followed by the run's settings."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        **run,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    env = environment(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace
    )
    try:
        inputs, setups, setup_errors = setup(
            workload, args.seed, workdir, 1 if args.trace else SETUP_REPEATS
        )
    except ImportError as exc:
        print(f"error: cannot import revmul from {ROOT / 'src'}: {exc}", file=sys.stderr)
        remove_workdir(workdir)
        return 2
    try:
        rng = random.Random(args.seed)
        if args.trace:
            tracer, samples, passes, overhead = measure_traced(workload, inputs, rng, args.seconds)
            metrics = {
                name: (value, unit, passes)
                for name, (value, unit) in tracer.layer_metrics(passes, overhead).items()
            }
        else:
            tracer = None
            samples, passes = measure(workload, inputs, rng, args.seconds)
            metrics = end_to_end(samples, setups)
    finally:
        remove_workdir(workdir)

    failures = [f"set-up: {e}" for e in setup_errors]
    failures += [f"{s.kind}: {s.error}" for s in samples if s.error]
    attempted = len(samples) + 1  # the set-up counts as one operation
    failed = len(failures)

    # Printed and recorded beside the metrics, but not part of the result line:
    # the fail ratio is 0 on a correct tree, and pairs/s exists only for verify.
    shown, raw = dict(metrics), {}
    if not args.trace:
        unadjusted = end_to_end(samples, setups, adjusted=False)
        raw = {k: v for k, v in unadjusted.items() if k != "peak_rss_mib"}
        if args.workload == "verify":
            busy = sum(s.adjusted for s in samples)
            shown["pairs_per_s"] = (sum(s.pairs for s in samples) / busy, "1/s", len(samples))
    shown["fail_ratio"] = (failed / attempted, "ratio", attempted)

    commands = len(samples) // (2 * passes if args.trace else passes)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{args.workload}: passes={passes} commands_per_pass={commands} traced={args.trace}")
    for name, (value, unit, count) in shown.items():
        wall = f"  raw {raw[name][0]:.6g}" if name in raw else ""
        print(f"  {name:<36} {value:>14.6g} {unit:<8} (n={count}){wall}")
    for kind, row in by_kind(samples).items():
        print(f"  command {kind:<36} n={row['count']:<5} raw median {row['median_s']:.6g} s")
    for line in failures[:MAX_FAILURES_SHOWN]:
        print(f"FAILED {line}")

    record = {
        "env": env,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in shown.items()},
        "raw_metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in raw.items()},
        "setup_s": [s.seconds for s in setups],
        "setup_probe_s": [s.probe for s in setups],
        "by_kind": by_kind(samples),
        "trace": tracer.dump() if tracer else None,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
