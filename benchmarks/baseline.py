"""Regenerate the ROADMAP Baseline table from traced spans.

    python3 benchmarks/baseline.py

For n = 64 and 128 this runs `revmul build mul --n N` and one
`revmul sim mulN.rev --set A=a --set B=b` through the CLI, with only the five
layer functions of the table traced, and prints the median over REPEATS runs of
the host time spent in each. Tracing nothing finer keeps per-gate wrapper
overhead out of the figures. Both commands' outputs are checked as in the
benchmark.
"""

import random
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import ROOT, environment, import_revmul, remove_workdir  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import check_build, check_sim, cli_build, run_cli  # noqa: E402

SIZES = (64, 128)
REPEATS = 5
ROWS = (
    ("`build_multiplier`", "synth.build_multiplier"),
    ("`structural_metrics`", "metrics.structural_metrics"),
    ("`write_netlist`", "io.write_netlist"),
    ("`parse_netlist`", "io.parse_netlist"),
    ("`run`, one input", "sim.run"),
)


def measure(revmul, n: int, workdir: Path, rng: random.Random) -> dict:
    """One traced build and one traced single-input simulation at width n."""
    path = workdir / f"mul{n}.rev"
    a, b = rng.randrange(1 << n), rng.randrange(1 << n)
    tracer = Tracer(revmul, only={name for _, name in ROWS})
    with tracer:
        built = run_cli(revmul, cli_build("mul", n, "rev", path))
        simulated = run_cli(revmul, ["sim", str(path), "--set", f"A={a}", "--set", f"B={b}"])
    for what, error in (
        ("build", check_build("mul", n, "rev", path)(built)),
        ("sim", check_sim(n, a, b, False)(simulated)),
    ):
        if error:
            raise RuntimeError(f"{what} mul{n}: {error}")
    return {name: tracer.total_s(name) for _, name in ROWS}


def main() -> int:
    revmul = import_revmul()
    rng = random.Random(0)
    workdir = ROOT / ".bench_work" / "baseline"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runs = {n: [measure(revmul, n, workdir, rng) for _ in range(REPEATS)] for n in SIZES}
    finally:
        remove_workdir(workdir)

    env = environment(repeats=REPEATS)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"median of {REPEATS} traced runs, raw host time\n")
    print("| layer | " + " | ".join(f"n={n}" for n in SIZES) + " |")
    print("|---" * (len(SIZES) + 1) + "|")
    for label, name in ROWS:
        cells = [f"{statistics.median(r[name] for r in runs[n]) * 1e3:.3g} ms" for n in SIZES]
        print(f"| {label} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
