"""The benchmark's own smoke test, run from the suite.

benchmarks/smoke.py runs each workload's tiny profile and checks that the
benchmark rejects a damaged netlist, a wrong product and an accept-all
verifier. Its wrong-product check rebinds the module-level `revmul.sim.run`,
as the benchmark's tracer does to count calls, so this test also keeps every
verification state going through that one name.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke():
    proc = subprocess.run(
        [sys.executable, "benchmarks/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
