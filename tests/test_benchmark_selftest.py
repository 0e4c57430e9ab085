"""The benchmark harness's self-test runs against this checkout.

`perfbench/run.py --self-test` imports repwalk, runs a few CLI commands,
corrupts their outputs and checks that the harness counts each corruption
as a failed op.  It fails here, rather than in a benchmark run, when a name
perfbench/checks.py imports is renamed, when the CLI's output format drifts
from what the checks parse, or when BENCHMARK.json and run.py disagree.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_benchmark_self_test_passes():
    proc = subprocess.run([sys.executable, str(RUN), "--self-test"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines
    assert all(line.startswith("ok") for line in lines), proc.stdout
