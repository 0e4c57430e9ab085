"""The benchmark's output checks pass on one round of every workload.

perfbench/checks.py checks each op's stdout after a benchmark run: exact
identities, L2 bounds, gl-sample's attempt count, rate and canonical
descriptors, and one pooled chi-square against the exact laws.  Run here on
round 0 of each workload at one seed, in-process through cli.main, a change
that breaks any of them fails before a benchmark run.  Nothing is timed and
no process is started; perfbench/ is loaded from its files, not changed.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

import repwalk.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 3


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads, checks = _load("workloads"), _load("checks")


def _run(argv):
    """(exit code, exception text, stdout) of one CLI call, as a benchmark
    worker runs it."""
    out, code, exc = io.StringIO(), None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception as e:
            exc = repr(e)
    return code, exc, out.getvalue()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_round_zero_passes_the_output_checks(workload):
    ops = next(workloads.rounds(workload, SEED))
    assert ops
    checker = checks.RunChecker()
    for op in ops:
        checker.check(op, *_run(op["argv"]))
    failed = [(op["argv"], errs) for op, errs in zip(ops, checker.finish()) if errs]
    assert not failed
