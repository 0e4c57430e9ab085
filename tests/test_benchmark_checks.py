"""The benchmark's output checks pass on the workloads' rounds.

perfbench/checks.py checks each op's stdout after a benchmark run: exact
identities, L2 bounds, gl-sample's attempt count, rate and canonical
descriptors, and one pooled chi-square against the exact laws.  Run here on
round 0 of each workload at one seed, and on every planned sn-float-sweep
round at two seeds, in-process through cli.main, a change that breaks any
of them fails before a benchmark run.  The sn-rsk move cap is checked
against the same rounds.  No op is timed but one refusal's CPU time, and
no process is started; perfbench/ is loaded from its files, not changed.
"""

import contextlib
import importlib.util
import io
import math
import time
from itertools import islice
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


@pytest.mark.parametrize("seed", [3, 4])
def test_every_planned_float_sweep_round_passes_the_output_checks(seed):
    # the whole float run a benchmark checks, every planned round through
    # one RunChecker: its cross-op check compares the sn-cutoff TVs with
    # the curve rows at each size, each within its printed float bound
    planned = workloads.planned_rounds("sn-float-sweep", 20)
    ops = [op for ops in islice(workloads.rounds("sn-float-sweep", seed), planned) for op in ops]
    assert planned == 2
    checker = checks.RunChecker()
    for op in ops:
        checker.check(op, *_run(op["argv"]))
    failed = [(op["argv"], errs) for op, errs in zip(ops, checker.finish()) if errs]
    assert not failed


def test_rsk_card_moves_past_the_cap_are_refused(capsys):
    # each top-to-random shuffle moves n cards, so an sn-rsk whose n r count
    # is one past MAX_RSK_MOVES exits 3 before any stream is made, within a
    # fixed CPU budget, while the largest sn-rsk of the planned sn-montecarlo
    # rounds at two seeds still runs (the goldens' sn-rsk argvs are smaller)
    assert 1001 * 19 * 52579 == cli.MAX_RSK_MOVES + 1
    started = time.process_time()
    assert cli.main(["sn-rsk", "--n", "1001", "--r", "19", "--count", "52579"]) == 3
    assert time.process_time() - started < 0.2
    assert "capacity error: rsk card moves: requested 1000000001" in capsys.readouterr().err
    planned = workloads.planned_rounds("sn-montecarlo", 20)
    argvs = [[str(x) for x in op["argv"]] for seed in (3, 4)
             for ops in islice(workloads.rounds("sn-montecarlo", seed), planned) for op in ops
             if op["cmd"] == "sn-rsk"]
    largest = max(argvs, key=lambda a: math.prod(int(a[a.index(f) + 1])
                                                 for f in ("--n", "--r", "--count")))
    assert _run(largest)[:2] == (0, None)
