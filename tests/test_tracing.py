"""The benchmark's tracer wraps repwalk functions by name; check it installs.

perfbench/tracing.py replaces named functions and methods of repwalk with
timing wrappers.  A repwalk name it wraps that is renamed or removed would
otherwise surface only in a traced benchmark run.  No workload runs here.
"""

import importlib.util
from pathlib import Path

import repwalk.cli as cli
from repwalk import partitions, snwalk
from repwalk.partitions import Partition

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    names = ("walk_samples", "rsk_samples", "walk_step")
    corners = ("removable_corners", "addable_corners")
    originals = [cli.main] + [getattr(snwalk, a) for a in names]
    corner_originals = [vars(Partition)[a] for a in corners]
    dimension = partitions.dimension_sn
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        wrapped = [cli.main] + [getattr(snwalk, a) for a in names]
        assert all(w is not f for w, f in zip(wrapped, originals))
        # the corner methods the sampler rows are built from are wrapped,
        # and the dimension cache is read through its cache_info()
        assert all(vars(Partition)[a] is not f for a, f in zip(corners, corner_originals))
        assert tracer.cache_fns["dimension"] is dimension
        assert len(tracer.snapshot(0)["caches"]["dimension"]) == 3
    finally:
        tracer.uninstall()
    assert [cli.main] + [getattr(snwalk, a) for a in names] == originals
    assert [vars(Partition)[a] for a in corners] == corner_originals
    assert partitions.dimension_sn is dimension and snwalk.dimension_sn is dimension


def test_float_step_metric_counts_every_step():
    # snwalk.float_step_ms is the wrapped _FloatEngine.step averaged over its
    # calls; a float walk that stepped past the wrapper would read 0
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        before = tracer.aggs["snwalk.float_step"].totals()[0]
        snwalk.walk_distribution(19, 3, mode="float")
        assert tracer.aggs["snwalk.float_step"].totals()[0] - before == 3
    finally:
        tracer.uninstall()


def test_names_the_benchmark_reads_resolve():
    # perfbench/worker.py clears the engine cache between cold builds, and
    # perfbench/checks.py recomputes the printed float bound from this constant
    assert callable(snwalk._float_engine.cache_clear)
    assert snwalk._float_engine.cache_info().maxsize == 4
    bound = 3 * partitions.partition_count(19) * snwalk.FLOAT_ENTRY_RELERR
    assert snwalk._float_error_bound(19, 3) == bound
