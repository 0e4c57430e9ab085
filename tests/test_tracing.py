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
