"""The benchmark's tracer wraps repwalk functions by name; check it installs.

perfbench/tracing.py replaces named functions and methods of repwalk with
timing wrappers.  A repwalk name it wraps that is renamed or removed would
otherwise surface only in a traced benchmark run.  No workload runs here.
"""

import importlib.util
from pathlib import Path

import repwalk.cli as cli
from repwalk import snwalk

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    names = ("walk_samples", "rsk_samples", "walk_step")
    originals = [cli.main] + [getattr(snwalk, a) for a in names]
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        wrapped = [cli.main] + [getattr(snwalk, a) for a in names]
        assert all(w is not f for w, f in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert [cli.main] + [getattr(snwalk, a) for a in names] == originals
