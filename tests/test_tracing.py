"""The benchmark's tracer wraps repwalk functions by name; check it installs.

perfbench/tracing.py replaces named functions and methods of repwalk with
timing wrappers.  A repwalk name it wraps that is renamed or removed would
otherwise surface only in a traced benchmark run.  No workload runs here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import repwalk.cli as cli
from repwalk import partitions, snwalk
from repwalk.partitions import Partition

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
CHECKS = PERFBENCH / "checks.py"


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
        # the corner methods walk_step draws from are wrapped,
        # and the dimension cache is read through its cache_info()
        assert all(vars(Partition)[a] is not f for a, f in zip(corners, corner_originals))
        assert tracer.cache_fns["dimension"] is dimension
        assert len(tracer.snapshot(0)["caches"]["dimension"]) == 3
    finally:
        tracer.uninstall()
    assert [cli.main] + [getattr(snwalk, a) for a in names] == originals
    assert [vars(Partition)[a] for a in corners] == corner_originals
    assert partitions.dimension_sn is dimension and snwalk.dimension_sn is dimension


def test_float_step_metric_counts_every_step(capsys):
    # snwalk.float_step_ms is the wrapped _FloatEngine.step averaged over its
    # calls; a float walk that stepped past the wrapper would read 0.  Only
    # sn-tv-curve --float steps (the one-r laws take no step), so it drives
    # one curve, which steps its whole rmax
    snwalk._float_engine.cache_clear()
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        before = tracer.aggs["snwalk.float_step"].totals()[0]
        assert cli.main(["sn-tv-curve", "--n", "19", "--rmax", "3", "--float"]) == 0
        assert tracer.aggs["snwalk.float_step"].totals()[0] - before == 3
    finally:
        tracer.uninstall()
        snwalk._float_engine.cache_clear()
    assert "r,tv,l2_bound" in capsys.readouterr().out


def test_names_the_benchmark_reads_resolve():
    # perfbench/worker.py clears the engine cache between cold builds, and
    # perfbench/checks.py recomputes the printed float bound from this constant
    assert callable(snwalk._float_engine.cache_clear)
    assert snwalk._float_engine.cache_info().maxsize == snwalk.FLOAT_LIMIT - 1
    bound = 3 * partitions.partition_count(19) * snwalk.FLOAT_ENTRY_RELERR
    assert snwalk._float_error_bound(19, 3) == bound


def test_names_the_benchmark_checks_import_resolve():
    # perfbench/checks.py imports repwalk names inside its check functions,
    # so a renamed one would fail only inside a benchmark run
    tree = ast.parse(CHECKS.read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "repwalk"
               for alias in node.names]
    assert len(imports) >= 10
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def _traced_words(monkeypatch, module, argv, while_installed=lambda: None):
    """Run the CLI on argv under the tracer, module's SplitMix64 recording
    every stream it makes.  Returns the tracer, its rng.next_u64 count over
    the run, the number of streams and the words they advanced."""
    from repwalk import rng

    streams = []

    class Recorded(rng.SplitMix64):
        __slots__ = ()

        def __init__(self, seed):
            super().__init__(seed)
            streams.append((self, self._state))

    monkeypatch.setattr(module, "SplitMix64", Recorded)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        while_installed()
        words = tracer.aggs["rng.next_u64"].totals()[0]
        assert cli.main(argv) == 0
        words = tracer.aggs["rng.next_u64"].totals()[0] - words
    finally:
        tracer.uninstall()
    # every word adds the golden gamma to the state
    inverse = pow(rng._GOLDEN, -1, 1 << 64)
    advanced = sum((s._state - start) * inverse % (1 << 64) for s, start in streams)
    return tracer, words, len(streams), advanced


def test_traced_gl_sample_counts_every_word(capsys, monkeypatch):
    # rng.u64_per_op and glasymptotics.attempts_per_sample read the wrapped
    # SplitMix64.next_u64 and GLPlancherelSampler.sample: a sampler that drew
    # words past the method, or a sampler class the tracer no longer wraps,
    # would skew them without failing a traced run
    from repwalk import glasymptotics

    sampler_cls = glasymptotics.GLPlancherelSampler
    originals = (vars(sampler_cls)["__init__"], vars(sampler_cls)["sample"])

    def wrapped():
        assert (vars(sampler_cls)["__init__"], vars(sampler_cls)["sample"]) != originals

    tracer, words, streams, advanced = _traced_words(
        monkeypatch, glasymptotics,
        ["gl-sample", "--n", "9", "--q", "3", "--count", "12", "--seed", "4", "--threads", "2"],
        wrapped)
    assert (vars(sampler_cls)["__init__"], vars(sampler_cls)["sample"]) == originals
    samples, _, attempts = tracer.aggs["glasymptotics.attempts"].totals()
    names = [span[1] for span in tracer.spans]
    assert streams == 2 and words == advanced > 0
    assert samples == 12 and f"# attempts: {attempts}\n" in capsys.readouterr().out
    assert names.count("glasymptotics.sampler_init") == 2
    assert names.count("glasymptotics.first_sample") == 2
    assert names.count("glasymptotics.warm_sample") == 10


@pytest.mark.parametrize("command, words_per_step", [("sn-sample", 2), ("sn-rsk", 1)])
def test_traced_sn_samplers_draw_words_past_next_u64(capsys, monkeypatch, command,
                                                     words_per_step):
    # the S_n samplers read their words from lists that SplitMix64.words
    # makes, so the wrapped next_u64 that rng.u64_per_op counts sees none of
    # them: on sn-montecarlo the metric reads 0 while the streams advance by
    # every word drawn, until it is read from the streams' positions
    _, words, streams, advanced = _traced_words(
        monkeypatch, snwalk,
        [command, "--n", "12", "--r", "20", "--count", "9", "--seed", "6", "--threads", "2"])
    # a step draws at least one word per randrange: two for a walk step,
    # one for a shuffle
    assert streams == 2 and words == 0 and advanced >= words_per_step * 9 * 20
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert rows[0] == "index,partition" and len(rows) == 1 + 9
