"""Tracing for the traced benchmark run, from outside the program.

The tracer replaces public functions and methods of repwalk with wrappers,
in every repwalk module that holds the name (so the names repwalk.cli
imported are wrapped too), and restores them on uninstall().  Layer
boundaries become spans (name, start, end, parent, op id), kept in memory
and written out at the end.  Hot per-step calls (corner lists, exact and
float steps, walk steps, RNG words, interval powers) are only counted and
timed in aggregate, per thread, so the wrappers stay cheap.  Existing
counters are read as they are: the cache_info() of the lru caches and
GLPlancherelSampler.attempts.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import weakref
from time import perf_counter


class _Agg:
    """Per-thread call count, seconds and items, summed on read."""

    def __init__(self):
        self._local = threading.local()
        self._cells: list[list] = []
        self._lock = threading.Lock()

    def cell(self) -> list:
        c = getattr(self._local, "cell", None)
        if c is None:
            c = self._local.cell = [0, 0.0, 0]
            with self._lock:
                self._cells.append(c)
        return c

    def totals(self) -> tuple[int, float, int]:
        with self._lock:
            cells = list(self._cells)
        return (sum(c[0] for c in cells), sum(c[1] for c in cells), sum(c[2] for c in cells))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.aggs: dict[str, _Agg] = {}
        self.op = None  # id of the op being run
        self.op_root = None  # span id of its cli.main span
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._sampled = weakref.WeakSet()  # samplers that have drawn once
        self.cache_fns: dict[str, object] = {}

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        s = getattr(self._local, "stack", None)
        if s is None:
            s = self._local.stack = []
        return s

    def span(self, name: str, fn, classify=None):
        """Wrap fn so every call records a span; classify(args) may rename it."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.op_root
            sid = next(tracer._ids)
            if name == "cli.main":
                # spans opened by pool threads attach to the op's root span
                parent, tracer.op_root = None, sid
            label = classify(args) if classify else name
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, label, t0, t1, parent, tracer.op))

        return wrapper

    def agg(self, name: str, fn, items=None):
        """Wrap fn so calls are counted and timed in aggregate."""
        acc = self.aggs.setdefault(name, _Agg())

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            c = acc.cell()
            c[0] += 1
            c[1] += perf_counter() - t0
            if items is not None:
                c[2] += items(out)
            return out

        return wrapper

    def count(self, name: str, fn):
        """Wrap fn so calls are only counted, per thread, without timing."""
        acc = self.aggs.setdefault(name, _Agg())

        def wrapper(*args, **kwargs):
            acc.cell()[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ---------------------------------------------------------

    def _replace(self, owner, attr, wrap):
        original = getattr(owner, attr)
        wrapped = wrap(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        # a module-level function: swap it in every repwalk module holding it
        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "repwalk"]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self):
        import repwalk.cli as cli
        from repwalk import characters, glasymptotics, hsp, intervals, partitions, rng, snwalk

        self.cache_fns = {
            "dimension": partitions.dimension_sn,
            "enumerate": partitions.enumerate_partitions,
            "mn": characters._mn,
            "float_engine": snwalk._float_engine,
        }
        tracer = self

        self._replace(cli, "main", lambda f: self.span("cli.main", f))

        def enumerate_wrap(f):
            acc = self.aggs.setdefault("partitions.enumerate_cold", _Agg())

            def wrapper(n):
                misses = f.cache_info().misses
                t0 = perf_counter()
                out = f(n)
                if f.cache_info().misses != misses:
                    c = acc.cell()
                    c[0] += 1
                    c[1] += perf_counter() - t0
                return out
            return wrapper

        self._replace(partitions, "enumerate_partitions", enumerate_wrap)
        for attr in ("removable_corners", "addable_corners"):
            self._replace(partitions.Partition, attr, lambda f: self.agg("partitions.corners", f))

        def table_wrap(f):
            def classify(args):
                return "characters.table" if args[0] in characters._table_cache else "characters.table_cold"
            return self.span("characters.table", f, classify)

        self._replace(characters, "character_table", table_wrap)

        for attr in ("kernel_downup", "tv_to_plancherel", "walk_distribution", "sn_tv_curve",
                     "walk_samples", "moment_fc", "moment_fc_reduced", "_float_engine"):
            self._replace(snwalk, attr, lambda f, a=attr: self.span(f"snwalk.{a}", f))
        self._replace(snwalk.SparseKernel, "apply_dist", lambda f: self.agg("snwalk.exact_step", f))
        self._replace(snwalk._FloatEngine, "step", lambda f: self.agg("snwalk.float_step", f))
        self._replace(snwalk, "walk_step", lambda f: self.agg("snwalk.walk_step", f))
        self._replace(snwalk, "rsk_samples",
                      lambda f: self.span("snwalk.rsk_samples", self.agg("snwalk.rsk", f, len)))
        self._replace(rng.SplitMix64, "next_u64", lambda f: self.count("rng.next_u64", f))
        self._replace(intervals.Interval, "pow_int", lambda f: self.count("intervals.pow_int", f))

        gl = glasymptotics.GLPlancherelSampler
        self._replace(gl, "__init__", lambda f: self.span("glasymptotics.sampler_init", f))

        def sample_wrap(f):
            acc = self.aggs.setdefault("glasymptotics.attempts", _Agg())

            def classify(args):
                sampler = args[0]
                if sampler in tracer._sampled:
                    return "glasymptotics.warm_sample"
                tracer._sampled.add(sampler)
                return "glasymptotics.first_sample"

            traced = self.span("glasymptotics.sample", f, classify)

            def wrapper(sampler):
                before = sampler.attempts
                out = traced(sampler)
                c = acc.cell()
                c[0] += 1
                c[2] += sampler.attempts - before
                return out
            return wrapper

        self._replace(gl, "sample", sample_wrap)
        self._replace(glasymptotics, "suq_normalizer",
                      lambda f: self.agg("glasymptotics.normalizer", f))
        self._replace(glasymptotics, "acceptance_probability",
                      lambda f: self.span("glasymptotics.acceptance_probability", f))
        for attr in ("subgroup_closure", "hsp_bounds", "weak_sampling_distribution"):
            self._replace(hsp, attr, lambda f, a=attr: self.span(f"hsp.{a}", f))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- windows ------------------------------------------------------------

    def snapshot(self, ops: int) -> dict:
        """Counters at this instant; two snapshots bound a window."""
        return {
            "ops": ops,
            "spans": len(self.spans),
            "aggs": {k: a.totals() for k, a in self.aggs.items()},
            "caches": {k: (i.hits, i.misses, i.currsize)
                       for k, i in ((k, f.cache_info()) for k, f in self.cache_fns.items())},
        }

    def window(self, start: dict, end: dict) -> "Window":
        return Window(self.spans[start["spans"]:end["spans"]], start, end)

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")


class Window:
    """Spans and counter deltas between two snapshots."""

    def __init__(self, spans, start, end):
        self.spans = spans
        self.ops = end["ops"] - start["ops"]
        self.end = end
        self.agg = {k: tuple(v - w for v, w in zip(end["aggs"][k], start["aggs"].get(k, (0, 0.0, 0))))
                    for k in end["aggs"]}
        self.cache = {k: tuple(v - w for v, w in zip(end["caches"][k], start["caches"][k]))
                      for k in end["caches"]}
        self.by_name: dict[str, list[float]] = {}
        for _, name, t0, t1, _, _ in spans:
            self.by_name.setdefault(name, []).append(t1 - t0)

    def calls(self, name) -> int:
        return len(self.by_name.get(name, ()))

    def mean_ms(self, name) -> float:
        d = self.by_name.get(name, ())
        return 1000 * sum(d) / len(d) if d else 0.0

    def cli_self_ms(self) -> float:
        """Sum over ops of the cli.main span minus the union of its children."""
        children: dict[int, list] = {}
        for _, _, t0, t1, parent, _ in self.spans:
            children.setdefault(parent, []).append((t0, t1))
        total = 0.0
        for sid, name, t0, t1, _, _ in self.spans:
            if name != "cli.main":
                continue
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0 = max(c0, reach)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            total += (t1 - t0) - covered
        return 1000 * total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _hit_ratio(cache) -> float:
    hits, misses = cache[0], cache[1]
    return _ratio(hits, hits + misses)


# metric name -> (value from a window, evidence count that the window used the
# layer, probe to run when the workload's own ops did not)
LAYER_METRICS = {
    "partitions.enumerate_ms": (
        lambda w: 1000 * w.agg["partitions.enumerate_cold"][1],
        lambda w: w.agg["partitions.enumerate_cold"][0], "sn-exact"),
    "partitions.corner_calls_per_op": (
        lambda w: _ratio(w.agg["partitions.corners"][0], w.ops),
        lambda w: w.agg["partitions.corners"][0], "sn-exact"),
    "partitions.corner_ms_per_op": (
        lambda w: _ratio(1000 * w.agg["partitions.corners"][1], w.ops),
        lambda w: w.agg["partitions.corners"][0], "sn-exact"),
    "partitions.dimension_hit_ratio": (
        lambda w: _hit_ratio(w.cache["dimension"]),
        lambda w: w.cache["dimension"][0] + w.cache["dimension"][1], "sampler"),
    "characters.table_ms": (
        lambda w: 1000 * sum(w.by_name.get("characters.table_cold", ())),
        lambda w: w.calls("characters.table_cold"), "hsp"),
    "characters.mn_cache_entries": (
        lambda w: w.end["caches"]["mn"][2],
        lambda w: w.calls("characters.table_cold") + w.calls("characters.table"), "hsp"),
    "snwalk.kernel_build_ms": (
        lambda w: w.mean_ms("snwalk.kernel_downup"),
        lambda w: w.calls("snwalk.kernel_downup"), "sn-exact"),
    "snwalk.kernel_builds_per_op": (
        lambda w: _ratio(w.calls("snwalk.kernel_downup"), w.ops),
        lambda w: w.calls("snwalk.kernel_downup"), "sn-exact"),
    "snwalk.exact_step_ms": (
        lambda w: _ratio(1000 * w.agg["snwalk.exact_step"][1], w.agg["snwalk.exact_step"][0]),
        lambda w: w.agg["snwalk.exact_step"][0], "sn-exact"),
    "snwalk.tv_ms": (
        lambda w: w.mean_ms("snwalk.tv_to_plancherel"),
        lambda w: w.calls("snwalk.tv_to_plancherel"), "sn-exact"),
    "snwalk.float_step_ms": (
        lambda w: _ratio(1000 * w.agg["snwalk.float_step"][1], w.agg["snwalk.float_step"][0]),
        lambda w: w.agg["snwalk.float_step"][0], "float"),
    "snwalk.float_engine_miss_ratio": (
        lambda w: 1 - _hit_ratio(w.cache["float_engine"]),
        lambda w: w.cache["float_engine"][0] + w.cache["float_engine"][1], "float"),
    "snwalk.walk_step_us": (
        lambda w: _ratio(1e6 * w.agg["snwalk.walk_step"][1], w.agg["snwalk.walk_step"][0]),
        lambda w: w.agg["snwalk.walk_step"][0], "sampler"),
    "snwalk.rsk_sample_us": (
        lambda w: _ratio(1e6 * w.agg["snwalk.rsk"][1], w.agg["snwalk.rsk"][2]),
        lambda w: w.agg["snwalk.rsk"][2], "sampler"),
    "rng.u64_per_op": (
        lambda w: _ratio(w.agg["rng.next_u64"][0], w.ops),
        lambda w: w.agg["rng.next_u64"][0], "sampler"),
    "glasymptotics.sampler_init_ms": (
        lambda w: w.mean_ms("glasymptotics.sampler_init"),
        lambda w: w.calls("glasymptotics.sampler_init"), "gl"),
    "glasymptotics.first_sample_ms": (
        lambda w: w.mean_ms("glasymptotics.first_sample"),
        lambda w: w.calls("glasymptotics.first_sample"), "gl"),
    "glasymptotics.warm_sample_ms": (
        lambda w: w.mean_ms("glasymptotics.warm_sample"),
        lambda w: w.calls("glasymptotics.warm_sample"), "gl"),
    "glasymptotics.normalizer_ms": (
        lambda w: _ratio(1000 * w.agg["glasymptotics.normalizer"][1],
                         w.agg["glasymptotics.normalizer"][0]),
        lambda w: w.agg["glasymptotics.normalizer"][0], "gl"),
    "glasymptotics.normalizer_calls_per_op": (
        lambda w: _ratio(w.agg["glasymptotics.normalizer"][0], w.ops),
        lambda w: w.agg["glasymptotics.normalizer"][0], "gl"),
    "glasymptotics.acceptance_probability_ms": (
        lambda w: w.mean_ms("glasymptotics.acceptance_probability"),
        lambda w: w.calls("glasymptotics.acceptance_probability"), "gl"),
    "glasymptotics.attempts_per_sample": (
        lambda w: _ratio(w.agg["glasymptotics.attempts"][2], w.agg["glasymptotics.attempts"][0]),
        lambda w: w.agg["glasymptotics.attempts"][0], "gl"),
    "glasymptotics.acceptance_ratio": (
        lambda w: _ratio(w.agg["glasymptotics.attempts"][0], w.agg["glasymptotics.attempts"][2]),
        lambda w: w.agg["glasymptotics.attempts"][0], "gl"),
    "intervals.pow_int_calls_per_op": (
        lambda w: _ratio(w.agg["intervals.pow_int"][0], w.ops),
        lambda w: w.agg["intervals.pow_int"][0], "gl"),
    "hsp.closure_ms": (
        lambda w: w.mean_ms("hsp.subgroup_closure"),
        lambda w: w.calls("hsp.subgroup_closure"), "hsp"),
    "hsp.bounds_ms": (
        lambda w: w.mean_ms("hsp.hsp_bounds"),
        lambda w: w.calls("hsp.hsp_bounds"), "hsp"),
    "cli.self_ms_per_op": (
        lambda w: _ratio(w.cli_self_ms(), w.ops),
        lambda w: w.calls("cli.main"), None),
}

# Small fixed CLI ops that reach a layer a workload does not use, so every
# traced run reports every layer metric.  Run traced, after the workload.
PROBES = {
    "sn-exact": [["sn-tv-curve", "--n", "9", "--rmax", "12", "--exact"],
                 ["sn-walk", "--n", "9", "--r", "12", "--exact"]],
    "float": [["sn-tv-curve", "--n", "19", "--rmax", "30", "--float"]],
    "sampler": [["sn-sample", "--n", "12", "--r", "15", "--count", "40", "--seed", "1"],
                ["sn-rsk", "--n", "12", "--r", "15", "--count", "40", "--seed", "1"]],
    "gl": [["gl-sample", "--n", "3", "--q", "2", "--count", "20", "--seed", "1"]],
    "hsp": [["hsp", "--n", "7", "--gens", "(1 2 3),(4 5)"]],
}

# Run untraced at the end of a traced run: cold float-engine builds, and
# sn-sample inputs timed at one and at two threads.
FLOAT_BUILD_SIZES = (25, 30, 35, 40)
THREAD_PROBE = ["sn-sample", "--n", "16", "--r", "23", "--count", "100"]
THREAD_PROBE_SEEDS = (1, 2, 3)
