"""One benchmark worker process: import repwalk, warm up, run ops, report.

Started by run.py as
    python3 perfbench/worker.py '<json config>'
with config keys root, workload, seed, mode, seconds, max_ops, t_spawn.
Modes:
    setup     import and warm up only; report setup_s
    run       closed loop over the rounds planned for `seconds`, then check
              the outputs
    trace     the first max_ops ops under the tracer, then probes
    selftest  show that corrupted outputs are counted as failures
The timed ops are interleaved with reference-kernel samples, off the clock
(speed.py), so run.py can scale their times to the reference speed.
The result is one JSON object on stdout; repwalk's own output is captured
in memory.  t_spawn is the parent's CLOCK_MONOTONIC reading just before
the process was started, so setup_s includes interpreter start-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import speed
import workloads


def _import_repwalk(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import repwalk.cli

    where = os.path.realpath(repwalk.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"repwalk was imported from {where}, not from {src}")
    return repwalk.cli


def run_op(cli, argv):
    """(seconds, exit code, exception text, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as e:  # a crash is a failed op, not a failed run
            exc = repr(e)
        t1 = perf_counter()
    return t1 - t0, code, exc, out.getvalue()


def main():
    cfg = json.loads(sys.argv[1])
    cli = _import_repwalk(cfg["root"])
    if cfg["mode"] == "selftest":
        import selftest

        print(json.dumps(selftest.run(cli, run_op)))
        return
    for argv in workloads.WORKLOADS[cfg["workload"]]["warmup"]:
        _, code, exc, _ = run_op(cli, argv)
        if code != 0 or exc:
            raise SystemExit(f"warm-up op {argv} failed: {code} {exc}")
    setup_s = perf_counter() - cfg["t_spawn"]
    if cfg["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if cfg["mode"] == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        start_snap = tracer.snapshot(0)

    ops, starts, lat, codes, excs, outs = [], [], [], [], [], []
    samples = []  # (start, duration) of reference-kernel calls between ops
    stream = ((k, op) for k, ops in enumerate(workloads.rounds(cfg["workload"], cfg["seed"]))
              for op in ops)
    max_ops = cfg.get("max_ops")
    target = workloads.planned_rounds(cfg["workload"], cfg["seconds"])
    t_start = perf_counter()
    rounds_done = 0
    for k, op in stream:
        if k != rounds_done:  # a round boundary
            rounds_done = k
            if max_ops is None and (k >= target or perf_counter() - t_start > 4 * cfg["seconds"]):
                break
        if max_ops is not None and len(ops) >= max_ops:
            break
        if tracer:
            tracer.op = len(ops)
        samples.append(speed.sample())
        starts.append(perf_counter())
        dt, code, exc, out = run_op(cli, op["argv"])
        ops.append(op)
        lat.append(dt)
        codes.append(code)
        excs.append(exc)
        outs.append(out)
    samples.append(speed.sample())
    elapsed = perf_counter() - t_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "elapsed_s": elapsed,
        "rounds": rounds_done,
        "peak_rss_mb": rss_mb,
        "ops": [{k: op[k] for k in ("argv", "cmd", "n", "q") if op.get(k) is not None}
                for op in ops],
        "op_start_s": starts,
        "latency_s": lat,
        "reference_samples": samples,
        "digests": [hashlib.sha256(o.encode()).hexdigest() for o in outs],
        "properties": workloads.input_properties(ops),
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer:
        result["layers"] = _traced_tail(tracer, cli, start_snap, len(ops), cfg)
    else:
        import checks

        checker = checks.RunChecker()
        for op, code, exc, out in zip(ops, codes, excs, outs):
            checker.check(op, code, exc, out)
        result["errors"] = checker.finish()
    print(json.dumps(result))


def _traced_tail(tracer, cli, start_snap, n_ops, cfg) -> dict:
    """Layer metrics of the workload window, probing layers it did not use."""
    import tracing

    workload_snap = tracer.snapshot(n_ops)
    window = tracer.window(start_snap, workload_snap)
    metrics, sources = {}, {}
    probe_windows = {}
    for name, (value, evidence, probe) in tracing.LAYER_METRICS.items():
        w = window
        if probe is not None and not evidence(window):
            if probe not in probe_windows:
                before = tracer.snapshot(0)
                for i, argv in enumerate(tracing.PROBES[probe]):
                    tracer.op = f"probe:{probe}:{i}"
                    _, code, exc, _ = run_op(cli, argv)
                    if code != 0 or exc:
                        raise SystemExit(f"probe {argv} failed: {code} {exc}")
                probe_windows[probe] = tracer.window(before, tracer.snapshot(len(tracing.PROBES[probe])))
            w = probe_windows[probe]
            sources[name] = f"probe:{probe}"
        metrics[name] = value(w)
    tracer.uninstall()

    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans_{cfg['workload']}_seed{cfg['seed']}.jsonl"))

    # untraced probes: thread pair timings, then cold float-engine builds
    pairs = {1: [], 2: []}
    for seed in tracing.THREAD_PROBE_SEEDS:
        for t in (1, 2):
            argv = tracing.THREAD_PROBE + ["--seed", str(seed), "--threads", str(t)]
            pairs[t].append(run_op(cli, argv)[0])
    metrics["cli.threads2_vs_1"] = statistics.median(pairs[2]) / statistics.median(pairs[1])
    sources["cli.threads2_vs_1"] = "probe:threads"

    from repwalk import snwalk

    builds = {}
    for n in tracing.FLOAT_BUILD_SIZES:
        snwalk._float_engine.cache_clear()
        t0 = perf_counter()
        snwalk.walk_distribution(n, 0, mode="float")
        builds[n] = 1000 * (perf_counter() - t0)
    snwalk._float_engine.cache_clear()
    metrics["snwalk.float_build_ms"] = sum(builds.values())
    sources["snwalk.float_build_ms"] = "probe:float-build " + json.dumps(builds)
    return {"metrics": metrics, "sources": sources}


if __name__ == "__main__":
    main()
