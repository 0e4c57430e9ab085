"""The repwalk benchmark: seeded CLI workloads, end-to-end and layer metrics.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S]
    python3 perfbench/run.py --self-test

Each run starts fresh worker processes (perfbench/worker.py) that import
repwalk from this checkout's src/ and call repwalk.cli.main(argv) in a
closed loop: one client, the next command sent when the previous returns.
--trace 0 reports the end-to-end metrics, with every time scaled to the
reference speed (speed.py); --trace 1 runs half the planned work untraced
and then the same ops traced, and reports the layer metrics plus the tracing
overhead.  The last stdout line is one JSON object with
keys correct, attempted, failed and metrics; a full record, with the
environment and the workload's input properties, goes to
perfbench/results/.  --workload all runs every workload once (trace 0) and
prints every end-to-end metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import speed  # noqa: E402  (after the path set-up above)
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # set-up is measured in this many fresh workers per run
# a worker stops starting rounds after 4x the requested seconds; the margin
# covers its start-up, the round in progress and the off-clock checks
WORKER_MARGIN_S = 120

# end-to-end metrics: name -> unit.  error_rate is reported beside them
# (summary line and results file) but is not a benchmark metric, since it
# is 0 whenever the program is correct.
E2E_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "partitions.enumerate_ms": "ms",
    "partitions.corner_calls_per_op": "count",
    "partitions.corner_ms_per_op": "ms",
    "partitions.dimension_hit_ratio": "ratio",
    "characters.table_ms": "ms",
    "characters.mn_cache_entries": "count",
    "snwalk.kernel_build_ms": "ms",
    "snwalk.kernel_builds_per_op": "count",
    "snwalk.exact_step_ms": "ms",
    "snwalk.tv_ms": "ms",
    "snwalk.float_build_ms": "ms",
    "snwalk.float_step_ms": "ms",
    "snwalk.float_engine_miss_ratio": "ratio",
    "snwalk.walk_step_us": "us",
    "snwalk.rsk_sample_us": "us",
    "rng.u64_per_op": "count",
    "glasymptotics.sampler_init_ms": "ms",
    "glasymptotics.first_sample_ms": "ms",
    "glasymptotics.warm_sample_ms": "ms",
    "glasymptotics.normalizer_ms": "ms",
    "glasymptotics.normalizer_calls_per_op": "count",
    "glasymptotics.acceptance_probability_ms": "ms",
    "glasymptotics.attempts_per_sample": "count",
    "glasymptotics.acceptance_ratio": "ratio",
    "intervals.pow_int_calls_per_op": "count",
    "hsp.closure_ms": "ms",
    "hsp.bounds_ms": "ms",
    "cli.self_ms_per_op": "ms",
    "cli.threads2_vs_1": "ratio",
    "trace.overhead_ratio": "ratio",
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class WorkerError(RuntimeError):
    pass


def spawn(cfg: dict) -> dict:
    """Run one fresh worker to completion and return its JSON result."""
    cfg = dict(cfg, root=ROOT, out_dir=RESULTS, t_spawn=time.perf_counter())
    timeout = 4 * cfg["seconds"] + WORKER_MARGIN_S
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as e:
        raise WorkerError(f"worker ({cfg['mode']}) exceeded {timeout}s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker ({cfg['mode']}) exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# statistics


def hd_quantile(xs: list[float], p: float, steps: int = 20) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) density, integrated
    over each order statistic's 1/n slice by the midpoint rule.  It estimates
    the same quantile as the sample percentile but does not jump from one
    order statistic to the next, which matters when a run's op costs are
    widely spaced."""
    xs = sorted(xs)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
            for t in ((j + 0.5) / (n * steps) for j in range(n * steps))]
    top = max(logs)
    density = [math.exp(v - top) for v in logs]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(n: int) -> tuple[float, int]:
    """(percentile, samples beyond it) for the highest percentile in
    TAIL_PERCENTILES with at least 10 of n samples beyond it; the median when
    no percentile has 10."""
    for p in TAIL_PERCENTILES:
        beyond = n - max(1, math.ceil(p / 100 * n))
        if beyond >= 10 or p == TAIL_PERCENTILES[-1]:
            return p, beyond
    raise AssertionError("unreachable")


def scaled_latencies(run: dict) -> list[float]:
    return speed.scaled(run["op_start_s"], run["latency_s"], run["reference_samples"])


def timed_setup(base: dict) -> dict:
    """One set-up worker's setup_s with the mean of the reference start-ups
    timed just before and just after it."""
    before = speed.start_sample()
    result = spawn(dict(base, mode="setup"))
    result["start_reference_s"] = (before + speed.start_sample()) / 2
    return result


def end_to_end(run: dict, setups: list[dict]) -> tuple[dict, dict, dict]:
    """(metrics at the reference speed, the same metrics raw, details)."""
    pct, beyond = tail_percentile(len(run["latency_s"]))

    def metrics(lat, setup):
        return {
            "setup_s": statistics.median(setup),
            "throughput_ops_s": len(lat) / sum(lat),
            "latency_p50_ms": 1000 * hd_quantile(lat, 0.5),
            "latency_tail_ms": 1000 * hd_quantile(lat, pct / 100),
            "peak_rss_mb": run["peak_rss_mb"],
        }

    raw_setup = [w["setup_s"] for w in setups]
    setup = [w["setup_s"] * speed.START_REFERENCE_S / w["start_reference_s"] for w in setups]
    samples = [d for _, d in run["reference_samples"]]
    detail = {"latency_tail_percentile": pct, "latency_tail_samples_beyond": beyond,
              "latency_samples": len(run["latency_s"]), "setup_samples_s": setup,
              "raw_setup_samples_s": raw_setup,
              "reference": {"kernel_s": speed.REFERENCE_S, "samples": len(samples),
                            "median_s": statistics.median(samples),
                            "quartiles_s": statistics.quantiles(samples, n=4),
                            "start_s": speed.START_REFERENCE_S,
                            "start_samples_s": [w["start_reference_s"] for w in setups]}}
    return metrics(scaled_latencies(run), setup), metrics(run["latency_s"], raw_setup), detail


# ---------------------------------------------------------------------------
# environment


def environment(numpy_version: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout's own .git, or None (the checkout may not be a repo)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# one run


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    base = {"workload": name, "seed": seed, "seconds": seconds}
    record = {"workload": name, "why": workloads.WORKLOADS[name]["why"], "seed": seed,
              "seconds": seconds, "trace": int(trace),
              "loop": "closed, one client, one worker process"}
    if trace:
        # half the planned work untraced, then the same ops traced, so a
        # traced run takes about as long as an untraced one
        half = dict(base, seconds=max(1, seconds // 2))
        run = spawn(dict(half, mode="run"))
        traced = spawn(dict(half, mode="trace", max_ops=len(run["latency_s"])))
        metrics = dict(traced["layers"]["metrics"])
        metrics["trace.overhead_ratio"] = sum(scaled_latencies(traced)) / sum(scaled_latencies(run))
        record["layer_sources"] = traced["layers"]["sources"]
        units = LAYER_UNITS
        mismatched = [i for i, (a, b) in enumerate(zip(run["digests"], traced["digests"])) if a != b]
        for i in mismatched:
            run["errors"][i].append("traced output differs from untraced output")
    else:
        setups = [timed_setup(base) for _ in range(SETUP_SAMPLES)]
        run = spawn(dict(base, mode="run"))
        metrics, raw, detail = end_to_end(run, setups)
        record.update(detail)
        record["raw_metrics"] = {k: {"value": raw[k], "unit": u} for k, u in E2E_UNITS.items()}
        units = E2E_UNITS
    attempted = len(run["latency_s"])
    failed_ops = [i for i, errs in enumerate(run["errors"]) if errs]
    record.update({
        "environment": environment(run["numpy"]),
        "properties": run["properties"],
        "rounds": run["rounds"],
        "timed_s": run["elapsed_s"],
        "attempted": attempted,
        "failed": len(failed_ops),
        "error_rate": len(failed_ops) / attempted,
        "failures": [{"op": i, "argv": run["ops"][i]["argv"], "errors": run["errors"][i][:3]}
                     for i in failed_ops[:20]],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "op_latency_ms": [[" ".join(op["argv"]), 1000 * dt, 1000 * scaled]
                          for op, dt, scaled in zip(run["ops"], run["latency_s"],
                                                    scaled_latencies(run))],
    })
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{name}_seed{seed}_trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    record["path"] = path
    return record


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def print_summary(record: dict):
    env = record["environment"]
    props = record["properties"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} ops in {record['rounds']} rounds, {record['timed_s']:.2f} s; "
          f"error_rate {record['error_rate']:.4g}")
    print(f"  env: {env['cpu']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, commit {env['git_commit']}")
    print(f"  inputs: sizes {' '.join(props['distinct_sizes'])}; mix {props['command_mix']}; "
          f"repeat share {props['repeat_share']:.3f}")
    raw = record.get("raw_metrics")
    if raw:
        ref = record["reference"]
        start = statistics.median(ref["start_samples_s"])
        print(f"  reference kernel median {1000 * ref['median_s']:.4g} ms over {ref['samples']} "
              f"samples, start-up median {1000 * start:.4g} ms; times below are scaled to "
              f"{1000 * ref['kernel_s']:g} ms and {1000 * ref['start_s']:g} ms (raw after /)")
    for name, m in record["metrics"].items():
        extra = f"  / {raw[name]['value']:.6g} raw" if raw else ""
        if name == "latency_tail_ms":
            extra += (f"  (p{record['latency_tail_percentile']:g}, "
                      f"{record['latency_tail_samples_beyond']} of "
                      f"{record['latency_samples']} samples beyond)")
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}{extra}")
    for f in record["failures"][:5]:
        print(f"  FAILED op {f['op']} ({' '.join(f['argv'])}): {'; '.join(f['errors'])}")


def check_contract():
    """The metric names here must be the ones BENCHMARK.json declares."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = {w["name"] for w in spec["workloads"]}
    if declared != E2E_UNITS or layers != LAYER_UNITS or names != set(workloads.WORKLOADS):
        raise SystemExit("BENCHMARK.json does not match perfbench/run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that corrupted outputs are counted as failures")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repwalk", "cli.py")):
        print(f"no repwalk sources under {ROOT}/src", file=sys.stderr)
        return 2
    check_contract()
    try:
        if args.self_test:
            report = spawn({"mode": "selftest", "seconds": args.seconds})
            for line in report["lines"]:
                print(line)
            return 0 if report["ok"] else 1
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            records = [run_workload(w, args.seed, args.seconds, False) for w in workloads.WORKLOADS]
            for record in records:
                print_summary(record)
            return 0 if all(r["failed"] == 0 for r in records) else 1
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    print_summary(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
