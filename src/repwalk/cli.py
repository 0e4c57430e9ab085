"""Unified command-line front end.

Every run with an identical configuration produces byte-identical output:
rationals serialize as p/q strings, floats as shortest round-trip decimals,
samplers are pinned by --seed (and --threads, through per-stream derived
seeds).  Wall-clock timing goes to stderr so artifacts stay deterministic.
Exit codes: 0 ok, 1 a self-check failed (gl-cycle-index --check found a
mismatch, or an internal exact check raised ArithmeticError), 2 usage
error, 3 capacity error, 4 sampler failure (the GL sampler reached its
attempt cap, or its threshold enclosures failed to separate a uniform
draw).  The S_n walk commands refuse through snwalk._walk_start, as the
library does, and add only the digit cap after it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .characters import character_table
from .errors import CapacityError, SamplerError
from .glasymptotics import (
    GLPlancherelSampler,
    _check_sample_size,
    acceptance_probability,
    cycle_index_lhs,
    cycle_index_rhs,
)
from .glirreps import (
    _check_lower_c,
    _tail_denominator_log10,
    dimension_gl,
    fixed_space_counts,
    gl_enumerable,
    gl_lower_bound,
    gl_upper_bound_squared,
    order_gl,
    plancherel_gl,
    unipotent_tail_bound,
)
from .hsp import hsp_bounds, subgroup_closure
from .intervals import _sqrt_up
from .partitions import Partition, enumerate_partitions, partition_id
from .rng import derive_seed
from .series import DEFAULT_ORDER, _check_order, euler_lhs_rhs, q_pochhammer
from .snwalk import (
    EXACT_KERNEL_LIMIT,
    _check_sampler_size,
    _check_steps,
    _check_walk,
    _engine,
    _float_error_bound,
    _walk_start,
    moment_fc_reduced,
    rsk_samples,
    sn_tv_curve,
    sn_upper_bound,
    walk_samples,
)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    try:
        return str(x)
    except ValueError as exc:  # an int longer than sys.get_int_max_str_digits()
        x = Fraction(x)
        bits = max(abs(x.numerator), x.denominator).bit_length()
        raise CapacityError("printed digits", int(bits * math.log10(2)) + 1,
                            sys.get_int_max_str_digits()) from exc


def _ratio(num: int, den: int) -> str:
    """num/den for den > 0, reduced by one gcd and printed as
    str(Fraction(num, den)) prints it: "num/den", or "num" when den divides."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _refuse_digits(log_lo: float, label: str, exact=None) -> None:
    """Refuse, before the work, output holding an integer N >= 10**log_lo
    once N is longer than str() prints an int.  Near the limit, exact()
    gives N and decides; without it, a longer N is refused later, by _fmt."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if not limit or log_lo <= limit - 2:
        return
    if exact is not None and log_lo <= limit + 1:
        fits = exact() < 10**limit  # N has at most `limit` digits
    else:
        fits = log_lo < limit
    if not fits:
        raise CapacityError(label, max(math.floor(log_lo), limit) + 1, limit)


def _check_digits(base: int, exponent: int, factor: int = 1) -> None:
    """Refuse exact output whose unreduced denominator is base**exponent * factor."""
    log = exponent * math.log10(base) + math.log10(factor) if base > 1 else 0
    _refuse_digits(log, "exact output digits", lambda: base**exponent * factor)


def _meta_lines(command: str, args: argparse.Namespace) -> list[str]:
    skip = {"func", "out", "command"}
    pairs = sorted(
        (k, v) for k, v in vars(args).items() if k not in skip and v is not None
    )
    echo = " ".join(f"{k}={v}" for k, v in pairs)
    return [f"# repwalk {__version__}", f"# command: {command} {echo}"]


def _write_csv(args, command: str, header: list[str], rows, extra_meta=()):
    lines = _meta_lines(command, args) + list(extra_meta)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join([x if type(x) is str else _fmt(x) for x in row]))
    _emit(args, "\n".join(lines) + "\n")


def _write_json(args, command: str, payload: dict):
    doc = {"meta": {"tool": f"repwalk {__version__}", "command": command}}
    doc.update(payload)
    _emit(args, json.dumps(doc, indent=2) + "\n")


def _emit(args, text: str):
    out = getattr(args, "out", None)
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# the most samples one command draws (--count, sn-moments --samples): every
# sample is held in memory until the command prints them all
MAX_SAMPLE_COUNT = 10**5


def _check_count(count: int) -> None:
    """Refuse a sample count past MAX_SAMPLE_COUNT, before _split and any draw."""
    if count > MAX_SAMPLE_COUNT:
        raise CapacityError("sample count", count, MAX_SAMPLE_COUNT)


def _split(count: int, seed: int, threads: int) -> list[tuple[int, int]]:
    """(count, derived seed) per seed stream that has work, in stream order."""
    if count < 0:
        raise ValueError(f"the sample count must be non-negative, got {count}")
    base, extra = divmod(count, threads)
    sizes = [base + (i < extra) for i in range(threads)]
    return [(size, derive_seed(seed, i)) for i, size in enumerate(sizes) if size]


def _chunked(sample_fn, count: int, seed: int, threads: int) -> list:
    """Run the seed streams of _split in turn and merge them in stream order.

    --threads only chooses the split (a thread pool gave no speedup under
    the GIL), so output is pinned by (seed, threads).
    """
    return [x for c, s in _split(count, seed, threads) for x in sample_fn(c, s)]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_characters(args):
    table = character_table(args.n)
    class_labels = [c.cycle_lengths.to_string() for c in table.classes]
    if args.format == "json":
        _write_json(args, "characters", {
            "n": args.n,
            "classes": [
                {"cycles": lbl, "size": c.class_size, "fixed_points": c.fixed_points}
                for lbl, c in zip(class_labels, table.classes)
            ],
            "rows": [
                {"partition": lam.to_string(), "values": list(vals)}
                for lam, vals in zip(table.partitions, table.values)
            ],
        })
    else:
        sizes = ["# class sizes: " + ",".join(str(c.class_size) for c in table.classes)]
        rows = [
            [lam.to_string(), *vals] for lam, vals in zip(table.partitions, table.values)
        ]
        _write_csv(args, "characters", ["partition", *class_labels], rows, sizes)
    return 0


def _error_bound_line(n: int, r: int, at: str = "") -> str:
    return f"# accumulated float error bound{at}: {_float_error_bound(n, r)!r}"


def _cmd_sn_walk(args):
    start = Partition.from_string(args.start) if args.start is not None else None
    eng, s = _walk_start(args.n, args.r, start, args.mode)
    if args.mode == "float":
        labels = (lam.to_string() for lam in enumerate_partitions(args.n))
        masses = map(repr, eng.law(args.r, s).tolist())
        extra = [_error_bound_line(args.n, args.r)]
    else:
        # mass d_rho a_rho / den, whose digits _check_digits bounds by den's
        _check_digits(args.n, args.r, eng.dims[s])
        a, den = eng.law(args.r, s)
        labels = eng.labels
        masses = (_ratio(d * x, den) for d, x in zip(eng.dims, a))
        extra = []
    _write_csv(args, "sn-walk", ["partition", "mass"], zip(labels, masses), extra)
    return 0


def _cmd_sn_tv_curve(args):
    if args.mode == "exact":
        _walk_start(args.n, args.rmax, None, "exact")  # its refusals before the digit cap
        _check_digits(args.n, args.rmax)
    rows = sn_tv_curve(args.n, args.rmax, args.mode)
    extra = [_error_bound_line(args.n, args.rmax, " at rmax")] if args.mode == "float" else []
    _write_csv(args, "sn-tv-curve", ["r", "tv", "l2_bound"], rows, extra)
    return 0


def _cmd_sn_cutoff(args):
    n, c = args.n, args.c
    mode = "exact" if n <= EXACT_KERNEL_LIMIT else "float"
    # n before r, whose log(n) and float n fail for n < 1 and n past 10**308
    eng = _engine(n, mode)
    r = 0.5 * n * math.log(n) + c * n
    r = r if math.isinf(r) else math.ceil(r)  # +-inf: refused as too long or negative
    _check_steps(r)  # before exp(-2c), which overflows where r < 0
    tv = float(eng.tv_at(r))
    extra = [_error_bound_line(n, r)] if mode == "float" else []
    rows = [[r, math.exp(-2 * c) / 2, tv, sn_upper_bound(n, r)]]
    _write_csv(args, "sn-cutoff", ["r", "cutoff_bound", "tv", "l2_bound"], rows, extra)
    return 0


def _cmd_sn_samples(args):
    """sn-sample (walk_samples) and sn-rsk (rsk_samples)."""
    sampler = walk_samples if args.command == "sn-sample" else rsk_samples
    _check_sampler_size(args.n)  # before _split, so --count 0 is refused too
    _check_count(args.count)
    samples = _chunked(
        lambda count, seed: sampler(args.n, args.r, count, seed),
        args.count, args.seed, args.threads,
    )
    rows = [[i, lam.to_string()] for i, lam in enumerate(samples)]
    _write_csv(args, args.command, ["index", "partition"], rows)
    return 0


def _cmd_sn_moments(args):
    _check_count(args.samples)  # before the exact moments, which come first
    _check_steps(args.r)
    _check_walk(args.n)  # the character table's cap comes next
    table = character_table(args.n)  # its size cap before the n-part partition
    _check_digits(args.n, args.r)
    transposition = Partition([2] + [1] * (args.n - 2))
    size = math.comb(args.n, 2)  # the class size of the transpositions
    rows = []
    for s in (1, 2):
        for method in ("transfer", "direct", "closed"):
            red = moment_fc_reduced(args.n, transposition, s, args.r, method)
            # the value moment_fc returns, without computing red twice
            rows.append([s, method, float(red) * size ** (s / 2), red])
    if args.samples:
        values = table.values
        ci = partition_id(transposition)
        draws = [partition_id(lam) for lam in _chunked(
            lambda count, seed: walk_samples(args.n, args.r, count, seed),
            args.samples, args.seed, args.threads,
        )]
        for s in (1, 2):
            total = 0.0
            for i in draws:
                total += (math.sqrt(size) * values[i][ci] / values[i][-1]) ** s
            rows.append([s, "empirical", total / len(draws), ""])
    _write_csv(args, "sn-moments", ["s", "method", "value", "reduced_exact"], rows)
    return 0


def _cmd_gl_irreps(args):
    masses = plancherel_gl(args.n, args.q)
    rows = [
        [phi.descriptor(), dimension_gl(phi), mass]
        for phi, mass in masses.items()
    ]
    extra = ["# group order: " + _fmt(order_gl(args.n, args.q))]
    _write_csv(args, "gl-irreps", ["family", "dimension", "plancherel_mass"], rows, extra)
    return 0


def _cmd_gl_counts(args):
    if args.n >= 1:
        # |GL(n,q)| = q^(n^2) prod_{k<=n} (1 - q^-k) > q^(n^2) / 4, the largest number printed
        _refuse_digits(args.n**2 * math.log10(args.q) - 0.61, "printed digits",
                       lambda: order_gl(args.n, args.q))
    counts = fixed_space_counts(args.n, args.q)
    rows = [[i, counts[i]] for i in sorted(counts)]
    extra = ["# group order: " + _fmt(order_gl(args.n, args.q))]
    _write_csv(args, "gl-counts", ["fixed_space_dim", "count"], rows, extra)
    return 0


def _cmd_gl_bound(args):
    _check_digits(args.q, 2 * args.r * max(args.n, 0))
    if args.n >= 1 and args.r >= 1:  # square >= (|GL| - 1) / (4 q^(2rn)) > q^(n^2 - 2rn) / 32
        _refuse_digits((args.n - 2 * args.r) * args.n * math.log10(args.q) - 1.51, "printed digits")
    squared = gl_upper_bound_squared(args.n, args.q, args.r)
    rows = [[args.r, _sqrt_up(squared.numerator, squared.denominator), squared]]
    _write_csv(args, "gl-bound", ["r", "bound", "bound_squared"], rows)
    return 0


def _cmd_gl_lower(args):
    _check_lower_c(args.n, args.c)  # before the digit predictions, which take any c
    _check_digits(args.q, args.c)
    _refuse_digits(_tail_denominator_log10(args.q, args.c), "printed digits")
    value = gl_lower_bound(args.n, args.q, args.c)
    method = "exact-marginal" if gl_enumerable(args.n, args.q) else "tail-bound"
    rows = [[args.c, value, method, unipotent_tail_bound(args.q, args.c)]]
    _write_csv(args, "gl-lower", ["c", "lower_bound", "method", "tail_bound"], rows)
    return 0


def _cmd_gl_sample(args):
    _check_sample_size(args.n, args.q)  # before _split, so --count 0 is refused too
    _check_count(args.count)
    samples = []
    attempts = 0
    for size, seed in _split(args.count, args.seed, args.threads):
        sampler = GLPlancherelSampler(args.n, args.q, seed)
        samples.extend(sampler.sample() for _ in range(size))
        attempts += sampler.attempts
    rate = acceptance_probability(args.n, args.q)
    extra = [
        f"# attempts: {attempts}",
        f"# predicted acceptance rate: {rate.midpoint()!r}",
    ]
    rows = [[i, phi.descriptor()] for i, phi in enumerate(samples)]
    _write_csv(args, "gl-sample", ["index", "family"], rows, extra)
    return 0


def _cmd_gl_cycle_index(args):
    _check_order(args.order, args.q)  # before the --check work at a smaller depth
    failures = 0
    lines = []
    if args.check:
        depth = min(args.order, 4 if args.q == 2 else 3)
        lhs = cycle_index_lhs(depth, args.q)
        rhs = cycle_index_rhs(args.q, depth)
        # 'none' sets every marker to 1: each side's polynomial in t at t = 1
        # must then be 1/(1/q)_k, the coefficient of u^k in sum_k u^k/(1/q)_k
        ks = range(depth + 1)
        none = [sum(lhs[k]) == sum(rhs[k]) == 1 / q_pochhammer(args.q, k) for k in ks]
        for marker, oks in (("none", none), ("unipotent", [lhs[k] == rhs[k] for k in ks])):
            for k, ok in zip(ks, oks):
                failures += not ok
                lines.append((marker, k, "OK" if ok else "MISMATCH"))
        lhs_series, rhs_series = euler_lhs_rhs(args.q, args.order)
        euler_ok = lhs_series == rhs_series
        failures += not euler_ok
        lines.append(("euler", args.order, "OK" if euler_ok else "MISMATCH"))
        _write_csv(args, "gl-cycle-index", ["check", "order", "status"], lines)
        return 1 if failures else 0
    rows = [[k, sum(poly)] for k, poly in enumerate(cycle_index_rhs(args.q, args.order))]
    _write_csv(args, "gl-cycle-index", ["u_power", "coefficient"], rows)
    return 0


def _cmd_hsp(args):
    table = character_table(args.n)  # its size cap before the closure
    H = subgroup_closure(args.n, args.gens)
    bounds = hsp_bounds(H)
    per_class = [
        {
            "class": c.cycle_lengths.to_string(),
            "size": c.class_size,
            "intersection": H.class_intersections.get(c.cycle_lengths, 0),
        }
        for c in table.classes
    ]
    payload = {
        "n": args.n,
        "subgroup_order": H.order,
        "tv": str(bounds.exact_tv),
        "sharp": bounds.bound_sharp,
        "ks": bounds.bound_ks,
        "sharp_squared": str(bounds.sharp_squared),
        "per_class": per_class,
    }
    if args.format == "json":
        payload["sampling_distribution"] = {
            lam.to_string(): str(mass) for lam, mass in bounds.law.masses.items()
        }
        _write_json(args, "hsp", payload)
    else:
        rows = [[p["class"], p["size"], p["intersection"]] for p in per_class]
        extra = [
            f"# tv: {bounds.exact_tv}",
            f"# sharp: {bounds.bound_sharp!r}",
            f"# ks: {bounds.bound_ks!r}",
        ]
        _write_csv(args, "hsp", ["class", "size", "intersection"], rows, extra)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Reports a parse error on a 'usage error:' line, as main reports later ones."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"{self.prog}: usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repwalk",
        description="Random walks on irreducible representations of S_n and GL(n,q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=fn)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    p = add("characters", _cmd_characters, help="character table of S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = add("sn-walk", _cmd_sn_walk, help="r-step walk distribution on Irr(S_n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=_non_negative, required=True)
    p.add_argument("--start", default=None, help="start partition, e.g. 5+3")
    _mode_flags(p)

    p = add("sn-tv-curve", _cmd_sn_tv_curve, help="TV distance and L2 bound per step")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rmax", type=_non_negative, required=True)
    _mode_flags(p)

    p = add("sn-cutoff", _cmd_sn_cutoff, help="cutoff check at r = n log(n)/2 + c n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=_finite_float, required=True)

    p = add("sn-sample", _cmd_sn_samples, help="simulate the walk")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=_non_negative, required=True)
    _sampling_flags(p)

    p = add("sn-rsk", _cmd_sn_samples, help="RSK shapes after top-to-random shuffles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=_non_negative, required=True)
    _sampling_flags(p)

    p = add("sn-moments", _cmd_sn_moments, help="transposition eigenfunction moments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=_non_negative, required=True)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_thread_count, default=1)

    p = add("gl-irreps", _cmd_gl_irreps, help="families, dimensions, Plancherel measure")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_field_size, required=True)

    p = add("gl-counts", _cmd_gl_counts, help="fixed-space dimension counts in GL(n,q)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_field_size, required=True)

    p = add("gl-bound", _cmd_gl_bound, help="L2 mixing bound for the GL walk")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_field_size, required=True)
    p.add_argument("--r", type=int, required=True)

    p = add("gl-lower", _cmd_gl_lower, help="TV lower bound at r = n - c")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_field_size, required=True)
    p.add_argument("--c", type=int, required=True)

    p = add("gl-sample", _cmd_gl_sample, help="exact GL(n,q) Plancherel samples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_field_size, required=True)
    _sampling_flags(p)

    p = add("gl-cycle-index", _cmd_gl_cycle_index, help="cycle index and Euler identity")
    p.add_argument("--q", type=_field_size, required=True)
    p.add_argument("--order", type=_non_negative, default=DEFAULT_ORDER)
    p.add_argument("--check", action="store_true")

    p = add("hsp", _cmd_hsp, help="hidden-subgroup distinguishability bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gens", default="",
                   help="comma-separated generators in cycle notation, e.g. '(1 2),(3 4)'")
    p.add_argument("--format", choices=["csv", "json"], default="json")

    return parser


def _mode_flags(p):
    p.set_defaults(mode="exact")
    p.add_argument("--exact", dest="mode", action="store_const", const="exact")
    p.add_argument("--float", dest="mode", action="store_const", const="float")


MAX_THREADS = 64


def _thread_count(text: str) -> int:
    """--threads value: an integer in 1..MAX_THREADS, checked while parsing."""
    value = int(text)
    if not 1 <= value <= MAX_THREADS:
        raise argparse.ArgumentTypeError(f"must be between 1 and {MAX_THREADS}, got {value}")
    return value


def _field_size(text: str) -> int:
    """--q value of the GL commands: an integer q >= 2, checked while parsing."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


def _non_negative(text: str) -> int:
    """--r, --rmax and --order value: a non-negative integer, checked while
    parsing, so a run that draws nothing still rejects it."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _finite_float(text: str) -> float:
    """--c value: a finite float, so r = ceil(n log(n)/2 + c n) exists."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _sampling_flags(p):
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_thread_count, default=1)


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.monotonic()
    try:
        code = args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except SamplerError as exc:
        print(f"sampler error: {exc}", file=sys.stderr)
        return 4
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
