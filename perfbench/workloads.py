"""Seeded workload generators for the repwalk benchmark.

A workload is an endless sequence of *rounds*.  Every round has the same
composition: what sets an op's cost (command, n, q, r, c, count, which
walks start from a random partition, subgroup shape) depends on the round
index alone; r, c and counts step through narrow bands from round to round.
The seed chooses the order, the sampler seeds, the start partitions and the
subgroup labels.  Runs measure whole rounds, so two seeds load the program
with the same mix and differ only in which inputs they draw.

An op is a dict:
    argv    the repwalk CLI arguments (the program sees nothing else)
    cmd, n, q   the command and its sizes, for the input-property record
    pool    optional key: ops sharing it are pooled for a chi-square test
This module does not import repwalk.
"""

from __future__ import annotations

import math
import random

# ---------------------------------------------------------------------------
# helpers


def cutoff_steps(n: int) -> int:
    """(1/2) n log n rounded up: the cutoff location of the S_n walk."""
    return math.ceil(0.5 * n * math.log(n))


def _rng(workload: str, seed: int, tag) -> random.Random:
    # str seeds hash through sha512, so they are stable across processes
    return random.Random(f"{workload}/{seed}/{tag}")


def _op(argv, cmd, n, q=None, **extra) -> dict:
    return {"argv": [str(a) for a in argv], "cmd": cmd, "n": n, "q": q, **extra}


def _random_partition(rng: random.Random, n: int) -> str:
    parts = []
    left = n
    while left:
        p = rng.randint(1, left)
        parts.append(p)
        left -= p
    return "+".join(str(p) for p in sorted(parts, reverse=True))


def _sampler_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _level(k: int, salt: int) -> float:
    """Where in its band an op's r, c or count sits in round k: one of eight
    evenly spaced levels in [0, 1], set by the round and the op, not the seed."""
    return (3 * k + 5 * salt) % 8 / 7


# ---------------------------------------------------------------------------
# sn-exact


def _sn_exact_rounds(seed: int):
    name = "sn-exact"
    k = 0
    while True:
        rng = _rng(name, seed, k)
        ops = []
        # every kind at n 10..15; one op each at 16..18, whose kind rotates
        # by round, so cheap ops are many and the dearest sizes stay present;
        # the random-start sizes, subgroup shapes and hsp/moments sizes
        # rotate by round as well
        kinds = [(n, kind) for n in range(10, 16) for kind in ("tv", "short", "long")]
        kinds += [(n, ("tv", "short", "long")[(n + k) % 3]) for n in (16, 17, 18)]
        random_starts = {10 + k % 6, 10 + (k + 3) % 6}
        for n, kind in kinds:
            rc = cutoff_steps(n)
            if kind == "tv":
                rmax = math.ceil(rc * (1.9 + 0.1 * _level(k, n)))
                ops.append(_op(["sn-tv-curve", "--n", n, "--rmax", rmax, "--exact"],
                               "sn-tv-curve", n))
                continue
            # one walk before the cutoff and one after it
            lo, hi = (0.7, 0.8) if kind == "short" else (1.8, 1.9)
            r = math.ceil(rc * (lo + (hi - lo) * _level(k, n + (kind == "long"))))
            argv = ["sn-walk", "--n", n, "--r", r, "--exact"]
            if kind == "long" and n in random_starts:
                argv += ["--start", _random_partition(rng, n)]
            ops.append(_op(argv, "sn-walk", n))
        for j, band in enumerate(((8, 9, 10), (11, 12))):
            n = band[k % len(band)]
            shape = _SUBGROUP_SHAPES[(k + 2 * j) % len(_SUBGROUP_SHAPES)]
            ops.append(_op(["hsp", "--n", n, "--gens", _small_subgroup(rng, n, shape)], "hsp", n))
            n = band[(k + 1) % len(band)]
            r = math.ceil(cutoff_steps(n) * (0.95 + 0.1 * _level(k, n + j)))
            ops.append(_op(["sn-moments", "--n", n, "--r", r], "sn-moments", n))
        rng.shuffle(ops)
        yield ops
        k += 1


_SUBGROUP_SHAPES = (
    [[1, 2], [3, 4]],            # two commuting transpositions, order 4
    [[1, 2, 3]],                 # a 3-cycle, order 3
    [[1, 2, 3], [4, 5]],         # order 6
    [[1, 2, 3, 4]],              # a 4-cycle, order 4
    [[1, 2], [1, 3]],            # S_3 on three points, order 6
)


def _small_subgroup(rng: random.Random, n: int, shape) -> str:
    """Generators of a subgroup of the given shape on randomly relabelled points."""
    points = rng.sample(range(1, n + 1), 5)
    return ",".join(
        "(" + " ".join(str(points[p - 1]) for p in cycle) + ")" for cycle in shape
    )


# ---------------------------------------------------------------------------
# sn-float-sweep


def _sn_float_sweep_rounds(seed: int):
    name = "sn-float-sweep"
    recent: list[int] = []
    k = 0
    while True:
        rng = _rng(name, seed, k)
        # the four largest sizes run back to back, so the four-entry cache
        # always peaks at its largest footprint and peak RSS does not depend
        # on the seed; the rest go in seeded order around them
        sizes = list(range(19, 33))
        rng.shuffle(sizes)
        block = list(range(33, 37))
        rng.shuffle(block)
        # a round must not open with engines the last one left in the
        # cache, so every round sees the same hit pattern
        sizes.sort(key=lambda n: n in recent)
        at = len(sizes) if set(block) & set(recent) else rng.randint(0, len(sizes))
        sizes[at:at] = block
        # every size gets a cutoff before and one after the cutoff, and one
        # size in every triple of neighbours, chosen by round, a long TV
        # curve; both reuse the engine just built
        extra_tv = {lo + (k + j) % 3 for j, lo in enumerate(range(19, 37, 3))}
        ops = []
        for n in sizes:
            ops.append(_cutoff_op(n, -0.5, _level(k, n)))
            ops.append(_cutoff_op(n, 0.5, _level(k, n + 1)))
            if n in extra_tv:
                rmax = math.ceil(cutoff_steps(n) * (2.7 + 0.1 * _level(k, n + 2)))
                ops.append(_op(["sn-tv-curve", "--n", n, "--rmax", rmax, "--float"],
                               "sn-tv-curve", n))
        recent = sizes[-4:]
        yield ops
        k += 1


def _cutoff_op(n: int, centre: float, level: float) -> dict:
    """sn-cutoff at r = n log(n)/2 + c n, c within 0.1 of centre."""
    c = round(centre - 0.1 + 0.2 * level, 2)
    return _op(["sn-cutoff", "--n", n, "--c", c], "sn-cutoff", n)


# ---------------------------------------------------------------------------
# sn-montecarlo

POOL_WALK = (10, 12)  # (n, r) of the pooled small-size walk samples


def _sn_montecarlo_rounds(seed: int):
    name = "sn-montecarlo"
    bands = ((10, 14), (15, 19), (20, 24), (25, 30))
    counts = (10, 30, 80, 200)
    previous: list[dict] = []
    k = 0
    while True:
        rng = _rng(name, seed, k)
        ops = []
        # the counts rotate over the bands and n steps through each band by
        # round, so every seed runs the same (n, r, count) mix; the seed
        # draws the sampler seeds and the order
        for b, (lo, hi) in enumerate(bands):
            count = counts[(b + k) % len(counts)]
            for c, cmd in enumerate(("sn-sample", "sn-rsk")):
                n = lo + (k + 2 * c) % (hi - lo + 1)
                r = math.ceil(cutoff_steps(n) * (0.9 + 0.2 * _level(k, 2 * b + c)))
                ops.append(_op([cmd, "--n", n, "--r", r, "--count", count,
                                "--seed", _sampler_seed(rng), "--threads", 1], cmd, n))
        # the same inputs at one and at two threads.  Only this op uses the
        # pool: on two shared cores, two-thread ops varied about three times
        # as much from run to run as one-thread ops
        n = 12 + k % 13
        r = cutoff_steps(n)
        base = ["sn-sample", "--n", n, "--r", r, "--count", 100, "--seed", _sampler_seed(rng)]
        for t in (1, 2):
            ops.append(_op(base + ["--threads", t], "sn-sample", n))
        # pooled draws for the chi-square check, each with its own stream
        pn, pr = POOL_WALK
        for cmd in ("sn-sample", "sn-rsk"):
            ops.append(_op([cmd, "--n", pn, "--r", pr, "--count", 100,
                            "--seed", _sampler_seed(rng), "--threads", 1],
                           cmd, pn, pool=f"walk:{pn}:{pr}"))
        # a byte-for-byte repeat of one of the last round's band ops, the
        # band rotating by round (in the first round, of this round's)
        source = (previous or ops)[2 * (k % len(bands)) + k % 2]
        ops.append(_op(source["argv"], source["cmd"], source["n"], repeat=True))
        previous = ops[:]
        rng.shuffle(ops)
        yield ops
        k += 1


# ---------------------------------------------------------------------------
# gl-plancherel

POOL_GL_N = 5  # families are enumerable up to this n, so small draws are pooled

# (n at rounds 0-1, n at rounds 2-3) of the four size bands 2..5, 6..10,
# 11..15 and 16..19, per q.  The sizes and count bands are fixed so that every
# seed runs the same (n, q, count) mix; counts step through their narrow
# bands by round, and the seed draws the sampler seeds and the order.
GL_BANDS = {
    2: ((3, 5), (7, 9), (12, 14), (16, 18)),
    3: ((2, 4), (6, 8), (11, 13), (17, 19)),
}
GL_SMALL = (2, 3, 4, 5, 6)  # q=3 sizes of the small, set-up-bound ops
GL_SMALL_COUNTS = ((1, 10), (20, 30), (90, 110))


def _gl_plancherel_rounds(seed: int):
    name = "gl-plancherel"
    previous: dict | None = None
    k = 0
    while True:
        rng = _rng(name, seed, k)
        ops = []
        # one op per size band; q alternates along the bands and from one
        # round to the next, and the low and high counts swap every 2 rounds
        for band in range(4):
            q = (2, 3)[(band + k) % 2]
            n = GL_BANDS[q][band][(k // 2) % 2]
            low = (band < 2) == ((k // 2) % 2 == 0)
            level = _level(k, band)
            count = 1 + round(9 * level) if low else 95 + round(10 * level)
            ops.append(_gl_op(rng, n, q, count, f"gl:{n}:{q}" if n <= POOL_GL_N else None))
        ops.append(_gl_op(rng, 20, 3, 24 + round(2 * _level(k, 4)), None))
        # the band-2 size again, with a fresh seed and count
        again = ops[2]
        ops.append(_gl_op(rng, again["n"], again["q"], 14 + round(2 * _level(k, 5)), None))
        # a byte-for-byte repeat of the last round's band-1 op
        source = previous or ops[1]
        ops.append(_op(source["argv"], source["cmd"], source["n"], source["q"], repeat=True))
        previous = ops[1]
        # many small sizes, so a run has at least 40 ops and the tail is at
        # least p75; their draws are pooled for the chi-square check
        for n in GL_SMALL:
            for j, (lo, hi) in enumerate(GL_SMALL_COUNTS):
                pool = f"gl:{n}:3" if n <= POOL_GL_N else None
                count = lo + round((hi - lo) * _level(k, n + j))
                ops.append(_gl_op(rng, n, 3, count, pool))
        rng.shuffle(ops)
        yield ops
        k += 1


def _gl_op(rng, n, q, count, pool) -> dict:
    argv = ["gl-sample", "--n", n, "--q", q, "--count", count, "--seed", _sampler_seed(rng)]
    return _op(argv, "gl-sample", n, q, pool=pool)


# ---------------------------------------------------------------------------
# registry


WORKLOADS = {
    "sn-exact": {
        "why": "exact Fraction walks, TV curves, HSP and moments on S_n, n 10..18: "
               "kernel rebuilds, exact mat-vec, character tables; no numpy, rng or GL code",
        "rounds": _sn_exact_rounds,
        "round_s": 4.0,
        "warmup": [
            ["sn-walk", "--n", "6", "--r", "3", "--exact"],
            ["sn-tv-curve", "--n", "6", "--rmax", "3", "--exact"],
            ["hsp", "--n", "4", "--gens", "(1 2)"],
            ["sn-moments", "--n", "5", "--r", "3"],
        ],
    },
    "sn-float-sweep": {
        "why": "float cutoff sweep over 18 sizes n 19..36, more than the 4 cached "
               "engines, so most time goes to engine builds: bulk partition lattice and numpy",
        "rounds": _sn_float_sweep_rounds,
        "round_s": 12.5,
        "warmup": [
            ["sn-tv-curve", "--n", "8", "--rmax", "3", "--float"],
            ["sn-walk", "--n", "8", "--r", "3", "--float"],
        ],
    },
    "sn-montecarlo": {
        "why": "walk and RSK samplers, n 10..30 at 1 and 2 threads: per-step corners, "
               "Partition checks, dimension lookups, SplitMix64 and the thread pool",
        "rounds": _sn_montecarlo_rounds,
        "round_s": 0.6,
        "warmup": [
            ["sn-sample", "--n", "5", "--r", "3", "--count", "4", "--threads", "2"],
            ["sn-rsk", "--n", "5", "--r", "3", "--count", "4"],
        ],
    },
    "gl-plancherel": {
        "why": "exact GL(n,q) Plancherel sampler, n 2..20, q 2..3, counts 1..110: "
               "sampler set-up, interval thresholds and rejection; the only GL workload",
        "rounds": _gl_plancherel_rounds,
        "round_s": 10.0,
        "warmup": [
            ["gl-sample", "--n", "1", "--q", "2", "--count", "2"],
        ],
    },
}


def planned_rounds(workload: str, seconds: float) -> int:
    """Rounds a run measures: fixed work that takes about `seconds` at the
    nominal round duration, so every run of a workload does the same work."""
    return max(1, round(seconds / WORKLOADS[workload]["round_s"]))


def rounds(workload: str, seed: int):
    """The endless round sequence of a workload for one seed."""
    return WORKLOADS[workload]["rounds"](seed)


def input_properties(ops: list[dict]) -> dict:
    """Distinct sizes, command mix and the share of repeated (command, n, q)."""
    seen = set()
    repeats = 0
    mix: dict[str, int] = {}
    for op in ops:
        key = (op["cmd"], op["n"], op["q"])
        repeats += key in seen
        seen.add(key)
        mix[op["cmd"]] = mix.get(op["cmd"], 0) + 1
    return {
        "ops": len(ops),
        "distinct_sizes": [f"({n},{q})" if q else str(n)
                           for n, q in sorted({(op["n"], op["q"] or 0) for op in ops})],
        "command_mix": dict(sorted(mix.items())),
        "repeat_share": repeats / len(ops) if ops else 0.0,
        "exact_argv_repeats": sum(1 for op in ops if op.get("repeat")),
    }
