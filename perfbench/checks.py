"""Output checks for benchmark ops, run after the timed phase.

Every op's stdout is checked on its own (parsing, exact identities, bounds),
and across ops: a repeated argv must give identical bytes, and the pooled
small-size samples of a run must pass one chi-square test at significance
0.001 against the exact law.  An op fails when its exit code is not 0, it
raised, or any check on it fails; a failed pooled test fails every op in
the pool.  Needs repwalk importable (the worker puts the checkout's src/
first on sys.path).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

SIGNIFICANCE = 0.001
SPECTRAL_CHECKS = 4  # exact spectral cross-checks per run, on ops with n <= 12
SPECTRAL_N = 12
MIN_EXPECTED = 5.0  # chi-square bins are merged until each expects this many


class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# parsing


def parse_csv(text: str):
    """(metadata lines, header, rows) of a repwalk CSV artifact."""
    lines = text.splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    _require(body, "no header line")
    return meta, body[0].split(","), [ln.split(",") for ln in body[1:]]


def _meta_value(meta, prefix: str) -> str:
    for line in meta:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise CheckError(f"missing metadata {prefix!r}")


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


# ---------------------------------------------------------------------------
# per-command checks; each returns data later cross-op checks need


class RunChecker:
    """Checks the ops of one run; call check() per op, then finish()."""

    def __init__(self):
        self.spectral_left = SPECTRAL_CHECKS
        self.float_points: dict[int, list] = {}  # n -> [(r, tv, err, op index)]
        self.pools: dict[str, list] = {}  # key -> [(op index, samples)]
        self.first_output: dict[tuple, str] = {}
        self.errors: list[list[str]] = []

    def check(self, op: dict, code, exc, out: str) -> None:
        i = len(self.errors)
        errs: list[str] = []
        self.errors.append(errs)
        if exc is not None:
            errs.append(f"raised {exc}")
            return
        if code != 0:
            errs.append(f"exit code {code}")
            return
        key = tuple(op["argv"])
        if key in self.first_output and self.first_output[key] != out:
            errs.append("repeated argv gave different bytes")
        self.first_output.setdefault(key, out)
        try:
            samples = _COMMANDS[op["cmd"]](self, i, op, out)
        except CheckError as e:
            errs.append(str(e))
            return
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as e:
            errs.append(f"unparseable output: {e!r}")
            return
        if op.get("pool") and samples is not None:
            self.pools.setdefault(op["pool"], []).append((i, samples))

    def finish(self) -> list[list[str]]:
        """Run the cross-op checks and return the error list of every op."""
        for points in self.float_points.values():
            points.sort()
            for (r0, tv0, e0, _), (r1, tv1, e1, i1) in zip(points, points[1:]):
                if tv1 > tv0 + e0 + e1:
                    self.errors[i1].append(f"float TV rises from r={r0} to r={r1}")
        if self.pools:
            stat, dof, problems = 0.0, 0, []
            for key, members in self.pools.items():
                s, d, p = _pool_statistic(key, [x for _, xs in members for x in xs])
                stat, dof = stat + s, dof + d
                problems += p
            p_value = chi2_sf(stat, dof) if dof else 1.0
            if problems or p_value < SIGNIFICANCE:
                why = "; ".join(problems) or f"chi-square p={p_value:.2e} (dof {dof})"
                for members in self.pools.values():
                    for i, _ in members:
                        self.errors[i].append(f"pooled samples: {why}")
        return self.errors


def _check_sn_walk(chk: RunChecker, i, op, out):
    from repwalk.partitions import Partition, enumerate_partitions
    from repwalk.snwalk import plancherel_sn, sn_upper_bound_squared, walk_distribution_spectral

    n, r = op["n"], int(_arg(op["argv"], "--r"))
    _, header, rows = parse_csv(out)
    _require(header == ["partition", "mass"], f"bad header {header}")
    parts = [Partition.from_string(p) for p, _ in rows]
    _require(parts == list(enumerate_partitions(n)), "rows are not the partitions of n in order")
    masses = {lam: Fraction(m) for lam, (_, m) in zip(parts, rows)}
    _require(all(m >= 0 for m in masses.values()), "negative mass")
    _require(sum(masses.values()) == 1, "masses do not sum to exactly 1")
    start = _arg(op["argv"], "--start")
    if start is None and r >= 1:
        pi = plancherel_sn(n).masses
        tv = sum(abs(masses[lam] - pi[lam]) for lam in pi) / 2
        _require(tv * tv <= sn_upper_bound_squared(n, r), "TV above the L2 bound")
    if n <= SPECTRAL_N and chk.spectral_left > 0:
        chk.spectral_left -= 1
        spectral = walk_distribution_spectral(n, r, Partition.from_string(start) if start else None)
        _require(spectral.masses == masses, "differs from the spectral distribution")


def _check_sn_tv_curve(chk: RunChecker, i, op, out):
    from repwalk.snwalk import sn_upper_bound_squared, tv_to_plancherel, walk_distribution_spectral

    n, rmax = op["n"], int(_arg(op["argv"], "--rmax"))
    meta, header, rows = parse_csv(out)
    _require(header == ["r", "tv", "l2_bound"], f"bad header {header}")
    _require([int(row[0]) for row in rows] == list(range(1, rmax + 1)), "r column is not 1..rmax")
    if "--float" in op["argv"]:
        err = float(_meta_value(meta, "# accumulated float error bound at rmax:"))
        prev = math.inf
        for r, tv, l2 in rows:
            tv, l2 = float(tv), float(l2)
            _require(-err <= tv <= l2 + err, f"TV {tv} outside [0, L2 bound] at r={r}")
            _require(tv <= prev + err, f"TV rises at r={r}")
            prev = tv
            chk.float_points.setdefault(n, []).append((int(r), tv, err, i))
        return
    tvs = [Fraction(row[1]) for row in rows]
    for r, tv in enumerate(tvs, 1):
        _require(tv * tv <= sn_upper_bound_squared(n, r), f"TV above the L2 bound at r={r}")
        _require(r == 1 or tv <= tvs[r - 2], f"TV rises at r={r}")
    if n <= SPECTRAL_N and chk.spectral_left > 0:
        chk.spectral_left -= 1
        exact = tv_to_plancherel(walk_distribution_spectral(n, rmax))
        _require(exact == tvs[-1], "final TV differs from the spectral distribution")


def _check_sn_cutoff(chk: RunChecker, i, op, out):
    from repwalk.partitions import partition_count
    from repwalk.snwalk import FLOAT_ENTRY_RELERR

    n, c = op["n"], float(_arg(op["argv"], "--c"))
    _, header, rows = parse_csv(out)
    _require(header == ["r", "cutoff_bound", "tv", "l2_bound"], f"bad header {header}")
    _require(len(rows) == 1, "expected one row")
    r, target, tv, l2 = int(rows[0][0]), *map(float, rows[0][1:])
    _require(r == math.ceil(0.5 * n * math.log(n) + c * n), "wrong cutoff step count")
    _require(math.isclose(target, math.exp(-2 * c) / 2, rel_tol=1e-12), "wrong cutoff bound")
    # the bound the float engine attaches to an r-step distribution
    err = r * partition_count(n) * FLOAT_ENTRY_RELERR
    _require(-err <= tv <= l2 + err, f"TV {tv} outside [0, L2 bound]")
    chk.float_points.setdefault(n, []).append((r, tv, err, i))


def _check_hsp(chk: RunChecker, i, op, out):
    from repwalk.partitions import Partition
    from repwalk.snwalk import plancherel_sn

    n = op["n"]
    doc = json.loads(out)
    tv = Fraction(doc["tv"])
    _require(tv * tv <= Fraction(doc["sharp_squared"]), "tv > sharp")
    _require(doc["sharp"] <= doc["ks"] * (1 + 1e-12), "sharp > ks")
    _require(math.factorial(n) % doc["subgroup_order"] == 0, "subgroup order does not divide n!")
    dist = {Partition.from_string(k): Fraction(v) for k, v in doc["sampling_distribution"].items()}
    _require(all(m >= 0 for m in dist.values()) and sum(dist.values()) == 1,
             "sampling distribution is not a probability vector")
    pi = plancherel_sn(n).masses
    _require(sum(abs(dist[lam] - pi[lam]) for lam in pi) / 2 == tv, "tv is not the TV of P_H")


def _check_sn_moments(chk: RunChecker, i, op, out):
    _, header, rows = parse_csv(out)
    _require(header == ["s", "method", "value", "reduced_exact"], f"bad header {header}")
    by_s: dict[str, list] = {}
    for s, method, value, reduced in rows:
        by_s.setdefault(s, []).append((method, float(value), Fraction(reduced)))
    _require(sorted(by_s) == ["1", "2"], "expected s = 1 and 2")
    for s, entries in by_s.items():
        _require({m for m, _, _ in entries} == {"transfer", "direct", "closed"}, "missing method")
        _require(len({red for _, _, red in entries}) == 1, f"methods disagree at s={s}")
        values = [v for _, v, _ in entries]
        _require(max(values) - min(values) <= 1e-9 * max(1.0, abs(values[0])),
                 f"float values disagree at s={s}")


def _check_partition_samples(chk: RunChecker, i, op, out):
    from repwalk.partitions import Partition

    n, count = op["n"], int(_arg(op["argv"], "--count"))
    _, header, rows = parse_csv(out)
    _require(header == ["index", "partition"], f"bad header {header}")
    _require([int(row[0]) for row in rows] == list(range(count)), "index column is not 0..count-1")
    samples = [Partition.from_string(row[1]) for row in rows]
    _require(all(lam.size == n for lam in samples), "sample is not a partition of n")
    return samples


def _check_gl_sample(chk: RunChecker, i, op, out):
    from repwalk.glirreps import GLIrrep

    n, q, count = op["n"], op["q"], int(_arg(op["argv"], "--count"))
    meta, header, rows = parse_csv(out)
    _require(header == ["index", "family"], f"bad header {header}")
    _require(int(_meta_value(meta, "# attempts:")) >= count, "fewer attempts than samples")
    rate = float(_meta_value(meta, "# predicted acceptance rate:"))
    _require(0 < rate < 1, "predicted acceptance rate outside (0, 1)")
    _require([int(row[0]) for row in rows] == list(range(count)), "index column is not 0..count-1")
    samples = [GLIrrep.from_descriptor(n, q, row[1]) for row in rows]
    _require(all(phi.descriptor() == row[1] for phi, row in zip(samples, rows)),
             "descriptor is not canonical")
    return samples


_COMMANDS = {
    "sn-walk": _check_sn_walk,
    "sn-tv-curve": _check_sn_tv_curve,
    "sn-cutoff": _check_sn_cutoff,
    "hsp": _check_hsp,
    "sn-moments": _check_sn_moments,
    "sn-sample": _check_partition_samples,
    "sn-rsk": _check_partition_samples,
    "gl-sample": _check_gl_sample,
}


# ---------------------------------------------------------------------------
# chi-square


def _exact_law(key: str) -> dict:
    kind, a, b = key.split(":")
    if kind == "walk":
        from repwalk.snwalk import walk_distribution

        return walk_distribution(int(a), int(b)).masses
    from repwalk.glirreps import plancherel_gl

    return plancherel_gl(int(a), int(b))


def _pool_statistic(key: str, samples: list):
    """(statistic, degrees of freedom, problems) of one pool against its law.

    Outcomes are sorted by expected count and merged, smallest first, until
    every bin expects at least MIN_EXPECTED draws.
    """
    law = _exact_law(key)
    observed: dict = {}
    for x in samples:
        observed[x] = observed.get(x, 0) + 1
    outside = [x for x in observed if not law.get(x)]
    if outside:
        return 0.0, 0, [f"{key}: {len(outside)} outcomes outside the support"]
    total = len(samples)
    bins = []
    exp_acc, obs_acc = 0.0, 0
    for x, p in sorted(law.items(), key=lambda kv: kv[1]):
        if not p:
            continue
        exp_acc += float(p) * total
        obs_acc += observed.get(x, 0)
        if exp_acc >= MIN_EXPECTED:
            bins.append((obs_acc, exp_acc))
            exp_acc, obs_acc = 0.0, 0
    if exp_acc and bins:
        o, e = bins.pop()
        bins.append((o + obs_acc, e + exp_acc))
    if len(bins) < 2:
        return 0.0, 0, []
    stat = sum((o - e) ** 2 / e for o, e in bins)
    return stat, len(bins) - 1, []


def chi2_sf(x: float, dof: int) -> float:
    """P(X >= x) for X chi-square with dof degrees of freedom."""
    if x <= 0:
        return 1.0
    return _gamma_q(dof / 2, x / 2)


def _gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) (series or continued fraction)."""
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1:
        term = total = 1.0 / a
        ap = a
        for _ in range(10_000):
            ap += 1
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        return 1.0 - total * math.exp(log_prefactor)
    tiny = 1e-300
    b = x + 1 - a
    c = 1 / tiny
    d = 1 / b
    h = d
    for k in range(1, 10_000):
        an = -k * (k - a)
        b += 2
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < 1e-15:
            break
    return math.exp(log_prefactor) * h
