"""The GL sampler's threshold sets against the plain scan they replace.

_ThresholdSet decides a draw from its first 64-bit word by one bisect and
falls back to the scan only where a threshold straddles that word.  The
reference in oracles.py is the scan alone; every case below must give the
same outcome and leave the generator in the same state, so the sampler
draws the same words as before.
"""

import random
import sys
import threading
from fractions import Fraction
from functools import partial

import pytest

from oracles import (
    LocateSampler,
    component_entries_fraction,
    component_entries_interval,
    count_entries_fraction,
    pow_int_fraction,
    scaled_entries,
    threshold_ends_reference,
    threshold_locate_reference,
    z_power_product_fraction,
)
from repwalk import glasymptotics, glirreps
from repwalk.errors import SamplerError
from repwalk.partitions import partition_count
from repwalk.glasymptotics import (
    DEFAULT_PREC,
    SAMPLE_N_LIMIT,
    GLPlancherelSampler,
    Interval,
    _component_entries,
    _count_entries,
    _REJECT,
    _ThresholdSet,
    _rejection_u,
    acceptance_probability,
)
from repwalk.rng import _GOLDEN, SplitMix64
from repwalk.series import q_pochhammer


def _first_word(seed: int) -> int:
    return SplitMix64(seed).next_u64()


def _words_drawn(rng: SplitMix64, seed: int) -> int:
    """Words rng has drawn since SplitMix64(seed): each adds the golden gamma."""
    return (rng._state - seed) * pow(_GOLDEN, -1, 1 << 64) % (1 << 64)


def _draw_both(builder, seed: int, draws: int, thresholds=None) -> None:
    """A set and the reference draw from twin generators, draws times."""
    thresholds = thresholds or _ThresholdSet(builder)
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    for _ in range(draws):
        try:
            expected = threshold_locate_reference(builder, slow)
        except SamplerError:
            expected = SamplerError
        try:
            got = thresholds.locate(fast)
        except SamplerError:
            got = SamplerError
        assert got is expected or got == expected
        assert fast._state == slow._state


def _random_interval(rnd: random.Random) -> Interval:
    kind = rnd.randrange(4)
    x = Fraction(rnd.randrange(1, 1 << 20), 1 << 20)
    if kind == 0:  # a point on a 20-bit dyadic
        return Interval.point(x)
    if kind == 1:  # a point with an odd denominator
        return Interval.point(Fraction(rnd.randrange(1, 999), 999))
    if kind == 2:  # narrow, as the sampler's enclosures are
        return Interval(x, x + Fraction(1, 1 << 300))
    return Interval(x, x + Fraction(rnd.randrange(1, 64), 256))  # wide


@pytest.mark.parametrize("seed", range(12))
def test_locate_matches_scan_on_random_tables(seed):
    # thresholds in increasing order, and in any order: the running maxima
    # must decide as the scan does either way; prefixes end the table anywhere
    rnd = random.Random(seed)
    for ordered in (True, False):
        entries = [(k, _random_interval(rnd)) for k in range(rnd.randrange(1, 12))]
        if ordered:
            entries.sort(key=lambda e: e[1].lo)
        for end in {1, rnd.randrange(1, len(entries) + 1), len(entries)}:
            _draw_both(partial(scaled_entries, entries[:end]), seed, 50)


def _cold_and_warm(builder):
    """A set that has read nothing yet, and one that has read every threshold."""
    warm = _ThresholdSet(builder)
    while warm._grow():
        pass
    return _ThresholdSet(builder), warm


def test_point_threshold_on_a_64_bit_dyadic():
    # t = v / 2^64 exactly: the first word v gives U >= t; at (v + 1) / 2^64, U < t
    for seed in range(5):
        v = _first_word(seed)
        for t, expected in ((v, _REJECT), (v + 1, 0), (v - 1, _REJECT)):
            builder = partial(scaled_entries, [(0, Interval.point(Fraction(t, 1 << 64)))])
            for thresholds in _cold_and_warm(builder):
                rng = SplitMix64(seed)
                assert thresholds.locate(rng) is expected
                assert _words_drawn(rng, seed) == 1
            _draw_both(builder, seed, 1)


def test_word_equal_to_a_threshold_lo64():
    # lo >> (DEFAULT_PREC - 64) == v for one threshold: the first word cannot
    # decide it, so the scan reads a second word and resolves it (U >= t
    # there); thresholds around it must not change that
    for seed in range(5):
        v = _first_word(seed)
        near = Fraction(v, 1 << 64) + Fraction(1, 1 << 300)
        for around in (0, 1, 2):
            entries = [(0, Interval.point(Fraction(1, 1 << 70)))] if around else []
            entries.append((len(entries), Interval(near, near + Fraction(1, 1 << 310))))
            if around > 1:
                entries.append((len(entries), Interval.point(Fraction(v + 1, 1 << 64))))
            builder = partial(scaled_entries, entries)
            slow = SplitMix64(seed)
            expected = threshold_locate_reference(builder, slow)
            assert expected == (_REJECT if around < 2 else 2)
            for thresholds in _cold_and_warm(builder):
                fast = SplitMix64(seed)
                assert thresholds.locate(fast) == expected
                assert fast._state == slow._state
                assert _words_drawn(fast, seed) == 2


def test_unresolvable_threshold_raises_after_the_same_words():
    builder = lambda prec: [(0, 0, 1 << prec)]
    _draw_both(builder, 3, 1)
    with pytest.raises(SamplerError):
        _ThresholdSet(builder).locate(SplitMix64(3))


@pytest.mark.parametrize("n,q,u", [(6, 2, None), (9, 3, None), (4, 2, Fraction(1, 2))])
def test_locate_matches_scan_on_sampler_tables(n, q, u, pin_u):
    pin_u(u)
    u = glasymptotics._rejection_u(n)
    sampler = GLPlancherelSampler(n, q)
    for plan in sampler.plans:
        ud, qd = u**plan.d, Fraction(q) ** plan.d
        counts = partial(_count_entries, ud, qd, plan.n_labels, min(plan.n_labels, n // plan.d))
        _draw_both(counts, plan.d, 60)
        _draw_both(partial(_component_entries, ud, qd, n // plan.d), plan.d, 60)


def test_builder_that_raises_is_started_again():
    # an error escaping the builder mid-growth (an interrupt, a failed
    # normalizer) must not leave the table cut short and taken as ended:
    # the next reads start the builder again past the entries kept
    entries = [(k, Interval.point(Fraction(k + 1, 9))) for k in range(8)]
    calls = []

    def flaky(prec):
        calls.append(prec)
        for k, entry in enumerate(scaled_entries(entries, prec)):
            if k == 4 and len(calls) == 1:
                raise KeyboardInterrupt
            yield entry

    builder = partial(scaled_entries, entries)
    seed = next(s for s in range(100) if _first_word(s) > (5 << 64) // 9)
    thresholds = _ThresholdSet(flaky)
    with pytest.raises(KeyboardInterrupt):
        thresholds.locate(SplitMix64(seed))
    assert len(thresholds._ends) == 2 * 4
    for s in (seed, *range(20)):
        _draw_both(builder, s, 30, thresholds)
    assert len(thresholds._ends) == 2 * len(entries) and len(calls) == 2
    # the builder of a list table raises before it yields anything
    failures = []

    def failing_list(prec):
        if not failures:
            failures.append(prec)
            raise MemoryError
        return scaled_entries(entries, prec)

    thresholds = _ThresholdSet(failing_list)
    with pytest.raises(MemoryError):
        thresholds.locate(SplitMix64(seed))
    _draw_both(builder, seed, 30, thresholds)


def _as_fractions(entries, prec: int) -> list:
    """Integer entries (outcome, lo, hi) at scale 2^prec as exact Fractions."""
    one = 1 << prec
    return [(outcome, Fraction(lo, one), Fraction(hi, one)) for outcome, lo, hi in entries]


def _as_endpoints(entries) -> list:
    return [(outcome, iv.lo, iv.hi) for outcome, iv in entries]


def test_component_entries_match_rounded_products():
    # the integer form of (Z/(1-Z) * cumulative weight).rounded(prec), over
    # the partitions of sizes 1 .. sizes_cap and no further
    ud, qd, prec = Fraction(2, 3) ** 2, Fraction(9), 320
    z = glasymptotics.suq_normalizer(ud, qd, prec=prec)
    ratio = z / z.one_minus()
    cum = Fraction(0)
    expected = []
    for m in range(1, 7):
        for lam in glasymptotics.enumerate_partitions(m):
            cum += glasymptotics.suq_weight(ud, qd, lam)
            expected.append(((lam, m), (ratio * cum).rounded(prec)))
    assert _as_fractions(_component_entries(ud, qd, 6, prec), prec) == _as_endpoints(expected)


@pytest.mark.parametrize("u", [None, Fraction(1, 2)])
@pytest.mark.parametrize("n,q", [(20, 3), (16, 2), (5, 3)])
def test_component_entries_match_fraction_running_sum(n, q, u):
    # the integer numerator over b^cap P^2 gives every entry the Fraction
    # running sum of suq_weight gives, drained to the cap at every degree
    u = u if u is not None else _rejection_u(n)
    for d in range(1, n + 1):
        ud, qd = u**d, Fraction(q) ** d
        assert list(_component_entries(ud, qd, n // d, DEFAULT_PREC)) == \
            list(component_entries_fraction(ud, qd, n // d, DEFAULT_PREC)), d


@pytest.mark.parametrize("u", [Fraction(1, 2), Fraction(9, 10), Fraction(2)])
def test_component_entries_at_a_rational_q(u):
    # q^d = (5/2)^d: e > 1, so e^(sum lam_i^2) and the gaps c^h - e^h are
    # not those of an integer q
    for d in range(1, 4):
        ud, qd = u**d, Fraction(5, 2) ** d
        for prec in (DEFAULT_PREC, DEFAULT_PREC << 1):
            assert list(_component_entries(ud, qd, 12 // d, prec)) == \
                list(component_entries_fraction(ud, qd, 12 // d, prec)), (d, prec)


def test_component_gap_product_that_does_not_divide_raises(monkeypatch):
    # with every hook counted twice the gap product of (1), (3 - 1)^2, does
    # not divide P = 3 - 1: the builder refuses the entry, not rounds it
    hook_lengths = glasymptotics._hook_lengths
    monkeypatch.setattr(glasymptotics, "_hook_lengths", lambda lam: hook_lengths(lam) * 2)
    with pytest.raises(ArithmeticError):
        next(_component_entries(Fraction(1, 2), Fraction(3), 1, DEFAULT_PREC))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [3, 8, 13, 20])
def test_count_entries_match_fraction_products(n, q, monkeypatch):
    # the binomial tail and the powers on integer endpoints give every entry
    # the Fraction form gives, at every degree; the acceptance probability,
    # which multiplies the count tables' first entries, is unchanged when
    # pow_int is the Fraction form's
    u = _rejection_u(n)
    for d in range(1, n + 1):
        ud, qd = u**d, Fraction(q) ** d
        n_labels = glirreps.cuspidal_count(d, q)
        max_count = min(n_labels, n // d)
        for prec in (DEFAULT_PREC, DEFAULT_PREC << 1):
            assert _as_fractions(_count_entries(ud, qd, n_labels, max_count, prec), prec) == \
                _as_endpoints(count_entries_fraction(ud, qd, n_labels, max_count, prec)), (d, prec)
    rate = acceptance_probability(n, q)
    monkeypatch.setattr(Interval, "pow_int", pow_int_fraction)
    assert rate == acceptance_probability(n, q)


@pytest.mark.parametrize("n,q", [(5, 2), (8, 3), (20, 3)])
def test_integer_ends_match_interval_entries(n, q):
    # every table of a plan, grown to its end from the integer entries, holds
    # the 64-bit ends the Interval entries give: the running maxima of their
    # endpoints floored and ceiled at 64 bits
    u = _rejection_u(n)
    plans = glasymptotics._plan(n, q, u)
    for plan in plans:
        ud, qd = u**plan.d, Fraction(q) ** plan.d
        max_count = min(plan.n_labels, n // plan.d)
        for table, entries in (
            (plan.count_thresholds,
             count_entries_fraction(ud, qd, plan.n_labels, max_count, DEFAULT_PREC)),
            (plan.component_thresholds,
             component_entries_interval(ud, qd, n // plan.d, DEFAULT_PREC)),
        ):
            while table._grow():
                pass
            assert table._ends == threshold_ends_reference(entries), plan.d


@pytest.mark.parametrize("n,q", [(n, q) for q in (2, 3) for n in range(20, 0, -1)])
def test_z_power_product_matches_fraction_loop(n, q, pin_u):
    # the acceptance probability's running product of the count tables'
    # first entries, on integer endpoints, rounds each factor
    # Z(u^d, q^d)^(N_d) as the Fraction product rounded outward does, at
    # every size the sampler takes, at the rule's u and at a pinned one
    for u in (None, Fraction(1, 2)):
        pin_u(u)
        u = glasymptotics._rejection_u(n)
        assert acceptance_probability(n, q) == \
            z_power_product_fraction(range(1, n + 1), q, u, DEFAULT_PREC) \
            * (u**n / q_pochhammer(q, n)), u


@pytest.mark.parametrize("n,q,u,count", [
    (2, 2, None, 200), (5, 3, None, 100), (12, 2, None, 60), (20, 3, None, 30),
    (2, 2, Fraction(1, 2), 200), (5, 3, Fraction(1, 2), 40),
    (16, 2, None, 60), (20, 3, Fraction(9, 10), 20),
])
def test_count_phase_reads_the_stream_locate_reads(n, q, u, count, pin_u):
    # every phase of an attempt decides from the tables in its own loop and
    # draws a single index by one randrange; a sampler calling locate per
    # table and _draw_indices per degree must draw the same families from
    # the same words, in as many attempts
    pin_u(u)
    for seed in (0, 1, 9):
        fast, slow = GLPlancherelSampler(n, q, seed), LocateSampler(n, q, seed)
        for _ in range(count):
            assert fast.sample().descriptor() == slow.sample().descriptor()
        assert fast.attempts == slow.attempts
        assert fast.rng._state == slow.rng._state


def _outcome(phi):
    return None if phi is None else phi.descriptor()


@pytest.mark.parametrize("n,q,u", [(16, 2, Fraction(1, 2)), (20, 3, Fraction(1, 2))])
def test_attempts_at_low_acceptance_read_the_stream_locate_reads(n, q, u, pin_u):
    # at u = 1/2 most count words fall below their degree's cut, but an
    # attempt is accepted only about 1.5e-5 (16,2) and 6.5e-7 (20,3) of the
    # time, so the two samplers are compared attempt by attempt, not sample
    # by sample
    pin_u(u)
    for seed in (0, 1, 9):
        fast, slow = GLPlancherelSampler(n, q, seed), LocateSampler(n, q, seed)
        for _ in range(10000):
            assert _outcome(fast._attempt()) == _outcome(slow._attempt())
            assert fast.rng._state == slow.rng._state


def test_every_plan_keeps_its_count_cut():
    # the cut is the count table's first 64-bit end, read when the plan is
    # made, and the gap below it decides count 0: every default plan, and
    # a few at other u
    keys = [(n, q, _rejection_u(n)) for n in range(1, 21) for q in (2, 3)]
    keys += [(16, 2, Fraction(1, 2)), (20, 3, Fraction(1, 2)), (5, 3, Fraction(9, 10))]
    for n, q, u in keys:
        for plan in glasymptotics._plan(n, q, u):
            counts = plan.count_thresholds
            assert plan.empty_below == counts._ends[0], (n, q, u, plan.d)
            assert counts._slots[0] == 0 and counts._slots[0] is not False, (n, q, u, plan.d)


def test_table_ends_do_not_depend_on_the_precision(pin_prec):
    # every 64-bit end of every count and component table a default plan
    # holds, read whole by _grow at DEFAULT_PREC, is the one read at twice
    # that and at 320 bits: the precision decides no draw
    builders = [(n, q, plan.d, kind, table._builder)
                for q in (2, 3) for n in range(1, SAMPLE_N_LIMIT + 1)
                for plan in glasymptotics._plan(n, q, _rejection_u(n))
                for kind, table in (("count", plan.count_thresholds),
                                    ("component", plan.component_thresholds))]

    def ends(prec):
        pin_prec(prec)
        out = []
        for *_, builder in builders:
            table = _ThresholdSet(builder)
            while table._grow():
                pass
            out.append(table._ends)
        return out

    expected = ends(DEFAULT_PREC)
    for prec in (DEFAULT_PREC << 1, 320):
        for key, want, got in zip(builders, expected, ends(prec)):
            assert got == want, (prec, *key[:4])


@pytest.mark.parametrize("q", [2, 3])
def test_samples_do_not_depend_on_the_precision(q, pin_prec):
    # a seeded grid of samplers draws the same families, with the same
    # attempts and words, from tables built at 320 bits
    def run():
        out = []
        for n in (1, 2, 5, 9, 14, 20):
            for seed in (0, 11):
                sampler = GLPlancherelSampler(n, q, seed)
                families = [sampler.sample().descriptor() for _ in range(4)]
                out.append((families, sampler.attempts, sampler.rng._state))
        return out

    expected = run()
    pin_prec(320)
    assert run() == expected


def _scripted(seed: int, words: dict) -> SplitMix64:
    """SplitMix64(seed) with its words at the positions in words replaced:
    the state still counts every word handed out."""
    rng = SplitMix64(seed)
    rng._refill()
    for i, word in words.items():
        rng._words[-1 - i] = word
    return rng


@pytest.mark.parametrize("n,q,u", [(20, 3, None), (16, 2, None), (8, 3, Fraction(1, 2))])
def test_count_word_at_the_cut_reads_the_stream_locate_reads(n, q, u, monkeypatch, pin_u):
    # a count word equal to the cut is not below it: it is bisected, lands
    # in the first threshold's straddle and goes to the scan; the cut - 1 is
    # count 0.  Either way the attempt draws what locate draws.  The count
    # words are the first n words, one per degree.
    pin_u(u)
    u = glasymptotics._rejection_u(n)
    cuts = [plan.empty_below for plan in glasymptotics._plan(n, q, u)]
    scans = []
    scan = _ThresholdSet._scan
    monkeypatch.setattr(_ThresholdSet, "_scan", lambda self, u: scans.append(1) or scan(self, u))
    for at, below in ((0, 1), (1, 0), (n - 1, 0), (0, n - 1)):
        for seed in range(4):
            words = {at: cuts[at], below: cuts[below] - 1}
            fast = GLPlancherelSampler(n, q, seed)
            slow = LocateSampler(n, q, seed)
            fast.rng, slow.rng = _scripted(seed, words), _scripted(seed, words)
            scans.clear()
            phi = fast._attempt()
            assert scans  # the word at the cut went to the scan
            assert _outcome(phi) == _outcome(slow._attempt())
            assert fast.rng._state == slow.rng._state
            for _ in range(3):
                assert fast.sample().descriptor() == slow.sample().descriptor()
            assert fast.attempts == slow.attempts
            assert fast.rng._state == slow.rng._state


def test_count_phase_straddles_read_the_stream_locate_reads(monkeypatch):
    # count enclosures widened by 2^-(prec - DEFAULT_PREC + 8), 1/256 at
    # DEFAULT_PREC, so that first words often land inside one and the loop
    # hands them to _settle and the scan; the draws must still be locate's
    count_entries = glasymptotics._count_entries

    def widened(*args):
        *head, prec = args
        w = 1 << (DEFAULT_PREC - 8)  # 2^-(prec - DEFAULT_PREC + 8) at scale 2^prec
        return [(j, max(0, lo - w), hi + w) for j, lo, hi in count_entries(*head, prec)]

    scans = []
    scan = _ThresholdSet._scan
    monkeypatch.setattr(glasymptotics, "_count_entries", widened)
    monkeypatch.setattr(_ThresholdSet, "_scan", lambda self, u: scans.append(1) or scan(self, u))
    glasymptotics._plan.cache_clear()
    try:
        for n, q, seed in ((8, 2, 3), (6, 3, 4)):
            fast, slow = GLPlancherelSampler(n, q, seed=seed), LocateSampler(n, q, seed=seed)
            for _ in range(40):
                assert fast.sample().descriptor() == slow.sample().descriptor()
            assert fast.attempts == slow.attempts
            assert fast.rng._state == slow.rng._state
    finally:
        glasymptotics._plan.cache_clear()
    assert len(scans) > 100


def test_component_table_grows_only_where_draws_land():
    sampler = GLPlancherelSampler(20, 3, seed=4)
    for _ in range(3):
        sampler.sample()
    first = sampler.plans[0].component_thresholds
    assert 0 < len(first._ends) // 2 < sum(partition_count(m) for m in range(1, 21))
    # a second sampler with the same (n, q) reads the same tables
    again = GLPlancherelSampler(20, 3, seed=5)
    assert again.plans is sampler.plans


@pytest.mark.parametrize("n,q", [(2, 2), (3, 3), (6, 2)])
def test_component_table_ends_at_its_cap(n, q):
    # a degree-d plan draws partitions of size <= n // d; a word past them is
    # a rejection, decided on that table, not a larger partition
    sampler = GLPlancherelSampler(n, q, seed=8)
    for _ in range(200):
        sampler.sample()
    for plan in sampler.plans:
        read = plan.component_thresholds
        while read._grow():
            pass
        sizes = [size for lam, size in read._slots[:-1:2]]
        assert sizes == [lam.size for lam, _ in read._slots[:-1:2]]
        assert sizes == [m for m in range(1, n // plan.d + 1) for _ in range(partition_count(m))]


def test_caches_are_bounded():
    caches = (glirreps.cuspidal_count, glirreps.order_gl, glasymptotics.suq_normalizer,
              glasymptotics._plan)
    for fn in caches:
        maxsize = fn.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0, fn.__name__


def test_threads_sharing_tables_draw_what_one_thread_draws():
    # cold shared tables grown from six threads at once at a 1 us switch
    # interval must give every sampler the draws it gets alone
    jobs = [(7, 2, seed) for seed in range(3)] + [(8, 3, seed) for seed in range(3)]

    def run(n, q, seed):
        sampler = GLPlancherelSampler(n, q, seed=seed)
        return [phi.descriptor() for phi in (sampler.sample() for _ in range(15))], sampler.attempts

    expected = [run(*job) for job in jobs]
    results = [None] * len(jobs)

    def work(i):
        results[i] = run(*jobs[i])

    glasymptotics._plan.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == expected
