"""The CLI's exit-code contract over generated argvs.

Every command runs in-process through cli.main with each numeric option at
-1, 0, 1, 2, each module limit it meets and one past it, and 10^30: one
option at a time from a small base argv, then a fixed number of argvs that
draw every option at once from a seeded random.Random.  Each argv must exit
0, 2 or 3 (4 only from gl-sample, whose sampler may reach its attempt cap,
and 1 only from gl-cycle-index --check, whose MISMATCH exits 1), with no
exception escaping main; an exit past 0 prints exactly one stderr line with
its documented prefix, and a refusal (exit 2 or 3) takes at most
REFUSAL_BUDGET seconds of this process's CPU time.  The argvs that today's
caps accept but that run for seconds are left out by _long_run, each with
its reason.  The test starts no process and no thread.
"""

import contextlib
import io
import random
import time

from repwalk import characters, cli, glasymptotics, glirreps, series, snwalk
from repwalk.cli import main

BIG = 10**30
SEED = 32
RANDOM_ARGVS = 500
# CPU seconds: a refusal, and every argv of the test together.  The slowest
# refusal measured took 8 ms and all the argvs 1-2 s (2-core Xeon, Python 3.11)
REFUSAL_BUDGET = 0.2
TOTAL_BUDGET = 8.0

PREFIXES = {2: "usage error:", 3: "capacity error:", 4: "sampler error:"}
SN_SIZES = (snwalk.EXACT_KERNEL_LIMIT, snwalk.FLOAT_LIMIT)
SAMPLING = {"--count": (cli.MAX_SAMPLE_COUNT,), "--seed": (), "--threads": (cli.MAX_THREADS,)}

# per command: its numeric options with the module limits whose boundary
# values they take, the base argv the options vary from one at a time, and
# the flag sets every argv runs with
GRAMMAR = {
    "characters": ({"--n": (characters.DEFAULT_TABLE_LIMIT,)}, {"--n": 3},
                   ([], ["--format", "json"])),
    "sn-walk": ({"--n": SN_SIZES, "--r": (snwalk.MAX_WALK_STEPS,)}, {"--n": 3, "--r": 2},
                (["--exact"], ["--float"], ["--start", "2+1"])),
    "sn-tv-curve": ({"--n": SN_SIZES, "--rmax": (snwalk.MAX_WALK_STEPS,)},
                    {"--n": 3, "--rmax": 2}, (["--exact"], ["--float"])),
    "sn-cutoff": ({"--n": SN_SIZES, "--c": ()}, {"--n": 3, "--c": 0}, ([],)),
    "sn-sample": ({"--n": (snwalk.SAMPLER_N_LIMIT,), "--r": (snwalk.MAX_WALK_STEPS,), **SAMPLING},
                  {"--n": 3, "--r": 2, "--count": 2, "--seed": 1, "--threads": 1}, ([],)),
    "sn-rsk": ({"--n": (snwalk.SAMPLER_N_LIMIT,), "--r": (snwalk.MAX_WALK_STEPS,), **SAMPLING},
               {"--n": 3, "--r": 2, "--count": 2, "--seed": 1, "--threads": 1}, ([],)),
    "sn-moments": ({"--n": (characters.DEFAULT_TABLE_LIMIT,), "--r": (snwalk.MAX_WALK_STEPS,),
                    "--samples": (cli.MAX_SAMPLE_COUNT,), "--seed": (),
                    "--threads": (cli.MAX_THREADS,)},
                   {"--n": 3, "--r": 2, "--samples": 2, "--seed": 1, "--threads": 1}, ([],)),
    "gl-irreps": ({"--n": (glirreps.DEFAULT_ENUM_N,), "--q": (glirreps.DEFAULT_ENUM_Q,)},
                  {"--n": 2, "--q": 2}, ([],)),
    "gl-counts": ({"--n": (), "--q": ()}, {"--n": 2, "--q": 2}, ([],)),
    "gl-bound": ({"--n": (), "--q": (), "--r": ()}, {"--n": 2, "--q": 2, "--r": 2}, ([],)),
    "gl-lower": ({"--n": (glirreps.DEFAULT_ENUM_N,), "--q": (glirreps.DEFAULT_ENUM_Q,), "--c": ()},
                 {"--n": 2, "--q": 2, "--c": 1}, ([],)),
    "gl-sample": ({"--n": (glasymptotics.SAMPLE_N_LIMIT,), "--q": (glasymptotics.SAMPLE_Q_LIMIT,),
                   **SAMPLING},
                  {"--n": 2, "--q": 2, "--count": 2, "--seed": 1, "--threads": 1}, ([],)),
    "gl-cycle-index": ({"--q": (), "--order": (series.ORDER_LIMIT,)}, {"--q": 2, "--order": 2},
                       ([], ["--check"])),
    "hsp": ({"--n": (characters.DEFAULT_TABLE_LIMIT,)}, {"--n": 3},
            ([], ["--gens", "(1 2)"], ["--format", "csv"])),
}

# the ranges the samplers accept, besides the seed, which takes any int
_SAMPLER_RANGES = {
    "sn-sample": {"--n": (1, snwalk.SAMPLER_N_LIMIT), "--r": (0, snwalk.MAX_WALK_STEPS)},
    "sn-rsk": {"--n": (1, snwalk.SAMPLER_N_LIMIT), "--r": (0, snwalk.MAX_WALK_STEPS)},
    # r past 1000 passes the exact moments' digit cap at every n >= 2
    "sn-moments": {"--n": (2, characters.DEFAULT_TABLE_LIMIT), "--r": (0, 1000)},
    "gl-sample": {"--n": (1, glasymptotics.SAMPLE_N_LIMIT),
                  "--q": (2, glasymptotics.SAMPLE_Q_LIMIT)},
}


def _values(limits):
    """-1, 0, 1, 2, each limit and one past it, and 10^30."""
    return sorted({-1, 0, 1, 2, BIG, *limits, *(x + 1 for x in limits)})


def _long_run(command, opts, flags):
    """Why the caps accept this argv but the test leaves it out, or None."""
    n = opts.get("--n")
    if command == "sn-tv-curve" and "--float" in flags and 2 <= n <= snwalk.FLOAT_LIMIT:
        if opts["--rmax"] == snwalk.MAX_WALK_STEPS:
            # a float curve takes a step and prints a row per r: 10^5 rows
            # took 0.7 s at n = 2, 2.3 s at n = 19 and 5 s at n = 21, and
            # run past 100 s at n = 40
            return "a float curve to MAX_WALK_STEPS"
    ranges = _SAMPLER_RANGES.get(command)
    if ranges is None or not 1 <= opts["--threads"] <= cli.MAX_THREADS:
        return None
    if not all(lo <= opts[k] <= hi for k, (lo, hi) in ranges.items()):
        return None
    count = opts.get("--count", opts.get("--samples"))
    if count == cli.MAX_SAMPLE_COUNT:
        # 10^5 samples took 0.4-0.6 s at n = 3 and 1.5 s from gl-sample at
        # (2, 2), and far longer at the size caps
        return "a sample count at its cap"
    if command == "sn-rsk" and count * opts["--r"] * n >= 10**9:
        # each top-to-random move shifts a deck of n cards: one deck at
        # n = SAMPLER_N_LIMIT and r = MAX_WALK_STEPS took 0.57 s
        return "a million card moves per deck"
    return None


def _argvs():
    """The argvs of the test, each once: every option at each of its values
    from the base argv, then RANDOM_ARGVS with every option drawn at once."""
    draws = []
    for command, (options, base, flag_sets) in GRAMMAR.items():
        for opt, limits in options.items():
            for value in _values(limits):
                draws += [(command, {**base, opt: value}, flags) for flags in flag_sets]
    rng = random.Random(SEED)
    for _ in range(RANDOM_ARGVS):
        command = rng.choice(sorted(GRAMMAR))
        options, _, flag_sets = GRAMMAR[command]
        opts = {opt: rng.choice(_values(limits)) for opt, limits in options.items()}
        draws.append((command, opts, rng.choice(flag_sets)))
    argvs = {}
    for command, opts, flags in draws:
        if _long_run(command, opts, flags) is None:
            argv = [command, *(str(x) for kv in opts.items() for x in kv), *flags]
            argvs[tuple(argv)] = None
    return [list(argv) for argv in argvs]


def test_generated_argvs_keep_the_exit_code_contract():
    argvs = _argvs()
    assert len(argvs) == 631  # distinct argvs, the long runs left out
    total = 0.0
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        started = time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # an exception escaping main fails the test here
        spent = time.process_time() - started
        total += spent
        allowed = {0, 2, 3} | {"gl-sample": {4}, "gl-cycle-index": {1}}.get(argv[0], set())
        assert code in allowed, (argv, code, err.getvalue())
        if code == 1:  # gl-cycle-index --check prints its MISMATCH rows
            assert "MISMATCH" in out.getvalue(), argv
        elif code:
            lines = err.getvalue().splitlines()
            assert [line for line in lines if PREFIXES[code] in line] == lines[-1:], (argv, lines)
        if code in (2, 3):
            assert spent <= REFUSAL_BUDGET, (argv, spent)
    assert total <= TOTAL_BUDGET, total
