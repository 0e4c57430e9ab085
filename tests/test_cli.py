import collections
import dataclasses
import hashlib
import json
import math
import sys
import time
from fractions import Fraction

import pytest

from repwalk import characters, cli, glasymptotics, snwalk
from repwalk.cli import build_parser, main
from repwalk.errors import CapacityError, SamplerError
from repwalk.glasymptotics import GLPlancherelSampler
from repwalk.glirreps import fixed_space_counts, gl_upper_bound, gl_upper_bound_squared
from repwalk.hsp import hsp_bounds
from repwalk.partitions import Partition, dimension_sn, enumerate_partitions
from repwalk.snwalk import (
    EXACT_KERNEL_LIMIT,
    FLOAT_LIMIT,
    _ExactEngine,
    MAX_WALK_STEPS,
    SAMPLER_N_LIMIT,
    plancherel_samples,
    rsk_samples,
    tv_to_plancherel,
    walk_distribution,
    walk_samples,
)

from oracles import exact_law_tv, float_tv_gap


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_unknown_flag_usage_error(capsys):
    assert main(["sn-walk", "--n", "3", "--bogus"]) == 2


def test_missing_subcommand_usage_error():
    assert main([]) == 2


def test_capacity_exit_code(tmp_path):
    code, _ = run(tmp_path, "characters", "--n", "20")
    assert code == 3


def test_precondition_exit_code(tmp_path):
    code, _ = run(tmp_path, "sn-walk", "--n", "3", "--r", "-1")
    assert code == 2


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["sn-sample", "--n", "6", "--r", "3", "--count", "50",
                     "--seed", "9", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_characters_csv(tmp_path):
    code, text = run(tmp_path, "characters", "--n", "3")
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("# repwalk")
    assert "partition,3,2+1,1+1+1" in lines
    assert "2+1,-1,0,2" in lines


def test_characters_json(tmp_path):
    code, text = run(tmp_path, "characters", "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["n"] == 4
    assert len(doc["rows"]) == 5


def test_sn_walk_masses(tmp_path):
    code, text = run(tmp_path, "sn-walk", "--n", "3", "--r", "1")
    assert code == 0
    assert "3,1/3" in text and "2+1,2/3" in text and "1+1+1,0" in text


def test_sn_walk_float_has_error_bound(tmp_path):
    code, text = run(tmp_path, "sn-walk", "--n", "6", "--r", "3", "--float")
    assert code == 0
    assert "float error bound" in text


def test_sn_tv_curve_monotone(tmp_path):
    code, text = run(tmp_path, "sn-tv-curve", "--n", "8", "--rmax", "30")
    assert code == 0
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#") and not line.startswith("r,")]
    assert len(rows) == 30
    tvs = [eval_fraction(r[1]) for r in rows]
    assert all(a >= b for a, b in zip(tvs, tvs[1:]))
    bounds = [float(r[2]) for r in rows]
    assert all(float(t) <= b + 1e-15 for t, b in zip(tvs, bounds))


def eval_fraction(text):
    from fractions import Fraction

    return Fraction(text)


def test_sn_cutoff(tmp_path):
    code, text = run(tmp_path, "sn-cutoff", "--n", "8", "--c", "1")
    assert code == 0
    row = [l for l in text.splitlines() if not l.startswith("#")][1].split(",")
    r, bound, tv = int(row[0]), float(row[1]), float(row[2])
    assert r == 17
    assert tv <= bound


def test_sn_rsk(tmp_path):
    code, text = run(tmp_path, "sn-rsk", "--n", "6", "--r", "2", "--count", "5",
                     "--seed", "4")
    assert code == 0
    assert len([l for l in text.splitlines() if not l.startswith("#")]) == 6


def test_sn_moments_agreement(tmp_path):
    code, text = run(tmp_path, "sn-moments", "--n", "6", "--r", "3")
    assert code == 0
    rows = [l.split(",") for l in text.splitlines()
            if l and not l.startswith("#") and not l.startswith("s,")]
    by_s = {}
    for s, method, value, reduced in rows:
        by_s.setdefault(s, set()).add(reduced)
    assert all(len(vals) == 1 for vals in by_s.values())


def test_gl_irreps_output(tmp_path):
    code, text = run(tmp_path, "gl-irreps", "--n", "2", "--q", "2")
    assert code == 0
    assert "1.0:1+1,2,2/3" in text
    assert "2.0:1,1,1/6" in text


def test_gl_counts(tmp_path):
    code, text = run(tmp_path, "gl-counts", "--n", "2", "--q", "2")
    assert code == 0
    assert "0,2" in text and "1,3" in text and "2,1" in text


def test_gl_bound_value(tmp_path):
    code, text = run(tmp_path, "gl-bound", "--n", "4", "--q", "2", "--r", "5")
    assert code == 0
    row = [l for l in text.splitlines() if not l.startswith("#")][1].split(",")
    assert float(row[1]) <= 0.25


def test_gl_lower(tmp_path):
    code, text = run(tmp_path, "gl-lower", "--n", "2", "--q", "2", "--c", "1")
    assert code == 0
    assert "1/6" in text


def test_gl_sample_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["gl-sample", "--n", "2", "--q", "2", "--count", "10",
                     "--seed", "5", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "attempts" in a.read_text()


def test_gl_cycle_index_check(tmp_path):
    code, text = run(tmp_path, "gl-cycle-index", "--q", "2", "--order", "4",
                     "--check")
    assert code == 0
    assert "MISMATCH" not in text
    assert "euler" in text


    assert "euler" in text


def test_gl_cycle_index_none_rows_check_the_euler_coefficient(tmp_path, monkeypatch):
    # both sides wrong in the same way: the unipotent rows compare them with
    # each other and pass, the none rows compare each with 1/(1/q)_k and fail
    def doubled(polys):
        return [tuple(2 * c for c in poly) if k == 2 else poly for k, poly in enumerate(polys)]

    lhs, rhs = cli.cycle_index_lhs, cli.cycle_index_rhs
    monkeypatch.setattr(cli, "cycle_index_lhs", lambda depth, q: doubled(lhs(depth, q)))
    monkeypatch.setattr(cli, "cycle_index_rhs", lambda q, depth: doubled(rhs(q, depth)))
    code, text = run(tmp_path, "gl-cycle-index", "--q", "3", "--order", "4", "--check")
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == "check,order,status"
    rows = {(check, order): status for check, order, status in (l.split(",") for l in lines[1:])}
    assert code == 1
    assert rows[("none", "2")] == "MISMATCH"
    assert [rows[("none", str(k))] for k in (0, 1, 3)] == ["OK"] * 3
    assert all(rows[("unipotent", str(k))] == "OK" for k in range(4))
    assert rows[("euler", "4")] == "OK"


def test_gl_cycle_index_compares_the_euler_sides_exactly(tmp_path, monkeypatch):
    # one right-side coefficient off by 10^-40: the 10^-30 tolerance that the
    # stabilized partial product needed printed OK, the exact comparison not
    sides = cli.euler_lhs_rhs

    def perturbed(q, order):
        lhs, rhs = sides(q, order)
        coeffs = list(rhs.coeffs)
        coeffs[3] += Fraction(1, 10**40)
        return lhs, dataclasses.replace(rhs, coeffs=tuple(coeffs))

    monkeypatch.setattr(cli, "euler_lhs_rhs", perturbed)
    code, text = run(tmp_path, "gl-cycle-index", "--q", "2", "--order", "6", "--check")
    assert code == 1
    assert text.splitlines()[-1] == "euler,6,MISMATCH"


# gl-cycle-index at its caps: one sha256 over (argv, exit code, stdout) of
# every run, recorded while the Euler side was a stabilized partial product
# and the cycle index a sum of suq_weight over every partition
CYCLE_INDEX_GRID_SHA256 = "b8d0d69e6565323685e02f698d4c15b2baab086e7285030290858d34baaed188"


def test_gl_cycle_index_grid_golden(capsys):
    digest = hashlib.sha256()
    for q in (2, 3, 4, 16):
        for order in (0, 1, 6, 12, 20, 30):
            for check in ([], ["--check"]) if q <= 4 else ([],):
                argv = ["gl-cycle-index", "--q", str(q), "--order", str(order), *check]
                code, out = _main_stdout(capsys, argv)
                digest.update(repr((argv, code, out)).encode())
    assert digest.hexdigest() == CYCLE_INDEX_GRID_SHA256


def test_hsp_json(tmp_path):
    code, text = run(tmp_path, "hsp", "--n", "3", "--gens", "(1 2)")
    assert code == 0
    doc = json.loads(text)
    assert doc["tv"] == "1/6"
    assert doc["subgroup_order"] == 2
    assert {p["class"]: p["intersection"] for p in doc["per_class"]} == {
        "3": 0, "2+1": 1, "1+1+1": 1,
    }


def test_hsp_csv_reads_no_sampling_distribution(capsys, monkeypatch):
    # the per-partition mass strings are the JSON document's alone
    reads = []

    class Watched(dict):
        def items(self):
            reads.append(1)
            return super().items()

    def watched_bounds(H):
        bounds = hsp_bounds(H)
        return bounds._replace(law=dataclasses.replace(bounds.law, masses=Watched(bounds.law.masses)))

    monkeypatch.setattr(cli, "hsp_bounds", watched_bounds)
    argv = ["hsp", "--n", "5", "--gens", "(1 2 3)"]
    assert main([*argv, "--format", "csv"]) == 0
    assert reads == [] and "# tv: " in capsys.readouterr().out
    assert main([*argv, "--format", "json"]) == 0
    assert reads == [1] and json.loads(capsys.readouterr().out)["sampling_distribution"]


@pytest.mark.parametrize("gens,same", [
    ("(1,2)", "(1 2)"),
    ("(1,2),(3,4)", "(1 2),(3 4)"),
    ("(1,2,3),(4 5)", "(1 2 3),(4 5)"),
])
def test_hsp_commas_inside_a_cycle(capsys, gens, same):
    # only commas outside parentheses separate generators; "(1,2)" exited 2
    # with "bad cycle notation: '(1'"
    assert _main_stdout(capsys, ["hsp", "--n", "5", "--gens", gens]) == \
        _main_stdout(capsys, ["hsp", "--n", "5", "--gens", same])


@pytest.mark.parametrize("n,c", [(13, "-0.5"), (15, "0.5"), (18, "0.5"), (18, "3")])
def test_sn_cutoff_exact_up_to_kernel_limit(capsys, n, c):
    # sn-cutoff runs the exact walk for n <= EXACT_KERNEL_LIMIT and prints
    # float() of the exact rational TV
    assert n <= EXACT_KERNEL_LIMIT
    code, out = _main_stdout(capsys, ["sn-cutoff", "--n", str(n), "--c", c])
    r, _, tv, _ = out.splitlines()[-1].split(",")
    exact = tv_to_plancherel(walk_distribution(n, int(r), mode="exact"))
    assert code == 0 and isinstance(exact, Fraction)
    assert tv == repr(float(exact))
    if (n, c) == (18, "0.5"):
        assert tv == "0.07177072618859481"  # the float walk printed ...479


def test_threads_flag_accepted(tmp_path):
    code, text = run(tmp_path, "sn-sample", "--n", "5", "--r", "2",
                     "--count", "8", "--seed", "1", "--threads", "2")
    assert code == 0
    assert len([l for l in text.splitlines() if not l.startswith("#")]) == 9


def test_threads_cap_usage_error(tmp_path):
    # rejected while parsing, before any seed stream is split or sampled
    for cmd in (["sn-sample", "--n", "5", "--r", "2"], ["sn-moments", "--n", "5", "--r", "2"],
                ["gl-sample", "--n", "2", "--q", "2"]):
        for value in ("100000", "0"):
            assert main([*cmd, "--threads", value]) == 2


def test_sampler_failure_exit_code(tmp_path, monkeypatch, capsys):
    # the attempt cap raises SamplerError, which the CLI maps to exit code 4
    def reject(self):
        self.attempts += 1

    monkeypatch.setattr(GLPlancherelSampler, "_attempt", reject)
    monkeypatch.setattr(glasymptotics, "DEFAULT_ATTEMPT_CAP", 3)
    sampler = GLPlancherelSampler(2, 2)
    with pytest.raises(SamplerError, match="within 3 attempts"):
        sampler.sample()
    assert sampler.attempts == 3

    def give_up(self):
        raise SamplerError("no acceptance within 1 attempts")

    monkeypatch.setattr(GLPlancherelSampler, "sample", give_up)
    code, _ = run(tmp_path, "gl-sample", "--n", "2", "--q", "2", "--count", "3")
    assert code == 4
    assert "no acceptance" in capsys.readouterr().err


def test_self_check_failure_exit_code(monkeypatch, capsys):
    # an internal exact check that fails raises ArithmeticError, which the
    # CLI maps to exit code 1 with a "check failed:" line, not a traceback
    def broken(n, q):
        raise ArithmeticError("Plancherel masses do not sum to 1")

    monkeypatch.setattr(cli, "plancherel_gl", broken)
    assert main(["gl-irreps", "--n", "2", "--q", "2"]) == 1
    captured = capsys.readouterr()
    assert "check failed: Plancherel masses do not sum to 1" in captured.err.splitlines()
    assert "Traceback" not in captured.err


def test_internal_zero_division_is_a_failed_check(capsys, monkeypatch):
    # no argument reaches a division by zero, so one raised inside a command
    # is an internal arithmetic fault: exit 1, not a usage error
    def broken(n, q):
        raise ZeroDivisionError("dividing by an interval containing 0")

    monkeypatch.setattr(cli, "acceptance_probability", broken)
    assert main(["gl-sample", "--n", "2", "--q", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "check failed: dividing by an interval containing 0" in captured.err.splitlines()
    assert "usage error" not in captured.err


@pytest.mark.parametrize("argv", [
    ["gl-irreps", "--n", "1000", "--q", "2"],
    ["gl-irreps", "--n", "10000", "--q", "2"],
    ["gl-irreps", "--n", str(10**30), "--q", "3"],
])
def test_gl_irreps_refuses_before_the_group_order(capsys, argv):
    # |GL(1000, 2)| took 0.8 s before the enumeration refused the size, and
    # n = 10**4 or 10**30 ran past 3 s
    started = time.process_time()
    assert main(argv) == 3
    assert time.process_time() - started < 0.2
    assert "GL family enumeration" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sn-sample", "--n", "10", "--r", "12", "--count"],
    ["sn-rsk", "--n", "10", "--r", "12", "--count"],
    ["gl-sample", "--n", "20", "--q", "3", "--count"],
    ["sn-moments", "--n", "12", "--r", "30", "--samples"],
])
def test_sample_counts_past_the_cap_are_refused(capsys, argv):
    # every sample is held in memory until printed, so a count one past
    # MAX_SAMPLE_COUNT exits 3 before any stream is split or drawn (and
    # before sn-moments' exact moments), within a fixed CPU budget; the cap
    # takes the README's largest example, 100000 shapes
    assert cli.MAX_SAMPLE_COUNT >= 100000
    started = time.process_time()
    assert main([*argv, str(cli.MAX_SAMPLE_COUNT + 1)]) == 3
    assert time.process_time() - started < 0.2
    assert "capacity error: sample count" in capsys.readouterr().err


# the longest float curve the caps allow at n = 21, recorded while its
# l2_bound column multiplied ever-longer exact integers at every row, which
# took 58.8 s of CPU time on a 2-core Xeon with Python 3.11
LONG_FLOAT_CURVE_SHA256 = "2b78556597a7157c44410d13834ffbd22ffb72d43054eebc88553bf23bc9a5a1"


def test_long_float_curve_is_linear_in_rmax(capsys):
    # from r = 7458 on the column repeats the least positive double with no
    # integer work, so the 10^5 rows keep their bytes and take about 5 s,
    # most of it the float steps
    started = time.process_time()
    code, out = _main_stdout(capsys, ["sn-tv-curve", "--n", "21", "--rmax", "100000", "--float"])
    assert time.process_time() - started < 10
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LONG_FLOAT_CURVE_SHA256


def _main_stdout(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def _fresh_stdout(capsys, argv):
    args = build_parser().parse_args(argv)
    code = args.func(args)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("with_flags,without", [
    (["sn-walk", "--n", "5", "--r", "3", "--start", "3+2"],
     ["sn-walk", "--n", "5", "--r", "3"]),
    (["gl-sample", "--n", "3", "--q", "2", "--count", "4", "--threads", "2"],
     ["gl-sample", "--n", "3", "--q", "2", "--count", "4"]),
    (["sn-sample", "--n", "6", "--r", "4", "--count", "6", "--threads", "2"],
     ["sn-sample", "--n", "6", "--r", "4", "--count", "6"]),
])
def test_parser_reuse_keeps_no_state(capsys, with_flags, without):
    # main parses with one parser per process; optional flags of one call
    # must not leak into the next
    assert cli._parser() is cli._parser()
    first = _main_stdout(capsys, with_flags)
    second = _main_stdout(capsys, without)
    assert first == _fresh_stdout(capsys, with_flags)
    assert second == _fresh_stdout(capsys, without)
    assert first[0] == second[0] == 0
    assert first[1] != second[1]
    assert main(["sn-walk", "--n", "3", "--bogus"]) == 2
    assert main([*without, "--threads", "0"]) == 2
    assert _main_stdout(capsys, without) == second


# gl-sample stdout as produced when every enclosure was built from pow_int
# factor powers and the exact Euler product, without shared caches.
# Re-recorded when an attempt stopped drawing the word that decided whether
# every label of degree > n is empty, an event independent of the families
# it accepts: every family list, attempt count and predicted rate (now the
# product over degrees <= n alone) moved
GL_SAMPLE_GOLDEN = {
    ("--n", "4", "--q", "2", "--count", "5", "--seed", "11"): """\
# repwalk 0.1.0
# command: gl-sample count=5 n=4 q=2 seed=11 threads=1
# attempts: 31
# predicted acceptance rate: 0.12259840725576249
index,family
0,1.0:2+1+1
1,1.0:2;2.0:1
2,1.0:1+1+1+1
3,1.0:2+1+1
4,1.0:1+1+1+1
""",
    # recorded when --u was deleted, by the commit before it: the argv of a
    # --u 1/2 golden, at the u the rule gives at n = 3
    ("--n", "3", "--q", "3", "--count", "4", "--seed", "2"): """\
# repwalk 0.1.0
# command: gl-sample count=4 n=3 q=3 seed=2 threads=1
# attempts: 45
# predicted acceptance rate: 0.13347364037813972
index,family
0,3.3:1
1,3.7:1
2,1.0:1+1+1
3,1.0:1;1.1:1+1
""",
    ("--n", "6", "--q", "2", "--count", "5", "--seed", "7", "--threads", "2"): """\
# repwalk 0.1.0
# command: gl-sample count=5 n=6 q=2 seed=7 threads=2
# attempts: 34
# predicted acceptance rate: 0.08299887123275719
index,family
0,1.0:2+1;3.1:1
1,1.0:1;2.0:1;3.1:1
2,1.0:1+1+1;3.1:1
3,1.0:1+1+1;3.1:1
4,1.0:2+1+1;2.0:1
""",
    ("--n", "12", "--q", "3", "--count", "3", "--seed", "5"): """\
# repwalk 0.1.0
# command: gl-sample count=3 n=12 q=3 seed=5 threads=1
# attempts: 62
# predicted acceptance rate: 0.03749574702092509
index,family
0,1.0:1+1;5.3:1;5.7:1
1,12.13624:1
2,1.0:1+1;2.2:1;3.0:1;5.33:1
""",
    # the largest sizes the sampler takes, where every degree's tables are
    # longest; the attempts line pins the rejected attempts as well
    ("--n", "20", "--q", "3", "--count", "25", "--seed", "232508330"): """\
# repwalk 0.1.0
# command: gl-sample count=25 n=20 q=3 seed=232508330 threads=1
# attempts: 1345
# predicted acceptance rate: 0.022674347250278212
index,family
0,9.300:1;11.10266:1
1,1.1:1;5.4:1;14.10905:1
2,4.2:1;16.1242602:1
3,1.0:1+1;2.1:1;2.2:1;3.1:1;11.4607:1
4,1.0:1+1;1.1:1;2.2:1;5.38:1;10.2056:1
5,1.1:1;2.0:1;2.1:1;3.0:1;12.19430:1
6,1.0:2+1;4.9:1;4.13:1;9.15:1
7,3.1:1;4.10:1;5.44:1;8.795:1
8,1.0:1;2.0:1;17.6396591:1
9,1.1:1;4.13:1;7.248:1;8.280:1
10,1.0:1+1;18.17778235:1
11,5.0:1;15.842160:1
12,1.0:1;1.1:1;3.1:1;4.3:1;11.4521:1
13,1.0:1;1.1:1;4.6:1;14.285905:1
14,1.0:1;2.0:1+1;2.1:1;5.12:1;8.602:1
15,1.1:1;19.50588867:1
16,1.0:1;1.1:1;7.15:1;11.5178:1
17,1.0:1;1.1:1+1+1+1+1+1;2.0:1;2.2:1;9.1566:1
18,1.1:1;4.0:1;15.543765:1
19,2.1:1+1;16.515654:1
20,1.1:1+1;4.6:1;14.82728:1
21,3.2:1;4.13:1;13.121159:1
22,5.29:1;15.564865:1
23,1.0:1+1;1.1:1;4.15:1;6.39:1;7.154:1
24,1.0:1;1.1:1;6.5:1;12.29139:1
""",
    ("--n", "17", "--q", "2", "--count", "30", "--seed", "5"): """\
# repwalk 0.1.0
# command: gl-sample count=30 n=17 q=2 seed=5 threads=1
# attempts: 1394
# predicted acceptance rate: 0.028068073405368685
index,family
0,1.0:1;2.0:1;14.1136:1
1,1.0:1+1;2.0:1;13.173:1
2,1.0:1+1+1+1;2.0:1;3.0:1;3.1:1;5.1:1
3,1.0:2;5.4:1;10.93:1
4,1.0:1;3.0:1;4.0:1;9.21:1
5,1.0:1+1+1;2.0:1;12.243:1
6,1.0:2+1+1+1+1;2.0:1;4.2:1;5.4:1
7,1.0:1+1;3.0:1;12.176:1
8,1.0:1+1;15.578:1
9,1.0:1;16.2427:1
10,1.0:2+1+1;2.0:1;11.172:1
11,1.0:1+1;4.0:1;11.19:1
12,1.0:1+1+1;4.1:1;10.37:1
13,1.0:1+1;2.0:1;3.1:1;4.0:1;6.5:1
14,1.0:1+1;15.1990:1
15,1.0:2+1+1+1+1+1;10.47:1
16,1.0:1+1;4.1:1;11.132:1
17,1.0:2+1;6.8:1;8.10:1
18,1.0:1+1+1+1+1;5.0:1;7.2:1
19,1.0:1+1;15.1758:1
20,1.0:3+1;13.310:1
21,1.0:3+1;2.0:1;11.2:1
22,1.0:1+1+1;14.667:1
23,1.0:2+1;3.1:1;11.82:1
24,1.0:1+1+1;4.1:1;10.77:1
25,2.0:1+1;6.4:1;7.8:1
26,1.0:1+1+1+1+1+1+1+1;3.1:1;6.7:1
27,1.0:1+1+1+1+1+1;3.0:1;8.11:1
28,1.0:1;7.1:1;9.27:1
29,1.0:1+1+1;2.0:1+1;3.0:1;7.3:1
""",
}


@pytest.mark.parametrize("argv", sorted(GL_SAMPLE_GOLDEN))
def test_gl_sample_golden(capsys, argv):
    assert _main_stdout(capsys, ["gl-sample", *argv]) == (0, GL_SAMPLE_GOLDEN[argv])


# sampler stdout recorded when --threads ran its seed streams on a thread
# pool; running them in turn must print the same bytes.  The sn-sample and
# sn-moments --samples entries were re-recorded, with the streams run in
# turn, when walk_samples began to draw as a coupon count plus Plancherel
# growth, and again when it began to draw as the RSK shape of a shuffle
# whose first n - K entries are sorted: each reads the words differently.
# Only the partitions and the empirical rows moved; the sn-rsk entries are
# the pool's bytes
THREADS_GOLDEN = {
    ('sn-sample', '--n', '9', '--r', '12', '--count', '7', '--seed', '5', '--threads', '1'): """\
# repwalk 0.1.0
# command: sn-sample count=7 n=9 r=12 seed=5 threads=1
index,partition
0,4+3+1+1
1,4+2+2+1
2,4+3+1+1
3,4+2+1+1+1
4,6+3
5,3+2+1+1+1+1
6,5+2+2
""",
    ('sn-rsk', '--n', '8', '--r', '11', '--count', '7', '--seed', '4', '--threads', '1'): """\
# repwalk 0.1.0
# command: sn-rsk count=7 n=8 r=11 seed=4 threads=1
index,partition
0,3+2+2+1
1,4+3+1
2,4+2+1+1
3,6+2
4,5+2+1
5,4+3+1
6,4+2+1+1
""",
    ('sn-moments', '--n', '7', '--r', '9', '--samples', '10', '--seed', '2', '--threads', '1'): """\
# repwalk 0.1.0
# command: sn-moments n=7 r=9 samples=10 seed=2 threads=1
s,method,value,reduced_exact
1,transfer,0.2217978470725213,1953125/40353607
1,direct,0.2217978470725213,1953125/40353607
1,closed,0.2217978470725213,1953125/40353607
2,transfer,1.069839357854677,6167411/121060821
2,direct,1.069839357854677,6167411/121060821
2,closed,1.069839357854677,6167411/121060821
1,empirical,0.458257569495584,
2,empirical,0.5571428571428572,
""",
    ('sn-sample', '--n', '9', '--r', '12', '--count', '7', '--seed', '5', '--threads', '2'): """\
# repwalk 0.1.0
# command: sn-sample count=7 n=9 r=12 seed=5 threads=2
index,partition
0,4+3+1+1
1,4+2+2+1
2,4+3+1+1
3,4+2+1+1+1
4,4+4+1
5,4+2+1+1+1
6,4+3+2
""",
    ('sn-rsk', '--n', '8', '--r', '11', '--count', '7', '--seed', '4', '--threads', '2'): """\
# repwalk 0.1.0
# command: sn-rsk count=7 n=8 r=11 seed=4 threads=2
index,partition
0,3+2+2+1
1,4+3+1
2,4+2+1+1
3,6+2
4,3+3+1+1
5,5+2+1
6,3+2+2+1
""",
    ('sn-moments', '--n', '7', '--r', '9', '--samples', '10', '--seed', '2', '--threads', '2'): """\
# repwalk 0.1.0
# command: sn-moments n=7 r=9 samples=10 seed=2 threads=2
s,method,value,reduced_exact
1,transfer,0.2217978470725213,1953125/40353607
1,direct,0.2217978470725213,1953125/40353607
1,closed,0.2217978470725213,1953125/40353607
2,transfer,1.069839357854677,6167411/121060821
2,direct,1.069839357854677,6167411/121060821
2,closed,1.069839357854677,6167411/121060821
1,empirical,0.2182178902359923,
2,empirical,1.0476190476190474,
""",
    ('sn-sample', '--n', '9', '--r', '12', '--count', '7', '--seed', '5', '--threads', '3'): """\
# repwalk 0.1.0
# command: sn-sample count=7 n=9 r=12 seed=5 threads=3
index,partition
0,4+3+1+1
1,4+2+2+1
2,4+3+1+1
3,4+4+1
4,4+2+1+1+1
5,5+2+1+1
6,3+2+2+1+1
""",
    ('sn-rsk', '--n', '8', '--r', '11', '--count', '7', '--seed', '4', '--threads', '3'): """\
# repwalk 0.1.0
# command: sn-rsk count=7 n=8 r=11 seed=4 threads=3
index,partition
0,3+2+2+1
1,4+3+1
2,4+2+1+1
3,3+3+1+1
4,5+2+1
5,4+2+2
6,3+3+1+1
""",
    ('sn-moments', '--n', '7', '--r', '9', '--samples', '10', '--seed', '2', '--threads', '3'): """\
# repwalk 0.1.0
# command: sn-moments n=7 r=9 samples=10 seed=2 threads=3
s,method,value,reduced_exact
1,transfer,0.2217978470725213,1953125/40353607
1,direct,0.2217978470725213,1953125/40353607
1,closed,0.2217978470725213,1953125/40353607
2,transfer,1.069839357854677,6167411/121060821
2,direct,1.069839357854677,6167411/121060821
2,closed,1.069839357854677,6167411/121060821
1,empirical,0.08728715609439693,
2,empirical,0.8952380952380953,
""",
}


@pytest.mark.parametrize("argv", sorted(THREADS_GOLDEN))
def test_threads_split_golden(capsys, argv):
    assert _main_stdout(capsys, list(argv)) == (0, THREADS_GOLDEN[argv])


BAD_ARGUMENTS = [
    (["sn-cutoff", "--n", "10", "--c", "inf"], "argument --c: must be finite, got inf"),
    (["sn-cutoff", "--n", "10", "--c", "-inf"], "argument --c: expected one argument"),
    (["sn-cutoff", "--n", "10", "--c", "nan"], "argument --c: must be finite, got nan"),
    (["sn-rsk", "--n", "0", "--r", "2"], "n must be positive"),
    (["sn-sample", "--n", "5", "--r", "-1"], "argument --r: must be non-negative, got -1"),
    (["sn-rsk", "--n", "5", "--r", "-1"], "argument --r: must be non-negative, got -1"),
    (["sn-sample", "--n", "5", "--r", "2", "--count", "-2"],
     "the sample count must be non-negative, got -2"),
    (["sn-rsk", "--n", "5", "--r", "2", "--count", "-2"],
     "the sample count must be non-negative, got -2"),
    (["gl-sample", "--n", "2", "--q", "2", "--count", "-2"],
     "the sample count must be non-negative, got -2"),
    (["sn-moments", "--n", "5", "--r", "2", "--samples", "-1"],
     "the sample count must be non-negative, got -1"),
    # r < 0, and exp(800) overflows
    (["sn-cutoff", "--n", "10", "--c", "-400"], "r must be non-negative"),
    # --exact and --float only
    (["sn-walk", "--n", "5", "--r", "3", "--mode", "float"],
     "unrecognized arguments: --mode float"),
    # the table cap is fixed
    (["characters", "--n", "13", "--exact-limit", "13"],
     "unrecognized arguments: --exact-limit 13"),
    # below the walk's range: these named the n-part partition (0,) or the
    # transposition class of S_1, each checked after the size
    (["sn-walk", "--n", "0", "--r", "1", "--float"], "the walk needs n >= 2"),
    (["sn-tv-curve", "--n", "0", "--rmax", "1"], "the walk needs n >= 2"),
    (["sn-tv-curve", "--n", "-4", "--rmax", "1", "--float"], "the walk needs n >= 2"),
    (["sn-moments", "--n", "1", "--r", "1"], "the walk needs n >= 2"),
    (["sn-moments", "--n", "0", "--r", "1"], "the walk needs n >= 2"),
    # below the samplers' range, refused before the count is split
    (["sn-sample", "--n", "0", "--r", "1"], "n must be positive"),
    (["sn-sample", "--n", "-2", "--r", "1"], "n must be positive"),
    (["sn-sample", "--n", "0", "--r", "1", "--count", "0"], "n must be positive"),
    (["sn-rsk", "--n", "0", "--r", "1", "--count", "0"], "n must be positive"),
    (["gl-sample", "--n", "0", "--q", "2", "--count", "0"], "n must be positive"),
    (["gl-sample", "--n", "0", "--q", "2", "--count", "1"], "n must be positive"),
    (["gl-sample", "--n", "-3", "--q", "2", "--count", "0"], "n must be positive"),
    # q < 2 on every GL command, refused while parsing; these printed
    # Fraction(1, 0) or named an internal check
    (["gl-irreps", "--n", "2", "--q", "1"], "argument --q: must be at least 2, got 1"),
    (["gl-counts", "--n", "2", "--q", "0"], "argument --q: must be at least 2, got 0"),
    (["gl-bound", "--n", "2", "--q", "1", "--r", "2"], "argument --q: must be at least 2, got 1"),
    (["gl-lower", "--n", "2", "--q", "-5", "--c", "1"], "argument --q: must be at least 2, got -5"),
    (["gl-sample", "--n", "2", "--q", "1", "--count", "0"],
     "argument --q: must be at least 2, got 1"),
    (["gl-cycle-index", "--q", "1"], "argument --q: must be at least 2, got 1"),
    # c * n overflows to -inf, which math.ceil could not take
    (["sn-cutoff", "--n", "30", "--c=-1e308"], "r must be non-negative"),
    # a point in two cycles of one generator, which was refused only later
    # as "not a permutation of 0..4: (1, 2, 1, 3, 4)"
    (["hsp", "--n", "5", "--gens", "(1 2)(2 3)"], "point 2 is in two cycles of '(1 2)(2 3)'"),
    # a trailing comma added the identity as a generator
    (["hsp", "--n", "3", "--gens", "(1 2),"], "empty generator in '(1 2),'"),
    # an unclosed parenthesis split at the comma and named half a cycle,
    # "bad cycle notation: '(1'"
    (["hsp", "--n", "3", "--gens", "(1,2"], "unbalanced parentheses in '(1,2'"),
    (["hsp", "--n", "3", "--gens", "(1 2)),(2 3)"], "unbalanced parentheses in '(1 2)),(2 3)'"),
    # an empty start walked from (n), where "-" and the library refuse it
    (["sn-walk", "--n", "5", "--r", "2", "--start", ""], "partition - has size 0, expected 5"),
    (["sn-walk", "--n", "5", "--r", "2", "--start", "", "--float"],
     "partition - has size 0, expected 5"),
    # these named only the token int() refused, "invalid literal for int()
    # with base 10: ''" and "... '(1'"
    (["sn-walk", "--n", "5", "--r", "1", "--start", "5+"], "bad partition '5+'"),
    (["hsp", "--n", "4", "--gens", "((1 2))"], "bad cycle notation: '((1 2))'"),
    # u is a rule of n, no longer an option
    (["gl-sample", "--n", "3", "--q", "2", "--count", "1", "--u", "1/2"],
     "unrecognized arguments: --u 1/2"),
]


@pytest.mark.parametrize("argv,message", BAD_ARGUMENTS,
                         ids=[f"argv{i}" for i in range(len(BAD_ARGUMENTS))])
def test_bad_argument_usage_error(capsys, argv, message):
    # exit 2 with a usage error line: no traceback, no empty table
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert any(line.endswith(f"usage error: {message}") for line in captured.err.splitlines())
    assert "Traceback" not in captured.err


def test_sampler_argument_checks():
    for sample in (walk_samples, rsk_samples):
        for n in (0, -2):
            with pytest.raises(ValueError, match="n must be positive"):
                sample(n, 2, 0, 1)
        with pytest.raises(ValueError):
            sample(5, -1, 1, 1)
        assert sample(5, 0, 2, 1) == [Partition((5,))] * 2
    assert plancherel_samples(0, 2, 1) == [Partition(())] * 2
    with pytest.raises(ValueError, match="n must be non-negative"):
        plancherel_samples(-1, 0, 1)
    # the GL sampler's own check, whatever is drawn afterwards
    with pytest.raises(ValueError, match="n must be positive"):
        GLPlancherelSampler(0, 2)
    for n, q in ((21, 2), (2, 4)):
        with pytest.raises(CapacityError, match="GL Plancherel sampler"):
            GLPlancherelSampler(n, q)
    with pytest.raises(ValueError):
        cli._split(-2, 0, 1)
    assert cli._split(0, 0, 3) == []


@pytest.mark.parametrize("argv", [
    ["sn-walk", "--n", "5", "--r", "-1"],
    ["sn-tv-curve", "--n", "5", "--rmax", "-1"],
    ["sn-sample", "--n", "5", "--r", "-1", "--count", "0"],
    ["sn-rsk", "--n", "5", "--r", "-1", "--count", "0"],
    ["sn-moments", "--n", "5", "--r", "-1", "--samples", "0"],
])
def test_negative_steps_rejected_while_parsing(capsys, argv):
    # rejected before any stream is split, so a run that draws nothing
    # rejects it too, on a line that names the flag
    assert main(argv) == 2
    captured = capsys.readouterr()
    flag = argv[argv.index("-1") - 1]
    assert captured.out == ""
    assert f"usage error: argument {flag}: must be non-negative, got -1" in captured.err


@pytest.mark.parametrize("argv", [
    ["sn-cutoff", "--n", "20", "--c", "1e9"],
    ["sn-walk", "--n", "20", "--r", "100000000", "--float"],
    ["sn-tv-curve", "--n", "12", "--rmax", str(MAX_WALK_STEPS + 1), "--exact"],
    ["sn-sample", "--n", "5", "--r", "1000000000", "--count", "1"],
    ["sn-rsk", "--n", "5", "--r", "1000000000", "--count", "1"],
    ["sn-moments", "--n", "5", "--r", "1000000000", "--samples", "1"],
])
def test_step_cap_capacity_error(capsys, argv):
    # one capacity error before any step is taken, not a run until killed
    started = time.monotonic()
    assert main(argv) == 3
    assert time.monotonic() - started < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "capacity error: walk steps: requested" in captured.err


def test_step_cap_boundary():
    for sample in (walk_samples, rsk_samples):
        assert sample(5, MAX_WALK_STEPS, 0, 1) == []
        with pytest.raises(CapacityError):
            sample(5, MAX_WALK_STEPS + 1, 0, 1)
    for mode in ("exact", "float"):
        with pytest.raises(CapacityError):
            walk_distribution(6, MAX_WALK_STEPS + 1, mode=mode)


@pytest.mark.parametrize("argv,refusal", [
    (["sn-sample", "--n", "320000", "--r", "1", "--count", "1"], "sampler size: requested 320000"),
    (["sn-sample", "--n", "320000", "--r", "1", "--count", "0"], "sampler size: requested 320000"),
    (["sn-rsk", "--n", "320000", "--r", "1", "--count", "1"], "sampler size: requested 320000"),
    (["sn-rsk", "--n", str(SAMPLER_N_LIMIT + 1), "--r", "1", "--count", "0"],
     f"sampler size: requested {SAMPLER_N_LIMIT + 1}"),
    (["gl-cycle-index", "--q", "2", "--order", "1000"], "series order: requested 1000"),
    (["gl-cycle-index", "--q", "2", "--order", "31", "--check"], "series order: requested 31"),
    (["gl-cycle-index", "--q", "17", "--order", "30"],
     "series order * log2(q): requested 122.62 exceeds limit 120"),
    (["gl-cycle-index", "--q", "1000000", "--order", "30", "--check"],
     "series order * log2(q): requested 597.95 exceeds limit 120"),
    (["gl-cycle-index", "--q", "1000", "--order", "13"],
     "series order * log2(q): requested 129.56 exceeds limit 120"),
    (["gl-sample", "--n", "25", "--q", "2", "--count", "0"],
     "GL Plancherel sampler: requested (25, 2) exceeds limit (20, 3)"),
    (["gl-sample", "--n", "2", "--q", "5", "--count", "0"],
     "GL Plancherel sampler: requested (2, 5) exceeds limit (20, 3)"),
    # c * n overflows to +inf, which math.ceil could not take
    (["sn-cutoff", "--n", "30", "--c", "1e308"],
     f"walk steps: requested inf exceeds limit {MAX_WALK_STEPS}"),
    (["sn-cutoff", "--n", "2", "--c", "1e308"],
     f"walk steps: requested inf exceeds limit {MAX_WALK_STEPS}"),
    (["sn-cutoff", "--n", "40", "--c", "5e306"],
     f"walk steps: requested inf exceeds limit {MAX_WALK_STEPS}"),
    # the size cap before the output digits, as sn-walk --exact has it
    (["sn-tv-curve", "--n", "19", "--rmax", "5000", "--exact"],
     "exact kernel: requested 19 exceeds limit 18"),
    (["sn-moments", "--n", "13", "--r", "5000"], "character table: requested 13 exceeds limit 12"),
])
def test_size_caps_capacity_error(capsys, argv, refusal):
    # refused before any work, even when nothing would be drawn
    started = time.monotonic()
    assert main(argv) == 3
    assert time.monotonic() - started < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"capacity error: {refusal}" in captured.err


def _must_not_run(*args, **kwargs):
    raise AssertionError("called before the refusal")


@pytest.mark.parametrize("argv,slow,code,refusal", [
    (["hsp", "--n", str(10**7), "--gens", "(1 2)"], "subgroup_closure", 3,
     "capacity error: character table: requested 10000000"),
    (["sn-walk", "--n", "5", "--r", "1", "--exact", "--start", "300000"],
     "repwalk.snwalk.partition_id", 2, "usage error: partition 300000 has size 300000, expected 5"),
    (["sn-walk", "--n", "100000", "--r", "1", "--exact", "--start", "100000"],
     "repwalk.snwalk.partition_id", 3, "capacity error: exact kernel: requested 100000"),
    (["sn-moments", "--n", str(10**7), "--r", "1"], "Partition", 3,
     "capacity error: character table: requested 10000000"),
    (["sn-cutoff", "--n", "10", "--c", "-400"], "math.exp", 2,
     "usage error: r must be non-negative"),
])
def test_refused_before_the_slow_call(capsys, monkeypatch, argv, slow, code, refusal):
    # each was refused only after its slow step: 3 s for the n-part
    # partition, 44 s for the hook product of 300000 boxes, over 120 s for
    # the closure at n = 4 * 10**6; sn-cutoff overflowed in exp(-2c) and
    # exited 1 with a traceback.  sn-walk --start reads d_s off the engine
    # at the id partition_id gives, which _walk_start asks for last
    monkeypatch.setattr(slow if slow.startswith("repwalk.") else f"repwalk.cli.{slow}",
                        _must_not_run)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert refusal in captured.err


@pytest.mark.parametrize("n,code,refusal", [
    (10**400, 3, f"capacity error: float kernel: requested {10**400} exceeds limit {FLOAT_LIMIT}"),
    (FLOAT_LIMIT + 1, 3, f"capacity error: float kernel: requested {FLOAT_LIMIT + 1}"),
    (10**6, 3, "capacity error: float kernel: requested 1000000"),
    (0, 2, "usage error: the walk needs n >= 2"),
    (-3, 2, "usage error: the walk needs n >= 2"),
], ids=["10**400", "FLOAT_LIMIT+1", "10**6", "0", "-3"])
def test_sn_cutoff_checks_n_before_r(capsys, monkeypatch, n, code, refusal):
    # r = ceil(n log(n)/2 + c n) is formed only for a walk that can run:
    # n = 10**400 exited 1 with an OverflowError traceback, n = 0 and -3
    # with "usage error: math domain error", and n = 10**6 past the step cap
    monkeypatch.setattr("repwalk.cli.math.log", _must_not_run)
    assert main(["sn-cutoff", "--n", str(n), "--c", "0"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert refusal in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["sn-walk", "--n", "1", "--r", "3", "--float"],
    ["sn-walk", "--n", "1", "--r", "3", "--exact"],
    ["sn-tv-curve", "--n", "1", "--rmax", "3", "--float"],
], ids=["sn-walk-float", "sn-walk-exact", "sn-tv-curve-float"])
def test_walk_at_n1_refused_in_both_modes(capsys, argv):
    # the float walk printed a law at n = 1 where the exact one refused, and
    # sn-tv-curve built the float engine before refusing; from an empty
    # cache, no engine is built
    snwalk._float_engine.cache_clear()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: the walk needs n >= 2" in captured.err
    assert snwalk._float_engine.cache_info().currsize == 0


def test_characters_command_line(capsys):
    # the line echoes the parsed flags, and no removed one
    code, out = _main_stdout(capsys, ["characters", "--n", "3"])
    assert code == 0
    assert out.splitlines()[1] == "# command: characters format=csv n=3"


def test_negative_order_rejected_while_parsing(capsys):
    assert main(["gl-cycle-index", "--q", "2", "--order", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: argument --order: must be non-negative, got -1" in captured.err


@pytest.mark.parametrize("argv", [
    ["sn-walk", "--n", "6", "--r", "6000", "--exact"],
    ["sn-tv-curve", "--n", "6", "--rmax", "6000", "--exact"],
    ["sn-moments", "--n", "6", "--r", "9000"],
    ["gl-bound", "--n", "3", "--q", "2", "--r", "100000"],
    ["gl-lower", "--n", "20000", "--q", "2", "--c", "20000"],
])
def test_exact_output_digit_limit_fails_fast(capsys, argv):
    # each ran for 0.8 to 17 s before str() refused its output as a usage error
    started = time.monotonic()
    assert main(argv) == 3
    assert time.monotonic() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "capacity error: exact output digits: requested" in captured.err
    assert "usage error" not in captured.err


def test_exact_output_digit_limit_boundary(capsys):
    # 6^5525 has 4300 digits and 6^5526 has 4301: at Python's default limit
    # the longest walk from (6) whose masses str() prints is still printed;
    # the limit is read on every run, so a lower one refuses sooner
    limit = sys.get_int_max_str_digits()
    try:
        for digits, r in ((4300, 5525), (640, 822)):
            sys.set_int_max_str_digits(digits)
            assert main(["sn-walk", "--n", "6", "--r", str(r), "--exact"]) == 0
            capsys.readouterr()
            assert main(["sn-walk", "--n", "6", "--r", str(r + 1), "--exact"]) == 3
            assert "capacity error: exact output digits" in capsys.readouterr().err
    finally:
        sys.set_int_max_str_digits(limit)


def test_printed_digits_past_the_prediction_are_a_capacity_error(capsys):
    # the gl-lower tail bound sums about 50 terms 1/(q^m - 1), so its
    # denominator outgrows q^c long before q^c reaches the limit, and a
    # printed number that no prediction refused (c = 265 here) is refused as
    # a capacity error all the same; gl-counts is refused by its own
    # prediction of the group order, with the same message
    assert main(["gl-lower", "--n", "264", "--q", "2", "--c", "264"]) == 0
    capsys.readouterr()
    for argv in (["gl-lower", "--n", "265", "--q", "2", "--c", "265"],
                 ["gl-counts", "--n", "80", "--q", "5"]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "capacity error: printed digits: requested" in captured.err


@pytest.mark.parametrize("argv", [
    ["gl-counts", "--n", "200", "--q", "2"],
    ["gl-counts", "--n", "120", "--q", "5"],
    ["gl-counts", "--n", "2000", "--q", "3"],
    ["gl-lower", "--n", "14284", "--q", "2", "--c", "14284"],
    ["gl-lower", "--n", "9000", "--q", "3", "--c", "9000"],
    ["gl-bound", "--n", "200", "--q", "2", "--r", "1"],
])
def test_printed_digit_predictions_fail_fast(capsys, argv):
    # gl-counts ran 3 to 10 s and gl-lower --c 14284 2.8 s before str()
    # refused a number; the group order and the tail bound's denominator
    # are now bounded from the arguments first
    started = time.monotonic()
    assert main(argv) == 3
    assert time.monotonic() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "capacity error: printed digits: requested" in captured.err


@pytest.mark.parametrize("n,q,r", [(121, 2, 1), (122, 2, 2), (96, 3, 1), (80, 5, 1)])
def test_gl_bound_digit_prediction_is_a_lower_bound(capsys, monkeypatch, n, q, r):
    # (n, q, r) is the first n at which the prediction
    # (n^2 - 2rn) log10(q) - log10(32) passes the limit, so the square's
    # numerator does too, and gl-bound is refused before its fixed-space
    # counts; one n lower it is not refused before them
    limit = sys.get_int_max_str_digits()
    predicted = [(m - 2 * r) * m * math.log10(q) - 1.51 for m in (n - 1, n)]
    assert predicted[0] < limit <= predicted[1]
    assert gl_upper_bound_squared(n, q, r).numerator >= 10**limit
    for m in (n - 1, n):
        argv = ["gl-bound", "--n", str(m), "--q", str(q), "--r", str(r)]
        calls = []
        monkeypatch.setattr("repwalk.glirreps.fixed_space_counts",
                            lambda *a: calls.append(a) or fixed_space_counts(*a))
        code, out = _main_stdout(capsys, argv)
        if m < n:
            assert code == 0 and calls and out
        else:
            assert code == 3 and not calls and out == ""


@pytest.mark.parametrize("n,q,r", [(4, 2, 5), (40, 2, 1)])
def test_gl_bound_counts_fixed_spaces_once(capsys, monkeypatch, n, q, r):
    # gl-bound took its bound from gl_upper_bound and its square from
    # gl_upper_bound_squared, two fixed_space_counts passes an op; the bound
    # is now the root of the one square, inf past the double range
    calls = []
    monkeypatch.setattr("repwalk.glirreps.fixed_space_counts",
                        lambda *a: calls.append(a) or fixed_space_counts(*a))
    code, out = _main_stdout(capsys, ["gl-bound", "--n", str(n), "--q", str(q), "--r", str(r)])
    assert code == 0 and calls == [(n, q)]
    squared = gl_upper_bound_squared(n, q, r)
    assert out.splitlines()[-1] == f"{r},{gl_upper_bound(n, q, r)!r},{squared}"


def test_gl_bound_past_the_double_range_prints_inf(capsys):
    # the bound's square root raised OverflowError, reported as "check
    # failed" (exit 1); it is now inf, beside the exact square
    code, out = _main_stdout(capsys, ["gl-bound", "--n", "40", "--q", "2", "--r", "1"])
    assert code == 0
    assert out.splitlines()[-1] == f"1,inf,{gl_upper_bound_squared(40, 2, 1)}"


@pytest.mark.parametrize("n,c", [(3, 5), (30, 31), (0, 1)])
def test_gl_lower_refuses_a_negative_step_count(capsys, n, c):
    # r = n - c < 0: gl-lower --n 3 --q 2 --c 5 printed a TV bound of 1 at
    # r = -2 from the exact marginal, and n = 30 from the tail bound; c > n
    # is refused before the digit predictions, whatever c is
    assert main(["gl-lower", "--n", str(n), "--q", "2", "--c", str(c)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"usage error: c must be at most n (r = n - c steps), got c = {c} > n = {n}" \
        in captured.err


@pytest.mark.parametrize("n,c", [(2, "-0.35"), (40, "-1.845")])
def test_sn_cutoff_at_r0_prints_the_start_row(capsys, n, c):
    # the derived r is 0, which sn_upper_bound refused: exit 2 with "usage
    # error: need n >= 2 and r >= 1"; the row is now the point mass at (n):
    # TV 1 - 1/n! and L2 bound sqrt(n! - 1) / 2, rounded up to a double
    code, out = _main_stdout(capsys, ["sn-cutoff", "--n", str(n), "--c", c])
    assert code == 0
    r, _, tv, bound = out.splitlines()[-1].split(",")
    assert r == "0" and float(tv) <= float(bound)
    assert float(tv) == float(1 - Fraction(1, math.factorial(n)))
    squared = Fraction(math.factorial(n) - 1, 4)
    nearest = math.sqrt(squared)
    assert Fraction(bound) ** 2 >= squared
    assert float(bound) in (nearest, math.nextafter(nearest, math.inf))


def test_sn_walk_start_runs_each_refusal_once(capsys, monkeypatch):
    # an exact sn-walk --start ran _check_steps, _partition_of and
    # _check_walk in cli and again in snwalk's law helper, and took d_s for
    # its digit cap from dimension_sn's hook product; one gate
    # (_walk_start) now runs each once, and d_s is the engine's
    calls = collections.Counter()
    for name in ("_check_steps", "_partition_of", "_check_walk"):
        def counted(*args, _name=name, _f=getattr(snwalk, name)):
            calls[_name] += 1
            return _f(*args)
        for module in (cli, snwalk):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    start = Partition((5, 4, 2, 1))
    before = dimension_sn.cache_info()
    code, out = _main_stdout(capsys, ["sn-walk", "--n", "12", "--r", "7", "--start", "5+4+2+1"])
    assert code == 0
    assert dimension_sn.cache_info() == before
    assert calls == {"_check_steps": 1, "_partition_of": 1, "_check_walk": 1}
    masses = walk_distribution(12, 7, start).masses
    rows = [line.split(",") for line in out.splitlines()[3:]]
    assert {Partition.from_string(lam): Fraction(m) for lam, m in rows if m != "0"} == masses


@pytest.mark.parametrize("q,n,digits", [(3, 37, 653), (2, 56, 944), (2, 48, 694)])
def test_gl_counts_digit_prediction_is_exact(capsys, monkeypatch, q, n, digits):
    # |GL(n,q)| has `digits` digits (at (3, 37) and (2, 56) q^(n^2) has one
    # more): a limit of exactly `digits` still prints the table, one below
    # refuses it before the counts are computed; at (2, 48) the lower bound
    # q^(n^2) / 4 has only `digits` - 1 digits, so the order itself decides
    counted = []
    monkeypatch.setattr(cli, "fixed_space_counts", lambda *a: counted.append(a) or fixed_space_counts(*a))
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(digits)
        assert main(["gl-counts", "--n", str(n), "--q", str(q)]) == 0
        order = capsys.readouterr().out.split("# group order: ")[1].split()[0]
        assert len(order) == digits and len(counted) == 1
        sys.set_int_max_str_digits(digits - 1)
        assert main(["gl-counts", "--n", str(n), "--q", str(q)]) == 3
        assert "capacity error: printed digits" in capsys.readouterr().err
        assert len(counted) == 1
    finally:
        sys.set_int_max_str_digits(limit)


# stdout recorded when sn-walk, sn-cutoff and gl-lower looked masses up
# through WalkDistribution.mass and chose the gl-lower method in the CLI;
# long outputs are kept as the sha256 of their bytes.  Re-recorded since:
# sn-cutoff prints its float error bound, the float walk steps the
# lattice's count matrix (432 of the 490 masses at n=19 moved in their last
# digits, by at most 2.1e-17), and the walk steps the containment edges, two
# segment sums a step (286 of the 490 masses at n=19 and the TV at n=24
# moved, by at most 2.8e-17), and sn-cutoff sums its float TV as
# sn-tv-curve does (the TV at n=24 moved, by 6.9e-17).  Re-recorded when
# the float law at one r came to be one Horner pass over the lattice
# levels, with no step: the TV at n=24 moved by 4.2e-17 (3 ulp), and 358
# of the 490 masses at n=19 by at most 1.4e-17 (9.8e-16 relative);
# test_one_r_float_law_matches_the_stepped_law bounds every such move
LOOKUP_GOLDEN = {
    ("sn-walk", "--n", "6", "--r", "1", "--exact"): """\
# repwalk 0.1.0
# command: sn-walk mode=exact n=6 r=1
partition,mass
6,1/6
5+1,5/6
4+2,0
4+1+1,0
3+3,0
3+2+1,0
3+1+1+1,0
2+2+2,0
2+2+1+1,0
2+1+1+1+1,0
1+1+1+1+1+1,0
""",
    ("sn-cutoff", "--n", "24", "--c", "0.5"): """\
# repwalk 0.1.0
# command: sn-cutoff c=0.5 n=24
# accumulated float error bound: 8.0325e-10
r,cutoff_bound,tv,l2_bound
51,0.18393972058572117,0.07982168100451813,0.10536090622868025
""",
    ("sn-walk", "--n", "19", "--r", "20", "--float"):
        "6a65bb0b08a448eb4a1b7de1b1946d7226879aa064a2b0bc59ff9e18dc9bec2b",
    ("gl-lower", "--n", "5", "--q", "4", "--c", "2"):
        "ddc3198bc8c6ea2d5532819e13b71b406a27ea883d5cf883cf30d0186c97fdf2",
    ("gl-lower", "--n", "6", "--q", "2", "--c", "2"):
        "4d3cd73c265ad3530c4f91a273ab9156feae0f6977c30e8c308cf5083a2766f8",
    ("gl-lower", "--n", "5", "--q", "5", "--c", "1"):
        "8f9e5f97f2d5d348aea2d6b4af94848d6c90fe68e098fb53cddef9f35f39b5d6",
}


@pytest.mark.parametrize("argv", sorted(LOOKUP_GOLDEN))
def test_lookup_golden(capsys, argv):
    code, out = _main_stdout(capsys, list(argv))
    assert code == 0
    want = LOOKUP_GOLDEN[argv]
    if "\n" in want:
        assert out == want
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == want
    if argv[0] == "gl-lower":
        # enumerable at (5,4) only: (6,2) is past DEFAULT_ENUM_N, (5,5) past DEFAULT_ENUM_Q
        method = "exact-marginal" if argv[1:5] == ("--n", "5", "--q", "4") else "tail-bound"
        assert out.splitlines()[-1].split(",")[2] == method


# sn-walk stdout recorded while it printed each mass through a Fraction of
# walk_distribution, kept as the sha256 of its bytes.  The float walk was
# re-recorded when its law at one r came to be one Horner pass over the
# lattice levels, with no step: 331 of its 490 masses moved, by at most
# 1.0e-17 (5.8e-16 relative); the exact outputs stay
SN_WALK_GOLDEN = {
    ("sn-walk", "--n", "18", "--r", "22", "--exact"):
        "43a62d2b9bf18e9b96af09b70b0911b30fb8422951a0a8b4460d4a3459fcd86e",
    ("sn-walk", "--n", "12", "--r", "9", "--start", "5+4+2+1"):
        "4bb7925531301b3e98eb5e9888c369daf2a159a87c8413627e0ea6aa591e2e43",
    ("sn-walk", "--n", "19", "--r", "28", "--float", "--start", "7+5+4+2+1"):
        "8c58c60e8dac89e5055fb3360eb13988595c06f72d1aa357c15e2d483f4b3e6b",
}


@pytest.mark.parametrize("argv", sorted(SN_WALK_GOLDEN))
def test_sn_walk_golden(capsys, argv):
    code, out = _main_stdout(capsys, list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SN_WALK_GOLDEN[argv]


# stdout recorded while each character table was built entry by entry from
# the memoized Murnaghan-Nakayama recursion and checked row pair by row
# pair, kept as the sha256 of its bytes; each run starts from an empty
# table cache, so every table it reads is built from nothing
TABLE_GOLDEN = {
    ("characters", "--n", "1", "--format", "csv"):
        "e7f448850db65e07124684fee41c6b2684fb597ce0d96518c9e3f912abae2760",
    ("characters", "--n", "1", "--format", "json"):
        "2828cb866857253de4ccd3dc6edc3f429c458070e8169f9fb3b225aa342270fd",
    ("characters", "--n", "2", "--format", "csv"):
        "8b8e7fe187d0838a9fd8667eb7fd5bc9b6608b8494d6ed00f1a225456883db38",
    ("characters", "--n", "2", "--format", "json"):
        "661ac24a20b51e02fdb9a4eaeeb3f916379df5f535d6666be45576b02415dbfa",
    ("characters", "--n", "3", "--format", "csv"):
        "a2d192e68e96f7231ac29a47fc228c35ad5a57d9f931bfbfffa551ea278bbf00",
    ("characters", "--n", "3", "--format", "json"):
        "92a5b40bb4cc0139d79d1e221f72d90d398e945e34dac69b0c9776d32d734da2",
    ("characters", "--n", "4", "--format", "csv"):
        "a82155e9f975d264a1abba7009cefeacff71de2f2923e995f5d14827f1a4ad98",
    ("characters", "--n", "4", "--format", "json"):
        "9a7ae82ddce195f0591c728acfe3d8e6ec8be64fa4e981fb02153614df639a0b",
    ("characters", "--n", "5", "--format", "csv"):
        "0909d3d299b81a8b97ed52be0c4827e06a3a56ab2f96faa650dae52eb2cdf69d",
    ("characters", "--n", "5", "--format", "json"):
        "6ab27ee4fbc64922c1b1037adde5daa8323d64eb5e1838df588151202a2a5f27",
    ("characters", "--n", "6", "--format", "csv"):
        "ae20da73f2134fee0234f17d7f351dc2f3cffee757b2e365befa0e8d6b895a8f",
    ("characters", "--n", "6", "--format", "json"):
        "e785afc7802416833be44adf6589f42fa19d573afeac4d172857834a35edc3a7",
    ("characters", "--n", "7", "--format", "csv"):
        "a11f814a0330d5ae7630f55b354c83e5035ef0864a1646481379e815a42deda2",
    ("characters", "--n", "7", "--format", "json"):
        "44887eb9762ab069d291162c0f4ed8ebc512f8ce3cddc7ead6e1d4c43f952b29",
    ("characters", "--n", "8", "--format", "csv"):
        "7778f8ea2fa98082efad0127ea8067168bea711e084ba04857e6bcee9081e368",
    ("characters", "--n", "8", "--format", "json"):
        "738f9393fc4201e4f6483a0ef181f5b8d181f2522ebbe0e22170195d8eddd7cd",
    ("characters", "--n", "9", "--format", "csv"):
        "4430995d2c808e49c5a0a6937b59cc84d218d6b69e9c2cdab47c6ac89bd8c9c1",
    ("characters", "--n", "9", "--format", "json"):
        "0e944e55274f509275e35276b4235b885fe994d42550103065b78dff7ffe2d60",
    ("characters", "--n", "10", "--format", "csv"):
        "a5763b2d3ef7e01dd61dc8667506dc4dc9e8b6af0b7fb0c20c47dae3d80c1133",
    ("characters", "--n", "10", "--format", "json"):
        "10ebc09aa3898d9af420896268f333ff8765c3ac9fb0634e3eb303934641337d",
    ("characters", "--n", "11", "--format", "csv"):
        "6ce610423d7c265359344ffc8f4b22ae0a669b42f40e25473c28f9ad6c1819f5",
    ("characters", "--n", "11", "--format", "json"):
        "ec25e03cb0d06cf904c56570ef9fbbaddab1ee885319b4dad576ff13d5618313",
    ("characters", "--n", "12", "--format", "csv"):
        "10bf537e40e40c348a4ec039bfeccee222d576bbb4cbc2c3f89fa2e9a8317469",
    ("characters", "--n", "12", "--format", "json"):
        "83683d3f70d6f9aeadbd35e01e2dbdf8ae82991593a6e1a462473f0bb1047548",
    ("sn-moments", "--n", "12", "--r", "15"):
        "f6505e10c59843701ef47477b5644e1b7d3dbe8b974808b7926c9350870fe8e8",
    ("hsp", "--n", "12", "--gens", "(1 2 3 4),(5 6)(7 8 9)"):
        "534f6b3259b0a980058f9cbcb9263df0087b9ec80981adc3857f6997eb9e32d3",
}


@pytest.mark.parametrize("argv", sorted(TABLE_GOLDEN))
def test_table_golden(capsys, monkeypatch, argv):
    monkeypatch.setattr(characters, "_table_cache", {})
    code, out = _main_stdout(capsys, list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_GOLDEN[argv]


# sn-walk --exact stdout from the middle and the last partition, at r
# ceil(f ceil(n log(n) / 2)) for f = 0.75, 1.85 and 3, recorded while
# walks from a start other than (n) stepped r times, kept as the sha256 of
# its bytes: the row test below reads the same engine law on both sides
SN_WALK_START_GOLDEN = {
    ("sn-walk", "--n", "6", "--r", "5", "--exact", "--start", "3+2+1"):
        "4ffa827c765d987e68909983e74278e1f724101e8d824e9800cb768f152da56d",
    ("sn-walk", "--n", "6", "--r", "12", "--exact", "--start", "3+2+1"):
        "67913e6910d262ca7d6995cf4a809206c2142bddb594529149f4824631cbcaac",
    ("sn-walk", "--n", "6", "--r", "18", "--exact", "--start", "3+2+1"):
        "14eafcd23614191c52ead78d9bdeebf12769b464380ac32c0301e7377d8ab10b",
    ("sn-walk", "--n", "6", "--r", "5", "--exact", "--start", "1+1+1+1+1+1"):
        "646c862d47fe65a6898ec0c5d96d5e71ba9350849b5cf74e746ceb3464853743",
    ("sn-walk", "--n", "6", "--r", "12", "--exact", "--start", "1+1+1+1+1+1"):
        "24fe9d8bba0ac7c07ac17b8baf0f4f19f93d1f198c12f10419dc4e873007fe17",
    ("sn-walk", "--n", "6", "--r", "18", "--exact", "--start", "1+1+1+1+1+1"):
        "093832cb972937307f4573a556c09d30d637327c107e23155134338c15e702d8",
    ("sn-walk", "--n", "12", "--r", "12", "--exact", "--start", "5+3+1+1+1+1"):
        "2d0da87294fbd7f2c1f424f41f02b2971ec5cc495afe6654fac89bdc5349954a",
    ("sn-walk", "--n", "12", "--r", "28", "--exact", "--start", "5+3+1+1+1+1"):
        "c4d3e2e2d05fcbb8e9c1e0c119e035c60a928c179ebd6aa5bfd1a0fa7a8d57d5",
    ("sn-walk", "--n", "12", "--r", "45", "--exact", "--start", "5+3+1+1+1+1"):
        "952cb96fb45cc48e2eb56d08cbd7d64fec44314bb01283a086e6a74fb1d0fec8",
    ("sn-walk", "--n", "12", "--r", "12", "--exact", "--start", "1+1+1+1+1+1+1+1+1+1+1+1"):
        "263a7230c4455cf4742341ccf1f8a642c99830e8910f39e1c8ac4babe4f69803",
    ("sn-walk", "--n", "12", "--r", "28", "--exact", "--start", "1+1+1+1+1+1+1+1+1+1+1+1"):
        "74693cd82adf1fea856fd0b3511977e5fd036ec9bd5b835975cbcafec28424a1",
    ("sn-walk", "--n", "12", "--r", "45", "--exact", "--start", "1+1+1+1+1+1+1+1+1+1+1+1"):
        "90a74ac06e336c85406bc95c3cc3ec5ae1ba4aa1fb725c23f9ccc7a1ac10b585",
    ("sn-walk", "--n", "18", "--r", "21", "--exact", "--start", "6+6+3+1+1+1"):
        "ce972b013b94b5729a0afc13889203427e9fbc662922ffc376bbb365fa0d33ad",
    ("sn-walk", "--n", "18", "--r", "50", "--exact", "--start", "6+6+3+1+1+1"):
        "3da555a2177e6ec1b412c9f28c936d73000598cb3daf533e7ea44df5916f79e9",
    ("sn-walk", "--n", "18", "--r", "81", "--exact", "--start", "6+6+3+1+1+1"):
        "3c9ea4db6636b1dc1a876211a660e0a6dfaaa27c7ef78c144e1f26edd646f80d",
    ("sn-walk", "--n", "18", "--r", "21", "--exact", "--start", "1+1+1+1+1+1+1+1+1+1+1+1+1+1+1+1+1+1"):
        "1b976c7258b7e6c331481bd170ad68b8d1d2a55d22ffb392f6816d0342ff1e1b",
    ("sn-walk", "--n", "18", "--r", "50", "--exact", "--start", "1+1+1+1+1+1+1+1+1+1+1+1+1+1+1+1+1+1"):
        "ec72997cf2ef53e196b0f3bde97133c80ee9f56644b50e496a2eda784593cd8a",
    ("sn-walk", "--n", "18", "--r", "81", "--exact", "--start", "1+1+1+1+1+1+1+1+1+1+1+1+1+1+1+1+1+1"):
        "9103874227ff9ec607fa1c73793e0f02c44928ea7e4aa29a8bbc6c38d17b8e5c",
}


@pytest.mark.parametrize("argv", sorted(SN_WALK_START_GOLDEN))
def test_sn_walk_start_golden(capsys, argv):
    code, out = _main_stdout(capsys, list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SN_WALK_START_GOLDEN[argv]


@pytest.mark.parametrize("n", range(2, EXACT_KERNEL_LIMIT + 1))
def test_sn_walk_rows_are_the_fraction_masses(capsys, n):
    # each printed mass is the str of walk_distribution's Fraction, and "0"
    # where it has none, before, at and well past the cutoff, from (n),
    # from 1^n and from the partition in the middle of the id order
    parts = enumerate_partitions(n)
    rc = math.ceil(0.5 * n * math.log(n))
    for start in dict.fromkeys((None, parts[-1], parts[len(parts) // 2])):
        for r in sorted({0, 1, rc, 3 * rc}):
            argv = ["sn-walk", "--n", str(n), "--r", str(r), "--exact"]
            argv += [] if start is None else ["--start", start.to_string()]
            code, out = _main_stdout(capsys, argv)
            assert code == 0
            lines = out.splitlines()
            assert lines[2] == "partition,mass"
            masses = walk_distribution(n, r, start).masses
            want = [[lam.to_string(), str(masses.get(lam, 0))] for lam in parts]
            assert [line.split(",") for line in lines[3:]] == want


# stdout recorded while young_lattice was a tuple-dict build and the L2
# bound a sum of Fraction powers; the two TV curves are kept as the sha256
# of their bytes.  The order of the float sums fixes the last digits of a
# float TV: re-recorded when the walk came to step the containment edges,
# two segment sums a step, which moved the c = 0.5 TVs at n = 19, 27 and 40
# (by at most 4.2e-17) and 100 of the 160 rows of the n = 33 curve (by at
# most 2.2e-16).  Re-recorded when sn-cutoff came to sum its float TV as
# sn-tv-curve does, numpy's pairwise sum over the lattice order, which moved
# all eight sn-cutoff TVs (by at most 8.9e-16).  Re-recorded when the
# float sn-cutoff came to read its law from one Horner pass over the
# lattice levels rather than from the stepped walk, which moved the TVs at
# n = 36, c = 0.5 (by 1.4e-17, 1 ulp) and n = 40, c = -0.5 (by 1.1e-16,
# 1 ulp).  test_float_cutoff_tv_matches_exact_tv holds the sn-cutoff TVs to
# the exact ones.  Re-recorded when the L2 bound came to be rounded up to a
# double at or above the exact root, not to the nearest one: the bound at
# n = 19 and 27, c = 0.5, and n = 40, c = -0.5, and bounds of both curves
# (69 rows at n = 33, 19 at n = 14) moved up by 1 ulp or so.  Exact output
# and every other digit stay.
LATTICE_GOLDEN = {
    ("sn-cutoff", "--n", "19", "--c", "-0.5"): """\
# repwalk 0.1.0
# command: sn-cutoff c=-0.5 n=19
# accumulated float error bound: 9.31e-11
r,cutoff_bound,tv,l2_bound
19,1.3591409142295225,0.6011551463654219,2.355002656148524
""",
    ("sn-cutoff", "--n", "19", "--c", "0.5"): """\
# repwalk 0.1.0
# command: sn-cutoff c=0.5 n=19
# accumulated float error bound: 1.862e-10
r,cutoff_bound,tv,l2_bound
38,0.18393972058572117,0.07713440462203083,0.1014637549902869
""",
    ("sn-cutoff", "--n", "27", "--c", "-0.5"): """\
# repwalk 0.1.0
# command: sn-cutoff c=-0.5 n=27
# accumulated float error bound: 9.331e-10
r,cutoff_bound,tv,l2_bound
31,1.3591409142295225,0.6326450596638991,4.400767117230023
""",
    ("sn-cutoff", "--n", "27", "--c", "0.5"): """\
# repwalk 0.1.0
# command: sn-cutoff c=0.5 n=27
# accumulated float error bound: 1.7458e-09
r,cutoff_bound,tv,l2_bound
58,0.18393972058572117,0.08813897106471721,0.11715367277492028
""",
    ("sn-cutoff", "--n", "36", "--c", "-0.5"): """\
# repwalk 0.1.0
# command: sn-cutoff c=-0.5 n=36
# accumulated float error bound: 8.44919e-09
r,cutoff_bound,tv,l2_bound
47,1.3591409142295225,0.6475737591235977,6.2543825699959115
""",
    ("sn-cutoff", "--n", "36", "--c", "0.5"): """\
# repwalk 0.1.0
# command: sn-cutoff c=0.5 n=36
# accumulated float error bound: 1.492091e-08
r,cutoff_bound,tv,l2_bound
83,0.18393972058572117,0.08991669033871659,0.11974601735080319
""",
    ("sn-cutoff", "--n", "40", "--c", "-0.5"): """\
# repwalk 0.1.0
# command: sn-cutoff c=-0.5 n=40
# accumulated float error bound: 2.016252e-08
r,cutoff_bound,tv,l2_bound
54,1.3591409142295225,0.6610916327418936,8.200251570791696
""",
    ("sn-cutoff", "--n", "40", "--c", "0.5"): """\
# repwalk 0.1.0
# command: sn-cutoff c=0.5 n=40
# accumulated float error bound: 3.509772e-08
r,cutoff_bound,tv,l2_bound
94,0.18393972058572117,0.0929604257031077,0.12409376489566282
""",
    ("sn-tv-curve", "--n", "33", "--rmax", "160", "--float"):
        "bf5f03d7d6e062c3698209bfccf0a152ebcd2ef687a4684e7178376d7bfd6c67",
    ("sn-tv-curve", "--n", "14", "--rmax", "40", "--exact"):
        "6cca4b2886886d50de95b9b1158cfd69c2ce2d4d059f38931175bbc4587b44b6",
}


@pytest.mark.parametrize("argv", sorted(LATTICE_GOLDEN))
def test_lattice_golden(capsys, argv):
    code, out = _main_stdout(capsys, list(argv))
    assert code == 0
    want = LATTICE_GOLDEN[argv]
    if "\n" in want:
        assert out == want
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == want


@pytest.mark.parametrize("n", [19, 24, 27, 40])
def test_float_cutoff_tv_matches_exact_tv(capsys, n):
    # past EXACT_KERNEL_LIMIT sn-cutoff prints a float TV; the integer walk
    # gives the rational TV at the same r, and the two agree to 2e-15 (the
    # gaps measure 2.3e-19 to 2.3e-17)
    code, out = _main_stdout(capsys, ["sn-cutoff", "--n", str(n), "--c", "0.5"])
    assert code == 0
    r, _, tv, _ = out.splitlines()[-1].split(",")
    # the exact engine's one-pass law takes any n the lattice holds
    exact = exact_law_tv(n, _ExactEngine(n).law(int(r)))
    assert abs(Fraction(float(tv)) - exact) <= 2e-15


@pytest.mark.parametrize("n,c", [(2, "0"), (12, "-0.5"), (18, "0.5"), (19, "0.5"), (33, "-0.5")])
def test_sn_cutoff_reads_the_engine_alone(capsys, monkeypatch, n, c):
    # both sides of EXACT_KERNEL_LIMIT, sn-cutoff takes its law and TV from
    # one engine: no WalkDistribution, no Fraction-dict TV, and not the
    # law helper sn-walk reads
    want = _main_stdout(capsys, ["sn-cutoff", "--n", str(n), "--c", c])
    for name in ("repwalk.cli._walk_start", "repwalk.snwalk.walk_distribution",
                 "repwalk.snwalk.tv_to_plancherel"):
        monkeypatch.setattr(name, _must_not_run)
    assert _main_stdout(capsys, ["sn-cutoff", "--n", str(n), "--c", c]) == want
    assert want[0] == 0


def test_float_commands_form_no_partition_tuples(capsys):
    # the float walk reads lattice ids alone: its lattice comes from the
    # counted partition matrix, its start id from partition_id and its
    # error bound from partition_count, so no size is enumerated
    enumerate_partitions.cache_clear()
    for argv in (["sn-cutoff", "--n", "30", "--c", "0.5"],
                 ["sn-tv-curve", "--n", "24", "--rmax", "40", "--float"]):
        assert _main_stdout(capsys, argv)[0] == 0
    assert enumerate_partitions.cache_info().currsize == 0


def test_cutoff_tv_is_near_the_float_curve_row(capsys):
    # one float TV sum: sn-cutoff prints the TV of its one-r law, and
    # sn-tv-curve --float that of its stepped law, both by the float laws'
    # tv; the laws add in different orders, so the two TVs agree within the
    # a priori gap of float_tv_gap, not to the bit (a sum over the masses
    # dict differed in the last digits at most points)
    for n in (19, 24, 40):
        for c in ("-0.5", "0.5"):
            code, out = _main_stdout(capsys, ["sn-cutoff", "--n", str(n), "--c", c])
            r, _, tv, _ = out.splitlines()[-1].split(",")
            code_curve, curve = _main_stdout(
                capsys, ["sn-tv-curve", "--n", str(n), "--rmax", r, "--float"])
            assert code == code_curve == 0
            r_curve, tv_curve = curve.splitlines()[-1].split(",")[:2]
            assert r_curve == r
            assert abs(float(tv) - float(tv_curve)) <= float_tv_gap(n, int(r)), (n, c)


# stdout recorded while the character-table paths found their rows by
# linear search and wrote the Fourier sum out each in its own loop; long
# outputs are kept as the sha256 of their bytes.  One lattice index and one
# character sum must leave every byte as it was.  The characters csv was
# re-recorded when its # command: line stopped echoing exact_limit=12, a
# flag removed earlier; no other byte moved.  The hsp outputs at n = 8 with
# (1 2 3),(4 5) and n = 12 with (1 2),(3 4) were re-recorded when sharp was
# rounded up to a double whose square is at least sharp_squared: their
# sharp moved up one ulp, 0.13693063937629152 -> 0.13693063937629155 and
# 0.12377344351622976 -> 0.12377344351622978, and no other byte moved.
# The sn-moments --samples 200 output was re-recorded when walk_samples
# began to draw as a coupon count plus Plancherel growth, and again when it
# began to draw as the RSK shape of a prefix-sorted shuffle: each time its
# two empirical rows moved, and the exact rows did not.
FOURIER_GOLDEN = {
    ("hsp", "--n", "8", "--gens", "(1 2),(3 4)", "--format", "csv"):
        "ed2d567dca49753d7339b9c7a7200717e0738db49e83c872a8c64aaa6028f83f",
    ("hsp", "--n", "8", "--gens", "(1 2),(3 4)", "--format", "json"):
        "8803b5cdb0c5819814e29b6a45daaae3cfe3e2bc38a885f62273a8b5e4135024",
    ("hsp", "--n", "8", "--gens", "(1 2 3),(4 5)", "--format", "csv"):
        "fc4f8e875eb8be768ab1e72dea530ba2445de468a2cae442824fba887aca235e",
    ("hsp", "--n", "8", "--gens", "(1 2 3),(4 5)", "--format", "json"):
        "2a0a1e2779a8109aa769ffdae18e02a96d1794c26f5d372315098d4fe4976fa0",
    ("hsp", "--n", "12", "--gens", "(1 2),(3 4)", "--format", "csv"):
        "9a3adcd301dfc64ff0e7977b44a083cae18b91e90bad450bda272fc28a08087b",
    ("hsp", "--n", "12", "--gens", "(1 2),(3 4)", "--format", "json"):
        "829bfdd80766324afb55429bb617747d1f34239ca3c66776dec8ef3dabb7d6e3",
    ("hsp", "--n", "12", "--gens", "(1 2 3),(4 5)", "--format", "csv"):
        "175ff62d94a7362eb1d75b3cdeaf1c1c4cd5680b43d1f84086bd6dda7bb0bf28",
    ("hsp", "--n", "12", "--gens", "(1 2 3),(4 5)", "--format", "json"):
        "481992dac162dfe9deb2aa427336d554c01f329426de81dc00cf444293384460",
    ("sn-moments", "--n", "12", "--r", "16"): """\
# repwalk 0.1.0
# command: sn-moments n=12 r=16 samples=0 seed=0 threads=1
s,method,value,reduced_exact
1,transfer,0.4394121194086181,152587890625/2821109907456
1,direct,0.4394121194086181,152587890625/2821109907456
1,closed,0.4394121194086181,152587890625/2821109907456
2,transfer,1.268961662968006,6516973239557021/338954474640900096
2,direct,1.268961662968006,6516973239557021/338954474640900096
2,closed,1.268961662968006,6516973239557021/338954474640900096
""",
    ("sn-moments", "--n", "10", "--r", "12", "--samples", "200", "--seed", "5"): """\
# repwalk 0.1.0
# command: sn-moments n=10 r=12 samples=200 seed=5 threads=1
s,method,value,reduced_exact
1,transfer,0.46098426407973414,16777216/244140625
1,direct,0.46098426407973414,16777216/244140625
1,closed,0.46098426407973414,16777216/244140625
2,transfer,1.282410500624,80150656289/2812500000000
2,direct,1.282410500624,80150656289/2812500000000
2,closed,1.282410500624,80150656289/2812500000000
1,empirical,0.4084550838899619,
2,empirical,1.335777777777777,
""",
    ("characters", "--n", "9", "--format", "csv"):
        "4430995d2c808e49c5a0a6937b59cc84d218d6b69e9c2cdab47c6ac89bd8c9c1",
    ("characters", "--n", "9", "--format", "json"):
        "0e944e55274f509275e35276b4235b885fe994d42550103065b78dff7ffe2d60",
}


@pytest.mark.parametrize("argv", sorted(FOURIER_GOLDEN))
def test_fourier_golden(capsys, argv):
    code, out = _main_stdout(capsys, list(argv))
    assert code == 0
    want = FOURIER_GOLDEN[argv]
    if "\n" in want:
        assert out == want
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == want


# gl-irreps stdout, as the sha256 of its bytes, for every enumerable
# (n, q), recorded while the families were built from multisets of
# partitions and their distinct arrangements.  From q = 3 on, families tie
# on the sorted (degree, partition) pairs and the labels used; the rows of
# such ties must keep their order.
GL_IRREPS_GOLDEN = {
    (1, 2): "3abaac1a4f8289e608f7c6cebef2822c049595ff27cdc72f4f1d659d0c9858c8",
    (1, 3): "a590b5c6b366c42c36540d71de5a0158c85e47e262f685874abeb622174a8869",
    (1, 4): "00d6639532555526441dfa69848c65cea3790fed42ef563382535e7d50db2edf",
    (2, 2): "2470b5dadd09c541c93bc3d269713a63d92474f1c888222798561857ddc6f79e",
    (2, 3): "63df98c1c541fb077b32aac60c6a9cab4d30b35c6ad11f2e81172386de0f7767",
    (2, 4): "8f3990a34fec3c79c3c23c37e967490d41abf7144f8fb76e27aa37316a60f29b",
    (3, 2): "9c0eeb81161729bb5db38b594c305763e9b463f4d9f2ffa6bcd74dabb7aaee65",
    (3, 3): "9bef33b9a289ba474281867b94e583960055442c4e173b502c0fcf63828d9f11",
    (3, 4): "24f887c2086c5a9e0293a11ece5247f551abf65db7f53e96cbf7eaa490443b1f",
    (4, 2): "809897ad69f1c50bf52fdf9bac781219500888147487d0eb04582a1c97a78c59",
    (4, 3): "05d079aed8467639444d5ef6b7ea2425837c6df0c620ad5abecd656fdab108ef",
    (4, 4): "bb96062a0e8d459f2e0f13211e08bf50e6833c4c0529c0dad3dc0d0fbe096226",
    (5, 2): "b66e3894c4b25ec2bb1f26826b91083afdec4f8715ee3c4e3f68c080aae587d7",
    (5, 3): "c5fe8ba0fcf5d1d2c77a935cb23ee500b069c04ee1c32218951513faa9f1d887",
    (5, 4): "a560f0f458d3e95b2e8c6b6c3a416e066b88cb0766b37695fd16e2e2056252cb",
}


@pytest.mark.parametrize("n,q", sorted(GL_IRREPS_GOLDEN))
def test_gl_irreps_golden(capsys, n, q):
    code, out = _main_stdout(capsys, ["gl-irreps", "--n", str(n), "--q", str(q)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GL_IRREPS_GOLDEN[n, q]
