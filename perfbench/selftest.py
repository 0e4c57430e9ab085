"""Self-test of the output checks: clean outputs pass, corrupted ones fail.

Run through `python3 perfbench/run.py --self-test`.  Each case runs real
CLI ops, checks their outputs as a benchmark run would, then corrupts one
output and checks again; the corruption must be counted as a failure.
"""

from __future__ import annotations

import json

import checks
import workloads


def _op(argv, cmd, n, q=None, pool=None):
    return {"argv": argv, "cmd": cmd, "n": n, "q": q, "pool": pool}


def _bump_json(field, value):
    def corrupt(out):
        doc = json.loads(out)
        doc[field] = value
        return json.dumps(doc)
    return corrupt


def _cases():
    pn, pr = workloads.POOL_WALK
    pool = f"walk:{pn}:{pr}"
    pooled = [_op(["sn-sample", "--n", str(pn), "--r", str(pr), "--count", "300", "--seed", str(s)],
                  "sn-sample", pn, pool=pool) for s in (11, 12)]
    gl = ["gl-sample", "--n", "3", "--q", "2", "--count", "5", "--seed", "4"]
    return [
        ("sn-walk mass changed",
         [_op(["sn-walk", "--n", "8", "--r", "5", "--exact"], "sn-walk", 8)],
         0, lambda out: _set_field(out, 0, -1, "1/7")),
        ("sn-tv-curve TV raised",
         [_op(["sn-tv-curve", "--n", "8", "--rmax", "10", "--exact"], "sn-tv-curve", 8)],
         0, lambda out: _set_field(out, 5, 1, "3/4")),  # TV at r=6 above r=5
        ("float TV raised",
         [_op(["sn-tv-curve", "--n", "19", "--rmax", "20", "--float"], "sn-tv-curve", 19)],
         0, lambda out: _set_field(out, 5, 1, "0.75")),
        ("sn-cutoff TV above bound",
         [_op(["sn-cutoff", "--n", "19", "--c", "0.5"], "sn-cutoff", 19)],
         0, lambda out: _set_field(out, 0, 2, "0.99")),
        ("hsp tv changed",
         [_op(["hsp", "--n", "5", "--gens", "(1 2),(3 4)"], "hsp", 5)],
         0, _bump_json("tv", "1/3")),
        ("sn-moments methods disagree",
         [_op(["sn-moments", "--n", "6", "--r", "4"], "sn-moments", 6)],
         0, lambda out: _set_field(out, 1, -1, "1/2")),
        ("sn-sample wrong size",
         [_op(["sn-sample", "--n", "8", "--r", "6", "--count", "5", "--seed", "3"], "sn-sample", 8)],
         0, lambda out: _set_field(out, 2, -1, "5+2")),
        ("gl-sample bad family",
         [_op(gl, "gl-sample", 3, 2)],
         0, lambda out: _set_field(out, 1, -1, "1.0:2")),
        ("repeat differs",
         [_op(gl, "gl-sample", 3, 2), _op(gl, "gl-sample", 3, 2)],
         1, lambda out: out.replace("# attempts:", "# attempts: 1")),
        ("pooled samples skewed",
         pooled,
         1, lambda out: "\n".join(
             ln if ln.startswith("#") or ln.startswith("index") else ln.split(",")[0] + f",{pn}"
             for ln in out.splitlines()) + "\n"),
        ("nonzero exit",
         [_op(["sn-walk", "--n", "40", "--r", "2", "--exact"], "sn-walk", 40)],
         None, None),
    ]


def _set_field(out: str, row: int, col: int, value: str) -> str:
    """Replace field `col` of data row `row` (0-based, after the header)."""
    lines = out.splitlines()
    body = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
    fields = lines[body[row]].split(",")
    fields[col] = value
    lines[body[row]] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _failures(ops, results) -> int:
    checker = checks.RunChecker()
    for op, (_, code, exc, out) in zip(ops, results):
        checker.check(op, code, exc, out)
    return sum(1 for errs in checker.finish() if errs)


def run(cli, run_op) -> dict:
    lines, ok = [], True
    for name, ops, target, corrupt in _cases():
        results = [run_op(cli, op["argv"]) for op in ops]
        if corrupt is None:  # the op itself must fail
            caught = _failures(ops, results) == len(ops)
            lines.append(f"{'ok ' if caught else 'BAD'} {name}: failing op counted")
            ok &= caught
            continue
        clean = _failures(ops, results)
        dt, code, exc, out = results[target]
        results[target] = (dt, code, exc, corrupt(out))
        caught = _failures(ops, results) > 0
        good = clean == 0 and caught
        lines.append(f"{'ok ' if good else 'BAD'} {name}: clean failures {clean}, "
                     f"corruption {'caught' if caught else 'MISSED'}")
        ok &= good
    return {"ok": ok, "lines": lines}
