"""Corruption self-test for the benchmark's checkers.

    python3 bench/selftest.py

For every operation class of every workload: run one operation, show
that its checker accepts the true result, then corrupt one coefficient
or one field of that result and show that the checker rejects it.
Exits 1 if any corruption is accepted or any true result is rejected.

Coefficient corruptions sit where each check is sharp: the last claimed
digit for the coefficient-by-coefficient closed forms, and two digits
below the smallest stated precision for the identity checks, since a
defining identity such as z∘f = f∘z multiplies a change in digit j by
f'(0) (valuation one) and so only sees it one digit deeper.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    lib = run.fresh_import()
    failures = 0
    lines = 0
    for name, build in workloads.WORKLOADS.items():
        seen = set()
        for op in build(lib, 1, str(run.OUT)):
            if op.cls in seen:
                continue
            seen.add(op.cls)
            result = op.run()
            bad = op.check(result)
            if bad is not None:
                print(f"FAIL {name}/{op.cls}: true result rejected: {bad}")
                failures += 1
                continue
            for label, corrupt, prime in corruptions(lib, name, op.cls, result):
                fresh = _fresh_op(lib, name, op.cls)
                if prime and fresh.check(result) is not None:
                    print(f"FAIL {name}/{op.cls}: true result rejected by a fresh op")
                    failures += 1
                verdict = fresh.check(corrupt(result))
                ok = verdict is not None
                failures += not ok
                lines += 1
                print(f"{'ok  ' if ok else 'FAIL'} {name}/{op.cls}: {label} -> "
                      f"{verdict if ok else 'accepted'}")
    for path in run.OUT.glob(f"*-{os.getpid()}.json"):
        path.unlink()
    print(f"{lines} corruptions, {failures} failures")
    return 1 if failures else 0


def _fresh_op(lib, name, cls):
    """A new op of the class, so the cli rerun memory starts empty."""
    return next(op for op in workloads.WORKLOADS[name](lib, 1, str(run.OUT))
                if op.cls == cls)


# ---------------------------------------------------------------------------


def bump(lib, series, index, exponent):
    """series with p^exponent added to coefficient index (1-based),
    keeping that coefficient's stated precision."""
    ctx = series.ctx
    coeffs = list(series.coeffs)
    c = coeffs[index - 1]
    if series.ring == lib.RING_FLOAT:
        delta = lib.PadicNumber.make(ctx, exponent, 1, c.precision)
        coeffs[index - 1] = c + delta
    elif series.ring == lib.RING_INTEGRAL:
        coeffs[index - 1] = c + ctx.p ** exponent
    else:
        coeffs[index - 1] = c + 1
    return lib.PowerSeries(ctx, series.ring, coeffs)


def _min_prec(series):
    return min(c.precision for c in series.coeffs if c.precision != float("inf"))


def corruptions(lib, workload, cls, result):
    """(label, corrupt, prime) triples; prime runs the true result
    through the op first, for checks that compare against a rerun."""
    return [(label, fn, False) for label, fn in _corruptions(lib, workload, cls, result)] + (
        [("rerun printed one byte differently",
          lambda r: (r[0], r[1].replace(": ", ":", 1)), True)]
        if workload == "cli" else [])


def _corruptions(lib, workload, cls, result):
    if workload == "certify":
        if cls.startswith("conjugated"):
            fc, uc, cert = result
            out = cert.N - cert.K + 1
            return [
                ("coefficient 3 moved two digits below p^(N-K+1)",
                 lambda r: (fc, uc, replace(cert, series=bump(lib, cert.series, 3, out - 2)))),
                ("verified_order set False",
                 lambda r: (fc, uc, replace(cert, verified_order=False))),
                ("commutes_with_u set False",
                 lambda r: (fc, uc, replace(cert, commutes_with_u=False))),
            ]
        cert = result
        prec5 = cert.coefficient_precision[4]
        return [
            ("coefficient 5 moved in its last claimed digit",
             lambda r: replace(cert, series=bump(lib, cert.series, 5, prec5 - 1))),
            ("outcome set non-integral", lambda r: replace(cert, outcome="non-integral")),
        ]
    if workload == "float":
        series = result.series if cls.startswith("linearize") else result
        if cls.endswith("_conj"):
            i, e = 3, _min_prec(series) - 2
            label = "coefficient 3 moved two digits below the smallest precision"
        else:
            i, e = 5, series.coeffs[4].precision - 1
            label = "coefficient 5 moved in its last claimed digit"
        moved = bump(lib, series, i, e)
        if cls.startswith("linearize"):
            return [(label, lambda r: replace(r, series=moved))]
        return [(label, lambda r: moved)]
    if workload == "residue":
        kind = cls.rsplit("_", 1)[0]
        if kind == "lower_ramification":
            return [("break i_2 raised by one",
                     lambda r: replace(r, i_seq=r.i_seq[:2] + (r.i_seq[2] + 1,) + r.i_seq[3:]))]
        if kind in ("nottingham_order", "g0_order"):
            return [("order raised by one", lambda r: replace(r, order=r.order + 1))]
        if kind == "normalizer_witness":
            return [("exponent a raised by one", lambda r: replace(r, a=r.a + 1))]
        return [("coefficient 5 flipped", lambda r: bump(lib, r, 5, 0))]
    # cli: one field of the emitted JSON, re-emitted with sorted keys
    path = CLI_FIELDS[cls]
    return [(f"field {'/'.join(map(str, path))} changed",
             lambda r: (r[0], json.dumps(_poke(json.loads(r[1]), path), sort_keys=True) + "\n"))]


CLI_FIELDS = {
    "polygon": ("vertices", 1, 1),
    "torsion-check": ("series", "coeffs", 4, "u"),
    "ramification": ("i", 2),
    "order": ("order",),
    "gen-pair": ("u", "coeffs", 2, "u"),
    "jobs_a": ("results", 0, "result", "wideg"),
    "jobs_b": ("results", 0, "result", "i", 1),
    "jobs_c": ("results", 0, "result", "unit_tail", "coeffs", 3, "u"),
}


def _poke(obj, path):
    """Change the value at path: ints and digit strings by one, else
    replace."""
    target = obj
    for key in path[:-1]:
        target = target[key]
    old = target[path[-1]]
    if isinstance(old, bool):
        new = not old
    elif isinstance(old, int):
        new = old + 1
    elif isinstance(old, str) and old.lstrip("-").isdigit():
        new = str(int(old) + 1)
    else:
        new = "corrupted"
    target[path[-1]] = new
    return obj


if __name__ == "__main__":
    sys.exit(main())
