"""The four workloads: seeded inputs, one round of operations, and the
checker each operation's result must pass.

A workload's ``build(lib, seed, workdir)`` makes its inputs with the library's
own generators (so that work counts as set-up) and returns the round:
a fixed list of ``Op`` in which the operation classes are interleaved.
Every run repeats whole rounds, so each class keeps its share of the
operations however long the run is.

Operations call the library through module attributes looked up at call
time (``lib.certify_torsion``, ``series.iterate``), which is what lets
the traced run wrap them.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import checks


@dataclass
class Op:
    cls: str
    run: Callable[[], object]
    check: Callable[[object], object]


def interleave(*groups):
    """Round-robin merge, so slow drift of the machine reaches every class."""
    out = []
    for i in range(max(len(g) for g in groups)):
        for g in groups:
            if i < len(g):
                out.append(g[i])
    return out


# ---------------------------------------------------------------------------
# certify: the paper's headline computation

CERTIFY_CONJ = ((2, 60, 48), (3, 60, 48))      # (p, N, K), four seeds each
CERTIFY_FEW = (                                 # (kind, p, K), N = K + 8
    ("poly", 2, 96), ("gm_pair", 3, 96), ("poly", 2, 128), ("gm_pair", 2, 112),
)


def build_certify(lib, seed, workdir):
    rng = random.Random(seed)
    conj = []
    for p, N, K in CERTIFY_CONJ:
        ctx = lib.PrimeContext(p, N, K)
        f, u = lib.gm_minimal_pair(ctx)
        conj.append([_certify_conj_op(lib, ctx, f, u, rng.randrange(2 ** 32))
                     for _ in range(4)])
    few = [_certify_few_op(lib, kind, p, K) for kind, p, K in CERTIFY_FEW]
    return interleave(*conj, few)


def _certify_conj_op(lib, ctx, f, u, hseed):
    p, N, K = ctx.p, ctx.N, ctx.K

    def run():
        h = lib.seeded_conjugator(ctx, hseed)
        fc, uc = lib.conjugate_pair(f, u, h)
        return fc, uc, lib.certify_torsion(fc, uc)

    def check(res):
        fc, uc, cert = res
        return checks.check_conjugated_certificate(cert, fc, uc, p, N, K)

    return Op(f"conjugated_p{p}", run, check)


def _certify_few_op(lib, kind, p, K):
    ctx = lib.PrimeContext(p, K + 8, K)
    if kind == "poly":
        f = lib.PowerSeries(ctx, lib.RING_INTEGRAL, [2, 1])
        u = None
    else:
        f, u = lib.gm_minimal_pair(ctx)

    def run():
        return lib.certify_torsion(f, u)

    def check(cert):
        return checks.check_gm_certificate(cert, p, ctx.N, K, u is not None)

    return Op(f"few_term_{kind}", run, check)


# ---------------------------------------------------------------------------
# float: PadicNumber arithmetic and the float kernels

def build_float(lib, seed, workdir):
    rng = random.Random(seed)
    inputs = {}
    for p in (2, 3):
        for K in (24, 32):
            ctx = lib.PrimeContext(p, K + 16, K)
            f = lib.gm_endomorphism(ctx, p)
            b = 1 + p ** ctx.delta
            u = lib.gm_endomorphism(ctx, b)
            h = lib.seeded_conjugator(ctx, rng.randrange(2 ** 32))
            fc, uc = lib.conjugate_pair(f, u, h)
            a = 1 + p * (1 + rng.randrange(p ** 3))
            inputs[p, K] = (ctx, f, fc, u.to_float(), uc.to_float(), uc, b, a)
    lin = [_lin_op(lib, inputs[2, 32], False), _lin_op(lib, inputs[3, 32], True),
           _lin_op(lib, inputs[3, 32], False), _lin_op(lib, inputs[2, 32], True)]
    rev = [_rev_op(inputs[2, 32], False), _rev_op(inputs[3, 24], True),
           _rev_op(inputs[3, 32], False), _rev_op(inputs[2, 32], True)]
    com = [_com_op(lib, inputs[2, 24], False), _com_op(lib, inputs[3, 24], True),
           _com_op(lib, inputs[3, 24], False), _com_op(lib, inputs[2, 24], True)]
    return interleave(lin, rev, com)


def _lin_op(lib, inp, conj):
    ctx, f, fc, *_ = inp
    g = fc if conj else f
    p, K = ctx.p, ctx.K

    def run():
        return lib.linearize(g)

    if conj:
        def check(lin):
            return checks.check_linearization_identity(lin, fc, p, K)
    else:
        def check(lin):
            return checks.check_linearization_closed(lin, p)
    return Op("linearize_conj" if conj else "linearize", run, check)


def _rev_op(inp, conj):
    ctx, _f, _fc, U, UC, uc, b, _a = inp
    g = UC if conj else U
    p, K = ctx.p, ctx.K

    def run():
        return g.reversion()

    if conj:
        def check(r):
            return checks.check_reversion_identity(r, uc, p, K)
    else:
        def check(r):
            return checks.check_reversion_closed(r, b, p)
    return Op("reversion_conj" if conj else "reversion", run, check)


def _com_op(lib, inp, conj):
    ctx, f, fc, *_rest = inp
    a = _rest[-1]
    g = fc if conj else f
    p, K = ctx.p, ctx.K

    def run():
        return lib.commutant(g, a)

    if conj:
        def check(z):
            return checks.check_commutant_identity(z, fc, a, p, K)
    else:
        def check(z):
            return checks.check_commutant_closed(z, a, p)
    return Op("commutant_conj" if conj else "commutant", run, check)


# ---------------------------------------------------------------------------
# residue: composition by binary powering with one-digit coefficients

RESIDUE_CTX = ((2, 128, 6), (3, 81, 4))         # (p, K, d*): w^(p^d*) = x
# Conjugators over F_p, two per prime.  The sparse kernels cost in
# proportion to the nonzero terms of every iterate, and over F_p a
# seeded conjugator changes that count by up to a third, so the
# conjugators are fixed and the seed picks only the zp_iterate exponents,
# whose binary powering costs the same for every seed.
RESIDUE_CONJUGATORS = {2: ([1, 1, 1], [1, 1, 0, 1]), 3: ([1, 1, 2], [1, 2, 0, 1])}


def build_residue(lib, seed, workdir):
    rng = random.Random(seed)
    ram, order, norm, zp = [], [], [], []
    for p, K, dstar in RESIDUE_CTX:
        ctx = lib.PrimeContext(p, 4, K)
        b = 1 + p ** ctx.delta
        for j, cs in enumerate(RESIDUE_CONJUGATORS[p]):
            h = lib.PowerSeries(ctx, lib.RING_RESIDUE, cs)
            hinv = h.reversion()

            def conj(exponent):
                g = lib.gm_endomorphism(ctx, exponent).reduce_mod_p()
                return h.compose(g.compose(hinv))

            w = conj(b)
            t = checks.vp(b - 1, p)
            ram.append(_ram_op(lib, w, p, t))
            if j == 0:
                order.append(_order_op(lib, "nottingham_order", w, p, K, dstar))
            else:
                order.append(_order_op(lib, "g0_order", conj(-b), p, K, dstar))
            norm.append(_norm_op(lib, conj(1 + p), w, p, K))
            for _ in range(2):
                zp.append(_zp_op(lib, w, fixed_cost_exponent(rng, p ** dstar), dstar, p, K))
    return interleave(ram, order, norm, zp[0::2], zp[1::2])


def fixed_cost_exponent(rng, modulus):
    """A seeded exponent whose residue mod modulus has the bit length of
    modulus - 1 and three one bits, so iterating by binary powering costs
    the same number of compositions for every seed."""
    top = (modulus - 1).bit_length() - 1
    low = rng.sample(range(top), 2)
    while (1 << top) + (1 << low[0]) + (1 << low[1]) >= modulus:
        low = rng.sample(range(top), 2)
    return (1 << top) + (1 << low[0]) + (1 << low[1]) + modulus * rng.randrange(1 << 20)


def _ram_op(lib, w, p, t):
    def run():
        return lib.lower_ramification(w, n_max=3)

    return Op(f"lower_ramification_p{p}", run,
              lambda prof: checks.check_ramification(prof, p, t, 3))


def _order_op(lib, name, w, p, K, d_max):
    wd = checks.dense(w.coeffs)
    want = once(lambda: checks.residue_order(wd, p, K, d_max))

    def run():
        return getattr(lib, name)(w, d_max=d_max)

    return Op(f"{name}_p{p}", run, lambda inv: checks.check_order(inv, wd, want()))


def _norm_op(lib, theta, w, p, K):
    td, wd = checks.dense(theta.coeffs), checks.dense(w.coeffs)
    powers = {}

    def run():
        return lib.normalizer_witness(theta, w, m=3)

    def check(rep):
        if rep.found and rep.a not in powers:
            powers[rep.a] = checks.kpower(wd, rep.a, p, K)
        return checks.check_normalizer(rep, td, wd, powers.get(rep.a), p, K)

    return Op(f"normalizer_witness_p{p}", run, check)


def _zp_op(lib, w, a, m, p, K):
    want = once(lambda: checks.kpower(checks.dense(w.coeffs), a % p ** m, p, K))

    def run():
        return lib.zp_iterate(w, a, m)

    return Op(f"zp_iterate_p{p}", run, lambda s: checks.check_zp_iterate(s, want(), a, m, p))


def once(compute):
    """The checker's own answer for an input that repeats every round,
    computed the first time it is needed."""
    memo = []

    def get():
        if not memo:
            memo.append(compute())
        return memo[0]

    return get


# ---------------------------------------------------------------------------
# cli: parsing, dispatch, the --jobs pool and sorted-key JSON emission

def batch_size():
    """Jobs per --jobs batch: no more than the cores this process may
    use, so the pool starts no more threads than there are cores."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def build_cli(lib, seed, workdir):
    import importlib
    cli = importlib.import_module(lib.__name__ + ".cli")
    rng = random.Random(seed)
    calls = []

    # README example: negative polygon of u^(o2) - x for u = (1+x)^a - 1.
    # v_2(a - 1) = 2 for every seed: it fixes the number of vertices, and
    # with it the cost; a > K keeps the series dense.
    a_poly = 1 + 4 * (9 + 2 * rng.randrange(8))
    calls.append(("polygon", ["polygon", "--p", "2", "--N", "16", "--K", "32", "--json",
                              json.dumps({"series": {"binom": a_poly, "iterate": 2,
                                                     "minus_x": True}})],
                  lambda out: checks.check_cli_polygon(out, a_poly)))
    # README example: torsion certificate for f = 2x + x^2
    calls.append(("torsion-check", ["torsion-check", "--p", "2", "--N", "32", "--K", "24",
                                    "--json", '{"f": {"coeffs": [2, 1]}}'],
                  lambda out: checks.check_cli_torsion(out, 2, 32, 24)))
    # README example: lower ramification of (1+x)^a - 1 over F_2
    a_ram = 1 + 4 * (1 + 2 * rng.randrange(8))
    calls.append(("ramification", ["ramification", "--p", "2", "--N", "8", "--K", "40",
                                   "--json", json.dumps({"omega": {"binom": a_ram,
                                                                   "ring": "residue"},
                                                         "n_max": 2})],
                  lambda out: checks.check_cli_ramification(out, 2, a_ram, 2)))
    # README example: the order-two element x/(1 - x) over F_2
    calls.append(("order", ["order", "--p", "2", "--N", "4", "--K", "64", "--json",
                            json.dumps({"omega": {"coeffs": [1] * 64, "ring": "residue"}})],
                  lambda out: checks.check_cli_order(out, 2, 1)))
    # README example: a seeded conjugated minimal pair
    gseed = rng.randrange(1000)
    calls.append(("gen-pair", ["gen-pair", "--p", "3", "--N", "12", "--K", "10", "--seed",
                               str(gseed), "--json", '{"kind": "conjugated"}'],
                  lambda out: checks.check_cli_gen_pair(out, 3, 12, 10, gseed)))

    # --jobs batches
    b_wideg = 3 + 2 * rng.randrange(14)                    # < K: wideg determined
    a_zp = fixed_cost_exponent(rng, 16)
    c_ord = 1 + rng.randrange(2)
    a_ram3 = 1 + 3 * (1 + 3 * rng.randrange(8) + rng.randrange(2))
    jobs_a = [
        ({"command": "wideg", "ctx": {"p": 2, "N": 8, "K": 32},
          "inputs": {"series": {"binom": b_wideg, "ring": "residue", "minus_x": True}}},
         lambda r: checks.check_cli_wideg(r, 2, b_wideg, 32)),
        ({"command": "zp-iterate", "ctx": {"p": 2, "N": 4, "K": 32},
          "inputs": {"omega": {"binom": 5, "ring": "residue"}, "a": a_zp, "m": 4}},
         lambda r: checks.check_cli_zp_iterate(r, 2, 5, a_zp, 4, 32)),
    ]
    jobs_b = [
        ({"command": "ramification", "ctx": {"p": 3, "N": 8, "K": 40},
          "inputs": {"omega": {"binom": a_ram3, "ring": "residue"}, "n_max": 2}},
         lambda r: checks.check_cli_ramification(r, 3, a_ram3, 2)),
        ({"command": "order", "ctx": {"p": 3, "N": 4, "K": 48},
          "inputs": {"omega": {"coeffs": [c_ord ** i % 3 for i in range(48)],
                               "ring": "residue"}}},
         lambda r: checks.check_cli_order(r, 3, c_ord)),
    ]
    # the newton layer's preparation and root-polygon comparison: a seeded
    # g with wideg 2 and v_p(g_1) = 1, so the fixed point takes N passes
    # for every seed; and the gm pair of acceptance criterion 5
    p, N, K = 3, 12, 16
    m = p ** N
    g = ([p * (1 + p * rng.randrange(m // p ** 2)), 1 + p * rng.randrange(m // p)]
         + [rng.randrange(m) for _ in range(K - 2)])
    jobs_c = [
        ({"command": "wprep", "ctx": {"p": p, "N": N, "K": K},
          "inputs": {"series": {"coeffs": g}}},
         lambda r: checks.check_cli_wprep(r, g, p, N, K)),
        ({"command": "lambda-check", "ctx": {"p": 3, "N": 24, "K": 32},
          "inputs": {"f": {"binom": 3}, "u": {"binom": 4}, "n": 2}},
         lambda r: checks.check_cli_lambda(r, 3, 2, 1)),
    ]
    size = batch_size()
    for name, jobs in (("jobs_a", jobs_a), ("jobs_b", jobs_b), ("jobs_c", jobs_c)):
        jobs = jobs[:size]
        path = os.path.join(workdir, f"{name}-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([spec for spec, _ in jobs], fh)
        calls.append((name, ["--jobs", path], _batch_checker([c for _, c in jobs])))

    # each argv runs twice a round: reruns must print the same bytes
    first = {}
    return [_cli_op(cli, name, argv, judge, first)
            for _ in range(2) for name, argv, judge in calls]


def _batch_checker(judges):
    def check(out):
        results = out.get("results")
        if not isinstance(results, list) or len(results) != len(judges):
            return "batch returned the wrong number of results"
        for i, (entry, judge) in enumerate(zip(results, judges)):
            if entry.get("ok") is not True:
                return f"job {i} failed: {entry.get('error')}"
            bad = judge(entry["result"])
            if bad:
                return f"job {i}: {bad}"
        return None
    return check


def _cli_op(cli, name, argv, judge, first):
    key = tuple(argv)

    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    def check(res):
        code, stdout = res
        if code != 0:
            return f"exit code {code}"
        out = checks.parse_cli(stdout)
        if out is None:
            return "stdout is not one JSON line"
        if first.setdefault(key, stdout) != stdout:
            return "a rerun of the same argv printed different bytes"
        return judge(out)

    return Op(name, run, check)


WORKLOADS = {
    "certify": build_certify,
    "float": build_float,
    "residue": build_residue,
    "cli": build_cli,
}
