"""Truncated series ring: composition, reversion, iteration, reduction."""

import ast
import random
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from padicdyn import (
    PadicNumber,
    PowerSeries,
    PreconditionError,
    PrecisionError,
    PrimeContext,
    RING_FLOAT,
    RING_INTEGRAL,
    RING_RESIDUE,
)
from padicdyn.series import _SPARSE_TERMS, _compose_dense_mod, _mul_dense_mod
from oracles import poly_compose_mod, poly_horner_mod, poly_mul_mod


def _random_series(rng, ctx, unit_linear=True):
    coeffs = [rng.randrange(ctx.modulus) for _ in range(ctx.K)]
    if unit_linear:
        coeffs[0] = coeffs[0] - coeffs[0] % ctx.p + 1 + ctx.p * rng.randrange(ctx.p)
        coeffs[0] %= ctx.modulus
    return PowerSeries(ctx, RING_INTEGRAL, coeffs)


def test_constructor_shapes():
    ctx = PrimeContext(3, 6, 5)
    s = PowerSeries(ctx, RING_INTEGRAL, [1, 2])
    assert len(s.coeffs) == 5
    assert s.coefficient(1) == 1 and s.coefficient(5) == 0
    with pytest.raises(PreconditionError):
        PowerSeries(ctx, RING_INTEGRAL, [1] * 6)
    with pytest.raises(PreconditionError):
        PowerSeries(ctx, "galois", [1])
    assert PowerSeries.identity(ctx).linear == 1
    assert PowerSeries.monomial(ctx, 3).coefficient(3) == 1


def test_classify():
    ctx = PrimeContext(5, 6, 4)
    assert PowerSeries(ctx, RING_INTEGRAL, [2, 1]).classify().is_invertible
    assert PowerSeries(ctx, RING_INTEGRAL, [5, 1]).classify().is_noninvertible
    assert not PowerSeries(ctx, RING_INTEGRAL, [0, 1]).classify().is_snc


def test_composition_small_example():
    # f = x + x^2, g = x + x^3: f(g) = x + x^2 + x^3 + 2x^4 + x^6
    ctx = PrimeContext(5, 6, 6)
    f = PowerSeries(ctx, RING_INTEGRAL, [1, 1])
    g = PowerSeries(ctx, RING_INTEGRAL, [1, 0, 1])
    assert f.compose(g).coeffs == (1, 1, 1, 2, 0, 1)


def test_composition_binomial_coefficient():
    # [x^2] of ((1+x)^5 - 1) composed with itself is C(25,2) = 300
    ctx = PrimeContext(2, 20, 8)
    u = PowerSeries(ctx, RING_INTEGRAL, [comb(5, i) for i in range(1, 6)])
    uu = u.compose(u)
    assert uu.coefficient(1) == 25
    assert uu.coefficient(2) == 300 % ctx.modulus
    assert uu.coefficient(3) == comb(25, 3) % ctx.modulus


def test_composition_matches_dense_oracle():
    rng = random.Random(11)
    for p, N, K in ((2, 8, 12), (3, 5, 9), (5, 4, 7)):
        ctx = PrimeContext(p, N, K)
        m = ctx.modulus
        for _ in range(20):
            f = _random_series(rng, ctx, unit_linear=False)
            g = _random_series(rng, ctx, unit_linear=False)
            want = poly_compose_mod([0] + list(f.coeffs), [0] + list(g.coeffs), m, K)
            assert list(f.compose(g).coeffs) == want[1:]


def test_multiplication_matches_dense_oracle():
    rng = random.Random(12)
    ctx = PrimeContext(3, 6, 10)
    m = ctx.modulus
    for _ in range(20):
        f = _random_series(rng, ctx, unit_linear=False)
        g = _random_series(rng, ctx, unit_linear=False)
        want = poly_mul_mod([0] + list(f.coeffs), [0] + list(g.coeffs), m, ctx.K)
        assert list((f * g).coeffs) == want[1:]


# the kernels' moduli: F_2, F_3, and the integral rings 2^136 (slots wider
# than a machine word) and 3^60 (not a power of two)
MODULI = st.sampled_from([2, 3, 2 ** 136, 3 ** 60])


@st.composite
def _mul_case(draw):
    m = draw(MODULI)
    residues = st.lists(st.integers(0, m - 1), max_size=20)
    return m, draw(residues), draw(residues), draw(st.integers(0, 24))


@settings(max_examples=150, deadline=None)
@given(_mul_case())
def test_packed_mul_matches_dense_oracle(case):
    m, a, b, limit = case
    assert _mul_dense_mod(a, b, limit, m) == poly_mul_mod(a, b, m, limit)


@st.composite
def _compose_case(draw):
    """outer (constant slot included) and sorted inner terms, with the
    inner term count just below, at or above the sparse crossover."""
    m = draw(MODULI)
    limit = draw(st.integers(1, 24))
    coeff = st.integers(0, m - 1)
    shape = draw(st.sampled_from(["dense", "zero top", "all zero", "linear"]))
    if shape == "linear":
        outer = [draw(coeff), draw(st.integers(1, m - 1))]
    elif shape == "all zero":
        outer = [0] * draw(st.integers(1, limit + 3))
    else:
        outer = draw(st.lists(coeff, min_size=1, max_size=limit + 3))
        if shape == "zero top":
            outer += [0] * draw(st.integers(1, 4))
    nnz = draw(st.sampled_from([_SPARSE_TERMS - 1, _SPARSE_TERMS, _SPARSE_TERMS + 1,
                                limit + 2]))
    degrees = draw(st.lists(st.integers(1, limit + 2), min_size=min(nnz, limit + 2),
                            max_size=min(nnz, limit + 2), unique=True))
    terms = [(e, draw(st.integers(1, m - 1))) for e in sorted(degrees)]
    return m, outer, terms, limit


@settings(max_examples=200, deadline=None)
@given(_compose_case())
def test_compose_kernel_matches_dense_horner(case):
    # covers sparse Horner (few terms, or a linear outer) and the packed
    # baby-step/giant-step path, including inner degrees above the limit
    m, outer, terms, limit = case
    inner = [0] * (limit + 3)
    for e, c in terms:
        inner[e] = c
    assert _compose_dense_mod(outer, terms, limit, m) == poly_horner_mod(outer, inner, m, limit)


def test_oracles_import_nothing_from_the_library():
    # the oracles judge every kernel swap only while they share no code
    # with the library they judge
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]             # __import__ / importlib by name
        else:
            continue
        assert not any(n.split(".")[0] == "padicdyn" for n in names), ast.dump(node)


def test_ring_operations():
    ctx = PrimeContext(7, 4, 4)
    f = PowerSeries(ctx, RING_INTEGRAL, [1, 2, 3, 4])
    g = PowerSeries(ctx, RING_INTEGRAL, [5, 6, 0, 1])
    assert f + g == PowerSeries(ctx, RING_INTEGRAL, [6, 8, 3, 5])
    assert f - f == PowerSeries.zero(ctx)
    assert (-f) + f == PowerSeries.zero(ctx)
    assert f.scale(2) == f + f
    assert f.truncate(2).coeffs == (1, 2, 0, 0)


def test_composition_associativity_random():
    rng = random.Random(13)
    ctx = PrimeContext(2, 6, 10)
    for _ in range(25):
        f = _random_series(rng, ctx, unit_linear=False)
        g = _random_series(rng, ctx, unit_linear=False)
        h = _random_series(rng, ctx, unit_linear=False)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_compose_order_limit_matches_truncation():
    rng = random.Random(14)
    ctx = PrimeContext(3, 5, 12)
    for _ in range(10):
        f = _random_series(rng, ctx, unit_linear=False)
        g = _random_series(rng, ctx, unit_linear=False)
        for order in (1, 4, 9):
            assert f.compose(g, order=order) == f.compose(g).truncate(order)


def test_reversion_catalan():
    # inverse of x - x^2 has Catalan coefficients 1,1,2,5,14,42,...
    ctx = PrimeContext(7, 8, 8)
    g = PowerSeries(ctx, RING_INTEGRAL, [1, -1 % ctx.modulus])
    r = g.reversion()
    catalan = [comb(2 * n, n) // (n + 1) for n in range(8)]
    assert list(r.coeffs) == [c % ctx.modulus for c in catalan]
    # and the signed variant for x + x^2
    h = PowerSeries(ctx, RING_INTEGRAL, [1, 1])
    s = h.reversion()
    signed = [c * (-1) ** n % ctx.modulus for n, c in enumerate(catalan)]
    assert list(s.coeffs) == signed


def test_reversion_roundtrip_random():
    rng = random.Random(15)
    for p, N, K in ((2, 10, 16), (3, 6, 12), (5, 5, 9)):
        ctx = PrimeContext(p, N, K)
        ident = PowerSeries.identity(ctx)
        for _ in range(8):
            f = _random_series(rng, ctx)
            r = f.reversion()
            assert f.compose(r) == ident
            assert r.compose(f) == ident


def test_reversion_residue_and_float():
    ctx = PrimeContext(2, 6, 20)
    klopsch = PowerSeries(ctx, RING_RESIDUE, [1] * 20)
    r = klopsch.reversion()
    assert r == klopsch
    assert klopsch.compose(r).is_identity()
    f = PowerSeries(ctx, RING_INTEGRAL, [1, 1]).to_float()
    fr = f.reversion()
    assert f.compose(fr).is_identity()


def test_reversion_requires_unit():
    ctx = PrimeContext(3, 6, 6)
    with pytest.raises(PreconditionError):
        PowerSeries(ctx, RING_INTEGRAL, [3, 1]).reversion()
    with pytest.raises(PreconditionError):
        PowerSeries(ctx, RING_RESIDUE, [0, 1]).reversion()


def test_iterate_laws():
    rng = random.Random(16)
    ctx = PrimeContext(3, 5, 10)
    f = _random_series(rng, ctx, unit_linear=False)
    assert f.iterate(0) == PowerSeries.identity(ctx)
    assert f.iterate(1) == f
    assert f.iterate(5) == f.iterate(2).compose(f.iterate(3))
    assert f.iterate(6) == f.iterate(2).iterate(3)


def test_reduction_homomorphism():
    rng = random.Random(17)
    ctx = PrimeContext(3, 6, 16)
    for _ in range(10):
        f = _random_series(rng, ctx, unit_linear=False)
        g = _random_series(rng, ctx, unit_linear=False)
        assert f.compose(g).reduce_mod_p() == f.reduce_mod_p().compose(g.reduce_mod_p())
        assert (f * g).reduce_mod_p() == f.reduce_mod_p() * g.reduce_mod_p()
        assert (f + g).reduce_mod_p() == f.reduce_mod_p() + g.reduce_mod_p()


def test_float_round_trips():
    ctx = PrimeContext(5, 8, 6)
    f = PowerSeries(ctx, RING_INTEGRAL, [1, 2, 3, 0, 24])
    F = f.to_float()
    assert F.ring == RING_FLOAT
    assert F.to_integral() == f
    # stored integral zeros are zeros-at-precision, not exact zeros
    assert F.coeffs[3].is_zero and not F.coeffs[3].is_exact_zero


def test_float_precision_flows_through_compose():
    ctx = PrimeContext(2, 12, 6)
    f = PowerSeries(ctx, RING_INTEGRAL, [1, 1]).to_float()
    fuzzy = [PadicNumber.from_int(ctx, 1), PadicNumber.zero_at(ctx, 3)]
    g = PowerSeries(ctx, RING_FLOAT, fuzzy)
    comp = f.compose(g)
    # the unknown x^2 digit of g infects [x^2] of the composite
    assert comp.coeffs[1].precision <= 3
    with pytest.raises(PrecisionError):
        comp.to_integral()


def test_congruent():
    ctx = PrimeContext(2, 10, 6)
    f = PowerSeries(ctx, RING_INTEGRAL, [1, 3, 5])
    g = f + PowerSeries(ctx, RING_INTEGRAL, [0, 4, 8])
    assert f.congruent(g, p_exp=2)
    assert not f.congruent(g, p_exp=3)
    assert f.congruent(f)
    with pytest.raises(PrecisionError):
        f.congruent(g, p_exp=11)


def test_congruent_float_refuses_when_blind():
    ctx = PrimeContext(2, 10, 4)
    a = PowerSeries(ctx, RING_FLOAT, [PadicNumber.from_int(ctx, 1),
                                      PadicNumber.zero_at(ctx, 2)])
    b = PowerSeries(ctx, RING_FLOAT, [PadicNumber.from_int(ctx, 1),
                                      PadicNumber.zero_at(ctx, 2)])
    with pytest.raises(PrecisionError):
        a.congruent(b, p_exp=5)


def test_first_difference():
    ctx = PrimeContext(3, 4, 5)
    f = PowerSeries(ctx, RING_INTEGRAL, [1, 0, 2])
    g = PowerSeries(ctx, RING_INTEGRAL, [1, 0, 5])
    idx, diff = f.first_difference(g)
    assert idx == 3 and diff == (2 - 5) % ctx.modulus
    assert f.first_difference(f) is None


def test_json_roundtrip_all_rings():
    ctx = PrimeContext(3, 5, 4)
    samples = [
        PowerSeries(ctx, RING_INTEGRAL, [1, 2, 3, 4]),
        PowerSeries(ctx, RING_RESIDUE, [1, 0, 2]),
        PowerSeries(ctx, RING_INTEGRAL, [1, 9]).to_float(),
    ]
    for s in samples:
        assert PowerSeries.from_json(s.to_json()) == s
    # integral input accepts plain ints
    obj = {"ctx": ctx.to_json(), "ring": RING_INTEGRAL, "coeffs": [1, 2]}
    assert PowerSeries.from_json(obj) == PowerSeries(ctx, RING_INTEGRAL, [1, 2])


def test_context_mixing_refused():
    a = PowerSeries(PrimeContext(3, 5, 4), RING_INTEGRAL, [1])
    b = PowerSeries(PrimeContext(3, 5, 5), RING_INTEGRAL, [1])
    with pytest.raises(PreconditionError):
        a + b
    c = PowerSeries(PrimeContext(3, 5, 4), RING_RESIDUE, [1])
    with pytest.raises(PreconditionError):
        a.compose(c)
