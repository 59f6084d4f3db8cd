"""Scalar arithmetic: contexts, valuations, p-adic floats."""

import random
from fractions import Fraction

import pytest

from padicdyn import (
    INFINITE,
    PadicNumber,
    PreconditionError,
    PrecisionError,
    PrimeContext,
    is_prime,
    primitive_torsion_root,
    teichmuller,
    vp,
    vp_fraction,
)
from oracles import slow_vp


def test_context_validation():
    PrimeContext(2, 1, 2)
    with pytest.raises(PreconditionError):
        PrimeContext(4, 8, 8)
    with pytest.raises(PreconditionError):
        PrimeContext(1, 8, 8)
    with pytest.raises(PreconditionError):
        PrimeContext(3, 0, 8)
    with pytest.raises(PreconditionError):
        PrimeContext(3, 8, 1)


def test_context_constants():
    assert PrimeContext(2, 4, 4).delta == 2
    assert PrimeContext(2, 4, 4).torsion_order == 2
    for p in (3, 5, 7):
        ctx = PrimeContext(p, 4, 4)
        assert ctx.delta == 1
        assert ctx.torsion_order == p - 1
        assert ctx.modulus == p ** 4


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert is_prime(n) == (n in primes)


def test_vp_matches_digit_counting():
    for p in (2, 3, 5):
        assert vp(0, p) is INFINITE
        for n in range(1, 400):
            assert vp(n, p) == slow_vp(n, p)
            assert vp(-n, p) == slow_vp(n, p)


def test_vp_fraction():
    assert vp_fraction(Fraction(8, 3), 2) == 3
    assert vp_fraction(Fraction(3, 8), 2) == -3
    assert vp_fraction(Fraction(0), 5) is INFINITE
    assert vp_fraction(Fraction(45, 7), 3) == 2


def test_multiplication_is_valuation_homomorphism_exhaustive():
    # every pair of nonzero residues mod p^3; products must match from_int
    for p in (2, 3, 5):
        ctx = PrimeContext(p, 12, 2)
        cube = p ** 3
        for a in range(1, cube):
            xa = PadicNumber.from_int(ctx, a)
            assert xa.valuation == slow_vp(a, p)
            for b in range(1, cube):
                xb = PadicNumber.from_int(ctx, b)
                prod = xa * xb
                assert prod == PadicNumber.from_int(ctx, a * b)
                assert prod.valuation == slow_vp(a * b, p)


def test_addition_examples():
    ctx = PrimeContext(2, 10, 4)
    two = PadicNumber.from_int(ctx, 2)
    eight = PadicNumber.from_int(ctx, 8)
    ten = two + eight
    assert ten == PadicNumber.from_int(ctx, 10)
    assert ten.valuation == 1
    # equal valuations can cancel: the isosceles rule costs digits
    four = two + two
    assert four.agrees(PadicNumber.from_int(ctx, 4))
    assert four.relative_precision == ctx.N - 1


def test_zero_flavors():
    ctx = PrimeContext(3, 8, 4)
    x = PadicNumber.from_int(ctx, 7)
    assert (x + PadicNumber.exact_zero(ctx)) == x
    diff = x - x
    assert diff.is_zero and not diff.is_exact_zero
    assert diff.precision == 8
    assert (x * PadicNumber.exact_zero(ctx)).is_exact_zero
    marker = PadicNumber.zero_at(ctx, 3)
    # an approximate zero caps the precision of anything it joins
    s = x + marker
    assert s.agrees(x)
    assert s.precision == 3


def test_division():
    ctx = PrimeContext(5, 10, 4)
    a = PadicNumber.from_int(ctx, 35)
    b = PadicNumber.from_int(ctx, 10)
    q = a / b
    assert (q * b).agrees(a)
    assert q.valuation == 0
    with pytest.raises(PreconditionError):
        a / PadicNumber.exact_zero(ctx)
    with pytest.raises(PrecisionError):
        a / PadicNumber.zero_at(ctx, 4)


def test_pow():
    ctx = PrimeContext(3, 12, 4)
    a = PadicNumber.from_int(ctx, 6)
    cube = a * a * a
    assert a ** 3 == cube
    inv = a ** -1
    assert (inv * a).agrees(PadicNumber.one(ctx))
    assert (a ** -2).valuation == -2
    assert (a ** 0) == PadicNumber.one(ctx)


def test_normalization_is_canonical():
    ctx = PrimeContext(2, 10, 4)
    a = PadicNumber.make(ctx, 0, 3, 5)
    b = PadicNumber.make(ctx, 0, 3 + 2 ** 7, 5)
    assert a == b
    assert hash(a) == hash(b)
    # mantissa with extractable valuation renormalizes
    c = PadicNumber.make(ctx, 1, 6, 12)
    assert c.valuation == 2
    assert c.unit % 2 == 1


def test_from_fraction():
    ctx = PrimeContext(2, 16, 4)
    third = PadicNumber.from_fraction(ctx, Fraction(1, 3))
    assert (third * PadicNumber.from_int(ctx, 3)).agrees(PadicNumber.one(ctx))
    half = PadicNumber.from_fraction(ctx, Fraction(1, 2))
    assert half.valuation == -1
    assert PadicNumber.from_fraction(ctx, Fraction(0)).is_exact_zero


def test_residue_and_integer_residue():
    ctx = PrimeContext(7, 6, 4)
    a = PadicNumber.from_int(ctx, 23)
    assert a.residue() == 2
    assert a.integer_residue(2) == 23
    assert a.integer_residue(6) == 23
    with pytest.raises(PrecisionError):
        PadicNumber.zero_at(ctx, 1).integer_residue(3)
    with pytest.raises(PreconditionError):
        (PadicNumber.one(ctx) / PadicNumber.from_int(ctx, 7)).residue()


def test_agrees_tracks_shared_window():
    ctx = PrimeContext(2, 3, 4)
    one = PadicNumber.from_int(ctx, 1)
    nine = PadicNumber.from_int(ctx, 9)
    assert one.agrees(nine)  # 1 = 9 mod 8, and 3 digits is all we carry
    ctx2 = PrimeContext(2, 4, 4)
    assert not PadicNumber.from_int(ctx2, 1).agrees(PadicNumber.from_int(ctx2, 9))


def test_teichmuller_fixed_points():
    for p in (3, 5, 7):
        for N in (4, 16, 32):
            ctx = PrimeContext(p, N, 2)
            one = PadicNumber.one(ctx)
            for c in range(1, p):
                t = teichmuller(ctx, c)
                assert t.residue() == c
                assert (t ** (p - 1)).agrees(one)


def test_primitive_torsion_root():
    ctx2 = PrimeContext(2, 12, 4)
    z2 = primitive_torsion_root(ctx2)
    assert z2.integer_residue(12) == 2 ** 12 - 1
    for p in (3, 5, 7, 13):
        ctx = PrimeContext(p, 10, 4)
        z = primitive_torsion_root(ctx)
        e = p - 1
        assert (z ** e).agrees(PadicNumber.one(ctx))
        # primitive: no proper power hits 1
        for k in range(1, e):
            zk = z ** k
            assert not zk.agrees(PadicNumber.one(ctx)) or k == 0


def test_json_roundtrip():
    ctx = PrimeContext(3, 9, 4)
    samples = [
        PadicNumber.from_int(ctx, 42),
        PadicNumber.from_fraction(ctx, Fraction(2, 3)),
        PadicNumber.exact_zero(ctx),
        PadicNumber.zero_at(ctx, 4),
        PadicNumber.make(ctx, -2, 5, 6),
    ]
    for x in samples:
        back = PadicNumber.from_json(ctx, x.to_json())
        assert back == x
    obj = PadicNumber.from_int(ctx, 42).to_json()
    assert isinstance(obj["u"], str)
    assert PadicNumber.exact_zero(ctx).to_json()["v"] == "inf"
    assert PrimeContext.from_json(ctx.to_json()) == ctx


@pytest.mark.parametrize("obj", [
    {"v": 0, "u": "1", "prec": 2.5},
    {"v": "inf", "u": "0", "prec": 2.5},
    {"v": True, "u": "1", "prec": 3},
    {"v": 0, "u": 1.5, "prec": 3},
])
def test_json_refuses_non_integer_fields(obj):
    with pytest.raises(TypeError):
        PadicNumber.from_json(PrimeContext(3, 9, 4), obj)


def test_random_field_laws():
    rng = random.Random(20260819)
    for p in (2, 3, 5):
        ctx = PrimeContext(p, 14, 2)
        nums = [PadicNumber.from_int(ctx, rng.randrange(1, ctx.modulus))
                for _ in range(24)]
        nums.extend(PadicNumber.from_fraction(
            ctx, Fraction(rng.randrange(1, 50), rng.choice([1, 3, 7, p])))
            for _ in range(8))
        for _ in range(300):
            a, b, c = rng.choice(nums), rng.choice(nums), rng.choice(nums)
            assert ((a + b) + c).agrees(a + (b + c))
            assert (a * (b + c)).agrees(a * b + a * c)
            assert (a * b).agrees(b * a)
            if not b.is_zero:
                assert ((a / b) * b).agrees(a)
