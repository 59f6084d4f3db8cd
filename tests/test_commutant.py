"""Linearization, commutant recursion, torsion certificates."""

import random
from fractions import Fraction

import pytest

from padicdyn import (
    PadicNumber,
    PowerSeries,
    PreconditionError,
    PrecisionError,
    PrimeContext,
    RING_INTEGRAL,
    RING_RESIDUE,
    certify_torsion,
    commutant,
    conjugate_pair,
    gm_endomorphism,
    gm_minimal_pair,
    linearize,
    primitive_torsion_root,
    seeded_conjugator,
)
from padicdyn.commutant import _solve_commutant_integral

from oracles import commutant_recursion_mod


def test_linearize_log_oracle():
    # the linearizer of (1+x)^3 - 1 is log(1+x): L((1+x)^3-1) = 3·L(x)
    ctx = PrimeContext(3, 24, 10)
    f = gm_endomorphism(ctx, 3)
    lin = linearize(f)
    for i in range(1, ctx.K + 1):
        want = PadicNumber.from_fraction(ctx, Fraction((-1) ** (i + 1), i))
        assert lin.series.coeffs[i - 1].agrees(want)
    assert lin.valuation_profile[2] == -1  # v_3(1/3)


def test_linearize_identity_profile():
    ctx = PrimeContext(2, 20, 8)
    f = gm_endomorphism(ctx, 2)
    lin = linearize(f)
    assert lin.series.coeffs[0].agrees(PadicNumber.one(ctx))
    # functional equation, checked directly in the float ring
    F = f.to_float()
    left = lin.series.compose(F)
    right = lin.series.scale(PadicNumber.from_int(ctx, 2))
    assert left.first_difference(right) is None


def test_commutant_trivial_scalars():
    ctx = PrimeContext(3, 20, 10)
    f = gm_endomorphism(ctx, 3)
    assert commutant(f, 1).is_identity()
    assert commutant(f, 3).first_difference(f.to_float()) is None


def test_commutant_powers_of_f():
    ctx = PrimeContext(2, 24, 8)
    f = gm_endomorphism(ctx, 2)
    ff = f.compose(f).to_float()
    z = commutant(f, 4)
    assert z.first_difference(ff) is None


def test_commutant_seed_coefficient_formula():
    # d2 = a2(a^2 - a)/(a1^2 - a1) drops out of the first recursion step
    rng = random.Random(41)
    for p in (2, 3):
        ctx = PrimeContext(p, 24, 6)
        for _ in range(5):
            a1 = p * rng.randrange(1, ctx.modulus // p)
            if a1 % (p * p) == 0:
                a1 += p
            coeffs = [a1] + [rng.randrange(ctx.modulus) for _ in range(5)]
            f = PowerSeries(ctx, RING_INTEGRAL, coeffs)
            a = rng.randrange(2, 20)
            z = commutant(f, a)
            A1 = PadicNumber.from_int(ctx, a1)
            A2 = PadicNumber.from_int(ctx, coeffs[1])
            A = PadicNumber.from_int(ctx, a)
            want = A2 * (A * A - A) / (A1 * A1 - A1)
            assert z.coeffs[1].agrees(want)


def test_commutant_requires_noninvertible():
    ctx = PrimeContext(2, 16, 6)
    with pytest.raises(PreconditionError):
        commutant(gm_endomorphism(ctx, 5), 2)
    with pytest.raises(PreconditionError):
        commutant(PowerSeries(ctx, RING_RESIDUE, [0, 1]), 2)


def test_certify_torsion_gm_pair_p2():
    ctx = PrimeContext(2, 40, 24)
    f, u = gm_endomorphism(ctx, 2), gm_endomorphism(ctx, 5)
    cert = certify_torsion(f, u)
    assert cert.outcome == "integral"
    assert cert.verified_order
    assert cert.commutes_with_u
    assert cert.witness_index is None
    # the certified series is (1+x)^(-1) - 1, the geometric alternation
    out_prec = ctx.N - ctx.K + 1
    assert cert.series.congruent(gm_endomorphism(ctx, -1), p_exp=out_prec)
    assert cert.coefficient_precision[0] == ctx.N
    assert cert.coefficient_precision[-1] == out_prec


def test_certify_torsion_higher_torsion_order():
    # p=5: the certificate has order e=4 and linear coefficient of
    # multiplicative order 4
    ctx = PrimeContext(5, 20, 10)
    f = gm_endomorphism(ctx, 5)
    cert = certify_torsion(f)
    assert cert.outcome == "integral"
    assert cert.verified_order
    zeta = primitive_torsion_root(ctx)
    assert cert.series.coeffs[0] == zeta.integer_residue(ctx.N)
    # and matches the closed form (1+x)^zeta - 1 to output precision
    actx = PrimeContext(5, 40, 10)
    rich = PadicNumber.make(actx, 0, primitive_torsion_root(actx).integer_residue(40), 40)
    want = gm_endomorphism(ctx, rich)
    assert cert.series.congruent(want, p_exp=ctx.N - ctx.K + 1)


def test_certify_torsion_non_integral_witness():
    # frozen counterexamples: residue part x^p·(1+x) rather than x^p
    f2 = PowerSeries(PrimeContext(2, 30, 16), RING_INTEGRAL, [2, 1, 1])
    cert2 = certify_torsion(f2)
    assert cert2.outcome == "non-integral"
    assert cert2.witness_index == 4
    assert cert2.series is None
    f3 = PowerSeries(PrimeContext(3, 30, 16), RING_INTEGRAL, [3, 0, 1, 1])
    cert3 = certify_torsion(f3)
    assert cert3.outcome == "non-integral"
    assert cert3.witness_index == 4


def test_witness_stable_across_precision():
    for N in (26, 34, 42):
        ctx = PrimeContext(2, N, 16)
        cert = certify_torsion(PowerSeries(ctx, RING_INTEGRAL, [2, 1, 1]))
        assert cert.outcome == "non-integral"
        assert cert.witness_index == 4


def test_certified_digits_stable_across_precision():
    low = PrimeContext(2, 34, 16)
    high = PrimeContext(2, 50, 16)
    zl = certify_torsion(gm_endomorphism(low, 2)).series
    zh = certify_torsion(gm_endomorphism(high, 2)).series
    for j in range(1, 17):
        e = low.N - j + 1
        assert zl.coefficient(j) % 2 ** e == zh.coefficient(j) % 2 ** e


def test_certify_torsion_gates():
    ctx = PrimeContext(2, 40, 24)
    with pytest.raises(PrecisionError):
        certify_torsion(gm_endomorphism(PrimeContext(2, 20, 24), 2))
    with pytest.raises(PreconditionError):
        certify_torsion(gm_endomorphism(ctx, 4))  # wideg 4, not p
    with pytest.raises(PreconditionError):
        certify_torsion(PowerSeries(ctx, RING_INTEGRAL, [4, 1]))  # v(a1) = 2
    u_bad = gm_endomorphism(ctx, 5) + PowerSeries(ctx, RING_INTEGRAL, [0, 0, 2])
    with pytest.raises(PreconditionError):
        certify_torsion(gm_endomorphism(ctx, 2), u_bad)


def test_budget_documented_in_error():
    ctx = PrimeContext(3, 10, 8)
    with pytest.raises(PrecisionError):
        certify_torsion(gm_endomorphism(ctx, 3), min_output_precision=4)
    # same f with margin that fits passes
    cert = certify_torsion(gm_endomorphism(ctx, 3), min_output_precision=2)
    assert cert.outcome == "integral"


def test_linearize_budget_failure():
    # linearizer coefficients of gm(p) sink like v(1/i); a tiny N runs out
    ctx = PrimeContext(3, 4, 81)
    f = gm_endomorphism(ctx, 3)
    with pytest.raises(PrecisionError):
        linearize(f)


def _assert_solver_matches_reference(f, d1):
    ctx = f.ctx
    want = commutant_recursion_mod(list(f.coeffs), d1, ctx.p, ctx.N, ctx.K)
    assert _solve_commutant_integral(f, d1) == want
    return want


@pytest.mark.parametrize("p,N,K,seeds", [
    (2, 40, 24, (1, 2, 3)),
    (3, 36, 24, (1, 2)),
    (5, 24, 14, (1, 2)),
])
def test_solver_matches_full_recomposition_on_conjugated_pairs(p, N, K, seeds):
    # dense f: every power z^i up to K enters the numerator
    ctx = PrimeContext(p, N, K)
    f, u = gm_minimal_pair(ctx)
    d1 = primitive_torsion_root(ctx).integer_residue(N)
    _assert_solver_matches_reference(f, d1)
    for seed in seeds:
        fc, _uc = conjugate_pair(f, u, seeded_conjugator(ctx, seed))
        digits, precs, witness, _res = _assert_solver_matches_reference(fc, d1)
        assert witness is None
        assert precs[1:] == [N] + [N - k for k in range(1, K)]
        assert any(digits[K // 2:])


def test_solver_matches_full_recomposition_few_term():
    ctx = PrimeContext(2, 56, 48)
    f = PowerSeries(ctx, RING_INTEGRAL, [2, 1])
    _digits, _precs, witness, _res = _assert_solver_matches_reference(f, -1)
    assert witness is None


@pytest.mark.parametrize("coeffs,index", [
    ([2, 1, 1], 4),
    ([2, 1, 0, 1], 8),
    ([6, 1, 1], 4),
])
def test_solver_matches_full_recomposition_at_witness(coeffs, index):
    ctx = PrimeContext(2, 40, 24)
    f = PowerSeries(ctx, RING_INTEGRAL, coeffs)
    _digits, _precs, witness, residue = _assert_solver_matches_reference(f, -1)
    assert witness == index
    assert residue == 1
