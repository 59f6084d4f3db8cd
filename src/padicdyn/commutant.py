"""Linearization, commutants, and torsion-series certification.

Everything here revolves around one triangular recursion: if f has
linear coefficient a1 with 0 < v_p(a1), then a series z = sum d_j x^j
commutes with f exactly when, for every k,

    d_{k+1} * (a1^{k+1} - a1) = [x^{k+1}] (f(z_k(x)) - z_k(f(x)))

with z_k the partial sum through degree k.  The right side only involves
digits already fixed, so the d_j are determined one at a time by the
choice of d_1.  When v_p(a1) = 1 every denominator has valuation exactly
one (a1^k - 1 is congruent to -1 mod p, a unit), which gives the two
payoffs this module trades on: in the p-adic float ring the recursion
computes the commutant with one honest digit of absolute precision lost
per step, and in the integral ring the single low digit of the numerator
decides integrality rigorously, yielding either an integral torsion
series or a witness index where no integral continuation exists.

The integral solver canonicalizes each stored digit to its trustworthy
precision (digit j is known mod p^(N-j+1)), zeroing the garbage above
it.  That keeps runs deterministic and makes certificates comparable
across independent recomputations.  It also never recomposes f(z_k)
in full: coefficient n of z^i (i >= 2) involves only digits below n, so
an online table of the powers z^i, i <= deg f, grows one degree per
step and the numerator is read off it (online evaluation in the sense
of van der Hoeven, "Relax, but don't be too lazy", 2002).  Step n costs
about n * min(deg f, n) products, so the f(z_k) side of a run is O(K^3)
for a dense f and O(K^2) for a few-term f, against O(K^4) for one
Horner composition per step.  The z_k(f) side keeps the running powers
of f, one Kronecker-packed product per step for a dense f and a sparse
O(K) one for a few-term f, plus an O(K) update of the running sum.  The
float commutant still recomposes at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import PreconditionError, PrecisionError
from .padic import PadicNumber, exponent_to_json, primitive_torsion_root, vp
from .series import (
    RING_FLOAT,
    RING_INTEGRAL,
    PowerSeries,
    _SPARSE_TERMS,
    _compose_dense_f,
    _mul_dense_f,
    _mul_dense_mod,
    _mul_sparse_mod,
)
from .newton import weierstrass_degree


def _require_noninvertible(f):
    """Shared gate: f in S_nc, integral, with 0 < v_p(f'(0)) finite;
    returns f in the float ring plus its linear coefficient."""
    if f.ring == RING_INTEGRAL:
        F = f.to_float()
    elif f.ring == RING_FLOAT:
        F = f
    else:
        raise PreconditionError("residue-ring series have no p-adic linearization")
    a1 = F.linear
    if a1.is_zero:
        raise PreconditionError("linear coefficient vanishes (to precision); not in S_nc")
    if a1.valuation < 1:
        raise PreconditionError("linear coefficient is a unit; series is invertible")
    for i, c in enumerate(F.coeffs, 1):
        if not c.is_zero and c.valuation < 0:
            raise PreconditionError(f"coefficient {i} is not integral")
    return F, a1


@dataclass(frozen=True)
class Linearization:
    """L with L'(0) = 1 and L(f(x)) = f'(0) * L(x) to precision.

    valuation_profile holds, per index, the exact coefficient valuation
    when the coefficient is known nonzero, otherwise the precision bound
    below which it is indistinguishable from zero (INFINITE for exact
    zeros).  Log-type series make these go negative; the profile is the
    honest record of how far.
    """

    series: PowerSeries
    valuation_profile: tuple

    def to_json(self):
        prof = [exponent_to_json(v) for v in self.valuation_profile]
        return {"series": self.series.to_json(), "valuation_profile": prof}


def linearize(f: PowerSeries) -> Linearization:
    """Solve L∘f = f'(0)·L with L'(0) = 1, coefficient by coefficient.

    c_i = [x^i](sum_{j<i} c_j f^j) / (a1 - a1^i); the denominator has
    valuation exactly v_p(a1), so each step costs one digit.  A
    coefficient sinking below valuation -N/2 aborts: at that depth half
    the working digits are gone and the run needs a larger N, not a
    shrug.
    """
    F, a1 = _require_noninvertible(f)
    ctx = F.ctx
    K, N = ctx.K, ctx.N
    zero = PadicNumber.exact_zero(ctx)
    one = PadicNumber.one(ctx)
    fdense = (zero,) + F.coeffs
    coeffs = [one] + [zero] * (K - 1)
    power = list(fdense)                       # f^j as j grows
    running = [c * one for c in fdense]        # sum_{j<i} c_j f^j
    for i in range(2, K + 1):
        s = running[i]
        den = a1 - a1 ** i
        c = s / den
        if not c.is_zero and c.valuation < -(N // 2):
            raise PrecisionError(
                f"coefficient {i} of the linearization has valuation "
                f"{c.valuation}, below the -N/2 budget; increase N"
            )
        coeffs[i - 1] = c
        if i < K:
            power = _mul_dense_f(ctx, power, fdense, K)
            if not c.is_exact_zero:
                for j in range(i, K + 1):
                    running[j] = running[j] + c * power[j]
    series = PowerSeries(ctx, RING_FLOAT, coeffs)
    profile = []
    for c in coeffs:
        profile.append(c.precision if c.is_zero else c.valuation)
    return Linearization(series, tuple(profile))


def commutant(f: PowerSeries, a) -> PowerSeries:
    """The unique series with linear coefficient a commuting with f,
    via the triangular recursion in the p-adic float ring."""
    F, a1 = _require_noninvertible(f)
    ctx = F.ctx
    K, N = ctx.K, ctx.N
    a = PowerSeries._coerce_float(ctx, a)
    zero = PadicNumber.exact_zero(ctx)
    fdense = (zero,) + F.coeffs
    digits = [a] + [zero] * (K - 1)
    zterms = [] if a.is_exact_zero else [(1, a)]
    power = list(fdense)                       # f^(k) while building digit k+1
    s_of_f = [c * a for c in fdense]           # z_k∘f so far
    for k in range(1, K):
        fz = _compose_dense_f(ctx, fdense, zterms, k + 1)
        nu = fz[k + 1] - s_of_f[k + 1]
        den = a1 ** (k + 1) - a1
        d = nu / den
        if not d.is_zero and d.valuation < -(N // 2):
            raise PrecisionError(
                f"commutant coefficient {k + 1} has valuation {d.valuation}, "
                "below the -N/2 budget; increase N"
            )
        digits[k] = d
        if k + 1 < K:
            power = _mul_dense_f(ctx, power, fdense, K)
            if not d.is_exact_zero:
                zterms.append((k + 1, d))
                for j in range(k + 1, K + 1):
                    s_of_f[j] = s_of_f[j] + d * power[j]
        elif not d.is_exact_zero:
            zterms.append((k + 1, d))
    return PowerSeries(ctx, RING_FLOAT, digits)


# ---------------------------------------------------------------------------
# integral solver


def _solve_commutant_integral(f: PowerSeries, d1: int):
    """Run the recursion entirely in Z/p^N with the precision ledger.

    Returns (digits, precisions, witness_index, witness_residue): digits
    are canonical (digit j reduced mod p^(N-j+1)); a non-None witness
    index k marks the first step whose numerator is a unit, so division
    by the valuation-one denominator leaves Z_p -- rigorous because the
    numerator's low digit is inside its trustworthy precision.

    The f∘z side of the numerator is evaluated online: a table keeps
    zp[i][n] = [x^n] z^i for 2 <= i <= deg f, one degree per step.  For
    i >= 2 that coefficient involves only the digits d_1 .. d_(n-i+1),
    all fixed before step n, so

        zp[i][n] = sum_{j=1}^{n-i+1} d_j * zp[i-1][n-j],   zp[1] = digits

    and [x^n] f(z_k) = sum_{i=2}^{min(deg f, n)} f_i * zp[i][n].  Step n
    costs about n * min(deg f, n) products: n^2/2 for a dense conjugate,
    O(n) for a few-term f such as 2x + x^2.  The z∘f side keeps the
    powers f^k, one packed product per step (a sparse one when f has
    at most _SPARSE_TERMS terms), and the running sum z_k∘f.  Everything
    is exact mod p^N, so digits, ledger and witness are those of
    recomposing f(z_k) in full at every step.
    """
    ctx = f.ctx
    p, N, K, m = ctx.p, ctx.N, ctx.K, ctx.modulus
    a1 = f.coeffs[0]
    if vp(a1, p) != 1:
        raise PreconditionError(
            "integral recursion needs v_p(f'(0)) = 1 so denominators have "
            "valuation exactly one"
        )
    fd = [0] + list(f.coeffs)
    fterms = [(i, c) for i, c in enumerate(fd) if c]
    deg = fterms[-1][0]
    if len(fterms) > _SPARSE_TERMS:
        fterms = None                           # dense f: packed products
    digits = [0] * (K + 1)
    precs = [0] * (K + 1)
    digits[1] = d1 % m
    precs[1] = N
    zp = [None, digits] + [[0] * (K + 1) for _ in range(2, deg + 1)]
    power = fd[:]                               # f^k while building digit k+1
    s_of_f = [c * digits[1] % m for c in fd]    # z_k∘f so far
    m1 = m // p
    for k in range(1, K):
        if N - k + 1 < 1:
            raise PrecisionError(
                f"numerator at step {k + 1} retains no trustworthy digits; "
                "increase N"
            )
        n = k + 1
        fz = 0
        for i in range(2, min(deg, n) + 1):
            # digits[1 : n-i+2] against zp[i-1][n-1], ..., zp[i-1][i-1]
            c = sum(map(mul, digits[1:n - i + 2], zp[i - 1][n - 1:i - 2:-1])) % m
            zp[i][n] = c
            fz += fd[i] * c
        nu = (fz - s_of_f[n]) % m
        if nu % p:
            return digits, precs, n, nu % p
        den = (pow(a1, n, m) - a1) % m
        w = den // p                            # denominator = p * unit, exactly
        d = (nu // p) * pow(w, -1, m1) % m1
        prec = N - k
        d %= p ** prec
        digits[n] = d
        precs[n] = prec
        if n < K:
            power = (_mul_dense_mod(power, fd, K, m) if fterms is None
                     else _mul_sparse_mod(power, fterms, K, m))
            if d:
                for j in range(n, K + 1):
                    s_of_f[j] = (s_of_f[j] + d * power[j]) % m
    return digits, precs, None, None


@dataclass(frozen=True)
class TorsionCertificate:
    """Outcome of the integrality certification.

    outcome "integral" carries the torsion series with its per-index
    coefficient precision ledger; "non-integral" carries the witness
    index where the recursion's numerator is a unit (the low digit of a
    quantity known at least mod p, so the verdict survives any precision
    loss elsewhere).  The order and commutation flags are checked to the
    output precision p^(N-K+1), never beyond what the ledger supports.
    """

    outcome: str
    witness_index: int | None
    series: PowerSeries | None
    verified_order: bool
    coefficient_precision: tuple | None
    commutes_with_u: bool | None
    N: int
    K: int

    def to_json(self):
        obj = {
            "outcome": self.outcome,
            "verified_order": self.verified_order,
            "commutes_with_u": self.commutes_with_u,
            "precision": {"N": self.N, "K": self.K},
        }
        if self.witness_index is not None:
            obj["witness_index"] = self.witness_index
        if self.series is not None:
            obj["series"] = self.series.to_json()
            obj["coefficient_precision"] = list(self.coefficient_precision)
        return obj


def certify_torsion(f: PowerSeries, u: PowerSeries = None,
                    min_output_precision: int = 8) -> TorsionCertificate:
    """Build the candidate torsion commutant of f with linear coefficient
    a primitive e-th root of unity and certify its integrality.

    Preconditions are hard gates, not verdicts: f must be integral with
    wideg(f mod p) = p and v_p(f'(0)) = 1, the precision budget must
    satisfy N >= K + min_output_precision (one digit per recursion step
    plus the requested output margin), and a supplied u must pass the
    minimal-pair validation at the output modulus.  Inside the gates the
    recursion itself decides: integral series or witness index.
    """
    if f.ring != RING_INTEGRAL:
        raise PreconditionError("torsion certification runs in the integral ring")
    ctx = f.ctx
    p, N, K = ctx.p, ctx.N, ctx.K
    if min_output_precision < 1:
        raise PreconditionError("output precision margin must be at least 1")
    if N < K + min_output_precision:
        raise PrecisionError(
            f"precision budget violated: need N >= K + {min_output_precision} "
            f"(one digit per step plus margin), got N={N}, K={K}"
        )
    wd = weierstrass_degree(f.reduce_mod_p())
    if wd != p:
        got = "undetermined" if wd is None else wd
        raise PreconditionError(f"wideg(f mod p) must equal p={p}, got {got}")
    if vp(f.coeffs[0], p) != 1:
        raise PreconditionError("need v_p(f'(0)) = 1")
    out_prec = N - K + 1
    if u is not None:
        from .oracle import validate_minimal_pair

        report = validate_minimal_pair(f, u, commute_mod=max(1, out_prec))
        if not report.is_minimal:
            raise PreconditionError(
                "supplied u does not form a minimal commuting pair with f: "
                + report.failure_summary()
            )
    e = ctx.torsion_order
    d1 = primitive_torsion_root(ctx).integer_residue(N)
    digits, precs, witness, _residue = _solve_commutant_integral(f, d1)
    if witness is not None:
        return TorsionCertificate(
            outcome="non-integral",
            witness_index=witness,
            series=None,
            verified_order=False,
            coefficient_precision=None,
            commutes_with_u=None,
            N=N,
            K=K,
        )
    z = PowerSeries(ctx, RING_INTEGRAL, digits[1:])
    ident = PowerSeries.identity(ctx, RING_INTEGRAL)
    verified = z.iterate(e).congruent(ident, p_exp=out_prec)
    commutes = None
    if u is not None:
        commutes = z.compose(u).congruent(u.compose(z), p_exp=out_prec)
    return TorsionCertificate(
        outcome="integral",
        witness_index=None,
        series=z,
        verified_order=verified,
        coefficient_precision=tuple(precs[1:]),
        commutes_with_u=commutes,
        N=N,
        K=K,
    )
