"""Ground-truth generators and pair validation.

The multiplicative formal group supplies endomorphisms with closed-form
coefficients, (1+x)^a - 1, whose binomial coefficients are checkable by
exact integer arithmetic; the Lubin-Tate construction supplies a second,
independent family via the commutant recursion with a guaranteed-integral
contract.  Everything else in the package is tested against these.

Failure vocabulary matters here: a precondition violation (wrong shape,
wrong ring) is the caller's problem and raises PreconditionError; a
divisibility or integrality failure inside a construction whose output
is guaranteed integral by theory is a bug surface and raises
OracleIntegrityError instead of returning a plausible-looking wrong
answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import OracleIntegrityError, PreconditionError, PrecisionError
from .padic import PadicNumber, PrimeContext, exponent_to_json, vp
from .series import RING_INTEGRAL, PowerSeries
from .newton import weierstrass_degree
from .commutant import _solve_commutant_integral


def _guard_exponent(ctx):
    # one digit per factor of p in K! is what division by i! can cost
    v = 0
    pe = ctx.p
    while pe <= ctx.K:
        v += ctx.K // pe
        pe *= ctx.p
    return ctx.N + v + 1


def gm_endomorphism(ctx: PrimeContext, a) -> PowerSeries:
    """(1+x)^a - 1 as an integral series.

    Integer exponents go through exact integer binomials.  A PadicNumber
    exponent is expanded with generalized binomial coefficients
    C(a,i) = C(a,i-1)(a-i+1)/i in a guard context carrying N + v_p(K!) + 1
    digits, so the result still holds N honest digits after the i!
    divisions; each coefficient is then checked for integrality and
    precision before being rounded into Z/p^N.
    """
    if isinstance(a, int):
        coeffs = []
        c = 1
        m = ctx.modulus
        for i in range(1, ctx.K + 1):
            c = c * (a - i + 1) // i
            coeffs.append(c % m)
        return PowerSeries(ctx, RING_INTEGRAL, coeffs)
    if isinstance(a, Fraction):
        # C(a, i) is a polynomial in a with denominators dividing i!, so a
        # guard-precision integer representative of a pins every
        # coefficient mod p^(N+1); the exact-int path then does the rest
        if a.denominator % ctx.p == 0:
            raise PreconditionError("exponent must be integral")
        gm = ctx.p ** _guard_exponent(ctx)
        rep = a.numerator * pow(a.denominator, -1, gm) % gm
        return gm_endomorphism(ctx, rep)
    if not isinstance(a, PadicNumber):
        raise PreconditionError("exponent must be an int, Fraction, or PadicNumber")
    if a.ctx.p != ctx.p:
        raise PreconditionError("exponent lives over a different prime")
    if not a.is_integral:
        raise PreconditionError("exponent must be integral")
    guard = _guard_exponent(ctx)
    if a.precision < guard:
        raise PrecisionError(
            f"exponent carries {a.precision} digits; the binomial expansion "
            f"needs {guard} to deliver {ctx.N}"
        )
    gctx = PrimeContext(ctx.p, guard, ctx.K)
    ag = PadicNumber.make(gctx, 0, a.integer_residue(guard), guard)
    binom = PadicNumber.one(gctx)
    coeffs = []
    for i in range(1, ctx.K + 1):
        binom = binom * (ag - PadicNumber.from_int(gctx, i - 1))
        binom = binom / PadicNumber.from_int(gctx, i)
        if not binom.is_integral:
            raise OracleIntegrityError(
                f"binomial coefficient {i} came out non-integral; guard arithmetic bug"
            )
        if binom.precision < ctx.N:
            raise OracleIntegrityError(
                f"binomial coefficient {i} retains only {binom.precision} digits"
            )
        coeffs.append(binom.integer_residue(ctx.N))
    return PowerSeries(ctx, RING_INTEGRAL, coeffs)


def lubin_tate_endomorphism(f: PowerSeries, a) -> PowerSeries:
    """[a]_f for a Lubin-Tate series f (v_p(f'(0)) = 1 and f = x^p mod p,
    exactly), by the integral commutant recursion.

    Theory makes every division exact here, so a failed divisibility is
    reported as an integrity error, not as a verdict.
    """
    if f.ring != RING_INTEGRAL:
        raise PreconditionError("Lubin-Tate construction runs in the integral ring")
    ctx = f.ctx
    p = ctx.p
    if vp(f.coeffs[0], p) != 1:
        raise PreconditionError("need v_p(f'(0)) = 1")
    if p > ctx.K:
        raise PreconditionError(f"truncation K={ctx.K} cannot hold x^{p}")
    red = f.reduce_mod_p()
    for i, c in enumerate(red.coeffs, 1):
        if (c != 0) != (i == p):
            raise PreconditionError(
                f"f must reduce to exactly x^{p} mod p; mismatch at index {i}"
            )
    if ctx.N < ctx.K + 1:
        raise PrecisionError(
            f"need N >= K + 1 so the last digit keeps a trustworthy digit; "
            f"got N={ctx.N}, K={ctx.K}"
        )
    if isinstance(a, PadicNumber):
        d1 = a.integer_residue(ctx.N)
    elif isinstance(a, int):
        d1 = a % ctx.modulus
    else:
        raise PreconditionError("multiplier must be an int or an integral PadicNumber")
    digits, _precs, witness, _res = _solve_commutant_integral(f, d1)
    if witness is not None:
        raise OracleIntegrityError(
            f"guaranteed-integral recursion hit a unit numerator at index "
            f"{witness}; input shape check or solver is wrong"
        )
    return PowerSeries(ctx, RING_INTEGRAL, digits[1:])


@dataclass(frozen=True)
class MinimalPairReport:
    """Checklist for the minimal commuting pair conditions.

    v_u_shift is v_p(u'(0) - 1) as far as the ring can see; INFINITE
    means the shift vanishes mod p^N, which also fails the == delta test.
    nontorsion_certified records that the shift valuation alone already
    rules out u'(0) being a root of unity.
    """

    wideg_f: int | None
    v_f_prime: object
    v_u_shift: object
    commutes: bool
    commute_modulus: int
    first_mismatch: int | None
    is_minimal: bool
    nontorsion_certified: bool

    def failure_summary(self) -> str:
        if self.is_minimal:
            return "no failures"
        parts = []
        if not self.commutes:
            parts.append(
                f"commutator nonzero mod p^{self.commute_modulus} "
                f"(first mismatch at x^{self.first_mismatch})"
            )
        if not self.nontorsion_certified:
            parts.append(f"v(u'(0)-1) = {self.v_u_shift}, want the torsion gap")
        if self.v_f_prime != 1:
            parts.append(f"v(f'(0)) = {self.v_f_prime}, want 1")
        if not parts or self.wideg_f is None:
            shown = self.wideg_f if self.wideg_f is not None else "undetermined"
            parts.append(f"wideg(f mod p) = {shown}, want p")
        return "; ".join(parts)

    def to_json(self):
        return {
            "wideg_f": exponent_to_json(self.wideg_f),
            "v_f_prime": exponent_to_json(self.v_f_prime),
            "v_u_shift": exponent_to_json(self.v_u_shift),
            "commutes": self.commutes,
            "commute_modulus": self.commute_modulus,
            "first_mismatch": self.first_mismatch,
            "is_minimal": self.is_minimal,
            "nontorsion_certified": self.nontorsion_certified,
        }


def validate_minimal_pair(f: PowerSeries, u: PowerSeries,
                          commute_mod: int = None) -> MinimalPairReport:
    """Check the minimal-pair conditions: wideg(f mod p) = p,
    v_p(f'(0)) = 1, v_p(u'(0) - 1) = delta, and commutation mod
    p^commute_mod (full ring precision by default).

    The report never raises on a failed condition; failures are data.
    """
    if f.ring != RING_INTEGRAL or u.ring != RING_INTEGRAL:
        raise PreconditionError("pair validation runs in the integral ring")
    if f.ctx != u.ctx:
        raise PreconditionError("pair built over different contexts")
    ctx = f.ctx
    p = ctx.p
    mod = ctx.N if commute_mod is None else commute_mod
    if not 1 <= mod <= ctx.N:
        raise PreconditionError(f"commutation modulus exponent {mod} outside 1..{ctx.N}")
    wideg_f = weierstrass_degree(f.reduce_mod_p())
    v_f = vp(f.coeffs[0], p)
    shift = (u.coeffs[0] - 1) % ctx.modulus
    v_shift = vp(shift, p)
    diff = f.compose(u) - u.compose(f)
    pe = p ** mod
    first_mismatch = None
    for i, c in enumerate(diff.coeffs, 1):
        if c % pe:
            first_mismatch = i
            break
    commutes = first_mismatch is None
    nontorsion = v_shift == ctx.delta
    is_minimal = (wideg_f == p) and (v_f == 1) and nontorsion and commutes
    return MinimalPairReport(
        wideg_f=wideg_f,
        v_f_prime=v_f,
        v_u_shift=v_shift,
        commutes=commutes,
        commute_modulus=mod,
        first_mismatch=first_mismatch,
        is_minimal=is_minimal,
        nontorsion_certified=nontorsion,
    )


def conjugate_pair(f: PowerSeries, u: PowerSeries, h: PowerSeries,
                   commute_mod: int = None):
    """(h∘f∘h^(-1), h∘u∘h^(-1)).

    h'(0) = 1 mod p keeps all three minimality conditions on the nose
    (the linear coefficients are literally unchanged), and conjugation by
    an exact two-sided inverse preserves commutation exactly in the
    truncated ring, so the output is validated and a failure is a bug,
    not a verdict.
    """
    if h.ring != RING_INTEGRAL:
        raise PreconditionError("conjugator must live in the integral ring")
    if h.coeffs[0] % h.ctx.p != 1:
        raise PreconditionError("conjugator must have h'(0) = 1 mod p")
    hinv = h.reversion()
    fc = h.compose(f).compose(hinv)
    uc = h.compose(u).compose(hinv)
    report = validate_minimal_pair(fc, uc, commute_mod=commute_mod)
    if not report.is_minimal:
        raise OracleIntegrityError(
            "conjugation lost minimality: " + report.failure_summary()
        )
    return fc, uc


def seeded_conjugator(ctx: PrimeContext, seed: int) -> PowerSeries:
    """x + c2 x^2 + c3 x^3 with coefficients drawn reproducibly from the
    seed; always a valid conjugator (h'(0) = 1)."""
    rng = random.Random(seed)
    c2 = rng.randrange(ctx.modulus)
    c3 = rng.randrange(ctx.modulus)
    return PowerSeries(ctx, RING_INTEGRAL, [1, c2, c3])


def gm_minimal_pair(ctx: PrimeContext):
    """The canonical multiplicative-group pair: f = (1+x)^p - 1 and
    u = (1+x)^(1+p^delta) - 1.  Commutes exactly mod (p^N, x^(K+1))."""
    f = gm_endomorphism(ctx, ctx.p)
    u = gm_endomorphism(ctx, 1 + ctx.p ** ctx.delta)
    return f, u


def lt_minimal_pair(ctx: PrimeContext):
    """f = px + x^p with u = [1 + p^delta]_f.  The recursion's digits are
    canonical to one digit per index, so the pair commutes exactly only
    mod p^(N-K+1); validate accordingly."""
    coeffs = [0] * ctx.p
    coeffs[0] = ctx.p
    coeffs[ctx.p - 1] = 1
    f = PowerSeries(ctx, RING_INTEGRAL, coeffs)
    u = lubin_tate_endomorphism(f, 1 + ctx.p ** ctx.delta)
    return f, u
