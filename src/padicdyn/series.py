"""Truncated power series under composition.

Series live in x*R[[x]] modulo x^(K+1) with K fixed by the ambient
PrimeContext, over one of three coefficient rings: "integral" (Z/p^N,
plain residues), "float" (PadicNumber values carrying their own
precision), and "residue" (F_p).  The zero constant term is structural:
coefficient i is stored at position i-1 and there is no slot at degree
zero, so the composition monoid S_nc is closed by construction.

Truncation is a congruence here: because every series has zero constant
term, dropping x-degrees above K commutes with sums, products, and
composition, so associativity and inverse identities hold exactly in the
quotient ring, not merely up to error terms.

The kernels at the top of the file work on plain 0-indexed dense lists
(with a constant slot, which internal algorithms such as Weierstrass
division do need) and come in two flavors: modular, for int coefficients
under a single modulus, and float, for PadicNumber coefficients.  In the
float kernels only *exact* zeros may be skipped; a zero-at-precision
value must flow through products and sums because it caps the precision
of everything it touches.

The modular kernels hand the arithmetic to CPython's bigint multiply.
A dense product packs each residue list into one integer, a slot of
whole bytes per coefficient wide enough that no slot sum carries
(Kronecker substitution; Harvey, J. Symb. Comput. 44, 2009), multiplies
once and reads the low slots back.  Composition runs Brent and Kung's
baby steps and giant steps (J. ACM 25, 1978) on that product, and keeps
sparse Horner for a linear outer series or an inner one with at most
_SPARSE_TERMS terms, where it is faster.  Both stay exact mod m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import PreconditionError, PrecisionError
from .padic import PadicNumber, PrimeContext, strict_int

RING_INTEGRAL = "integral"
RING_FLOAT = "float"
RING_RESIDUE = "residue"

_RINGS = (RING_INTEGRAL, RING_FLOAT, RING_RESIDUE)

_SPARSE_TERMS = 4     # sparse products up to this many terms (measured crossover)


# ---------------------------------------------------------------------------
# modular kernels: dense lists of ints, one modulus


def _mul_sparse_mod(acc, terms, limit, m):
    """acc (dense, 0-indexed) times a sparse term list [(deg, coeff)],
    truncated at x^limit."""
    out = [0] * (limit + 1)
    for e, c in terms:
        if e > limit:
            break
        top = limit - e
        for j, a in enumerate(acc):
            if j > top:
                break
            if a:
                out[j + e] = (out[j + e] + a * c) % m
    return out


def _slot_bytes(n, m):
    """Bytes per packed slot that hold a sum of n products of residues
    mod m without carrying into the next slot."""
    return ((max(n, 1) * (m - 1) ** 2).bit_length() + 7) // 8


def _pack(a, w, m):
    """Kronecker substitution x -> 2^(8w): the residues of a, one w-byte
    slot each, lowest degree first, read as a single integer."""
    return int.from_bytes(b"".join([(c % m).to_bytes(w, "little") for c in a]), "little")


def _unpack(n, w, slots, m):
    """The first `slots` slots of a packed integer, each reduced mod m.
    Masking instead of n % 2^k keeps this free of long division."""
    size = w * slots
    buf = (n & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    if w == 1:
        return [c % m for c in buf]
    return [int.from_bytes(buf[i:i + w], "little") % m for i in range(0, size, w)]


def _mul_dense_mod(a, b, limit, m):
    """a times b (dense, 0-indexed) truncated at x^limit: pack, one
    bigint multiply, unpack."""
    a, b = a[:limit + 1], b[:limit + 1]
    w = _slot_bytes(min(len(a), len(b)), m)
    return _unpack(_pack(a, w, m) * _pack(b, w, m), w, limit + 1, m)


def _compose_dense_mod(outer, terms, limit, m):
    """outer (dense, constant allowed) evaluated at the sparse inner
    series terms (sorted, all degrees >= 1), truncated at x^limit.

    A linear outer series or an inner one with at most _SPARSE_TERMS
    terms goes through sparse Horner, O(limit * T * nnz(inner)) for
    outer degree T.  Otherwise baby steps and giant steps: the powers
    g^0 .. g^(s-1), s about sqrt(T/2), are packed once in slots wide
    enough for a full product plus an s-term block sum; each block of s
    outer coefficients is then a sum of scalar times packed power, and
    Horner runs in G = g^s with one packed multiply per block.  G has
    valuation s, so the value at block j only needs degrees up to limit
    - j, and the early giant steps are short products.
    """
    T = min(len(outer) - 1, limit)
    while T >= 0 and not outer[T] % m:
        T -= 1                                  # zero top terms add nothing
    if T < 0:
        return [0] * (limit + 1)
    if T <= 1 or len(terms) <= _SPARSE_TERMS:
        acc = [outer[T] % m]
        for i in range(T - 1, -1, -1):
            acc = _mul_sparse_mod(acc, terms, limit - i, m)
            acc[0] = (acc[0] + outer[i]) % m
        return acc + [0] * (limit + 1 - len(acc))
    g = [0] * (limit + 1)
    for e, c in terms:
        if e <= limit:
            g[e] = c
    s = isqrt(T // 2) or 1
    powers = [[1], g]
    while len(powers) <= s:
        powers.append(_mul_dense_mod(powers[-1], g, limit, m))
    w = _slot_bytes(limit + 1 + s, m)
    G = _pack(powers.pop(), w, m)
    baby = [_pack(q, w, m) for q in powers]
    acc = 0
    for j in range(T // s * s, -1, -s):
        blk = sum(c % m * P for c, P in zip(outer[j:min(j + s, T + 1)], baby))
        out = _unpack(acc * (G & ((1 << 8 * w * (limit + 1 - j)) - 1)) + blk,
                      w, limit + 1 - j, m)
        acc = _pack(out, w, m)
    return out


def _inv_unit_mod(a, limit, m):
    """Multiplicative inverse of a unit series (a[0] invertible mod m),
    truncated at x^limit."""
    c = pow(a[0], -1, m)
    out = [c] + [0] * limit
    na = len(a)
    for k in range(1, limit + 1):
        s = 0
        for j in range(1, min(k, na - 1) + 1):
            aj = a[j]
            if aj:
                s += aj * out[k - j]
        if s:
            out[k] = -s * c % m
    return out


def _reversion_mod(g, K, m):
    """Compositional inverse of g (dense, g[0]=0, g[1] a unit mod m) by
    x-adic Newton iteration h <- h - (g(h) - x)/g'(h); the correct-degree
    count doubles each round."""
    gp = [(i + 1) * g[i + 1] % m for i in range(len(g) - 1)]
    h = [0, pow(g[1], -1, m)]
    t = 1
    while t < K:
        t2 = min(2 * t, K)
        terms = [(e, c) for e, c in enumerate(h) if e and c]
        gh = _compose_dense_mod(g, terms, t2, m)
        gh[1] = (gh[1] - 1) % m
        gph = _compose_dense_mod(gp, terms, t2, m)
        inv = _inv_unit_mod(gph, t2, m)
        delta = _mul_dense_mod(gh, inv, t2, m)
        for i in range(len(delta)):
            if i < len(h):
                h[i] = (h[i] - delta[i]) % m
            else:
                h.append(-delta[i] % m)
        t = t2
    if len(h) < K + 1:
        h = h + [0] * (K + 1 - len(h))
    return h


# ---------------------------------------------------------------------------
# float kernels: dense lists of PadicNumber


def _mul_sparse_f(ctx, acc, terms, limit):
    zero = PadicNumber.exact_zero(ctx)
    out = [zero] * (limit + 1)
    for e, c in terms:
        if e > limit:
            break
        top = limit - e
        for j, a in enumerate(acc):
            if j > top:
                break
            if not a.is_exact_zero:
                out[j + e] = out[j + e] + a * c
    return out


def _compose_dense_f(ctx, outer, terms, limit):
    zero = PadicNumber.exact_zero(ctx)
    T = min(len(outer) - 1, limit)
    while T >= 0 and outer[T].is_exact_zero:
        T -= 1                                  # a zero at precision must stay
    if T < 0:
        return [zero] * (limit + 1)
    acc = [outer[T]]
    for i in range(T - 1, -1, -1):
        acc = _mul_sparse_f(ctx, acc, terms, limit - i)
        acc[0] = acc[0] + outer[i]
    if len(acc) < limit + 1:
        acc = acc + [zero] * (limit + 1 - len(acc))
    return acc


def _mul_dense_f(ctx, a, b, limit):
    zero = PadicNumber.exact_zero(ctx)
    out = [zero] * (limit + 1)
    for i, ai in enumerate(a):
        if i > limit:
            break
        if ai.is_exact_zero:
            continue
        top = limit - i
        for j, bj in enumerate(b):
            if j > top:
                break
            if not bj.is_exact_zero:
                out[i + j] = out[i + j] + ai * bj
    return out


def _inv_unit_f(ctx, a, limit):
    if a[0].is_zero or a[0].valuation != 0:
        raise PreconditionError("series inverse needs a unit constant term")
    zero = PadicNumber.exact_zero(ctx)
    one = PadicNumber.one(ctx)
    c = one / a[0]
    out = [c] + [zero] * limit
    na = len(a)
    for k in range(1, limit + 1):
        s = zero
        for j in range(1, min(k, na - 1) + 1):
            aj = a[j]
            if not aj.is_exact_zero:
                s = s + aj * out[k - j]
        out[k] = (-s) * c
    return out


def _reversion_f(ctx, g, K):
    a1 = g[1]
    if a1.is_zero or a1.valuation != 0:
        raise PreconditionError("reversion needs a unit linear coefficient")
    zero = PadicNumber.exact_zero(ctx)
    one = PadicNumber.one(ctx)
    gp = [PadicNumber.from_int(ctx, i + 1) * g[i + 1] for i in range(len(g) - 1)]
    h = [zero, one / a1]
    t = 1
    while t < K:
        t2 = min(2 * t, K)
        terms = [(e, c) for e, c in enumerate(h) if e and not c.is_exact_zero]
        gh = _compose_dense_f(ctx, g, terms, t2)
        gh[1] = gh[1] - one
        gph = _compose_dense_f(ctx, gp, terms, t2)
        inv = _inv_unit_f(ctx, gph, t2)
        delta = _mul_dense_f(ctx, gh, inv, t2)
        for i in range(len(delta)):
            if i < len(h):
                h[i] = h[i] - delta[i]
            else:
                h.append(-delta[i])
        t = t2
    if len(h) < K + 1:
        h = h + [zero] * (K + 1 - len(h))
    return h


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SncClass:
    """Where a series sits relative to the composition structure: S_nc
    membership (nonzero linear coefficient), and within it the invertible
    (unit linear coefficient) versus noninvertible halves."""

    is_snc: bool
    is_invertible: bool
    is_noninvertible: bool


class PowerSeries:
    """An element of x*R[[x]] / x^(K+1); immutable.

    coeffs is a tuple of length exactly K with the coefficient of x^i at
    position i-1.  Ring semantics: "integral" stores canonical residues
    0..p^N-1 where 0 means "0 mod p^N" and nothing sharper; "residue"
    stores 0..p-1 exactly; "float" stores PadicNumber values, so exact
    zero and zero-at-precision stay distinguishable coefficientwise.
    """

    __slots__ = ("ctx", "ring", "coeffs")

    def __init__(self, ctx, ring, coeffs):
        if ring not in _RINGS:
            raise PreconditionError(f"unknown coefficient ring {ring!r}")
        coeffs = list(coeffs)
        if len(coeffs) > ctx.K:
            raise PreconditionError(
                f"{len(coeffs)} coefficients for truncation order K={ctx.K}"
            )
        if ring == RING_FLOAT:
            zero = PadicNumber.exact_zero(ctx)
            out = []
            for c in coeffs:
                out.append(self._coerce_float(ctx, c))
            out.extend([zero] * (ctx.K - len(out)))
        elif ring == RING_INTEGRAL:
            m = ctx.modulus
            out = [self._coerce_int(ctx, c) % m for c in coeffs]
            out.extend([0] * (ctx.K - len(out)))
        else:
            p = ctx.p
            out = [self._coerce_residue(ctx, c) % p for c in coeffs]
            out.extend([0] * (ctx.K - len(out)))
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(out))

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    @staticmethod
    def _coerce_float(ctx, c):
        if isinstance(c, PadicNumber):
            if c.ctx != ctx:
                raise PreconditionError("coefficient built over a different context")
            return c
        if isinstance(c, int):
            return PadicNumber.from_int(ctx, c)
        if isinstance(c, Fraction):
            return PadicNumber.from_fraction(ctx, c)
        raise PreconditionError(f"cannot use {type(c).__name__} as a float coefficient")

    @staticmethod
    def _coerce_int(ctx, c):
        if isinstance(c, PadicNumber):
            # demands full ring precision; sharper data belongs in the float ring
            return c.integer_residue(ctx.N)
        if isinstance(c, int):
            return c
        raise PreconditionError(f"cannot use {type(c).__name__} as an integral coefficient")

    @staticmethod
    def _coerce_residue(ctx, c):
        if isinstance(c, PadicNumber):
            return c.residue()
        if isinstance(c, int):
            return c
        raise PreconditionError(f"cannot use {type(c).__name__} as a residue coefficient")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ctx, ring=RING_INTEGRAL):
        return cls(ctx, ring, [])

    @classmethod
    def identity(cls, ctx, ring=RING_INTEGRAL):
        return cls(ctx, ring, [1])

    @classmethod
    def monomial(cls, ctx, degree, coeff=1, ring=RING_INTEGRAL):
        if not 1 <= degree <= ctx.K:
            raise PreconditionError(f"monomial degree {degree} outside 1..{ctx.K}")
        coeffs = [0] * degree
        coeffs[degree - 1] = coeff
        return cls(ctx, ring, coeffs)

    # -- coefficient access ----------------------------------------------

    def coefficient(self, i: int):
        """Coefficient of x^i, 1-indexed."""
        if not 1 <= i <= self.ctx.K:
            raise PreconditionError(f"index {i} outside 1..{self.ctx.K}")
        return self.coeffs[i - 1]

    @property
    def linear(self):
        return self.coeffs[0]

    def classify(self) -> SncClass:
        c = self.coeffs[0]
        if self.ring == RING_FLOAT:
            nonzero = not c.is_zero
            unit = nonzero and c.valuation == 0
        elif self.ring == RING_INTEGRAL:
            nonzero = c != 0
            unit = c % self.ctx.p != 0
        else:
            nonzero = c != 0
            unit = nonzero
        return SncClass(nonzero, unit, nonzero and not unit)

    def is_identity(self) -> bool:
        """Equality with x, exact in the exact rings, at stated precision
        in the float ring."""
        return self.first_difference(PowerSeries.identity(self.ctx, self.ring)) is None

    def first_difference(self, other):
        """Smallest index where the two series demonstrably differ, with
        the differing coefficient of self - other; None when equal (to
        precision, for floats)."""
        self._check(other)
        for i in range(self.ctx.K):
            a, b = self.coeffs[i], other.coeffs[i]
            if self.ring == RING_FLOAT:
                d = a - b
                if not d.is_zero:
                    return i + 1, d
            elif a != b:
                if self.ring == RING_INTEGRAL:
                    return i + 1, (a - b) % self.ctx.modulus
                return i + 1, (a - b) % self.ctx.p
        return None

    # -- ring operations --------------------------------------------------

    def _check(self, other):
        if not isinstance(other, PowerSeries):
            raise TypeError(f"expected PowerSeries, got {type(other).__name__}")
        if other.ctx != self.ctx:
            raise PreconditionError("series built over different contexts")
        if other.ring != self.ring:
            raise PreconditionError(f"ring mismatch: {self.ring} vs {other.ring}")

    def _modulus(self):
        return self.ctx.modulus if self.ring == RING_INTEGRAL else self.ctx.p

    def __add__(self, other):
        self._check(other)
        if self.ring == RING_FLOAT:
            cs = [a + b for a, b in zip(self.coeffs, other.coeffs)]
        else:
            m = self._modulus()
            cs = [(a + b) % m for a, b in zip(self.coeffs, other.coeffs)]
        return PowerSeries(self.ctx, self.ring, cs)

    def __neg__(self):
        if self.ring == RING_FLOAT:
            cs = [-a for a in self.coeffs]
        else:
            m = self._modulus()
            cs = [-a % m for a in self.coeffs]
        return PowerSeries(self.ctx, self.ring, cs)

    def __sub__(self, other):
        self._check(other)
        if self.ring == RING_FLOAT:
            cs = [a - b for a, b in zip(self.coeffs, other.coeffs)]
        else:
            m = self._modulus()
            cs = [(a - b) % m for a, b in zip(self.coeffs, other.coeffs)]
        return PowerSeries(self.ctx, self.ring, cs)

    def __mul__(self, other):
        """Cauchy product mod x^(K+1); the result has zero coefficients
        in degrees below 2, as it must."""
        self._check(other)
        K = self.ctx.K
        a = (0,) + self.coeffs
        b = (0,) + other.coeffs
        if self.ring == RING_FLOAT:
            dense = _mul_dense_f(self.ctx, a, b, K)
        else:
            dense = _mul_dense_mod(a, b, K, self._modulus())
        return PowerSeries(self.ctx, self.ring, dense[1:])

    def scale(self, c):
        """Multiply every coefficient by the scalar c."""
        if self.ring == RING_FLOAT:
            c = self._coerce_float(self.ctx, c)
            cs = [a * c for a in self.coeffs]
        elif self.ring == RING_INTEGRAL:
            c = self._coerce_int(self.ctx, c)
            m = self.ctx.modulus
            cs = [a * c % m for a in self.coeffs]
        else:
            c = self._coerce_residue(self.ctx, c)
            p = self.ctx.p
            cs = [a * c % p for a in self.coeffs]
        return PowerSeries(self.ctx, self.ring, cs)

    def truncate(self, order: int):
        """Zero out all coefficients above x^order."""
        if order >= self.ctx.K:
            return self
        return PowerSeries(self.ctx, self.ring, self.coeffs[:max(order, 0)])

    # -- composition --------------------------------------------------------

    def compose(self, inner, order=None):
        """self after inner, mod x^(K+1).

        Composition is total here: every series has zero constant term,
        so the substitution is finitary degree by degree.  The optional
        order computes the composite only mod x^(order+1); coefficients
        above it come back as ring zeros and must be ignored by the
        caller (internal solvers use this to stay cheap).
        """
        self._check(inner)
        K = self.ctx.K
        limit = K if order is None else min(order, K)
        if limit < 1:
            raise PreconditionError("composition order must be at least 1")
        if self.ring == RING_FLOAT:
            outer = (PadicNumber.exact_zero(self.ctx),) + self.coeffs
            terms = [(e, c) for e, c in enumerate(inner.coeffs, 1)
                     if not c.is_exact_zero]
            dense = _compose_dense_f(self.ctx, outer, terms, limit)
        else:
            outer = (0,) + self.coeffs
            terms = [(e, c) for e, c in enumerate(inner.coeffs, 1) if c]
            dense = _compose_dense_mod(outer, terms, limit, self._modulus())
        return PowerSeries(self.ctx, self.ring, dense[1:])

    def iterate(self, n: int):
        """n-fold composition power; iterate(0) is x."""
        if not isinstance(n, int) or n < 0:
            raise PreconditionError("iteration count must be a nonnegative integer")
        result = PowerSeries.identity(self.ctx, self.ring)
        base = self
        while n:
            if n & 1:
                result = result.compose(base)
            n >>= 1
            if n:
                base = base.compose(base)
        return result

    def reversion(self):
        """Compositional inverse: h with self∘h = h∘self = x mod x^(K+1).
        Needs a unit linear coefficient."""
        K = self.ctx.K
        if self.ring == RING_FLOAT:
            dense = _reversion_f(self.ctx, (PadicNumber.exact_zero(self.ctx),) + self.coeffs, K)
        else:
            a1 = self.coeffs[0]
            if a1 % self.ctx.p == 0:
                raise PreconditionError("reversion needs a unit linear coefficient")
            dense = _reversion_mod([0] + list(self.coeffs), K, self._modulus())
        return PowerSeries(self.ctx, self.ring, dense[1:])

    # -- ring changes ---------------------------------------------------------

    def reduce_mod_p(self):
        """Coefficientwise image in F_p.  Needs integral coefficients
        known at least mod p."""
        p = self.ctx.p
        if self.ring == RING_RESIDUE:
            return self
        if self.ring == RING_INTEGRAL:
            return PowerSeries(self.ctx, RING_RESIDUE, [c % p for c in self.coeffs])
        return PowerSeries(self.ctx, RING_RESIDUE, [c.residue() for c in self.coeffs])

    def to_float(self):
        """Reinterpret integral coefficients as p-adic numbers known mod
        p^N; a stored 0 honestly becomes zero-at-precision-N, never the
        exact zero."""
        if self.ring == RING_FLOAT:
            return self
        if self.ring != RING_INTEGRAL:
            raise PreconditionError("only integral series lift to the float ring")
        ctx = self.ctx
        cs = [PadicNumber.make(ctx, 0, c, ctx.N) for c in self.coeffs]
        return PowerSeries(ctx, RING_FLOAT, cs)

    def to_integral(self):
        """Float-to-integral with full ring precision demanded of every
        coefficient; refuses rather than fabricate digits."""
        if self.ring == RING_INTEGRAL:
            return self
        if self.ring != RING_FLOAT:
            raise PreconditionError("only float series collapse to the integral ring")
        N = self.ctx.N
        return PowerSeries(self.ctx, RING_INTEGRAL,
                           [c.integer_residue(N) for c in self.coeffs])

    # -- comparisons ------------------------------------------------------------

    def congruent(self, other, p_exp=None) -> bool:
        """Certified congruence mod (p^p_exp, x^(K+1)).  In the float
        ring a coefficient too coarse to decide raises PrecisionError
        rather than guessing either way."""
        self._check(other)
        if self.ring == RING_RESIDUE:
            return self.coeffs == other.coeffs
        e = self.ctx.N if p_exp is None else p_exp
        if self.ring == RING_INTEGRAL:
            if e > self.ctx.N:
                raise PrecisionError(f"integral ring only carries {self.ctx.N} digits")
            pe = self.ctx.p ** e
            return all((a - b) % pe == 0 for a, b in zip(self.coeffs, other.coeffs))
        for i in range(self.ctx.K):
            d = self.coeffs[i] - other.coeffs[i]
            if d.is_zero:
                if d.precision < e:
                    raise PrecisionError(
                        f"coefficient {i + 1} agrees only to p^{d.precision}, "
                        f"cannot certify p^{e}"
                    )
            elif d.valuation < e:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return (self.ctx == other.ctx and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx, self.ring, self.coeffs))

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs, 1):
            if self.ring == RING_FLOAT:
                if c.is_exact_zero:
                    continue
                s = f"({c})"
            else:
                if c == 0:
                    continue
                s = str(c)
            parts.append(f"{s}*x^{i}" if i > 1 else f"{s}*x")
            if len(parts) == 6:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"<{self.ring} series {body} mod x^{self.ctx.K + 1}>"

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        if self.ring == RING_RESIDUE:
            cs = list(self.coeffs)
        elif self.ring == RING_INTEGRAL:
            N = self.ctx.N
            cs = [PadicNumber.make(self.ctx, 0, c, N).to_json() for c in self.coeffs]
        else:
            cs = [c.to_json() for c in self.coeffs]
        return {"ctx": self.ctx.to_json(), "ring": self.ring, "coeffs": cs}

    @classmethod
    def from_json(cls, obj, ctx=None) -> "PowerSeries":
        if ctx is None:
            ctx = PrimeContext.from_json(obj["ctx"])
        ring = obj["ring"]
        if ring not in _RINGS:
            raise PreconditionError(f"unknown coefficient ring {ring!r}")
        raw = obj["coeffs"]
        if ring == RING_RESIDUE:
            return cls(ctx, ring, [strict_int(c) for c in raw])
        cs = []
        for c in raw:
            if isinstance(c, dict):
                cs.append(PadicNumber.from_json(ctx, c))
            else:
                cs.append(strict_int(c))
        return cls(ctx, ring, cs)
