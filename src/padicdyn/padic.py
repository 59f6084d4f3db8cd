"""Exact coefficient arithmetic over Q_p.

A number is kept in p-adic floating point: the triple (valuation, unit,
precision) denotes the value p**valuation * unit, pinned modulo
p**precision.  The relative precision (precision minus valuation) is
capped by the context constant N, so a unit never carries more than N
base-p digits and normalization is canonical: equal values compare equal.

Zero needs care.  The exact zero is a distinguished value with infinite
precision; a sum that merely cancels at the working precision yields a
marker that is zero *at that precision* and nothing more.  Divisibility
certificates and Newton polygon bookkeeping depend on keeping the two
apart, so no operation ever collapses an underflowed unit into the exact
zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from dataclasses import dataclass

from .errors import PreconditionError, PrecisionError

INFINITE = float("inf")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def vp(n: int, p: int):
    """Exact p-adic valuation of an integer; INFINITE for 0."""
    if n == 0:
        return INFINITE
    if n < 0:
        n = -n
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(q, p: int):
    """Exact p-adic valuation of a Fraction (or int); INFINITE for 0."""
    q = Fraction(q)
    if q == 0:
        return INFINITE
    return vp(q.numerator, p) - vp(q.denominator, p)


@dataclass(frozen=True)
class PrimeContext:
    """Ambient parameters shared by every object in a computation.

    p is the prime, N the coefficient precision (integral coefficients
    live in Z/p**N and floats carry at most N unit digits), K the x-adic
    truncation order (series are kept modulo x**(K+1)).
    """

    p: int
    N: int
    K: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise PreconditionError(f"p = {self.p!r} is not a prime")
        if not isinstance(self.N, int) or self.N < 1:
            raise PreconditionError("coefficient precision N must be an integer >= 1")
        if not isinstance(self.K, int) or self.K < 2:
            raise PreconditionError("truncation order K must be an integer >= 2")

    @cached_property
    def modulus(self) -> int:
        return self.p ** self.N

    @property
    def delta(self) -> int:
        """Normalizing valuation for the invertible half of a minimal
        commuting pair: 1 for odd p, 2 for p = 2."""
        return 2 if self.p == 2 else 1

    @property
    def torsion_order(self) -> int:
        """Order of the torsion commutant attached to a minimal series:
        p - 1 for odd p, 2 for p = 2."""
        return 2 if self.p == 2 else self.p - 1

    def to_json(self) -> dict:
        return {"p": self.p, "N": self.N, "K": self.K}

    @classmethod
    def from_json(cls, obj) -> "PrimeContext":
        return cls(strict_int(obj["p"]), strict_int(obj["N"]), strict_int(obj["K"]))


def strict_int(x) -> int:
    """An integer field as read from JSON: an int or a decimal string
    (the form units are written in).  bool and float are refused, never
    truncated."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise TypeError(f"expected an integer, got {type(x).__name__} {x!r}")
    return int(x)


def _as_exp(x):
    """Precision/valuation fields are ints or INFINITE."""
    return x if x is INFINITE or type(x) is int else strict_int(x)


def exponent_to_json(v):
    """A valuation or index for JSON: None (not decided within the
    truncation) is "undetermined", INFINITE is "inf"."""
    if v is None:
        return "undetermined"
    if v is INFINITE:
        return "inf"
    return v


class PadicNumber:
    """An element of Q_p known to finite precision.

    Instances are immutable and normalized: for a nonzero value the unit
    is coprime to p, reduced modulo p**(precision - valuation), and the
    relative window never exceeds N.  Zero values have valuation
    INFINITE, unit 0, and precision equal to the exponent up to which the
    value is known to vanish (INFINITE for the exact zero).
    """

    __slots__ = ("ctx", "valuation", "unit", "precision")

    def __init__(self, ctx: PrimeContext, valuation, mantissa: int, precision=None):
        if precision is None:
            precision = INFINITE
        num = PadicNumber.make(ctx, valuation, mantissa, precision)
        object.__setattr__(self, "ctx", num.ctx)
        object.__setattr__(self, "valuation", num.valuation)
        object.__setattr__(self, "unit", num.unit)
        object.__setattr__(self, "precision", num.precision)

    def __setattr__(self, name, value):
        raise AttributeError("PadicNumber is immutable")

    # -- construction ------------------------------------------------

    @staticmethod
    def _build(ctx, valuation, unit, precision) -> "PadicNumber":
        # internal: fields assumed already normalized
        self = object.__new__(PadicNumber)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "precision", precision)
        return self

    @classmethod
    def exact_zero(cls, ctx) -> "PadicNumber":
        return cls._build(ctx, INFINITE, 0, INFINITE)

    @classmethod
    def zero_at(cls, ctx, precision) -> "PadicNumber":
        """Zero to the stated absolute precision (exact if INFINITE)."""
        if precision is INFINITE:
            return cls.exact_zero(ctx)
        return cls._build(ctx, INFINITE, 0, _as_exp(precision))

    @classmethod
    def make(cls, ctx, scale, mantissa: int, precision) -> "PadicNumber":
        """Normalize  p**scale * mantissa  known modulo p**precision."""
        if scale is INFINITE:
            return cls.zero_at(ctx, precision)
        scale = int(scale)
        p = ctx.p
        if precision is INFINITE:
            if mantissa == 0:
                return cls.exact_zero(ctx)
            t = vp(mantissa, p)
            v = scale + t
            u = (mantissa // p**t if mantissa > 0 else -((-mantissa) // p**t))
            rel = ctx.N
            return cls._build(ctx, v, u % p**rel, v + rel)
        precision = int(precision)
        window = precision - scale
        if window <= 0:
            return cls.zero_at(ctx, precision)
        m = mantissa % p**window
        if m == 0:
            return cls.zero_at(ctx, precision)
        t = vp(m, p)
        v = scale + t
        rel = min(precision - v, ctx.N)
        u = (m // p**t) % p**rel
        return cls._build(ctx, v, u, v + rel)

    @classmethod
    def from_int(cls, ctx, n: int) -> "PadicNumber":
        return cls.make(ctx, 0, n, INFINITE)

    @classmethod
    def from_fraction(cls, ctx, q) -> "PadicNumber":
        q = Fraction(q)
        if q == 0:
            return cls.exact_zero(ctx)
        p = ctx.p
        a, b = vp(q.numerator, p), vp(q.denominator, p)
        nu = abs(q.numerator) // p**a * (1 if q > 0 else -1)
        de = q.denominator // p**b
        rel = ctx.N
        u = nu * pow(de, -1, p**rel) % p**rel
        v = a - b
        return cls._build(ctx, v, u, v + rel)

    @classmethod
    def one(cls, ctx) -> "PadicNumber":
        return cls._build(ctx, 0, 1, ctx.N)

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when the value is indistinguishable from zero at its
        stated precision (includes the exact zero)."""
        return self.valuation is INFINITE

    @property
    def is_exact_zero(self) -> bool:
        return self.valuation is INFINITE and self.precision is INFINITE

    @property
    def is_integral(self) -> bool:
        return self.is_zero or self.valuation >= 0

    @property
    def is_unit(self) -> bool:
        return not self.is_zero and self.valuation == 0

    @property
    def relative_precision(self):
        if self.is_zero:
            return INFINITE if self.precision is INFINITE else 0
        return self.precision - self.valuation

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, PadicNumber):
            raise TypeError(f"expected PadicNumber, got {type(other).__name__}")
        if other.ctx != self.ctx:
            raise PreconditionError("operands built over different contexts")

    def __add__(self, other):
        self._check(other)
        ctx, p = self.ctx, self.ctx.p
        a, b = self, other
        if a.valuation is INFINITE:
            if a.precision is INFINITE:
                return b
            if b.valuation is INFINITE:
                return PadicNumber.zero_at(ctx, min(a.precision, b.precision))
            return PadicNumber.make(ctx, b.valuation, b.unit, min(a.precision, b.precision))
        if b.valuation is INFINITE:
            return b.__add__(a)
        w = min(a.valuation, b.valuation)
        prec = min(a.precision, b.precision)
        if prec - w <= 0:
            return PadicNumber.zero_at(ctx, prec)
        big = p ** (prec - w)
        s = (a.unit * p ** (a.valuation - w) + b.unit * p ** (b.valuation - w)) % big
        return PadicNumber.make(ctx, w, s, prec)

    def __neg__(self):
        if self.is_zero:
            return self
        rel = self.precision - self.valuation
        u = self.ctx.p**rel - self.unit
        return PadicNumber._build(self.ctx, self.valuation, u, self.precision)

    def __sub__(self, other):
        self._check(other)
        return self.__add__(-other)

    def __mul__(self, other):
        self._check(other)
        ctx = self.ctx
        a, b = self, other
        if a.is_exact_zero or b.is_exact_zero:
            return PadicNumber.exact_zero(ctx)
        if a.valuation is INFINITE or b.valuation is INFINITE:
            bound_a = a.precision if a.valuation is INFINITE else a.valuation
            bound_b = b.precision if b.valuation is INFINITE else b.valuation
            return PadicNumber.zero_at(ctx, bound_a + bound_b)
        v = a.valuation + b.valuation
        rel = min(a.precision - a.valuation, b.precision - b.valuation)
        u = a.unit * b.unit % ctx.p**rel
        return PadicNumber._build(ctx, v, u, v + rel)

    def __truediv__(self, other):
        self._check(other)
        ctx = self.ctx
        if other.is_exact_zero:
            raise PreconditionError("division by exact zero")
        if other.valuation is INFINITE:
            raise PrecisionError(
                "divisor is indistinguishable from zero at precision "
                f"p^{other.precision}"
            )
        if self.is_exact_zero:
            return self
        if self.valuation is INFINITE:
            return PadicNumber.zero_at(ctx, self.precision - other.valuation)
        v = self.valuation - other.valuation
        rel = min(self.precision - self.valuation, other.precision - other.valuation)
        big = ctx.p**rel
        u = self.unit * pow(other.unit, -1, big) % big
        return PadicNumber._build(ctx, v, u, v + rel)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return PadicNumber.one(self.ctx) / self**(-n)
        result = PadicNumber.one(self.ctx)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def agrees(self, other) -> bool:
        """True when the two values coincide modulo p to the smaller of
        the two precisions."""
        return (self - other).is_zero

    # -- conversions ----------------------------------------------------

    def residue(self) -> int:
        """The image in F_p.  Requires an integral value known at least
        modulo p."""
        if self.is_zero:
            if self.precision >= 1:
                return 0
            raise PrecisionError("value is not known modulo p")
        if self.valuation < 0:
            raise PreconditionError("negative valuation has no residue")
        if self.precision < 1:
            raise PrecisionError("value is not known modulo p")
        return self.unit % self.ctx.p if self.valuation == 0 else 0

    def integer_residue(self, exponent: int) -> int:
        """Canonical representative modulo p**exponent of an integral
        value.  Requires precision >= exponent."""
        if exponent < 0:
            raise PreconditionError("exponent must be nonnegative")
        if self.precision < exponent:
            raise PrecisionError(
                f"value known only modulo p^{self.precision}, need p^{exponent}"
            )
        if self.is_zero:
            return 0
        if self.valuation < 0:
            raise PreconditionError("value is not integral")
        return self.ctx.p**self.valuation * self.unit % self.ctx.p**exponent

    # -- plumbing -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.valuation == other.valuation
            and self.unit == other.unit
            and self.precision == other.precision
        )

    def __hash__(self):
        return hash((self.ctx, self.valuation, self.unit, self.precision))

    def __repr__(self):
        p = self.ctx.p
        if self.is_exact_zero:
            return "0"
        if self.valuation is INFINITE:
            return f"O({p}^{self.precision})"
        body = f"{p}^{self.valuation}*{self.unit}" if self.valuation else f"{self.unit}"
        return f"{body} + O({p}^{self.precision})"

    def to_json(self) -> dict:
        v = "inf" if self.valuation is INFINITE else self.valuation
        prec = "inf" if self.precision is INFINITE else self.precision
        return {"v": v, "u": str(self.unit), "prec": prec}

    @classmethod
    def from_json(cls, ctx, obj) -> "PadicNumber":
        v = obj["v"]
        prec = obj["prec"]
        v = INFINITE if v == "inf" else _as_exp(v)
        prec = INFINITE if prec == "inf" else _as_exp(prec)
        if v is INFINITE:
            return cls.zero_at(ctx, prec)
        return cls.make(ctx, v, strict_int(obj["u"]), prec)


def teichmuller(ctx: PrimeContext, c: int) -> PadicNumber:
    """The Teichmuller lift of a unit residue c: the unique root t of
    t**(p-1) = 1 with t = c mod p, computed by iterating t <- t**p to a
    fixed point modulo p**N."""
    p, big = ctx.p, ctx.modulus
    if c % p == 0:
        raise PreconditionError("residue must be a unit modulo p")
    t = c % big
    for _ in range(ctx.N + 2):
        s = pow(t, p, big)
        if s == t:
            break
        t = s
    else:
        raise PrecisionError("Teichmuller iteration failed to stabilize")
    return PadicNumber._build(ctx, 0, t % big, ctx.N)


def smallest_residue_generator(p: int) -> int:
    """The least c in 2..p-1 generating the multiplicative group mod p."""
    if p == 2:
        return 1
    for c in range(2, p):
        order = 1
        t = c % p
        while t != 1:
            t = t * c % p
            order += 1
        if order == p - 1:
            return c
    raise PreconditionError(f"{p} has no primitive root; is it prime?")


def primitive_torsion_root(ctx: PrimeContext) -> PadicNumber:
    """The canonical primitive e-th root of unity in Z_p: -1 for p = 2,
    otherwise the Teichmuller lift of the smallest generating residue."""
    if ctx.p == 2:
        return PadicNumber.from_int(ctx, -1)
    return teichmuller(ctx, smallest_residue_generator(ctx.p))
