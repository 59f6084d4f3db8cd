"""Ramification diagnostics for wild automorphisms of F_p[[x]].

Everything here runs in the residue ring, where equality mod x^(K+1) is
all the data there is.  The reporting discipline follows from that: an
iterate that agrees with x within the window is "undetermined" (its
deviation, if any, lies beyond K), never silently infinite; only the
literal identity input earns the infinite markers.  Order statements are
always order-to-x-precision-K statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, PrecisionError
from .padic import INFINITE, exponent_to_json
from .series import RING_RESIDUE, PowerSeries


def _require_nottingham(omega: PowerSeries, who: str) -> None:
    if omega.ring != RING_RESIDUE:
        raise PreconditionError(f"{who} runs in the residue ring")
    if omega.linear != 1:
        raise PreconditionError(f"{who} needs a series with linear coefficient 1")


def _deviation(g: PowerSeries):
    # first index where g differs from x, or None if g = x mod x^(K+1)
    hit = g.first_difference(PowerSeries.identity(g.ctx, RING_RESIDUE))
    return hit


@dataclass(frozen=True)
class RamificationProfile:
    """Lower ramification data i_n = wideg(omega^(p^n)) - 1.

    i entries are ints, None (deviation beyond the window, undetermined),
    or INFINITE (identity input only).  sen[n] checks the congruence
    i_n = i_(n-1) mod p^n and is None wherever either side is missing.
    e_estimates hold (p-1) i_n / p^(n+1) as exact fractions for the
    determined prefix.  e_reported is the half-up rounding of the last
    estimate, published only when the last two estimates round the same
    way and every computed congruence held.
    """

    i_seq: tuple
    sen: tuple
    e_estimates: tuple
    e_reported: int | None
    identity: bool
    truncation: int

    def to_json(self):
        return {
            "i": [exponent_to_json(v) for v in self.i_seq],
            "sen": list(self.sen),
            "e_estimates": [str(q) for q in self.e_estimates],
            "e": exponent_to_json(self.e_reported),
            "identity": self.identity,
            "truncation": self.truncation,
        }


def _round_half_up(q: Fraction) -> int:
    return int(q + Fraction(1, 2)) if q >= 0 else -int(-q + Fraction(1, 2))


def lower_ramification(omega: PowerSeries, n_max: int = 2) -> RamificationProfile:
    """i_n for n = 0..n_max, the Sen congruences between consecutive
    break numbers, and the ramification-index estimates they imply."""
    _require_nottingham(omega, "lower_ramification")
    if n_max < 0:
        raise PreconditionError("n_max must be nonnegative")
    ctx = omega.ctx
    p = ctx.p
    ident = PowerSeries.identity(ctx, RING_RESIDUE)
    if omega == ident:
        n = n_max + 1
        return RamificationProfile(
            i_seq=(INFINITE,) * n,
            sen=(None,) * max(0, n - 1),
            e_estimates=(),
            e_reported=None,
            identity=True,
            truncation=ctx.K,
        )
    i_seq = []
    g = omega
    for n in range(n_max + 1):
        hit = _deviation(g)
        if hit is None:
            # iterate collapsed into the window; everything after is blind
            i_seq.extend([None] * (n_max + 1 - n))
            break
        i_seq.append(hit[0] - 1)
        if n < n_max:
            g = g.iterate(p)
    sen = []
    for n in range(1, n_max + 1):
        a, b = i_seq[n - 1], i_seq[n]
        if isinstance(a, int) and isinstance(b, int):
            sen.append((b - a) % p ** n == 0)
        else:
            sen.append(None)
    estimates = []
    for n, i_n in enumerate(i_seq):
        if isinstance(i_n, int):
            estimates.append(Fraction((p - 1) * i_n, p ** (n + 1)))
    e_reported = None
    if len(estimates) >= 2 and all(s is True for s in sen if s is not None):
        if all(isinstance(v, int) for v in i_seq) and all(s is not None for s in sen):
            last, before = _round_half_up(estimates[-1]), _round_half_up(estimates[-2])
            if last == before:
                e_reported = last
    return RamificationProfile(
        i_seq=tuple(i_seq),
        sen=tuple(sen),
        e_estimates=tuple(estimates),
        e_reported=e_reported,
        identity=False,
        truncation=ctx.K,
    )


def zp_iterate(omega: PowerSeries, a: int, m: int) -> PowerSeries:
    """omega^(a mod p^m) for a p-adic iteration exponent.

    Only meaningful once iteration has provably converged at this window:
    the certificate is omega^(p^m) = x mod x^(K+1), which makes the
    exponent well-defined mod p^m.  Without it the call refuses rather
    than returning an iterate that quietly depends on the representative.
    """
    _require_nottingham(omega, "zp_iterate")
    if m < 0:
        raise PreconditionError("m must be nonnegative")
    ctx = omega.ctx
    pm = ctx.p ** m
    if not omega.iterate(pm).is_identity():
        raise PrecisionError(
            f"no convergence certificate: omega^(p^{m}) still moves x within "
            f"the window; raise m or lower K"
        )
    return omega.iterate(a % pm)


@dataclass(frozen=True)
class TorsionInvariant:
    """Order of a residue-ring automorphism to x-precision K.

    order None means no power p^d with d <= d_max collapsed to x within
    the window.  For elements of the wild group the leading deviation
    (ell, a) of omega - x is recorded; ell mod p and the class of a
    separate conjugacy types for order p."""

    order: int | None
    ell: int | None
    a: int | None
    d_max: int
    truncation: int

    def to_json(self):
        return {
            "order": self.order if self.order is not None
            else "not torsion within bounds",
            "ell": self.ell,
            "a": self.a,
            "d_max": self.d_max,
            "truncation": self.truncation,
        }


def nottingham_order(omega: PowerSeries, d_max: int = 4) -> TorsionInvariant:
    """Smallest p^d with omega^(p^d) = x mod x^(K+1), searched up to
    d_max, plus the leading deviation of omega itself."""
    _require_nottingham(omega, "nottingham_order")
    if d_max < 0:
        raise PreconditionError("d_max must be nonnegative")
    ctx = omega.ctx
    hit = _deviation(omega)
    if hit is None:
        return TorsionInvariant(1, None, None, d_max, ctx.K)
    ell, a = hit
    g = omega
    for d in range(1, d_max + 1):
        g = g.iterate(ctx.p)
        if g.is_identity():
            return TorsionInvariant(ctx.p ** d, ell, a, d_max, ctx.K)
    return TorsionInvariant(None, ell, a, d_max, ctx.K)


def g0_order(omega: PowerSeries, d_max: int = 4) -> TorsionInvariant:
    """Order of a general residue-ring automorphism to x-precision K:
    the multiplicative order r of omega'(0) times the wild order of
    omega^r.  The deviation pair is only reported when r = 1."""
    if omega.ring != RING_RESIDUE:
        raise PreconditionError("g0_order runs in the residue ring")
    lam = omega.linear
    if lam == 0:
        raise PreconditionError("not an automorphism: linear coefficient vanishes")
    r = 1
    t = lam
    while t != 1:
        t = t * lam % omega.ctx.p
        r += 1
    wild = nottingham_order(omega.iterate(r), d_max)
    if wild.order is None:
        return TorsionInvariant(None, None, None, d_max, omega.ctx.K)
    ell, a = (wild.ell, wild.a) if r == 1 else (None, None)
    return TorsionInvariant(r * wild.order, ell, a, d_max, omega.ctx.K)


@dataclass(frozen=True)
class NormalizerReport:
    """Outcome of the digit-by-digit membership test.

    found=True means theta conjugates omega to omega^(a) mod x^(K+1)
    with a pinned mod p^mod_exponent; mod_exponent can fall short of the
    requested m when the residual collapses to x early, at which point
    deeper digits are invisible at this window.  found=False carries the
    stage where no digit could absorb the residual."""

    found: bool
    a: int | None
    mod_exponent: int | None
    failed_stage: int | None
    requested_m: int
    truncation: int

    def to_json(self):
        return {
            "found": self.found,
            "a": self.a,
            "mod_exponent": self.mod_exponent,
            "failed_stage": self.failed_stage,
            "m": self.requested_m,
            "truncation": self.truncation,
        }


def normalizer_witness(theta: PowerSeries, omega: PowerSeries,
                       m: int = 3) -> NormalizerReport:
    """Decide whether theta normalizes the closed iteration group of
    omega, to x-precision K, by solving theta omega theta^(-1) =
    omega^(a) one base-p digit of a at a time.

    At stage j the candidate digit b must knock the residual
    omega^(-(t + b p^j)) (theta omega theta^(-1)) past the deviation
    level of omega^(p^(j+1)); when that level is undetermined (the
    iterate collapsed within the window) only a residual equal to x is
    accepted, which keeps verdicts sound at the cost of stopping early.
    """
    _require_nottingham(omega, "normalizer_witness")
    if theta.ring != RING_RESIDUE or theta.ctx != omega.ctx:
        raise PreconditionError("theta must live in the same residue ring")
    if theta.linear == 0:
        raise PreconditionError("theta is not invertible")
    if m < 1:
        raise PreconditionError("m must be positive")
    if omega.is_identity():
        raise PreconditionError("identity generates the trivial group")
    ctx = omega.ctx
    p = ctx.p
    conj = theta.compose(omega).compose(theta.reversion())
    rev = omega.reversion()
    power = omega
    t = 0
    for j in range(m):
        power = power.iterate(p)
        hit = _deviation(power)
        level = None if hit is None else hit[0]
        chosen = None
        for b in range(p):
            cand = t + b * p ** j
            resid = rev.iterate(cand).compose(conj)
            dev = _deviation(resid)
            if dev is None:
                return NormalizerReport(
                    found=True, a=cand, mod_exponent=j + 1,
                    failed_stage=None, requested_m=m, truncation=ctx.K,
                )
            if level is not None and dev[0] >= level:
                chosen = cand
                break
        if chosen is None:
            return NormalizerReport(
                found=False, a=None, mod_exponent=None,
                failed_stage=j, requested_m=m, truncation=ctx.K,
            )
        t = chosen
    raise PrecisionError(
        f"membership unresolved at m={m}: residual never collapsed to x "
        f"within the window; raise m"
    )
