"""Independent reference computations for the test suite.

Deliberately slow and structurally different from the library: digit
counting instead of divmod loops, gift wrapping instead of monotone
chains, dense polynomial arithmetic instead of truncation-aware kernels.
Agreement between the two is the point.
"""

from fractions import Fraction
from math import comb


def slow_vp(n, p):
    if n == 0:
        return None
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def kummer_binom_vp(n, k, p):
    """v_p(C(n,k)) = number of carries when adding k and n-k in base p."""
    carries = 0
    carry = 0
    a, b = k, n - k
    while a or b or carry:
        s = a % p + b % p + carry
        carry = 1 if s >= p else 0
        carries += carry
        a //= p
        b //= p
    return carries


def lucas_binom_mod(n, k, p):
    """C(n,k) mod p digit by digit."""
    r = 1
    while n or k:
        a, b = n % p, k % p
        if b > a:
            return 0
        r = r * comb(a, b) % p
        n //= p
        k //= p
    return r


def poly_mul_mod(a, b, m, limit):
    out = [0] * (limit + 1)
    for i, ai in enumerate(a):
        if i > limit or ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > limit:
                break
            out[i + j] = (out[i + j] + ai * bj) % m
    return out


def poly_compose_mod(outer, inner, m, limit):
    """sum outer[i] * inner^i with powers built by repeated full products."""
    out = [0] * (limit + 1)
    power = [1] + [0] * limit
    for i, c in enumerate(outer):
        if i > 0:
            power = poly_mul_mod(power, inner, m, limit)
        if c:
            for j in range(limit + 1):
                out[j] = (out[j] + c * power[j]) % m
    return out


def poly_horner_mod(outer, inner, m, limit):
    """outer(inner) by Horner's rule, one full dense product per
    coefficient of outer."""
    acc = [0] * (limit + 1)
    for c in reversed(outer):
        acc = poly_mul_mod(acc, inner, m, limit)
        acc[0] = (acc[0] + c) % m
    return acc


def commutant_recursion_mod(fcoeffs, d1, p, N, K):
    """The integral torsion recursion with both sides recomposed in full
    at every step: the numerator at degree n = k+1 is read off
    f(z_k) - z_k(f), each a fresh composition.  Digit n is stored mod
    p^(N-k).  Returns (digits, precs, witness, residue) with digits and
    precs indexed by degree (slot 0 unused), witness the first degree
    whose numerator is a unit and residue that numerator mod p."""
    m = p ** N
    fd = [0] + [c % m for c in fcoeffs]
    fd += [0] * (K + 1 - len(fd))
    digits = [0] * (K + 1)
    precs = [0] * (K + 1)
    digits[1] = d1 % m
    precs[1] = N
    a1 = fd[1]
    for k in range(1, K):
        n = k + 1
        z = digits[:n]
        nu = (poly_compose_mod(fd[:n + 1], z, m, n)[n]
              - poly_compose_mod(z, fd, m, n)[n]) % m
        if nu % p:
            return digits, precs, n, nu % p
        den = (pow(a1, n, m) - a1) % m
        d = (nu // p) * pow(den // p, -1, m // p) % (m // p)
        digits[n] = d % p ** (N - k)
        precs[n] = N - k
    return digits, precs, None, None


def gift_wrap_lower_hull(points):
    """Strict vertices of the lower convex hull, by angular scan: from
    the leftmost-lowest point repeatedly take the least slope, breaking
    ties toward the farthest point."""
    pts = sorted(set(points))
    best_start = min(pts, key=lambda q: (q[0], q[1]))
    hull = [best_start]
    while True:
        cur = hull[-1]
        best = None
        best_slope = None
        for q in pts:
            if q[0] <= cur[0]:
                continue
            slope = Fraction(q[1] - cur[1], q[0] - cur[0])
            if best is None or slope < best_slope or (
                slope == best_slope and q[0] > best[0]
            ):
                best = q
                best_slope = slope
        if best is None:
            return hull
        hull.append(best)
