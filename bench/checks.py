"""Independent judges for every workload's results.

Nothing here imports the library.  Series arrive as plain coefficient
lists (or as objects whose ``valuation``, ``unit`` and ``precision``
attributes are read directly), and every identity is evaluated with this
file's own arithmetic: Kronecker-packed integer products (one big-integer
multiply per polynomial product, unlike the library's term-by-term
kernels), Horner composition on top of them, ``math.comb`` binomials and
``Fraction`` closed forms.  No check compares against a stored copy of an
earlier output.

Each checker returns None when the result is accepted and a one-line
reason when it is rejected.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# arithmetic


def vp(n, p):
    """p-adic valuation of a nonzero int or Fraction."""
    q = Fraction(n)
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def kmul(a, b, m, limit):
    """(a * b) mod (m, x^(limit+1)) for dense 0-indexed lists of
    residues in [0, m): pack each list into one integer, multiply once,
    unpack."""
    a = a[: limit + 1]
    b = b[: limit + 1]
    if not a or not b:
        return [0] * (limit + 1)
    bound = (m - 1) * (m - 1) * min(len(a), len(b))
    width = (bound.bit_length() + 8) // 8
    pa = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")
    pb = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in b), "little")
    raw = (pa * pb).to_bytes(width * (len(a) + len(b)), "little")
    out = [int.from_bytes(raw[i * width:(i + 1) * width], "little") % m
           for i in range(limit + 1)]
    return out


def kcompose(outer, inner, m, limit):
    """outer(inner) mod (m, x^(limit+1)) by Horner; both dense and
    0-indexed, inner[0] == 0."""
    inner = [c % m for c in inner]
    acc = [0] * (limit + 1)
    for c in reversed(outer[: limit + 1]):
        acc = kmul(acc, inner, m, limit)
        acc[0] = (acc[0] + c) % m
    return acc


def dense(coeffs):
    """Library layout (x^i at position i-1) to 0-indexed dense."""
    return [0] + list(coeffs)


def identity(limit):
    out = [0] * (limit + 1)
    out[1] = 1
    return out


def congruent(a, b, m):
    return all((x - y) % m == 0 for x, y in zip(a, b))


def first_mismatch(a, b, m):
    for i, (x, y) in enumerate(zip(a, b)):
        if (x - y) % m:
            return i
    return None


def kpower(series, n, m, limit):
    """n-fold composition power by binary powering."""
    result = identity(limit)
    base = series
    while n:
        if n & 1:
            result = kcompose(result, base, m, limit)
        n >>= 1
        if n:
            base = kcompose(base, base, m, limit)
    return result


def torsion_root(p, e):
    """The primitive root of unity the library's convention names: -1
    for p = 2, else the Teichmuller lift of the least generator of
    (Z/p)^*, as an integer modulo p^e."""
    pe = p ** e
    if p == 2:
        return pe - 1
    g = next(c for c in range(2, p)
             if all(pow(c, (p - 1) // q, p) != 1
                    for q in range(2, p) if (p - 1) % q == 0 and _is_prime(q)))
    t = g
    for _ in range(e + 1):
        t = pow(t, p, pe)
    return t


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def guard_digits(p, K):
    """v_p(K!) + 1: the extra digits an exponent needs so that C(a, i)
    for i <= K is pinned modulo p^e by a modulo p^(e + guard)."""
    v, pe = 0, p
    while pe <= K:
        v += K // pe
        pe *= p
    return v + 1


def gbinom(a, i):
    """Generalized binomial C(a, i) for a Fraction a."""
    out = Fraction(1)
    for j in range(i):
        out = out * (a - j) / (j + 1)
    return out


# ---------------------------------------------------------------------------
# p-adic floats, read by attribute


def pvalue(c, p):
    """Exact rational stated by a float coefficient (0 for zeros)."""
    if math.isinf(c.valuation):
        return Fraction(0)
    return Fraction(c.unit) * Fraction(p) ** c.valuation


def claim_holds(c, q, p):
    """True when the float coefficient c agrees with the exact value q
    to the precision c states."""
    d = q - pvalue(c, p)
    if d == 0:
        return True
    if math.isinf(c.precision):
        return False
    return vp(d, p) >= c.precision


def min_precision(coeffs):
    finite = [c.precision for c in coeffs if not math.isinf(c.precision)]
    return min(finite) if finite else None


def check_float_closed_form(coeffs, closed, p):
    for i, c in enumerate(coeffs, 1):
        if not claim_holds(c, closed(i), p):
            return f"coefficient {i} disagrees with the closed form at its stated precision"
    return None


def scaled_integers(coeffs, p):
    """(V, ints) with ints[i] = p^V * value(coeffs[i]) integral."""
    vals = [pvalue(c, p) for c in coeffs]
    V = max([0] + [-vp(v, p) for v in vals if v])
    scale = Fraction(p) ** V
    ints = []
    for v in vals:
        s = v * scale
        if s.denominator != 1:
            raise ValueError("scaling failed to clear the denominator")
        ints.append(int(s))
    return V, ints


# ---------------------------------------------------------------------------
# certify


def check_certificate_flags(cert):
    if cert.outcome != "integral":
        return f"outcome {cert.outcome!r}, want 'integral'"
    if cert.verified_order is not True:
        return "verified_order is not True"
    return None


def check_conjugated_certificate(cert, fc, uc, p, N, K):
    """z^e = x, z∘uc = uc∘z and z∘fc = fc∘z modulo p^(N-K+1), with z'(0)
    the conventional primitive e-th root of unity."""
    bad = check_certificate_flags(cert)
    if bad:
        return bad
    if cert.commutes_with_u is not True:
        return "commutes_with_u is not True"
    out = N - K + 1
    m = p ** out
    precs = cert.coefficient_precision
    if len(precs) != K or min(precs) < out:
        return f"precision ledger promises less than p^{out}"
    z = dense(cert.series.coeffs)
    f = dense(fc.coeffs)
    u = dense(uc.coeffs)
    e = 2 if p == 2 else p - 1
    if z[1] % m != torsion_root(p, out):
        return "linear coefficient is not the primitive root of unity"
    if not congruent(kpower(z, e, m, K), identity(K), m):
        return f"z^{e} is not x modulo p^{out}"
    for name, s in (("uc", u), ("fc", f)):
        i = first_mismatch(kcompose(z, s, m, K), kcompose(s, z, m, K), m)
        if i is not None:
            return f"z does not commute with {name} at x^{i} modulo p^{out}"
    return None


def check_gm_certificate(cert, p, N, K, with_u):
    """Unconjugated multiplicative-group pair: z_i = C(zeta, i) modulo
    p^(ledger precision of digit i), coefficient by coefficient."""
    bad = check_certificate_flags(cert)
    if bad:
        return bad
    if with_u and cert.commutes_with_u is not True:
        return "commutes_with_u is not True"
    precs = cert.coefficient_precision
    if len(precs) != K or min(precs) < N - K + 1:
        return "precision ledger promises less than p^(N-K+1)"
    g = N + guard_digits(p, K)
    zeta = torsion_root(p, g)
    for i, (c, prec) in enumerate(zip(cert.series.coeffs, precs), 1):
        pe = p ** prec
        if (c - math.comb(zeta, i)) % pe:
            return f"coefficient {i} differs from C(zeta, {i}) modulo p^{prec}"
    return None


# ---------------------------------------------------------------------------
# float


def check_linearization_closed(lin, p):
    """log(1+x): c_i = (-1)^(i+1)/i."""
    return check_float_closed_form(
        lin.series.coeffs, lambda i: Fraction((-1) ** (i + 1), i), p)


def check_commutant_closed(series, a, p):
    """(1+x)^a - 1."""
    return check_float_closed_form(series.coeffs, lambda i: gbinom(Fraction(a), i), p)


def check_reversion_closed(series, b, p):
    """Inverse of (1+x)^b - 1 is (1+x)^(1/b) - 1."""
    return check_float_closed_form(series.coeffs, lambda i: gbinom(Fraction(1, b), i), p)


def check_linearization_identity(lin, fc, p, K):
    """L∘fc = p·L to the smallest stated precision of L."""
    P = min_precision(lin.series.coeffs)
    if P is None:
        return "linearization states no finite precision"
    if lin.series.coeffs[0].valuation != 0 or lin.series.coeffs[0].unit != 1:
        return "linear coefficient of L is not 1"
    V, L = scaled_integers(lin.series.coeffs, p)
    m = p ** (P + V)
    lhs = kcompose(dense([c % m for c in L]), dense(fc.coeffs), m, K)
    rhs = [p * c % m for c in dense(L)]
    i = first_mismatch(lhs, rhs, m)
    if i is not None:
        return f"L∘f differs from p·L at x^{i} modulo p^{P}"
    return None


def _integral_values(coeffs, p):
    out = []
    for c in coeffs:
        v = pvalue(c, p)
        if v.denominator != 1:
            return None
        out.append(int(v))
    return out


def check_commutant_identity(series, fc, a, p, K):
    """z∘fc = fc∘z to the smallest stated precision, z'(0) = a."""
    P = min_precision(series.coeffs)
    if P is None or P < 1:
        return "commutant states no usable precision"
    z = _integral_values(series.coeffs, p)
    if z is None:
        return "commutant of an integral pair claims a non-integral coefficient"
    m = p ** P
    if (z[0] - a) % m:
        return "linear coefficient is not a"
    zd, fd = dense([c % m for c in z]), dense(fc.coeffs)
    i = first_mismatch(kcompose(zd, fd, m, K), kcompose(fd, zd, m, K), m)
    if i is not None:
        return f"z does not commute with f at x^{i} modulo p^{P}"
    return None


def check_reversion_identity(series, uc, p, K):
    """r∘uc = uc∘r = x to the smallest stated precision."""
    P = min_precision(series.coeffs)
    if P is None or P < 1:
        return "reversion states no usable precision"
    r = _integral_values(series.coeffs, p)
    if r is None:
        return "reversion of an integral series claims a non-integral coefficient"
    m = p ** P
    rd, ud = dense([c % m for c in r]), dense(uc.coeffs)
    for lhs in (kcompose(rd, ud, m, K), kcompose(ud, rd, m, K)):
        i = first_mismatch(lhs, identity(K), m)
        if i is not None:
            return f"reversion identity fails at x^{i} modulo p^{P}"
    return None


# ---------------------------------------------------------------------------
# residue


def ramification_breaks(p, t, n_max):
    """i_n = p^(t+n) - 1 for (1+x)^a - 1 with v_p(a - 1) = t (t >= 2 when
    p = 2), preserved by conjugation."""
    return tuple(p ** (t + n) - 1 for n in range(n_max + 1))


def check_ramification(prof, p, t, n_max):
    want = ramification_breaks(p, t, n_max)
    if tuple(prof.i_seq) != want:
        return f"breaks {tuple(prof.i_seq)}, want {want}"
    if not all(s is True for s in prof.sen) or len(prof.sen) != n_max:
        return "a Sen congruence is not reported as holding"
    if prof.e_reported != (p - 1) * p ** (t - 1):
        return f"e = {prof.e_reported}, want {(p - 1) * p ** (t - 1)}"
    return None


def leading_deviation(w):
    """(index, coefficient) of the first term where w differs from x."""
    for i, c in enumerate(w[1:], 1):
        if c != (1 if i == 1 else 0):
            return i, c
    return None


def residue_order(w, p, K, d_max):
    """Order of w to x-precision K by independent composition: the
    multiplicative order r of w'(0), then the least p^d with
    (w^r)^(p^d) = x."""
    r, t = 1, w[1] % p
    while t != 1:
        t = t * w[1] % p
        r += 1
    g = kpower(w, r, p, K)
    ident = identity(K)
    for d in range(d_max + 1):
        if g == ident:
            return r * p ** d
        g = kpower(g, p, p, K)
    return None


def check_order(inv, w, want):
    """want: the order from residue_order."""
    if inv.order != want:
        return f"order {inv.order}, want {want}"
    dev = leading_deviation(w) if w[1] == 1 else None
    got = None if inv.ell is None else (inv.ell, inv.a)
    if want is not None and want > 1 and got != dev:
        return f"leading deviation {got}, want {dev}"
    return None


def check_normalizer(rep, theta, w, w_a, p, K):
    """theta∘w∘theta^(-1) = w^(a), checked as theta∘w = w^(a)∘theta;
    w_a is kpower(w, rep.a)."""
    if not rep.found:
        return f"no exponent found (failed stage {rep.failed_stage})"
    if rep.mod_exponent is None or rep.mod_exponent < 1:
        return "found without a modulus"
    lhs = kcompose(theta, w, p, K)
    rhs = kcompose(w_a, theta, p, K)
    if lhs != rhs:
        return f"theta∘w differs from w^({rep.a})∘theta"
    return None


def check_zp_iterate(series, want, a, m, p):
    """w^(a mod p^m) equals want = kpower(w, a mod p^m), the product of
    the binary powers w^(2^k) composed here: the law
    w^(b)∘w^(c) = w^(b+c)."""
    if dense(series.coeffs) != want:
        return f"w^({a} mod {p}^{m}) differs from the composed powers"
    return None


# ---------------------------------------------------------------------------
# cli


def padic_json_value(obj, p):
    """(value mod p^prec, prec) of an integral padic JSON object."""
    prec = obj["prec"]
    if obj["v"] == "inf":
        return 0, prec
    return p ** obj["v"] * int(obj["u"]), prec


def check_cli_polygon(out, a):
    s = vp(a * a - 1, 2)
    want = [[2 ** j, str(s - j)] for j in range(s + 1)]
    if out.get("vertices") != want:
        return f"vertices {out.get('vertices')}, want {want}"
    roots = [[str(Fraction(1, 2 ** j)), 2 ** j] for j in range(s)]
    if out.get("root_valuations") != roots:
        return "root valuations disagree with the roots of unity"
    return None


def check_cli_torsion(out, p, N, K):
    if out.get("outcome") != "integral" or out.get("verified_order") is not True:
        return "torsion-check did not certify"
    precs = out["coefficient_precision"]
    coeffs = out["series"]["coeffs"]
    if len(coeffs) != K or len(precs) != K or min(precs) < N - K + 1:
        return "torsion-check ledger is short"
    zeta = torsion_root(p, N + guard_digits(p, K))
    for i, (obj, prec) in enumerate(zip(coeffs, precs), 1):
        value, _ = padic_json_value(obj, p)
        if (value - math.comb(zeta, i)) % p ** prec:
            return f"coefficient {i} differs from C(zeta, {i}) modulo p^{prec}"
    return None


def check_cli_ramification(out, p, a, n_max):
    t = vp(a - 1, p)
    want = list(ramification_breaks(p, t, n_max))
    if out.get("i") != want:
        return f"breaks {out.get('i')}, want {want}"
    if out.get("sen") != [True] * n_max:
        return "a Sen congruence is not reported as holding"
    if out.get("e") != (p - 1) * p ** (t - 1):
        return f"e = {out.get('e')}, want {(p - 1) * p ** (t - 1)}"
    return None


def check_cli_order(out, p, c):
    """x/(1 - c x) has order p over F_p with leading deviation (2, c)."""
    want = {"order": p, "ell": 2, "a": c, "kind": "nottingham"}
    got = {k: out.get(k) for k in want}
    if got != want:
        return f"order report {got}, want {want}"
    return None


def check_cli_gen_pair(out, p, N, K, seed):
    if out.get("provenance") != {"kind": "conjugated", "seed": seed}:
        return "provenance does not name the seed"
    m = p ** N
    f = dense(padic_json_value(c, p)[0] % m for c in out["f"]["coeffs"])
    u = dense(padic_json_value(c, p)[0] % m for c in out["u"]["coeffs"])
    delta = 2 if p == 2 else 1
    if f[1] != p or u[1] != 1 + p ** delta:
        return "linear coefficients are not p and 1 + p^delta"
    wideg = next((i for i, c in enumerate(f[1:], 1) if c % p), None)
    if wideg != p:
        return f"wideg(f mod p) = {wideg}, want {p}"
    i = first_mismatch(kcompose(f, u, m, K), kcompose(u, f, m, K), m)
    if i is not None:
        return f"generated pair does not commute at x^{i}"
    return None


def check_cli_wideg(out, p, b, K):
    want = next((i for i in range(1, K + 1)
                 if (math.comb(b, i) - (i == 1)) % p), None)
    got = out.get("wideg")
    if got != (want if want is not None else "undetermined"):
        return f"wideg {got}, want {want}"
    return None


def check_cli_zp_iterate(out, p, base, a, m, K):
    L = 1
    while p ** L <= K:
        L += 1
    A = pow(base, a % p ** m, p ** L)
    want = [math.comb(A, i) % p for i in range(1, K + 1)]
    if out.get("series", {}).get("coeffs") != want or out.get("a_mod") != a % p ** m:
        return "zp-iterate disagrees with (1+x)^(base^a) - 1 mod p"
    return None


def check_cli_wprep(out, g, p, N, K):
    """g = P·U with P monic distinguished of degree wideg(g) and U a
    unit, multiplied out here modulo (p^N, x^(K+1))."""
    d = next(i for i, c in enumerate(g, 1) if c % p)
    P = out.get("distinguished")
    if (not isinstance(P, list) or len(P) != d + 1 or P[0] != 0 or P[-1] != 1
            or any(c % p for c in P[1:d])):
        return f"P is not monic distinguished of degree {d}"
    if out.get("unit_constant", 0) % p == 0:
        return "U(0) is not a unit"
    if out.get("residual_precision") != {"p_exp": N, "x_order": K}:
        return "residual precision is not (p^N, x^K)"
    m = p ** N
    U = [out["unit_constant"]] + [padic_json_value(c, p)[0] for c in out["unit_tail"]["coeffs"]]
    i = first_mismatch(kmul([c % m for c in P], [c % m for c in U], m, K), dense(g), m)
    if i is not None:
        return f"P·U differs from g at x^{i} modulo p^{N}"
    return None


def check_cli_lambda(out, p, n, delta):
    """Both sides of the comparison for f = (1+x)^p - 1 and
    u = (1+x)^(1+p^delta) - 1 have the roots z - 1, z a primitive
    p^k-th root of unity, k = 1..n: (p-1)p^(k-1) roots of valuation
    1/((p-1)p^(k-1))."""
    want = [[str(Fraction(1, (p - 1) * p ** (k - 1))), (p - 1) * p ** (k - 1)]
            for k in range(1, n + 1)]
    got = {k: out.get(k) for k in ("equal", "left", "right", "n", "delta")}
    if got != {"equal": True, "left": want, "right": want, "n": n, "delta": delta}:
        return f"lambda-check report {got}, want both sides {want}"
    return None


def parse_cli(stdout):
    """Decoded JSON of one CLI invocation; must be one line ending in a
    newline."""
    if not stdout.endswith("\n") or stdout.count("\n") != 1:
        return None
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None
