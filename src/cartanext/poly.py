"""Polynomial arithmetic over the rationals, and factorization over Q.

Polynomials are lists of Fractions in ascending degree order.
`factor_squarefree` is complete in every degree: it factors by
Zassenhaus's method (J. Number Theory 1, 1969), splitting modulo a small
prime by Berlekamp's algorithm (Bell Syst. Tech. J. 46, 1967), lifting by
Hensel's lemma above Mignotte's coefficient bound (Math. Comp. 28, 1974) and
recombining the lifted factors by exact division.  It draws nothing at
random.  Its helpers work on lists of ints in ascending degree order: those
prefixed `_z` over Z, those prefixed `_p` modulo the `m` or `p` they are
given, returning lists without trailing zeros (so [] is zero).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InputError
from .linalg import ONE, ZERO, is_rational_square


def trim(p: list) -> list:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def degree(p: list) -> int:
    p = trim(p)
    return len(p) - 1 if p != [ZERO] else -1


def add(p: list, q: list) -> list:
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else ZERO) + (q[i] if i < len(q) else ZERO) for i in range(n)])


def neg(p: list) -> list:
    return [-c for c in p]


def mul(p: list, q: list) -> list:
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b != 0:
                out[i + j] += a * b
    return trim(out)


def divmod_exact(p: list, q: list) -> tuple[list, list]:
    p = trim(list(p))
    q = trim(list(q))
    if q == [ZERO]:
        raise InputError("polynomial division by zero")
    quot = [ZERO] * max(1, len(p) - len(q) + 1)
    rem = list(p)
    dq = len(q) - 1
    lead = q[-1]
    while len(rem) - 1 >= dq and trim(rem) != [ZERO]:
        rem = trim(rem)
        dr = len(rem) - 1
        if dr < dq:
            break
        c = rem[-1] / lead
        quot[dr - dq] = c
        for i, b in enumerate(q):
            rem[dr - dq + i] -= c * b
        rem = rem[:-1]
    return trim(quot), trim(rem) if rem else [ZERO]


def monic(p: list) -> list:
    p = trim(list(p))
    lead = p[-1]
    if lead == 0:
        return p
    return [c / lead for c in p]


def gcd(p: list, q: list) -> list:
    a, b = trim(list(p)), trim(list(q))
    while b != [ZERO]:
        _, r = divmod_exact(a, b)
        a, b = b, r
    if a == [ZERO]:
        return a
    return monic(a)


def derivative(p: list) -> list:
    if len(p) <= 1:
        return [ZERO]
    return trim([p[i] * i for i in range(1, len(p))])


def xgcd(a: list, b: list) -> tuple:
    """(g, s, t) with s a + t b = g, a greatest common divisor (not made monic)."""
    r0, r1 = list(a), list(b)
    s0, s1 = [ONE], [ZERO]
    t0, t1 = [ZERO], [ONE]
    while trim(r1) != [ZERO]:
        q, r = divmod_exact(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, add(s0, neg(mul(q, s1)))
        t0, t1 = t1, add(t0, neg(mul(q, t1)))
    return trim(r0), trim(s0), trim(t0)


def squarefree_decomposition(p: list) -> list:
    """Yun's algorithm: list of (monic squarefree factor, multiplicity)."""
    p = monic(p)
    if degree(p) <= 0:
        return []
    d = derivative(p)
    a = gcd(p, d)
    b, _ = divmod_exact(p, a)
    c, _ = divmod_exact(d, a)
    out = []
    i = 1
    while degree(b) > 0:
        diff = add(c, neg(derivative(b)))
        g = gcd(b, diff)
        if degree(g) > 0:
            out.append((monic(g), i))
        b, _ = divmod_exact(b, g)
        c, _ = divmod_exact(diff, g)
        i += 1
    return out


def factor_squarefree(p: list) -> list:
    """Factor a monic squarefree polynomial into monic rational irreducibles,
    sorted by degree, then by the strings of their coefficients.

    With D the least common denominator of p's coefficients, x -> y / D
    turns p into g(y) = D^n p(y / D), monic over Z; a monic factor h of g of
    degree m gives the factor D^-m h(D x) of p.
    """
    p = monic(trim(list(p)))
    n = degree(p)
    if n <= 0:
        return []
    if n <= 2:
        out = _factor_small([Fraction(c) for c in p])
    else:
        den = math.lcm(*(c.denominator for c in p))
        g = [int(c * den ** (n - i)) for i, c in enumerate(p)]
        out = [[Fraction(c, den ** (len(h) - 1 - i)) for i, c in enumerate(h)]
               for h in _zassenhaus(g)]
    out.sort(key=lambda q: (len(q), [str(c) for c in q]))
    return out


def _factor_small(p: list) -> list:
    """The monic irreducible factors of a monic p of degree 1 or 2, in
    closed form: t^2 + b t + c splits exactly when b^2 - 4 c is the square
    of a rational s, into t + (b - s) / 2 and t + (b + s) / 2."""
    if len(p) == 2:
        return [p]
    c, b = p[0], p[1]
    s = is_rational_square(b * b - 4 * c)
    if s is None:
        return [p]
    return [[(b - s) / 2, ONE], [(b + s) / 2, ONE]]


def _zassenhaus(f: list) -> list:
    """The monic irreducible factors over Z of a monic squarefree f in Z[y].

    p is the smallest odd prime that keeps f squarefree mod p; there is one,
    since only the finitely many primes dividing the discriminant fail.  A
    monic factor of f has coefficients below B = 2^n ||f||_2 in absolute
    value (Mignotte), so once the factors mod p are lifted to p^k > 2 B, a
    product of lifted factors reduced into (-p^k/2, p^k/2] is a true factor
    exactly when it divides f.  Subsets are tried by size, smallest first,
    so each factor found is irreducible, and the loop stops when the factors
    left cannot split into two subsets of the current size.
    """
    n = len(f) - 1
    df = [i * c for i, c in enumerate(f)][1:]
    p = 3
    while _pgcd(_pmod(f, p), _pmod(df, p), p) != [1]:
        p += 2
        while any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            p += 2
    factors = _berlekamp(_pmod(f, p), p)
    if len(factors) == 1:
        return [f]
    bound = 2 ** (n + 1) * (math.isqrt(sum(c * c for c in f)) + 1)
    k, mod = 1, p
    while mod <= bound:
        k, mod = k + 1, mod * p
    lifted = [_hensel(f, u, _pdivmod(f, u, p)[0], p, k) for u in factors]
    out, size = [], 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            h = [1]
            for i in subset:
                h = _pmod(_zmul(h, lifted[i]), mod)
            h = [c - mod if 2 * c > mod else c for c in h]
            quotient = _zdiv(f, h)
            if quotient is not None:
                out.append(h)
                f = quotient
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


def _berlekamp(f: list, p: int) -> list:
    """The monic irreducible factors of a monic squarefree f over F_p.

    v(x)^p = v(x) mod f holds for the v with sum_i v_i (x^(ip) - x^i) = 0
    mod f, a space whose dimension is the number of irreducible factors.
    Every v in it satisfies f = prod over s in F_p of gcd(f, v - s), and a
    basis of it separates every two factors, so replacing each factor h
    found so far by its gcds with v - s, for each basis vector v in turn,
    ends with the irreducible factors; no random draw is needed.
    """
    n = len(f) - 1
    xp = _pdivmod([0] * p + [1], f, p)[1]
    rows, power = [], [1]
    for i in range(n):
        row = power + [0] * (n - len(power))
        row[i] -= 1
        rows.append(row)
        power = _pdivmod(_zmul(power, xp), f, p)[1]
    basis = _pkernel([list(col) for col in zip(*rows)], p)
    factors = [f]
    for v in basis:
        if len(factors) == len(basis):
            break
        factors = [g for h in factors for s in range(p)
                   for g in [_pgcd(h, _pmod([v[0] - s] + v[1:], p), p)] if len(g) > 1]
    return factors


def _hensel(f: list, g: list, h: list, p: int, k: int) -> list:
    """The monic factor of f mod p^k that is g mod p, for monic g and h with
    f = g h mod p and gcd(g, h) = 1 mod p, by linear Hensel lifting.

    From f = g h mod m, with e = (f - g h) / m, a = t e mod g and
    b = s e + q h, where t e = q g + a and s g + t h = 1 mod p,
    (g + m a)(h + m b) = f mod m p, and g + m a stays monic.
    """
    s, t = _pxgcd(g, h, p)
    m = p
    for _ in range(k - 1):
        e = _pmod([c // m for c in _zadd(f, _zmul(g, h), -1)], p)
        q, a = _pdivmod(_zmul(t, e), g, p)
        b = _pmod(_zadd(_zmul(s, e), _zmul(q, h)), p)
        g, h = _zadd(g, a, m), _zadd(h, b, m)
        m *= p
    return g


def _pkernel(rows: list, p: int) -> list:
    """A basis of the vectors x with rows x = 0 mod p, by row reduction."""
    rows = [list(r) for r in rows]
    width = len(rows[0])
    pivots = []
    for c in range(width):
        r = len(pivots)
        at = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if at is None:
            continue
        rows[r], rows[at] = rows[at], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] % p:
                rows[i] = [(x - row[c] * y) % p for x, y in zip(row, rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        x = [0] * width
        x[free] = 1
        for r, c in enumerate(pivots):
            x[c] = -rows[r][free] % p
        basis.append(_pmod(x, p))
    return basis


def _zmul(a: list, b: list) -> list:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _zadd(a: list, b: list, c: int = 1) -> list:
    """a + c b."""
    return [(a[i] if i < len(a) else 0) + c * (b[i] if i < len(b) else 0)
            for i in range(max(len(a), len(b)))]


def _zdiv(f: list, g: list) -> list | None:
    """f / g over Z for a monic g, or None when g does not divide f."""
    r = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for i in reversed(range(len(q))):
        q[i] = c = r[i + len(g) - 1]
        for j, y in enumerate(g):
            r[i + j] -= c * y
    return None if any(r) else q


def _pmod(a: list, m: int) -> list:
    a = [c % m for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _pdivmod(a: list, b: list, m: int) -> tuple:
    """Quotient and remainder of a by b mod m, for b with a unit lead."""
    r = _pmod(a, m)
    inv = pow(b[-1], -1, m)
    q = [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        q[shift] = c = r[-1] * inv % m
        for i, y in enumerate(b):
            r[shift + i] = (r[shift + i] - c * y) % m
        r = _pmod(r, m)
    return q, r


def _pgcd(a: list, b: list, p: int) -> list:
    """The monic gcd over F_p of a and b, not both zero."""
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _pxgcd(a: list, b: list, p: int) -> tuple:
    """(s, t) with s a + t b = 1 over F_p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _pmod(_zadd(s0, _zmul(q, s1), -1), p)
        t0, t1 = t1, _pmod(_zadd(t0, _zmul(q, t1), -1), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]
