"""Polynomial arithmetic over the rationals, plus small-degree factorization.

Polynomials are lists of Fractions in ascending degree order.  The
factorization routine is complete for degree <= 4 (rational roots, quadratic
discriminants, quartic resolvent) and falls back to Kronecker interpolation
for higher degrees, which is all the desk-scale engine ever needs.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

from .errors import CartanextError, InputError
from .linalg import ONE, ZERO, is_rational_square

_KRONECKER_DIVISOR_CAP = 4000


class FactorizationLimit(CartanextError):
    """Raised when a polynomial is too large for the desk-scale factorizer."""


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


def evaluate(p: list, x: Fraction) -> Fraction:
    out = ZERO
    for c in reversed(p):
        out = out * x + c
    return out


def compose_linear(p: list, a: Fraction, b: Fraction) -> list:
    """p(a*t + b), exact."""
    out = [ZERO]
    lin = [b, a]
    power = [ONE]
    for c in p:
        if c != 0:
            out = add(out, [c * x for x in power])
        power = mul(power, lin)
    return trim(out)


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


def _divisors(n: int) -> list:
    n = abs(n)
    if n == 0:
        return []
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
        if len(small) + len(large) > _KRONECKER_DIVISOR_CAP:
            raise FactorizationLimit(f"too many divisors of {n} for desk-scale factorization")
    return small + large[::-1]


def _to_integer(p: list) -> tuple[list, Fraction]:
    """Scale a rational polynomial to primitive integer coefficients."""
    den = 1
    for c in p:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    g = g or 1
    return [v // g for v in ints], Fraction(den, g)


def rational_roots(p: list) -> list:
    """All rational roots (without multiplicity) of p."""
    p = trim(list(p))
    if degree(p) <= 0:
        return []
    roots = []
    while p[0] == 0 and len(p) > 1:
        if ZERO not in roots:
            roots.append(ZERO)
        p = p[1:]
    if degree(p) <= 0:
        return roots
    ints, _ = _to_integer(p)
    # a/b is a root iff sum_i c_i a^i b^(d-i) = 0; divisors come in increasing
    # order, so a pair with gcd > 1 repeats a reduced pair already tried
    for num in _divisors(ints[0]):
        for den in _divisors(ints[-1]):
            if math.gcd(num, den) > 1:
                continue
            for a in (num, -num):
                value, power = 0, 1
                for c in reversed(ints):
                    value = value * a + c * power
                    power *= den
                if value == 0:
                    roots.append(Fraction(a, den))
    return roots


def _factor_quartic(p: list) -> Optional[tuple[list, list]]:
    """Split a monic quartic without rational roots into two monic quadratics."""
    a, b, c, d = p[3], p[2], p[1], p[0]
    # depress: t = y - a/4
    shift = -a / 4
    q_ = compose_linear(p, ONE, shift)  # y^4 + P y^2 + Q y + R
    P, Q, R = q_[2], q_[1], q_[0]

    def undo(f):  # substitute y = t + a/4
        return monic(compose_linear(f, ONE, a / 4))

    if Q == 0:
        disc = P * P - 4 * R
        root = is_rational_square(disc)
        if root is not None:
            z1 = (-P + root) / 2
            z2 = (-P - root) / 2
            return undo([-z1, ZERO, ONE]), undo([-z2, ZERO, ONE])
        sr = is_rational_square(R)
        if sr is not None:
            for beta in (sr, -sr):
                alpha2 = 2 * beta - P
                alpha = is_rational_square(alpha2)
                if alpha is not None and alpha != 0:
                    return undo([beta, alpha, ONE]), undo([beta, -alpha, ONE])
        return None
    # resolvent cubic in z = alpha^2
    cubic = [-Q * Q, P * P - 4 * R, 2 * P, ONE]
    for z in rational_roots(cubic):
        if z <= 0:
            continue
        alpha = is_rational_square(z)
        if alpha is None:
            continue
        beta = (P + z - Q / alpha) / 2
        gamma = (P + z + Q / alpha) / 2
        f1 = [beta, alpha, ONE]
        f2 = [gamma, -alpha, ONE]
        if mul(f1, f2) == trim(q_):
            return undo(f1), undo(f2)
    return None


def _kronecker_factor(p: list) -> Optional[tuple[list, list]]:
    """Find a nontrivial factor by Kronecker interpolation, degree >= 5."""
    ints, _ = _to_integer(p)
    n = degree(p)
    for k in range(2, n // 2 + 1):
        points = []
        x = 0
        while len(points) < k + 1:
            val = evaluate([Fraction(c) for c in ints], Fraction(x))
            if val != 0:
                points.append((Fraction(x), int(val)))
            x = -x + (1 if x <= 0 else 0)  # 0, 1, -1, 2, -2, ...
        divisor_lists = []
        for _, val in points:
            divs = _divisors(val)
            divisor_lists.append([d for d in divs] + [-d for d in divs])
        total = 1
        for lst in divisor_lists:
            total *= len(lst)
            if total > 200000:
                raise FactorizationLimit("Kronecker search space too large at desk scale")
        xs = [pt[0] for pt in points]
        for combo in itertools.product(*divisor_lists):
            cand = _lagrange(xs, [Fraction(v) for v in combo])
            if cand is None or degree(cand) != k or cand[-1] == 0:
                continue
            cand = monic(cand)
            quot, rem = divmod_exact(p, cand)
            if rem == [ZERO]:
                return cand, monic(quot)
    return None


def _lagrange(xs: list, ys: list) -> Optional[list]:
    out = [ZERO]
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = [yi]
        den = ONE
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = mul(num, [-xj, ONE])
            den *= xi - xj
        out = add(out, [c / den for c in num])
    return trim(out)


def factor_squarefree(p: list) -> list:
    """Factor a monic squarefree polynomial into monic rational irreducibles.

    Complete for degree <= 4; higher degrees use rational-root splitting and
    a capped Kronecker search.
    """
    p = monic(trim(list(p)))
    out = []
    stack = [p]
    while stack:
        f = stack.pop()
        d = degree(f)
        if d <= 0:
            continue
        if d == 1:
            out.append(f)
            continue
        roots = rational_roots(f)
        if roots:
            for r in roots:
                f, rem = divmod_exact(f, [-r, ONE])
                assert rem == [ZERO]
                out.append([-r, ONE])
            if degree(f) > 0:
                stack.append(f)
            continue
        if d == 2 or d == 3:
            out.append(f)  # no rational root => irreducible at this degree
            continue
        if d == 4:
            split = _factor_quartic(f)
            if split is None:
                out.append(f)
            else:
                stack.extend(split)
            continue
        split = _kronecker_factor(f)
        if split is None:
            out.append(f)
        else:
            stack.extend(split)
    out.sort(key=lambda q: (len(q), [str(c) for c in q]))
    return out
