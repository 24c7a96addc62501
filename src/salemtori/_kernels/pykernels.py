"""Pure-Python integer polynomial kernels.

Polynomials are tuples of Python ints, ascending degree, no trailing zeros;
the zero polynomial is ().  Everything here is exact: no floats enter and
Python's bignums never overflow.
"""

from math import gcd


def normalize(coeffs):
    """Drop trailing zeros, return a tuple."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def neg(a):
    return tuple(-x for x in a)


def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return normalize(out)


def sub(a, b):
    out = list(a)
    if len(b) > len(out):
        out.extend([0] * (len(b) - len(out)))
    for i, x in enumerate(b):
        out[i] -= x
    return normalize(out)


def mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return normalize(out)


def mul_scalar(a, c):
    if c == 0:
        return ()
    return tuple(x * c for x in a)


def shift(a, k):
    """Multiply by x**k."""
    if not a:
        return ()
    return (0,) * k + tuple(a)


def divmod_monic(a, b):
    """Quotient and remainder by a monic divisor, exact over the integers."""
    if not b or b[-1] != 1:
        raise ValueError("divisor must be monic")
    db = len(b) - 1
    r = list(a)
    if len(r) - 1 < db:
        return (), tuple(a)
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            q[i - db] = c
            for j in range(db + 1):
                r[i - db + j] -= c * b[j]
    return normalize(q), normalize(r[:db])


def prem(a, b):
    """Pseudo-remainder: lc(b)**(deg a - deg b + 1) * a mod b."""
    if not b:
        raise ZeroDivisionError("pseudo-division by zero polynomial")
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return tuple(a)
    lc = b[-1]
    r = list(a)
    # scale by lc once per step (da-db+1 steps total), cancelling r[i] exactly
    for i in range(da, db - 1, -1):
        c = r[i]
        for j in range(len(r)):
            r[j] *= lc
        if c:
            for j in range(db + 1):
                r[i - db + j] -= c * b[j]
        r[i] = 0
    return normalize(r[:db] if db > 0 else [])


def content(a):
    """gcd of the coefficients, nonnegative; 0 for the zero polynomial."""
    g = 0
    for x in a:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g


def div_scalar_exact(a, c):
    if c == 0:
        raise ZeroDivisionError("scalar division by zero")
    out = []
    for x in a:
        q, r = divmod(x, c)
        if r:
            raise ValueError("inexact scalar division")
        out.append(q)
    return normalize(out)


def deriv(a):
    return normalize([i * a[i] for i in range(1, len(a))])


def eval_int(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def eval_qq(a, num, den):
    """den**deg(a) * a(num/den).  Integer; same sign as a(num/den) for den > 0."""
    if not a:
        return 0
    acc = 0
    dp = 1
    for c in reversed(a):
        acc = acc * num + c * dp
        dp *= den
    return acc
