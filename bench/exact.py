"""Exact polynomial and matrix helpers in plain Python.

Nothing here imports salemtori or any third-party package, so set-up can use
it to build inputs and the checks can use it as a reference.  Polynomials are
tuples of integers, highest degree first.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache


def strip(a):
    a = list(a)
    while a and a[0] == 0:
        a.pop(0)
    return tuple(a)


def mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def add(a, b):
    n = max(len(a), len(b))
    a = (0,) * (n - len(a)) + tuple(a)
    b = (0,) * (n - len(b)) + tuple(b)
    return strip(x + y for x, y in zip(a, b))


def divmod_poly(a, b):
    """Long division over Fractions: (quotient, remainder), remainder stripped."""
    r = [Fraction(x) for x in a]
    q = []
    while len(r) >= len(b):
        f = r[0] / b[0]
        q.append(f)
        for j, y in enumerate(b):
            r[j] -= f * y
        r.pop(0)
    return tuple(q), strip(r)


def divides(g, p) -> bool:
    return not divmod_poly(p, g)[1]


def evaluate(p, x):
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


def sign_at_dyadic(p, m: int, k: int) -> int:
    """Sign of p(m / 2**k), from integer arithmetic only."""
    n = len(p) - 1
    v = sum(c * m ** (n - i) << (k * i) for i, c in enumerate(p))
    return (v > 0) - (v < 0)


# ----------------------------------------------------------------------
# characteristic polynomials


def leibniz_charpoly(m):
    """det(tI - M) by Leibniz expansion, skipping permutations through zeros."""
    n = len(m)
    entry = [
        [((1, -m[i][j]) if i == j else (-m[i][j],)) for j in range(n)] for i in range(n)
    ]
    total = ()

    def expand(row, used, term, sign):
        nonlocal total
        if row == n:
            total = add(total, term if sign > 0 else tuple(-c for c in term))
            return
        for j in range(n):
            if used >> j & 1 or entry[row][j] == (0,):
                continue
            # sign of the permutation: count later rows already mapped left of j
            flips = bin(used >> j).count("1")
            expand(row + 1, used | 1 << j, mul(term, entry[row][j]), -sign if flips & 1 else sign)

    expand(0, 0, (1,), 1)
    return total


def second_compound(m):
    """Minors on sorted index pairs: the action on the exterior square."""
    pairs = list(itertools.combinations(range(len(m)), 2))
    return tuple(
        tuple(m[i][k] * m[j][l] - m[i][l] * m[j][k] for (k, l) in pairs) for (i, j) in pairs
    )


def companion(p):
    """Companion matrix of a monic polynomial."""
    n = len(p) - 1
    return tuple(
        tuple((1 if i == j + 1 else 0) if j < n - 1 else -p[n - i] for j in range(n)) for i in range(n)
    )


@lru_cache(maxsize=None)
def wedge_poly(quartic):
    """Exterior-square polynomial via the compound of the companion matrix."""
    return leibniz_charpoly(second_compound(companion(quartic)))


@lru_cache(maxsize=None)
def h1_h2(matrix):
    return leibniz_charpoly(matrix), leibniz_charpoly(second_compound(matrix))
