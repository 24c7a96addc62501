"""factor_bounded against sympy's factor_list, an independent factoriser."""

from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from salemtori.poly import ONE, IntPoly, factor_bounded

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


@st.composite
def monic_factors(draw):
    """Ascending coefficient tuples of monic factors, total degree <= 8."""
    factors, room = [], 8
    while room and (not factors or draw(st.booleans())):
        d = draw(st.integers(min_value=1, max_value=room))
        low = draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=d, max_size=d))
        factors.append(tuple(low) + (1,))
        room -= d
    return factors


def sympy_factors(p: IntPoly):
    """(ascending coeffs, multiplicity) of each irreducible factor, sorted
    by (degree, coeffs) as factor_bounded sorts them."""
    unit, pairs = sympy.Poly(list(reversed(p.coeffs)), X).factor_list()
    assert unit == 1
    out = [(tuple(int(a) for a in reversed(f.all_coeffs())), m) for f, m in pairs]
    return sorted(out, key=lambda fm: (len(fm[0]), fm[0]))


@given(monic_factors())
@example([(3, 1, 1), (1, 1, 0, 0, 1)])  # least factor a quadratic
@example([(1, 1, 0, 1), (-1, -1, 0, 0, 0, 1)])  # least factor a cubic
@example([(1, 1, 0, 0, 1), (3, 0, 0, 1, 1)])  # two irreducible quartics
@example([(3, 1, 1), (3, 1, 1), (1, 1, 0, 1)])  # a repeated factor
@example([(5, -4, 3, 5, 1), (-6, 6, 5, 6, 1)])  # many cubic candidates
def test_factor_bounded_matches_sympy(factors):
    p = ONE
    for f in factors:
        p = p * IntPoly(f)
    assert [(f.coeffs, m) for f, m in factor_bounded(p)] == sympy_factors(p)


# the reciprocal quartics t^4 + a t^3 + b t^2 + a t + 1 with |a|, |b| <= 2
RECIPROCAL_QUARTICS = tuple(IntPoly((1, a, b, a, 1)) for a in range(-2, 3) for b in range(-2, 3))


def test_products_of_reciprocal_quartics_match_sympy():
    # an octic with two irreducible quartic factors is split by the quartic
    # stage of the walk, after the quadratic and cubic candidates fail
    for f, g in combinations_with_replacement(RECIPROCAL_QUARTICS, 2):
        p = f * g
        assert [(h.coeffs, m) for h, m in factor_bounded(p)] == sympy_factors(p), (f, g)
