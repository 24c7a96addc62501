"""factor_bounded against sympy's factor_list, an independent factoriser."""

from itertools import combinations_with_replacement, product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from salemtori import poly
from salemtori.poly import ONE, IntPoly, factor_bounded
from salemtori.salem import is_salem

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


def test_unit_constant_quartics_match_sympy():
    # every t^4 + a t^3 + b t^2 + c t + 1 with |a|, |b|, |c| <= 6: split in
    # closed form, after the linear factors, by _quadratic_split
    for a, b, c in product(range(-6, 7), repeat=3):
        p = IntPoly((1, c, b, a, 1))
        assert [(f.coeffs, m) for f, m in factor_bounded(p)] == sympy_factors(p), p


def sympy_layout(p: IntPoly):
    """(roots above 2, below -2, between) of the trace polynomial T of a
    reciprocal p of degree 2e, p(t) = t^e T(t + 1/t), counted by sympy.
    t^j + t^-j = D_j(t + 1/t) with D_0 = 2, D_1 = x, D_j+1 = x D_j - D_j-1."""
    e = p.degree // 2
    dickson = [sympy.Integer(2), X]
    while len(dickson) <= e:
        dickson.append(sympy.expand(X * dickson[-1] - dickson[-2]))
    trace = p.coeffs[e] + sum(p.coeffs[e + j] * dickson[j] for j in range(1, e + 1))
    t = sympy.Poly(trace, X)
    above, below = t.count_roots(2, None), t.count_roots(None, -2)
    return above, below, t.count_roots() - above - below


# the factoring commands of tests/corpus.py HEAVY, highest degree first
HEAVY_QUARTICS = (
    lambda a: (1, a, 12345, a, 1),
    lambda a: (1, a, 3, a, 1),
)
HEAVY_SHAPES = HEAVY_QUARTICS + (lambda a: (1, a, 3, a, 7, a, 3, a, 1),)
SHAPE_IDS = ("quartic-12345", "quartic-3", "octic")
# the largest coefficient under cli.MAX_BITS = 4000
CAP = (1 << 4000) - 1


HEAVY_CASES = [
    pytest.param(shape, a, id=f"{ident}-{a}")
    for a in (10**10, 10**12, -(10**12))
    for shape, ident in zip(HEAVY_SHAPES, SHAPE_IDS)
]
# the octic's divisor lists still take about cbrt(A) steps, so only the
# quartics, which _quadratic_split solves, reach A = 10**30
HEAVY_CASES += [pytest.param(shape, 10**30, id=f"{ident}-{10**30}") for shape, ident in zip(HEAVY_QUARTICS, SHAPE_IDS)]


@pytest.mark.parametrize("shape, a", HEAVY_CASES)
def test_heavy_shapes_match_sympy(shape, a):
    p = IntPoly.from_descending(shape(a))
    factors = sympy_factors(p)
    assert [(f.coeffs, m) for f, m in factor_bounded(p)] == factors
    cert = is_salem(p)
    if factors != [(p.coeffs, 1)]:
        assert (cert.reason, cert.witness.coeffs) == ("reducible", factors[0][0])
        return
    layout = sympy_layout(p)
    if layout == (1, 0, p.degree // 2 - 1):
        assert cert
    else:
        assert (cert.reason, cert.witness) == ("wrong-circle-count", layout)


@pytest.mark.parametrize("a", (10**30, -(10**30), CAP, -CAP), ids=("1e30", "-1e30", "cap", "-cap"))
def test_big_unit_constant_quartics_list_no_divisors(monkeypatch, a):
    # only the linear stage's list of the divisors of p(0) = 1 is allowed
    real = poly.divisors

    def spy(n):
        if abs(n) > 1:
            raise AssertionError(f"divisors({n}) called")
        return real(n)

    monkeypatch.setattr(poly, "divisors", spy)
    for shape in HEAVY_QUARTICS:
        p = IntPoly.from_descending(shape(a))
        assert factor_bounded(p) == ((p, 1),)
    for s in (1, -1):
        f, g = IntPoly((s, a, 1)), IntPoly((s, 3 - a, 1))
        assert factor_bounded(f * g) == tuple(sorted(((f, 1), (g, 1)), key=lambda fm: fm[0].coeffs))
