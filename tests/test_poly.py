"""Exact polynomial layer: arithmetic, parsing, factoring, cyclotomics."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemtori import poly
from salemtori.errors import DegreeTooLargeError, NotMonicError, ParseError
from salemtori.poly import (
    CYCLOTOMIC_INDICES,
    ONE,
    IntPoly,
    _icbrt,
    _lehman,
    cyclotomic,
    divisors,
    factor_bounded,
    format_poly,
    _quadratic_split,
    parse_ints,
    parse_poly,
    remainder_sequence,
    split_cyclotomic,
)
from salemtori.salem import SturmChain

from _oracles import o_divisors, o_divmod, o_eval, o_mul

coeff = st.integers(min_value=-50, max_value=50)
small_poly = st.lists(coeff, min_size=0, max_size=8).map(lambda c: IntPoly(tuple(c)))


class TestArithmetic:
    @given(small_poly, small_poly)
    def test_mul_matches_oracle(self, a, b):
        assert (a * b).coeffs == o_mul(a.coeffs, b.coeffs)

    @given(small_poly, small_poly)
    def test_add_sub_roundtrip(self, a, b):
        assert a + b - b == a

    @given(small_poly, small_poly, st.integers(min_value=-5, max_value=5))
    def test_eval_is_ring_hom(self, a, b, x):
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)

    @given(small_poly)
    def test_reciprocal_involution(self, p):
        # reversing twice only loses factors of t
        r = p.reciprocal().reciprocal()
        if not p.is_zero and p.coeffs[0] != 0:
            assert r == p

    @given(small_poly, st.lists(coeff, min_size=2, max_size=6))
    def test_divmod_matches_oracle(self, a, tail):
        b = IntPoly(tuple(tail[:-1]) + (1,))
        q, r = divmod(a, b)
        oq, orr = o_divmod(a.coeffs, b.coeffs)
        assert tuple(Fraction(c) for c in q.coeffs) == oq
        assert tuple(Fraction(c) for c in r.coeffs) == orr
        assert q * b + r == a

    def test_divmod_needs_monic(self):
        with pytest.raises(NotMonicError):
            divmod(IntPoly((1, 1)), IntPoly((1, 2)))

    def test_frozen_product(self):
        # (t^2 - 3t + 1)(t + 1)^2 = t^4 - t^3 - 4t^2 - t + 1
        s = IntPoly((1, -3, 1))
        c = IntPoly((1, 1)) ** 2
        assert s * c == IntPoly((1, -1, -4, -1, 1))

    @given(small_poly)
    def test_derivative_power_rule(self, p):
        q = p * p
        assert q.derivative() == IntPoly((2,)) * p * p.derivative()

    @pytest.mark.parametrize("bad", [2.7, Fraction(7, 2), Fraction(4, 1), "3", 2.0])
    def test_non_integral_coefficient_raises(self, bad):
        # a coefficient is never truncated: 2.7 once became 2 and 7/2 became 3
        with pytest.raises(TypeError):
            IntPoly((1, bad, 1))
        with pytest.raises(TypeError):
            IntPoly.from_descending((1, bad, 1))

    def test_bool_coefficient_is_an_integer(self):
        p = IntPoly((True, False, 1))
        assert p == IntPoly((1, 0, 1)) and type(p.coeffs[0]) is int


class TestParse:
    def test_examples(self):
        assert parse_poly("1,-3,1") == IntPoly((1, -3, 1))
        assert parse_poly("1,0,-1,-1,-1,0,1") == IntPoly((1, 0, -1, -1, -1, 0, 1))
        assert parse_poly(" 1 , 2 ") == IntPoly((2, 1))

    def test_error_position(self):
        with pytest.raises(ParseError) as ei:
            parse_poly("1,,2")
        # character position of the empty token
        assert ei.value.position == 2

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_poly("1,x,2")

    def test_parse_ints(self):
        assert parse_ints(" 0, -3 ,12") == [0, -3, 12]
        with pytest.raises(ParseError) as ei:
            parse_ints("1, 2,a", "entry")
        assert ei.value.position == 5
        assert str(ei.value) == "bad entry 'a'"

    @given(small_poly)
    def test_roundtrip(self, p):
        assert parse_poly(format_poly(p)) == p


class TestDivisors:
    @pytest.mark.parametrize("n", (1, -1, 12, -36, 97, 2160))
    def test_both_signs_positive_first_by_size(self, n):
        expected = [s * d for d in range(1, abs(n) + 1) if n % d == 0 for s in (1, -1)]
        assert divisors(n) == expected

    def test_zero_has_no_divisor_list(self):
        with pytest.raises(ValueError):
            divisors(0)

    @pytest.mark.parametrize("factor_from", (poly._FACTOR_FROM, 1), ids=("as-is", "all-factorised"))
    def test_small_n_match_trial_division(self, monkeypatch, factor_from):
        # with the switch at 1, the factorisation route lists these too
        monkeypatch.setattr(poly, "_FACTOR_FROM", factor_from)
        for n in range(1, 3000):
            assert divisors(n) == o_divisors(n), n

    def test_large_n_match_trial_division(self):
        rng = random.Random(29)
        sample = [rng.randrange(10**e, 10 ** (e + 1)) for e in range(4, 13)]
        powers = [2**36, 3**21, 7**12, 101**3, 1009**2, 65521**2, 1009**2 * 53]
        products = [p * q for p, q in SEMIPRIMES]
        for n in sample + powers + products + list(CERTIFY_VALUES):
            assert divisors(n) == divisors(-n) == o_divisors(n), n

    def test_lehman_splits_products_of_two_large_primes(self):
        for p, q in SEMIPRIMES + ((32771, 1073938427), (65521, 4293001429)):
            assert _lehman(p * q) in (p, q), (p, q)

    @pytest.mark.parametrize("p", (2311, 1018057, 1000000000039, 10000000000037, 35184372088891))
    def test_lehman_finds_no_factor_of_a_prime(self, p):
        assert _lehman(p) is None

    def test_integer_cube_root(self):
        for n in range(200):
            assert _icbrt(n) ** 3 <= n < (_icbrt(n) + 1) ** 3, n
        for k in (2, 21, 1000, 10**10, 3**70):
            assert (_icbrt(k**3 - 1), _icbrt(k**3), _icbrt(k**3 + 1)) == (k - 1, k, k)


# products p * q of primes with cbrt(p * q) < p <= q; the first two lie
# below the divisor list's switch to factorisation, the rest above it
SEMIPRIMES = ((101, 103), (53, 2311), (1009, 1013), (1009, 1018057), (10007, 100003), (999983, 1000003))
# |p(1)| and p(-1) of the 10**12 reciprocal quartic of the certify benchmark
# at seed 7
CERTIFY_VALUES = (2092697344164, 10452339343535)


class TestFactor:
    def test_known_quartic(self):
        p = IntPoly((1, -1, -4, -1, 1))
        assert factor_bounded(p) == (
            (IntPoly((1, 1)), 2),
            (IntPoly((1, -3, 1)), 1),
        )

    def test_irreducible_quartic(self):
        assert factor_bounded(IntPoly((1, 1, 0, 0, 1))) == ((IntPoly((1, 1, 0, 0, 1)), 1),)

    def test_salem_sextic_irreducible(self):
        p = IntPoly((1, 0, -1, -1, -1, 0, 1))
        assert factor_bounded(p) == ((p, 1),)

    @given(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4),
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4),
    )
    @settings(max_examples=60)
    def test_factor_product_reassembles(self, ta, tb):
        p = IntPoly(tuple(ta) + (1,))
        q = IntPoly(tuple(tb) + (1,))
        prod = p * q
        acc = ONE
        for f, m in factor_bounded(prod):
            acc = acc * f**m
            assert factor_bounded(f) == ((f, 1),)
        assert acc == prod

    def test_gcd(self):
        # the last entry of the remainder sequence is +-gcd(a, b), and that of
        # a Sturm chain +-gcd(p, p')
        a = IntPoly((1, -3, 1)) * IntPoly((1, 1))
        b = IntPoly((1, 1)) * IntPoly((1, 0, 1))
        assert remainder_sequence(a, b)[-1] in ((1, 1), (-1, -1))
        assert SturmChain(a * b).chain[-1] in ((1, 1), (-1, -1))

    def test_squarefree(self):
        p = IntPoly((1, 1)) ** 2 * IntPoly((1, -3, 1))
        assert SturmChain(p).radical() == IntPoly((1, 1)) * IntPoly((1, -3, 1))
        assert SturmChain(IntPoly((1, -3, 1))).radical() == IntPoly((1, -3, 1))


def _unit_quartics(bound):
    """Every monic t^4 + c3 t^3 + c2 t^2 + c1 t + 1 with each |ci| <= bound."""
    for c1, c2, c3 in product(range(-bound, bound + 1), repeat=3):
        yield IntPoly((1, c1, c2, c3, 1))


def _fifteen_products(c):
    # the search that solving replaced: s = 1 and |j|, |k| <= 2 only
    for j in range(-2, 3):
        for k in range(j, 3):
            if IntPoly((1, j, 1)) * IntPoly((1, k, 1)) == c:
                return (j, k)
    return None


class TestQuadraticSplit:
    def test_every_split_reassembles(self):
        for c in _unit_quartics(6):
            split = _quadratic_split(c)
            if split is not None:
                a, b, s = split
                assert a <= b and s in (1, -1)
                assert IntPoly((s, a, 1)) * IntPoly((s, b, 1)) == c

    def test_matches_the_fifteen_products(self):
        for c in _unit_quartics(6):
            split = _quadratic_split(c)
            small = split is not None and split[2] == 1 and max(abs(split[0]), abs(split[1])) <= 2
            assert (split[:2] if small else None) == _fifteen_products(c), c

    def test_decides_reducibility_without_real_roots(self):
        seen = 0
        for c in _unit_quartics(6):
            if SturmChain(c).count_real():
                continue
            seen += 1
            assert (_quadratic_split(c) is None) == (factor_bounded(c) == ((c, 1),)), c
        assert seen == 378

    def test_s_one_first(self):
        # (t^2 - 1)^2 is also (t - 1)^2 (t + 1)^2 = (t^2 - 2t + 1)(t^2 + 2t + 1)
        assert _quadratic_split(IntPoly((1, 0, -2, 0, 1))) == (-2, 2, 1)
        assert _quadratic_split(IntPoly((1, 0, 2, 0, 1))) == (0, 0, 1)
        assert _quadratic_split(IntPoly((1, -3, 0, 3, 1))) == (1, 2, -1)

    def test_rejects_other_shapes(self):
        assert _quadratic_split(IntPoly((1, 0, 1))) is None
        assert _quadratic_split(IntPoly((-1, 0, 0, 0, 1))) is None
        assert _quadratic_split(IntPoly((1, 0, 0, 0, 2))) is None
        assert _quadratic_split(IntPoly((1, 1, 0, 0, 1))) is None


class TestCyclotomic:
    def test_supported_indices(self):
        # exactly the cyclotomics of degree <= 8, the package's degree cap
        assert set(CYCLOTOMIC_INDICES) == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 24, 30}

    def test_values(self):
        assert cyclotomic(1) == IntPoly((-1, 1))
        assert cyclotomic(2) == IntPoly((1, 1))
        assert cyclotomic(4) == IntPoly((1, 0, 1))
        assert cyclotomic(12) == IntPoly((1, 0, -1, 0, 1))
        assert cyclotomic(5) == IntPoly((1, 1, 1, 1, 1))
        assert cyclotomic(10) == IntPoly((1, -1, 1, -1, 1))

    def test_split(self):
        p = cyclotomic(1) ** 2 * cyclotomic(12) * IntPoly((1, -3, 1))
        parts, rest = split_cyclotomic(p)
        assert parts == ((1, 2), (12, 1))
        assert rest == IntPoly((1, -3, 1))
        assert split_cyclotomic(cyclotomic(5) * cyclotomic(8))[1] == ONE

    @pytest.mark.parametrize("n", [15, 16, 20, 24, 30])
    def test_split_of_degree_8(self, n):
        assert cyclotomic(n).degree == 8
        assert split_cyclotomic(cyclotomic(n)) == (((n, 1),), ONE)

    def test_split_degree_cap(self):
        with pytest.raises(DegreeTooLargeError, match="degree 9 > 8"):
            split_cyclotomic(cyclotomic(2) * cyclotomic(30))

    def test_split_of_pure_salem(self):
        parts, rest = split_cyclotomic(IntPoly((1, 0, -1, -1, -1, 0, 1)))
        assert parts == ()
        assert rest == IntPoly((1, 0, -1, -1, -1, 0, 1))


@given(small_poly, st.integers(min_value=-4, max_value=4))
def test_eval_matches_oracle(p, x):
    assert Fraction(p(x)) == o_eval(p.coeffs, Fraction(x))
