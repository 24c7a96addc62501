"""Salem certification, trace transform, and certified root isolation."""

import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ, ZZ
from sympy.polys.rootisolation import dup_isolate_real_roots_sqf
from sympy.polys.sqfreetools import dup_sqf_list

from salemtori import _kernels as kern
from salemtori import poly, salem, torus
from salemtori.errors import CertificationError, DegreeTooLargeError, NotReciprocalError, NotSquarefreeError
from salemtori.intervals import Interval
from salemtori.poly import IntPoly, cyclotomic, split_cyclotomic
from salemtori.salem import (
    NotSalem,
    RootBox,
    SalemCertificate,
    SturmChain,
    _continue_bracket,
    cauchy_bound,
    is_salem,
    isolate_all_roots,
    isolate_real_roots,
    lambda_approx,
    lambda_interval,
    refine_root_box,
    trace_transform,
)
from salemtori.torus import _norm_charpoly, a_form_matrix, entropy, is_projective, quad_order_model, reorient
from salemtori.wedge import exterior_square

from _oracles import MidpointRoot, o_bisect, o_eval

GOLDEN_QUARTIC = IntPoly((1, -2, -2, -2, 1))
GOLDEN_SEXTIC = IntPoly((1, 0, -1, -1, -1, 0, 1))


def _salem_rows(degree, bound):
    """The certificates of the Salem polynomials of the degree with
    reciprocal coefficients in [-bound, bound], as enumerate finds them."""
    certs = []
    for h in itertools.product(range(-bound, bound + 1), repeat=degree // 2):
        cert = salem._salem_certificate(IntPoly((1, *h, *h[-2::-1], 1)))
        if cert:
            certs.append(cert)
    return certs


def _random_salem():
    """Certificates of a fixed random set of Salem polynomials of degree
    2, 4, 6 and 8, ten per degree with coefficients below 2**8, 2**100 and
    2**1000 each."""
    rng = random.Random(2014)
    certs = []
    for e, size in itertools.product((1, 2, 3, 4), (8, 100, 1000)):
        found = []
        while len(found) < 10:
            h = [rng.randint(-(1 << size), 1 << size) for _ in range(e)]
            cert = salem._salem_certificate(IntPoly((1, *h, *h[-2::-1], 1)))
            if cert:
                found.append(cert)
        certs += found
    return certs


def _seed_spy(monkeypatch):
    """A list that gets (seed, interval) for each call of
    salem._continue_bracket from here on."""
    seeds = []
    continue_bracket = salem._continue_bracket

    def spy(p, bracket, width, seed=None):
        iv = continue_bracket(p, bracket, width, seed)
        seeds.append((seed, iv))
        return iv

    monkeypatch.setattr(salem, "_continue_bracket", spy)
    return seeds


def _unseeded_lambda(p, bits):
    return _continue_bracket(p, Interval(1, cauchy_bound(p)), Fraction(1, 1 << bits))


def _salem_polys(bound):
    """Every Salem quartic and sextic with reciprocal coefficients in [-bound, bound]."""
    rng = range(-bound, bound + 1)
    cands = [IntPoly((1, a, b, a, 1)) for a in rng for b in rng]
    cands += [IntPoly((1, a, b, c, b, a, 1)) for a in rng for b in rng for c in rng]
    return [p for p in cands if is_salem(p)]


class TestTraceTransform:
    def test_quartic(self):
        # t^4 - 2t^3 - 2t^2 - 2t + 1 -> u^2 - 2u - 4
        assert trace_transform(GOLDEN_QUARTIC) == IntPoly((-4, -2, 1))

    def test_deg2(self):
        assert trace_transform(IntPoly((1, -3, 1))) == IntPoly((-3, 1))

    def test_sextic(self):
        t = trace_transform(GOLDEN_SEXTIC)
        assert t.degree == 3
        # u^3 - 4u - 1: check by resubstitution at sample points
        assert t == IntPoly((-1, -4, 0, 1))

    def test_reciprocal_required(self):
        with pytest.raises(NotReciprocalError):
            trace_transform(IntPoly((2, -3, 1)))

    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=2))
    def test_functional_equation(self, mid):
        # q has constant and leading 1, so q * reversed(q) is monic reciprocal
        q = IntPoly((1,) + tuple(mid) + (1,))
        p = q * q.reciprocal()
        t = trace_transform(p)
        e = p.degree // 2
        for x in (Fraction(2), Fraction(3), Fraction(7, 2)):
            assert p(x) == x**e * t(x + 1 / x)


class TestIsSalem:
    def test_accepts_golden(self):
        for p in (IntPoly((1, -3, 1)), IntPoly((1, -4, 1)), GOLDEN_QUARTIC, GOLDEN_SEXTIC):
            cert = is_salem(p)
            assert cert
            assert cert.poly == p
            assert cert.circle_root_count == p.degree - 2

    def test_rejects_cyclotomic(self):
        res = is_salem(cyclotomic(12))
        assert not res
        assert res.reason == "wrong-circle-count"

    def test_rejects_reducible_with_witness(self):
        p = IntPoly((1, -3, 1)) * IntPoly((1, 1)) ** 2
        res = is_salem(p)
        assert not res
        assert res.reason == "reducible"
        assert res.witness in (IntPoly((1, 1)), IntPoly((1, -3, 1)))

    def test_rejects_nonreciprocal(self):
        res = is_salem(IntPoly((2, -3, 1)))
        assert res.reason == "not-reciprocal"

    def test_rejects_odd_degree(self):
        res = is_salem(IntPoly((1, -3, -3, 1)))
        assert not res

    def test_rejects_nonmonic(self):
        assert is_salem(IntPoly((1, -3, 2))).reason == "not-monic"

    def test_no_certificate_for_a_truncated_input(self):
        # -3.9 was once truncated to -3, certifying t^2 - 3t + 1 instead
        with pytest.raises(TypeError):
            is_salem(IntPoly.from_descending((1, -3.9, 1)))

    def test_degree_cap(self):
        with pytest.raises(DegreeTooLargeError):
            is_salem(IntPoly((1,) + (0,) * 9 + (1,)))

    def test_rejects_pisot_like(self):
        # t^2 - 3t + 1 is Salem; t^2 + 3t + 1 has its large root negative
        assert not is_salem(IntPoly((1, 3, 1)))

    def test_quadratic_window(self):
        # |a| <= 2 never Salem, a <= -3 always
        for a in (-2, -1, 0, 1, 2):
            assert not is_salem(IntPoly((1, a, 1)))
        for a in (-3, -4, -7):
            assert is_salem(IntPoly((1, a, 1)))


def _factor_first(p):
    """is_salem's verdict for monic reciprocal p of even degree >= 2, in the
    order that always factors: factor_bounded, then the Sturm layout."""
    factors = poly.factor_bounded(p)
    if factors != ((p, 1),):
        g = factors[0][0]
        return NotSalem("reducible", witness=g, detail=f"factor {g}")
    t_poly = trace_transform(p)
    layout = salem._sturm_layout(t_poly)
    if layout != (1, 0, p.degree // 2 - 1):
        n_hi, n_lo, n_mid = layout
        return NotSalem(
            "wrong-circle-count",
            witness=layout,
            detail=f"trace roots: {n_hi} above 2, {n_lo} below -2, {n_mid} between",
        )
    return SalemCertificate(p, p.degree, t_poly, lambda_interval(p), p.degree - 2)


SALEM_2 = IntPoly((1, -3, 1))
# the Salem polynomials the README shows
README_SALEM = (SALEM_2, IntPoly((1, -4, 1)), GOLDEN_QUARTIC, GOLDEN_SEXTIC)
SMALL_SALEM = README_SALEM + (IntPoly((1, -1, -1, -1, 1)),)


def _hostile_quartic(a):
    """t^4 - a t^3 + 12345 t^2 - a t + 1, Salem for a >= 10**5."""
    return IntPoly((1, -a, 12345, -a, 1))


def _with_cyclotomic(n, p):
    """p times Phi_n, squared for n = 1, 2 so that the product stays reciprocal
    of even degree."""
    return p * cyclotomic(n) ** (2 if n <= 2 else 1)


# every n with phi(n) <= 6: Phi_n times a Salem factor can stay within
# degree 8
_PHI_6_INDICES = tuple(n for n in poly.CYCLOTOMIC_INDICES if cyclotomic(n).degree <= 6)


def _each_cyclotomic_factor(test):
    """An @example Phi_n (t^2 - 3t + 1) of degree <= 8 for every n in
    CYCLOTOMIC_INDICES with phi(n) <= 6, with Phi_1 and Phi_2 squared:
    (t - 1)^2 and (t + 1)^2 vanish at 1 and -1, which the signs rule out.
    Each other product keeps the Salem layout, so only the division by
    Phi_n tells it from a Salem polynomial."""
    for n in _PHI_6_INDICES:
        test = example(_with_cyclotomic(n, SALEM_2))(test)
    return test


@st.composite
def _reciprocal_polys(draw):
    e = draw(st.integers(min_value=1, max_value=4))
    half = draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=e, max_size=e))
    c = (1,) + tuple(half[:-1])
    return IntPoly(c + (half[-1],) + tuple(reversed(c)))


@st.composite
def _cyclotomic_products(draw):
    n = draw(st.sampled_from(_PHI_6_INDICES))
    return draw(st.sampled_from([q for s in SMALL_SALEM if (q := _with_cyclotomic(n, s)).degree <= 8]))


class TestKronecker:
    """is_salem certifies the Salem layout by Kronecker's rule, never by
    factoring, and reports what factoring first would report."""

    def test_salem_path_never_factors(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"factoring {args}")

        polys = _salem_polys(3) + list(README_SALEM)
        monkeypatch.setattr(salem, "factor_bounded", refuse)
        monkeypatch.setattr(poly, "divisors", refuse)
        for p in polys:
            assert is_salem(p)
        # trial division of p(1) near 2 * 10**30 would take 10**15 steps
        for a in (10**12, 10**16, 10**30):
            p = _hostile_quartic(a)
            cert = is_salem(p)
            assert cert and cert.trace_poly == IntPoly((12343, -a, 1))
            # lambda = a - 12344 / a + O(a**-2), from T(u) = u^2 - a u + 12343
            iv = cert.root_interval
            assert p(iv.lo) < 0 < p(iv.hi) and a - 1 < iv.lo < a and iv.width <= Fraction(1, 1 << 48)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_reciprocal_polys(), _cyclotomic_products()))
    @_each_cyclotomic_factor
    def test_same_output_as_factor_first(self, p):
        assert is_salem(p) == _factor_first(p)

    def test_irreducible_table_hit_raises(self, monkeypatch):
        # a factoriser that wrongly calls (t - 1)^2 (t^2 - 3t + 1) irreducible
        # contradicts its Salem layout, which must not be taken on trust;
        # p(1) = 0 sends it to factoring before the table
        p = IntPoly((-1, 1)) ** 2 * SALEM_2
        monkeypatch.setattr(salem, "factor_bounded", lambda q: ((q, 1),))
        with pytest.raises(CertificationError, match="cyclotomic factor"):
            is_salem(p)

    def test_irreducible_table_hit_with_salem_signs_raises(self, monkeypatch):
        # Phi_3 (t^2 - 3t + 1) has p(1) < 0 < p(-1), and Phi_3 divides p
        monkeypatch.setattr(salem, "factor_bounded", lambda q: ((q, 1),))
        with pytest.raises(CertificationError, match="cyclotomic factor"):
            is_salem(cyclotomic(3) * SALEM_2)

    def test_a_trace_that_vanishes_at_the_sieve_point_is_still_divided(self):
        # (t^2 - 10t + 1) Phi_n, whose trace polynomial vanishes at 10, has
        # the Salem layout for n != 2 and the value Phi_n(10) at the sieve
        # point 10, so Phi_n passes the value test and is divided into p:
        # each must be reported reducible
        base = IntPoly((1, -10, 1))
        p = base * cyclotomic(3)
        assert kern.eval_int(trace_transform(p).coeffs, 10) == 0
        assert p(poly._SIEVE_AT) == cyclotomic(3)(poly._SIEVE_AT)
        assert salem._salem_certificate(p) is None
        assert is_salem(p).reason == "reducible"
        for n in _PHI_6_INDICES:
            q = _with_cyclotomic(n, base)
            assert kern.eval_int(trace_transform(q).coeffs, 10) == 0
            assert salem._salem_certificate(q) is None
            assert is_salem(q) == _factor_first(q)

    @pytest.mark.parametrize("degree, bound", [(4, 6), (6, 4), (8, 2)])
    def test_every_small_reciprocal_polynomial_as_factor_first(self, degree, bound):
        # the value sieve only skips divisions that cannot succeed
        half = itertools.product(range(-bound, bound + 1), repeat=degree // 2)
        for h in half:
            p = IntPoly((1, *h, *h[-2::-1], 1))
            assert is_salem(p) == _factor_first(p)

    def test_signs_skip_the_layout(self, monkeypatch):
        # p(1) >= 0 or p(-1) <= 0 rules the Salem layout out: a reducible p
        # is reported without its layout, and an irreducible one computes it
        # once, for its witness.  Where p(1) < 0 < p(-1), the decision reads
        # the Salem layout of a trace cubic in closed form, so the witness
        # of a rejected sextic is its one _sturm_layout call
        calls = []
        layout = salem._sturm_layout
        monkeypatch.setattr(salem, "_sturm_layout", lambda t: calls.append(t) or layout(t))
        assert is_salem(cyclotomic(3) * cyclotomic(4)).reason == "reducible"
        assert is_salem(_with_cyclotomic(2, SALEM_2)).reason == "reducible"
        assert calls == []
        assert is_salem(cyclotomic(5)).witness == (0, 0, 2)
        assert calls == [trace_transform(cyclotomic(5))]
        calls.clear()
        p = IntPoly((1, -1, 0, -4, 0, -1, 1))
        assert is_salem(p).witness == (1, 0, 0)
        assert calls == [trace_transform(p)]


def _cubic_trace_sextic(a, b, c):
    """The monic reciprocal sextic whose trace polynomial is
    u**3 + a u**2 + b u + c."""
    return IntPoly((1, a, b + 3, c + 2 * a, b + 3, a, 1))


def _sturm_salem_layout(p):
    """Whether _salem_trace(p) is not None, by its definition: the signs,
    then the Sturm chain of its trace polynomial."""
    return p(1) < 0 < p(-1) and salem._sturm_layout(trace_transform(p)) == (1, 0, p.degree // 2 - 1)


def _sympy_layout(t_poly):
    """_sturm_layout(t_poly) from sympy's squarefree decomposition and
    real-root isolation over ZZ: the distinct roots in (2, inf), (-inf, -2]
    and (-2, 2].  A factor with an isolating interval that meets -2 or 2 is
    isolated again in [2, inf) and (-inf, -2], ends included."""
    n_hi = n_lo = n_mid = 0
    _, factors = dup_sqf_list([ZZ(c) for c in reversed(t_poly.coeffs)], ZZ)
    for g, _ in factors:
        ivs = dup_isolate_real_roots_sqf(g, ZZ)
        if any(a <= x <= b for a, b in ivs for x in (-2, 2)):
            at_2 = IntPoly(map(int, reversed(g)))(2) == 0
            hi = len(dup_isolate_real_roots_sqf(g, ZZ, inf=QQ(2))) - at_2
            lo = len(dup_isolate_real_roots_sqf(g, ZZ, sup=QQ(-2)))
        else:
            hi = sum(a > 2 for a, _ in ivs)
            lo = sum(b < -2 for _, b in ivs)
        n_hi, n_lo, n_mid = n_hi + hi, n_lo + lo, n_mid + len(ivs) - hi - lo
    return n_hi, n_lo, n_mid


class TestSalemLayout:
    """_salem_trace against _sturm_layout's Sturm chain."""

    def test_every_trace_cubic_in_a_box(self):
        # each strict inequality of the closed form, disc T > 0,
        # T'(-2) > 0, a < 6, T'(2) < 0 and a > -6, meets its equality on
        # some cubic that passes the signs; T(2) < 0 and T(-2) < 0 put c
        # below -8 - 4a - 2b and 8 - 4a + 2b, so the box reaches further
        # down in c
        boundary = {"disc": 0, "T'(-2)": 0, "T'(2)": 0, "a = 6": 0, "a = -6": 0}
        salem_layouts = 0
        for a, b, c in itertools.product(range(-6, 7), range(-10, 11), range(-26, 5)):
            p = _cubic_trace_sextic(a, b, c)
            assert trace_transform(p) == IntPoly((c, b, a, 1))
            want = _sturm_salem_layout(p)
            assert (salem._salem_trace(p) is not None) == want, (a, b, c)
            if not p(1) < 0 < p(-1):
                continue
            salem_layouts += want
            boundary["disc"] += a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c == 0
            boundary["T'(-2)"] += 12 - 4 * a + b == 0
            boundary["T'(2)"] += 12 + 4 * a + b == 0
            boundary["a = 6"] += a == 6
            boundary["a = -6"] += a == -6
        assert salem_layouts and all(boundary.values()), boundary

    @pytest.mark.parametrize("degree, bound", [(2, 30), (4, 12), (8, 2), (10, 1), (12, 1)])
    def test_signs_and_the_quartic_chain(self, degree, bound):
        # up to e = 2 the signs decide alone; e >= 4 keeps the chain, also
        # beyond is_salem's degree cap
        for h in itertools.product(range(-bound, bound + 1), repeat=degree // 2):
            p = IntPoly((1, *h, *h[-2::-1], 1))
            t_poly = salem._salem_trace(p)
            assert (t_poly is not None) == _sturm_salem_layout(p), p
            assert t_poly is None or t_poly == trace_transform(p)

    def test_sturm_layout_against_sympy(self):
        # every reciprocal p in the boxes, and products with (t - 1)**2k and
        # (t + 1)**2k, whose trace polynomials vanish k times at 2 and -2: a
        # root at 2 counts between, one at -2 below, also where every entry
        # of the chain vanishes, at a repeated root
        polys = [
            IntPoly((1, *h, *h[-2::-1], 1))
            for degree, bound in ((4, 3), (6, 3), (8, 2), (10, 1), (12, 1))
            for h in itertools.product(range(-bound, bound + 1), repeat=degree // 2)
        ]
        at_ends = (
            IntPoly((-1, 1)) ** 2 * SALEM_2,
            IntPoly((1, 1)) ** 2 * SALEM_2,
            IntPoly((-1, 0, 1)) ** 2,
            IntPoly((-1, 1)) ** 4 * cyclotomic(3),
            IntPoly((1, 1)) ** 4 * cyclotomic(6),
        )
        layouts = [(1, 0, 1), (1, 1, 0), (0, 1, 1), (0, 0, 2), (0, 1, 1)]
        assert [salem._sturm_layout(trace_transform(p)) for p in at_ends] == layouts
        ends = set()
        for p in polys + list(at_ends):
            t_poly = trace_transform(p)
            ends.update(x for x in (-2, 2) if t_poly(x) == 0)
            assert salem._sturm_layout(t_poly) == _sympy_layout(t_poly), p
        assert ends == {-2, 2}


@st.composite
def _one_root_brackets(draw):
    """A monic (t - a)**2 - s times quadratics with no real root, and a
    bracket of one root a + sqrt(s) or, mirrored, a - sqrt(s) whose ends
    have denominators 3, 5 or 7: (coeffs, lo, hi).  A square s gives an
    integer root."""
    s = draw(st.integers(min_value=2, max_value=400))
    a = draw(st.integers(min_value=-3, max_value=3))
    p = IntPoly((a * a - s, -2 * a, 1))
    for b, c in draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 40)), max_size=2)):
        p = p * IntPoly((c + b * b // 4, b, 1))
    d_lo, d_hi = draw(st.sampled_from((3, 5, 7))), draw(st.sampled_from((3, 5, 7)))
    # the ends lie strictly below and above a + sqrt(s), and above a - sqrt(s)
    lo = Fraction(a * d_lo + math.isqrt(s * d_lo * d_lo - 1) - draw(st.integers(0, 5)), d_lo)
    hi = Fraction(a * d_hi + math.isqrt(s * d_hi * d_hi) + 1 + draw(st.integers(0, 5)), d_hi)
    if draw(st.booleans()):
        return p.coeffs, lo, hi
    return tuple(c * (-1) ** i for i, c in enumerate(p.coeffs)), -hi, -lo


class TestLambda:
    def test_golden_quartic_value(self):
        # oracle bisection on (1, 4): frozen 2.890053638264 to 12 places
        cert = is_salem(GOLDEN_QUARTIC)
        iv = lambda_approx(cert, Fraction(1, 10**14))
        olo, ohi = o_bisect(GOLDEN_QUARTIC.coeffs, 1, 4, Fraction(1, 10**14))
        assert iv.lo <= ohi and olo <= iv.hi
        dec = Fraction("2.890053638264")
        half_ulp = Fraction(1, 2 * 10**12)
        assert iv.lo - half_ulp <= dec <= iv.hi + half_ulp

    def test_sextic_value(self):
        cert = is_salem(GOLDEN_SEXTIC)
        iv = lambda_approx(cert, Fraction(1, 10**13))
        assert Fraction("1.40126836793") <= iv.lo <= iv.hi <= Fraction("1.40126836794")

    def test_approx_tightens(self):
        cert = is_salem(IntPoly((1, -3, 1)))
        iv = lambda_approx(cert, Fraction(1, 10**12))
        assert iv.width <= Fraction(1, 10**12)
        # (3 + sqrt 5)/2: check against the defining quadratic exactly
        assert (iv.lo**2 - 3 * iv.lo + 1) * (iv.hi**2 - 3 * iv.hi + 1) < 0

    def test_interval_brackets_root(self):
        iv = lambda_interval(GOLDEN_SEXTIC)
        assert o_eval(GOLDEN_SEXTIC.coeffs, iv.lo) * o_eval(GOLDEN_SEXTIC.coeffs, iv.hi) < 0

    @pytest.mark.parametrize("bits", (48, 100))
    def test_matches_oracle_bisection(self, bits):
        # the same midpoints and the same stop test as plain Fraction
        # bisection from (1, B], so the endpoints agree exactly
        polys = _salem_polys(3)
        assert len(polys) > 30
        for p in polys:
            want = o_bisect(p.coeffs, 1, cauchy_bound(p), Fraction(1, 1 << bits))
            iv = lambda_interval(p, bits)
            assert (iv.lo, iv.hi) == want, p

    def test_approx_rejects_eps_zero(self):
        # eps = 0 is refused before anything divides by it
        with pytest.raises(ValueError):
            lambda_approx(is_salem(IntPoly((1, -3, 1))), 0)

    def test_approx_continues_the_bracket(self):
        for p in _salem_polys(2):
            iv = lambda_approx(is_salem(p), Fraction(1, 10**30))
            # 10**-30 asks for 2**-101
            assert iv == lambda_interval(p, 101)

    def test_entropy_continues_a_fresh_bracket(self, monkeypatch):
        # the first log enclosure is made too wide, so entropy doubles its
        # bits and brackets lambda afresh at the new precision
        seen = []
        real_log = torus.log_interval

        def spy(iv, bits):
            seen.append((iv, bits))
            return Interval(0, 1) if len(seen) == 1 else real_log(iv, bits=bits)

        monkeypatch.setattr(torus, "log_interval", spy)
        checked = 0
        for params in ((1, 1, 1), (2, 0, 1), (1, 2, 3), (3, 3, 2), (5, 1, 2)):
            model = quad_order_model(a_form_matrix(*params))
            seen.clear()
            entropy(model)
            for iv, bits in seen:
                assert iv == lambda_interval(model.salem_factor(), bits - 16)
            checked += len(seen) == 2
        assert checked >= 3

    @settings(max_examples=150, deadline=None)
    @given(
        _one_root_brackets(),
        st.builds(Fraction, st.integers(1, 1000), st.integers(1, 10**15)),
        st.integers(min_value=1, max_value=1 << 30),
    )
    # the root 3 is the midpoint of (1, 5], the second one bisection tests
    @example(((-9, 0, 1), Fraction(1), Fraction(9)), Fraction(1, 1 << 20), 1)
    # the root 2 of t^2 - 4 is 3 * (2/3), on no dyadic grid of (0, 3]
    @example(((-4, 0, 1), Fraction(0), Fraction(3)), Fraction(1, 1 << 20), 1)
    def test_continue_bracket_matches_plain_bisection(self, case, width, finer):
        # refinement ends in the cell where plain bisection ends, and a
        # continued bracket where bisection to the finer width ends; it
        # raises iff bisection meets the root at a midpoint
        coeffs, lo, hi = case
        p = IntPoly(coeffs)
        finest = width / finer
        try:
            want = o_bisect(coeffs, lo, hi, width), o_bisect(coeffs, lo, hi, finest)
        except MidpointRoot:
            with pytest.raises(CertificationError, match="rational root") as info:
                _continue_bracket(p, _continue_bracket(p, Interval(lo, hi), width), finest)
            root = Fraction(str(info.value).split()[2])
            assert lo < root < hi and o_eval(coeffs, root) == 0
            return
        iv = _continue_bracket(p, Interval(lo, hi), width)
        assert (iv.lo, iv.hi) == want[0]
        iv = _continue_bracket(p, iv, finest)
        assert (iv.lo, iv.hi) == want[1]

    def test_sign_test_budget(self, monkeypatch):
        # bisection to 2**-48 makes about 52 sign tests per lambda and
        # unseeded refinement about 17; a seeded one makes 4, at 1, at the
        # Cauchy bound and at the ends of the seed's cell
        certs = _salem_rows(2, 12) + _salem_rows(8, 1)
        certs += [salem._salem_certificate(p) for p in _salem_polys(3)]
        calls = []
        eval_qq = kern.eval_qq

        def counting(*args):
            calls.append(args)
            return eval_qq(*args)

        monkeypatch.setattr(kern, "eval_qq", counting)
        for cert in certs:
            calls.clear()
            salem._lambda_bracket(cert.poly, 48, cert.trace_poly)
            assert len(calls) <= 4, cert.poly

    @pytest.mark.parametrize(
        "coeffs",
        [
            # Lehmer's polynomial, lambda = 1.17628...
            (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1),
            # lambda = 1.24072...
            (1, -1, 1, -1, 0, 0, -1, 0, 0, -1, 1, -1, 1),
        ],
        ids=("degree-10", "degree-12"),
    )
    def test_salem_beyond_the_degree_cap(self, coeffs):
        # lambda_interval has no degree cap; the trace polynomial of degree
        # 5 or 6 keeps the Sturm layout and seeds the same cell
        p = IntPoly(coeffs)
        want = _unseeded_lambda(p, 48)
        assert lambda_interval(p) == want
        assert (want.lo, want.hi) == o_bisect(p.coeffs, 1, cauchy_bound(p), Fraction(1, 1 << 48))
        t_poly = salem._salem_trace(p)
        assert t_poly == trace_transform(p)
        assert salem._lambda_bracket(p, 48, t_poly) == want
        m = 48 + (cauchy_bound(p) - 2).bit_length() + 16
        assert want.lo < salem._trace_seed(t_poly, m) < want.hi

    @pytest.mark.parametrize("degree, bound", [(4, 6), (6, 6), (8, 2)])
    def test_seeded_rows_match_bisection(self, degree, bound, monkeypatch):
        # every row enumerate prints: the certificate's interval is where
        # plain bisection and the unseeded refinement end, and it holds the
        # seed that placed the first window
        seeds = _seed_spy(monkeypatch)
        certs = _salem_rows(degree, bound)
        assert len(certs) == len(seeds) > 40
        monkeypatch.undo()
        for cert, (seed, iv) in zip(certs, seeds):
            p = cert.poly
            assert cert.root_interval == iv == _unseeded_lambda(p, 48) == lambda_interval(p)
            assert (iv.lo, iv.hi) == o_bisect(p.coeffs, 1, cauchy_bound(p), Fraction(1, 1 << 48))
            assert iv.lo < seed < iv.hi, p

    @pytest.mark.parametrize("bits", (48, 100, 200))
    def test_seeded_random_salem_match_unseeded(self, bits, monkeypatch):
        # coefficients of up to 1000 bits, whose lambda is up to 2**1000
        certs = _random_salem()
        seeds = _seed_spy(monkeypatch)
        for cert in certs:
            p = cert.poly
            seeds.clear()
            iv = salem._lambda_bracket(p, bits, cert.trace_poly)
            [(seed, _)] = seeds
            assert iv == _unseeded_lambda(p, bits) == lambda_interval(p, bits), p
            assert iv.lo < seed < iv.hi, p

    def test_a_wrong_seed_moves_no_interval(self):
        # the first and last cells, the cells on either side of lambda's,
        # and a point between two cells all end where no seed ends
        width = Fraction(1, 1 << 48)
        for p in _salem_polys(2) + [GOLDEN_SEXTIC, SALEM_2]:
            bracket = Interval(1, cauchy_bound(p))
            want = _continue_bracket(p, bracket, width)
            cell = want.width
            for seed in (1 + cell / 2, bracket.hi - cell / 2, want.lo - cell / 2, want.hi + cell / 2, want.hi):
                assert _continue_bracket(p, bracket, width, seed) == want, (p, seed)

    def test_a_seed_outside_the_bracket_is_ignored(self, monkeypatch):
        # a seed at an end of the bracket or beyond it places no window:
        # the same sign tests as no seed
        p = GOLDEN_SEXTIC
        bracket, width = Interval(1, cauchy_bound(p)), Fraction(1, 1 << 48)
        calls = []
        eval_qq = kern.eval_qq
        monkeypatch.setattr(kern, "eval_qq", lambda *args: calls.append(args) or eval_qq(*args))
        want = _continue_bracket(p, bracket, width)
        unseeded, calls[:] = calls[:], []
        for seed in (Fraction(1), bracket.hi, Fraction(0), bracket.hi + 1, Fraction(-5, 2)):
            assert _continue_bracket(p, bracket, width, seed) == want
            assert calls == unseeded, seed
            calls.clear()

    @pytest.mark.parametrize(
        "coeffs, m",
        [
            # u**2 + 1: the bound's radicand is negative
            ((1, 0, 1), 16),
            # u**3 - 3u + 16: the first step lands on 0, where T' < 0
            ((16, -3, 0, 1), 16),
            # u**3 - 3u + 3 over 2**4: the first step lands on 1, where T' = 0
            ((3, -3, 0, 1), 4),
            # u - 1 and u: the walk ends below 2
            ((-1, 1), 16),
            ((0, 1), 16),
            # (u - 3)**3 (u + 5): Newton falls to a triple root by 2/3 a step
            ((-135, 108, -18, -4, 1), 64),
        ],
    )
    def test_a_seed_without_the_layout_is_dropped(self, coeffs, m):
        assert salem._trace_seed(IntPoly(coeffs), m) is None

    def test_seed_at_the_ends_of_the_layout(self):
        # u = 2 gives lambda = 1 exactly, and u - 3 gives (3 + sqrt 5) / 2
        # within 2**-16
        assert salem._trace_seed(IntPoly((-2, 1)), 16) == 1
        seed = salem._trace_seed(IntPoly((-3, 1)), 16)
        assert abs(seed * seed - 3 * seed + 1) < Fraction(1, 1 << 15)

    def test_midpoint_root_raises(self):
        # t^2 - 4 changes sign on (1, 5], and the second midpoint is its root 2
        with pytest.raises(CertificationError, match="rational root 2"):
            lambda_interval(IntPoly((-4, 0, 1)))

    def test_non_bracketing_raises(self):
        with pytest.raises(CertificationError, match="does not bracket"):
            lambda_interval(IntPoly((3, 0, 1)))

    @pytest.mark.parametrize("lo, hi", [(2, 3), (1, 2)])
    def test_root_at_an_end_raises(self, lo, hi):
        # t^2 - 4 vanishes at 2, an end of the bracket
        with pytest.raises(CertificationError, match="does not bracket"):
            _continue_bracket(IntPoly((-4, 0, 1)), Interval(lo, hi), Fraction(1, 8))


class TestRealRoots:
    def test_count_window(self):
        # V(a) - V(b) is the number of distinct roots in (a, b]
        chain = SturmChain(IntPoly((1, -3, 1)))
        assert chain.variations_at(0) - chain.variations_at(1) == 1
        assert chain.variations_at(1) - chain.variations_at(3) == 1
        assert chain.variations_at(3) - chain.variations_at(100) == 0

    def test_isolate_real(self):
        roots = isolate_real_roots(IntPoly((1, -3, 1)))
        assert len(roots) == 2
        for iv in roots:
            assert o_eval((1, -3, 1), iv.lo) * o_eval((1, -3, 1), iv.hi) <= 0

    def test_sturm_total(self):
        assert SturmChain(IntPoly((1, -3, 1))).count_real() == 2
        assert SturmChain(IntPoly((1, 0, 1))).count_real() == 0

    def test_variations_at_numerator_pairs(self):
        chain = SturmChain(IntPoly((1, -3, 1)))
        for num, den in ((-3, 1), (1, 2), (5, 4), (11, 4), (7, 1)):
            assert chain.variations_at(num, den) == chain.variations_at(2 * num, 2 * den)
        assert chain.variations_at(1, 4) - chain.variations_at(11, 4) == 2

    @pytest.mark.parametrize(
        "p, roots",
        [
            (IntPoly((0, 1)), [0]),
            (IntPoly((-4, 0, 1)) * IntPoly((1, -3, 1)), [-2, 2]),
            # repeated roots 0 and 3, where every entry of p's own chain vanishes
            (IntPoly((0, 0, -1, 0, 1)), [-1, 0, 1]),
            (IntPoly((-3, 1)) ** 2 * IntPoly((2, 1)) * IntPoly((-2, 0, 1)), [-2, 3]),
            # an irrational root 5e-4 above the triple root 1003
            (IntPoly((-1003, 1)) ** 3 * IntPoly((-999992, -6, 1)) * IntPoly((2, 1)), [-2, 1003]),
            # an irrational root 5e-7 above the double root 0
            (IntPoly((0, 0, 1)) * IntPoly((1, -2 * 10**6, 1)), [0]),
        ],
    )
    def test_integer_roots_are_point_intervals(self, p, roots):
        ivs = isolate_real_roots(p)
        assert [iv.lo for iv in ivs if iv.width == 0] == roots
        assert len(ivs) == SturmChain(p).count_real()
        # the brackets are halved by sign tests of the radical without its
        # integer roots, which has opposite nonzero signs at their two ends
        rest = SturmChain(p).radical()
        for r in roots:
            rest //= IntPoly((-r, 1))
        for iv in ivs:
            if iv.width:
                assert rest(iv.lo) * rest(iv.hi) < 0

    def test_separation_retry(self, monkeypatch):
        # t^3 + 2^30 t^2 - t has the roots 0, about 2^-30 and about -2^30;
        # at 2**-28 the bracket of the root near 2^-30 still holds 0, so
        # every bracket is halved further until they separate
        p = IntPoly((0, -1, 1 << 30, 1))
        widths = []
        continue_bracket = salem._continue_bracket

        def spy(q, iv, width):
            widths.append(width)
            return continue_bracket(q, iv, width)

        monkeypatch.setattr(salem, "_continue_bracket", spy)
        ivs = isolate_real_roots(p)
        assert min(widths) < Fraction(1, 1 << 28)
        assert [iv for iv in ivs if iv.width == 0] == [Interval.point(0)]
        assert all(x.hi < y.lo for x, y in zip(ivs, ivs[1:]))
        assert all(iv.width <= Fraction(1, 1 << 28) for iv in ivs)
        irrational = sorted(x for x, _ in _oracle_roots(p, dps=80) if abs(x) > Fraction(1, 10**40))
        assert len(irrational) == 2
        for iv, x in zip([iv for iv in ivs if iv.width], irrational):
            assert iv.lo < x < iv.hi

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=-40, max_value=40), max_size=4),
        st.integers(min_value=-30, max_value=30),
        st.integers(min_value=-30, max_value=30),
    )
    def test_products_of_linear_factors_and_a_quadratic(self, roots, b, c):
        # repeated linear factors are allowed; the quadratic adds two
        # integer, two irrational or two complex roots
        quad = IntPoly((c, b, 1))
        p = quad
        for r in roots:
            p = p * IntPoly((-r, 1))
        disc = b * b - 4 * c
        integers = set(roots)
        irrational = []
        if disc >= 0 and math.isqrt(disc) ** 2 == disc:
            integers |= {(-b + math.isqrt(disc)) // 2, (-b - math.isqrt(disc)) // 2}
        elif disc > 0:
            irrational = [x for x, _ in _oracle_roots(quad)]
        ivs = isolate_real_roots(p)
        assert [iv.lo for iv in ivs if iv.width == 0] == sorted(integers)
        others = [iv for iv in ivs if iv.width > 0]
        assert len(others) == len(irrational)
        for iv in others:
            assert sum(iv.lo < x < iv.hi for x in irrational) == 1
            assert not any(iv.lo <= r <= iv.hi for r in integers)


def _check_refinable(p):
    boxes = isolate_all_roots(p)
    for target in (Fraction(1, 1 << 60), Fraction(1, 1 << 300)):
        refined = [refine_root_box(p, b, target) for b in boxes]
        for b, rb in zip(boxes, refined):
            assert rb.re.width <= target and rb.im.width <= target
            assert b.re.lo <= rb.re.lo <= rb.re.hi <= b.re.hi
            assert b.im.lo <= rb.im.lo <= rb.im.hi <= b.im.hi
        # a refined lower box is exactly the mirror of its refined upper one
        for i, rb in enumerate(refined):
            if rb.im.hi < 0:
                up = refined[rb.conjugate_index]
                assert up.conjugate_index == i and (rb.re, rb.im) == (up.re, -up.im)


class TestIsolateAll:
    def test_no_real_quartic(self):
        p = IntPoly((1, 1, 0, 0, 1))
        boxes = isolate_all_roots(p)
        assert len(boxes) == 4
        assert all(not b.is_real for b in boxes)
        # conjugate wiring: pairs (0,1) and (2,3), uppers first in each pair
        assert boxes[0].conjugate_index == 1 and boxes[1].conjugate_index == 0
        assert boxes[2].conjugate_index == 3 and boxes[3].conjugate_index == 2
        assert boxes[0].im.lo > 0 and boxes[2].im.lo > 0
        for up, down in ((boxes[0], boxes[1]), (boxes[2], boxes[3])):
            assert up.re == down.re
            assert up.im.lo == -down.im.hi and up.im.hi == -down.im.lo

    def test_mixed(self):
        # (t^2 - 3t + 1)(t^2 + 1): two reals then one conjugate pair
        p = IntPoly((1, -3, 1)) * IntPoly((1, 0, 1))
        boxes = isolate_all_roots(p)
        assert len(boxes) == 4
        assert boxes[0].is_real and boxes[1].is_real
        assert boxes[0].re.hi <= boxes[1].re.lo
        assert not boxes[2].is_real

    def test_degree_cap(self):
        # the Salem octic t^8 - t^5 - t^4 - t^3 + 1 sits at the cap: two
        # real roots and three conjugate pairs
        octic = IntPoly.from_descending((1, 0, 0, -1, -1, -1, 0, 0, 1))
        boxes = isolate_all_roots(octic)
        assert len(boxes) == 8 and sum(b.is_real for b in boxes) == 2
        with pytest.raises(DegreeTooLargeError):
            isolate_all_roots(octic * IntPoly((-2, 1)))

    def test_squarefree_gate(self):
        with pytest.raises(NotSquarefreeError):
            isolate_all_roots(IntPoly((1, 2, 1)))

    def test_refine_rejects_rational_midpoint_root(self):
        # the first midpoint of (0, 2] is the root of t - 1
        with pytest.raises(CertificationError):
            refine_root_box(IntPoly((-1, 1)), RootBox(Interval(0, 2), Interval.point(0)), Fraction(1, 8))

    @pytest.mark.parametrize("width", (0, Fraction(-1, 8)), ids=str)
    @pytest.mark.parametrize("p", (IntPoly((1, -3, 1)), IntPoly((1, 1, 0, 0, 1))), ids=("real", "non-real"))
    def test_refine_rejects_a_width_that_is_not_positive(self, p, width):
        # 0 once divided by zero; -1/8 returned a real box 2**-29 wide, as
        # if refined, and raised "could not refine box" on a non-real one
        rb = isolate_all_roots(p)[-1]
        assert rb.is_real == (p.degree == 2)
        with pytest.raises(ValueError, match="width must be positive"):
            refine_root_box(p, rb, width)

    def test_refine_returns_a_box_already_at_the_width(self):
        # a box no wider than asked for is returned as it is, also when a
        # side is exactly as wide, which < in place of <= would refine again
        for p in (GOLDEN_QUARTIC, IntPoly((1, 1, 0, 0, 1))):
            for rb in isolate_all_roots(p):
                assert refine_root_box(p, rb, max(rb.re.width, rb.im.width)) == rb

    def test_disjoint_and_refinable(self):
        # the Salem quartic's circle pair is refined by Newton's method from
        # the box centre
        _check_refinable(GOLDEN_QUARTIC)

    def test_refinable_off_the_circle(self):
        # the pairs of t^4 - 2t^3 + 4t^2 - 2t + 1 are refined by Newton's
        # method from the box centre: 2**-300 is below the width they start at
        _check_refinable(IntPoly((1, -2, 4, -2, 1)))

    def test_newton_starts_at_the_centre_precision(self):
        # roots 2**1100 +- i, beyond the float range: Aberth's iteration from
        # the box centre alone, which is Newton's method, takes it as it is
        big = 1 << 1100
        p = IntPoly((big * big + 1, -2 * big, 1))
        half = Fraction(1, 1 << 20)
        rb = RootBox(Interval(big - half, big + half), Interval(1 - half, 1 + half), 1)
        out = refine_root_box(p, rb, Fraction(1, 1 << 60))
        assert out.re.width <= Fraction(1, 1 << 60) and out.im.width <= Fraction(1, 1 << 60)
        assert out.re.contains(big) and out.im.contains(1)

    def test_cluster_ends_under_the_sweep_cap(self, monkeypatch):
        # roots 2**1100 +- i, 2 apart at a modulus of 2**1100: the iterates
        # close in on the pair a constant factor per sweep, so isolation ends
        # under the cap of _ABERTH_SWEEPS sweeps, with boxes or a clean
        # CertificationError
        evaluations = []
        scaled_values = salem._scaled_values

        def spy(*args):
            evaluations.append(args)
            return scaled_values(*args)

        monkeypatch.setattr(salem, "_scaled_values", spy)
        big = 1 << 1100
        p = IntPoly((big * big + 1, -2 * big, 1))
        isolate_all_roots.cache_clear()
        try:
            boxes = isolate_all_roots(p)
        except CertificationError:
            boxes = None
        # each round sweeps 2 iterates, then takes their radii
        assert len(evaluations) <= salem._ABERTH_ROUNDS * 2 * (salem._ABERTH_SWEEPS + 1)
        if boxes is not None:
            assert [(b.re.contains(big), b.im.contains(1), b.im.contains(-1)) for b in boxes] == [
                (True, True, False),
                (True, False, True),
            ]

    @pytest.mark.parametrize("k", [400, 790])
    def test_undefined_iterate_fails_one_round(self, monkeypatch, k):
        # (t^2 - 2**k)^2 + 1 has the roots +-sqrt(2**k +- i), two pairs
        # about 2**(-k/2) apart: on the 2**-200 grid of round 1 the iterates
        # of a pair meet, off the upper half-plane at k = 400 and where p'
        # vanishes at k = 790, so the boxes come from round 2
        rounds = []
        aberth = salem._aberth

        def spy(p, bits, starts=None):
            rounds.append(bits)
            return aberth(p, bits, starts)

        monkeypatch.setattr(salem, "_aberth", spy)
        p = IntPoly((4**k + 1, 0, -2 * 2**k, 0, 1))
        boxes = isolate_all_roots.__wrapped__(p)
        assert rounds == [salem._BOX_BITS, 2 * salem._BOX_BITS]
        with mpmath.workdps(1000):
            roots = [s * mpmath.sqrt(mpmath.mpf(2) ** k + u * 1j) for s in (1, -1) for u in (1, -1)]
            roots = [(_mp_fraction(mpmath.re(z)), _mp_fraction(mpmath.im(z))) for z in roots]
        assert len(boxes) == 4
        assert all(sum(_in_widened(b, z, 0) for z in roots) == 1 for b in boxes)
        assert all(sum(_in_widened(b, z, 0) for b in boxes) == 1 for z in roots)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
    def test_degree_count(self, a, b):
        p = IntPoly((1, a, b, a, 1))
        if not SturmChain(p).squarefree:
            return
        boxes = isolate_all_roots(p)
        assert len(boxes) == 4
        reals = sum(1 for x in boxes if x.is_real)
        assert reals == SturmChain(p).count_real()


# Oracle for isolate_all_roots: mpmath's roots at 50 digits, computed here and
# nowhere in the library.  The boxes may be finer than the oracle, so each
# box is widened by ORACLE_SLACK before the roots in it are counted; the
# roots of these polynomials lie much further apart than that.
ORACLE_SLACK = Fraction(1, 10**40)
DEFAULT_WIDTH = Fraction(1, 1 << 24)


def _mp_fraction(x):
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(int(man)) * Fraction(2) ** exp


def _oracle_roots(p, dps=50):
    """mpmath's roots of p as (re, im) Fractions; roots that span many
    orders of magnitude take more steps to settle."""
    digits = max(len(str(abs(c))) for c in p.coeffs)
    with mpmath.workdps(dps):
        roots = mpmath.polyroots(list(reversed(p.coeffs)), maxsteps=200 + 4 * digits, extraprec=200)
    return [(_mp_fraction(mpmath.re(z)), _mp_fraction(mpmath.im(z))) for z in roots]


def _in_widened(b, root, slack=ORACLE_SLACK):
    x, y = root
    return b.re.lo - slack <= x <= b.re.hi + slack and b.im.lo - slack <= y <= b.im.hi + slack


def _check_against_oracle(p, dps=50, slack=ORACLE_SLACK):
    boxes = isolate_all_roots(p)
    roots = _oracle_roots(p, dps)
    assert len(boxes) == p.degree
    for b in boxes:
        assert b.re.width <= DEFAULT_WIDTH and b.im.width <= DEFAULT_WIDTH
        assert sum(_in_widened(b, z, slack) for z in roots) == 1, f"{p}: box {b.box} holds no single root"
    for z in roots:
        assert sum(_in_widened(b, z, slack) for b in boxes) == 1, f"{p}: root {z} not in exactly one box"
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            assert not boxes[i].box.intersects(boxes[j].box)
    # order: real boxes ascending, then each upper box followed by its
    # conjugate, the upper boxes ordered by the (re, im) of their centres
    reals = [b for b in boxes if b.is_real]
    assert list(boxes[: len(reals)]) == reals
    assert all(b.conjugate_index is None for b in reals)
    assert all(a.re.hi < b.re.lo for a, b in zip(reals, reals[1:]))
    uppers = boxes[len(reals) :: 2]
    for i in range(len(reals), len(boxes), 2):
        up, down = boxes[i], boxes[i + 1]
        assert up.im.lo > 0
        assert (up.conjugate_index, down.conjugate_index) == (i + 1, i)
        assert down.re == up.re and down.im.lo == -up.im.hi and down.im.hi == -up.im.lo
    keys = [(b.re.mid, b.im.mid) for b in uppers]
    assert keys == sorted(keys)


def _grid_root_polys():
    """h1 and h2-factor root polynomials of the acceptance grid's models."""
    out = set()
    for d in range(1, 6):
        for b1 in range(-3, 4):
            for b2 in range(-3, 4):
                h1 = _norm_charpoly(a_form_matrix(d, b1, b2))
                rest = split_cyclotomic(exterior_square(h1))[1]
                cof = exterior_square(h1) // rest
                out.update(f for f in (SturmChain(h1).radical(), rest, SturmChain(cof).radical()) if f.degree >= 1)
    return sorted(out, key=lambda f: f.coeffs)


@pytest.fixture
def no_trial_division(monkeypatch):
    """Integer roots must come from the Sturm chain, not from divisors of c0."""

    def refuse(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr(poly, "divisors", refuse)
    isolate_all_roots.cache_clear()


# monic sextics whose constant terms are about 10**14 and 10**30, with and
# without integer roots; trial division up to sqrt|c0| would take 10**7 and
# 10**15 steps
BIG_CONSTANT_SEXTICS = (
    IntPoly((-9999991, 1)) * IntPoly((9999973, 1)) * IntPoly((1, -3, 0, 0, 1)),
    IntPoly((10**14 + 31, -3, 0, 0, 0, 5, 1)),
    IntPoly((-(10**15 + 37), 1)) * IntPoly((10**15 + 91, 1)) * IntPoly((1, 2, 0, 1, 1)),
    IntPoly((10**30 + 57, 0, 0, -2, 0, 0, 1)),
)

# quartics whose roots lie beyond the float range: near 10**-+150 and
# 10**-+200, and near 2**1000 at the size cap; as in TestExactRoots, mpmath
# needs the digits of the largest root beyond 60, and the slack must stay
# far below the distance between the smallest roots
FLOAT_RANGE_QUARTICS = (
    ("1,0,1e300,0,1", IntPoly((1, 0, 10**300, 0, 1)), 361, Fraction(1, 10**190)),
    ("1,0,1e400,0,1", IntPoly((1, 0, 10**400, 0, 1)), 461, Fraction(1, 10**240)),
    ("2^3999+1,0,0,0,1", IntPoly((2**3999 + 1, 0, 0, 0, 1)), 361, ORACLE_SLACK),
)


@pytest.mark.usefixtures("no_trial_division")
class TestIsolationOracle:
    def test_every_small_quartic(self):
        for a in range(-3, 4):
            for b in range(-3, 4):
                for c in range(-3, 4):
                    p = IntPoly((1, c, b, a, 1))
                    if SturmChain(p).squarefree:
                        _check_against_oracle(p)

    def test_acceptance_grid_polynomials(self):
        polys = _grid_root_polys()
        assert len(polys) > 100
        for p in polys:
            _check_against_oracle(p)

    @pytest.mark.parametrize(
        "p, dps, slack",
        [pytest.param(p, 80, ORACLE_SLACK, id=f"c0={p.constant:.1e}") for p in BIG_CONSTANT_SEXTICS]
        + [pytest.param(p, dps, slack, id=ident) for ident, p, dps, slack in FLOAT_RANGE_QUARTICS],
    )
    def test_big_constant_term(self, p, dps, slack):
        # 80 digits resolve the sextics' roots near 10**15 to well inside the slack
        _check_against_oracle(p, dps, slack)
        points = [b.re.lo for b in isolate_all_roots(p) if b.is_real and b.re.width == 0]
        assert points == [r for r in (-(10**15 + 91), -9999973, 9999991, 10**15 + 37) if p(r) == 0]

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(*[st.integers(min_value=-9, max_value=9)] * 3))
    @example((0, 3, 0))
    def test_random_quartic(self, abc):
        # (0, 3, 0) is t^4 + 3t^2 + 1, whose roots are purely imaginary
        a, b, c = abc
        p = IntPoly((1, c, b, a, 1))
        if SturmChain(p).squarefree:
            _check_against_oracle(p)

    def test_purely_imaginary_order(self):
        # t^4 + 3t^2 + 1 = (t^2 + phi^2)(t^2 + phi^-2): the centres sit on the
        # imaginary axis exactly, so the upper boxes come in the order of im
        boxes = isolate_all_roots(IntPoly((1, 0, 3, 0, 1)))
        assert all(b.re.mid == 0 for b in boxes)
        ims = [float(b.im.mid) for b in boxes]
        assert ims == pytest.approx([0.6180339887, -0.6180339887, 1.6180339887, -1.6180339887])

    def test_models_without_mpmath_seeds(self, monkeypatch):
        # nor Aberth's iteration: quad-order roots come from q, and no factor
        # of h2 has its roots isolated; the models are the benchmark's 80 and
        # a dyadic one
        def refuse(*args, **kwargs):
            raise RuntimeError(f"seeds for {args}")

        monkeypatch.setattr(mpmath, "polyroots", refuse)
        monkeypatch.setattr(salem, "_aberth", refuse)
        isolate_all_roots.cache_clear()
        model = quad_order_model(a_form_matrix(1, 1, 1))
        assert is_projective(model) is True
        assert is_projective(reorient(model)) is False
        model = quad_order_model(a_form_matrix(2, 0, 1))
        assert model.pairing == (1, 2)
        assert is_projective(model) is True
        models = [quad_order_model(a_form_matrix(d, b1, b2)) for d in range(1, 6) for b1 in range(4) for b2 in range(4)]
        models.append(torus.dyadic_cm_family(48, 1))
        decided = 0
        for model in models:
            entropy(model)
            if model.salem_factor().degree:
                is_projective(model), is_projective(reorient(model))
                torus.picard_rank(model), torus.ns_charpoly(model), torus.ns_charpoly(reorient(model))
                decided += 1
        assert decided == 66


def _q_oracle(tau, delta):
    """g+- = (tau +- sqrt(tau^2 - 4 delta))/2, the roots of
    q = t^2 - tau t + delta, as (re, im) Fractions at mpmath's precision."""
    root = mpmath.sqrt(tau * tau - 4 * delta)
    return [(_mp_fraction(mpmath.re(g)), _mp_fraction(mpmath.im(g))) for g in ((tau + root) / 2, (tau - root) / 2)]


def _refined_sweep():
    """The quad-order grid, gl2z with |r| <= 9, dyadic n in (1, 2, 5, 48)
    and the quartics t^4 + a t^3 + b t^2 + c t + 1 with |a|, |b|, |c| <= 3
    and no real root, each model of positive entropy in both orientations."""
    grid = itertools.product(range(1, 6), range(-3, 4), range(-3, 4))
    models = [quad_order_model(a_form_matrix(d, b1, b2)) for d, b1, b2 in grid]
    models += [torus.gl2z_model(r, det) for det in (1, -1) for r in range(-9, 10) if abs(r) > 1 + det]
    models += [torus.dyadic_cm_family(n, k) for n in (1, 2, 5, 48) for k in range(n + 1)]
    for a, b, c in itertools.product(range(-3, 4), repeat=3):
        p = IntPoly((1, c, b, a, 1))
        if not SturmChain(p).count_real():
            models.append(torus.from_quartic(p))
    return models + [reorient(m) for m in models if m.salem_factor().degree]


def _dyadic_salem(n):
    """The Salem factor of dyadic_cm_family(n, k), ascending, for any k."""
    return (1, -(1 + 4**n), -(2 ** (2 * n + 1)), -(1 + 4**n), 1)


class TestExactRoots:
    """Circle roots come from _aberth and quad-order roots from q in closed
    form; both are checked against mpmath roots at a precision scaled to the
    coefficients."""

    @pytest.mark.parametrize("n", (33, 48, 80, 200))
    def test_dyadic_salem_factor(self, n):
        # the circle pair sits near -1, about 2**(1 - n) off the real axis,
        # beside lambda near 4**n: mpmath needs 2n digits beyond 60, and
        # the slack must stay far below the pair's distance
        coeffs = _dyadic_salem(n)
        _check_against_oracle(IntPoly(coeffs), dps=60 + 2 * n, slack=Fraction(1, 10 ** (n + 20)))
        circle = [b for b in isolate_all_roots(IntPoly(coeffs)) if not b.is_real]
        assert len(circle) == 2 and 0 < circle[0].im.lo < Fraction(1, 1 << (n - 2))

    @pytest.mark.parametrize("n", (33, 200))
    def test_refined_circle_boxes_keep_their_half_plane(self, n):
        p = IntPoly(_dyadic_salem(n))
        roots = _oracle_roots(p, dps=60 + 2 * n)
        width = Fraction(1, 1 << (n + 80))
        for b in isolate_all_roots(p):
            rb = refine_root_box(p, b, width)
            assert rb.re.width <= width and rb.im.width <= width
            assert rb.conjugate_index == b.conjugate_index
            assert (rb.im.lo > 0, rb.im.hi < 0) == (b.im.lo > 0, b.im.hi < 0)
            slack = Fraction(1, 10 ** (2 * n + 40))
            assert sum(_in_widened(rb, z, slack) for z in roots) == 1

    def test_circle_box_refines_a_cyclotomic_point(self):
        # the roots +-i of Phi_4 = t^2 + 1 have the real part 0
        p = cyclotomic(4) * IntPoly((-1, 1))
        rb = refine_root_box(p, isolate_all_roots(p)[2], Fraction(1, 1 << 100))
        assert rb.box.contains(0, -1)
        assert rb.re.width <= Fraction(1, 1 << 100) and rb.im.width <= Fraction(1, 1 << 100)

    def test_closed_form_boxes(self):
        # g+- = (tau +- sqrt(tau^2 - 4))/2 with tau = b1 + b2 sqrt(-D), the
        # eigenvalues of [[0, -1], [1, tau]], lie in the boxes at the pairing;
        # every box holds one of them or of their conjugates
        params = [(d, b1, b2) for d in range(1, 6) for b1 in range(-3, 4) for b2 in range(-3, 4)]
        # dyadic_cm_family(n, 1) is a_form_matrix(4, 1, 2**(n - 1))
        params += [(4, 1, 2 ** (n - 1)) for n in (33, 48, 80, 200)]
        slack = Fraction(1, 10**150)
        with mpmath.workdps(250):
            for d, b1, b2 in params:
                model = quad_order_model(a_form_matrix(d, b1, b2))
                gs = _q_oracle(b1 + b2 * mpmath.sqrt(d) * 1j, 1)
                boxes = model.root_boxes
                i, j = model.pairing
                assert _in_widened(boxes[i], gs[0], slack) and _in_widened(boxes[j], gs[1], slack) or (
                    _in_widened(boxes[i], gs[1], slack) and _in_widened(boxes[j], gs[0], slack)
                ), (d, b1, b2)
                roots = set(gs) | {(x, -y) for x, y in gs}
                for b in boxes:
                    assert b.re.width <= Fraction(1, 1 << 200) and b.im.width <= Fraction(1, 1 << 200)
                    assert sum(_in_widened(b, z, slack) for z in roots) == 1, (d, b1, b2)

    def test_refined_keeps_the_pairing(self):
        # E x E and gl2z models rebuild their boxes from q, quartic models
        # refine theirs by refine_root_box; purely imaginary roots (b1 = 0)
        # and the dyadic n = 48 roots are among them
        models = _refined_sweep()
        assert len(models) == 881
        width, slack = Fraction(1, 1 << 300), Fraction(1, 10**150)
        with mpmath.workdps(250):
            for model in models:
                out = model.refined(width)
                assert (out.pairing, out.reoriented) == (model.pairing, model.reoriented)
                for old, new in zip(model.root_boxes, out.root_boxes, strict=True):
                    assert new.re.width <= width and new.im.width <= width
                    assert old.box.contains(new.re.lo, new.im.lo) and old.box.contains(new.re.hi, new.im.hi)
                    assert new.conjugate_index == old.conjugate_index
                family, params = model.origin.family, model.origin.params
                if family == "quartic":
                    roots = _oracle_roots(model.root_poly)
                    assert all(sum(_in_widened(b, z) for z in roots) == 1 for b in out.root_boxes), params
                    continue
                if family == "gl2z":
                    gs = _q_oracle(params[0], params[1])
                else:
                    qm = model.origin.quad
                    (ta, tb), (da, db), root_d = qm.trace(), qm.det(), mpmath.sqrt(qm.d_param)
                    gs = _q_oracle(ta + tb * root_d * 1j, da + db * root_d * 1j)
                # g1 and g2 are g+ and g-, in either order; reorient takes
                # the conjugate of g2
                g1, g2 = out.gamma1, out.gamma2
                flip = -1 if out.reoriented else 1
                assert any(
                    _in_widened(g1, x, slack) and _in_widened(g2, (y[0], flip * y[1]), slack) for x, y in (gs, gs[::-1])
                ), (family, params, model.origin.quad)

