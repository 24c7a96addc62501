"""Case table, complement pool and square filter, witness search, finiteness."""

import itertools

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.rootisolation import dup_isolate_real_roots_sqf
from sympy.polys.sqfreetools import dup_sqf_list

from salemtori import classify
from salemtori.classify import (
    CASE_3A,
    CASE_3B,
    CASE_DEG4,
    CASE_DEG6,
    Finite,
    InfiniteFamily,
    _complement_pool,
    case_of,
    pairing_classes,
    realizable,
)
from salemtori.errors import NotMonicError, NotSalemInputError, WrongDegreeError
from salemtori import poly
from salemtori.poly import ONE, IntPoly, cyclotomic, split_cyclotomic
from salemtori.salem import is_salem, isolate_all_roots
from salemtori.wedge import exterior_square, square_values

S2A = IntPoly((1, -3, 1))
S2B = IntPoly((1, -4, 1))
S4 = IntPoly((1, -2, -2, -2, 1))
S6 = IntPoly((1, 0, -1, -1, -1, 0, 1))


class TestCaseOf:
    def test_degree6(self):
        rep = case_of(S6)
        assert rep.case_tag == CASE_DEG6
        assert rep.projective_types == ("non_projective",)
        assert rep.picard_ranks == (("non_projective", 0),)
        assert rep.q_value is None
        assert rep.witnesses == ()

    def test_degree4(self):
        rep = case_of(S4)
        assert rep.case_tag == CASE_DEG4
        assert rep.projective_types == ("non_projective", "projective")
        assert rep.picard_ranks == (("non_projective", 2), ("projective", 4))

    def test_degree2_split(self):
        rep = case_of(S2A)
        assert rep.case_tag == CASE_3A
        assert rep.q_value == 3
        assert rep.square_witness == (1, "-")
        assert rep.picard_ranks == (("projective", "unconstrained"),)

        rep = case_of(S2B)
        assert rep.case_tag == CASE_3B
        assert rep.q_value == 4
        assert rep.square_witness is None
        assert rep.picard_ranks == (("projective", 4),)

    def test_plus_sign_family(self):
        # q = 23: q + 2 = 25 = 5^2
        rep = case_of(IntPoly((1, -23, 1)))
        assert rep.case_tag == CASE_3A
        assert rep.square_witness == (5, "+")

    @pytest.mark.parametrize(
        "q, witness",
        [(10**13, None), (10**14 - 2, (10**7, "+")), (10**14 + 2, (10**7, "-"))],
    )
    def test_square_test_is_bounded(self, monkeypatch, q, witness):
        # the square test must not search the divisors of q +/- 2, which
        # would take time growing with sqrt(q)
        cert = is_salem(IntPoly((1, -q, 1)))

        def refuse(n):
            raise AssertionError(f"divisors({n}) called")

        monkeypatch.setattr(poly, "divisors", refuse)
        rep = case_of(cert)
        assert rep.square_witness == witness
        assert rep.case_tag == (CASE_3B if witness is None else CASE_3A)

    @pytest.mark.parametrize("q", [10**13, 10**20, 10**30])
    def test_realizable_3b_is_bounded(self, monkeypatch, q):
        # the case-3b checks of complement and witness must not search
        # divisors either, which factor_bounded would do
        cert = is_salem(IntPoly((1, -q, 1)))
        assert cert

        def refuse(n):
            raise AssertionError(f"divisors({n}) called")

        monkeypatch.setattr(poly, "divisors", refuse)
        rep = realizable(cert)
        assert rep.case_tag == CASE_3B
        assert rep.finiteness == Finite(2)

    def test_square_witness_matches_brute_force(self):
        for q in range(3, 401):
            want = next(
                ((r, sign) for sign, n in (("+", q + 2), ("-", q - 2)) for r in range(1, 21) if r * r == n),
                None,
            )
            assert case_of(IntPoly((1, -q, 1))).square_witness == want, q

    def test_accepts_certificate(self):
        cert = is_salem(S2A)
        assert case_of(cert).case_tag == CASE_3A

    def test_rejects_non_salem(self):
        with pytest.raises(NotSalemInputError):
            case_of(IntPoly((1, 0, 1)))
        with pytest.raises(NotSalemInputError):
            case_of(IntPoly((1, -3, 2)))

    def test_rejects_degree8(self):
        # degree-8 Salem polynomials certify but have no torus case
        p = IntPoly(tuple(reversed((1, 0, 0, -1, -1, -1, 0, 0, 1))))
        cert = is_salem(p)
        assert cert
        with pytest.raises(WrongDegreeError):
            case_of(cert)


class TestComplements:
    # the cyclotomic complements C of each Salem degree, and the Q = S*C that
    # pass the square filter
    def test_pool_sizes(self):
        assert len(_complement_pool(S6.degree)) == 1
        assert len(_complement_pool(S4.degree)) == 5
        assert len(_complement_pool(S2A.degree)) == 19

    def test_pool_contents(self):
        assert _complement_pool(S4.degree) == tuple(IntPoly((1, a, 1)) for a in range(-2, 3))
        deg2 = _complement_pool(S2B.degree)
        assert all(c.degree == 4 for c in deg2)
        assert all(split_cyclotomic(c)[1] == ONE for c in deg2)
        for n in (5, 8, 10, 12):
            assert cyclotomic(n) in deg2

    def test_admissible_quartic(self):
        admissible = [q for q in (S4 * c for c in _complement_pool(S4.degree)) if square_values(q)]
        assert admissible == [
            S4 * IntPoly((1, -2, 1)),
            S4 * IntPoly((1, 2, 1)),
        ]

    def test_admissible_sextic(self):
        admissible = [q for q in (S6 * c for c in _complement_pool(S6.degree)) if square_values(q)]
        assert admissible == [S6]

    def test_admissible_is_filtered(self):
        admissible = [q for q in (S2A * c for c in _complement_pool(S2A.degree)) if square_values(q)]
        assert S2A * cyclotomic(5) not in admissible
        assert S2A * cyclotomic(10) in admissible


def _sympy_classes(p):
    """pairing_classes(p) for a monic quartic p, from sympy's squarefree
    decomposition and real-root isolation over ZZ: two conjugate classes
    for a squarefree p without real roots, the real class (-g1, g0) for
    p = G^2 with G = t^2 + g1 t + g0 real-rooted, G(0) = +-1 and
    G(+-1) != 0, and none otherwise."""
    f = [ZZ(c) for c in reversed(p.coeffs)]
    _, factors = dup_sqf_list(f, ZZ)
    if factors == [(f, 1)]:
        if dup_isolate_real_roots_sqf(f, ZZ):
            return ()
        return (classify.PairingClass("conjugate", indices=(0, 2)), classify.PairingClass("conjugate", indices=(0, 3)))
    if len(factors) == 1 and factors[0][1] == 2 and len(factors[0][0]) == 3:
        g = factors[0][0]
        g1, g0 = int(g[1]), int(g[2])
        if abs(g0) == 1 and 1 + g1 + g0 and 1 - g1 + g0 and len(dup_isolate_real_roots_sqf(g, ZZ)) == 2:
            return (classify.PairingClass("real", gl_params=(-g1, g0)),)
    return ()


class TestPairingClasses:
    def test_every_small_monic_quartic_against_sympy(self):
        # a monic quartic negative or zero at some integer has a real root,
        # and is no G^2 for a hyperbolic G, whose roots are irrational: it
        # has no class, and sympy is asked only about the others
        asked = 0
        for a, b, c, d in itertools.product(range(-5, 6), repeat=4):
            p = IntPoly((d, c, b, a, 1))
            if all(p(k) > 0 for k in range(-6, 7)):
                asked += 1
                assert pairing_classes(p) == _sympy_classes(p), p
            else:
                assert pairing_classes(p) == (), p
        assert asked > 2000

    def test_every_small_square_against_sympy(self):
        found = 0
        for g0, g1 in itertools.product(range(-30, 31), repeat=2):
            p = IntPoly((g0, g1, 1)) ** 2
            want = _sympy_classes(p)
            assert pairing_classes(p) == want, p
            found += bool(want)
        # G(0) = 1 with |g1| > 2, or G(0) = -1 with g1 != 0
        assert found == 56 + 60

    def test_not_monic_raises(self):
        # 2t^4 + 1 has no real root, but no integer matrix has it as its
        # characteristic polynomial
        for coeffs in ((1, 0, 0, 0, 2), (1, 0, 0, 0, -1), (-1, 3, 0, 0, -1)):
            with pytest.raises(NotMonicError):
                pairing_classes(IntPoly(coeffs))

    def test_no_real_quartic_two_classes(self):
        cls = pairing_classes(IntPoly((1, 1, 0, 0, 1)))
        assert len(cls) == 2
        assert all(c.kind == "conjugate" for c in cls)
        assert cls[0].indices == (0, 2)
        assert cls[1].indices == (0, 3)

    def test_indices_follow_root_isolation(self):
        # the classes are read off isolate_all_roots' order: upper, lower,
        # upper, lower for a quartic without real roots
        for coeffs in ((1, 1, 0, 0, 1), (1, -2, 4, -2, 1), (1, 3, 4, 2, 1), (1, -4, 5, -2, 1)):
            p = IntPoly(coeffs)
            boxes = isolate_all_roots(p)
            assert [b.im.lo > 0 for b in boxes] == [True, False, True, False]
            assert boxes[2].conjugate_index == 3
            assert [c.indices for c in pairing_classes(p)] == [(0, 2), (0, 3)]

    def test_real_roots_rejected(self):
        assert pairing_classes(S4) == ()

    def test_quartics_only(self):
        with pytest.raises(WrongDegreeError):
            pairing_classes(IntPoly((1, 1, 1)))

    def test_hyperbolic_square(self):
        p = IntPoly((-1, -1, 1)) ** 2  # (t^2 - t - 1)^2
        assert p.is_monic
        cls = pairing_classes(p)
        assert len(cls) == 1
        assert cls[0].kind == "real"
        assert cls[0].gl_params == (1, -1)

    def test_elliptic_square_rejected(self):
        # (t^2 + t + 1)^2: roots on the circle, no hyperbolic pairing
        assert pairing_classes(cyclotomic(3) ** 2) == ()

    def test_mixed_reducible_rejected(self):
        assert pairing_classes(IntPoly((1, 1)) ** 2 * cyclotomic(4)) == ()


class TestRealizable:
    def test_sextic(self):
        rep = realizable(S6)
        assert len(rep.witnesses) == 4
        assert rep.finiteness == Finite(8)
        for w in rep.witnesses:
            assert w.q_poly == S6
            assert w.c_poly == IntPoly((1,))
            assert exterior_square(w.p_poly) == w.q_poly
            assert len(w.classes) == 2

    def test_quartic(self):
        rep = realizable(S4)
        assert rep.finiteness == Finite(8)
        assert len(rep.witnesses) == 4
        for w in rep.witnesses:
            assert w.q_poly == S4 * w.c_poly
            assert split_cyclotomic(w.c_poly)[1] == ONE
            assert exterior_square(w.p_poly) == w.q_poly

    def test_3a_has_real_family_witness(self):
        rep = realizable(S2A)
        assert isinstance(rep.finiteness, InfiniteFamily)
        assert rep.finiteness == InfiniteFamily(1, "-")
        kinds = {c.kind for w in rep.witnesses for c in w.classes}
        assert kinds == {"conjugate", "real"}

    def test_3b_witnesses_irreducible(self):
        rep = realizable(S2B)
        assert isinstance(rep.finiteness, Finite)
        for w in rep.witnesses:
            assert all(c.kind == "conjugate" for c in w.classes)

    def test_deterministic(self):
        a = realizable(S4)
        b = realizable(S4)
        assert a.witnesses == b.witnesses

    def test_unrealized(self):
        p = IntPoly((1, -2, 0, -2, 1))
        rep = realizable(p)
        assert rep.witnesses == ()
        assert rep.finiteness is None


def _salem_up_to(bound):
    """Every Salem polynomial of degree 2, 4 and 6 with reciprocal
    coefficients in [-bound, bound]."""
    out = []
    for degree in (2, 4, 6):
        for half in itertools.product(range(-bound, bound + 1), repeat=degree // 2):
            cert = is_salem(IntPoly((1, *half, *half[-2::-1], 1)))
            if cert:
                out.append(cert)
    return out


class TestValueSieve:
    """realizable forms Q = S*C and inverts it only when -S(1)C(1) and
    S(-1)C(-1), the values -Q(1) and Q(-1), are squares."""

    def test_inverts_only_what_passes_the_value_test(self, monkeypatch):
        seen = []
        invert = classify.invert_wedge
        monkeypatch.setattr(classify, "invert_wedge", lambda q: seen.append(q) or invert(q))
        certs = _salem_up_to(4)
        assert sorted({c.degree for c in certs}) == [2, 4, 6]
        for cert in certs:
            seen.clear()
            realizable(cert)
            products = [cert.poly * c for c in _complement_pool(cert.degree)]
            assert seen == [q for q in products if square_values(q)]
            assert all(invert(q).obstruction == "not-square" for q in products if q not in seen)

    def test_same_reports_as_without_the_sieve(self, monkeypatch):
        certs = _salem_up_to(4)
        sieved = [realizable(cert) for cert in certs]
        # a value test that passes everything inverts every product
        monkeypatch.setattr(classify, "_is_square", lambda n: True)
        assert [realizable(cert) for cert in certs] == sieved
        assert sum(bool(r.witnesses) for r in sieved) > 0

    def test_sieve_table(self):
        for degree in (2, 4, 6):
            table = classify._complement_sieve(degree)
            assert [c for c, _, _ in table] == list(_complement_pool(degree))
            assert all((c1, cm1) == (c(1), c(-1)) for c, c1, cm1 in table)


class TestFiniteness:
    def test_values(self):
        assert realizable(S2A).finiteness == InfiniteFamily(1, "-")
        f4 = realizable(S4).finiteness
        f6 = realizable(S6).finiteness
        assert isinstance(f4, Finite) and 1 <= f4.count <= 320
        assert isinstance(f6, Finite) and 1 <= f6.count <= 320
