"""Torus models: constructors, pairing, projectivity, entropy, divisor action."""

import random
from fractions import Fraction

import pytest

from salemtori import torus
from salemtori.errors import (
    BadParametersError,
    CertificationError,
    NotApplicableError,
    NotHyperbolicError,
    NotUnitError,
    RealRootsError,
    WrongDegreeError,
    ZeroEntropyError,
)
from salemtori.classify import CASE_3B, UNCONSTRAINED, _split_complement, salem_case
from salemtori.poly import IntPoly, cyclotomic
from salemtori.torus import (
    NotForced,
    QuadOrderMatrix,
    _charpoly,
    _qo_mul,
    a_form_matrix,
    dyadic_cm_family,
    entropy,
    from_quartic,
    gl2z_model,
    is_projective,
    ns_charpoly,
    picard_rank,
    quad_order_model,
    reorient,
    verify_jd,
)
from salemtori.wedge import exterior_square

from _oracles import o_charpoly, o_log_bounds, o_projective, o_split_indices
from corpus import _unit_entries


def _grid_models():
    """All one-step models with D <= 5 and |b1|, |b2| <= 3 (245 of them)."""
    for d in range(1, 6):
        for b1 in range(-3, 4):
            for b2 in range(-3, 4):
                yield quad_order_model(a_form_matrix(d, b1, b2))


class TestCharpoly:
    def test_known_matrices_vs_leibniz(self):
        mats = [
            ((0, -1, 0, 0), (1, 3, 0, 0), (0, 0, 0, -1), (0, 0, 1, 3)),
            ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12), (13, 14, 15, 17)),
            ((0, 0, 0, -1), (1, 0, 0, -2), (0, 1, 0, -3), (0, 0, 1, -4)),
        ]
        for m in mats:
            assert _charpoly(m).coeffs == o_charpoly(m)

    @pytest.mark.parametrize("bound", [9, 10**6, 10**30])
    def test_random_matrices_vs_leibniz(self, bound):
        rng = random.Random(f"charpoly:{bound}")
        for _ in range(1000):
            m = tuple(tuple(rng.randint(-bound, bound) for _ in range(4)) for _ in range(4))
            assert _charpoly(m).coeffs == o_charpoly(m)

    def test_every_model_lift_vs_leibniz(self):
        # the 245-model grid and the dyadic family for n <= 24, every k
        mats = [m.matrix for m in _grid_models()]
        mats += [dyadic_cm_family(n, k).matrix for n in range(1, 25) for k in range(n + 1)]
        assert len(mats) == 245 + 324
        for m in mats:
            assert _charpoly(m).coeffs == o_charpoly(m)

    def test_every_constructor_matches_oracle(self):
        models = [
            gl2z_model(1, -1),
            gl2z_model(-3, 1),
            from_quartic(IntPoly((1, 1, 0, 0, 1))),
            quad_order_model(a_form_matrix(2, 0, 1)),
            dyadic_cm_family(2, 1),
        ]
        for m in models:
            assert m.h1_charpoly.coeffs == o_charpoly(m.matrix)
            assert exterior_square(m.h1_charpoly) == m.h2_charpoly


class TestQuadOrderMatrix:
    def test_trace_det(self):
        qm = a_form_matrix(2, 0, 1)
        assert qm.trace() == (0, 1)
        assert qm.det() == (1, 0)

    def test_lift_block_structure(self):
        # multiplication block structure for [[0,-1],[1,sqrt(-2)]]
        qm = a_form_matrix(2, 0, 1)
        assert qm.lift() == (
            (0, 0, -1, 0),
            (0, 0, 0, -1),
            (1, 0, 0, -2),
            (0, 1, 1, 0),
        )

    def test_non_unit_rejected(self):
        qm = QuadOrderMatrix(1, (((1, 1), (0, 0)), ((0, 0), (1, 0))))
        with pytest.raises(NotUnitError):
            quad_order_model(qm)

    def test_bad_shape(self):
        with pytest.raises(BadParametersError):
            QuadOrderMatrix(0, (((1, 0), (0, 0)), ((0, 0), (1, 0))))

    @pytest.mark.parametrize(
        "entries",
        [
            # the 7 was once dropped, leaving [[0, -1], [1, sqrt(-2)]]
            (((0, 0, 7), (-1, 0)), ((1, 0), (0, 1))),
            (((0,), (-1, 0)), ((1, 0), (0, 1))),
            (((0, 0), (-1, 0)), ((1, 0), ())),
            (((0, 0), (-1, 0)), ((1, 0), (0, 1), (0, 0))),
            (((0, 0), (-1, 0)),),
        ],
    )
    def test_entries_must_be_pairs(self, entries):
        with pytest.raises(BadParametersError, match="2x2 matrix of"):
            QuadOrderMatrix(2, entries)

    @pytest.mark.parametrize("bad", [0.5, Fraction(3, 2), "1"])
    def test_non_integral_entry_raises(self, bad):
        # an entry is never truncated: (0.5, 1.9) was once stored as (0, 1)
        with pytest.raises(TypeError):
            QuadOrderMatrix(2, (((0, 0), (-1, 0)), ((1, 0), (bad, 1))))
        with pytest.raises(TypeError):
            QuadOrderMatrix(bad, (((0, 0), (-1, 0)), ((1, 0), (0, 1))))
        with pytest.raises(TypeError):
            a_form_matrix(2, 0, bad)
        with pytest.raises(TypeError):
            a_form_matrix(2, bad, 1)


class TestQuadOrderModel:
    def test_sqrt_minus2_charpoly(self):
        m = quad_order_model(a_form_matrix(2, 0, 1))
        assert m.h1_charpoly == IntPoly((1, 0, 4, 0, 1))

    def test_d1_11(self):
        m = quad_order_model(a_form_matrix(1, 1, 1))
        assert m.h1_charpoly == IntPoly((1, -2, 4, -2, 1))

    def test_pairing_sum_product(self):
        # the paired boxes must bracket trace and determinant
        for d, b1, b2 in ((1, 1, 1), (2, 0, 1), (3, 2, -1), (5, -3, 2)):
            m = quad_order_model(a_form_matrix(d, b1, b2))
            g1, g2 = m.gamma1, m.gamma2
            ssum = g1.box.re + g2.box.re
            assert ssum.contains(Fraction(b1)) or ssum.intersects(
                type(ssum)(Fraction(b1), Fraction(b1))
            )

    def test_full_grid_runs(self):
        count = 0
        for m in _grid_models():
            assert m.h1_charpoly.is_monic
            assert m.h1_charpoly.constant == 1
            count += 1
        assert count == 245

    def test_rational_multiple_identity(self):
        qm = QuadOrderMatrix(3, (((2, 0), (-1, 0)), ((1, 0), (0, 0))))
        m = quad_order_model(qm)
        # trace 2, det 1: h1 = (t^2 - 2t + 1)^2 = (t-1)^4
        assert m.h1_charpoly == IntPoly((1, -1)) ** 4
        assert entropy(m) == type(entropy(m)).point(0)


class TestGl2z:
    def test_model(self):
        m = gl2z_model(1, -1)
        assert m.h1_charpoly == IntPoly((-1, -1, 1)) ** 2
        assert m.root_poly == IntPoly((-1, -1, 1))
        assert m.pairing == (0, 1)
        assert m.h2_charpoly == IntPoly((1, -3, 1)) * cyclotomic(2) ** 4

    def test_hyperbolic_gate(self):
        with pytest.raises(NotHyperbolicError):
            gl2z_model(1, 1)
        with pytest.raises(NotHyperbolicError):
            gl2z_model(2, 1)
        with pytest.raises(NotHyperbolicError):
            gl2z_model(0, -1)
        assert gl2z_model(3, 1).salem_factor() == IntPoly((1, -7, 1))

    def test_det_validated(self):
        with pytest.raises(BadParametersError):
            gl2z_model(5, 2)

    def test_always_projective_rank_unconstrained(self):
        m = gl2z_model(1, -1)
        assert is_projective(m)
        assert picard_rank(m) is UNCONSTRAINED


class TestFromQuartic:
    def test_default_pairing(self):
        m = from_quartic(IntPoly((1, 1, 0, 0, 1)))
        assert m.pairing == (0, 2)
        assert m.h1_charpoly == IntPoly((1, 1, 0, 0, 1))

    def test_real_roots_rejected(self):
        with pytest.raises(RealRootsError):
            from_quartic(IntPoly((1, -2, -2, -2, 1)))

    def test_real_roots_decided_before_isolation(self, monkeypatch):
        # t^4 - 10**400 t + 1 has real roots near 10**-400 and 10**133;
        # the Sturm count rejects it with no root isolated
        def refuse(p):
            raise AssertionError(f"isolated the roots of {p}")

        monkeypatch.setattr(torus, "isolate_all_roots", refuse)
        with pytest.raises(RealRootsError, match="has 2 real roots"):
            from_quartic(IntPoly((1, -(10**400), 0, 0, 1)))

    def test_degree_gate(self):
        with pytest.raises(WrongDegreeError):
            from_quartic(IntPoly((1, -3, 1)))

    def test_constant_gate(self):
        with pytest.raises(NotUnitError):
            from_quartic(IntPoly((-1, 0, 0, 0, 1)))

    def test_pairing_validation(self):
        p = IntPoly((1, 1, 0, 0, 1))
        with pytest.raises(BadParametersError):
            from_quartic(p, (0, 1))  # conjugate pair, not a cross choice
        with pytest.raises(BadParametersError):
            from_quartic(p, (0, 0))
        with pytest.raises(BadParametersError):
            from_quartic(p, (0, 9))
        m = from_quartic(p, (1, 2))
        assert m.pairing == (1, 2)

    def test_doubled_quadratic(self):
        p = cyclotomic(3) ** 2
        m = from_quartic(p)
        assert m.pairing == (0, 1)
        assert m.root_poly == cyclotomic(3)
        assert entropy(m).width == 0

    def test_projectivity_depends_on_pairing(self):
        # wedge has a degree-4 Salem factor, so the two cross pairings land
        # on opposite sides
        p = IntPoly((1, -2, 4, -2, 1))
        a = from_quartic(p, (0, 2))
        b = from_quartic(p, (0, 3))
        assert not is_projective(a) and picard_rank(a) == 2
        assert is_projective(b) and picard_rank(b) == 4


class TestReorient:
    def test_involution(self):
        m = quad_order_model(a_form_matrix(1, 1, 1))
        r = reorient(m)
        assert r.reoriented and not m.reoriented
        assert r.pairing != m.pairing
        rr = reorient(r)
        assert rr.pairing == m.pairing and not rr.reoriented

    def test_real_pairing_noop(self):
        m = gl2z_model(1, -1)
        r = reorient(m)
        assert r.pairing == m.pairing
        assert r.reoriented

    def test_entropy_preserved(self):
        m = quad_order_model(a_form_matrix(2, 0, 1))
        eps = Fraction(1, 10**10)
        assert entropy(m, eps) == entropy(reorient(m), eps)

    def test_zero_entropy_gate(self):
        ident = quad_order_model(QuadOrderMatrix(1, (((1, 0), (0, 0)), ((0, 0), (1, 0)))))
        with pytest.raises(ZeroEntropyError):
            reorient(ident)


def _unit_matrices(count, seed):
    """count seeded matrices over Z[sqrt(-D)], each a unit diag(u, 1) times
    two to four elementary matrices, upper and lower by turns, with small
    nonzero entries.  D is 1 for about half of them, with u one of +-1 and
    +-i, and 2 to 7 otherwise, with u = +-1."""
    rng = random.Random(seed)
    for _ in range(count):
        d = 1 if rng.random() < 0.5 else rng.randint(2, 7)
        u = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)) if d == 1 else ((1, 0), (-1, 0)))
        m = ((u, (0, 0)), ((0, 0), (1, 0)))
        upper = rng.random() < 0.5
        for _ in range(rng.randint(2, 4)):
            x = (0, 0)
            while x == (0, 0):
                x = (rng.randint(-2, 2), rng.randint(-1, 1))
            e = (((1, 0), x), ((0, 0), (1, 0))) if upper else (((1, 0), (0, 0)), (x, (1, 0)))
            upper = not upper
            m = tuple(
                tuple(
                    tuple(a + b for a, b in zip(_qo_mul(m[i][0], e[0][j], d), _qo_mul(m[i][1], e[1][j], d)))
                    for j in range(2)
                )
                for i in range(2)
            )
        yield QuadOrderMatrix(d, m)


class TestProjectivity:
    @pytest.mark.parametrize(
        "params, flip",
        [
            # case 3a, where picard_rank needs the verdict
            ((1, 1, 1), False),
            # case 3b reoriented, where ns_charpoly needs it
            ((2, 0, 1), True),
        ],
    )
    def test_decided_once_per_model(self, verdicts, no_roots, params, flip):
        # an E x E model reads the verdict off its Salem factor, in either
        # orientation, and none of the decisions isolates or refines a root
        model = quad_order_model(a_form_matrix(*params))
        if flip:
            model = reorient(model)
        for decide in (is_projective, picard_rank, ns_charpoly):
            no_roots(decide)(model)
        assert verdicts == [model]
        # a model made by reorient decides afresh
        no_roots(is_projective)(reorient(model))
        assert len(verdicts) == 2
        assert is_projective(model) == o_projective(model)

    @pytest.mark.parametrize("flip", [False, True])
    def test_quartic_decided_once_per_model(self, verdicts, no_roots, flip):
        model = from_quartic(IntPoly.from_descending((1, -2, 4, -2, 1)), (0, 2))
        if flip:
            model = reorient(model)
        for decide in (is_projective, picard_rank, ns_charpoly):
            no_roots(decide)(model)
        assert verdicts == [model]
        no_roots(is_projective)(reorient(model))
        assert len(verdicts) == 2
        assert is_projective(model) == o_projective(model)

    def test_exact_rule_matches_location(self):
        """The E x E rule and the mpmath oracle agree on the grid, the dyadic
        family for n <= 24 and seeded unit-determinant matrices, in both
        orientations."""
        models = list(_grid_models())
        models += [dyadic_cm_family(n, k) for n in range(1, 25) for k in range(n + 1)]
        models += [quad_order_model(qm) for qm in _unit_matrices(200, 1406)]
        checked, dets, degrees, verdicts = 0, set(), set(), set()
        for base in models:
            if base.salem_factor().degree == 0:
                continue
            for m in (base, reorient(base)):
                verdict = is_projective(m)
                assert verdict == o_projective(m), (m.origin, m.reoriented)
                checked += 1
                dets.add(m.origin.quad.det())
                degrees.add(m.salem_factor().degree)
                verdicts.add((m.reoriented, verdict))
        assert checked > 1000
        assert dets == {(1, 0), (-1, 0), (0, 1), (0, -1)}
        assert degrees == {2, 4}
        assert verdicts == {(False, True), (True, True), (True, False)}

    def test_forged_degree_raises(self):
        model = quad_order_model(a_form_matrix(1, 1, 1))
        sextic = IntPoly.from_descending((1, 0, -1, -1, -1, 0, 1))
        for m in (model, reorient(model)):
            with pytest.raises(CertificationError, match="degree 6, not 2 or 4"):
                is_projective(m.replace(h2_charpoly=sextic))

    def test_xor_on_grid(self):
        checked = 0
        for m in _grid_models():
            if m.salem_factor().degree != 4:
                continue
            assert is_projective(m) != is_projective(reorient(m))
            checked += 1
        assert checked >= 100

    def test_degree6_never_projective(self):
        m = from_quartic(IntPoly((1, 1, 0, 0, 1)))
        assert m.salem_factor().degree == 6
        assert not is_projective(m)
        assert picard_rank(m) == 0

    def test_degree2_projective(self):
        m = quad_order_model(a_form_matrix(1, 0, 1))
        assert m.salem_factor() == IntPoly((1, -3, 1))
        assert is_projective(m)
        assert picard_rank(m) is UNCONSTRAINED

    def test_degree4_ranks(self):
        m = quad_order_model(a_form_matrix(1, 1, 1))
        r = reorient(m)
        ranks = {picard_rank(m), picard_rank(r)}
        assert ranks == {4, 2}


class TestEntropy:
    def test_gl2z_golden_ratio_square(self):
        # lambda = (3 + sqrt 5)/2, log = 0.9624236501192069...
        iv = entropy(gl2z_model(1, -1), Fraction(1, 10**9))
        assert iv.width <= Fraction(1, 10**9)
        lo = Fraction("0.962423650118")
        hi = Fraction("0.962423650120")
        assert lo <= iv.lo <= iv.hi <= hi

    def test_d2_value(self):
        # Salem factor t^2 - 4t + 1: lambda = 2 + sqrt 3
        iv = entropy(quad_order_model(a_form_matrix(2, 0, 1)))
        olo, ohi = o_log_bounds(Fraction(2) + Fraction(17320508, 10**7), Fraction(2) + Fraction(17320509, 10**7))
        assert iv.lo <= ohi and olo <= iv.hi

    def test_exact_zero(self):
        ident = quad_order_model(QuadOrderMatrix(2, (((1, 0), (0, 0)), ((0, 0), (1, 0)))))
        iv = entropy(ident)
        assert iv.lo == 0 == iv.hi

    def test_eps_respected(self):
        m = from_quartic(IntPoly((1, 1, 0, 0, 1)))
        for k in (6, 9, 12):
            assert entropy(m, Fraction(1, 10**k)).width <= Fraction(1, 10**k)


class TestDyadicFamily:
    def test_salem_factor_k_independent(self):
        for n in (1, 2):
            expected = IntPoly((1, -(1 + 4**n), -(2 ** (2 * n + 1)), -(1 + 4**n), 1))
            for k in range(n + 1):
                m = dyadic_cm_family(n, k)
                assert m.salem_factor() == expected
                assert m.h1_charpoly == IntPoly((1, -2, 3 + 4**n, -2, 1))

    def test_models_differ_across_k(self):
        a = dyadic_cm_family(2, 0)
        b = dyadic_cm_family(2, 2)
        assert a.matrix != b.matrix

    def test_bad_parameters(self):
        with pytest.raises(BadParametersError):
            dyadic_cm_family(0, 0)
        with pytest.raises(BadParametersError):
            dyadic_cm_family(1, 2)
        with pytest.raises(BadParametersError):
            dyadic_cm_family(2, -1)


class TestVerifyJd:
    def test_known_d1_models(self):
        m = quad_order_model(a_form_matrix(1, 1, 1))
        r = reorient(m)
        assert verify_jd(r, 1) is True
        assert verify_jd(r, 3) is False
        assert verify_jd(m, 1) is True

    def test_square_multiples(self):
        m = quad_order_model(a_form_matrix(2, 0, 1))
        assert verify_jd(m, 2) is True
        assert verify_jd(m, 8) is True  # 8 = 2^2 * 2
        assert verify_jd(m, 4) is False  # 4*2 not a perfect square

    def test_suborder_not_contained(self):
        # Z[sqrt-1] does not multiply the Z[sqrt-4] lattice
        m = quad_order_model(a_form_matrix(4, 1, 1))
        assert verify_jd(m, 1) is False
        assert verify_jd(m, 4) is True

    def test_not_applicable(self):
        m = from_quartic(IntPoly((1, 1, 0, 0, 1)))
        with pytest.raises(NotApplicableError):
            verify_jd(m, 1)

    def test_bad_d(self):
        m = quad_order_model(a_form_matrix(1, 1, 1))
        with pytest.raises(BadParametersError):
            verify_jd(m, 0)


class TestNsCharpoly:
    def test_formula_case(self):
        out = ns_charpoly(quad_order_model(a_form_matrix(1, 1, 1)))
        assert out == IntPoly((1, -2, -2, -2, 1))

    def test_excluded_case(self):
        out = ns_charpoly(quad_order_model(a_form_matrix(1, 0, 1)))
        assert out == IntPoly((1, -1, -4, -1, 1))
        from salemtori.poly import factor_bounded

        assert factor_bounded(out) == ((IntPoly((1, 1)), 2), (IntPoly((1, -3, 1)), 1))

    def test_consistency_with_h2(self):
        for d, b1, b2 in ((1, 1, 1), (2, 1, 1), (3, 0, 1), (5, 2, 1)):
            m = quad_order_model(a_form_matrix(d, b1, b2))
            out = ns_charpoly(m)
            assert m.h2_charpoly == IntPoly((1, -2, 1)) * out

    def test_3b_split(self):
        # t^2 - 4t + 1 realized by a quartic witness: NS = S * (t^2 + kt + 1)
        from salemtori.classify import realizable

        rep = realizable(IntPoly((1, -4, 1)))
        w = rep.witnesses[0]
        cl = w.classes[0]
        m = from_quartic(w.p_poly, cl.indices)
        out = ns_charpoly(m)
        assert not isinstance(out, NotForced)
        s = IntPoly((1, -4, 1))
        quot, rem = divmod(out, s)
        assert rem.is_zero
        assert quot.degree == 2 and quot.constant == 1
        assert m.h2_charpoly == out * (w.c_poly // quot)

    def test_exact_3b_split_matches_location(self):
        # every case-3b model among the corpus --entries matrices, in both
        # orientations: the quadratic that vanishes at delta is the one that
        # holds g1*g2, and after reorient the other one is
        checked = 0
        for d, entries in _unit_entries():
            v = [int(x) for x in entries.split(",")]
            qm = QuadOrderMatrix(d, (((v[0], v[1]), (v[2], v[3])), ((v[4], v[5]), (v[6], v[7]))))
            model = quad_order_model(qm)
            rest = model.salem_factor()
            if rest.degree != 2 or salem_case(rest)[0] != CASE_3B:
                continue
            quads = _split_complement(model.h2_charpoly // rest)
            for m in (model, reorient(model)):
                [located] = o_split_indices(m, quads)
                assert torus._det_factor(qm, quads) == (1 - located if m.reoriented else located)
                assert ns_charpoly(m) == rest * quads[1 - located]
                checked += 1
        assert checked == 24

    def test_exact_3b_split_rejects_a_foreign_determinant(self):
        quads = (IntPoly((1, -1, 1)), IntPoly((1, 1, 1)))
        with pytest.raises(CertificationError):
            torus._det_factor(a_form_matrix(1, 1, 1), quads)

    def test_not_forced_cases(self):
        assert isinstance(ns_charpoly(gl2z_model(5, 1)), NotForced)
        r = reorient(quad_order_model(a_form_matrix(1, 1, 1)))
        assert isinstance(ns_charpoly(r), NotForced)

    def test_zero_entropy_gate(self):
        ident = quad_order_model(QuadOrderMatrix(1, (((1, 0), (0, 0)), ((0, 0), (1, 0)))))
        with pytest.raises(ZeroEntropyError):
            ns_charpoly(ident)


class TestH20:
    def test_product_on_unit_circle_when_det_one(self):
        m = quad_order_model(a_form_matrix(1, 1, 1))
        prod = m.h20_product
        # det = 1 exactly, so the product box must contain 1
        assert prod.contains(Fraction(1), Fraction(0))

    def test_reoriented_product_moves(self):
        m = quad_order_model(a_form_matrix(1, 1, 1))
        r = reorient(m)
        assert not r.h20_product.contains(Fraction(1), Fraction(0))

    def test_refined(self):
        m = quad_order_model(a_form_matrix(1, 1, 1))
        fine = m.refined(Fraction(1, 1 << 40))
        assert fine.pairing == m.pairing
        for b in fine.root_boxes:
            assert b.re.width <= Fraction(1, 1 << 40)
