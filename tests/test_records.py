"""The value-object contract of every record class the package exports.

A record compares equal to a record of the same class with equal fields and
to nothing else, hashes as the tuple of its fields, prints as
Name(field=value, ...), an IntPoly as IntPoly(polynomial), refuses
assignment and deletion, and survives pickle, copy and deepcopy.  The pinned reprs are part of the output:
CertificationError messages embed a ModelOrigin's repr.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from salemtori import (
    Box,
    ClassificationReport,
    Finite,
    InfiniteFamily,
    IntPoly,
    Interval,
    InversionCandidates,
    ModelOrigin,
    NotForced,
    NotSalem,
    NotSquare,
    PairingClass,
    QuadOrderMatrix,
    RootBox,
    SalemCertificate,
    SquareValues,
    TorusModel,
    Witness,
    a_form_matrix,
    is_projective,
    quad_order_model,
    reorient,
)

P = IntPoly((1, -3, 1))
IV = Interval(Fraction(5, 2), 3)
QM = QuadOrderMatrix(2, (((0, 0), (-1, 0)), ((1, 0), (0, 1))))
CERT = SalemCertificate(P, 2, IntPoly((-3, 1)), IV, 0)
PAIR = PairingClass("conjugate", (0, 2))
WIT = Witness(IntPoly((1, 0, 1)), IntPoly((1, 1)), IntPoly((1, 0, 0, 0, 1)), (PAIR,))

# (record, its field values in order, its repr)
RECORDS = [
    (P, ((1, -3, 1),), "IntPoly(t^2 - 3t + 1)"),
    (IV, (Fraction(5, 2), Fraction(3)), "Interval(lo=Fraction(5, 2), hi=Fraction(3, 1))"),
    (
        Box(IV, Interval(-1, 0)),
        (IV, Interval(-1, 0)),
        "Box(re=Interval(lo=Fraction(5, 2), hi=Fraction(3, 1)), im=Interval(lo=Fraction(-1, 1), hi=Fraction(0, 1)))",
    ),
    (
        NotSalem("reducible", IntPoly((1, 1)), "t + 1 divides it"),
        ("reducible", IntPoly((1, 1)), "t + 1 divides it"),
        "NotSalem(reason='reducible', witness=IntPoly(t + 1), detail='t + 1 divides it')",
    ),
    (
        CERT,
        (P, 2, IntPoly((-3, 1)), IV, 0),
        "SalemCertificate(poly=IntPoly(t^2 - 3t + 1), degree=2, trace_poly=IntPoly(t - 3), "
        "root_interval=Interval(lo=Fraction(5, 2), hi=Fraction(3, 1)), circle_root_count=0)",
    ),
    (
        RootBox(IV, Interval(0, 0), 1),
        (IV, Interval(0, 0), 1),
        "RootBox(re=Interval(lo=Fraction(5, 2), hi=Fraction(3, 1)), im=Interval(lo=Fraction(0, 1), hi=Fraction(0, 1)), "
        "conjugate_index=1)",
    ),
    (Finite(3), (3,), "Finite(count=3)"),
    (InfiniteFamily(1, "-"), (1, "-"), "InfiniteFamily(r=1, sign='-')"),
    (PAIR, ("conjugate", (0, 2), None), "PairingClass(kind='conjugate', indices=(0, 2), gl_params=None)"),
    (
        WIT,
        (IntPoly((1, 0, 1)), IntPoly((1, 1)), IntPoly((1, 0, 0, 0, 1)), (PAIR,)),
        "Witness(q_poly=IntPoly(t^2 + 1), c_poly=IntPoly(t + 1), p_poly=IntPoly(t^4 + 1), "
        "classes=(PairingClass(kind='conjugate', indices=(0, 2), gl_params=None),))",
    ),
    (
        ClassificationReport(CERT, "Case3a_deg2", 3, (1, "-"), ("projective",), (), InfiniteFamily(1, "-"), (WIT,)),
        (CERT, "Case3a_deg2", 3, (1, "-"), ("projective",), (), InfiniteFamily(1, "-"), (WIT,)),
        "ClassificationReport(salem=SalemCertificate(poly=IntPoly(t^2 - 3t + 1), degree=2, "
        "trace_poly=IntPoly(t - 3), root_interval=Interval(lo=Fraction(5, 2), hi=Fraction(3, 1)), "
        "circle_root_count=0), case_tag='Case3a_deg2', q_value=3, square_witness=(1, '-'), "
        "projective_types=('projective',), picard_ranks=(), finiteness=InfiniteFamily(r=1, sign='-'), "
        "witnesses=(Witness(q_poly=IntPoly(t^2 + 1), c_poly=IntPoly(t + 1), "
        "p_poly=IntPoly(t^4 + 1), classes=(PairingClass(kind='conjugate', indices=(0, 2), "
        "gl_params=None),)),))",
    ),
    (SquareValues(1, 2), (1, 2), "SquareValues(m=1, n=2)"),
    (NotSquare(-1, 5), (-1, 5), "NotSquare(point=-1, value=5)"),
    (
        InversionCandidates(IntPoly((1, 0, 1)), 0, None, None, (), (), "not-square"),
        (IntPoly((1, 0, 1)), 0, None, None, (), (), "not-square"),
        "InversionCandidates(sextic=IntPoly(t^2 + 1), a5=0, m=None, n=None, candidates=(), verified=(), "
        "obstruction='not-square')",
    ),
    (
        QM,
        (2, (((0, 0), (-1, 0)), ((1, 0), (0, 1)))),
        "QuadOrderMatrix(d_param=2, entries=(((0, 0), (-1, 0)), ((1, 0), (0, 1))))",
    ),
    (
        ModelOrigin("quad_order", (2, 0, 1), QM),
        ("quad_order", (2, 0, 1), QM),
        "ModelOrigin(family='quad_order', params=(2, 0, 1), "
        "quad=QuadOrderMatrix(d_param=2, entries=(((0, 0), (-1, 0)), ((1, 0), (0, 1)))))",
    ),
    (
        TorusModel(((1, 0), (0, 1)), P, IntPoly((1,)), P, (RootBox(IV, Interval(0, 0)),), (0, 0), True),
        (((1, 0), (0, 1)), P, IntPoly((1,)), P, (RootBox(IV, Interval(0, 0)),), (0, 0), True, None),
        "TorusModel(matrix=((1, 0), (0, 1)), h1_charpoly=IntPoly(t^2 - 3t + 1), h2_charpoly=IntPoly(1), "
        "root_poly=IntPoly(t^2 - 3t + 1), root_boxes=(RootBox(re=Interval(lo=Fraction(5, 2), hi=Fraction(3, 1)), "
        "im=Interval(lo=Fraction(0, 1), hi=Fraction(0, 1)), conjugate_index=None),), pairing=(0, 0), reoriented=True, "
        "origin=None)",
    ),
    (NotForced("rank data"), ("rank data",), "NotForced(reason='rank data')"),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


def test_every_record_class_is_pinned():
    assert len(set(IDS)) == len(IDS) == 18


@pytest.mark.parametrize("record, values, text", RECORDS, ids=IDS)
def test_repr(record, values, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, values, text", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(record, values, text):
    twin = type(record)(*values)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(values)
    # same fields, another class: a tuple, or a record of another kind
    assert record != values
    assert all(record != other for other, _, _ in RECORDS if other is not record)


def test_a_changed_field_breaks_equality():
    assert SquareValues(1, 2) != SquareValues(2, 1)
    assert SquareValues(1, 2) != NotSquare(1, 2)
    assert Interval(0, 1) != Interval(0, 2)
    assert IntPoly((1, 2)) != IntPoly((1, 2, 3))


@pytest.mark.parametrize("record, values, text", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise(record, values, text):
    name = "coeffs" if isinstance(record, IntPoly) else text[text.index("(") + 1 : text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("record, values, text", RECORDS, ids=IDS)
def test_fields_and_nothing_else(record, values, text):
    # no __dict__, so nothing but the slots can be stored on a record
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record, values, text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(record, values, text):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == text


@pytest.mark.parametrize("flip", [False, True])
def test_model_with_a_verdict_round_trips(flip):
    model = quad_order_model(a_form_matrix(2, 0, 1))
    model = reorient(model) if flip else model
    verdict = is_projective(model)
    for twin in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert twin == model and hash(twin) == hash(model)
        assert is_projective(twin) is verdict


def test_replace_runs_the_constructor():
    assert IV.replace(hi=4) == Interval(Fraction(5, 2), 4)
    assert IntPoly((1, 2)).replace(coeffs=(3, 0, 0)) == IntPoly((3,))
    assert PAIR.replace() == PAIR
    with pytest.raises(ValueError, match="inverted interval"):
        IV.replace(lo=4)
    with pytest.raises(TypeError):
        P.replace(coeffs=(1.5,))
    with pytest.raises(TypeError, match="width"):
        IV.replace(width=1)
