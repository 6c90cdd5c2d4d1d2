"""The value semantics of the library's result records: equality only
within one class, a hash over the compared fields, the field-by-field repr,
no assignment, and the checks made on construction."""

import copy
from fractions import Fraction

import pytest

from dihom import catho as ct
from dihom import dmetric as dm
from dihom import fundcat as fc
from dihom import gridscene as gs
from dihom import precubical as pc
from dihom.errors import DomainError

EDGE = "vertex a\nvertex b\nedge e a b\n"
PRES_REPR = "CatPresentation(objects=('a', 'b'), generators={'e': ('a', 'b')}, relations=())"
MORPH_REPR = (
    f"PresentationMorphism(source={PRES_REPR}, target={PRES_REPR}, "
    "obj_map={'a': 'a', 'b': 'b'}, gen_map={'e': ('e',)})"
)


def pres():
    return fc.CatPresentation(("a", "b"), {"e": ("a", "b")}, ())


def morph():
    return ct.PresentationMorphism(pres(), pres(), {"a": "a", "b": "b"}, {"e": ("e",)})


# (record class, arguments built afresh on each call, repr, hashable)
RECORDS = [
    (pc.Cell, lambda: (1, "e", "x"), "Cell(dim=1, id='e', label='x')", True),
    (pc.Violation, lambda: (1, "e", "src z is not a vertex"),
     "Violation(dim=1, cell='e', message='src z is not a vertex')", True),
    (fc.DiPath, lambda: (pc.parse_complex(EDGE), "a", ("e",)),
     "DiPath(start='a', edges=('e',))", True),
    (fc.HomClass, lambda: (("e",), 1), "HomClass(representative=('e',), size=1)", True),
    (fc.HomClassSet, lambda: ("a", "b", None, (fc.HomClass(("e",), 1),)),
     "HomClassSet(source='a', target='b', bound=None, "
     "classes=(HomClass(representative=('e',), size=1),))", True),
    (fc.MonoidClassTable, lambda: ("a", 2, (1,), ((),), {(0, 0): 0}),
     "MonoidClassTable(point='a', bound=2, counts=(1,), reps=((),), table={(0, 0): 0})",
     False),
    (fc.OneSimpleResult, lambda: (False, ("a", "b"), True),
     "OneSimpleResult(one_simple=False, witness=('a', 'b'), exact=True)", True),
    (fc.CatPresentation, lambda: (("a", "b"), {"e": ("a", "b")}, ()), PRES_REPR, False),
    (gs.Box, lambda: (0, 0, 1, 1), "Box(x0=0, y0=0, x1=1, y1=1)", True),
    (gs.GridScene, lambda: (2, 2, (gs.Box(0, 0, 1, 1),), (0, 0), (2, 2)),
     "GridScene(width=2, height=2, boxes=(Box(x0=0, y0=0, x1=1, y1=1),), "
     "source=(0, 0), target=(2, 2))", True),
    (ct.PresentationMorphism, lambda: (pres(), pres(), {"a": "a", "b": "b"}, {"e": ("e",)}),
     MORPH_REPR, False),
    (ct.Pushout, lambda: (pres(), morph(), morph()),
     f"Pushout(presentation={PRES_REPR}, left={MORPH_REPR}, right={MORPH_REPR})", False),
    (dm.DMetricSpace, lambda: (("0", "1"), ((0, Fraction(1, 2)), (dm.INF, 0))),
     "DMetricSpace(points=('0', '1'), dist=((0, Fraction(1, 2)), (inf, 0)))", True),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls,args,text,hashable", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(cls, args, text, hashable):
    a, b = cls(*args()), cls(*args())
    assert a == b and not a != b
    assert a is not b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls,args,text,hashable", RECORDS, ids=IDS)
def test_record_never_equals_another_class(cls, args, text, hashable):
    lookalike = type("Lookalike", (cls,), {})
    a, b = cls(*args()), lookalike(*args())
    assert a != b and b != a
    assert a != args() and a != tuple(args())


@pytest.mark.parametrize("cls,args,text,hashable", RECORDS, ids=IDS)
def test_repr_lists_the_fields(cls, args, text, hashable):
    record = cls(*args())
    assert repr(record) == text
    if cls is not pc.Violation:  # the one record with its own __str__
        assert str(record) == text


@pytest.mark.parametrize("cls,args,text,hashable", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise(cls, args, text, hashable):
    record = cls(*args())
    name = text[len(cls.__name__) + 1:].split("=", 1)[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    assert getattr(record, name) is before


@pytest.mark.parametrize("cls,args,text,hashable", RECORDS, ids=IDS)
def test_copies_are_equal(cls, args, text, hashable):
    record = cls(*args())
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record


def test_dipath_equality_and_repr_ignore_the_complex():
    k1 = pc.parse_complex(EDGE)
    k2 = pc.parse_complex(EDGE + "vertex c\nedge f b c\n")
    p, q = fc.DiPath(k1, "a", ("e",)), fc.DiPath(k2, "a", ("e",))
    assert p.complex is k1 and q.complex is k2
    assert p == q and hash(p) == hash(q)
    assert repr(p) == repr(q) == "DiPath(start='a', edges=('e',))"
    assert fc.DiPath(k1, "a") == fc.DiPath(k1, "a", ()) != p


def test_records_take_keyword_arguments_and_match_positionally():
    assert pc.Cell(dim=0, id="a") == pc.Cell(0, "a", None)
    assert fc.HomClass(size=1, representative=("e",)) == fc.HomClass(("e",), 1)
    match gs.Box(0, 1, 2, 3):
        case gs.Box(x0, y0, x1, y1):
            assert (x0, y0, x1, y1) == (0, 1, 2, 3)
    match fc.DiPath(pc.parse_complex(EDGE), "a", ("e",)):
        case fc.DiPath(_, start, edges):
            assert (start, edges) == ("a", ("e",))


def test_presentation_keeps_its_engine_after_first_use():
    p = pres()
    assert p._engine is p._engine


@pytest.mark.parametrize(
    "start,edges,message",
    [
        ("zz", (), "unknown vertex zz"),
        ("a", ("zz",), "unknown edge zz"),
        ("b", ("e",), "edge e does not start at b"),
    ],
)
def test_bad_dipath_raises_domain_error(start, edges, message):
    with pytest.raises(DomainError, match=message):
        fc.DiPath(pc.parse_complex(EDGE), start, edges)


@pytest.mark.parametrize(
    "points,dist,message",
    [
        (("0", "1", "0"), ((0,) * 3,) * 3, "duplicate point id 0"),
        (("0", "1"), ((0, 1),), "distance matrix shape does not match points"),
        (("0", "1"), ((0, 1), (0,)), "distance matrix shape does not match points"),
    ],
)
def test_bad_dmetric_space_raises_domain_error(points, dist, message):
    with pytest.raises(DomainError, match=message):
        dm.DMetricSpace(points, dist)
