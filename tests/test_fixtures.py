"""The shipped fixture files stay in sync with the documented outputs."""

import io
from pathlib import Path

import pytest

from dihom.cli import run

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    assert err.getvalue() == ""
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize(
    "scene,expected",
    [("x.scene", 3), ("y.scene", 4), ("hole.scene", 2), ("wide.scene", 4)],
)
def test_scene_fixture_class_counts(scene, expected):
    assert invoke(["classes", str(FIXTURES / scene)]) == f"classes {expected}\n"


def test_ordered_circle_fixture():
    out = invoke(["hom", str(FIXTURES / "o1.complex"), "--from", "0", "--to", "1"])
    assert out == "classes 2\n"


def test_circle_fixture_monoid():
    out = invoke(
        ["monoid", str(FIXTURES / "circle.complex"), "--at", "*", "--max-len", "3"]
    )
    assert out.splitlines()[0] == "counts 1 1 1 1"


def test_torus_fixture_monoid_is_free_commutative():
    out = invoke(["monoid", str(FIXTURES / "torus.complex"), "--at", "v", "--max-len", "4"])
    assert out.splitlines()[0] == "counts 1 2 3 4 5"


@pytest.mark.parametrize("complex_,expected", [("circle.complex", "* *\n"),
                                               ("torus.complex", "v v\n")])
def test_loop_fixture_preorder(complex_, expected):
    # one vertex with loops on it (a square between them on the torus): one pair
    assert invoke(["preorder", str(FIXTURES / complex_)]) == expected


def test_category_fixtures():
    out = invoke(
        ["cat", "contractible", str(FIXTURES / "two.category"), "--direction", "past"]
    )
    assert out == "contractible past true object 0\n"
    out = invoke(
        ["cat", "equiv", str(FIXTURES / "two.category"), str(FIXTURES / "oc.category")]
    )
    assert out == "equivalent false\n"
    assert invoke(["cat", "faithful", str(FIXTURES / "inc.functor")]) == "faithful true\n"


def test_pushout_fixture_is_ordered_circle_presentation():
    out = invoke(
        [
            "cat", "pushout",
            str(FIXTURES / "discrete2.pres"),
            str(FIXTURES / "interval.pres"),
            str(FIXTURES / "interval.pres"),
            str(FIXTURES / "glue.morph"),
            str(FIXTURES / "glue.morph"),
        ]
    )
    assert out == "object 1:0\nobject 1:1\ngen 1:a 1:0 1:1\ngen 2:a 1:0 1:1\n"


def test_square_fixture_realizes_one_diagonal():
    out = invoke(["cat", "realize", str(FIXTURES / "square.pres")])
    assert out == (
        "objects 4\ntruncated false\n"
        "hom 00 00 1\nhom 00 01 1\nhom 00 10 1\nhom 00 11 1\nhom 01 01 1\n"
        "hom 01 11 1\nhom 10 10 1\nhom 10 11 1\nhom 11 11 1\n"
    )


def test_two_squares_glued_along_the_diagonal():
    square, edge = str(FIXTURES / "square.pres"), str(FIXTURES / "edge.morph")
    out = invoke(["cat", "pushout", str(FIXTURES / "interval.pres"), square, square, edge, edge])
    assert out == (
        "object 1:00\nobject 1:01\nobject 1:10\nobject 1:11\nobject 2:01\nobject 2:10\n"
        "gen 1:a 1:00 1:10\ngen 1:b 1:10 1:11\ngen 1:c 1:00 1:01\ngen 1:d 1:01 1:11\n"
        "gen 2:a 1:00 2:10\ngen 2:b 2:10 1:11\ngen 2:c 1:00 2:01\ngen 2:d 2:01 1:11\n"
        "rel 1:a;1:b = 1:c;1:d\nrel 1:a;1:b = 2:a;2:b\nrel 2:a;2:b = 2:c;2:d\n"
    )


def test_metric_fixture_quotient_is_circle():
    out = invoke(
        [
            "metric", "quotient",
            str(FIXTURES / "interval8.dmetric"),
            str(FIXTURES / "endpoints.rel"),
        ]
    )
    assert out.splitlines()[0] == "points 8 0 1/2 1/4 1/8 3/4 3/8 5/8 7/8"
    assert invoke(["metric", "validate", str(FIXTURES / "interval8.dmetric")]) == "valid true\n"
