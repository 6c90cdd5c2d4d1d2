import io
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dihom
from dihom import catho as ct
from dihom import dmetric as dm
from dihom import gridscene as gs
from dihom import precubical as pc
from dihom.cli import _sniff, run
from dihom.errors import InputSyntaxError

X_SCENE = "grid 6 6\nbox 1 1 4 2\nbox 1 4 4 5\nsource 0 0\ntarget 6 6\n"
HOLE_SCENE = "grid 3 3\nbox 1 1 2 2\nsource 0 0\ntarget 3 3\n"
OC_COMPLEX = "vertex 0\nvertex 1\nedge a 0 1\nedge b 0 1\n"
CIRCLE_COMPLEX = "vertex *\nedge a * *\n"
TWO_CATEGORY = "object 0\nobject 1\narrow a 0 1\n"
OC_CATEGORY = "object 0\nobject 1\narrow a 0 1\narrow b 0 1\n"
I4_DMETRIC = (
    "points 5 0 1/4 1/2 3/4 1\n"
    "0 1/4 1/2 3/4 1\n"
    "inf 0 1/4 1/2 3/4\n"
    "inf inf 0 1/4 1/2\n"
    "inf inf inf 0 1/4\n"
    "inf inf inf inf 0\n"
)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def workdir(tmp_path):
    files = {
        "x.scene": X_SCENE,
        "hole.scene": HOLE_SCENE,
        "o1.complex": OC_COMPLEX,
        "circle.complex": CIRCLE_COMPLEX,
        "two.category": TWO_CATEGORY,
        "oc.category": OC_CATEGORY,
        "i4.dmetric": I4_DMETRIC,
        "ends.rel": "0 1\n",
        "interval.pres": "object 0\nobject 1\ngen a 0 1\n",
        "discrete2.pres": "object p\nobject q\n",
        "glue.morph": "object p 0\nobject q 1\n",
        "inc.functor": (
            "domain two.category\ncodomain oc.category\n"
            "object 0 0\nobject 1 1\narrow a a\n"
        ),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def test_classes_verb(workdir):
    code, out, err = invoke(["classes", str(workdir / "x.scene")])
    assert (code, err) == (0, "")
    assert out == "classes 3\n"
    path = str(workdir / "o1.complex")
    assert invoke(["classes", path]) == (2, "", f"error: {path}: classes wants a scene file\n")


def test_classes_respects_max_len(workdir):
    code, out, _ = invoke(["classes", str(workdir / "hole.scene"), "--max-len", "4"])
    assert code == 0
    assert out == "classes 0\n"


def test_hom_verb_with_reps(workdir):
    code, out, _ = invoke(
        ["hom", str(workdir / "o1.complex"), "--from", "0", "--to", "1", "--reps"]
    )
    assert code == 0
    assert out == "classes 2\nclass 0 size 1 rep a\nclass 1 size 1 rep b\n"


def test_hom_verb_works_on_scenes(workdir):
    code, out, _ = invoke(
        ["hom", str(workdir / "hole.scene"), "--from", "v0_0", "--to", "v3_3"]
    )
    assert (code, out) == (0, "classes 2\n")


def test_hom_unbounded_on_cyclic_exits_one(workdir):
    code, out, err = invoke(
        ["hom", str(workdir / "circle.complex"), "--from", "*", "--to", "*"]
    )
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""


def test_hom_bounded_on_cyclic(workdir):
    code, out, _ = invoke(
        ["hom", str(workdir / "circle.complex"), "--from", "*", "--to", "*",
         "--max-len", "3"]
    )
    assert (code, out) == (0, "classes 4\n")


def test_pi0_verb(workdir):
    code, out, _ = invoke(["pi0", str(workdir / "o1.complex")])
    assert (code, out) == (0, "components 1\ncomponent 0 0 1\n")


def test_preorder_verb(workdir):
    code, out, _ = invoke(["preorder", str(workdir / "o1.complex")])
    assert (code, out) == (0, "0 0\n0 1\n1 1\n")


def test_one_simple_verb(workdir):
    code, out, _ = invoke(["one-simple", str(workdir / "o1.complex")])
    assert (code, out) == (0, "one-simple false witness 0 1\n")
    code, out, _ = invoke(["one-simple", str(workdir / "circle.complex")])
    assert code == 1
    full = workdir / "full.scene"
    full.write_text("grid 2 2\nsource 0 0\ntarget 2 2\n")
    assert invoke(["one-simple", str(full)]) == (0, "one-simple true\n", "")


def test_monoid_verb(workdir):
    code, out, _ = invoke(
        ["monoid", str(workdir / "circle.complex"), "--at", "*", "--max-len", "2"]
    )
    assert code == 0
    assert out.splitlines()[0] == "counts 1 1 1"
    assert "concat 1 1 = 2" in out


def test_cat_contractible(workdir):
    code, out, _ = invoke(
        ["cat", "contractible", str(workdir / "two.category"), "--direction", "past"]
    )
    assert (code, out) == (0, "contractible past true object 0\n")
    code, out, _ = invoke(
        ["cat", "contractible", str(workdir / "oc.category"), "--direction", "future"]
    )
    assert (code, out) == (0, "contractible future false\n")


def test_cat_equiv(workdir):
    code, out, _ = invoke(
        ["cat", "equiv", str(workdir / "two.category"), str(workdir / "two.category")]
    )
    assert (code, out) == (0, "equivalent true\n")
    code, out, _ = invoke(
        ["cat", "equiv", str(workdir / "two.category"), str(workdir / "oc.category")]
    )
    assert (code, out) == (0, "equivalent false\n")


def test_cat_equiv_on_thin_categories_above_the_guard(workdir):
    # 7 objects each: the chain 0 < ... < 6, and the 4-crown a0, a1 < b0, b1
    # with the beat points c < a0, b0 < d and a1 < e hung on
    crown = ct.poset_category(
        ["a0", "a1", "b0", "b1", "c", "d", "e"],
        [("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1"),
         ("c", "a0"), ("b0", "d"), ("a1", "e")],
    )
    (workdir / "chain7.category").write_text(ct.format_category(ct.ordinal(7)))
    (workdir / "crown7.category").write_text(ct.format_category(crown))
    two = str(workdir / "two.category")
    for name, answer in (("chain7", "true"), ("crown7", "false")):
        path = str(workdir / f"{name}.category")
        assert invoke(["cat", "equiv", path, two]) == (0, f"equivalent {answer}\n", "")
        assert invoke(["cat", "equiv", two, path]) == (0, f"equivalent {answer}\n", "")


def test_cat_pushout(workdir):
    code, out, _ = invoke(
        [
            "cat", "pushout",
            str(workdir / "discrete2.pres"),
            str(workdir / "interval.pres"),
            str(workdir / "interval.pres"),
            str(workdir / "glue.morph"),
            str(workdir / "glue.morph"),
        ]
    )
    assert code == 0
    assert out == (
        "object 1:0\nobject 1:1\ngen 1:a 1:0 1:1\ngen 2:a 1:0 1:1\n"
    )


def test_cat_realize(workdir):
    code, out, _ = invoke(["cat", "realize", str(workdir / "interval.pres")])
    assert code == 0
    assert out == "objects 2\ntruncated false\nhom 0 0 1\nhom 0 1 1\nhom 1 1 1\n"


def test_cat_faithful(workdir):
    code, out, _ = invoke(["cat", "faithful", str(workdir / "inc.functor")])
    assert (code, out) == (0, "faithful true\n")


def test_metric_validate(workdir):
    code, out, _ = invoke(["metric", "validate", str(workdir / "i4.dmetric")])
    assert (code, out) == (0, "valid true\n")


def test_metric_validate_reports_violations(workdir, tmp_path):
    bad = tmp_path / "bad.dmetric"
    bad.write_text("points 2 a b\n0 1\n1 1\n")
    code, out, _ = invoke(["metric", "validate", str(bad)])
    assert code == 0
    assert out.startswith("valid false")


def test_metric_quotient_endpoints_gives_circle(workdir):
    code, out, _ = invoke(
        ["metric", "quotient", str(workdir / "i4.dmetric"), str(workdir / "ends.rel")]
    )
    assert code == 0
    assert out.splitlines()[0] == "points 4 0 1/2 1/4 3/4"
    assert "inf" not in out  # every pair is reachable around the circle


def test_metric_product_and_sum(workdir):
    code, out, _ = invoke(
        ["metric", "product", str(workdir / "i4.dmetric"), str(workdir / "i4.dmetric")]
    )
    assert code == 0 and out.startswith("points 25 ")
    code, out, _ = invoke(
        ["metric", "sum", str(workdir / "i4.dmetric"), str(workdir / "i4.dmetric")]
    )
    assert code == 0 and out.startswith("points 10 ")


def test_metric_ball(workdir):
    code, out, _ = invoke(
        ["metric", "ball", str(workdir / "i4.dmetric"), "--at", "0",
         "--eps", "1/2", "--direction", "future"]
    )
    assert (code, out) == (0, "ball 2\n0\n1/4\n")
    code, out, _ = invoke(
        ["metric", "ball", str(workdir / "i4.dmetric"), "--at", "0",
         "--eps", "0", "--direction", "past"]
    )
    assert (code, out) == (0, "ball 0\n")


def test_export_dot_complex_with_highlight(workdir, tmp_path):
    target = tmp_path / "out.dot"
    code, _, _ = invoke(
        ["export-dot", str(workdir / "hole.scene"), "-o", str(target),
         "--highlight", "1"]
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph ")
    assert "color=red" in text


def test_export_dot_complex_highlight_between_given_vertices(workdir, tmp_path):
    target = tmp_path / "o1.dot"
    base = ["export-dot", str(workdir / "o1.complex"), "-o", str(target), "--highlight", "1"]
    assert invoke(base + ["--from", "0", "--to", "1"]) == (0, "", "")
    assert target.read_text() == (
        'digraph "o1" {\n'
        '  "0" [label="0"];\n'
        '  "1" [label="1"];\n'
        '  "0" -> "1" [label="a"];\n'
        '  "0" -> "1" [label="b", color=red, penwidth=2.0];\n'
        "}\n"
    )
    refused = (1, "", "error: --highlight needs --from and --to on a complex\n")
    for ends in ([], ["--from", "0"], ["--to", "1"]):
        assert invoke(base + ends) == refused


def test_export_dot_category(workdir, tmp_path):
    target = tmp_path / "cat.dot"
    code, _, _ = invoke(["export-dot", str(workdir / "oc.category"), "-o", str(target)])
    assert code == 0
    assert '"0" -> "1"' in target.read_text()


def test_unknown_verb_exits_two():
    code, out, err = invoke(["frobnicate"])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_flag_exits_two(workdir):
    code, _, err = invoke(["classes", str(workdir / "x.scene"), "--wat"])
    assert code == 2
    assert err.startswith("error: ")


def test_missing_file_exits_two():
    code, _, err = invoke(["classes", "/nonexistent/path.scene"])
    assert code == 2
    assert err.startswith("error: ")


def test_syntax_error_exits_two(workdir, tmp_path):
    bad = tmp_path / "bad.scene"
    bad.write_text("grid 3 3\nbox 9 9 1 1\nsource 0 0\ntarget 3 3\n")
    code, _, err = invoke(["classes", str(bad)])
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "text,line,reason",
    [
        ("object 0\nobject 0\nobject 1\n", 2, "duplicate object id 0"),
        ("object 0\nobject 1\narrow a x 1\n", 3, "arrow a: endpoint x is not an object"),
        ("arrow a 0 y\nobject 0\n", 1, "arrow a: endpoint y is not an object"),
    ],
)
def test_category_syntax_errors_name_their_line(tmp_path, text, line, reason):
    bad = tmp_path / "bad.category"
    bad.write_text(text)
    code, out, err = invoke(["cat", "equiv", str(bad), str(bad)])
    assert (code, out, err) == (2, "", f"error: line {line}: {reason}\n")


FORMAT_PARSERS = {
    "complex": pc.parse_complex,
    "scene": gs.parse_scene,
    "category": ct.parse_category,
    "presentation": ct.parse_presentation,
    "functor": lambda text: ct.parse_functor(text, resolve=None),
    "morphism": lambda text: ct.parse_presentation_morphism(text, None, None),
    "metric": dm.parse_dmetric,
    "relation": dm.parse_relation,
}
# (format, faulty line, its message): every directive one token short, the
# `=` of compose and rel, and an unknown directive
FORMAT_ERRORS = [
    ("complex", "vertex", "vertex wants 1 field: vertex <id>"),
    ("complex", "edge a 0", "edge wants 3 fields: edge <id> <src> <tgt>"),
    ("complex", "square w a b c", "square wants 5 fields: square <id> <d1m> <d1p> <d2m> <d2p>"),
    ("complex", "zzz 0", "unknown directive 'zzz'"),
    ("scene", "grid 3", "grid wants 2 integers"),
    ("scene", "box 0 0 1", "box wants 4 integers"),
    ("scene", "source 0", "source wants 2 integers"),
    ("scene", "target 0", "target wants 2 integers"),
    ("scene", "zzz 0 0", "unknown directive 'zzz'"),
    ("category", "object", "object wants 1 field"),
    ("category", "arrow a 0", "arrow wants 3 fields"),
    ("category", "compose f g =", "compose wants: compose <f> <g> = <h>"),
    ("category", "compose f g : h", "compose wants: compose <f> <g> = <h>"),
    ("category", "zzz", "unknown directive 'zzz'"),
    ("presentation", "object", "object wants 1 field"),
    ("presentation", "gen g 0", "gen wants 3 fields"),
    ("presentation", "rel a =", "rel wants: rel <word> = <word>"),
    ("presentation", "rel a : b", "rel wants: rel <word> = <word>"),
    ("presentation", "zzz", "unknown directive 'zzz'"),
    ("functor", "domain", "domain wants 1 field"),
    ("functor", "codomain", "codomain wants 1 field"),
    ("functor", "object 0", "object wants 2 fields"),
    ("functor", "arrow a", "arrow wants 2 fields"),
    ("functor", "zzz", "unknown directive 'zzz'"),
    ("morphism", "object p", "object wants 2 fields"),
    ("morphism", "gen g", "gen wants 2 fields"),
    ("morphism", "zzz", "unknown directive 'zzz'"),
    ("metric", "points", "first line must be: points <n> <ids...>"),
    ("metric", "points 2 a", "expected 2 point ids, got 1"),
    ("metric", "zzz", "first line must be: points <n> <ids...>"),
    ("relation", "a", "relation line wants 2 point ids"),
]


@pytest.mark.parametrize(
    "fmt,line,reason", FORMAT_ERRORS,
    ids=[f"{fmt}-{line}" for fmt, line, _ in FORMAT_ERRORS],
)
def test_each_format_names_the_faulty_line(fmt, line, reason):
    # comment-only and blank lines count, and a trailing comment is cut
    text = f"# leading comment\n\n   # indented comment\n{line}  # trailing\n"
    with pytest.raises(InputSyntaxError) as exc:
        FORMAT_PARSERS[fmt](text)
    assert str(exc.value) == f"line 4: {reason}"


def test_metric_row_one_entry_short_names_its_line():
    text = "points 2 a b\n# comment\n\n0 0\n0 # short\n"
    with pytest.raises(InputSyntaxError, match=r"^line 5: expected 2 entries in row$"):
        dm.parse_dmetric(text)


def test_sniff_reads_the_first_directive():
    assert _sniff("# only a comment\n\n   # and another\n") == ""
    assert _sniff("\n# comment\n  grid 3 3 # trailing\n") == "grid"


def test_repeated_presentation_object_exits_two(tmp_path):
    bad = tmp_path / "dup.pres"
    bad.write_text("object a\nobject a\nobject b\ngen g a b\n")
    code, out, err = invoke(["cat", "realize", str(bad)])
    assert (code, out, err) == (2, "", "error: line 2: duplicate object id a\n")


def test_realize_cyclic_without_bound_exits_one(workdir, tmp_path):
    circ = tmp_path / "circle.pres"
    circ.write_text("object *\ngen a * *\n")
    code, _, err = invoke(["cat", "realize", str(circ)])
    assert code == 1
    assert err.startswith("error: ")
    code, out, _ = invoke(["cat", "realize", str(circ), "--bound", "4"])
    assert code == 0
    assert "truncated true" in out and "hom * * 5" in out


def test_pushout_with_bad_morphism_exits_one(workdir, tmp_path):
    bad = tmp_path / "bad.morph"
    bad.write_text("object p nowhere\nobject q 1\n")
    code, _, err = invoke(
        [
            "cat", "pushout",
            str(workdir / "discrete2.pres"),
            str(workdir / "interval.pres"),
            str(workdir / "interval.pres"),
            str(bad),
            str(workdir / "glue.morph"),
        ]
    )
    assert code == 1
    assert err.startswith("error: ")



def test_relation_with_unknown_generator_exits_two(tmp_path):
    bad = tmp_path / "bad.pres"
    bad.write_text("object 0\nobject 1\ngen a 0 1\nrel a = zz\n")
    code, out, err = invoke(["cat", "realize", str(bad)])
    assert (code, out, err) == (2, "", "error: relation 0: unknown generator zz\n")


def test_morphism_image_with_unknown_generator_exits_one(workdir, tmp_path):
    bad = tmp_path / "bad.morph"
    bad.write_text("object 0 0\nobject 1 1\ngen a nope\n")
    itv = str(workdir / "interval.pres")
    code, out, err = invoke(["cat", "pushout", itv, itv, itv, str(bad), str(bad)])
    assert (code, out) == (1, "")
    assert err == (
        "error: ill-formed presentation morphism: generator a: image unknown generator nope\n"
    )


def test_morphism_lines_for_names_the_source_lacks_exit_one(workdir):
    (workdir / "u.morph").write_text("object p 0\nobject q 1\nobject zz 0\ngen nope a\n")
    files = ["discrete2.pres", "interval.pres", "interval.pres", "u.morph", "glue.morph"]
    code, out, err = invoke(["cat", "pushout", *(str(workdir / f) for f in files)])
    assert (code, out) == (1, "")
    assert err == (
        "error: ill-formed presentation morphism: object zz: not an object of the source; "
        "generator nope: not a generator of the source\n"
    )


Z3_CATEGORY = (
    "object *\narrow g1 * *\narrow g2 * *\ncompose g1 g1 = g2\n"
    "compose g1 g2 = id(*)\ncompose g2 g1 = id(*)\ncompose g2 g2 = g1\n"
)


@pytest.mark.parametrize(
    "arrows,first",
    [
        ("arrow id(*) g1\narrow g1 g1\narrow g2 g2\n", "identity of * not preserved"),
        ("arrow g1 g1\narrow g2 g1\n", "composition (g1;g1) not preserved"),
    ],
    ids=["identity", "composition"],
)
def test_faithful_on_a_non_functor_exits_one(tmp_path, arrows, first):
    (tmp_path / "z3.category").write_text(Z3_CATEGORY)
    fun = tmp_path / "bad.functor"
    fun.write_text("domain z3.category\ncodomain z3.category\nobject * *\n" + arrows)
    code, out, err = invoke(["cat", "faithful", str(fun)])
    assert (code, out) == (1, "")
    assert err == (
        f"error: {fun}: {first}; composition (g1;g2) not preserved; "
        "composition (g2;g1) not preserved\n"
    )


def test_functor_lines_for_names_the_domain_lacks_exit_one(workdir):
    fun = workdir / "f.functor"
    fun.write_text(
        "domain two.category\ncodomain oc.category\n"
        "object 0 0\nobject 1 1\narrow a a\nobject zz 0\narrow nope b\n"
    )
    code, out, err = invoke(["cat", "faithful", str(fun)])
    assert (code, out) == (1, "")
    assert err == (
        f"error: {fun}: object zz: not an object of the domain; "
        "arrow nope: not an arrow of the domain\n"
    )


FUNCTOR_HEAD = "domain two.category\ncodomain oc.category\n"


@pytest.mark.parametrize(
    "name,text,verb,message",
    [
        ("idem.category", "object 0\narrow e 0 0\ncompose e e = e\ncompose e e = id(0)\n",
         ["cat", "equiv", "idem.category", "two.category"], "line 4: duplicate compose e e"),
        ("f.functor", FUNCTOR_HEAD + "domain oc.category\nobject 0 0\nobject 1 1\n",
         ["cat", "faithful", "f.functor"], "line 3: duplicate domain"),
        ("f.functor", FUNCTOR_HEAD + "object 0 0\ncodomain oc.category\nobject 1 1\n",
         ["cat", "faithful", "f.functor"], "line 4: duplicate codomain"),
        ("f.functor", FUNCTOR_HEAD + "object 0 0\nobject 1 1\nobject 0 1\n",
         ["cat", "faithful", "f.functor"], "line 5: duplicate object 0"),
        ("f.functor", FUNCTOR_HEAD + "object 0 0\nobject 1 1\narrow a a\narrow a b\n",
         ["cat", "faithful", "f.functor"], "line 6: duplicate arrow a"),
        ("u.morph", "object p 0\nobject q 1\nobject p 1\n",
         ["cat", "pushout", "discrete2.pres", "interval.pres", "interval.pres", "u.morph",
          "glue.morph"], "line 3: duplicate object p"),
        ("u.morph", "object 0 0\nobject 1 1\ngen a a\ngen a a\n",
         ["cat", "pushout", "interval.pres", "interval.pres", "interval.pres", "u.morph",
          "u.morph"], "line 4: duplicate gen a"),
        ("dup.dmetric", "# two names for one point\npoints 2 a a\n0 1\n1 0\n",
         ["metric", "validate", "dup.dmetric"], "line 2: duplicate point id a"),
    ],
    ids=["compose", "domain", "codomain", "functor-object", "functor-arrow",
         "morphism-object", "morphism-gen", "point"],
)
def test_repeated_line_exits_two_naming_line_and_key(workdir, name, text, verb, message):
    (workdir / name).write_text(text)
    argv = [str(workdir / a) if (workdir / a).exists() else a for a in verb]
    assert invoke(argv) == (2, "", f"error: {message}\n")

def test_quotient_with_unknown_point_exits_one(workdir, tmp_path):
    rel = tmp_path / "bad.rel"
    rel.write_text("0 missing\n")
    code, _, err = invoke(
        ["metric", "quotient", str(workdir / "i4.dmetric"), str(rel)]
    )
    assert code == 1
    assert err.startswith("error: ")


def test_monoid_unknown_vertex_exits_one(workdir):
    code, _, err = invoke(
        ["monoid", str(workdir / "circle.complex"), "--at", "zz", "--max-len", "2"]
    )
    assert code == 1
    assert err.startswith("error: ")


def test_highlight_out_of_range_exits_one(workdir, tmp_path):
    code, _, err = invoke(
        ["export-dot", str(workdir / "hole.scene"), "-o", str(tmp_path / "x.dot"),
         "--highlight", "9"]
    )
    assert code == 1
    assert "out of range" in err


def test_outputs_are_byte_identical_across_runs(workdir):
    for argv in (
        ["classes", str(workdir / "x.scene")],
        ["hom", str(workdir / "o1.complex"), "--from", "0", "--to", "1", "--reps"],
        ["preorder", str(workdir / "hole.scene")],
        ["metric", "quotient", str(workdir / "i4.dmetric"), str(workdir / "ends.rel")],
    ):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


def test_classes_on_a_long_thin_grid(tmp_path):
    # dipaths of 1201 edges: deeper than the interpreter's recursion limit
    scene = tmp_path / "long.scene"
    scene.write_text("grid 1200 1\nsource 0 0\ntarget 1200 1\n")
    assert invoke(["classes", str(scene)]) == (0, "classes 1\n", "")


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# the verb each fixture is run through; file names resolve in one directory
FUZZ_VERBS = {
    "circle.complex": ["monoid", "circle.complex", "--at", "*", "--max-len", "3"],
    "o1.complex": ["hom", "o1.complex", "--from", "0", "--to", "1", "--reps"],
    "hole.scene": ["classes", "hole.scene"],
    "x.scene": ["hom", "x.scene", "--from", "v0_0", "--to", "v6_6", "--reps"],
    "y.scene": ["one-simple", "y.scene"],
    "two.category": ["cat", "equiv", "two.category", "oc.category"],
    "oc.category": ["cat", "equiv", "oc.category", "two.category"],
    "inc.functor": ["cat", "faithful", "inc.functor"],
    "discrete2.pres": ["cat", "pushout", "discrete2.pres", "interval.pres",
                       "interval.pres", "glue.morph", "glue.morph"],
    "glue.morph": ["cat", "pushout", "discrete2.pres", "interval.pres",
                   "interval.pres", "glue.morph", "glue.morph"],
    "interval.pres": ["cat", "realize", "interval.pres", "--bound", "3"],
    "interval8.dmetric": ["metric", "ball", "interval8.dmetric", "--at", "1/4",
                          "--eps", "1/2", "--direction", "future"],
    "endpoints.rel": ["metric", "quotient", "interval8.dmetric", "endpoints.rel"],
    "square.pres": ["cat", "realize", "square.pres"],
    "edge.morph": ["cat", "pushout", "interval.pres", "square.pres", "square.pres",
                   "edge.morph", "edge.morph"],
    "torus.complex": ["monoid", "torus.complex", "--at", "v", "--max-len", "4"],
}
# small integers only: a mutation like "grid 6 99999" is slow, not wrong
FUZZ_TOKENS = ("0", "1", "2", "-1", "x", "*", "a", "b", "=", ";", "1/2", "inf",
               "id(0)", "object", "arrow", "gen", "box")


def _mutate(rng, lines):
    lines = list(lines)
    i = rng.randrange(len(lines))
    kind = rng.randrange(3)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    else:
        tok = lines[i].split()
        if tok:
            tok[rng.randrange(len(tok))] = rng.choice(FUZZ_TOKENS)
        lines[i] = " ".join(tok)
    return lines


def test_fuzzed_fixtures_fail_with_one_error_line(tmp_path):
    assert sorted(FUZZ_VERBS) == sorted(p.name for p in FIXTURES.iterdir())
    rng = random.Random(4)
    for name, verb in FUZZ_VERBS.items():
        lines = (FIXTURES / name).read_text().splitlines()
        for trial in range(40):
            work = tmp_path / f"{name}-{trial}"
            shutil.copytree(FIXTURES, work)
            (work / name).write_text("\n".join(_mutate(rng, lines)) + "\n")
            argv = [str(work / a) if (work / a).exists() else a for a in verb]
            code, _, err = invoke(argv)
            if code == 0:
                assert err == ""
            else:
                assert err.startswith("error: ") and err.count("\n") == 1, (name, trial)


def test_repeated_vertex_line_exits_two_naming_line_and_id(tmp_path):
    bad = tmp_path / "dup.complex"
    bad.write_text("vertex 0\nvertex 1\nedge a 0 1\nvertex 0\n")
    code, out, err = invoke(["pi0", str(bad)])
    assert (code, out, err) == (2, "", "error: line 4: duplicate vertex id 0\n")


@pytest.mark.parametrize(
    "verb",
    [["pi0", "{}"], ["metric", "validate", "{}"]],
    ids=["pi0", "metric-validate"],
)
def test_non_utf8_input_exits_two(tmp_path, verb):
    bad = tmp_path / "bad.complex"
    bad.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = invoke([a.format(bad) for a in verb])
    assert (code, out, err) == (2, "", f"error: cannot read {bad}: not UTF-8 text\n")


def test_monoid_length_bound_past_the_class_cap_exits_one(tmp_path):
    k = tmp_path / "ab.complex"
    k.write_text("vertex a\nvertex b\nedge e a b\n")
    code, out, err = invoke(
        ["monoid", str(k), "--at", "a", "--max-len", "10000000000000000000"]
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: length bound ") and err.count("\n") == 1


def test_monoid_table_past_the_class_cap_exits_one(workdir):
    # the length bound passes the class-count guard; the table would not fit
    code, out, err = invoke(
        ["monoid", str(workdir / "circle.complex"), "--at", "*", "--max-len", "999999"]
    )
    assert (code, out) == (1, "")
    assert "concatenation table entries" in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["hom", "x.scene", "--from", "v0_0", "--to", "v0_0", "--max-len", "-1"],
    ["classes", "x.scene", "--max-len", "-1"],
    ["cat", "realize", "interval.pres", "--bound", "-1"],
    ["export-dot", "x.scene", "--max-len", "-1", "-o", "out.dot"],
    ["monoid", "circle.complex", "--at", "*", "--max-len", "-1"],
])
def test_negative_length_bound_exits_one(workdir, argv):
    code, out, err = invoke([str(workdir / a) if "." in a else a for a in argv])
    assert (code, out, err) == (1, "", "error: length bound -1 is negative\n")


def test_scene_past_the_lattice_point_cap_exits_one(tmp_path):
    big = tmp_path / "big.scene"
    big.write_text("grid 100000 100000\nsource 0 0\ntarget 1 1\n")
    code, out, err = invoke(["classes", str(big)])
    assert (code, out) == (1, "")
    assert err == "error: scene has 10000200001 lattice points (guard 1000000)\n"


def test_metric_product_past_the_point_cap_exits_one(workdir):
    code, out, err = invoke(["metric", "product"] + [str(workdir / "i4.dmetric")] * 5)
    assert (code, out, err) == (1, "", "error: product has 3125 points (guard 1000)\n")


# a fresh interpreter: this one has already imported every dihom module
LOADED_MODULES = (
    "import sys; sys.path.insert(0, sys.argv[1]); from dihom.cli import main; "
    "code = main(sys.argv[2:]); "
    "sys.stderr.write(' '.join(sorted(m for m in sys.modules if m.startswith('dihom.')))); "
    "sys.exit(code)"
)
PI0_MODULES = "dihom._kernels dihom.cli dihom.errors dihom.fundcat dihom.precubical"


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (["pi0", "circle.complex"], PI0_MODULES),
        (
            ["hom", "hole.scene", "--from", "v0_0", "--to", "v3_3"],
            PI0_MODULES + " dihom.gridscene",
        ),
        (
            ["metric", "quotient", "i4.dmetric", "ends.rel"],
            "dihom._kernels dihom.cli dihom.dmetric dihom.errors",
        ),
        (["cat", "equiv", "two.category", "oc.category"], PI0_MODULES + " dihom.catho"),
        (
            ["export-dot", "o1.complex", "-o", "o1.dot"],
            "dihom.cli dihom.dot dihom.errors dihom.precubical",
        ),
        (
            ["export-dot", "two.category", "-o", "two.dot"],
            PI0_MODULES + " dihom.catho dihom.dot",
        ),
    ],
    ids=["pi0", "hom-scene", "metric-quotient", "cat-equiv", "dot-complex", "dot-category"],
)
def test_each_verb_loads_only_its_modules(workdir, argv, loaded):
    src = str(Path(dihom.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, src, *argv],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(proc.stderr.split()) == sorted(loaded.split())


# one fixture command per verb (the two-hash-seed list of CI), run from the
# repository root; export-dot writes into the test's directory
VERB_COMMANDS = [
    "classes fixtures/x.scene",
    "hom fixtures/o1.complex --from 0 --to 1 --reps",
    "pi0 fixtures/hole.scene",
    "preorder fixtures/hole.scene",
    "one-simple fixtures/y.scene",
    "monoid fixtures/torus.complex --at v --max-len 4",
    "cat contractible fixtures/two.category --direction past",
    "cat equiv fixtures/two.category fixtures/oc.category",
    "cat faithful fixtures/inc.functor",
    "cat pushout fixtures/discrete2.pres fixtures/interval.pres fixtures/interval.pres"
    " fixtures/glue.morph fixtures/glue.morph",
    "cat pushout fixtures/interval.pres fixtures/square.pres fixtures/square.pres"
    " fixtures/edge.morph fixtures/edge.morph",
    "cat realize fixtures/interval.pres",
    "cat realize fixtures/square.pres",
    "metric validate fixtures/interval8.dmetric",
    "metric product fixtures/interval8.dmetric fixtures/interval8.dmetric",
    "metric sum fixtures/interval8.dmetric fixtures/interval8.dmetric",
    "metric quotient fixtures/interval8.dmetric fixtures/endpoints.rel",
    "metric ball fixtures/interval8.dmetric --at 1/4 --eps 1/2 --direction future",
    "export-dot fixtures/o1.complex -o {out}",
    "export-dot fixtures/two.category -o {out}",
]
SLOW_IMPORTS = (
    "import sys; sys.path.insert(0, sys.argv[1]); from dihom.cli import main; "
    "code = main(sys.argv[2:]); "
    "sys.stderr.write(' '.join({'dataclasses', 'inspect'} & set(sys.modules))); "
    "sys.exit(code)"
)


@pytest.mark.parametrize(
    "cmd", VERB_COMMANDS, ids=[c.split(" fixtures")[0] for c in VERB_COMMANDS]
)
def test_no_verb_imports_dataclasses_or_inspect(tmp_path, cmd):
    src = str(Path(dihom.__file__).resolve().parents[1])
    argv = cmd.format(out=tmp_path / "out.dot").split()
    proc = subprocess.run(
        [sys.executable, "-c", SLOW_IMPORTS, src, *argv],
        cwd=Path(src).parent, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
