import io
import itertools
import os
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import dihom
from dihom import catho as ct
from dihom import cli
from dihom import dmetric as dm
from dihom import dot
from dihom import gridscene as gs
from dihom import precubical as pc
from dihom.cli import _sniff, run
from dihom.errors import InputSyntaxError
from oracles import (
    format_hom_classes_oracle,
    hom_classes_record_oracle,
    realize_word_sweep_oracle,
)
from test_fundcat import random_cases

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


@pytest.mark.parametrize("options,result", [
    (["--from", "v9_9", "--to", "v3_3"], (1, "", "error: unknown vertex v9_9\n")),
    (["--from", "v01_1", "--to", "v3_3"], (1, "", "error: unknown vertex v01_1\n")),
    (["--from", "v0_0", "--to", "v01_1"], (1, "", "error: unknown vertex v01_1\n")),
    (["--from", "v2_2", "--to", "v1_1", "--max-len", "-1"],
     (1, "", "error: length bound -1 is negative\n")),
    (["--from", "v2_2", "--to", "v1_1"], (0, "classes 0\n", "")),
    (["--from", "v3_0", "--to", "v0_3"], (0, "classes 0\n", "")),
    (["--from", "v1_1", "--to", "v1_1", "--reps"], (0, "classes 1\nclass 0 size 1 rep\n", "")),
    (["--from", "v1_0", "--to", "v3_2", "--reps"],
     (0, "classes 2\nclass 0 size 5 rep e1_0 e2_0 n3_0 n3_1\n"
         "class 1 size 1 rep n1_0 n1_1 e1_2 e2_2\n", "")),
    (["--from", "v0_1", "--to", "v2_3", "--reps", "--max-len", "4"],
     (0, "classes 2\nclass 0 size 1 rep e0_1 e1_1 n2_1 n2_2\n"
         "class 1 size 5 rep e0_1 n1_1 e1_2 n2_2\n", "")),
])
def test_hom_between_scene_points_keeps_its_messages(options, result):
    assert invoke(["hom", str(FIXTURES / "hole.scene"), *options]) == result


def test_hom_refuses_a_vertex_inside_a_box(tmp_path):
    scene = tmp_path / "box.scene"
    scene.write_text("grid 4 4\nbox 1 1 3 3\nsource 0 0\ntarget 4 4\n")
    for ends in (["--from", "v2_2", "--to", "v4_4"], ["--from", "v0_0", "--to", "v2_2"]):
        assert invoke(["hom", str(scene), *ends]) == (1, "", "error: unknown vertex v2_2\n")


def test_hom_near_a_corner_of_a_large_scene(tmp_path):
    scene = tmp_path / "large.scene"
    scene.write_text("grid 300 300\nbox 100 100 200 200\nsource 0 0\ntarget 300 300\n")
    argv = ["hom", str(scene), "--from", "v0_0", "--to", "v2_2", "--reps"]
    assert invoke(argv) == (0, "classes 1\nclass 0 size 6 rep e0_0 e1_0 n2_0 n2_1\n", "")
    argv = ["hom", str(scene), "--from", "v99_0", "--to", "v101_300"]
    assert invoke(argv) == (0, "classes 1\n", "")


def test_export_dot_highlights_a_class_between_scene_points(tmp_path):
    target = tmp_path / "out.dot"
    argv = ["export-dot", str(FIXTURES / "hole.scene"), "-o", str(target),
            "--highlight", "1", "--from", "v1_0", "--to", "v3_2"]
    assert invoke(argv) == (0, "", "")
    red = re.findall(r'\[label="(\w+)", color=red', target.read_text())
    assert red == ["e1_2", "e2_2", "n1_0", "n1_1"]


def test_export_dot_over_a_longer_file_leaves_exactly_the_new_text(tmp_path):
    target = tmp_path / "out.dot"
    argv = ["export-dot", str(FIXTURES / "hole.scene"), "-o", str(target)]
    assert invoke(argv) == (0, "", "")
    fresh = target.read_bytes()
    target.write_bytes(b"x" * (3 * len(fresh)))
    assert invoke(argv) == (0, "", "")
    assert target.read_bytes() == fresh


def test_export_dot_writes_to_a_device():
    # /dev/null is seekable yet refuses ftruncate
    assert invoke(["export-dot", str(FIXTURES / "hole.scene"), "-o", "/dev/null"]) == (0, "", "")


def test_export_dot_into_a_directory_gives_the_write_error_line(tmp_path):
    with pytest.raises(OSError) as info:
        tmp_path.write_text("", encoding="utf-8")
    code, out, err = invoke(["export-dot", str(FIXTURES / "hole.scene"), "-o", str(tmp_path)])
    assert (code, out, err) == (1, "", f"error: cannot write {tmp_path}: {info.value.strerror}\n")


def test_export_dot_opens_its_file_without_truncating_it(tmp_path, monkeypatch):
    opened, real_open = [], os.open
    monkeypatch.setattr(os, "open", lambda path, flags, *a: opened.append(flags) or real_open(
        path, flags, *a))
    target = tmp_path / "out.dot"
    assert invoke(["export-dot", str(FIXTURES / "hole.scene"), "-o", str(target)]) == (0, "", "")
    assert len(opened) == 1 and opened[0] & os.O_WRONLY and opened[0] & os.O_CREAT
    assert not opened[0] & os.O_TRUNC
    assert target.read_text(encoding="utf-8").startswith('digraph "hole" {')


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
    # the verb takes no length bound, so its line says what it decides
    assert invoke(["one-simple", str(workdir / "circle.complex")]) == (
        1, "", "error: one-simple decides acyclic complexes only\n")
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
    refused = (2, "", "error: --highlight on a complex takes both --from and --to\n")
    for ends in ([], ["--from", "0"], ["--to", "1"]):
        assert invoke(base + ends) == refused


@pytest.mark.parametrize("argv,reads", [
    (["export-dot", "hole.scene", "-o", "out.dot", "--highlight", "0"], ["hole.scene"]),
    (["export-dot", "o1.complex", "-o", "out.dot"], ["o1.complex"]),
    (["cat", "faithful", "endo.functor"], ["endo.functor", "oc.category"]),
    (["cat", "faithful", "inc.functor"], ["inc.functor", "two.category", "oc.category"]),
], ids=["dot-scene", "dot-complex", "faithful-endofunctor", "faithful"])
def test_each_input_file_is_read_once_per_query(workdir, monkeypatch, argv, reads):
    (workdir / "endo.functor").write_text(
        "domain oc.category\ncodomain oc.category\n"
        "object 0 0\nobject 1 1\narrow a b\narrow b a\n")
    read = cli._read
    seen = []
    monkeypatch.setattr(cli, "_read", lambda path: seen.append(Path(path).name) or read(path))
    monkeypatch.chdir(workdir)
    code, _, err = invoke(argv)
    assert (code, err) == (0, "")
    assert seen == reads


@pytest.mark.parametrize("name,options,message", [
    ("two.category", ["--highlight", "5", "--from", "q", "--to", "r", "--max-len", "2"],
     "--from applies to a scene or complex, not to a category"),
    ("two.category", ["--highlight", "0"],
     "--highlight applies to a scene or complex, not to a category"),
    ("o1.complex", ["--from", "0"], "--from needs --highlight"),
    ("hole.scene", ["--max-len", "3"], "--max-len needs --highlight"),
    ("hole.scene", ["--highlight", "0", "--from", "v1_1"],
     "--highlight on a scene takes both --from and --to, or neither"),
    ("hole.scene", ["--highlight", "0", "--to", "v3_3"],
     "--highlight on a scene takes both --from and --to, or neither"),
], ids=["category", "category-highlight", "complex-from", "scene-max-len", "scene-from", "scene-to"])
def test_export_dot_refuses_options_it_would_ignore(workdir, tmp_path, name, options, message):
    target = tmp_path / "out.dot"
    argv = ["export-dot", str(workdir / name), "-o", str(target), *options]
    assert invoke(argv) == (2, "", f"error: {message}\n")
    assert not target.exists()


def test_export_dot_highlights_between_given_vertices_of_a_scene(workdir, tmp_path):
    target = tmp_path / "out.dot"
    base = ["export-dot", str(workdir / "hole.scene"), "-o", str(target), "--highlight", "0"]
    assert invoke(base + ["--from", "v0_0", "--to", "v3_3"]) == (0, "", "")
    corners = target.read_text()
    assert invoke(base) == (0, "", "") and target.read_text() == corners
    assert invoke(base + ["--from", "v1_1", "--to", "v3_3"]) == (0, "", "")
    assert target.read_text() != corners


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
    assert err == "error: cannot read /nonexistent/path.scene: No such file or directory\n"


def test_a_directory_for_a_file_exits_two(tmp_path):
    assert invoke(["pi0", str(tmp_path)]) == (2, "", f"error: cannot read {tmp_path}: "
                                                     "Is a directory\n")


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
    assert _sniff("# only a comment\n\n   # and another\n") is None
    assert _sniff("\n# comment\n  grid 3 3 # trailing\n") == "scene"
    assert _sniff("  source 0 0\ngrid 3 3\n") == "scene"
    assert _sniff("compose f g h\n") == "category"
    assert _sniff("points 2 a b\n") is None


def test_sniff_knows_every_directive_of_the_three_formats():
    assert cli._FORMATS == {**dict.fromkeys(gs._SCENE_DIRECTIVES, "scene"),
                            **dict.fromkeys(pc._COMPLEX_DIRECTIVES, "complex"),
                            **dict.fromkeys(ct._CATEGORY_DIRECTIVES, "category")}


# X_SCENE with each of its other directives first, and a category whose
# first line is an arrow or a composite: each verb answers as on the file
# in its usual order, where a file of these used to exit 2
CHAIN_CATEGORY = (
    "object 0\nobject 1\nobject 2\narrow f 0 1\narrow g 1 2\narrow h 0 2\ncompose f g = h\n")
SCENE_VERBS = [
    "classes {}", "hom {} --from v0_0 --to v6_6 --reps", "hom {} --from v1_0 --to v5_6",
    "pi0 {}", "preorder {}", "one-simple {}", "monoid {} --at v0_0 --max-len 2",
    "export-dot {} -o {out}", "export-dot {} -o {out} --highlight 1",
]
CATEGORY_VERBS = ["export-dot {} -o {out}", "cat contractible {} --direction past"]


@pytest.mark.parametrize("name,usual,moved,verbs", [
    ("x.scene", X_SCENE, "source 0 0\n" + X_SCENE.replace("source 0 0\n", ""), SCENE_VERBS),
    ("x.scene", X_SCENE, "box 1 4 4 5\n" + X_SCENE.replace("box 1 4 4 5\n", ""), SCENE_VERBS),
    ("x.scene", X_SCENE, "# comment\ntarget 6 6\n" + X_SCENE.replace("target 6 6\n", ""),
     SCENE_VERBS),
    ("oc.category", OC_CATEGORY, "arrow a 0 1\n" + OC_CATEGORY.replace("arrow a 0 1\n", ""),
     CATEGORY_VERBS),
    ("chain.category", CHAIN_CATEGORY,
     "compose f g = h\n" + CHAIN_CATEGORY.replace("compose f g = h\n", ""), CATEGORY_VERBS),
], ids=["source", "box", "target", "arrow", "compose"])
def test_lines_in_any_order(tmp_path, name, usual, moved, verbs):
    for verb in verbs:
        answers = []
        for folder, text in (("usual", usual), ("moved", moved)):
            (tmp_path / folder).mkdir(exist_ok=True)
            path, out = tmp_path / folder / name, tmp_path / folder / "out.dot"
            path.write_text(text)
            answers.append(invoke(verb.format(path, out=out).split()))
            if verb.startswith("export-dot"):
                answers.append(out.read_text())
        assert answers[0][0] == 0, (verb, answers[0])
        assert answers[: len(answers) // 2] == answers[len(answers) // 2:], verb


@pytest.mark.parametrize("text", ["", "# nothing\n", "points 1 a\n0\n", "gird 3 3\n"])
def test_a_file_of_no_known_format_exits_two(tmp_path, text):
    path = tmp_path / "in.txt"
    path.write_text(text)
    for argv in (["pi0", str(path)], ["export-dot", str(path), "-o", str(tmp_path / "o.dot")]):
        assert invoke(argv) == (2, "", f"error: {path}: not a scene or complex file\n")


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
    "wide.scene": ["hom", "wide.scene", "--from", "v10_10", "--to", "v12_11", "--reps"],
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


def test_metric_exponent_past_the_digit_limit_exits_two(workdir, tmp_path):
    space = tmp_path / "e.dmetric"
    space.write_text("points 2 a b\n0 1e-10000000\ninf 0\n")
    assert invoke(["metric", "validate", str(space)]) == (
        2, "", "error: line 2: bad distance '1e-10000000'\n")
    assert invoke(["metric", "ball", str(workdir / "i4.dmetric"), "--at", "0", "--eps",
                   "1e-10000000", "--direction", "future"]) == (
        2, "", "error: bad distance '1e-10000000'\n")


def test_metric_product_past_the_point_cap_exits_one(workdir):
    code, out, err = invoke(["metric", "product"] + [str(workdir / "i4.dmetric")] * 5)
    assert (code, out, err) == (1, "", "error: product has 3125 points (guard 1000)\n")


def test_metric_value_past_the_digit_limit_exits_one(tmp_path):
    # 10^limit has one digit more than str() writes; the parser admits the
    # exponent, and a quotient's chain sum 1/3 + 1/7 + 1/10^(limit-1) reaches
    # a denominator of 21 * 10^(limit-1) from entries each within the limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python writes integers of any length")
    error = (f"error: cannot write a distance whose numerator or denominator has more "
             f"than {limit} digits\n")
    big, one, chain, rel = (tmp_path / name for name in ("big", "one", "chain", "rel"))
    big.write_text(f"points 2 a b\n0 1e-{limit}\ninf 0\n")
    one.write_text(f"points 1 a\n1e-{limit}\n")
    rows = [["inf"] * 6 for _ in range(6)]
    for i in range(6):
        rows[i][i] = "0"
    rows[0][1], rows[2][3], rows[4][5] = "1/3", "1/7", f"1e-{limit - 1}"
    chain.write_text("points 6 a b c d e f\n" + "".join(" ".join(r) + "\n" for r in rows))
    rel.write_text("b c\nd e\n")
    for argv in (["product", big], ["sum", big, big], ["quotient", chain, rel],
                 ["validate", one]):
        assert invoke(["metric", *map(str, argv)]) == (1, "", error)
    # unglued, each entry is written
    rel.write_text("")
    code, out, err = invoke(["metric", "quotient", str(chain), str(rel)])
    assert (code, err) == (0, "") and f"1/1{'0' * (limit - 1)}" in out


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
    "preorder fixtures/circle.complex",
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


def _documented_commands():
    """CI's two-hash-seed list and the README's ``$ dihom`` examples."""
    root = Path(dihom.__file__).resolve().parents[2]
    ci = (root / ".github" / "workflows" / "ci.yml").read_text()
    ci_list = ci.split("done <<'EOF'\n", 1)[1].split("EOF", 1)[0]
    readme = (root / "README.md").read_text().replace("\\\n", " ")
    examples = re.findall(r"^\$ dihom ([^|\n]*)", readme, re.M)
    return [" ".join(c.split()) for c in ci_list.splitlines() + examples if c.strip()]


def test_every_documented_command_takes_the_fast_path():
    documented = _documented_commands()
    assert len(documented) == 19 + 3  # CI's list, README's examples
    # each is one of VERB_COMMANDS, which a fresh interpreter runs below
    assert set(documented) <= set(VERB_COMMANDS)
    for cmd in VERB_COMMANDS:
        assert cli._parse(cmd.format(out="o.dot").split()) is not None, cmd


SLOW_IMPORTS = (
    "import sys; sys.path.insert(0, sys.argv[1]); from dihom.cli import main; "
    "code = main(sys.argv[2:]); "
    "sys.stderr.write(' '.join({'argparse', 'dataclasses', 'gettext', 'inspect'} & set(sys.modules))); "
    "sys.exit(code)"
)


@pytest.mark.parametrize(
    "cmd", VERB_COMMANDS, ids=[c.split(" fixtures")[0] for c in VERB_COMMANDS]
)
def test_no_verb_imports_dataclasses_or_inspect(tmp_path, cmd):
    # nor argparse and gettext: a plain command line never reaches argparse
    src = str(Path(dihom.__file__).resolve().parents[1])
    argv = cmd.format(out=tmp_path / "out.dot").split()
    proc = subprocess.run(
        [sys.executable, "-c", SLOW_IMPORTS, src, *argv],
        cwd=Path(src).parent, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


PUSHOUTS = (("discrete2.pres", "interval.pres", "interval.pres", "glue.morph", "glue.morph"),
            ("interval.pres", "square.pres", "square.pres", "edge.morph", "edge.morph"))


def test_cat_realize_prints_counts_without_building_the_hom_sets(tmp_path, monkeypatch):
    from dihom import fundcat as fc
    glued = []
    for i, files in enumerate(PUSHOUTS):
        code, out, _ = invoke(["cat", "pushout", *(str(FIXTURES / f) for f in files)])
        assert code == 0
        glued.append(tmp_path / f"glued{i}.pres")
        glued[-1].write_text(out)
    paths = [FIXTURES / "interval.pres", FIXTURES / "square.pres", *glued]
    before = [invoke(["cat", "realize", str(p)]) for p in paths]

    def refuse(self):
        raise AssertionError("cat realize built the hom-sets")

    monkeypatch.setattr(fc.Realization, "homs", property(refuse))
    assert [invoke(["cat", "realize", str(p)]) for p in paths] == before
    assert all(code == 0 for code, _, _ in before)
    assert "hom 1:0 1:1 2\n" in before[2][1]


def test_cat_realize_writes_at_most_a_chunk_of_lines_at_once(tmp_path, monkeypatch):
    empty = tmp_path / "empty.pres"
    empty.write_text("")
    for path, chunk in [(FIXTURES / "square.pres", 4), (FIXTURES / "square.pres", 9),
                        (FIXTURES / "square.pres", 4096), (empty, 2)]:
        _, text, _ = invoke(["cat", "realize", str(path)])
        writes = []
        out = io.StringIO()
        out.write = writes.append
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        assert run(["cat", "realize", str(path)], out=out) == 0
        lines = text.splitlines(keepends=True)
        homs = len(lines) - 2  # after the objects and truncated lines
        assert "".join(writes) == text and len(writes) == max(1, -(-homs // chunk))
        counts = [w.count("\n") for w in writes]
        counts[0] -= 2  # the head goes with the first chunk
        assert counts == [chunk] * (len(writes) - 1) + [homs - chunk * (len(writes) - 1)]


def test_cat_realize_rows_match_the_word_sweep_counts(tmp_path, monkeypatch):
    # seeded presentations (bounded cyclic ones among them), one object with
    # a loop and boxed scenes' presentations, written a line at a time, in
    # chunks around the number of hom-sets and in the default chunks
    from dihom import fundcat as fc
    from test_catho import _random_presentation
    rng = random.Random(20261022)
    texts = [(ct.format_presentation(_random_presentation(rng, trial % 2 == 0)),
              None if trial % 2 == 0 and rng.random() < 0.5 else rng.randint(0, 4))
             for trial in range(40)]
    texts.append(("object x\ngen l x x\n", 3))
    for _ in range(4):
        w, h = rng.randint(2, 4), rng.randint(2, 4)
        boxes = [(x, y, x + 1, y + 1) for x in range(w) for y in range(h) if rng.random() < 0.8]
        k = gs.to_precubical(gs.make_scene(w, h, boxes, (0, 0), (w, h)))
        texts.append((ct.format_presentation(fc.presentation_of(k)), None))
    path = tmp_path / "p.pres"
    seen = Counter()
    for text, bound in texts:
        path.write_text(text)
        old = realize_word_sweep_oracle(ct.parse_presentation(text), bound)
        counts = old.hom_counts()
        want = (f"objects {len(old.objects)}\ntruncated {'true' if old.truncated else 'false'}\n"
                + "".join(f"hom {x} {y} {n}\n" for (x, y), n in counts.items()))
        argv = ["cat", "realize", str(path)] + ([] if bound is None else ["--bound", str(bound)])
        for chunk in sorted({1, len(counts) - 1, len(counts), len(counts) + 1, 4096} - {0}):
            writes = []
            out = io.StringIO()
            out.write = writes.append
            monkeypatch.setattr(cli, "_CHUNK", chunk)
            assert run(argv, out=out) == 0
            assert "".join(writes) == want, (text, bound, chunk)
            assert len(writes) == max(1, -(-len(counts) // chunk))
        seen["truncated"] += old.truncated
        seen["several hom-sets"] += len(counts) > 1
        seen["scene"] += len(old.objects) > 4
    assert seen["truncated"] >= 5 and seen["several hom-sets"] >= 30, seen
    assert seen["scene"] == 4, seen


def test_cat_pushout_validates_each_presentation_once(monkeypatch):
    from dihom import fundcat as fc
    scans = []
    scan = fc._presentation_violations

    def counted(pres):
        scans.append(pres)
        return scan(pres)

    monkeypatch.setattr(fc, "_presentation_violations", counted)
    for files in PUSHOUTS:
        scans.clear()
        code, _, _ = invoke(["cat", "pushout", *(str(FIXTURES / f) for f in files)])
        assert code == 0
        # p0, p1 and p2: one scan each, though p0 is checked by both morphisms
        assert len(scans) == len({id(p) for p in scans}) == 3
    scans.clear()
    assert invoke(["cat", "realize", str(FIXTURES / "square.pres")])[0] == 0
    assert len(scans) == 1  # parse_presentation's scan, not realize's again


def _wedge(tmp_path):
    """Two loops at one vertex: 2**l classes of length l, so ``hom * * --max-len
    12`` reaches the target at 13 lengths with 8191 classes."""
    path = tmp_path / "wedge.complex"
    path.write_text("vertex *\nedge a * *\nedge b * *\n")
    return path


def test_hom_reps_text_matches_the_record_report(tmp_path):
    # random complexes and scenes written out, the wedge past one write's
    # worth of lines, and an empty hom-set
    from dihom import fundcat as fc
    wedge = _wedge(tmp_path)
    queries = [(pc.parse_complex(wedge.read_text()), wedge, "*", "*", 12)]
    for trial, (rng, k, bound) in enumerate(random_cases(20261029, 60)):
        path = tmp_path / f"k{trial}.complex"
        path.write_text(pc.format_complex(k))
        queries += [(k, path, rng.choice(k.vertices), rng.choice(k.vertices), bound)
                    for _ in range(2)]
    lines = Counter()
    for k, path, x, y, bound in queries:
        argv = ["hom", str(path), "--from", x, "--to", y, "--reps"]
        argv += [] if bound is None else ["--max-len", str(bound)]
        want = format_hom_classes_oracle(hom_classes_record_oracle(k, x, y, bound))
        assert fc.format_hom_classes(fc.hom_classes(k, x, y, bound)) == want
        assert invoke(argv) == (0, want, ""), argv
        lines[min(want.count("\n") - 1, 2)] += 1
    assert lines[0] and lines[1] and lines[2] > 20, lines
    count = ["hom", str(wedge), "--from", "*", "--to", "*", "--max-len", "12"]
    assert invoke(count) == (0, "classes 8191\n", "")


@pytest.mark.parametrize("name,argv,count", [
    ("hole.scene", [], 2),
    ("o1.complex", ["--from", "0", "--to", "1"], 2),
    ("circle.complex", ["--from", "*", "--to", "*", "--max-len", "3"], 4),
    ("o1.complex", ["--from", "1", "--to", "0"], 0),
], ids=["scene", "complex", "several-lengths", "empty"])
def test_highlight_out_of_range_names_the_index_and_the_count(tmp_path, name, argv, count):
    for index in (count, -1, count + 5):
        code, out, err = invoke(["export-dot", str(FIXTURES / name), "-o", str(tmp_path / "x.dot"),
                                 "--highlight", str(index), *argv])
        assert (code, out, err) == (1, "", f"error: class index {index} out of range "
                                           f"({count} classes)\n")
    assert not (tmp_path / "x.dot").exists()


def test_highlight_on_several_lengths_picks_the_sorted_class(tmp_path):
    # the wedge's classes * -> * up to length 3, in word order: (), a, aa, aaa, aab, ab, ...
    words = sorted(w for n in range(4) for w in itertools.product("ab", repeat=n))
    wedge = _wedge(tmp_path)
    k = pc.parse_complex(wedge.read_text())
    for index in (0, 1, 4, 8, 14):
        target = tmp_path / f"w{index}.dot"
        argv = ["export-dot", str(wedge), "-o", str(target), "--highlight", str(index),
                "--from", "*", "--to", "*", "--max-len", "3"]
        assert invoke(argv) == (0, "", "")
        assert target.read_text() == dot.complex_dot(k, words[index], name="wedge")


HOM_QUERIES = (["classes", "x.scene"], ["classes", "hole.scene", "--max-len", "6"],
               ["hom", "hole.scene", "--from", "v0_0", "--to", "v3_3"],
               ["hom", "circle.complex", "--from", "*", "--to", "*", "--max-len", "5"],
               ["hom", "wide.scene", "--from", "v0_0", "--to", "v12_11", "--reps"],
               ["hom", "o1.complex", "--from", "0", "--to", "1", "--reps"],
               ["export-dot", "x.scene", "-o", "{out}", "--highlight", "2"],
               ["export-dot", "hole.scene", "-o", "{out}", "--highlight", "1",
                "--from", "v0_0", "--to", "v3_2"],
               ["one-simple", "y.scene"], ["one-simple", "hole.scene"])


def _hom_query(argv, tmp_path):
    out = tmp_path / "out.dot"
    return [str(FIXTURES / a) if (FIXTURES / a).is_file() else a.format(out=out) for a in argv]


def test_hom_verbs_build_no_hom_class_record(tmp_path, monkeypatch):
    from dihom import fundcat as fc
    before = [invoke(_hom_query(argv, tmp_path)) for argv in HOM_QUERIES]

    def refuse(self, *args):
        raise AssertionError("a hom verb built a record")

    for record in (fc.HomClass, fc.HomClassSet):
        monkeypatch.setattr(record, "__init__", refuse)
    assert [invoke(_hom_query(argv, tmp_path)) for argv in HOM_QUERIES] == before
    assert all(code == 0 for code, _, _ in before)


def test_count_verbs_sweep_without_words(tmp_path, monkeypatch):
    # every sweep of classes, hom, one-simple and a single-length highlight
    # carries no reps; hom --reps carries them
    from dihom import fundcat as fc
    layers, sweeps = fc._SwapEngine.layers, []

    def watched(self, *args, **kwargs):
        sweeps.append([])
        for layer in layers(self, *args, **kwargs):
            sweeps[-1].append(layer.reps)
            yield layer

    monkeypatch.setattr(fc._SwapEngine, "layers", watched)
    for argv in HOM_QUERIES:
        sweeps.clear()
        assert invoke(_hom_query(argv, tmp_path))[0] == 0
        reps = [r for sweep in sweeps for r in sweep]
        assert reps, argv
        if "--reps" in argv:
            assert None not in reps, argv
        else:
            assert reps == [None] * len(reps), argv
