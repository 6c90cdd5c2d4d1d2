import pytest

from dihom import precubical as pc
from dihom.errors import DomainError, InputSyntaxError


def grid_2x1():
    # two unit squares side by side, all faces present
    verts = [f"v{x}_{y}" for x in range(3) for y in range(2)]
    edges = {}
    for x in range(2):
        for y in range(2):
            edges[f"e{x}_{y}"] = (f"v{x}_{y}", f"v{x + 1}_{y}")
    for x in range(3):
        edges[f"n{x}_0"] = (f"v{x}_0", f"v{x}_1")
    squares = {
        f"s{x}_0": (f"n{x}_0", f"n{x + 1}_0", f"e{x}_0", f"e{x}_1") for x in range(2)
    }
    return pc.PreCubicalSet(verts, edges, squares)


def test_validate_interval_ok():
    assert pc.validate(pc.model("interval")) == []


def test_validate_directed_circle_loop_ok():
    k = pc.model("directed_circle")
    assert k.src("a") == k.tgt("a") == "*"
    assert pc.validate(k) == []


def test_validate_reports_broken_corner():
    # d2p targets a vertex different from tgt(d1p)
    k = pc.PreCubicalSet(
        ["f", "h", "k", "g", "z"],
        {
            "d1m": ("f", "k"),
            "d1p": ("h", "g"),
            "d2m": ("f", "h"),
            "d2p": ("k", "z"),
        },
        {"w": ("d1m", "d1p", "d2m", "d2p")},
    )
    violations = pc.validate(k)
    assert violations
    assert all(v.cell == "w" for v in violations)
    assert any("tgt(d2p) = tgt(d1p)" in v.message for v in violations)


def test_validate_reports_dangling_face():
    k = pc.PreCubicalSet(["0"], {"e": ("0", "missing")}, {})
    [v] = pc.validate(k)
    assert v.dim == 1 and v.cell == "e"


@pytest.mark.parametrize(
    "name,n_vertices,n_edges",
    [
        ("interval", 2, 1),
        ("directed_circle", 1, 1),
        ("ordered_circle", 2, 2),
        ("wedge_circles(2)", 1, 2),
        ("wedge_circles(5)", 1, 5),
        ("chain(3)", 4, 3),
    ],
)
def test_models_validate(name, n_vertices, n_edges):
    k = pc.model(name)
    assert len(k.vertices) == n_vertices
    assert len(k.edges) == n_edges
    assert not k.squares
    assert pc.validate(k) == []


def test_model_rejects_bad_parameters():
    for bad in ("wedge_circles(0)", "chain(0)", "nonsense", "interval(3)"):
        with pytest.raises(DomainError):
            pc.model(bad)


def test_every_model_and_every_model_message():
    built = {
        " interval ": (("0", "1"), {"a": ("0", "1")}),
        "directed_circle": (("*",), {"a": ("*", "*")}),
        "ordered_circle": (("0", "1"), {"a": ("0", "1"), "b": ("0", "1")}),
        "wedge_circles(1)": (("*",), {"a": ("*", "*")}),
        "wedge_circles(28)": (("*",), {
            **{chr(ord("a") + i): ("*", "*") for i in range(26)},
            "loop26": ("*", "*"), "loop27": ("*", "*")}),
        "chain(1)": (("0", "1"), {"e0": ("0", "1")}),
        "chain(2)": (("0", "1", "2"), {"e0": ("0", "1"), "e1": ("1", "2")}),
    }
    for name, (vertices, edges) in built.items():
        k = pc.model(name)
        assert (k.vertices, dict(k.edges), dict(k.squares), dict(k.labels)) == (
            vertices, edges, {}, {})
    messages = {
        "interval(0)": "interval takes no parameter",
        "directed_circle(2)": "directed_circle takes no parameter",
        "ordered_circle(1)": "ordered_circle takes no parameter",
        "wedge_circles": "wedge_circles needs a loop count, e.g. wedge_circles(2)",
        "wedge_circles(0)": "wedge_circles needs k >= 1",
        "chain": "chain needs a length, e.g. chain(3)",
        "chain(00)": "chain needs n >= 1",
        "nonsense": "unknown model 'nonsense'",
        "nonsense(2)": "unknown model 'nonsense(2)'",
        " Chain(2)": "unknown model ' Chain(2)'",
        "chain(-1)": "unknown model 'chain(-1)'",
        "chain()": "unknown model 'chain()'",
        "": "unknown model ''",
    }
    for name, message in messages.items():
        with pytest.raises(DomainError) as exc:
            pc.model(name)
        assert str(exc.value) == message


def test_opposite_swaps_interval():
    op = pc.opposite(pc.model("interval"))
    assert op.edges["a"] == ("1", "0")


def test_opposite_is_involution():
    for name in ("interval", "ordered_circle", "directed_circle"):
        k = pc.model(name)
        assert pc.opposite(pc.opposite(k)) == k
    g = grid_2x1()
    assert pc.opposite(pc.opposite(g)) == g
    assert pc.validate(pc.opposite(g)) == []


def test_sub_complex_of_all_cells_is_identity():
    k = grid_2x1()
    assert pc.sub_complex(k, k.cell_keys()) == k


def test_sub_complex_face_closure_of_one_square():
    k = grid_2x1()
    sub = pc.sub_complex(k, [(2, "s0_0")])
    assert len(sub.squares) == 1
    assert len(sub.edges) == 4
    assert len(sub.vertices) == 4
    assert pc.validate(sub) == []


def test_sub_complex_empty():
    sub = pc.sub_complex(grid_2x1(), [])
    assert not sub.vertices and not sub.edges and not sub.squares


def test_sub_complex_unknown_cell():
    with pytest.raises(DomainError):
        pc.sub_complex(grid_2x1(), [(2, "nope")])


def test_union_with_contained_subcomplex():
    k = grid_2x1()
    sub = pc.sub_complex(k, [(2, "s1_0")])
    assert pc.union(k, sub) == k


def test_intersect_halves_shares_middle_edge():
    k = grid_2x1()
    left = pc.sub_complex(k, [(2, "s0_0")])
    right = pc.sub_complex(k, [(2, "s1_0")])
    mid = pc.intersect(left, right)
    assert set(mid.edges) == {"n1_0"}
    assert set(mid.vertices) == {"v1_0", "v1_1"}
    assert not mid.squares
    assert pc.validate(mid) == []


def test_union_of_halves_is_whole():
    k = grid_2x1()
    left = pc.sub_complex(k, [(2, "s0_0")])
    right = pc.sub_complex(k, [(2, "s1_0")])
    assert pc.union(left, right) == k
    assert pc.validate(pc.union(left, right)) == []


def test_union_rejects_mismatched_ambient():
    k1 = pc.PreCubicalSet(["0", "1"], {"e": ("0", "1")}, {})
    k2 = pc.PreCubicalSet(["0", "1"], {"e": ("1", "0")}, {})
    with pytest.raises(DomainError):
        pc.union(k1, k2)
    k = grid_2x1()
    turned = pc.PreCubicalSet(k.vertices, k.edges, {"s0_0": ("e0_0", "e0_1", "n0_0", "n1_0")})
    for op in (pc.union, pc.intersect):
        with pytest.raises(DomainError, match="^mismatched ambient: square s0_0 has different faces$"):
            op(k, turned)


@pytest.mark.parametrize(
    "vertices,squares,message",
    [
        (["0", "1", "0"], {}, "duplicate vertex id"),
        (["0", "1", "a b"], {}, "bad cell id 'a b'"),
        (["0", "1"], {"w": ("e", "e", "e")}, "square w: expected 4 faces"),
    ],
    ids=["duplicate-vertex", "bad-id", "three-faces"],
)
def test_constructor_refuses_malformed_cells(vertices, squares, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        pc.PreCubicalSet(vertices, {"e": ("0", "1")}, squares)


def test_square_boundary_routes_share_endpoints():
    k = grid_2x1()
    for _w, (d1m, d1p, d2m, d2p) in k.squares.items():
        assert k.src(d2m) == k.src(d1m)
        assert k.tgt(d1p) == k.tgt(d2p)


def test_text_round_trip_is_bit_exact():
    k = grid_2x1()
    text = pc.format_complex(k)
    assert pc.format_complex(pc.parse_complex(text)) == text
    assert pc.parse_complex(text) == k


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputSyntaxError) as exc:
        pc.parse_complex("vertex a\nedge broken\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(InputSyntaxError):
        pc.parse_complex("frob x\n")


def test_cells_iterator_and_labels():
    k = pc.PreCubicalSet(
        ["0", "1"], {"a": ("0", "1")}, {}, labels={(0, "0"): "start"}
    )
    cells = list(k.cells())
    assert [c.key for c in cells] == [(0, "0"), (0, "1"), (1, "a")]
    assert cells[0].label == "start" and cells[1].label is None
    assert k.label(0, "0") == "start"


def test_validate_returns_a_new_list_of_the_kept_answer(monkeypatch):
    runs = []
    check = pc._violations
    monkeypatch.setattr(pc, "_violations", lambda k: runs.append(k) or check(k))
    broken = pc.PreCubicalSet(["0"], {"e": ("0", "missing")}, {"w": ("e", "e", "e", "f")})
    first = pc.validate(broken)
    assert len(first) == 2
    first.clear()
    assert pc.validate(broken) == check(broken) and len(pc.validate(broken)) == 2
    good = grid_2x1()
    answer = pc.validate(good)
    answer.append("not a violation")
    assert pc.validate(good) == []
    assert runs == [broken, good]


def test_parse_rejects_a_repeated_vertex_with_its_line():
    with pytest.raises(InputSyntaxError) as exc:
        pc.parse_complex("vertex a\nvertex b\n\nvertex a\nedge e a b\n")
    assert str(exc.value) == "line 4: duplicate vertex id a"
