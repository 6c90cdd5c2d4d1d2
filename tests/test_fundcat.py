import io
import math
import random
from collections import Counter

import pytest

from dihom import catho as ct
from dihom import cli
from dihom import fundcat as fc
from dihom import gridscene as gs
from dihom import precubical as pc
from dihom.errors import (
    DomainError,
    EnumerationLimitError,
    InvalidComplexError,
    UnboundedEnumerationError,
)
from oracles import (
    bfs_dipaths,
    enumerate_dipaths_oracle,
    format_hom_classes_oracle,
    format_preorder_oracle,
    has_no_cycle_oracle,
    heights_kahn_oracle,
    hom_classes_record_oracle,
    hom_classes_sweep_oracle,
    is_length_addition,
    is_one_simple_scan_oracle,
    monoid_table_oracle,
    path_preorder_walk_oracle,
    reach_oracle,
    scene_heights_oracle,
    scene_path_classes,
    swap_layers_oracle,
    swap_partition,
)


def scene_complex(text):
    return gs.to_precubical(gs.parse_scene(text))


HOLE = scene_complex("grid 3 3\nbox 1 1 2 2\nsource 0 0\ntarget 3 3\n")
FULL22 = scene_complex("grid 2 2\nsource 0 0\ntarget 2 2\n")


# presentation extraction

def test_presentation_of_interval():
    p = fc.presentation_of(pc.model("interval"))
    assert p.objects == ("0", "1")
    assert p.generators == {"a": ("0", "1")}
    assert p.relations == ()


def test_presentation_of_unit_grid():
    k = scene_complex("grid 1 1\nsource 0 0\ntarget 1 1\n")
    p = fc.presentation_of(k)
    assert len(p.objects) == 4 and len(p.generators) == 4
    [(u, v)] = p.relations
    assert p.word_endpoints(u) == p.word_endpoints(v) == ("v0_0", "v1_1")
    assert len(u) == len(v) == 2
    with pytest.raises(DomainError, match="empty word has no endpoints"):
        p.word_endpoints(())
    with pytest.raises(DomainError, match="unknown generator zz"):
        p.word_endpoints(u + ("zz",))
    with pytest.raises(DomainError, match="word not composable at generator"):
        p.word_endpoints(u + u)


def test_presentation_of_directed_circle_is_free():
    p = fc.presentation_of(pc.model("directed_circle"))
    assert p.objects == ("*",) and set(p.generators) == {"a"}
    assert p.relations == ()


def test_validate_presentation_flags_non_parallel():
    p = fc.CatPresentation(("0", "1"), {"a": ("0", "1")}, ((("a",), ("a", "a")),))
    assert fc.validate_presentation(p)


# acyclicity

def test_grid_scene_is_acyclic():
    assert fc.is_acyclic(HOLE)


def test_directed_circle_is_cyclic():
    assert not fc.is_acyclic(pc.model("directed_circle"))


def test_ordered_circle_is_acyclic():
    assert fc.is_acyclic(pc.model("ordered_circle"))


def test_acyclic_matches_the_depth_first_oracle():
    rng = random.Random(20261021)
    seen = set()
    for trial in range(400):
        objects = [f"o{i}" for i in range(rng.randint(0, 7))]
        generators = {}
        if objects:
            # mostly up the object order, so that both verdicts are common;
            # repeated pairs make parallel edges, unused objects stay isolated
            for g in range(rng.randint(0, 10)):
                i, j = sorted(rng.randrange(len(objects)) for _ in range(2))
                if rng.random() < 0.1:
                    i, j = j, i
                if i == j and rng.random() < 0.7:
                    continue
                generators[f"g{g}"] = (objects[i], objects[j])
        want = has_no_cycle_oracle(objects, generators)
        assert (fc._SwapEngine(objects, generators, ()).heights is not None) == want
        seen.add(want)
    assert seen == {True, False}


def test_heights_match_kahn_and_the_scene_push_dp():
    rng = random.Random(20261023)
    seen = Counter()
    for trial in range(500):
        n = rng.randint(0, 8)
        objects = [f"o{i}" for i in range(n)]
        generators = {}
        for g in range(rng.randint(0, 12) if n else 0):
            i, j = sorted(rng.randrange(n) for _ in range(2))
            roll = rng.random()
            if roll < 0.1:  # against the object order: cycles
                i, j = j, i
            elif roll < 0.15:
                j = i  # a self-loop
            elif i == j:
                continue
            generators[f"g{g:02d}"] = (objects[i], objects[j])
            if rng.random() < 0.2:
                generators[f"g{g:02d}p"] = (objects[i], objects[j])
                seen["parallel"] += 1
        engine = fc._SwapEngine(objects, generators, ())
        want = heights_kahn_oracle(engine.targets)
        assert engine.heights == want
        assert engine.acyclic == (want is not None) == has_no_cycle_oracle(objects, generators)
        seen["acyclic" if engine.acyclic else "cyclic"] += 1
        seen["self-loop"] += any(s == t for s, t in generators.values())
        seen["isolated"] += len(objects) > len({x for st in generators.values() for x in st})
        # the components cover every object once, each after all it reaches
        components = fc._order(engine.targets)
        place = {v: c for c, component in enumerate(components) for v in component}
        assert sorted(place) == list(range(n)) == sorted(sum(components, []))
        assert all(place[w] <= place[v] for v, ts in enumerate(engine.targets) for w in ts)
    assert min(seen.values()) >= 20, seen
    # scenes: two boxes leave v1_1 of grid 2 2 without an in-edge (height 0)
    scenes = [(2, 2, [(0, 0, 1, 2), (0, 0, 2, 1)]), (1, 6, [(0, 2, 1, 3)])]
    scenes += [(rng.randint(1, 7), rng.randint(1, 7), []) for _ in range(100)]
    for w, h, boxes in scenes:
        for _ in range(rng.randint(0, 4) if not boxes else 0):
            x0, y0 = rng.randint(-1, w - 1), rng.randint(-1, h - 1)
            boxes.append((x0, y0, rng.randint(x0 + 1, w + 1), rng.randint(y0 + 1, h + 1)))
        scene = gs.GridScene(w, h, tuple(gs.Box(*b) for b in boxes), (0, 0), (w, h))
        k = gs.to_precubical(scene)
        engine = fc._engine_of(k)
        assert engine.acyclic and "heights" not in vars(engine)
        assert engine.heights == scene_heights_oracle(k) == heights_kahn_oracle(engine.targets)


# enumeration

def test_full_2x2_has_six_paths():
    paths = fc.enumerate_dipaths(FULL22, "v0_0", "v2_2")
    assert len(paths) == 6
    words = [p.edges for p in paths]
    assert words == sorted(words)  # lexicographic order


def test_circle_bounded_enumeration():
    k = pc.model("directed_circle")
    paths = fc.enumerate_dipaths(k, "*", "*", max_len=2)
    assert [len(p) for p in paths] == [0, 1, 2]


def test_unreachable_pair_gives_empty():
    assert fc.enumerate_dipaths(HOLE, "v3_3", "v0_0") == []


def test_unbounded_on_cyclic_is_refused():
    with pytest.raises(UnboundedEnumerationError):
        fc.enumerate_dipaths(pc.model("directed_circle"), "*", "*")


@pytest.mark.parametrize("call", [
    lambda k: fc.hom_classes(k, "*", "*", -1),
    lambda k: fc.enumerate_dipaths(k, "*", "*", -1),
    lambda k: fc.is_one_simple(k, -2),
])
def test_negative_length_bound_is_refused(call):
    with pytest.raises(DomainError, match="length bound -[12] is negative"):
        call(pc.model("directed_circle"))


def test_monoid_refuses_a_missing_and_a_negative_bound_apart():
    k = pc.model("directed_circle")
    with pytest.raises(DomainError, match="^monoid class counting needs a length bound >= 0$"):
        fc.fundamental_monoid_classes(k, "*", None)
    with pytest.raises(DomainError, match="^length bound -1 is negative$"):
        fc.fundamental_monoid_classes(k, "*", -1)


def test_enumeration_cap_is_enforced():
    with pytest.raises(EnumerationLimitError):
        fc.enumerate_dipaths(FULL22, "v0_0", "v2_2", max_paths=3)


def test_dipath_construction_checks_composability():
    with pytest.raises(DomainError):
        fc.DiPath(FULL22, "v0_0", ("e1_0",))
    p = fc.DiPath(FULL22, "v0_0", ("e0_0", "e1_0"))
    assert p.end == "v2_0" and len(p) == 2
    q = fc.DiPath(FULL22, "v2_0", ("n2_0",))
    assert p.concat(q).end == "v2_1"
    with pytest.raises(DomainError, match="unknown vertex zz"):
        fc.DiPath(FULL22, "zz")
    with pytest.raises(DomainError, match="unknown edge zz"):
        fc.DiPath(FULL22, "v0_0", ("e0_0", "zz"))
    with pytest.raises(DomainError, match="paths are not consecutive"):
        q.concat(p)


# hom classes

def test_full_grid_single_class():
    h = fc.hom_classes(FULL22, "v0_0", "v2_2")
    assert h.count == 1
    assert h.classes[0].size == 6


def test_hole_grid_two_classes_matching_oracle():
    h = fc.hom_classes(HOLE, "v0_0", "v3_3")
    n, total = scene_path_classes(0, 0, 3, 3, [(1, 1, 2, 2)])
    assert (h.count, sum(c.size for c in h.classes)) == (n, total) == (2, 20)


def test_identity_class_at_a_point():
    h = fc.hom_classes(HOLE, "v0_0", "v0_0", max_len=0)
    assert h.count == 1
    assert h.classes[0].representative == ()


def test_ordered_circle_two_classes():
    h = fc.hom_classes(pc.model("ordered_circle"), "0", "1")
    assert h.count == 2
    assert [c.representative for c in h.classes] == [("a",), ("b",)]


def test_class_partition_matches_generic_oracle():
    for k, x, y in [
        (HOLE, "v0_0", "v3_3"),
        (FULL22, "v0_0", "v2_2"),
        (pc.model("ordered_circle"), "0", "1"),
    ]:
        h = fc.hom_classes(k, x, y)
        words = bfs_dipaths(k, x, y, None if fc.is_acyclic(k) else 4)
        oracle_groups = swap_partition(k, words)
        assert sorted(len(g) for g in oracle_groups) == sorted(
            c.size for c in h.classes
        )
        assert {min(g) for g in oracle_groups} == {
            c.representative for c in h.classes
        }


def test_counts_independent_of_enumeration_order():
    # the oracle enumerates breadth-first and in reversed edge order
    h = fc.hom_classes(HOLE, "v0_0", "v3_3")
    words = bfs_dipaths(HOLE, "v0_0", "v3_3", None)
    assert sorted(len(g) for g in swap_partition(HOLE, words)) == sorted(
        c.size for c in h.classes
    )


def test_swap_closure_preserves_length():
    # every class is length-homogeneous, so counts grade by length
    words = bfs_dipaths(HOLE, "v0_0", "v3_3", None)
    for group in swap_partition(HOLE, words):
        lengths = {len(w) for w in group}
        assert len(lengths) == 1


def test_concatenation_respects_classes():
    rng = random.Random(99)
    k = HOLE
    mid_choices = [v for v in k.vertices if fc.hom_classes(k, "v0_0", v).count >= 1]
    for _ in range(30):
        mid = rng.choice(mid_choices)
        front = fc.enumerate_dipaths(k, "v0_0", mid)
        back = fc.enumerate_dipaths(k, mid, "v3_3")
        if not front or not back:
            continue
        h = fc.hom_classes(k, "v0_0", "v3_3")
        member_class = {}
        for i, cls in enumerate(h.classes):
            member_class[cls.representative] = i
        words = [p.edges for p in fc.enumerate_dipaths(k, "v0_0", "v3_3")]
        groups = swap_partition(k, words)
        cls_of = {}
        for g in groups:
            rep = min(g)
            for w in g:
                cls_of[w] = rep
        a, a2 = rng.choice(front), rng.choice(front)
        b, b2 = rng.choice(back), rng.choice(back)
        if cls_of.get(a.edges + b.edges) is None:
            continue
        if _same_class(k, "v0_0", mid, a, a2) and _same_class(k, mid, "v3_3", b, b2):
            assert cls_of[a.edges + b.edges] == cls_of[a2.edges + b2.edges]


def _same_class(k, x, y, p, q):
    h = fc.hom_classes(k, x, y)
    words = [r.edges for r in fc.enumerate_dipaths(k, x, y)]
    for g in swap_partition(k, words):
        if p.edges in g:
            return q.edges in g
    return False


def test_bounded_equals_unbounded_on_acyclic():
    bound = len(HOLE.edges)
    for x, y in [("v0_0", "v3_3"), ("v0_0", "v2_1"), ("v1_0", "v3_2")]:
        assert fc.hom_classes(HOLE, x, y, bound).count == fc.hom_classes(HOLE, x, y).count


def test_opposite_duality_of_hom_counts():
    op = pc.opposite(HOLE)
    rng = random.Random(4)
    verts = list(HOLE.vertices)
    for _ in range(20):
        x, y = rng.choice(verts), rng.choice(verts)
        assert fc.hom_classes(HOLE, x, y).count == fc.hom_classes(op, y, x).count


def test_random_scenes_match_geometry_oracle():
    rng = random.Random(20240810)
    for _ in range(15):
        w, h = rng.randint(2, 4), rng.randint(2, 4)
        boxes = []
        for _ in range(rng.randint(0, 2)):
            x0 = rng.randint(0, w - 1)
            y0 = rng.randint(0, h - 1)
            boxes.append((x0, y0, rng.randint(x0 + 1, w), rng.randint(y0 + 1, h)))
        scene = gs.GridScene(w, h, tuple(gs.Box(*b) for b in boxes), (0, 0), (w, h))
        k = gs.to_precubical(scene)
        for _ in range(4):
            sx, sy = rng.randint(0, w), rng.randint(0, h)
            tx, ty = rng.randint(sx, w), rng.randint(sy, h)
            if not gs.point_allowed(scene, (sx, sy)) or not gs.point_allowed(
                scene, (tx, ty)
            ):
                continue
            expected_classes, expected_paths = scene_path_classes(sx, sy, tx, ty, boxes)
            h_set = fc.hom_classes(k, gs.vertex_id(sx, sy), gs.vertex_id(tx, ty))
            assert h_set.count == expected_classes
            assert sum(c.size for c in h_set.classes) == expected_paths


# monoid tables

def test_directed_circle_monoid_is_length_addition():
    table = fc.fundamental_monoid_classes(pc.model("directed_circle"), "*", 3)
    assert table.counts == (1, 1, 1, 1)
    assert is_length_addition(table)


def test_wedge_monoid_counts_match_free_words():
    table = fc.fundamental_monoid_classes(pc.model("wedge_circles(2)"), "*", 4)
    # free monoid on two letters: 2**length words, none identified
    assert table.counts == (1, 2, 4, 8, 16)
    assert is_length_addition(table)
    # oracle: every word of length <= 4 over {a, b} is its own class
    assert len(table.reps) == 31
    assert len(set(table.reps)) == 31


def test_grid_scene_loops_are_trivial():
    table = fc.fundamental_monoid_classes(HOLE, "v2_0", 4)
    assert table.counts == (1, 0, 0, 0, 0)


def test_two_squares_sharing_a_boundary_route():
    # squares w1, w2 share the route a;b, so all three routes collapse
    k = pc.PreCubicalSet(
        ["f", "h", "k1", "k2", "g"],
        {
            "a": ("f", "h"),
            "b": ("h", "g"),
            "c": ("f", "k1"),
            "d": ("k1", "g"),
            "e": ("f", "k2"),
            "r": ("k2", "g"),
        },
        {"w1": ("c", "b", "a", "d"), "w2": ("e", "b", "a", "r")},
    )
    assert pc.validate(k) == []
    h = fc.hom_classes(k, "f", "g")
    assert h.count == 1
    assert h.classes[0].size == 3


def test_commuting_loops_grade_like_multisets():
    # one vertex, two loops, one square making them commute: classes of
    # length l are the multisets {a^i b^(l-i)}, so l+1 per length
    torus = pc.PreCubicalSet(
        ["*"],
        {"a": ("*", "*"), "b": ("*", "*")},
        {"w": ("a", "a", "b", "b")},
    )
    assert pc.validate(torus) == []
    assert not fc.is_acyclic(torus)
    table = fc.fundamental_monoid_classes(torus, "*", 5)
    assert table.counts == (1, 2, 3, 4, 5, 6)
    words = bfs_dipaths(torus, "*", "*", 4)
    oracle = swap_partition(torus, words)
    h = fc.hom_classes(torus, "*", "*", 4)
    assert sorted(len(g) for g in oracle) == sorted(c.size for c in h.classes)


# preorder and components

def test_interval_preorder():
    reach = fc.path_preorder(pc.model("interval"))
    assert "1" in reach["0"] and "0" not in reach["1"]


def test_directed_circle_preorder_is_chaotic():
    reach = fc.path_preorder(pc.model("directed_circle"))
    assert reach["*"] == frozenset({"*"})


def test_hole_grid_preorder():
    reach = fc.path_preorder(HOLE)
    assert "v3_3" in reach["v0_0"]
    assert "v0_0" not in reach["v3_3"]


def random_digraph(rng):
    """Up to 12 vertices named from a pool where string order is not insertion
    order (v9 < v10 as numbers, not as strings), and edges with cycles,
    self-loops, parallel copies and vertices left isolated."""
    n = rng.randint(1, 12)
    verts = rng.sample([f"v{i}" for i in range(14)], n)
    edges = {}
    for j in range(rng.choice([0, n // 2, n, 2 * n])):
        a = rng.choice(verts)
        b = a if rng.random() < 0.1 else rng.choice(verts)
        edges[f"e{j}"] = (a, b)
        if rng.random() < 0.1:  # a parallel copy
            edges[f"p{j}"] = (a, b)
    return pc.PreCubicalSet(verts, edges, {})


def test_closure_matches_one_search_per_vertex():
    rng = random.Random(20261019)
    cyclic = 0
    for _ in range(300):
        n = rng.randint(0, 12)
        targets = [[rng.randrange(n) for _ in range(rng.randint(0, 3))] for _ in range(n)]
        masks = fc._closure(targets)
        assert [{w for w in range(n) if m >> w & 1} for m in masks] == [
            reach_oracle(targets, v) for v in range(n)
        ]
        assert all(list(fc._picked(range(n), m)) == sorted(reach_oracle(targets, v))
                   for v, m in enumerate(masks))
        cyclic += len(set(masks)) < n
    assert cyclic > 100


def test_preorder_matches_the_walk_on_random_digraphs():
    rng = random.Random(20261020)
    for _ in range(200):
        k = random_digraph(rng)
        want = path_preorder_walk_oracle(k)
        got = fc.path_preorder(k)
        assert got == want and list(got) == list(want)
        assert fc.format_preorder(k) == format_preorder_oracle(want)


def test_preorder_of_a_scene_matches_its_complex_written_out():
    rng = random.Random(20261021)
    for _ in range(40):
        w, h = rng.randint(1, 12), rng.randint(1, 12)  # ids v9_0 < v10_0 only as numbers
        boxes = []
        for _ in range(rng.randint(0, 3)):
            x0, y0 = rng.randint(0, w - 1), rng.randint(0, h - 1)
            boxes.append(gs.Box(x0, y0, rng.randint(x0 + 1, w), rng.randint(y0 + 1, h)))
        k = gs.to_precubical(gs.GridScene(w, h, tuple(boxes), (0, 0), (w, h)))
        parsed = pc.parse_complex(pc.format_complex(k))
        text = format_preorder_oracle(path_preorder_walk_oracle(k))
        assert fc.format_preorder(k) == fc.format_preorder(parsed) == text
        assert fc.path_preorder(k) == fc.path_preorder(parsed)


def test_pi0_two_intervals():
    k = pc.PreCubicalSet(["0", "1", "p", "q"], {"a": ("0", "1"), "b": ("p", "q")}, {})
    assert fc.pi0(k) == (("0", "1"), ("p", "q"))


def test_pi0_ordered_circle_connected():
    assert len(fc.pi0(pc.model("ordered_circle"))) == 1


def test_pi0_empty_complex():
    assert fc.pi0(pc.PreCubicalSet([], {}, {})) == ()


def test_pi0_invariant_under_opposite():
    for k in (HOLE, pc.model("ordered_circle")):
        assert fc.pi0(k) == fc.pi0(pc.opposite(k))


# one-simplicity

def test_full_grids_are_one_simple():
    for w, h in [(1, 1), (2, 2), (3, 2)]:
        k = gs.to_precubical(gs.make_scene(w, h, [], (0, 0), (w, h)))
        assert fc.is_one_simple(k).one_simple


def test_ordered_circle_is_not_one_simple():
    res = fc.is_one_simple(pc.model("ordered_circle"))
    assert not res.one_simple
    assert res.witness == ("0", "1")
    assert res.exact


def test_hole_grid_is_not_one_simple():
    res = fc.is_one_simple(HOLE)
    assert not res.one_simple
    x, y = res.witness
    assert fc.hom_classes(HOLE, x, y).count >= 2


def test_one_simple_on_cyclic_needs_bound():
    k = pc.model("directed_circle")
    with pytest.raises(UnboundedEnumerationError):
        fc.is_one_simple(k)
    res = fc.is_one_simple(k, max_len=3)
    assert not res.exact


# serialization

def test_hom_class_report_format():
    text = fc.format_hom_classes(fc.hom_classes(pc.model("ordered_circle"), "0", "1"))
    assert text == "classes 2\nclass 0 size 1 rep a\nclass 1 size 1 rep b\n"


def test_hom_class_report_degenerate_path():
    text = fc.format_hom_classes(fc.hom_classes(HOLE, "v0_0", "v0_0", max_len=0))
    assert text == "classes 1\nclass 0 size 1 rep\n"


def test_hom_class_lines_match_the_joined_report(tmp_path):
    # the empty word's line, one-generator words and 24-generator words,
    # line by line and through ``hom --reps``
    queries = [(HOLE, "v0_0", "v0_0", [0]), (pc.model("ordered_circle"), "0", "1", [1, 1]),
               (scene_complex("grid 12 12\nbox 5 5 7 7\nsource 0 0\ntarget 12 12\n"),
                "v0_0", "v12_12", [24, 24])]
    path = tmp_path / "k.complex"
    for k, x, y, lengths in queries:
        homset = fc.hom_classes(k, x, y)
        assert [len(c.representative) for c in homset.classes] == lengths
        want = format_hom_classes_oracle(homset)
        lines = [fc.format_hom_class(i, c.representative, c.size)
                 for i, c in enumerate(homset.classes)]
        assert f"classes {homset.count}\n" + "".join(lines) == want
        path.write_text(pc.format_complex(k))
        out = io.StringIO()
        assert cli.run(["hom", str(path), "--from", x, "--to", y, "--reps"], out=out) == 0
        assert out.getvalue() == want
    assert fc.format_hom_class(3, (), 1) == "class 3 size 1 rep\n"


# the class engine against the brute-force oracles, on seeded random inputs


def random_complex(rng, acyclic):
    """A small complex whose squares join random parallel 2-edge routes."""
    n = rng.randint(1, 6)
    verts = [f"x{i}" for i in range(n)]
    edges = {}
    for i in range(rng.randint(0, 11)):
        a, b = rng.randrange(n), rng.randrange(n)
        if acyclic:
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
        edges[f"e{i:02d}"] = (verts[a], verts[b])
    routes = [(a, b) for a in edges for b in edges if edges[a][1] == edges[b][0]]
    squares = {}
    for i in range(rng.randint(0, 8) if routes else 0):
        (a1, a2), (b1, b2) = rng.choice(routes), rng.choice(routes)
        if edges[a1][0] == edges[b1][0] and edges[a2][1] == edges[b2][1]:
            squares[f"w{i}"] = (b1, a2, a1, b2)  # d2m;d1p = a1;a2, d1m;d2p = b1;b2
    k = pc.PreCubicalSet(verts, edges, squares)
    assert pc.validate(k) == []
    return k


def random_scene_complex(rng):
    w, h = rng.randint(1, 4), rng.randint(1, 4)
    boxes = []
    for _ in range(rng.randint(0, 3)):
        x0, y0 = rng.randint(0, w - 1), rng.randint(0, h - 1)
        boxes.append(gs.Box(x0, y0, rng.randint(x0 + 1, w), rng.randint(y0 + 1, h)))
    return gs.to_precubical(gs.GridScene(w, h, tuple(boxes), (0, 0), (w, h)))


def random_cases(seed, count):
    """(rng, complex, length bound) triples; cyclic complexes get a bound."""
    rng = random.Random(seed)
    for _ in range(count):
        roll = rng.random()
        if roll < 0.4:
            yield rng, random_complex(rng, acyclic=False), rng.randint(0, 4)
        elif roll < 0.7:
            yield rng, random_complex(rng, acyclic=True), rng.choice([None, None, 3])
        else:
            yield rng, random_scene_complex(rng), rng.choice([None, None, 4])


def oracle_classes(k, x, y, bound):
    groups = swap_partition(k, bfs_dipaths(k, x, y, bound))
    return [(min(g), len(g)) for g in groups]


def test_engine_hom_classes_match_oracle_partition():
    checked = 0
    for rng, k, bound in random_cases(20261017, 120):
        verts = list(k.vertices)
        for _ in range(3):
            x, y = rng.choice(verts), rng.choice(verts)
            h = fc.hom_classes(k, x, y, bound)
            got = [(c.representative, c.size) for c in h.classes]
            assert got == oracle_classes(k, x, y, bound), (k, x, y, bound)
            checked += h.count
    assert checked > 100


def test_unbounded_hom_classes_stop_at_the_target_height():
    # the same classes as the whole sweep, bounded or not, on random acyclic
    # complexes; count the queries whose whole sweep runs past the target
    rng = random.Random(20261020)
    past = 0
    for _ in range(300):
        k = random_complex(rng, acyclic=True)
        engine = fc._engine_of(k)
        for _ in range(3):
            x, y = rng.choice(k.vertices), rng.choice(k.vertices)
            for bound in (None, rng.randint(0, 4)):
                assert fc.hom_classes(k, x, y, bound) == hom_classes_sweep_oracle(k, x, y, bound)
            layers = list(engine.layers([x], None, fc.DEFAULT_MAX_CLASSES))
            past += len(layers) - 1 > engine.heights[engine.index[y]] + 1
    assert past > 100


def test_unbounded_hom_classes_build_no_class_past_the_target():
    # s -a-> t and five edges out of t: the whole sweep builds 7 classes
    edges = {"a": ("s", "t"), **{f"b{i}": ("t", f"u{i}") for i in range(5)}}
    k = pc.PreCubicalSet(["s", "t", *(f"u{i}" for i in range(5))], edges, {})
    with pytest.raises(EnumerationLimitError, match="^7 dipath classes built from s"):
        hom_classes_sweep_oracle(k, "s", "t", max_classes=3)
    h = fc.hom_classes(k, "s", "t", max_classes=3)
    assert [(c.representative, c.size) for c in h.classes] == [(("a",), 1)]
    with pytest.raises(EnumerationLimitError, match="^7 dipath classes built from s"):
        fc.hom_classes(k, "s", "t", max_len=2, max_classes=3)  # a bound keeps its sweep


def test_enumerate_dipaths_matches_the_checked_walk():
    found = inner = 0
    for rng, k, bound in random_cases(20261018, 150):
        verts = list(k.vertices)
        engine = fc._engine_of(k)
        for _ in range(3):
            x, y = rng.choice(verts), rng.choice(verts)
            want = enumerate_dipaths_oracle(k, x, y, bound)
            got = fc.enumerate_dipaths(k, x, y, bound)
            assert [(p.start, p.edges) for p in got] == [(p.start, p.edges) for p in want]
            assert all(p.complex is k for p in got)
            found += len(want)
            if want:
                fc.enumerate_dipaths(k, x, y, bound, max_paths=len(want))
                with pytest.raises(EnumerationLimitError,
                                   match=f"^more than {len(want) - 1} dipaths {x} -> {y}$"):
                    fc.enumerate_dipaths(k, x, y, bound, max_paths=len(want) - 1)
                # an unbounded walk to a target with out-edges stops at its height
                inner += bound is None and bool(engine.out[engine.index[y]])
    assert found > 300 and inner >= 20


def test_unbounded_enumerate_dipaths_stops_at_the_target_height(monkeypatch):
    walk, bounds = fc._walk, []

    def bounded_walk(engine, source, max_len):
        bounds.append(max_len)
        return walk(engine, source, max_len)

    monkeypatch.setattr(fc, "_walk", bounded_walk)
    scene = scene_complex("grid 10 10\nsource 0 0\ntarget 10 10\n")
    grid = pc.parse_complex(pc.format_complex(scene))
    assert len(fc.enumerate_dipaths(grid, "v0_0", "v1_1")) == 2
    assert bounds == [2]  # the whole walk goes on to length 20


def test_engine_monoid_table_matches_oracle_partition():
    for rng, k, bound in random_cases(7, 80):
        x = rng.choice(list(k.vertices))
        length = min(bound, 3) if bound is not None else 3
        table = fc.fundamental_monoid_classes(k, x, length)
        groups = swap_partition(k, bfs_dipaths(k, x, x, length))
        reps = tuple(min(g) for g in groups)
        class_of = {w: i for i, g in enumerate(groups) for w in g}
        counts = [0] * (length + 1)
        for r in reps:
            counts[len(r)] += 1
        expected = {
            (i, j): class_of[ri + rj]
            for i, ri in enumerate(reps)
            for j, rj in enumerate(reps)
            if len(ri) + len(rj) <= length
        }
        assert (table.counts, table.reps, table.table) == (tuple(counts), reps, expected)


def test_monoid_table_lists_its_keys_in_sorted_order():
    # the monoid verb writes the table as built, so its key order is its output order
    rng = random.Random(20261023)
    torus = pc.PreCubicalSet(["*"], {"a": ("*", "*"), "b": ("*", "*")},
                             {"w": ("a", "a", "b", "b")})
    cases = [(torus, "*", 5), (pc.model("wedge_circles(2)"), "*", 4),
             (pc.model("wedge_circles(3)"), "*", 3)]
    for _ in range(60):
        k = random_complex(rng, acyclic=rng.random() < 0.3)
        cases.append((k, rng.choice(list(k.vertices)), rng.randint(0, 4)))
    entries = 0
    for k, x, length in cases:
        t = fc.fundamental_monoid_classes(k, x, length)
        assert list(t.table) == sorted(t.table)
        entries += len(t.table)
    assert entries > 500


def test_monoid_table_matches_walks_without_sharing_at_lengths_4_to_8():
    rng = random.Random(20261022)
    torus = pc.PreCubicalSet(["*"], {"a": ("*", "*"), "b": ("*", "*")},
                             {"w": ("a", "a", "b", "b")})
    cases = [(pc.model("wedge_circles(2)"), "*", length) for length in range(4, 9)]
    cases += [(pc.model("wedge_circles(3)"), "*", length) for length in range(4, 9)]
    cases += [(torus, "*", length) for length in range(4, 9)]
    named = len(cases)
    for _ in range(60):
        k = random_complex(rng, acyclic=rng.random() < 0.2)
        cases.append((k, rng.choice(list(k.vertices)), rng.randint(4, 8)))
    entries = skipped = random_loops = 0
    for n, (k, x, length) in enumerate(cases):
        try:  # the random complexes at a cap: some have many loops at x
            table = fc.fundamental_monoid_classes(k, x, length, 10**5 if n < named else 5000)
        except EnumerationLimitError:
            skipped += 1
            continue
        reps, want = monoid_table_oracle(k, x, length)
        assert table.reps == reps
        assert list(table.table.items()) == list(want.items())
        entries += len(want)
        random_loops += n >= named and len(reps) > 3
    assert entries > 100000 and skipped < 20 and random_loops > 10


def test_engine_one_simple_matches_pairwise_oracle():
    verdicts = set()
    for _rng, k, bound in random_cases(11, 80):
        expected = (True, None)
        for x in k.vertices:
            for y in k.vertices:
                if len(oracle_classes(k, x, y, bound)) > 1 and expected[0]:
                    expected = (False, (x, y))
        res = fc.is_one_simple(k, bound)
        assert (res.one_simple, res.witness) == expected, (k, bound)
        assert res.exact == (bound is None)
        verdicts.add(res.one_simple)
    assert verdicts == {True, False}


def touching_scene_complex(rng):
    """A scene up to 6 x 6 with up to 3 boxes, each after the first sharing a
    side or a corner with the one before, or overlapping it."""
    w, h = rng.randint(2, 6), rng.randint(2, 6)
    x0, y0 = rng.randint(0, w - 1), rng.randint(0, h - 1)
    boxes = [gs.Box(x0, y0, rng.randint(x0 + 1, w), rng.randint(y0 + 1, h))]
    for _ in range(rng.randint(0, 2)):
        b = boxes[-1]
        x0, y0 = rng.choice([(b.x1, b.y0), (b.x0, b.y1), (b.x1, b.y1), (b.x0 + 1, b.y0)])
        if x0 < w and y0 < h:
            boxes.append(gs.Box(x0, y0, rng.randint(x0 + 1, w), rng.randint(y0 + 1, h)))
    return gs.to_precubical(gs.GridScene(w, h, tuple(boxes), (0, 0), (w, h)))


def glued(pres):
    """The pushout of ``pres`` with itself along its identity: both copies'
    relations, and one length-1 relation 1:g = 2:g per generator g."""
    ident = ct.PresentationMorphism(pres, pres, {x: x for x in pres.objects},
                                    {g: (g,) for g in pres.generators})
    return ct.pushout(pres, pres, pres, ident, ident).presentation


def subdivided_engine(rng):
    """The class engine of a random acyclic presentation cut into pieces
    (``catho._subdivided``): a chain o0 -> o1 -> ... gives object i height
    i, so a relation between words o_s -> o_t is t - s pieces long."""
    n = rng.randint(3, 6)
    objects = tuple(f"o{i}" for i in range(n))
    gens = {f"c{i}": (objects[i], objects[i + 1]) for i in range(n - 1)}
    for i in range(rng.randint(1, 5)):
        s = rng.randrange(n - 1)
        gens[f"g{i}"] = (objects[s], objects[rng.randint(s + 1, n - 1)])
    words, parallel = [((), x) for x in objects], {}  # (src, tgt) -> nonempty words
    while words:
        w, at = words.pop()
        if w:
            parallel.setdefault((gens[w[0]][0], at), []).append(w)
        words += [(w + (g,), t) for g, (s, t) in sorted(gens.items()) if s == at]
    groups = [ws for _, ws in sorted(parallel.items()) if len(ws) > 1]
    relations = [tuple(rng.sample(rng.choice(groups), 2)) for _ in range(rng.randint(1, 4))]
    pres = fc.CatPresentation(objects, gens, tuple(relations))
    return fc._SwapEngine(*ct._subdivided(pres, pres._engine.heights)[1:])


def boxed_scene_complex(rng):
    """A scene up to 7 x 7 with at least 80% of its unit squares boxed, as
    perfbench's many_classes builds them: classes are about as many as
    dipaths, so most pairs of a layer start a class."""
    w, h = rng.randint(2, 7), rng.randint(2, 7)
    cells = [(x, y) for x in range(w) for y in range(h)]
    kept = set(rng.sample(cells, int(rng.uniform(0, 0.2) * len(cells))))
    boxes = tuple(gs.Box(x, y, x + 1, y + 1) for x, y in cells if (x, y) not in kept)
    return gs.to_precubical(gs.GridScene(w, h, boxes, (0, 0), (w, h)))


def layer_step_cases(seed, count):
    """(kind, engine, length bound) triples: random complexes (cyclic ones
    bounded), scenes with touching boxes, mostly boxed scenes, pushout-glued
    presentations and subdivided ones, whose relations are mostly 3 or more
    generators long."""
    rng = random.Random(seed)
    for trial in range(count):
        kind = ("complex", "scene", "boxed", "glued", "subdivided")[trial % 5]
        if kind == "subdivided":
            engine = subdivided_engine(rng)
        elif kind == "scene":
            engine = fc._engine_of(touching_scene_complex(rng))
        elif kind == "boxed":
            engine = fc._engine_of(boxed_scene_complex(rng))
        else:
            k = random_complex(rng, acyclic=rng.random() < 0.5)
            engine = fc._engine_of(k) if kind == "complex" else glued(fc.presentation_of(k))._engine
        bound = None if engine.acyclic and rng.random() < 0.6 else rng.randint(0, 5)
        yield rng, kind, engine, bound


def swept(layers):
    """Every layer's fields, then the cap error's message (None if none)."""
    got, error = [], None
    try:
        for layer in layers:
            got.append(layer)
    except EnumerationLimitError as exc:
        error = str(exc)
    fields = ("ends", "sizes", "reps", "blocks", "offsets", "step")
    return [[getattr(layer, f, None) for f in fields] for layer in got], error


def mostly_roots(fields):
    """Whether more than 3 in 4 pairs of the swept layers start a class."""
    pairs = sum(len(step) for _, _, _, _, _, step in fields if step is not None)
    return pairs > 0 and 4 * sum(len(ends) for ends, *_ in fields[1:]) > 3 * pairs


def test_layer_step_matches_the_generic_walk():
    # boxed scenes take the root path on nearly every pair
    seen = Counter()
    for rng, kind, engine, bound in layer_step_cases(20261020, 300):
        objects = list(engine.index)
        for sources in ([rng.choice(objects)], objects, rng.sample(objects, min(2, len(objects)))):
            for cap in (fc.DEFAULT_MAX_CLASSES, rng.randint(1, 12)):
                want = swept(swap_layers_oracle(engine, sources, bound, cap))
                assert swept(engine.layers(sources, bound, cap)) == want, (kind, sources, bound)
                seen["multi-source"] += len(sources) > 1
                seen["capped"] += want[1] is not None
                if kind == "boxed":
                    seen["boxed multi-source"] += len(sources) > 1
                    seen["boxed capped"] += want[1] is not None
                    seen["boxed mostly roots"] += want[1] is None and mostly_roots(want[0])
        for m in engine.relations:
            seen[f"{kind} length {min(m, 3)}"] += 1
    assert min(seen.values()) >= 20, seen
    assert {"glued length 1", "subdivided length 3"} <= set(seen), seen
    assert seen["boxed mostly roots"] >= 60, seen


def test_count_only_layers_match_the_word_layers():
    # the same ends, blocks, offsets, step and cap errors, with neither
    # sizes nor reps: random complexes (cyclic ones bounded), scenes, mostly
    # boxed scenes, glued and subdivided presentations, from one, two and all
    # objects
    cases = [(kind, engine, bound) for _, kind, engine, bound in layer_step_cases(20261029, 200)]
    cases += [("random", fc._engine_of(k), bound) for _, k, bound in random_cases(777, 80)]
    rng = random.Random(20261029)
    seen = Counter()
    for kind, engine, bound in cases:
        objects = list(engine.index)
        for sources in ([rng.choice(objects)], objects, rng.sample(objects, min(2, len(objects)))):
            for cap in (fc.DEFAULT_MAX_CLASSES, rng.randint(1, 12)):
                words, error = swept(engine.layers(sources, bound, cap))
                counted = swept(engine.layers(sources, bound, cap, words=False))
                blank = [[ends, None, None, *rest] for ends, _, _, *rest in words]
                assert counted == (blank, error), (kind, sources, bound, cap)
                seen[kind] += 1
                seen["multi-source"] += len(sources) > 1
                seen["capped"] += error is not None
                if kind == "boxed":
                    seen["boxed multi-source"] += len(sources) > 1
                    seen["boxed capped"] += error is not None
                    seen["boxed mostly roots"] += error is None and mostly_roots(words)
    assert min(seen.values()) >= 20, seen
    assert seen["boxed mostly roots"] >= 40, seen


def test_hom_class_count_and_rep_match_the_record_sweep():
    # k in {0, middle, last, count}: the count is out of range, as is every
    # index of an empty hom-set; a bounded sweep may reach the target at
    # several lengths, where the rep comes from the word collector
    multi = ranged = 0
    for rng, k, bound in random_cases(777, 400):
        for _ in range(3):
            x, y = rng.choice(k.vertices), rng.choice(k.vertices)
            cap = rng.choice([fc.DEFAULT_MAX_CLASSES, rng.randint(1, 12)])
            want = _outcome(hom_classes_record_oracle, k, x, y, bound, cap)
            assert _outcome(fc.hom_classes, k, x, y, bound, cap) == want
            count = want.count if isinstance(want, fc.HomClassSet) else want
            assert _outcome(fc.hom_class_count, k, x, y, bound, cap) == count
            if not isinstance(want, fc.HomClassSet):
                continue
            multi += len({len(c.representative) for c in want.classes}) > 1
            for i in sorted({0, count // 2, count - 1, count}):
                got = _outcome(fc.hom_class_rep, k, x, y, i, bound, cap)
                if 0 <= i < count:
                    assert got == want.classes[i].representative, (k, x, y, bound, i)
                else:
                    ranged += 1
                    assert got == (DomainError, f"class index {i} out of range ({count} classes)")
    assert multi > 100 and ranged > 100, (multi, ranged)


def test_hom_class_reps_sort_only_where_several_lengths_reach_the_target(monkeypatch):
    # a 5 x 5 scene with one free square: one length reaches the target, and
    # the layer's order is the sorted order; the wedge's loops at 0 to 3
    # generators come from four layers
    cells = [(x, y) for x in range(5) for y in range(5) if (x, y) != (2, 2)]
    boxes = "".join(f"box {x} {y} {x + 1} {y + 1}\n" for x, y in cells)
    k = scene_complex(f"grid 5 5\n{boxes}source 0 0\ntarget 5 5\n")
    wedge = pc.model("wedge_circles(2)")
    sorts = []
    monkeypatch.setattr(fc, "sorted", lambda *a, **kw: sorts.append(1) or sorted(*a, **kw),
                        raising=False)
    for k, x, y, bound, sorted_ in ((k, "v0_0", "v5_5", None, 0), (wedge, "*", "*", 3, 1)):
        want = hom_classes_record_oracle(k, x, y, bound)  # builds the engine, which sorts
        sorts.clear()
        reps, sizes = fc.hom_class_reps(k, x, y, bound)
        assert len(sorts) == sorted_
        assert [(c.representative, c.size) for c in want.classes] == list(zip(reps, sizes))
        assert len(reps) == fc.hom_class_count(k, x, y, bound) > 10
        for i in (0, 7, len(reps) - 1):
            assert fc.hom_class_rep(k, x, y, i, bound) == reps[i]


def test_one_simple_witness_matches_the_old_scan():
    witnesses = Counter()
    for trial in range(150):
        rng = random.Random(trial)
        k = (touching_scene_complex(rng) if trial % 3 == 0
             else random_complex(rng, acyclic=trial % 3 == 1))
        bound = rng.choice([None, rng.randint(0, 4)])
        for cap in (fc.DEFAULT_MAX_CLASSES, rng.randint(1, 12)):
            want = _outcome(is_one_simple_scan_oracle, k, bound, cap)
            assert _outcome(fc.is_one_simple, k, bound, cap) == want, (k, bound, cap)
            witnesses[want[0].__name__ if isinstance(want, tuple) else want.one_simple] += 1
    assert min(witnesses.values()) >= 10, witnesses


# sizes the dipath enumeration could not reach


def test_long_circle_loops_are_one_class_per_length():
    assert fc.hom_classes(pc.model("directed_circle"), "*", "*", 2000).count == 2001


def test_two_hole_30x30_scene_counts_every_dipath():
    k = scene_complex("grid 30 30\nbox 10 10 11 11\nbox 20 5 21 6\nsource 0 0\ntarget 30 30\n")
    h = fc.hom_classes(k, "v0_0", "v30_30")
    assert h.count == 3
    assert sum(c.size for c in h.classes) == math.comb(60, 30)


def test_class_cap_is_enforced_and_reports_the_count():
    with pytest.raises(EnumerationLimitError, match=r"^\d+ dipath classes built from v0_0"):
        fc.hom_classes(HOLE, "v0_0", "v3_3", max_classes=5)
    with pytest.raises(EnumerationLimitError, match="dipath classes built"):
        fc.is_one_simple(HOLE, max_classes=5)
    with pytest.raises(EnumerationLimitError, match="dipath classes built"):
        fc.fundamental_monoid_classes(pc.model("wedge_circles(2)"), "*", 8, max_classes=100)


def test_monoid_table_is_capped_while_layers_are_built():
    # 21 loop classes, 21 * 22 / 2 = 231 table entries
    with pytest.raises(EnumerationLimitError, match="concatenation table entries"):
        fc.fundamental_monoid_classes(pc.model("directed_circle"), "*", 20, max_classes=100)


@pytest.mark.parametrize("model,length", [("directed_circle", 20), ("wedge_circles(2)", 5),
                                          ("wedge_circles(3)", 4)])
def test_monoid_table_cap_counts_exactly_the_entries(model, length):
    entries = len(fc.fundamental_monoid_classes(pc.model(model), "*", length).table)
    fc.fundamental_monoid_classes(pc.model(model), "*", length, max_classes=entries)
    with pytest.raises(EnumerationLimitError, match=f"^{entries} concatenation"):
        fc.fundamental_monoid_classes(pc.model(model), "*", length, max_classes=entries - 1)


def test_enumerate_dipaths_on_a_long_thin_grid():
    # dipaths of 1201 edges: deeper than the interpreter's recursion limit
    k = scene_complex("grid 1200 1\nsource 0 0\ntarget 1200 1\n")
    paths = fc.enumerate_dipaths(k, "v0_0", "v1200_1")
    assert len(paths) == 1201
    assert all(len(p) == 1201 and p.end == "v1200_1" for p in paths)


def test_one_complex_builds_its_class_engine_once(monkeypatch):
    built = []

    class CountingEngine(fc._SwapEngine):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(fc, "_SwapEngine", CountingEngine)
    scene = scene_complex("grid 4 4\nbox 1 1 2 2\nbox 2 2 3 3\nsource 0 0\ntarget 4 4\n")
    parsed = pc.parse_complex(pc.format_complex(scene))
    for k, generic_builds in ((scene, 0), (parsed, 1)):
        first = fc.hom_classes(k, "v0_0", "v4_4")
        engine = k._engine
        assert fc.hom_classes(k, "v0_0", "v4_4") == first
        assert fc.is_acyclic(k)
        fc.path_preorder(k)
        fc.pi0(k)
        fc.DiPath(k, "v0_0", ("e0_0",))
        assert ct.realize_presentation(fc.presentation_of(k))._engine is engine
        assert k._engine is engine
        assert len(built) == generic_builds  # a scene hands over its arrays


def _outcome(call, *args):
    try:
        return call(*args)
    except DomainError as exc:
        return type(exc), str(exc)


def test_a_complex_presentation_realizes_as_a_fresh_copy_does():
    """presentation_of(k) hands over k's engine (compiled, for a scene); the
    realization is that of a fresh presentation, which builds its own."""
    kinds = Counter()
    for _, k, bound in random_cases(20261019, 40):
        shared = ct.realize_presentation(fc.presentation_of(k), bound)
        fresh = ct.realize_presentation(
            fc.CatPresentation(k.vertices, dict(k.edges), fc._square_relations(k)), bound)
        assert shared._engine is fc._engine_of(k) is not fresh._engine
        kinds["compiled"] += isinstance(k, gs._SceneComplex)
        assert list(shared.homs.items()) == list(fresh.homs.items())
        assert shared.truncated == fresh.truncated
        tails = [(), ("nope",)] + [(e,) for e in sorted(k.edges)]
        for (x, _y), reps in fresh.homs.items():
            for w in reps:
                for tail in tails:
                    assert (_outcome(shared.class_of, x, w + tail)
                            == _outcome(fresh.class_of, x, w + tail))
        if fresh.truncated:
            continue
        kinds["complete"] += 1
        got, want = shared.to_fincategory(), fresh.to_fincategory()
        assert got.objects == want.objects
        for part in ("arrows", "identity", "table"):
            assert list(getattr(got, part).items()) == list(getattr(want, part).items())
    assert kinds["compiled"] >= 8 and kinds["complete"] >= 20, kinds


def test_dipath_needs_a_valid_complex():
    broken = pc.PreCubicalSet(["0", "1"], {"a": ("0", "1")}, {"w": ("a", "a", "a", "x")})
    with pytest.raises(InvalidComplexError):
        fc.DiPath(broken, "0", ("a",))


def test_preorder_and_components_match_a_walk_over_the_edges():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        verts = [f"p{i}" for i in range(n)]
        edges = {f"a{j}": (rng.choice(verts), rng.choice(verts)) for j in range(rng.randint(0, 8))}
        k = pc.PreCubicalSet(verts, edges, {})
        reach = {v: {v} for v in verts}
        for _ in range(n):
            for s, t in edges.values():
                for v in verts:
                    if s in reach[v]:
                        reach[v].add(t)
        assert fc.path_preorder(k) == {v: frozenset(r) for v, r in reach.items()}
        linked = {v: {w for w in verts if w in reach[v] or v in reach[w]} for v in verts}
        for _ in range(n):
            for v in verts:
                linked[v] = set().union(*(linked[w] for w in linked[v]))
        parts = tuple(sorted({tuple(sorted(linked[v])) for v in verts}))
        assert fc.pi0(k) == parts
