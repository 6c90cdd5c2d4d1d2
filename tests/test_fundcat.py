import math
import random

import pytest

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
    has_no_cycle_oracle,
    is_length_addition,
    monoid_table_oracle,
    scene_path_classes,
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


def test_enumerate_dipaths_matches_the_checked_walk():
    found = 0
    for rng, k, bound in random_cases(20261018, 150):
        verts = list(k.vertices)
        for _ in range(3):
            x, y = rng.choice(verts), rng.choice(verts)
            want = enumerate_dipaths_oracle(k, x, y, bound)
            got = fc.enumerate_dipaths(k, x, y, bound)
            assert [(p.start, p.edges) for p in got] == [(p.start, p.edges) for p in want]
            assert all(p.complex is k for p in got)
            found += len(want)
            if want:
                fc.enumerate_dipaths(k, x, y, bound, max_paths=len(want))
                with pytest.raises(EnumerationLimitError):
                    fc.enumerate_dipaths(k, x, y, bound, max_paths=len(want) - 1)
    assert found > 300


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
        assert k._engine is engine
        assert len(built) == generic_builds  # a scene hands over its arrays


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
