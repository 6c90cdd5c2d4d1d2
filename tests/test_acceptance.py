"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Derived fixture values
are confirmed against the independent oracles in ``oracles.py`` inside the
tests themselves before the library's answers are asserted.  All
comparisons are exact; the stated runtime budgets are asserted with
``time.monotonic``.
"""

import random
import time
from itertools import product as iter_product

from dihom import catho as ct
from dihom import dmetric as dm
from dihom import fundcat as fc
from dihom import gridscene as gs
from dihom import precubical as pc
from oracles import (
    contractible_steps_oracle,
    random_category,
    scene_path_classes,
    strong_contraction_objects,
)

X_SCENE = "grid 6 6\nbox 1 1 4 2\nbox 1 4 4 5\nsource 0 0\ntarget 6 6\n"
Y_SCENE = "grid 6 6\nbox 1 1 2 2\nbox 4 4 5 5\nsource 0 0\ntarget 6 6\n"
H_SCENE = "grid 3 3\nbox 1 1 2 2\nsource 0 0\ntarget 3 3\n"


def _scene(text):
    return gs.parse_scene(text)


def _complex(text):
    return gs.to_precubical(_scene(text))


def _report(n, message):
    print(f"criterion {n}: PASS - {message}")


def test_criterion_1_two_obstruction_scenes():
    budgets = {}
    for name, text, expected in (("X", X_SCENE, 3), ("Y", Y_SCENE, 4)):
        scene = _scene(text)
        boxes = [(b.x0, b.y0, b.x1, b.y1) for b in scene.boxes]
        oracle_count, _ = scene_path_classes(0, 0, 6, 6, boxes)
        assert oracle_count == expected  # fixture confirmed independently

        k = gs.to_precubical(scene)
        src, tgt = gs.vertex_id(0, 0), gs.vertex_id(6, 6)
        t0 = time.monotonic()
        forward = fc.hom_classes(k, src, tgt)
        backward = fc.hom_classes(k, tgt, src)
        budgets[name] = time.monotonic() - t0
        assert forward.count == expected
        assert backward.count == 0

        for v in sorted(k.vertices):
            table = fc.fundamental_monoid_classes(k, v, 3)
            assert table.counts == (1, 0, 0, 0)
        assert budgets[name] < 10.0
    _report(1, f"X=3, Y=4 classes, none backward, trivial loops "
               f"({budgets['X']:.2f}s / {budgets['Y']:.2f}s)")


def test_criterion_2_directed_circle_monoid():
    t0 = time.monotonic()
    table = fc.fundamental_monoid_classes(pc.model("directed_circle"), "*", 6)
    elapsed = time.monotonic() - t0
    assert table.counts == (1, 1, 1, 1, 1, 1, 1)
    # reps sort lexicographically, so class index equals loop length and
    # the table must be literal addition
    for i, rep in enumerate(table.reps):
        assert len(rep) == i
    for (i, j), k in table.table.items():
        assert k == i + j
    assert elapsed < 1.0
    _report(2, f"free monoid on one loop up to length 6 ({elapsed:.3f}s)")


def test_criterion_3_ordered_circle():
    k = pc.model("ordered_circle")
    assert fc.hom_classes(k, "0", "1").count == 2
    for x in k.vertices:
        for y in k.vertices:
            if (x, y) != ("0", "1"):
                assert fc.hom_classes(k, x, y).count <= 1
    verdict = fc.is_one_simple(k)
    assert not verdict.one_simple
    assert verdict.witness == ("0", "1")
    assert verdict.exact
    _report(3, "two classes 0->1, at most one elsewhere, witness (0,1)")


def test_criterion_4_central_hole_scene():
    scene = _scene(H_SCENE)
    oracle_count, oracle_paths = scene_path_classes(0, 0, 3, 3, [(1, 1, 2, 2)])
    assert (oracle_count, oracle_paths) == (2, 20)

    k = gs.to_precubical(scene)
    t0 = time.monotonic()
    h = fc.hom_classes(k, "v0_0", "v3_3")
    assert h.count == 2
    coords = {v: tuple(int(c) for c in v[1:].split("_")) for v in k.vertices}
    for x in sorted(k.vertices):
        for y in sorted(k.vertices):
            straddles = (
                coords[x][0] <= 1 and coords[x][1] <= 1
                and coords[y][0] >= 2 and coords[y][1] >= 2
            )
            count = fc.hom_classes(k, x, y).count
            if straddles:
                assert count == 2
            else:
                assert count <= 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(4, f"2 classes across the hole, <=1 elsewhere ({elapsed:.3f}s)")


def test_criterion_5_wedge_monoid():
    table = fc.fundamental_monoid_classes(pc.model("wedge_circles(2)"), "*", 5)
    assert table.counts == (1, 2, 4, 8, 16, 32)
    assert len(table.reps) == 2 ** 6 - 1
    # oracle: the free words on two letters, enumerated directly
    free_words = set()
    for length in range(6):
        free_words.update(iter_product("ab", repeat=length))
    assert set(table.reps) == free_words
    index_of = {rep: i for i, rep in enumerate(table.reps)}
    for (i, j), k in table.table.items():
        assert k == index_of[table.reps[i] + table.reps[j]]
    _report(5, "free monoid on two loops: 2^len classes, cumulative 63")


def _split_at(k, axis, line):
    """Face-closed halves of a grid-scene complex at an integer grid line."""
    lo, hi = [], []
    for dim, cid in k.cell_keys():
        kind, rest = cid[0], cid[1:]
        x, y = (int(c) for c in rest.split("_"))
        spans = {
            "v": (0, 0), "e": (1, 0), "n": (0, 1), "s": (1, 1),
        }[kind]
        coord = x if axis == "x" else y
        span = spans[0] if axis == "x" else spans[1]
        if coord + span <= line:
            lo.append((dim, cid))
        if coord >= line:
            hi.append((dim, cid))
    return pc.sub_complex(k, lo), pc.sub_complex(k, hi)


def test_criterion_6_van_kampen_consistency():
    cases = [
        ("grid 3 3\nbox 1 1 2 2\nsource 0 0\ntarget 3 3\n", "x", 2),
        ("grid 2 2\nsource 0 0\ntarget 2 2\n", "y", 1),
        ("grid 4 3\nbox 1 1 3 2\nsource 0 0\ntarget 4 3\n", "x", 2),
        ("grid 10 10\nbox 3 3 4 4\nbox 6 5 7 6\nsource 0 0\ntarget 10 10\n", "x", 5),
        ("grid 30 30\nbox 9 9 10 10\nbox 20 20 21 21\nsource 0 0\ntarget 30 30\n", "x", 15),
    ]
    checked_scenes = 0
    for text, axis, line in cases:
        scene = _scene(text)
        k = gs.to_precubical(scene)
        k1, k2 = _split_at(k, axis, line)
        k0 = pc.intersect(k1, k2)
        assert pc.union(k1, k2) == k
        assert pc.validate(k0) == []

        p0, p1, p2 = (fc.presentation_of(x) for x in (k0, k1, k2))
        u1 = ct.PresentationMorphism(
            p0, p1, {x: x for x in p0.objects}, {g: (g,) for g in p0.generators}
        )
        u2 = ct.PresentationMorphism(
            p0, p2, {x: x for x in p0.objects}, {g: (g,) for g in p0.generators}
        )
        po = ct.pushout(p0, p1, p2, u1, u2)
        real = ct.realize_presentation(po.presentation)
        assert not real.truncated

        def glued(v):
            if v in po.left.obj_map:
                return po.left.obj(v)
            return po.right.obj(v)

        src = gs.vertex_id(*scene.source)
        tgt = gs.vertex_id(*scene.target)
        rng = random.Random(6)
        verts = sorted(k.vertices)
        pairs = [(src, tgt), (tgt, src)] + [
            (rng.choice(verts), rng.choice(verts)) for _ in range(6)
        ]
        assert len(pairs) >= 5
        for a, b in pairs:
            direct = fc.hom_classes(k, a, b).count
            assert real.hom_count(glued(a), glued(b)) == direct
        checked_scenes += 1
    assert checked_scenes >= 3
    _report(6, f"pushout hom counts equal direct counts on {checked_scenes} scenes")


def test_criterion_7_opposite_duality():
    fixtures = [
        (_complex(X_SCENE), None),
        (_complex(Y_SCENE), None),
        (_complex(H_SCENE), None),
        (pc.model("ordered_circle"), None),
        (pc.model("directed_circle"), 6),
        (pc.model("wedge_circles(2)"), 4),
    ]
    rng = random.Random(7)
    pairs_checked = 0
    for k, bound in fixtures:
        op = pc.opposite(k)
        verts = sorted(k.vertices)
        for _ in range(20):
            x, y = rng.choice(verts), rng.choice(verts)
            assert (
                fc.hom_classes(k, x, y, bound).count
                == fc.hom_classes(op, y, x, bound).count
            )
            pairs_checked += 1
    _report(7, f"opposite duality of class counts on {pairs_checked} pairs")


def test_criterion_8_dmetric_quotient_and_limits():
    q = dm.quotient(dm.discretized_interval(8), [("0", "1")])
    circle = dm.discretized_directed_circle(8)
    assert dm.validate(q) == []
    assert dm.is_isometric(q, circle)
    # the glued class keeps the least member name "0"; distances must be the
    # anticlockwise arcs exactly
    for p in q.points:
        for r in q.points:
            assert q.d(p, r) == circle.d(p, r)

    pr = dm.product(dm.discretized_interval(4), dm.discretized_interval(3))
    sm = dm.disjoint_sum(dm.discretized_interval(4), dm.discretized_directed_circle(3))
    assert dm.validate(pr) == []
    assert dm.validate(sm) == []
    _report(8, "quotient(interval(8), 0~1) == circle(8); product/sum axioms hold")


def test_criterion_9_category_suite():
    ordinals = {n: ct.ordinal(n) for n in (1, 2, 3, 4)}
    for a in ordinals:
        for b in ordinals:
            if a < b:
                assert ct.dhomotopy_equivalent(ordinals[a], ordinals[b])

    rng = random.Random(20240810)
    for _ in range(100):
        cat = random_category(rng)
        flag, witness = ct.is_past_contractible(cat)
        oracle = strong_contraction_objects(cat)
        assert flag == bool(oracle)
        if flag:
            assert witness in oracle

    rng = random.Random(424242)
    checked = 0
    while checked < 100:
        d = random_category(rng, max_objects=3)
        c = random_category(rng, max_objects=2)
        cancellable = ct.cancellable_arrows(d)
        functors = ct.all_functors(c, d)
        for h in functors:
            for k in functors:
                if h == k:
                    continue
                for t in ct.nat_transformations(h, k):
                    if all(a in cancellable for a in t.components.values()):
                        assert ct.is_faithful(h) == ct.is_faithful(k)
                        checked += 1
                        break
    _report(9, "ordinals 1..4 equivalent; 100 contractibility and "
               "100 cancellation instances, zero counterexamples")


def test_criterion_10_step_contractibility():
    stairway = ct.poset_category(
        ["x0", "x1", "x2", "x3"], [("x1", "x0"), ("x1", "x2"), ("x3", "x2")]
    )
    assert contractible_steps_oracle(stairway, ct.full_subcategory, 2)
    assert not contractible_steps_oracle(stairway, ct.full_subcategory, 1)
    assert ct.contractible_in_steps(stairway, 2)
    assert not ct.contractible_in_steps(stairway, 1)
    assert ct.contractible_in_steps(ct.ordinal(2), 1)
    _report(10, "stairway needs exactly 2 steps; the interval needs 1")
