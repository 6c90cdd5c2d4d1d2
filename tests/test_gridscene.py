import copy
import pickle
import random

import pytest

from dihom import dot
from dihom import fundcat as fc
from dihom import gridscene as gs
from dihom import precubical as pc
from dihom.errors import DomainError, EnumerationLimitError, InputSyntaxError, SizeGuardError
from oracles import (
    closed_cell_meets_open_box,
    edge_east_ok,
    edge_north_ok,
    enumerate_dipaths_oracle,
    SceneLatticeOracle,
    hom_classes_sweep_oracle,
    square_ok,
)

HOLE_3X3 = "grid 3 3\nbox 1 1 2 2\nsource 0 0\ntarget 3 3\n"


def test_parse_basic_scene():
    scene = gs.parse_scene(HOLE_3X3)
    assert (scene.width, scene.height) == (3, 3)
    assert scene.boxes == (gs.Box(1, 1, 2, 2),)
    assert scene.source == (0, 0) and scene.target == (3, 3)


def test_parse_rejects_degenerate_box():
    with pytest.raises(InputSyntaxError) as exc:
        gs.parse_scene("grid 3 3\nbox 2 1 2 2\nsource 0 0\ntarget 3 3\n")
    assert "degenerate box" in str(exc.value)


def test_parse_rejects_forbidden_source():
    with pytest.raises(InputSyntaxError) as exc:
        gs.parse_scene("grid 4 4\nbox 1 1 3 3\nsource 2 2\ntarget 4 4\n")
    assert "source forbidden" in str(exc.value)


def test_parse_rejects_out_of_bounds():
    with pytest.raises(InputSyntaxError):
        gs.parse_scene("grid 3 3\nbox 1 1 4 2\nsource 0 0\ntarget 3 3\n")
    with pytest.raises(InputSyntaxError):
        gs.parse_scene("grid 3 3\nsource 0 0\ntarget 3 4\n")


@pytest.mark.parametrize("width,height", [(0, 3), (3, 0), (-1, 2)])
def test_non_positive_grid_is_refused(width, height):
    with pytest.raises(InputSyntaxError, match="^grid dimensions must be positive$"):
        gs.make_scene(width, height, [], (0, 0), (0, 0))
    text = f"source 0 0\ngrid {width} {height}\ntarget 0 0\n"
    with pytest.raises(InputSyntaxError, match="^line 2: grid dimensions must be positive$"):
        gs.parse_scene(text)


def test_parse_reports_line_numbers():
    with pytest.raises(InputSyntaxError) as exc:
        gs.parse_scene("grid 3 3\nbox 1 1\nsource 0 0\ntarget 3 3\n")
    assert "line 2" in str(exc.value)


def test_scene_round_trip_is_bit_exact():
    text = "grid 6 6\nbox 1 1 4 2\nbox 1 4 4 5\nsource 0 0\ntarget 6 6\n"
    assert gs.format_scene(gs.parse_scene(text)) == text


def test_cone_transform_fixed_values():
    assert gs.cone_to_product_coords((0, 0)) == (0, 0)
    assert gs.cone_to_product_coords((2, 1)) == (1, 3)


def test_cone_transform_matches_cone_order():
    # p <=_B q  iff  |qy - py| <= qx - px  iff image coordinates both increase
    rng = random.Random(20240817)
    for _ in range(300):
        p = (rng.randint(-8, 8), rng.randint(-8, 8))
        q = (rng.randint(-8, 8), rng.randint(-8, 8))
        cone = abs(q[1] - p[1]) <= q[0] - p[0]
        ip, iq = gs.cone_to_product_coords(p), gs.cone_to_product_coords(q)
        assert cone == (ip[0] <= iq[0] and ip[1] <= iq[1])


def test_unit_square_counts():
    k = gs.to_precubical(gs.make_scene(1, 1, [], (0, 0), (1, 1)))
    assert (len(k.vertices), len(k.edges), len(k.squares)) == (4, 4, 1)


def test_two_square_counts():
    k = gs.to_precubical(gs.make_scene(2, 1, [], (0, 0), (2, 1)))
    assert (len(k.vertices), len(k.edges), len(k.squares)) == (6, 7, 2)


def test_hole_grid_counts():
    k = gs.to_precubical(gs.parse_scene(HOLE_3X3))
    assert (len(k.vertices), len(k.edges), len(k.squares)) == (16, 24, 8)
    assert "s1_1" not in k.squares


def test_cell_selection_matches_sampled_disjointness_oracle():
    scene = gs.parse_scene("grid 4 4\nbox 1 1 3 2\nbox 0 3 2 4\nsource 4 0\ntarget 4 4\n")
    k = gs.to_precubical(scene)
    boxes = [(b.x0, b.y0, b.x1, b.y1) for b in scene.boxes]

    def blocked(rect):
        return any(closed_cell_meets_open_box(rect, b) for b in boxes)

    for x in range(5):
        for y in range(5):
            assert (gs.vertex_id(x, y) in set(k.vertices)) == (not blocked((x, x, y, y)))
    for x in range(4):
        for y in range(5):
            assert (gs.east_edge_id(x, y) in k.edges) == (not blocked((x, x + 1, y, y)))
    for x in range(5):
        for y in range(4):
            assert (gs.north_edge_id(x, y) in k.edges) == (not blocked((x, x, y, y + 1)))
    for x in range(4):
        for y in range(4):
            assert (gs.square_id(x, y) in k.squares) == (
                not blocked((x, x + 1, y, y + 1))
            )


def test_cells_match_the_per_cell_oracles_on_random_boxed_scenes():
    rng = random.Random(31)
    for _ in range(200):
        w, h = rng.randint(1, 8), rng.randint(1, 8)
        boxes = []
        # overlapping boxes, and boxes past the border (GridScene does not check)
        for _ in range(rng.randint(0, 5)):
            x0, y0 = rng.randint(-2, w - 1), rng.randint(-2, h - 1)
            boxes.append((x0, y0, rng.randint(x0 + 1, w + 2), rng.randint(y0 + 1, h + 2)))
        scene = gs.GridScene(w, h, tuple(gs.Box(*b) for b in boxes), (0, 0), (w, h))
        k = gs.to_precubical(scene)
        verts, edges, squares, labels = [], {}, {}, []
        for x in range(w + 1):
            for y in range(h + 1):
                if not any(closed_cell_meets_open_box((x, x, y, y), b) for b in boxes):
                    verts.append(gs.vertex_id(x, y))
                    labels.append(((0, gs.vertex_id(x, y)), f"({x},{y})"))
        for x in range(w):
            for y in range(h + 1):
                if edge_east_ok(x, y, boxes):
                    e = gs.east_edge_id(x, y)
                    edges[e] = (gs.vertex_id(x, y), gs.vertex_id(x + 1, y))
                    labels.append(((1, e), f"({x},{y})->({x + 1},{y})"))
        for x in range(w + 1):
            for y in range(h):
                if edge_north_ok(x, y, boxes):
                    e = gs.north_edge_id(x, y)
                    edges[e] = (gs.vertex_id(x, y), gs.vertex_id(x, y + 1))
                    labels.append(((1, e), f"({x},{y})->({x},{y + 1})"))
        for x in range(w):
            for y in range(h):
                if square_ok(x, y, boxes):
                    q = gs.square_id(x, y)
                    squares[q] = (gs.north_edge_id(x, y), gs.north_edge_id(x + 1, y),
                                  gs.east_edge_id(x, y), gs.east_edge_id(x, y + 1))
                    labels.append(((2, q), f"[{x},{x + 1}]x[{y},{y + 1}]"))
        assert k == pc.PreCubicalSet(verts, edges, squares, dict(labels))
        assert list(k.labels.items()) == labels


def test_output_always_validates_and_is_face_closed():
    rng = random.Random(7)
    for _ in range(25):
        w, h = rng.randint(1, 5), rng.randint(1, 5)
        boxes = []
        for _ in range(rng.randint(0, 3)):
            x0 = rng.randint(0, w - 1)
            y0 = rng.randint(0, h - 1)
            boxes.append((x0, y0, rng.randint(x0 + 1, w), rng.randint(y0 + 1, h)))
        scene = gs.GridScene(w, h, tuple(gs.Box(*b) for b in boxes), (0, 0), (w, h))
        if not gs.point_allowed(scene, (0, 0)) or not gs.point_allowed(scene, (w, h)):
            continue
        k = gs.to_precubical(scene)
        assert pc.validate(k) == []


def test_adding_a_box_never_adds_cells():
    base = gs.make_scene(4, 3, [(1, 1, 2, 2)], (0, 0), (4, 3))
    more = gs.make_scene(4, 3, [(1, 1, 2, 2), (3, 0, 4, 1)], (0, 0), (4, 3))
    k0, k1 = gs.to_precubical(base), gs.to_precubical(more)
    assert set(k1.vertices) <= set(k0.vertices)
    assert set(k1.edges) <= set(k0.edges)
    assert set(k1.squares) <= set(k0.squares)


def test_full_grid_cell_count_formula():
    for w, h in [(1, 1), (2, 3), (4, 2), (5, 5)]:
        k = gs.to_precubical(gs.make_scene(w, h, [], (0, 0), (w, h)))
        assert len(k.vertices) == (w + 1) * (h + 1)
        assert len(k.edges) == w * (h + 1) + h * (w + 1)
        assert len(k.squares) == w * h


def eager_labels(w, h, boxes):
    """Every kept cell's coordinate label, from the per-cell oracles."""
    labels = {}
    for x in range(w + 1):
        for y in range(h + 1):
            if not any(closed_cell_meets_open_box((x, x, y, y), b) for b in boxes):
                labels[(0, gs.vertex_id(x, y))] = f"({x},{y})"
    for x in range(w):
        for y in range(h + 1):
            if edge_east_ok(x, y, boxes):
                labels[(1, gs.east_edge_id(x, y))] = f"({x},{y})->({x + 1},{y})"
    for x in range(w + 1):
        for y in range(h):
            if edge_north_ok(x, y, boxes):
                labels[(1, gs.north_edge_id(x, y))] = f"({x},{y})->({x},{y + 1})"
    for x in range(w):
        for y in range(h):
            if square_ok(x, y, boxes):
                labels[(2, gs.square_id(x, y))] = f"[{x},{x + 1}]x[{y},{y + 1}]"
    return labels


def random_scene(rng, trial):
    """Overlapping boxes, boxes on and past the border, and 1 x n grids."""
    if trial % 5 == 0:
        w, h = (1, rng.randint(1, 12)) if rng.random() < 0.5 else (rng.randint(1, 12), 1)
    else:
        w, h = rng.randint(1, 9), rng.randint(1, 9)
    boxes = []
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.3:  # touching the border
            x0, y0 = rng.choice([(0, rng.randint(0, h - 1)), (rng.randint(0, w - 1), 0)])
            x1, y1 = rng.randint(x0 + 1, w), rng.randint(y0 + 1, h)
        else:
            x0, y0 = rng.randint(-1, w - 1), rng.randint(-1, h - 1)
            x1, y1 = rng.randint(x0 + 1, w + 1), rng.randint(y0 + 1, h + 1)
        boxes.append((x0, y0, x1, y1))
    return w, h, boxes


def test_compiled_scene_equals_its_checked_rebuild():
    rng = random.Random(20261019)
    for trial in range(300):
        w, h, boxes = random_scene(rng, trial)
        scene = gs.GridScene(w, h, tuple(gs.Box(*b) for b in boxes), (0, 0), (w, h))
        k = gs.to_precubical(scene)
        labels = eager_labels(w, h, boxes)
        public = pc.PreCubicalSet(
            list(reversed(k.vertices)), dict(reversed(k.edges.items())),
            dict(reversed(k.squares.items())), labels,
        )
        assert k == public
        assert pc.validate(public) == []
        assert fc.is_acyclic(public)
        assert list(k.cells()) == list(public.cells())
        assert list(k.labels.items()) == list(labels.items())
        highlight = list(k.edges)[:: max(1, len(k.edges) // 3)]
        fresh = gs.to_precubical(scene)
        assert dot.complex_dot(fresh, highlight) == dot.complex_dot(public, highlight)


# boxes that share a side, boxes that meet at a corner, a box on the border,
# and two boxes that leave v1_1 without an in-edge (its height is 0, not 2)
ENGINE_CASES = [
    (4, 3, [(1, 1, 2, 2), (2, 1, 3, 2)]),
    (4, 4, [(1, 1, 2, 2), (2, 2, 3, 3)]),
    (3, 2, [(0, 0, 1, 2)]),
    (2, 2, [(0, 0, 1, 2), (0, 0, 2, 1)]),
    (1, 6, [(0, 2, 1, 3)]),
]


def test_compiled_engine_matches_the_generic_engine():
    rng = random.Random(20261018)
    scenes = ENGINE_CASES + [random_scene(rng, trial) for trial in range(600)]
    for w, h, boxes in scenes:
        scene = gs.GridScene(w, h, tuple(gs.Box(*b) for b in boxes), (0, 0), (w, h))
        k = gs.to_precubical(scene)
        compiled = fc._engine_of(k)
        public = pc.PreCubicalSet(k.vertices, k.edges, k.squares)
        assert pc.validate(public) == []
        generic = fc._SwapEngine(k.vertices, k._edges, fc._square_relations(k))
        assert compiled.index == generic.index
        assert compiled.out == generic.out
        assert compiled.targets == generic.targets
        assert compiled.pos == generic.pos
        assert compiled.relations == generic.relations
        assert compiled.depth == generic.depth
        assert compiled.heights == generic.heights
    k = gs.to_precubical(gs.make_scene(2, 2, ENGINE_CASES[3][2], (0, 0), (2, 2)))
    assert fc._engine_of(k).heights[k.vertices.index("v1_1")] == 0


def lattice_scene(rng, trial):
    """A scene up to 24 x 24 (1 x n every fifth), so that ids from x or y = 10
    on sort apart from their numbers; boxes on the border, past it, touching
    one another at a side or a corner, or overlapping."""
    if trial % 5 == 0:
        w, h = (1, rng.randint(1, 24)) if rng.random() < 0.5 else (rng.randint(1, 24), 1)
    else:
        w, h = rng.randint(1, 24), rng.randint(1, 24)
    boxes = []
    for _ in range(rng.randint(0, 5)):
        r = rng.random()
        if boxes and r < 0.3:  # at a side or a corner of the last box
            b = boxes[-1]
            x0, y0 = rng.choice([(b[2], rng.randint(b[1], b[3] - 1)), (rng.randint(b[0], b[2] - 1), b[3]),
                                 (b[2], b[3])])
            x0, y0 = min(x0, w - 1), min(y0, h - 1)
        elif r < 0.5:  # on the border
            x0, y0 = rng.choice([(0, rng.randint(0, h - 1)), (rng.randint(0, w - 1), 0)])
        else:
            x0, y0 = rng.randint(-1, w - 1), rng.randint(-1, h - 1)
        boxes.append((x0, y0, rng.randint(x0 + 1, w + 1), rng.randint(y0 + 1, h + 1)))
    return gs.GridScene(w, h, tuple(gs.Box(*b) for b in boxes), (0, 0), (w, h))


def assert_build_matches_the_chain(k):
    old = SceneLatticeOracle(k)
    new, engine = fc._engine_of(k), old._engine
    assert new.index == engine.index and list(new.index) == list(engine.index)
    assert new.out == tuple(map(tuple, engine.out))
    assert new.targets == tuple(map(tuple, engine.targets))
    assert new.pos == engine.pos
    assert new.relations == {m: tuple(tuple(map(tuple, rs)) for rs in starts)
                             for m, starts in engine.relations.items()}
    assert type(new.out) is type(new.targets) is tuple
    assert k.vertices == old._vertices
    for mine, theirs in ((k.edges, old._edges), (k.squares, old._squares), (k.labels, old._labels)):
        assert list(mine.items()) == list(theirs.items())


def test_one_build_matches_the_chain_of_cached_properties():
    # whole scenes, their windows, and sub-scenes at origins far from 0, so
    # that ids where string order and numeric order differ are numbered
    rng = random.Random(20261027)
    seen = dict.fromkeys(("thin", "border", "touching", "overlapping", "window",
                          "window past 10", "box partly outside", "origin past 10"), 0)
    for trial in range(300):
        scene = lattice_scene(rng, trial)
        w, h = scene.width, scene.height
        boxes = scene.boxes
        seen["thin"] += min(w, h) == 1
        seen["border"] += any(b.x0 <= 0 or b.y0 <= 0 or b.x1 >= w or b.y1 >= h for b in boxes)
        pairs = [(a, b) for a in boxes for b in boxes if a is not b
                 and a.x0 <= b.x1 and b.x0 <= a.x1 and a.y0 <= b.y1 and b.y0 <= a.y1]
        seen["overlapping"] += any(a.x0 < b.x1 and b.x0 < a.x1 and a.y0 < b.y1 and b.y0 < a.y1
                                   for a, b in pairs)
        seen["touching"] += any(not (a.x0 < b.x1 and b.x0 < a.x1 and a.y0 < b.y1 and b.y0 < a.y1)
                                for a, b in pairs)
        k = gs.to_precubical(scene)
        assert_build_matches_the_chain(k)
        origin = (rng.randint(0, 120), rng.randint(0, 120))
        seen["origin past 10"] += min(origin) >= 10
        assert_build_matches_the_chain(gs._SceneComplex(scene, origin))
        for low in (10, 0, 0):  # the first from x, y = 10 on where the scene reaches that far
            x0, y0 = rng.randint(min(low, w), w), rng.randint(min(low, h), h)
            x1, y1 = rng.randint(x0, w), rng.randint(y0, h)
            if not (gs.point_allowed(scene, (x0, y0)) and gs.point_allowed(scene, (x1, y1))):
                continue
            window = k._between(gs.vertex_id(x0, y0), gs.vertex_id(x1, y1))
            seen["window"] += window is not k
            seen["window past 10"] += min(x0, y0) >= 10
            seen["box partly outside"] += any(  # meets the window, not inside it
                b.x0 < x1 and b.x1 > x0 and b.y0 < y1 and b.y1 > y0
                and not (x0 <= b.x0 and b.x1 <= x1 and y0 <= b.y0 and b.y1 <= y1) for b in boxes)
            assert_build_matches_the_chain(window)
        assert set(vars(k)) == {"_scene", "_origin", "_stride", "_build", "_engine",
                                "_vertices", "_edges", "_squares", "_labels", "_dim_labels"}
    assert min(seen.values()) >= 30, seen


def test_scene_queries_build_no_cell_dicts():
    k = gs.to_precubical(gs.parse_scene(HOLE_3X3))
    fc.hom_classes(k, "v0_0", "v3_3")
    fc.is_one_simple(k)
    fc.path_preorder(k)
    fc.pi0(k)
    assert pc.validate(k) == []
    assert "_edges" not in vars(k) and "_squares" not in vars(k)
    assert fc.DiPath(k, "v0_0", ("e0_0", "n1_0")).end == "v1_1"
    assert k.squares == gs.to_precubical(gs.parse_scene(HOLE_3X3)).squares
    assert len(k.squares) == 8


def test_scene_labels_are_built_on_first_read():
    k = gs.to_precubical(gs.make_scene(3, 2, [(1, 0, 2, 1)], (0, 0), (3, 2)))
    fc.hom_classes(k, "v0_0", "v3_2")
    assert not {"_labels", "_dim_labels"} & set(vars(k))
    dot.complex_dot(k)  # reads vertex labels only
    assert set(vars(k)["_dim_labels"]) == {0} and "_labels" not in vars(k)
    assert k.label(1, "e0_1") == "(0,1)->(1,1)"
    assert set(vars(k)["_dim_labels"]) == {0, 1} and "_labels" not in vars(k)
    assert k.label(2, "s0_1") == "[0,1]x[1,2]" and k.label(3, "s0_1") is None
    assert dict(pc.opposite(k).labels) == dict(k.labels) == eager_labels(3, 2, [(1, 0, 2, 1)])


def test_compiled_scene_pickles_and_deep_copies():
    scene = gs.parse_scene(HOLE_3X3)
    queried = gs.to_precubical(scene)
    fc.hom_classes(queried, "v0_0", "v3_3")  # its engine is built and kept
    for k in (gs.to_precubical(scene), queried):
        for copy_ in (pickle.loads(pickle.dumps(k)), copy.deepcopy(k)):
            assert copy_ == k and copy_ is not k
            assert fc.hom_classes(copy_, "v0_0", "v3_3").count == 2
            assert dict(copy_.labels) == dict(k.labels) == eager_labels(3, 3, [(1, 1, 2, 2)])
            assert pc.format_complex(copy_) == pc.format_complex(k)


def test_scene_class_queries_build_no_cells_labels_or_heights():
    k = gs.to_precubical(gs.parse_scene(HOLE_3X3))
    assert fc.hom_classes(k, "v0_0", "v3_3").count == 2
    assert not fc.is_one_simple(k)
    assert not {"_edges", "_squares", "_labels"} & set(vars(k))
    assert "heights" not in vars(fc._engine_of(k))


def window_scene(rng, trial):
    """A scene up to 12 x 12 (1 x n every fifth), its boxes on the border or
    anywhere, overlapping or not."""
    if trial % 5 == 0:
        w, h = (1, rng.randint(1, 12)) if rng.random() < 0.5 else (rng.randint(1, 12), 1)
    else:
        w, h = rng.randint(1, 12), rng.randint(1, 12)
    boxes = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.3:  # on the border
            x0, y0 = rng.choice([(0, rng.randint(0, h - 1)), (rng.randint(0, w - 1), 0)])
        else:
            x0, y0 = rng.randint(0, w - 1), rng.randint(0, h - 1)
        boxes.append(gs.Box(x0, y0, rng.randint(x0 + 1, w), rng.randint(y0 + 1, h)))
    return gs.GridScene(w, h, tuple(boxes), (0, 0), (w, h))


def window_endpoint(rng, scene):
    """A lattice point, often a corner or a point on a side of a box."""
    b = rng.choice(scene.boxes) if scene.boxes and rng.random() < 0.5 else None
    if b is None:
        return rng.randint(0, scene.width), rng.randint(0, scene.height)
    if rng.random() < 0.5:
        return rng.choice([b.x0, b.x1]), rng.choice([b.y0, b.y1])
    if rng.random() < 0.5:
        return rng.choice([b.x0, b.x1]), rng.randint(b.y0, b.y1)
    return rng.randint(b.x0, b.x1), rng.choice([b.y0, b.y1])


def test_window_hom_classes_match_the_whole_sweep_of_the_complex_written_out():
    # the compiled scene sweeps the rectangle between the endpoints; its
    # complex written out and parsed back sweeps the generic engine to the end
    rng = random.Random(20261024)
    seen = dict.fromkeys(("equal", "not below", "on a box", "crossing", "thin", "window"), 0)
    for trial in range(320):
        scene = window_scene(rng, trial)
        k = gs.to_precubical(scene)
        parsed = pc.parse_complex(pc.format_complex(k))
        seen["thin"] += min(scene.width, scene.height) == 1
        for _ in range(4):
            a, b = window_endpoint(rng, scene), window_endpoint(rng, scene)
            if rng.random() < 0.1:
                b = a
            src, dst = gs.vertex_id(*a), gs.vertex_id(*b)
            if not (gs.point_allowed(scene, a) and gs.point_allowed(scene, b)):
                for complex_ in (k, parsed):
                    with pytest.raises(DomainError, match="^unknown vertex v"):
                        fc.hom_classes(complex_, src, dst)
                continue
            below = a[0] <= b[0] and a[1] <= b[1]
            seen["equal"] += a == b
            seen["not below"] += not below
            seen["window"] += below and (a, b) != ((0, 0), (scene.width, scene.height))
            seen["on a box"] += any(
                bx.x0 <= x <= bx.x1 and bx.y0 <= y <= bx.y1 for bx in scene.boxes for x, y in (a, b))
            seen["crossing"] += below and any(  # meets the window, not inside it
                bx.x0 < b[0] and bx.x1 > a[0] and bx.y0 < b[1] and bx.y1 > a[1]
                and not (a[0] <= bx.x0 and bx.x1 <= b[0] and a[1] <= bx.y0 and bx.y1 <= b[1])
                for bx in scene.boxes)
            for bound in (None, rng.randint(0, 8)):
                got = fc.hom_classes(k, src, dst, bound)
                assert got == hom_classes_sweep_oracle(parsed, src, dst, bound), (scene, a, b, bound)
                assert got == fc.hom_classes(parsed, src, dst, bound)
    assert min(seen.values()) >= 40, seen


def test_a_window_query_builds_nothing_of_the_whole_scene():
    k = gs.to_precubical(gs.make_scene(12, 12, [(3, 3, 6, 6), (8, 0, 10, 4)], (0, 0), (12, 12)))
    h = fc.hom_classes(k, "v2_2", "v9_7")
    assert [c.representative[:2] for c in h.classes] == [("e2_2", "e3_2"), ("e2_2", "n3_2")]
    window = k._between("v2_2", "v9_7")
    assert window.vertices[:3] == ("v2_2", "v2_3", "v2_4") and window.label(0, "v9_7") == "(9,7)"
    lattice = {"_blocked", "_lattice", "_vid", "_eid", "_nid", "_id_order", "_kept", "_vertices"}
    assert not (lattice | {"_engine", "_edges", "_squares", "_labels"}) & set(vars(k))
    assert set(vars(k)) == {"_scene", "_origin", "_stride"}


def test_window_dipaths_match_the_walk_of_the_complex_written_out():
    # enumerate_dipaths walks the rectangle between the endpoints of a scene;
    # the oracle walks the whole compiled scene, and the library walks the
    # whole of the complex written out
    rng = random.Random(20261020)
    seen = dict.fromkeys(("equal", "not below", "window", "capped", "unknown"), 0)
    for trial in range(240):
        scene = window_scene(rng, trial)
        k = gs.to_precubical(scene)
        parsed = pc.parse_complex(pc.format_complex(k))
        for _ in range(4):
            a, b = window_endpoint(rng, scene), window_endpoint(rng, scene)
            if rng.random() < 0.1:
                b = a
            elif rng.random() < 0.6:  # most pairs below one another
                a, b = (min(a[0], b[0]), min(a[1], b[1])), (max(a[0], b[0]), max(a[1], b[1]))
            src, dst = gs.vertex_id(*a), gs.vertex_id(*b)
            if not (gs.point_allowed(scene, a) and gs.point_allowed(scene, b)):
                seen["unknown"] += 1
                for complex_ in (k, parsed):
                    with pytest.raises(DomainError, match="^unknown vertex v"):
                        fc.enumerate_dipaths(complex_, src, dst, 2)
                continue
            below = a[0] <= b[0] and a[1] <= b[1]
            seen["equal"] += a == b
            seen["not below"] += not below
            seen["window"] += below and (a, b) != ((0, 0), (scene.width, scene.height))
            # unbounded only on small scenes: the oracle walks every word out of a
            for bound in ([rng.randint(0, 9)] + [None] * (scene.width * scene.height <= 30)):
                outcomes, cap = [], rng.choice((2, 5, 1000))
                for walk, complex_ in ((fc.enumerate_dipaths, k), (enumerate_dipaths_oracle, k),
                                       (fc.enumerate_dipaths, parsed)):
                    try:
                        paths = walk(complex_, src, dst, bound, max_paths=cap)
                    except EnumerationLimitError as exc:
                        outcomes.append(str(exc))
                    else:
                        assert all(p.complex is complex_ for p in paths)
                        outcomes.append([(p.start, p.edges) for p in paths])
                seen["capped"] += isinstance(outcomes[0], str)
                assert outcomes[0] == outcomes[1] == outcomes[2], (scene, a, b, bound)
    assert min(seen.values()) >= 40, seen


def test_window_dipaths_build_nothing_of_the_whole_scene():
    k = gs.to_precubical(gs.make_scene(300, 300, [(100, 100, 200, 200)], (0, 0), (300, 300)))
    assert [p.edges for p in fc.enumerate_dipaths(k, "v0_0", "v1_1", max_len=2)] == [
        ("e0_0", "n1_0"), ("n0_0", "e0_1")]
    paths = fc.enumerate_dipaths(k, "v250_250", "v254_253")  # unbounded
    assert len(paths) == 35 and all(p.complex is k for p in paths)
    assert paths[0].edges == ("e250_250", "e251_250", "e252_250", "e253_250",
                              "n254_250", "n254_251", "n254_252")
    assert set(vars(k)) == {"_scene", "_origin", "_stride"}  # no _vid, no engine


def test_corner_queries_build_one_engine(monkeypatch):
    built = []
    compiled, init = fc._SwapEngine._compiled.__func__, fc._SwapEngine.__init__
    monkeypatch.setattr(fc._SwapEngine, "_compiled",
                        classmethod(lambda cls, *a: built.append(cls) or compiled(cls, *a)))
    monkeypatch.setattr(fc._SwapEngine, "__init__",
                        lambda self, *a: built.append(self) or init(self, *a))
    k = gs.to_precubical(gs.parse_scene(HOLE_3X3))
    assert k._between("v0_0", "v3_3") is k
    assert fc.hom_classes(k, "v0_0", "v3_3").count == fc.hom_classes(k, "v0_0", "v3_3").count == 2
    assert not fc.is_one_simple(k)
    assert built == [fc._SwapEngine]
    assert fc.hom_classes(k, "v1_0", "v3_2").count == 2  # a window builds its own
    assert built == [fc._SwapEngine] * 2


@pytest.mark.parametrize("vertex", [
    "v9_9", "v01_1", "v1_01", "v-1_0", "v+1_1", "v 1_1", "v1_1_1", "v1", "w1_1", "v1__1",
    "v\u0661_1", "v1_\uff11", "v2_2",
])
def test_window_endpoints_must_be_ids_of_kept_lattice_points(vertex):
    k = gs.to_precubical(gs.make_scene(4, 4, [(1, 1, 3, 3)], (0, 0), (4, 4)))
    for source, target in ((vertex, "v4_4"), ("v0_0", vertex)):
        with pytest.raises(DomainError, match="^unknown vertex"):
            k._between(source, target)
        with pytest.raises(DomainError) as info:
            fc.hom_classes(k, source, target)
        assert str(info.value) == f"unknown vertex {vertex}"


def test_the_class_cap_counts_only_the_classes_of_the_window():
    # out of v0_0 the whole 6 x 6 sweep builds many classes; the 1 x 1
    # window between v0_0 and v1_1 builds four
    k = gs.to_precubical(gs.make_scene(6, 6, [(2, 2, 3, 3), (4, 4, 5, 5)], (0, 0), (6, 6)))
    with pytest.raises(EnumerationLimitError, match="built from v0_0"):
        hom_classes_sweep_oracle(k, "v0_0", "v1_1", max_classes=4)
    h = fc.hom_classes(k, "v0_0", "v1_1", max_classes=4)
    assert [(c.representative, c.size) for c in h.classes] == [(("e0_0", "n1_0"), 2)]


def test_scene_past_the_lattice_point_cap_is_refused():
    scene = gs.make_scene(1000, 1000, [], (0, 0), (1, 1))
    with pytest.raises(SizeGuardError, match="1002001 lattice points"):
        gs.to_precubical(scene)
