"""Planar directed regions: an integer grid with forbidden open boxes.

A scene is a W x H rectangle carrying the componentwise product order, a
list of open rectangular holes, and two marked lattice points (source and
target).  Scenes compile to pre-cubical sets whose cells are the unit
vertices/edges/squares of the grid; a cell survives iff its closed carrier
misses every open box, so hole shorelines stay traversable.  A compiled
scene is valid and acyclic by construction: it keeps an empty
``validate`` verdict, and its class engine gets its arrays and heights
read off the lattice, unchecked.  A cell's label is its coordinates; the
labels and the edge and square dicts are built on first read, since the
class queries never read them.

Data given in the 45-degree "cone" order (both diagonals bound the slope)
converts to this product order via :func:`cone_to_product_coords`.
"""

from __future__ import annotations

from .errors import InputSyntaxError, Record, SizeGuardError, directives
from .precubical import PreCubicalSet

MAX_LATTICE_POINTS = 1_000_000


class Box(Record):
    __slots__ = _fields = ("x0", "y0", "x1", "y1")


class GridScene(Record):
    __slots__ = _fields = ("width", "height", "boxes", "source", "target")


def cone_to_product_coords(point):
    """(x, y) -> (x - y, x + y).

    The cone order "|y' - y| <= x' - x" holds between two points exactly when
    both output coordinates weakly increase, i.e. the image carries the
    product order used by scenes.
    """
    x, y = point
    return (x - y, x + y)


def point_allowed(scene, point):
    """A lattice point is allowed unless it lies strictly inside a box."""
    x, y = point
    return all(not (b.x0 < x < b.x1 and b.y0 < y < b.y1) for b in scene.boxes)


def _check_scene(scene, line_of=None):
    def err(msg, key=None):
        ln = line_of.get(key) if line_of else None
        raise InputSyntaxError(msg, ln)

    if scene.width < 1 or scene.height < 1:
        err("grid dimensions must be positive", "grid")
    for i, b in enumerate(scene.boxes):
        if not (b.x0 < b.x1 and b.y0 < b.y1):
            err(f"degenerate box {b.x0} {b.y0} {b.x1} {b.y1}", ("box", i))
        if not (0 <= b.x0 and b.x1 <= scene.width and 0 <= b.y0 and b.y1 <= scene.height):
            err(f"box {b.x0} {b.y0} {b.x1} {b.y1} out of bounds", ("box", i))
    for name, (x, y) in (("source", scene.source), ("target", scene.target)):
        if not (0 <= x <= scene.width and 0 <= y <= scene.height):
            err(f"{name} out of bounds", name)
        if not point_allowed(scene, (x, y)):
            err(f"{name} forbidden (inside an open box)", name)
    return scene


def make_scene(width, height, boxes, source, target):
    scene = GridScene(
        width,
        height,
        tuple(Box(*b) if not isinstance(b, Box) else b for b in boxes),
        tuple(source),
        tuple(target),
    )
    return _check_scene(scene)


_SCENE_DIRECTIVES = {
    "grid": (2, "grid wants 2 integers"),
    "box": (4, "box wants 4 integers"),
    "source": (2, "source wants 2 integers"),
    "target": (2, "target wants 2 integers"),
}


def parse_scene(text):
    """Parse the scene format.

    Lines: ``grid W H``, zero or more ``box x0 y0 x1 y1``, ``source x y``,
    ``target x y``; ``#`` starts a comment; all integers decimal.
    """
    found = {}  # grid, source, target -> integers
    boxes = []
    line_of = {}  # box lines are keyed ("box", index)
    for ln, (kind, *fields) in directives(text, _SCENE_DIRECTIVES):
        if kind in line_of:
            raise InputSyntaxError(f"duplicate {kind} line", ln)
        try:
            ints = tuple(int(t) for t in fields)
        except ValueError:
            raise InputSyntaxError(f"{kind}: non-integer field", ln) from None
        if kind == "box":
            line_of[("box", len(boxes))] = ln
            boxes.append(Box(*ints))
        else:
            line_of[kind] = ln
            found[kind] = ints
    for kind in ("grid", "source", "target"):
        if kind not in found:
            raise InputSyntaxError(f"missing {kind} line")
    (width, height), source, target = found["grid"], found["source"], found["target"]
    scene = GridScene(width, height, tuple(boxes), source, target)
    return _check_scene(scene, line_of)


def format_scene(scene):
    """Canonical text form (boxes sorted); parse∘format = id."""
    lines = [f"grid {scene.width} {scene.height}"]
    for b in sorted(scene.boxes, key=lambda b: (b.x0, b.y0, b.x1, b.y1)):
        lines.append(f"box {b.x0} {b.y0} {b.x1} {b.y1}")
    lines.append(f"source {scene.source[0]} {scene.source[1]}")
    lines.append(f"target {scene.target[0]} {scene.target[1]}")
    return "\n".join(lines) + "\n"


def vertex_id(x, y):
    return f"v{x}_{y}"


def east_edge_id(x, y):
    return f"e{x}_{y}"


def north_edge_id(x, y):
    return f"n{x}_{y}"


def square_id(x, y):
    return f"s{x}_{y}"


def _blocked_cells(scene):
    """Flags of the vertices, east edges, north edges and squares whose closed
    carrier meets an open box, one bytearray per kind indexed by
    ``x * (height + 1) + y`` (the cell at (x, y) has its lower-left corner
    there).  The places where the grid has no such cell (east edges and
    squares at x = width, north edges and squares at y = height) are
    flagged too.  Each box marks its own index ranges, one column slice at
    a time, so the cost follows the boxes' areas and the memory the grid's."""
    width, stride = scene.width, scene.height + 1
    kinds = [bytearray((width + 1) * stride) for _ in range(4)]
    verts, east, north, squares = kinds

    def mark(flags, xs, ys):
        lo, hi = max(ys.start, 0), min(ys.stop, stride)
        if lo >= hi:
            return
        for x in range(max(xs.start, 0), min(xs.stop, width + 1)):
            flags[x * stride + lo:x * stride + hi] = b"\1" * (hi - lo)

    columns, rows = range(width + 1), range(stride)
    last_column, last_row = range(width, width + 1), range(stride - 1, stride)
    mark(east, last_column, rows)
    mark(north, columns, last_row)
    mark(squares, last_column, rows)
    mark(squares, columns, last_row)
    for b in scene.boxes:
        inner_x, inner_y = range(b.x0 + 1, b.x1), range(b.y0 + 1, b.y1)
        span_x, span_y = range(b.x0, b.x1), range(b.y0, b.y1)
        mark(verts, inner_x, inner_y)
        mark(east, span_x, inner_y)
        mark(north, inner_x, span_y)
        mark(squares, span_x, span_y)
    return kinds


def to_precubical(scene):
    """Compile a scene to its pre-cubical set (cells labelled by coordinates).

    Edges point in increasing coordinate direction.  For the unit square at
    (x, y): d1m/d1p are the north edges on its left/right side, d2m/d2p the
    east edges on its bottom/top side, so the square relates
    east-then-north with north-then-east between its extreme corners.

    Every id string is made once, and the complex is valid by construction,
    so it keeps an empty :func:`~dihom.precubical.validate` verdict and gets
    its cells unchecked, already in id order: the ids of all kinds sort the
    way the vertex ids do, east edges before north edges.  The edge and
    square dicts, the labels and the arrays of the class engine
    (:func:`_scene_engine`) are each built on first use.  A scene of more
    than ``MAX_LATTICE_POINTS`` lattice points raises
    :class:`SizeGuardError` before anything is built.
    """
    points = (scene.width + 1) * (scene.height + 1)
    if points > MAX_LATTICE_POINTS:
        raise SizeGuardError(f"scene has {points} lattice points (guard {MAX_LATTICE_POINTS})")
    blocked = _blocked_cells(scene)
    blocked_verts, blocked_east, blocked_north, blocked_squares = blocked
    stride = scene.height + 1
    lattice = [(x, y) for x in range(scene.width + 1) for y in range(stride)]
    vid = [vertex_id(x, y) for x, y in lattice]
    eid = [east_edge_id(x, y) for x, y in lattice]
    nid = [north_edge_id(x, y) for x, y in lattice]
    order = sorted(range(len(lattice)), key=vid.__getitem__)
    kept = [i for i in order if not blocked_verts[i]]

    def cells():
        edges = {eid[i]: (vid[i], vid[i + stride]) for i in order if not blocked_east[i]}
        edges.update((nid[i], (vid[i], vid[i + 1])) for i in order if not blocked_north[i])
        squares = {
            square_id(*lattice[i]): (nid[i], nid[i + stride], eid[i], eid[i + 1])
            for i in order
            if not blocked_squares[i]
        }
        return edges, squares

    return PreCubicalSet._trusted(
        tuple(vid[i] for i in kept),
        cells,
        lambda: _scene_labels(lattice, blocked),
        lambda: _scene_engine(stride, blocked, kept, vid, eid, nid),
    )


def _scene_engine(stride, blocked, kept, vid, eid, nid):
    """The arrays of a compiled scene's class engine, read off the lattice
    indices: ``(index, out, targets, pos, relations, heights)`` as
    ``dihom.fundcat._SwapEngine`` lays them out for the complex, with
    vertices numbered in ``kept`` (id) order.  A vertex lists its east edge
    before its north edge, which is id order, and starts the relation of
    at most one square, the one at its own corner.  ``heights[v]`` is the
    length of the longest dipath into v; a box can leave a vertex without
    in-edges, so it is not x + y."""
    _, blocked_east, blocked_north, blocked_squares = blocked
    number, index = [0] * len(vid), {}  # lattice index, vertex id -> number
    for n, i in enumerate(kept):
        number[i] = index[vid[i]] = n
    out, targets, starts, pos = [], [], [], {}
    for i in kept:
        gens, ends = [], []
        if not blocked_east[i]:
            pos[eid[i]] = 0
            gens.append(eid[i])
            ends.append(number[i + stride])
        if not blocked_north[i]:
            pos[nid[i]] = len(gens)
            gens.append(nid[i])
            ends.append(number[i + 1])
        out.append(gens)
        targets.append(ends)
        # (d2m d1p) = (d1m d2p) as positions: east then north, north then
        # east; the north edge on the right side follows its vertex's east
        # edge, if that is kept
        starts.append([] if blocked_squares[i] else [[0, 1 - blocked_east[i + stride], 1, 0]])
    relations = {2: starts} if 0 in blocked_squares else {}
    # x-major index order visits the west and south ends of a point's
    # in-edges before the point; the flags block every edge off the grid
    height = [0] * len(vid)
    for i, h in enumerate(height):
        h += 1
        if not blocked_east[i] and height[i + stride] < h:
            height[i + stride] = h
        if not blocked_north[i] and height[i + 1] < h:
            height[i + 1] = h
    return index, out, targets, pos, relations, [height[i] for i in kept]


# dimension, id and label template of each cell kind, in _blocked_cells order
_CELL_KINDS = (
    (0, vertex_id, "({x},{y})"),
    (1, east_edge_id, "({x},{y})->({x1},{y})"),
    (1, north_edge_id, "({x},{y})->({x},{y1})"),
    (2, square_id, "[{x},{x1}]x[{y},{y1}]"),
)


def _scene_labels(lattice, blocked):
    """The coordinate label of every cell :func:`to_precubical` keeps, kind
    by kind, each kind in ``lattice`` (x-major) order."""
    labels = {}
    for (dim, name, template), flags in zip(_CELL_KINDS, blocked):
        for (x, y), flag in zip(lattice, flags):
            if not flag:
                labels[(dim, name(x, y))] = template.format(x=x, y=y, x1=x + 1, y1=y + 1)
    return labels
