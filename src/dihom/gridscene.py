"""Planar directed regions: an integer grid with forbidden open boxes.

A scene is a W x H rectangle carrying the componentwise product order, a
list of open rectangular holes, and two marked lattice points (source and
target).  Scenes compile to pre-cubical sets whose cells are the unit
vertices/edges/squares of the grid; a cell survives iff its closed carrier
misses every open box, so hole shorelines stay traversable.  A compiled
scene is a :class:`~dihom.precubical.PreCubicalSet` subclass, valid by
construction, that builds its lattice, cell dicts, labels and class engine
on first use; the class queries read only the engine, and a hom query only
that of the rectangle between its endpoints (``_SceneComplex._between``).

Data given in the 45-degree "cone" order (both diagonals bound the slope)
converts to this product order via :func:`cone_to_product_coords`.
"""

from __future__ import annotations

from functools import cached_property
from itertools import filterfalse, product, starmap

from .errors import DomainError, InputSyntaxError, Record, SizeGuardError, directives
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

    The complex is a :class:`_SceneComplex`.  A scene of more than
    ``MAX_LATTICE_POINTS`` lattice points raises :class:`SizeGuardError`
    before anything is built.
    """
    points = (scene.width + 1) * (scene.height + 1)
    if points > MAX_LATTICE_POINTS:
        raise SizeGuardError(f"scene has {points} lattice points (guard {MAX_LATTICE_POINTS})")
    return _SceneComplex(scene)


class _SceneComplex(PreCubicalSet):
    """The complex of a scene, valid by construction (an empty
    :func:`~dihom.precubical.validate` verdict), that builds nothing when made.
    Each id string is made once, on first use, in flat lists indexed like
    :func:`_blocked_cells`; all kinds of ids sort as the vertex ids do (east
    edges before north edges), so one sort orders every kind.  The edge and
    square dicts, the labels and the class engine are read off these lists on
    first use, unchecked; a sub-scene at ``origin`` keeps the scene's ids."""

    _violations = ()

    def __init__(self, scene, origin=(0, 0)):
        self._scene, self._origin, self._stride = scene, origin, scene.height + 1

    def _between(self, source, target):
        """The rectangle from ``source`` to ``target``, ids of kept points: the
        scene itself corner to corner, the two points alone unless source <= target."""
        scene, (ox, oy) = self._scene, self._origin
        if (source, target) == (vertex_id(ox, oy), vertex_id(ox + scene.width, oy + scene.height)):
            return self
        def point(v):
            try:
                x, y = map(int, v[1:].split("_"))
            except (TypeError, ValueError):  # not an id that vertex_id writes
                x = y = -1
            x, y = (x - ox, y - oy) if vertex_id(x, y) == v else (-1, -1)
            if not (0 <= x <= scene.width and 0 <= y <= scene.height
                    and point_allowed(scene, (x, y))):
                raise DomainError(f"unknown vertex {v}")
            return x, y

        (x0, y0), (x1, y1) = point(source), point(target)
        if x0 > x1 or y0 > y1:
            return PreCubicalSet((source, target), {}, {})
        w, h = x1 - x0, y1 - y0
        boxes = tuple(Box(b.x0 - x0, b.y0 - y0, b.x1 - x0, b.y1 - y0) for b in scene.boxes)
        return _SceneComplex(GridScene(w, h, boxes, (0, 0), (w, h)), (ox + x0, oy + y0))

    _blocked = cached_property(lambda k: _blocked_cells(k._scene))

    @cached_property
    def _lattice(self):
        (ox, oy), scene = self._origin, self._scene
        return list(product(range(ox, ox + scene.width + 1), range(oy, oy + scene.height + 1)))

    _vid = cached_property(lambda k: list(starmap(vertex_id, k._lattice)))
    _eid = cached_property(lambda k: list(starmap(east_edge_id, k._lattice)))
    _nid = cached_property(lambda k: list(starmap(north_edge_id, k._lattice)))
    _id_order = cached_property(lambda k: sorted(range(len(k._vid)), key=k._vid.__getitem__))
    _kept = cached_property(lambda k: list(filterfalse(k._blocked[0].__getitem__, k._id_order)))
    _vertices = cached_property(lambda k: tuple(map(k._vid.__getitem__, k._kept)))

    @cached_property
    def _edges(self):
        _, blocked_east, blocked_north, _ = self._blocked
        vid, eid, nid, stride = self._vid, self._eid, self._nid, self._stride
        order = self._id_order
        edges = {eid[i]: (vid[i], vid[i + stride]) for i in order if not blocked_east[i]}
        edges.update((nid[i], (vid[i], vid[i + 1])) for i in order if not blocked_north[i])
        return edges

    @cached_property
    def _squares(self):
        eid, nid, stride, blocked_squares = self._eid, self._nid, self._stride, self._blocked[3]
        return {
            square_id(*self._lattice[i]): (nid[i], nid[i + stride], eid[i], eid[i + 1])
            for i in self._id_order
            if not blocked_squares[i]
        }

    @cached_property
    def _labels(self):
        """The coordinate label of every kept cell, kind by kind, each kind in
        lattice (x-major) order."""
        labels = {}
        for (dim, name, template), flags in zip(_CELL_KINDS, self._blocked):
            for (x, y), flag in zip(self._lattice, flags):
                if not flag:
                    labels[(dim, name(x, y))] = template.format(x=x, y=y, x1=x + 1, y1=y + 1)
        return labels

    @cached_property
    def _engine(self):
        """The class engine, its arrays read off the lattice indices as
        ``dihom.fundcat._SwapEngine`` lays them out for the complex, with
        vertices numbered in ``kept`` (id) order.  A vertex lists its east
        edge before its north edge, which is id order, and starts the
        relation of at most one square, the one at its own corner.  The
        lattice has no directed cycle, so the engine is acyclic unchecked."""
        from .fundcat import _SwapEngine  # export-dot on a scene loads no fundcat
        _, blocked_east, blocked_north, blocked_squares = self._blocked
        vid, eid, nid, stride = self._vid, self._eid, self._nid, self._stride
        number, index = [0] * len(vid), {}  # lattice index, vertex id -> number
        for n, i in enumerate(self._kept):
            number[i] = index[vid[i]] = n
        out, targets, starts, pos = [], [], [], {}
        for i in self._kept:
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
        return _SwapEngine._compiled(index, out, targets, pos, relations)


# dimension, id and label template of each cell kind, in _blocked_cells order
_CELL_KINDS = (
    (0, vertex_id, "({x},{y})"),
    (1, east_edge_id, "({x},{y})->({x1},{y})"),
    (1, north_edge_id, "({x},{y})->({x},{y1})"),
    (2, square_id, "[{x},{x1}]x[{y},{y1}]"),
)
