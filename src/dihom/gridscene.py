"""Planar directed regions: an integer grid with forbidden open boxes.

A scene is a W x H rectangle carrying the componentwise product order, a
list of open rectangular holes, and two marked lattice points (source and
target).  Scenes compile to pre-cubical sets whose cells are the unit
vertices/edges/squares of the grid; a cell survives iff its closed carrier
misses every open box, so hole shorelines stay traversable.  A compiled
scene is a :class:`~dihom.precubical.PreCubicalSet` subclass, valid by
construction, that compiles in one build step on first use: the boxes flag
the blocked cells, and one pass over the lattice in id order lays out the
kept vertex ids and the class engine's arrays, off which the cell dicts and
labels are read when asked for.  The class queries read only the engine, and
a hom query only that of the rectangle between its endpoints.

Data given in the 45-degree "cone" order (both diagonals bound the slope)
converts to this product order via :func:`cone_to_product_coords`.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, compress, product

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


def to_precubical(scene):
    """Compile a scene to its pre-cubical set (cells labelled by coordinates).

    Edges point in increasing coordinate direction.  For the unit square at
    (x, y): d1m/d1p are the north edges on its left/right side, d2m/d2p the
    east edges on its bottom/top side, so the square relates
    east-then-north with north-then-east between its extreme corners.

    The complex is a :class:`_SceneComplex`.  A scene of more than
    ``MAX_LATTICE_POINTS`` lattice points raises :class:`SizeGuardError`.
    """
    points = (scene.width + 1) * (scene.height + 1)
    if points > MAX_LATTICE_POINTS:
        raise SizeGuardError(f"scene has {points} lattice points (guard {MAX_LATTICE_POINTS})")
    return _SceneComplex(scene)


class _SceneComplex(PreCubicalSet):
    """The complex of a scene, valid by construction (an empty
    :func:`~dihom.precubical.validate` verdict), that builds nothing when made;
    its vertices, cell dicts, labels and class engine are read, unchecked and
    on first use, off one build step.  A sub-scene at ``origin`` keeps ids."""

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

    @cached_property
    def _build(self):
        """The blocked flags, the kept vertex ids and the class engine's arrays.

        A flag marks a vertex, east edge, north edge or square whose closed
        carrier meets an open box or that the grid lacks, in one bytearray per
        kind indexed ``x * (height + 1) + y``; a box flags one slice per column.
        ``v{x}_{y}`` sorts as (``f"{x}_"``, ``str(y)``), so the columns and rows
        sorted by these keys give the id order of every kind.  The arrays are
        tuples laid out as in ``dihom.fundcat._SwapEngine``, with vertices
        numbered in id order: a vertex lists its east edge before its north
        edge and starts the relation of the square at its corner, if kept."""
        scene, (ox, oy), stride = self._scene, self._origin, self._stride
        width = scene.width
        top, last = b"\0" * (stride - 1) + b"\1", b"\1" * stride  # at y = height, x = width
        verts, east = bytearray(stride * (width + 1)), bytearray(stride * width) + last
        north, squares = bytearray(top * (width + 1)), bytearray(top * width) + last
        for b in scene.boxes:
            y0, lo, y1 = max(b.y0, 0), max(b.y0 + 1, 0), min(b.y1, stride)
            if y0 >= y1:
                continue
            inner, span = b"\1" * (y1 - lo), b"\1" * (y1 - y0)
            for x in range(max(b.x0, 0), min(b.x1, width + 1)):
                c = x * stride
                east[c + lo:c + y1] = inner
                squares[c + y0:c + y1] = span
                if x > b.x0:
                    verts[c + lo:c + y1] = inner
                    north[c + y0:c + y1] = span
        xs = sorted(range(ox, ox + width + 1), key="{}_".format)
        ys = sorted(range(oy, oy + stride), key=str)
        # number: a lattice point's place in id order, less the blocked vertices before it
        place = dict(zip(xs, range(0, len(verts), stride)))  # of a column's first point
        rank = list(map(dict(zip(ys, range(stride))).__getitem__, range(oy, oy + stride)))
        number = [place[x] + r for x in range(ox, ox + width + 1) for r in rank]
        if 1 in verts:
            shift = bytearray(len(verts))
            for i in compress(range(len(verts)), verts):
                shift[number[i]] = 1
            shift = list(accumulate(shift))
            number = [n - shift[n] for n in number]
        vertices, out, targets, pos, starts = [], [], [], {}, []
        add_vertex, add_out, add_targets, add_start = (
            vertices.append, out.append, targets.append, starts.append)
        # (d2m d1p) = (d1m d2p) as positions: east then north, north then east;
        # the right side's north edge follows its vertex's east edge, if kept
        square = ((0, 1, 1, 0),), ((0, 0, 1, 0),)
        rows = [(y - oy, str(y)) for y in ys]
        for x in xs:
            c, v, e, n = (x - ox) * stride, f"v{x}_", f"e{x}_", f"n{x}_"
            for r, y in rows:
                i = c + r
                if verts[i]:
                    continue
                add_vertex(v + y)
                if not east[i] and not north[i]:
                    g, h = e + y, n + y
                    pos[g], pos[h] = 0, 1
                    add_out((g, h))
                    add_targets((number[i + stride], number[i + 1]))
                elif east[i] and north[i]:
                    add_out(())
                    add_targets(())
                else:  # one of the two
                    g = n + y if east[i] else e + y
                    pos[g] = 0
                    add_out((g,))
                    add_targets((number[i + 1 if east[i] else i + stride],))
                add_start(() if squares[i] else square[east[i + stride]])
        index = dict(zip(vertices, range(len(vertices))))
        relations = {2: tuple(starts)} if 0 in squares else {}
        return (verts, east, north, squares), tuple(vertices), (
            index, tuple(out), tuple(targets), pos, relations)

    @cached_property
    def _vertices(self):
        return self._build[1]

    @cached_property
    def _edges(self):
        """East edges, then north edges, each kind in id order."""
        _, vertices, (_, out, targets, _, _) = self._build
        east, north = {}, {}
        for v, gens, ends in zip(vertices, out, targets):
            for g, t in zip(gens, ends):
                (east if g[0] == "e" else north)[g] = (v, vertices[t])
        east.update(north)
        return east

    @cached_property
    def _squares(self):
        """The square at each vertex that starts a relation: north edges, then east edges."""
        _, _, (_, out, targets, _, relations) = self._build
        return {"s" + gens[0][1:]: (gens[1], out[ends[0]][rel[0][1]], gens[0], out[ends[1]][0])
                for gens, ends, rel in zip(out, targets, relations.get(2, ())) if rel}

    def label(self, dim, cell_id):
        return self._labels_of(dim).get((dim, cell_id))

    @cached_property
    def _labels(self):
        """Every kept cell's coordinate label, dimension by dimension."""
        return {**self._labels_of(0), **self._labels_of(1), **self._labels_of(2)}

    def _labels_of(self, dim):
        """The labels of the kept cells of one dimension, built on its first
        read and kept: kind by kind, each in lattice (x-major) order."""
        kept = vars(self).setdefault("_dim_labels", {})
        if dim not in kept:
            (ox, oy), scene = self._origin, self._scene
            lattice = list(product(range(ox, ox + scene.width + 1), range(oy, oy + self._stride)))
            kept[dim] = {(d, name(x, y)): template.format(x=x, y=y, x1=x + 1, y1=y + 1)
                         for (d, name, template), flags in zip(_CELL_KINDS, self._build[0])
                         if d == dim for (x, y), flag in zip(lattice, flags) if not flag}
        return kept[dim]

    @cached_property
    def _engine(self):
        """The class engine on the build's arrays, acyclic unchecked, as a lattice is."""
        from .fundcat import _SwapEngine  # export-dot on a scene loads no fundcat
        return _SwapEngine._compiled(*self._build[2])


# dimension, id and label template of each cell kind, in the build's flag order
_CELL_KINDS = (
    (0, vertex_id, "({x},{y})"),
    (1, east_edge_id, "({x},{y})->({x1},{y})"),
    (1, north_edge_id, "({x},{y})->({x},{y1})"),
    (2, square_id, "[{x},{x1}]x[{y},{y1}]"),
)
