"""Planar directed regions: an integer grid with forbidden open boxes.

A scene is a W x H rectangle carrying the componentwise product order, a
list of open rectangular holes, and two marked lattice points (source and
target).  Scenes compile to pre-cubical sets whose cells are the unit
vertices/edges/squares of the grid; a cell survives iff its closed carrier
misses every open box, so hole shorelines stay traversable.

Data given in the 45-degree "cone" order (both diagonals bound the slope)
converts to this product order via :func:`cone_to_product_coords`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputSyntaxError
from .precubical import PreCubicalSet


@dataclass(frozen=True)
class Box:
    x0: int
    y0: int
    x1: int
    y1: int


@dataclass(frozen=True)
class GridScene:
    width: int
    height: int
    boxes: tuple[Box, ...]
    source: tuple[int, int]
    target: tuple[int, int]


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


def parse_scene(text):
    """Parse the scene format.

    Lines: ``grid W H``, zero or more ``box x0 y0 x1 y1``, ``source x y``,
    ``target x y``; ``#`` starts a comment; all integers decimal.
    """
    grid = source = target = None
    boxes = []
    line_of = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()

        def ints(n, what):
            if len(tok) != n + 1:
                raise InputSyntaxError(f"{what} wants {n} integers", ln)
            try:
                return [int(t) for t in tok[1:]]
            except ValueError:
                raise InputSyntaxError(f"{what}: non-integer field", ln) from None

        if tok[0] == "grid":
            if grid is not None:
                raise InputSyntaxError("duplicate grid line", ln)
            grid = ints(2, "grid")
            line_of["grid"] = ln
        elif tok[0] == "box":
            boxes.append(Box(*ints(4, "box")))
            line_of[("box", len(boxes) - 1)] = ln
        elif tok[0] == "source":
            if source is not None:
                raise InputSyntaxError("duplicate source line", ln)
            source = tuple(ints(2, "source"))
            line_of["source"] = ln
        elif tok[0] == "target":
            if target is not None:
                raise InputSyntaxError("duplicate target line", ln)
            target = tuple(ints(2, "target"))
            line_of["target"] = ln
        else:
            raise InputSyntaxError(f"unknown directive {tok[0]!r}", ln)
    if grid is None:
        raise InputSyntaxError("missing grid line")
    if source is None:
        raise InputSyntaxError("missing source line")
    if target is None:
        raise InputSyntaxError("missing target line")
    scene = GridScene(grid[0], grid[1], tuple(boxes), source, target)
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
    there).  Each box marks its own index ranges, one column slice at a
    time, so the cost follows the boxes' areas and the memory the grid's."""
    stride = scene.height + 1
    kinds = [bytearray((scene.width + 1) * stride) for _ in range(4)]
    verts, east, north, squares = kinds

    def mark(flags, xs, ys):
        lo, hi = max(ys.start, 0), min(ys.stop, stride)
        if lo >= hi:
            return
        for x in range(max(xs.start, 0), min(xs.stop, scene.width + 1)):
            flags[x * stride + lo:x * stride + hi] = b"\1" * (hi - lo)

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
    """
    blocked_verts, blocked_east, blocked_north, blocked_squares = _blocked_cells(scene)
    stride = scene.height + 1
    verts, edges, squares, labels = [], {}, {}, {}
    for x in range(scene.width + 1):
        for y in range(scene.height + 1):
            if not blocked_verts[x * stride + y]:
                v = vertex_id(x, y)
                verts.append(v)
                labels[(0, v)] = f"({x},{y})"
    for x in range(scene.width):
        for y in range(scene.height + 1):
            if not blocked_east[x * stride + y]:
                e = east_edge_id(x, y)
                edges[e] = (vertex_id(x, y), vertex_id(x + 1, y))
                labels[(1, e)] = f"({x},{y})->({x + 1},{y})"
    for x in range(scene.width + 1):
        for y in range(scene.height):
            if not blocked_north[x * stride + y]:
                e = north_edge_id(x, y)
                edges[e] = (vertex_id(x, y), vertex_id(x, y + 1))
                labels[(1, e)] = f"({x},{y})->({x},{y + 1})"
    for x in range(scene.width):
        for y in range(scene.height):
            if not blocked_squares[x * stride + y]:
                w = square_id(x, y)
                squares[w] = (
                    north_edge_id(x, y),
                    north_edge_id(x + 1, y),
                    east_edge_id(x, y),
                    east_edge_id(x, y + 1),
                )
                labels[(2, w)] = f"[{x},{x + 1}]x[{y},{y + 1}]"
    return PreCubicalSet(verts, edges, squares, labels)
