"""Finite pre-cubical sets of dimension at most 2.

A complex holds three graded cell sets (vertices, edges, squares) and face
maps only: ``src``/``tgt`` on edges, and four edge faces on squares.  Squares
carry their faces in the slots ``d1m, d1p, d2m, d2p`` following this picture
(direction 1 runs left to right, direction 2 top to bottom; the faces of
direction i are the two edges on which coordinate i is constant)::

        f --- d2m ---> h
        |              |
       d1m            d1p
        |              |
        v              v
        k --- d2p ---> g

so the four corner identities are

    src(d2m) = src(d1m)      tgt(d2m) = src(d1p)
    tgt(d1m) = src(d2p)      tgt(d2p) = tgt(d1p)

and every square asserts that the edge paths ``d2m;d1p`` and ``d1m;d2p``
share both endpoints.  Degeneracies are deliberately not modelled: every
computation downstream (dipath classes, presentations, preorders) reads the
face structure only, and only up to dimension 2.

Complexes are immutable after construction; all functions here are pure.
What is derived from a complex is computed once and kept on it: the
verdict of :func:`validate` (each call returns a new list of the kept
violations), and the integer-indexed class engine that
:mod:`dihom.fundcat` builds on first use.  A compiled scene
(:func:`dihom.gridscene.to_precubical`) is a subclass, valid by
construction, that reads its cell dicts, labels and engine off its
lattice on first use.
"""

from __future__ import annotations

import re
from types import MappingProxyType

from .errors import DomainError, InputSyntaxError, InvalidComplexError, Record, directives


class Cell(Record):
    """Handle for one cell: dimension in {0,1,2} plus its id, optional label."""

    __slots__ = _fields = ("dim", "id", "label")
    _defaults = {"label": None}

    @property
    def key(self):
        return (self.dim, self.id)


class Violation(Record):
    __slots__ = _fields = ("dim", "cell", "message")

    def __str__(self):
        return f"dim {self.dim} cell {self.cell}: {self.message}"


_ID_RE = re.compile(r"^\S+$")


class PreCubicalSet:
    """Vertices, edges with (src, tgt), squares with (d1m, d1p, d2m, d2p).

    Construction checks only that ids are well formed and unique per
    dimension; face-structure problems are reported by :func:`validate`
    so broken complexes can be represented and diagnosed.

    Derived data (the :func:`validate` verdict and the class engine of
    :mod:`dihom.fundcat`) is computed on first use and kept on the instance.
    """

    def __init__(self, vertices, edges, squares, labels=None):
        vs = tuple(sorted(vertices))
        if len(set(vs)) != len(vs):
            raise DomainError("duplicate vertex id")
        es = dict(edges)
        sq = dict(squares)
        for cid in list(vs) + list(es) + list(sq):
            if not _ID_RE.match(cid):
                raise DomainError(f"bad cell id {cid!r}")
        squares = {w: tuple(str(f) for f in faces) for w, faces in sorted(sq.items())}
        for w, faces in squares.items():
            if len(faces) != 4:
                raise DomainError(f"square {w}: expected 4 faces")
        self._vertices = vs
        self._edges = {e: (str(s), str(t)) for e, (s, t) in sorted(es.items())}
        self._squares = squares
        self._labels = dict(labels) if labels else {}
        self._violations = None  # tuple of Violations, see validate
        self._engine = None  # the class engine, see fundcat._engine_of

    @property
    def vertices(self):
        return self._vertices

    @property
    def edges(self):
        return MappingProxyType(self._edges)

    @property
    def squares(self):
        return MappingProxyType(self._squares)

    def label(self, dim, cell_id):
        return self._labels.get((dim, cell_id))

    @property
    def labels(self):
        return MappingProxyType(self._labels)

    def _between(self, source, target):
        """The sub-complex a sweep of the dipaths source -> target needs: the whole."""
        return self

    def cells(self):
        labels = self._labels
        for v in self._vertices:
            yield Cell(0, v, labels.get((0, v)))
        for e in self._edges:
            yield Cell(1, e, labels.get((1, e)))
        for w in self._squares:
            yield Cell(2, w, labels.get((2, w)))

    def cell_keys(self):
        return [c.key for c in self.cells()]

    def src(self, edge_id):
        return self._edges[edge_id][0]

    def tgt(self, edge_id):
        return self._edges[edge_id][1]

    def __eq__(self, other):
        if not isinstance(other, PreCubicalSet):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._edges == other._edges
            and self._squares == other._squares
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"PreCubicalSet({len(self._vertices)} vertices, "
            f"{len(self._edges)} edges, {len(self._squares)} squares)"
        )


def validate(complex_):
    """Check face references and the four corner identities of every square.

    Returns a new list of Violations on each call; an empty list means the
    complex is valid.  The check runs once per complex; later calls copy
    the kept answer.
    """
    k = complex_
    if k._violations is None:
        k._violations = tuple(_violations(k))
    return list(k._violations)


def _violations(k):
    out = []
    vset = set(k._vertices)
    edges = k._edges
    for e, (s, t) in edges.items():
        if s not in vset:
            out.append(Violation(1, e, f"src {s} is not a vertex"))
        if t not in vset:
            out.append(Violation(1, e, f"tgt {t} is not a vertex"))
    for w, (d1m, d1p, d2m, d2p) in k._squares.items():
        try:
            (s1m, t1m), (s1p, t1p), (s2m, t2m), (s2p, t2p) = (
                edges[d1m], edges[d1p], edges[d2m], edges[d2p]
            )
        except KeyError:
            missing = " ".join(f for f in (d1m, d1p, d2m, d2p) if f not in edges)
            out.append(Violation(2, w, f"face edges not in complex: {missing}"))
            continue
        if s2m == s1m and t2m == s1p and t1m == s2p and t2p == t1p:
            continue
        checks = (
            (s2m, s1m, "src(d2m) = src(d1m)"),
            (t2m, s1p, "tgt(d2m) = src(d1p)"),
            (t1m, s2p, "tgt(d1m) = src(d2p)"),
            (t2p, t1p, "tgt(d2p) = tgt(d1p)"),
        )
        for a, b, name in checks:
            if a != b:
                out.append(Violation(2, w, f"corner identity {name} fails ({a} != {b})"))
    return out


def require_valid(complex_):
    violations = validate(complex_)
    if violations:
        raise InvalidComplexError("; ".join(str(v) for v in violations))
    return complex_


_MODEL_RE = re.compile(r"^([a-z_]+)(?:\((\d+)\))?$")
# name -> (None for no parameter, or how to ask for it and its name; the model)
_MODELS = {
    "interval": (None, lambda: PreCubicalSet(["0", "1"], {"a": ("0", "1")}, {})),
    "directed_circle": (None, lambda: PreCubicalSet(["*"], {"a": ("*", "*")}, {})),
    "ordered_circle": (
        None, lambda: PreCubicalSet(["0", "1"], {"a": ("0", "1"), "b": ("0", "1")}, {})),
    "wedge_circles": (
        ("a loop count, e.g. wedge_circles(2)", "k"),
        lambda k: PreCubicalSet(["*"], {_loop_name(i): ("*", "*") for i in range(k)}, {}),
    ),
    "chain": (
        ("a length, e.g. chain(3)", "n"),
        lambda n: PreCubicalSet([str(i) for i in range(n + 1)],
                                {f"e{i}": (str(i), str(i + 1)) for i in range(n)}, {}),
    ),
}


def model(name):
    """Build a standard model complex.

    Accepted names: ``interval``, ``directed_circle``, ``ordered_circle``,
    ``wedge_circles(k)`` with k >= 1, ``chain(n)`` with n >= 1.
    """
    m = _MODEL_RE.match(name.strip())
    if not m or m.group(1) not in _MODELS:
        raise DomainError(f"unknown model {name!r}")
    kind, arg = m.groups()
    param, build = _MODELS[kind]
    if param is None:
        if arg is not None:
            raise DomainError(f"{kind} takes no parameter")
        return build()
    ask, var = param
    if arg is None:
        raise DomainError(f"{kind} needs {ask}")
    if int(arg) < 1:
        raise DomainError(f"{kind} needs {var} >= 1")
    return build(int(arg))


def _loop_name(i):
    if i < 26:
        return chr(ord("a") + i)
    return f"loop{i}"


def opposite(complex_):
    """Reverse all edges; squares swap d1m with d1p and d2m with d2p.

    An involution: opposite(opposite(K)) == K.
    """
    require_valid(complex_)
    edges = {e: (t, s) for e, (s, t) in complex_.edges.items()}
    squares = {
        w: (d1p, d1m, d2p, d2m)
        for w, (d1m, d1p, d2m, d2p) in complex_.squares.items()
    }
    return PreCubicalSet(complex_.vertices, edges, squares, complex_.labels)


def sub_complex(complex_, cell_keys):
    """Smallest face-closed sub-complex containing the given (dim, id) cells."""
    verts, edges, squares = set(), set(), set()
    for dim, cid in cell_keys:
        if dim == 0 and cid in complex_.vertices:
            verts.add(cid)
        elif dim == 1 and cid in complex_.edges:
            edges.add(cid)
        elif dim == 2 and cid in complex_.squares:
            squares.add(cid)
        else:
            raise DomainError(f"unknown cell (dim {dim}, id {cid})")
    for w in squares:
        edges.update(complex_.squares[w])
    for e in edges:
        s, t = complex_.edges[e]
        verts.add(s)
        verts.add(t)
    labels = {
        (d, c): lab
        for (d, c), lab in complex_.labels.items()
        if (d == 0 and c in verts) or (d == 1 and c in edges) or (d == 2 and c in squares)
    }
    return PreCubicalSet(
        verts,
        {e: complex_.edges[e] for e in edges},
        {w: complex_.squares[w] for w in squares},
        labels,
    )


def _check_same_ambient(k1, k2):
    for e in set(k1.edges) & set(k2.edges):
        if k1.edges[e] != k2.edges[e]:
            raise DomainError(f"mismatched ambient: edge {e} has different faces")
    for w in set(k1.squares) & set(k2.squares):
        if k1.squares[w] != k2.squares[w]:
            raise DomainError(f"mismatched ambient: square {w} has different faces")


def union(k1, k2):
    """Cellwise union of two sub-complexes of a common ambient complex."""
    _check_same_ambient(k1, k2)
    edges = dict(k2.edges)
    edges.update(k1.edges)
    squares = dict(k2.squares)
    squares.update(k1.squares)
    labels = dict(k2.labels)
    labels.update(k1.labels)
    return PreCubicalSet(set(k1.vertices) | set(k2.vertices), edges, squares, labels)


def intersect(k1, k2):
    """Cellwise intersection; face-closed when both inputs are."""
    _check_same_ambient(k1, k2)
    verts = set(k1.vertices) & set(k2.vertices)
    edges = {e: k1.edges[e] for e in set(k1.edges) & set(k2.edges)}
    squares = {w: k1.squares[w] for w in set(k1.squares) & set(k2.squares)}
    shared = set(k2.labels)
    labels = {k: v for k, v in k1.labels.items() if k in shared}
    return PreCubicalSet(verts, edges, squares, labels)


_COMPLEX_DIRECTIVES = {
    "vertex": (1, "vertex wants 1 field: vertex <id>"),
    "edge": (3, "edge wants 3 fields: edge <id> <src> <tgt>"),
    "square": (5, "square wants 5 fields: square <id> <d1m> <d1p> <d2m> <d2p>"),
}


def parse_complex(text):
    """Parse the line-based complex format.

    Lines: ``vertex <id>``, ``edge <id> <src> <tgt>``,
    ``square <id> <d1m> <d1p> <d2m> <d2p>``; ``#`` starts a comment.
    """
    cells = {kind: {} for kind in _COMPLEX_DIRECTIVES}  # kind -> id -> faces
    for ln, (kind, cell, *faces) in directives(text, _COMPLEX_DIRECTIVES):
        if cell in cells[kind]:
            raise InputSyntaxError(f"duplicate {kind} id {cell}", ln)
        cells[kind][cell] = tuple(faces)
    return PreCubicalSet(cells["vertex"], cells["edge"], cells["square"])


def format_complex(complex_):
    """Canonical text form: sections sorted by cell id; parse∘format = id."""
    lines = [f"vertex {v}" for v in complex_.vertices]
    lines += [f"edge {e} {s} {t}" for e, (s, t) in sorted(complex_.edges.items())]
    lines += [
        f"square {w} {d1m} {d1p} {d2m} {d2p}"
        for w, (d1m, d1p, d2m, d2p) in sorted(complex_.squares.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")
