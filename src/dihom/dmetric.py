"""Lawvere directed metric spaces on finite point sets.

Distances are asymmetric values in [0, oo] subject to zero self-distance
and the triangle inequality; symmetry is not assumed, so oo records "no way
forward".  Arithmetic is exact: entries are ints or Fractions (nonnegative
in a valid space), with ``math.inf`` as the absorbing top element, and
every construction here (product = sup, sum = oo across summands, quotient
= cheapest chain through zero-cost identifications) stays exact, so
comparisons in tests are equalities rather than tolerances.  The triangle
check, the quotient's shortest paths and the product's sup run on
integers: every finite entry is brought to one common denominator
(``_scaled``), oo is handled by explicit tests, never added, and
``Fraction`` values appear only at input and output.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._kernels import _backtrack, _UnionFind
from .errors import DomainError, InputSyntaxError, Record, SizeGuardError, directives

INF = math.inf
MAX_PRODUCT_POINTS = 1000  # a matrix of 10**6 entries, as scenes' MAX_LATTICE_POINTS


def parse_dist(token):
    """Parse an entry: ``inf``, a ``p/q`` rational, or a decimal literal."""
    if token == "inf":
        return INF
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise InputSyntaxError(f"bad distance {token!r}") from None
    if value < 0:
        raise InputSyntaxError(f"negative distance {token!r}")
    return value


def format_dist(value):
    if value == INF:
        return "inf"
    return str(value)


class DMetricSpace(Record):
    __slots__ = _fields = ("points", "dist")  # dist: rows of int or Fraction, INF allowed

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            dup = next(p for i, p in enumerate(self.points) if p in self.points[:i])
            raise DomainError(f"duplicate point id {dup}")
        n = len(self.points)
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise DomainError("distance matrix shape does not match points")

    def index(self, p):
        try:
            return self.points.index(p)
        except ValueError:
            raise DomainError(f"unknown point {p}") from None

    def d(self, p, q):
        return self.dist[self.index(p)][self.index(q)]


def make_space(points, dist_fn):
    points = tuple(points)
    dist = tuple(tuple(dist_fn(p, q) for q in points) for p in points)
    return DMetricSpace(points, dist)


def _scaled(*spaces):
    """``(L, matrices)``: ``L`` is the lcm of the denominators of every finite
    entry of ``spaces``, and each space's matrix holds entry ``v`` as the
    exact integer ``v * L``, or None for ``INF``.  Scaling by ``L > 0`` keeps
    every sum and comparison, so integer results are exact over ``L``."""
    ratios = [[[None if type(v) is float and v == INF else v.as_integer_ratio() for v in row]
               for row in s.dist] for s in spaces]
    lcm = math.lcm(*{r[1] for m in ratios for row in m for r in row if r is not None})
    return lcm, [[[None if r is None else r[0] * (lcm // r[1]) for r in row] for row in m]
                 for m in ratios]


def validate(space):
    """Check d(x,x) = 0, nonnegativity, and all triangle inequalities."""
    pts = space.points
    _, (d,) = _scaled(space)
    out = [f"d({p},{p}) = {format_dist(space.dist[i][i])} != 0"
           for i, p in enumerate(pts) if d[i][i] != 0]
    out += [f"d({pts[i]},{pts[j]}) < 0"
            for i, row in enumerate(d) for j, v in enumerate(row) if v is not None and v < 0]
    # d(i,k) <= d(i,j) + d(j,k) holds whenever a right-hand term is oo
    finite = [[(k, v) for k, v in enumerate(row) if v is not None] for row in d]
    for i, di in enumerate(d):
        for j, a in finite[i]:
            for k, b in finite[j]:
                c = di[k]
                if c is None or a + b < c:
                    out.append(f"triangle fails on ({pts[i]},{pts[j]},{pts[k]})")
    return out


def require_valid(space):
    violations = validate(space)
    if violations:
        raise DomainError("invalid d-metric space: " + "; ".join(violations[:5]))
    return space


def reflect(space):
    """Opposite d-metric: distances transposed; an involution."""
    n = len(space.points)
    dist = tuple(tuple(space.dist[j][i] for j in range(n)) for i in range(n))
    return DMetricSpace(space.points, dist)


def product(*spaces):
    """Pointwise sup of coordinate distances on tuples (the l-infinity rule);
    more than ``MAX_PRODUCT_POINTS`` points raise :class:`SizeGuardError`."""
    if not spaces:
        raise DomainError("product needs at least one factor")
    size = math.prod(len(s.points) for s in spaces)
    if size > MAX_PRODUCT_POINTS:
        raise SizeGuardError(f"product has {size} points (guard {MAX_PRODUCT_POINTS})")
    _, keys = _scaled(*spaces)
    top = 1 + max((v for m in keys for row in m for v in row if v is not None), default=0)
    # cells are (key, entry) with oo keyed above every finite entry; one factor
    # is folded in at a time, and a tie keeps the earlier factor's entry
    cells = [[[(top if k is None else k, v) for k, v in zip(krow, vrow)]
              for krow, vrow in zip(m, s.dist)] for m, s in zip(keys, spaces)]
    points, rows = spaces[0].points, cells[0]
    for s, other in zip(spaces[1:], cells[1:]):
        points = [f"{p},{q}" for p in points for q in s.points]
        rows = [[f if f[0] > e[0] else e for e in ra for f in sa]
                for ra in rows for sa in other]
    return DMetricSpace(tuple(points), tuple(tuple(v for _, v in row) for row in rows))


def disjoint_sum(*spaces):
    """Disjoint union; distances across different summands are oo."""
    if not spaces:
        raise DomainError("sum needs at least one summand")
    points = tuple(f"{i}:{p}" for i, s in enumerate(spaces) for p in s.points)
    blanks = [(INF,) * len(s.points) for s in spaces]
    dist = []
    for i, s in enumerate(spaces):  # by index: one space may be passed twice
        left, right = sum(blanks[:i], ()), sum(blanks[i + 1:], ())
        dist += [left + tuple(row) + right for row in s.dist]
    return DMetricSpace(points, tuple(dist))


def quotient(space, pairs):
    """Identify points (equivalence closure of ``pairs``); the quotient
    distance is the cheapest chain alternating original distances with
    zero-cost jumps inside a class, computed exactly by all-pairs shortest
    paths."""
    n = len(space.points)
    idx = {p: i for i, p in enumerate(space.points)}
    uf = _UnionFind(n)
    for p, q in pairs:
        if p not in idx or q not in idx:
            raise DomainError(f"unknown point in relation: {p if p not in idx else q}")
        uf.union(idx[p], idx[q])

    root = [uf.find(i) for i in range(n)]
    lcm, (w,) = _scaled(space)
    for i in range(n):
        for j in range(n):
            if root[i] == root[j] and i != j:
                w[i][j] = 0
    for k in range(n):
        wk = w[k]
        finite = [(j, v) for j, v in enumerate(wk) if v is not None]
        for i in range(n):
            row = w[i]
            wik = row[k]
            if wik is None:
                continue
            for j, v in finite:
                c = wik + v
                r = row[j]
                if r is None or c < r:
                    row[j] = c
            if i == k:  # a negative d(k,k) lowers row k for the rows after it
                finite = [(j, v) for j, v in enumerate(wk) if v is not None]

    classes = {}
    for i, p in enumerate(space.points):
        classes.setdefault(root[i], []).append(p)
    # class named by its lexicographically least member
    named = sorted((min(members), root) for root, members in classes.items())
    points = tuple(name for name, _root in named)
    reps = [idx[name] for name, _root in named]
    value = {v: Fraction(v, lcm) for v in {v for a in reps for v in w[a]} if v is not None}
    dist = tuple(tuple(value.get(w[a][b], INF) for b in reps) for a in reps)
    return DMetricSpace(points, dist)


def ball(space, center, eps, direction):
    """Strict ball: past = {x : d(x, x0) < eps}, future = {x : d(x0, x) < eps}."""
    if eps != INF and eps < 0:
        raise DomainError("ball radius must be >= 0")
    if direction not in ("past", "future"):
        raise DomainError("direction must be 'past' or 'future'")
    c = space.index(center)
    out = []
    for i, p in enumerate(space.points):
        v = space.dist[i][c] if direction == "past" else space.dist[c][i]
        if v < eps:
            out.append(p)
    return tuple(sorted(out))


def discretized_interval(n):
    """Points 0, 1/n, ..., 1 with forward distance j/n - i/n and oo backward."""
    if n < 1:
        raise DomainError("discretized_interval needs n >= 1")
    step = [Fraction(k, n) for k in range(n + 1)]
    dist = tuple(tuple(step[j - i] if j >= i else INF for j in range(n + 1))
                 for i in range(n + 1))
    return DMetricSpace(tuple(map(str, step)), dist)


def discretized_directed_circle(n):
    """n equally spaced points; distance is the forward (anticlockwise) arc."""
    if n < 1:
        raise DomainError("discretized_directed_circle needs n >= 1")
    step = [Fraction(k, n) for k in range(n)]
    dist = tuple(tuple(step[(j - i) % n] for j in range(n)) for i in range(n))
    return DMetricSpace(tuple(map(str, step)), dist)


def is_isometric(x, y):
    """Existence of a distance-preserving bijection, by backtracking: point i
    of x tries the points of y with its self-distance in index order."""
    n = len(x.points)
    if len(y.points) != n:
        return False
    x_in, y_in = tuple(zip(*x.dist)), tuple(zip(*y.dist))  # columns
    at = [n] * n  # depth at which each point of y was last placed

    def fits(i, chosen):
        j = chosen[i]
        if (at[j] < i and chosen[at[j]] == j  # j is still placed at depth at[j]
                or tuple(map(y.dist[j].__getitem__, chosen[:i])) != x.dist[i][:i]
                or tuple(map(y_in[j].__getitem__, chosen[:i])) != x_in[i][:i]):
            return False
        at[j] = i
        return True

    images = {}  # self-distance -> points of y with it, in index order
    for j in range(n):
        images.setdefault(y.dist[j][j], []).append(j)
    options = [images.get(x.dist[i][i], ()) for i in range(n)]
    return next(_backtrack(options, fits), None) is not None


def parse_dmetric(text):
    """Matrix file: ``points <n> <id...>`` then n rows of n entries;
    entries are decimals, p/q rationals, or ``inf``; ``#`` comments."""
    lines = list(directives(text))
    if not lines:
        raise InputSyntaxError("empty d-metric file")
    ln0, tok = lines[0]
    if tok[0] != "points" or len(tok) < 2:
        raise InputSyntaxError("first line must be: points <n> <ids...>", ln0)
    try:
        n = int(tok[1])
    except ValueError:
        raise InputSyntaxError("points count must be an integer", ln0) from None
    ids = tok[2:]
    if len(ids) != n:
        raise InputSyntaxError(f"expected {n} point ids, got {len(ids)}", ln0)
    if len(lines) != n + 1:
        raise InputSyntaxError(f"expected {n} matrix rows, got {len(lines) - 1}")
    rows = []
    values = {}  # each distinct token is parsed once
    for ln, entries in lines[1:]:
        if len(entries) != n:
            raise InputSyntaxError(f"expected {n} entries in row", ln)
        try:
            for e in entries:
                if e not in values:
                    values[e] = parse_dist(e)
        except InputSyntaxError as exc:
            raise InputSyntaxError(str(exc), ln) from None
        rows.append(tuple(map(values.__getitem__, entries)))
    try:
        return DMetricSpace(tuple(ids), tuple(rows))
    except DomainError as exc:  # a repeated id: rows were checked above
        raise InputSyntaxError(str(exc), ln0) from exc


def format_dmetric(space):
    """Canonical text form: points sorted by id, rows in that order."""
    order = sorted(range(len(space.points)), key=lambda i: space.points[i])
    points = [space.points[i] for i in order]
    lines = ["points " + " ".join([str(len(points))] + points)]
    # products and sums repeat a few entry objects: format each one once,
    # keyed by id (space.dist keeps every entry alive for the whole call)
    shown = {}
    for i in order:
        row = space.dist[i]
        cells = []
        for j in order:
            key = id(row[j])
            if key not in shown:
                shown[key] = format_dist(row[j])
            cells.append(shown[key])
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def parse_relation(text):
    """Relation file for quotients: each line names two point ids."""
    pairs = []
    for ln, tok in directives(text):
        if len(tok) != 2:
            raise InputSyntaxError("relation line wants 2 point ids", ln)
        pairs.append((tok[0], tok[1]))
    return pairs
