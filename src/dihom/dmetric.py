"""Lawvere directed metric spaces on finite point sets.

Distances are asymmetric values in [0, oo] subject to zero self-distance
and the triangle inequality; symmetry is not assumed, so oo records "no way
forward".  Arithmetic is exact: entries are nonnegative Fractions, with
``math.inf`` as the absorbing top element, and every construction here
(product = sup, sum = oo across summands, quotient = cheapest chain through
zero-cost identifications) stays exact, so comparisons in tests are
equalities rather than tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from .errors import DomainError, InputSyntaxError
from .fundcat import _UnionFind

INF = math.inf


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


@dataclass(frozen=True)
class DMetricSpace:
    points: tuple[str, ...]
    dist: tuple[tuple[object, ...], ...]  # Fraction entries, INF allowed

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise DomainError("duplicate point id")
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


def validate(space):
    """Check d(x,x) = 0, nonnegativity, and all triangle inequalities."""
    out = []
    n = len(space.points)
    for i in range(n):
        if space.dist[i][i] != 0:
            out.append(f"d({space.points[i]},{space.points[i]}) = "
                       f"{format_dist(space.dist[i][i])} != 0")
    for i in range(n):
        for j in range(n):
            v = space.dist[i][j]
            if v != INF and v < 0:
                out.append(f"d({space.points[i]},{space.points[j]}) < 0")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if space.dist[i][j] + space.dist[j][k] < space.dist[i][k]:
                    out.append(
                        f"triangle fails on ({space.points[i]},"
                        f"{space.points[j]},{space.points[k]})"
                    )
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
    """Pointwise sup of coordinate distances on tuples (the l-infinity rule)."""
    if not spaces:
        raise DomainError("product needs at least one factor")
    combos = list(iter_product(*(range(len(s.points)) for s in spaces)))
    points = tuple(
        ",".join(s.points[c] for s, c in zip(spaces, combo)) for combo in combos
    )
    dist = tuple(
        tuple(
            max(s.dist[a[c]][b[c]] for c, s in enumerate(spaces))
            for b in combos
        )
        for a in combos
    )
    return DMetricSpace(points, dist)


def disjoint_sum(*spaces):
    """Disjoint union; distances across different summands are oo."""
    if not spaces:
        raise DomainError("sum needs at least one summand")
    points = []
    owner = []
    for i, s in enumerate(spaces):
        for j, p in enumerate(s.points):
            points.append(f"{i}:{p}")
            owner.append((i, j))
    n = len(points)
    dist = tuple(
        tuple(
            spaces[owner[a][0]].dist[owner[a][1]][owner[b][1]]
            if owner[a][0] == owner[b][0]
            else INF
            for b in range(n)
        )
        for a in range(n)
    )
    return DMetricSpace(tuple(points), dist)


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
    w = [[space.dist[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if root[i] == root[j] and i != j:
                w[i][j] = Fraction(0)
    for k in range(n):
        wk = w[k]
        for i in range(n):
            wik = w[i][k]
            if wik == INF:
                continue
            row = w[i]
            for j in range(n):
                c = wik + wk[j]
                if c < row[j]:
                    row[j] = c

    classes = {}
    for i, p in enumerate(space.points):
        classes.setdefault(root[i], []).append(p)
    # class named by its lexicographically least member
    named = sorted((min(members), root) for root, members in classes.items())
    points = tuple(name for name, _root in named)
    reps = [idx[name] for name, _root in named]
    dist = tuple(tuple(w[a][b] for b in reps) for a in reps)
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
    fracs = [Fraction(i, n) for i in range(n + 1)]
    points = [str(f) for f in fracs]

    def d(p, q):
        fp, fq = Fraction(p), Fraction(q)
        return fq - fp if fq >= fp else INF

    return make_space(points, d)


def discretized_directed_circle(n):
    """n equally spaced points; distance is the forward (anticlockwise) arc."""
    if n < 1:
        raise DomainError("discretized_directed_circle needs n >= 1")
    fracs = [Fraction(i, n) for i in range(n)]
    points = [str(f) for f in fracs]

    def d(p, q):
        fp, fq = Fraction(p), Fraction(q)
        return (fq - fp) % 1

    return make_space(points, d)


def is_isometric(x, y):
    """Existence of a distance-preserving bijection, by backtracking."""
    if len(x.points) != len(y.points):
        return False
    n = len(x.points)
    assign = [None] * n
    used = [False] * n

    def rec(i):
        if i == n:
            return True
        for j in range(n):
            if used[j]:
                continue
            ok = True
            for k in range(i):
                if (
                    x.dist[i][k] != y.dist[j][assign[k]]
                    or x.dist[k][i] != y.dist[assign[k]][j]
                ):
                    ok = False
                    break
            if ok and x.dist[i][i] == y.dist[j][j]:
                assign[i] = j
                used[j] = True
                if rec(i + 1):
                    return True
                used[j] = False
                assign[i] = None
        return False

    return rec(0)


def parse_dmetric(text):
    """Matrix file: ``points <n> <id...>`` then n rows of n entries;
    entries are decimals, p/q rationals, or ``inf``; ``#`` comments."""
    lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((ln, line))
    if not lines:
        raise InputSyntaxError("empty d-metric file")
    ln0, head = lines[0]
    tok = head.split()
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
    for ln, line in lines[1:]:
        entries = line.split()
        if len(entries) != n:
            raise InputSyntaxError(f"expected {n} entries in row", ln)
        try:
            rows.append(tuple(parse_dist(e) for e in entries))
        except InputSyntaxError as exc:
            raise InputSyntaxError(str(exc), ln) from None
    try:
        return DMetricSpace(tuple(ids), tuple(rows))
    except DomainError as exc:
        raise InputSyntaxError(str(exc)) from exc


def format_dmetric(space):
    """Canonical text form: points sorted by id, rows in that order."""
    order = sorted(range(len(space.points)), key=lambda i: space.points[i])
    points = [space.points[i] for i in order]
    lines = ["points " + " ".join([str(len(points))] + points)]
    for i in order:
        lines.append(" ".join(format_dist(space.dist[i][j]) for j in order))
    return "\n".join(lines) + "\n"


def parse_relation(text):
    """Relation file for quotients: each line names two point ids."""
    pairs = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if len(tok) != 2:
            raise InputSyntaxError("relation line wants 2 point ids", ln)
        pairs.append((tok[0], tok[1]))
    return pairs
