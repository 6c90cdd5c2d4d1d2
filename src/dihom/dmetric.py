"""Lawvere directed metric spaces on finite point sets.

Distances are asymmetric values in [0, oo] subject to zero self-distance
and the triangle inequality; symmetry is not assumed, so oo records "no way
forward".  Arithmetic is exact: entries are ints or Fractions (nonnegative
in a valid space), with ``math.inf`` as the absorbing top element, and
every construction here (product = sup, sum = oo across summands, quotient
= cheapest chain through zero-cost identifications) stays exact, so
comparisons in tests are equalities rather than tolerances.  The triangle
check, the quotient's shortest paths, the product's sup and the output
text run on one scaled matrix per space (:func:`_matrix_of`): every finite
entry as an integer over one common denominator, oo as ``INF``, tested for
and never added.  A parsed space and every space an operation returns
carry their matrix from the start; ``_scaled``, the one scaling step,
builds it from the distinct entries of a hand-built space on first read.
``Fraction`` values appear only at input and output.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import itemgetter

from ._kernels import _isomorphic, _UnionFind
from .errors import DomainError, InputSyntaxError, Record, SizeGuardError, _set, directives

INF = math.inf
MAX_PRODUCT_POINTS = 1000  # a matrix of 10**6 entries, as scenes' MAX_LATTICE_POINTS


def parse_dist(token):
    """Parse an entry: ``inf``, a ``p/q`` rational, or a decimal literal.
    Plain ASCII ``n`` and ``n/m`` are read with ``int()``, ``n`` as an int.
    An exponent above ``sys.get_int_max_str_digits()``, the digit limit of
    ``int()`` (none before Python 3.10.7), is refused: ``Fraction`` would
    write out 10**exponent."""
    if token == "inf":
        return INF
    num, slash, den = token.partition("/")
    try:
        if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
            return Fraction(int(num), int(den)) if slash else int(num)
        _, e, exp = token.lower().partition("e")
        if e and abs(int(exp)) > (getattr(sys, "get_int_max_str_digits", int)() or INF):
            raise ValueError
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise InputSyntaxError(f"bad distance {token!r}") from None
    if value < 0:
        raise InputSyntaxError(f"negative distance {token!r}")
    return value


def format_dist(value):
    if value == INF:
        return "inf"
    try:
        return str(value)
    except ValueError:  # a numerator or denominator past sys.get_int_max_str_digits()
        raise _too_long() from None


def _too_long():
    return DomainError("cannot write a distance whose numerator or denominator has more "
                       f"than {sys.get_int_max_str_digits()} digits")


class DMetricSpace(Record):
    _fields = ("points", "dist")  # dist: rows of int or Fraction, INF allowed
    __slots__ = _fields + ("_matrix",)  # the scaled matrix, see _matrix_of

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


def _scaled(entries, *denominators):
    """The one scaling step: ``(L, ints)`` for ``entries``, a dict of keys
    to entries.  ``L`` is the lcm of ``denominators`` and of the finite
    entries' denominators, and ``ints`` maps each key to its entry ``v`` as
    the exact integer ``v * L``, or to ``INF`` for oo.  Scaling by ``L > 0``
    keeps every sum and comparison, so integer results are exact over ``L``."""
    ratios = {k: None if type(v) is float and v == INF else v.as_integer_ratio()
              for k, v in entries.items()}
    lcm = math.lcm(*denominators, *{r[1] for r in ratios.values() if r is not None})
    return lcm, {k: INF if r is None else r[0] * (lcm // r[1]) for k, r in ratios.items()}


def _matrix_of(space):
    """``(L, rows)``: the space's entries as integers over ``L`` (tuples, oo
    as ``INF``), kept on the space.  Built on the first read from the
    distinct entry objects of a space made by hand, and given at birth to
    every space :func:`parse_dmetric` and the operations return."""
    try:
        return space._matrix
    except AttributeError:
        pass
    lcm, ints = _scaled({id(v): v for row in space.dist for v in row})
    matrix = lcm, tuple(tuple(ints[id(v)] for v in row) for row in space.dist)
    _set(space, "_matrix", matrix)
    return matrix


def _matrices(spaces):
    """``(L, matrices)``: each space's rows over one common ``L``."""
    mats = [_matrix_of(s) for s in spaces]
    lcm, _ = _scaled({}, *(m[0] for m in mats))
    return lcm, [rows if k == lcm else
                 tuple(tuple(v if v is INF else v * (lcm // k) for v in row) for row in rows)
                 for k, rows in mats]


def _space(points, dist, matrix):
    """A space that keeps ``matrix``, its ``(L, rows)``, from the start."""
    space = DMetricSpace(points, dist)
    _set(space, "_matrix", matrix)
    return space


def validate(space):
    """Check d(x,x) = 0, nonnegativity, and all triangle inequalities."""
    pts = space.points
    _, d = _matrix_of(space)
    out = [f"d({p},{p}) = {format_dist(space.dist[i][i])} != 0"
           for i, p in enumerate(pts) if d[i][i] != 0]
    out += [f"d({pts[i]},{pts[j]}) < 0"
            for i, row in enumerate(d) if min(row) < 0 for j, v in enumerate(row) if v < 0]
    # d(i,k) <= d(i,j) + d(j,k) holds whenever a right-hand term is oo,
    # and fails whenever both are finite and d(i,k) is oo
    finite = [[(k, v) for k, v in enumerate(row) if v is not INF] for row in d]
    for i, di in enumerate(d):
        for j, a in finite[i]:
            for k, b in finite[j]:
                if a + b < di[k]:
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
    lcm, keys = _matrices(spaces)
    # cells are (key, entry); one factor is folded in at a time, and a tie
    # keeps the earlier factor's entry
    cells = [[list(zip(krow, vrow)) for krow, vrow in zip(m, s.dist)]
             for m, s in zip(keys, spaces)]
    points, rows = spaces[0].points, cells[0]
    for s, other in zip(spaces[1:], cells[1:]):
        points = [f"{p},{q}" for p in points for q in s.points]
        rows = [[f if f[0] > e[0] else e for e in ra for f in sa]
                for ra in rows for sa in other]
    key, entry = itemgetter(0), itemgetter(1)
    return _space(tuple(points), tuple(tuple(map(entry, row)) for row in rows),
                  (lcm, tuple(tuple(map(key, row)) for row in rows)))


def disjoint_sum(*spaces):
    """Disjoint union; distances across different summands are oo."""
    if not spaces:
        raise DomainError("sum needs at least one summand")
    points = tuple(f"{i}:{p}" for i, s in enumerate(spaces) for p in s.points)
    lcm, keys = _matrices(spaces)
    blanks = [(INF,) * len(s.points) for s in spaces]  # oo in entries and matrix alike
    dist, rows = [], []
    for i, (s, m) in enumerate(zip(spaces, keys)):  # by index: one space may be passed twice
        left, right = sum(blanks[:i], ()), sum(blanks[i + 1:], ())
        dist += [left + tuple(row) + right for row in s.dist]
        rows += [left + row + right for row in m]
    return _space(points, tuple(dist), (lcm, tuple(rows)))


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
    lcm, d = _matrix_of(space)
    w = [list(row) for row in d]  # relaxed in place: the space's own rows stay as they are
    for i in range(n):
        for j in range(n):
            if root[i] == root[j] and i != j:
                w[i][j] = 0
    for k in range(n):
        wk = w[k]
        finite = [(j, v) for j, v in enumerate(wk) if v is not INF]
        for i in range(n):
            row = w[i]
            wik = row[k]
            if wik is INF:
                continue
            for j, v in finite:
                c = wik + v
                if c < row[j]:
                    row[j] = c
            if i == k:  # a negative d(k,k) lowers row k for the rows after it
                finite = [(j, v) for j, v in enumerate(wk) if v is not INF]

    classes = {}
    for i, p in enumerate(space.points):
        classes.setdefault(root[i], []).append(p)
    # class named by its lexicographically least member
    named = sorted((min(members), root) for root, members in classes.items())
    points = tuple(name for name, _root in named)
    reps = [idx[name] for name, _root in named]
    rows = tuple(tuple(w[a][b] for b in reps) for a in reps)
    value = {v: v if v is INF else Fraction(v, lcm) for v in set().union(*rows)}
    dist = tuple(tuple(map(value.__getitem__, row)) for row in rows)
    return _space(points, dist, (lcm, rows))


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
    """Existence of a distance-preserving bijection: the shared isomorphism
    search on the matrices with oo as None (a NaN entry matches only itself)."""
    return _isomorphic(*([[None if type(v) is float and v == INF else v for v in row]
                          for row in s.dist] for s in (x, y)))


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
    rows = [entries for _, entries in lines[1:]]
    lcm, ints = _scaled(values)
    try:
        return _space(tuple(ids), tuple(tuple(map(values.__getitem__, r)) for r in rows),
                      (lcm, tuple(tuple(map(ints.__getitem__, r)) for r in rows)))
    except DomainError as exc:  # a repeated id: rows were checked above
        raise InputSyntaxError(str(exc), ln0) from exc


def format_dmetric(space):
    """Canonical text form: points sorted by id, rows in that order; each
    distinct integer v of the scaled matrix is formatted once, as v/L in
    lowest terms (``Fraction``'s form, without building one)."""
    n = len(space.points)
    order = sorted(range(n), key=space.points.__getitem__)
    lcm, rows = _matrix_of(space)
    shown = {INF: "inf"}
    try:
        for v in set().union(*rows) - {INF}:
            g = math.gcd(v, lcm)
            shown[v] = str(v // g) if g == lcm else f"{v // g}/{lcm // g}"
    except ValueError:
        raise _too_long() from None
    pick = itemgetter(*order) if n > 1 else tuple
    lines = ["points " + " ".join([str(n)] + [space.points[i] for i in order])]
    lines += [" ".join(map(shown.__getitem__, pick(rows[i]))) for i in order]
    return "\n".join(lines) + "\n"


def parse_relation(text):
    """Relation file for quotients: each line names two point ids."""
    pairs = []
    for ln, tok in directives(text):
        if len(tok) != 2:
            raise InputSyntaxError("relation line wants 2 point ids", ln)
        pairs.append((tok[0], tok[1]))
    return pairs
