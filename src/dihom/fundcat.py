"""Dipaths in a pre-cubical set and their classes modulo square swaps.

A dipath is a composable edge word; two dipaths are equivalent when one can
be turned into the other by repeatedly replacing, anywhere inside the word,
one side of a square's boundary relation (d2m;d1p) by the other (d1m;d2p)
or back.  On a pre-cubical model this swap congruence is exactly the
relation the 2-cells generate: any elementary homotopy between edge words
factors through single squares, so the arrows of the fundamental category
from x to y are the swap classes of dipaths x -> y.

Since both sides of every square relation have length 2, swaps preserve
word length, so classes are computed one length layer at a time without
listing dipaths (the discrete form of the trace-space state-space
reduction).  A class of length l+1 is a set of pairs (class p of length l,
last edge e); two pairs are joined only when a square's two routes
(a1 a2) ~ (b1 b2) extend one class q of length l-1, i.e. they are
(q.a1, a2) and (q.b1, b2), where q.a1 is read off the right action
recorded at the layer before.  Swaps inside the prefix leave the pair
unchanged, and the swap congruence is a right congruence, so this is exact.
Pairs are numbered in (rank of p, sorted out-edge) order and each class
keeps its lowest pair as root: roots are then the lexicographically least
members, layers come out sorted by representative, and class sizes are
exact sums of prefix sizes.  The cost grows with the number of classes
(and their representatives' lengths), not with the number of dipaths.

Unbounded computation is only allowed on acyclic complexes and is refused
(not silently truncated) otherwise; the class count is capped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DomainError,
    EnumerationLimitError,
    UnboundedEnumerationError,
)
from .precubical import require_valid

DEFAULT_MAX_PATHS = 1_000_000
DEFAULT_MAX_CLASSES = 1_000_000


@dataclass(frozen=True)
class DiPath:
    """A composable edge sequence; ``edges`` empty means the degenerate path."""

    complex: object = field(compare=False, repr=False)
    start: str
    edges: tuple[str, ...] = ()

    def __post_init__(self):
        k = self.complex
        if self.start not in k.vertices:
            raise DomainError(f"unknown vertex {self.start}")
        at = self.start
        for e in self.edges:
            if e not in k.edges:
                raise DomainError(f"unknown edge {e}")
            if k.src(e) != at:
                raise DomainError(f"edge {e} does not start at {at}")
            at = k.tgt(e)

    @property
    def end(self):
        return self.complex.tgt(self.edges[-1]) if self.edges else self.start

    def __len__(self):
        return len(self.edges)

    def concat(self, other):
        if other.start != self.end:
            raise DomainError("paths are not consecutive")
        return DiPath(self.complex, self.start, self.edges + other.edges)


@dataclass(frozen=True)
class HomClass:
    representative: tuple[str, ...]
    size: int


@dataclass(frozen=True)
class HomClassSet:
    source: str
    target: str
    bound: int | None
    classes: tuple[HomClass, ...]

    @property
    def count(self):
        return len(self.classes)


@dataclass(frozen=True)
class MonoidClassTable:
    """Loop classes at a point, graded by length, with their concatenation.

    ``counts[l]`` is the number of classes of length l; ``reps`` lists the
    canonical representatives in class order; ``table[(i, j)]`` is the class
    index of reps[i] + reps[j] (present when the sum of lengths fits the
    bound).
    """

    point: str
    bound: int
    counts: tuple[int, ...]
    reps: tuple[tuple[str, ...], ...]
    table: dict

    def is_length_addition(self):
        """True when every recorded concatenation lands in a class whose
        length is the sum of the operand lengths."""
        for (i, j), k in self.table.items():
            if len(self.reps[k]) != len(self.reps[i]) + len(self.reps[j]):
                return False
        return True


@dataclass(frozen=True)
class OneSimpleResult:
    one_simple: bool
    witness: tuple[str, str] | None
    exact: bool

    def __bool__(self):
        return self.one_simple


@dataclass(frozen=True)
class CatPresentation:
    """Objects, generating arrows, and parallel word-pair relations."""

    objects: tuple[str, ...]
    generators: dict
    relations: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    def gen_src(self, g):
        return self.generators[g][0]

    def gen_tgt(self, g):
        return self.generators[g][1]

    def word_endpoints(self, word, at=None):
        """(src, tgt) of a generator word; ``at`` disambiguates empty words."""
        if not word:
            if at is None:
                raise DomainError("empty word needs an anchor object")
            return (at, at)
        src = self.gen_src(word[0])
        cur = src
        for g in word:
            if self.gen_src(g) != cur:
                raise DomainError(f"word not composable at generator {g}")
            cur = self.gen_tgt(g)
        return (src, cur)


def validate_presentation(pres):
    out = []
    objs = set(pres.objects)
    for g, (s, t) in pres.generators.items():
        if s not in objs or t not in objs:
            out.append(f"generator {g}: endpoint not an object")
    for i, (u, v) in enumerate(pres.relations):
        if not u or not v:
            out.append(f"relation {i}: empty side (not supported)")
            continue
        try:
            eu = pres.word_endpoints(u)
            ev = pres.word_endpoints(v)
        except DomainError as exc:
            out.append(f"relation {i}: {exc}")
            continue
        if eu != ev:
            out.append(f"relation {i}: sides are not parallel ({eu} vs {ev})")
    return out


def presentation_of(complex_):
    """Generators-and-relations form of a complex's fundamental category.

    Objects = vertices, generators = edges, one relation per square equating
    its two boundary routes (d2m;d1p vs d1m;d2p), written in diagrammatic
    order.
    """
    require_valid(complex_)
    rels = tuple(
        ((d2m, d1p), (d1m, d2p))
        for _w, (d1m, d1p, d2m, d2p) in sorted(complex_.squares.items())
    )
    return CatPresentation(complex_.vertices, dict(complex_.edges), rels)


def is_acyclic(complex_):
    """True iff edge reachability has no nontrivial cycle (self-loops count)."""
    return _is_acyclic(require_valid(complex_))


def _is_acyclic(k):
    """is_acyclic on a complex the caller has already validated."""
    color = {}  # 1 = on stack, 2 = done
    for root in k.vertices:
        if color.get(root):
            continue
        stack = [(root, iter(k.out_edges(root)))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for e in it:
                w = k.tgt(e)
                c = color.get(w)
                if c == 1:
                    return False
                if c is None:
                    color[w] = 1
                    stack.append((w, iter(k.out_edges(w))))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                stack.pop()
    return True


def _require_walkable(complex_, vertices, max_len):
    """Validate once, check the endpoints, refuse unbounded cyclic walks."""
    k = require_valid(complex_)
    for v in vertices:
        if v not in k.vertices:
            raise DomainError(f"unknown vertex {v}")
    if max_len is None and not _is_acyclic(k):
        raise UnboundedEnumerationError(
            "unbounded enumeration on cyclic complex; pass a length bound"
        )
    return k


def enumerate_dipaths(complex_, source, target, max_len=None, max_paths=DEFAULT_MAX_PATHS):
    """All dipaths source -> target of length <= max_len, lexicographically.

    ``max_len=None`` means unbounded and requires an acyclic complex.
    """
    words = _enumerate_words(complex_, source, target, max_len, max_paths)
    return [DiPath(complex_, source, w) for w in words]


def _enumerate_words(complex_, source, target, max_len, max_paths):
    k = _require_walkable(complex_, (source, target), max_len)
    out = []

    def visit(at, word):
        if at == target:
            out.append(tuple(word))
            if len(out) > max_paths:
                raise EnumerationLimitError(
                    f"more than {max_paths} dipaths {source} -> {target}"
                )
        if max_len is not None and len(word) >= max_len:
            return
        for e in k.out_edges(at):
            word.append(e)
            visit(k.tgt(e), word)
            word.pop()

    visit(source, [])
    return out


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller index as root: roots are then lex-least members
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra


class _Layer:
    """The swap classes of all words of one length out of the source.

    Class ``c`` ends at vertex number ``ends[c]``, has ``sizes[c]`` member
    words and lexicographically least member ``reps[c]``; classes are
    numbered in rep order.  Once the next layer is built, the pair (c, j-th
    out-edge of its end) is numbered ``offsets[c] + j`` and ``step[pair]``
    is the class of ``reps[c] + (edge,)`` there: the right action.
    """

    __slots__ = ("ends", "sizes", "reps", "offsets", "step")

    def __init__(self, ends, sizes, reps):
        self.ends, self.sizes, self.reps = ends, sizes, reps


class _SwapEngine:
    """Layer-by-layer swap classes of the words out of one source vertex.

    Vertices are numbered in ``complex_.vertices`` order; ``out`` and
    ``targets`` list each vertex's sorted out-edges and their targets, and
    ``squares[v]`` holds, for each square starting at v, the out-edge
    positions of its routes (a1 a2) = (d2m d1p) and (b1 b2) = (d1m d2p).
    """

    def __init__(self, k):
        self.index = {v: i for i, v in enumerate(k.vertices)}
        self.out = [k.out_edges(v) for v in k.vertices]
        self.targets = [[self.index[k.tgt(e)] for e in es] for es in self.out]
        self.pos = {e: j for es in self.out for j, e in enumerate(es)}
        pos = self.pos
        self.squares = [[] for _ in self.out]
        for d1m, d1p, d2m, d2p in k.squares.values():
            self.squares[self.index[k.src(d2m)]].append(
                (pos[d2m], pos[d1p], pos[d1m], pos[d2p])
            )

    def layers(self, source, max_len, max_classes):
        """Yield the _Layer of each length 0, 1, ... up to ``max_len``, or
        until a layer is empty; only the last two layers are kept here."""
        out, targets, squares = self.out, self.targets, self.squares
        layer = _Layer([self.index[source]], [1], [()])
        prev = None
        built = 1
        length = 0
        while True:
            yield layer
            if not layer.ends or (max_len is not None and length >= max_len):
                return
            offsets = []
            n = 0
            for v in layer.ends:
                offsets.append(n)
                n += len(out[v])
            layer.offsets = offsets
            uf = _UnionFind(n)
            if prev is not None:
                step, prev_offsets = prev.step, prev.offsets
                for q, v in enumerate(prev.ends):
                    base = prev_offsets[q]
                    for a1, a2, b1, b2 in squares[v]:
                        uf.union(offsets[step[base + a1]] + a2, offsets[step[base + b1]] + b2)
            # a union-find parent is always a lower pair, already numbered
            # into the class of its root
            parent = uf.parent
            ends, sizes, reps = [], [], []
            step = [0] * n
            pair = 0
            for v, size, rep in zip(layer.ends, layer.sizes, layer.reps):
                for e, t in zip(out[v], targets[v]):
                    up = parent[pair]
                    if up == pair:
                        step[pair] = len(ends)
                        ends.append(t)
                        sizes.append(size)
                        reps.append(rep + (e,))
                    else:
                        cls = step[pair] = step[up]
                        sizes[cls] += size
                    pair += 1
            built += len(ends)
            if built > max_classes:
                raise EnumerationLimitError(
                    f"{built} dipath classes built from {source}, "
                    f"more than the cap of {max_classes}"
                )
            layer.step = step
            prev, layer = layer, _Layer(ends, sizes, reps)
            length += 1


def hom_classes(complex_, source, target, max_len=None, max_classes=DEFAULT_MAX_CLASSES):
    """Partition dipaths source -> target by the swap congruence.

    Classes come sorted by their canonical (lexicographically least)
    representative word.  At most ``max_classes`` classes of words out of
    ``source`` (ending anywhere) are built before EnumerationLimitError.
    """
    k = _require_walkable(complex_, (source, target), max_len)
    engine = _SwapEngine(k)
    t = engine.index[target]
    found = []
    for layer in engine.layers(source, max_len, max_classes):
        found += [
            HomClass(rep, size)
            for v, size, rep in zip(layer.ends, layer.sizes, layer.reps)
            if v == t
        ]
    found.sort(key=lambda c: c.representative)
    return HomClassSet(source, target, max_len, tuple(found))


def fundamental_monoid_classes(complex_, point, max_len, max_classes=DEFAULT_MAX_CLASSES):
    """Per-length loop class counts at ``point``, with a concatenation table."""
    if max_len is None or max_len < 0:
        raise DomainError("monoid class counting needs a length bound >= 0")
    k = _require_walkable(complex_, (point,), max_len)
    engine = _SwapEngine(k)
    p = engine.index[point]
    layers = list(engine.layers(point, max_len, max_classes))
    loops = sorted(
        (rep, length, c)
        for length, layer in enumerate(layers)
        for c, (v, rep) in enumerate(zip(layer.ends, layer.reps))
        if v == p
    )
    reps = tuple(rep for rep, _, _ in loops)
    rank = {(length, c): i for i, (_, length, c) in enumerate(loops)}
    counts = [0] * (max_len + 1)
    for rep in reps:
        counts[len(rep)] += 1
    # walks[b]: (j, common prefix length with the previous listed rep) for
    # the reps of length <= b, in rep order; in sorted order the common
    # prefix of two reps is the least one between neighbours
    lcp = [0] * len(reps)
    for j in range(1, len(reps)):
        a, b = reps[j - 1], reps[j]
        m = 0
        while m < len(a) and m < len(b) and a[m] == b[m]:
            m += 1
        lcp[j] = m
    walks = []
    for bound in range(max_len + 1):
        listed, shared = [], 0
        for j, rj in enumerate(reps):
            shared = min(shared, lcp[j])
            if len(rj) <= bound:
                listed.append((j, shared))
                shared = len(rj)
        walks.append(listed)
    pos = engine.pos
    table = {}
    for i, (_, li, ci) in enumerate(loops):
        # walk each short enough rj from ri's class through the right
        # action, sharing the walk along common prefixes:
        # path[m] is the class of ri + rj[:m] at length li + m
        path = [ci]
        for j, shared in walks[max_len - li]:
            rj = reps[j]
            del path[shared + 1:]
            for m in range(shared, len(rj)):
                layer = layers[li + m]
                path.append(layer.step[layer.offsets[path[m]] + pos[rj[m]]])
            table[(i, j)] = rank[(li + len(rj), path[-1])]
    return MonoidClassTable(point, max_len, tuple(counts), reps, table)


def path_preorder(complex_):
    """x <= y iff some dipath runs x -> y; reflexive-transitive by construction."""
    k = require_valid(complex_)
    reach = {}
    for root in k.vertices:
        seen = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for e in k.out_edges(v):
                w = k.tgt(e)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach[root] = frozenset(seen)
    return reach


def pi0(complex_):
    """Partition of vertices by the equivalence the path preorder generates
    (= weak connectivity of the edge graph)."""
    k = require_valid(complex_)
    verts = list(k.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    uf = _UnionFind(len(verts))
    for _e, (s, t) in k.edges.items():
        uf.union(idx[s], idx[t])
    groups = {}
    for v in verts:
        groups.setdefault(uf.find(idx[v]), []).append(v)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


def is_one_simple(complex_, max_len=None, max_classes=DEFAULT_MAX_CLASSES):
    """Whether every hom-set has at most one class.

    Exact on acyclic complexes (unbounded enumeration); with a bound on a
    cyclic complex the verdict only covers dipaths up to that length and is
    flagged ``exact=False``.  One class sweep per source, each capped at
    ``max_classes``; the witness is the first (x, y) in vertex order.
    """
    k = require_valid(complex_)
    acyclic = _is_acyclic(k)
    if max_len is None and not acyclic:
        raise UnboundedEnumerationError(
            "one-simplicity on a cyclic complex needs a length bound"
        )
    exact = acyclic and max_len is None
    engine = _SwapEngine(k)
    for x in k.vertices:
        counts = [0] * len(k.vertices)
        for layer in engine.layers(x, max_len, max_classes):
            for v in layer.ends:
                counts[v] += 1
        for y, n in zip(k.vertices, counts):
            if n > 1:
                return OneSimpleResult(False, (x, y), exact)
    return OneSimpleResult(True, None, exact)


def format_hom_classes(homset, header=True):
    """Text report: ``classes <n>`` then ``class <k> size <m> rep <edge ids>``."""
    lines = []
    if header:
        lines.append(f"classes {homset.count}")
    for i, c in enumerate(homset.classes):
        rep = " ".join(c.representative)
        lines.append(f"class {i} size {c.size} rep {rep}".rstrip())
    return "\n".join(lines) + "\n"
