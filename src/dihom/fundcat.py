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
reduction).  The engine that does so, ``_SwapEngine``, takes any
presentation whose relations preserve length, so it also realizes glued
presentations (:func:`dihom.catho.realize_presentation`); its cost grows
with the number of classes (and their representatives' lengths), not with
the number of words.  Composites are read off the engine's right action by
one walk, ``_composites``: the monoid's concatenation table and a
realization's composition table and ``class_of`` all go through it.

Unbounded computation is only allowed on acyclic complexes and is refused
(not silently truncated) otherwise; the class count is capped.
"""

from __future__ import annotations

from functools import cached_property

from ._kernels import _UnionFind
from .errors import (
    DomainError,
    EnumerationLimitError,
    Record,
    UnboundedEnumerationError,
    _set,
)
from .precubical import require_valid

DEFAULT_MAX_PATHS = 1_000_000
DEFAULT_MAX_CLASSES = 1_000_000


class DiPath(Record):
    """A composable edge sequence; ``edges`` empty means the degenerate path."""

    __slots__ = _fields = ("complex", "start", "edges")
    _defaults = {"edges": ()}
    _hidden = ("complex",)

    def __post_init__(self):
        k = self.complex
        engine = _engine_of(require_valid(k))
        at = engine.index.get(self.start)
        if at is None:
            raise DomainError(f"unknown vertex {self.start}")
        for e in self.edges:
            j = engine.pos.get(e)
            if j is None:
                raise DomainError(f"unknown edge {e}")
            out = engine.out[at]
            if j >= len(out) or out[j] != e:
                raise DomainError(f"edge {e} does not start at {k.vertices[at]}")
            at = engine.targets[at][j]

    @property
    def end(self):
        return self.complex.tgt(self.edges[-1]) if self.edges else self.start

    def __len__(self):
        return len(self.edges)

    def concat(self, other):
        if other.start != self.end:
            raise DomainError("paths are not consecutive")
        return DiPath(self.complex, self.start, self.edges + other.edges)

    @classmethod
    def _trusted(cls, complex_, start, edges):
        """A dipath whose edges are known to compose from ``start``, built
        without the per-edge check of ``__post_init__``."""
        path = object.__new__(cls)
        _set(path, "complex", complex_)
        _set(path, "start", start)
        _set(path, "edges", edges)
        return path


class HomClass(Record):
    __slots__ = _fields = ("representative", "size")


class HomClassSet(Record):
    """The HomClasses of dipaths source -> target of length <= bound (None: any)."""

    __slots__ = _fields = ("source", "target", "bound", "classes")

    @property
    def count(self):
        return len(self.classes)


class MonoidClassTable(Record):
    """Loop classes at a point, graded by length, with their concatenation.

    ``counts[l]`` is the number of classes of length l; ``reps`` lists the
    canonical representatives in class order; ``table[(i, j)]`` is the class
    index of reps[i] + reps[j] (present when the sum of lengths fits the
    bound).
    """

    __slots__ = _fields = ("point", "bound", "counts", "reps", "table")


class OneSimpleResult(Record):
    """``witness``: an (x, y) with two or more classes, or None."""

    __slots__ = _fields = ("one_simple", "witness", "exact")

    def __bool__(self):
        return self.one_simple


class CatPresentation(Record):
    """Objects, generating arrows, and parallel word-pair relations."""

    _fields = ("objects", "generators", "relations")  # no __slots__: _engine is cached

    @cached_property
    def _engine(self):
        """The class engine of a valid presentation, built on first use."""
        return _SwapEngine(self.objects, self.generators, self.relations)

    def gen_src(self, g):
        return self.generators[g][0]

    def word_endpoints(self, word):
        """(src, tgt) of a nonempty generator word."""
        if not word:
            raise DomainError("empty word has no endpoints")
        cur = None
        for g in word:
            if g not in self.generators:
                raise DomainError(f"unknown generator {g}")
            s, t = self.generators[g]
            if cur is not None and s != cur:
                raise DomainError(f"word not composable at generator {g}")
            cur = t
        return (self.gen_src(word[0]), cur)


def validate_presentation(pres):
    out = []
    objs = set()
    for x in pres.objects:
        if x in objs:
            out.append(f"duplicate object id {x}")
        objs.add(x)
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
    k = require_valid(complex_)
    return CatPresentation(k.vertices, dict(k.edges), _square_relations(k))


def _square_relations(k):
    """One relation (d2m d1p) = (d1m d2p) per square, in square id order."""
    return tuple(((d2m, d1p), (d1m, d2p)) for d1m, d1p, d2m, d2p in k.squares.values())


def _engine_of(k):
    """The class engine of a validated complex (vertices, edges, squares),
    built on the first call and kept on the complex; a compiled scene hands
    over the engine's arrays instead (:func:`dihom.gridscene.to_precubical`)."""
    if k._engine is None:
        if k._make_engine is None:
            k._engine = _SwapEngine(k.vertices, k._edges, _square_relations(k))
        else:
            k._engine = _SwapEngine._compiled(*k._make_engine())
    return k._engine


def is_acyclic(complex_):
    """True iff edge reachability has no nontrivial cycle (self-loops count)."""
    return _engine_of(require_valid(complex_)).heights is not None


def _require_walkable(complex_, vertices, max_len):
    """Validate once, check the endpoints, refuse unbounded cyclic walks;
    returns the complex's class engine."""
    engine = _engine_of(require_valid(complex_))
    for v in vertices:
        if v not in engine.index:
            raise DomainError(f"unknown vertex {v}")
    if max_len is None and engine.heights is None:
        raise UnboundedEnumerationError(
            "unbounded enumeration on cyclic complex; pass a length bound"
        )
    return engine


def enumerate_dipaths(complex_, source, target, max_len=None, max_paths=DEFAULT_MAX_PATHS):
    """All dipaths source -> target of length <= max_len, lexicographically.

    ``max_len=None`` means unbounded and requires an acyclic complex.
    """
    engine = _require_walkable(complex_, (source, target), max_len)
    t = engine.index[target]
    out = []
    for word, at in _walk(engine, engine.index[source], max_len):
        if at == t:
            out.append(DiPath._trusted(complex_, source, tuple(word)))
            if len(out) > max_paths:
                raise EnumerationLimitError(
                    f"more than {max_paths} dipaths {source} -> {target}"
                )
    return out


def _walk(engine, source, max_len):
    """Yield (word, end) for every word out of object number ``source`` of
    length <= ``max_len`` (None: unbounded, acyclic only), in lexicographic
    order; ``word`` is one list that the walk changes in place, so copy it
    to keep it.  Iterative, so words of any length are fine."""
    if max_len is not None and max_len < 0:
        raise DomainError(f"length bound {max_len} is negative")
    out, targets = engine.out, engine.targets
    steps = {}  # object number -> its (generator, target) pairs, on first visit
    word, stack = [], []  # stack[i]: the untried extensions of word[:i]
    at = source
    while True:
        yield word, at
        if max_len is None or len(word) < max_len:
            nxt = steps.get(at)
            if nxt is None:
                nxt = steps[at] = list(zip(out[at], targets[at]))
            stack.append(iter(nxt))
        while stack:
            del word[len(stack) - 1:]
            nxt = next(stack[-1], None)
            if nxt is not None:
                g, at = nxt
                word.append(g)
                break
            stack.pop()
        else:
            return


class _Layer:
    """The classes of all words of one length out of the sources.

    Class ``c`` ends at object number ``ends[c]``, has ``sizes[c]`` member
    words and lexicographically least member ``reps[c]``; source i's
    classes are ``blocks[i]`` to ``blocks[i + 1]`` - 1 in rep order (None
    for one source), as relations never join pairs of two sources.  Once
    the next layer is built, pair (c, j-th out-generator of its end) is
    ``offsets[c] + j`` and ``step[pair]`` is the class of ``reps[c] +
    (generator,)`` there: the right action.  Outside the engine only
    ``_composites`` reads ``step``.
    """

    __slots__ = ("ends", "sizes", "reps", "blocks", "offsets", "step")

    def __init__(self, ends, sizes, reps, blocks):
        self.ends, self.sizes, self.reps, self.blocks = ends, sizes, reps, blocks


class _SwapEngine:
    """Layer-by-layer classes of the generator words out of a list of source
    objects, modulo length-preserving relations u = v of any length m >= 1.

    Built from presentation data: objects, generators (id -> (src, tgt))
    and relations; a complex enters with one relation (d2m d1p) = (d1m d2p)
    per square.  Objects are numbered in the given order; ``out`` and
    ``targets`` list each object's sorted out-generators and their targets,
    ``pos[g]`` is g's place in its source's list, and ``relations[m][s]``
    holds, for each length-m relation u = v out of object s, the positions
    of u + v.

    A class of length l+1 is a set of pairs (class p of length l, last
    generator g).  A relation u = v of length m out of s joins, for every
    class q of length l+1-m ending at s, the pairs (q.u[:-1], u[-1]) and
    (q.v[:-1], v[-1]), where q.w is read off the right action recorded at
    the layers between; substitutions inside the prefix leave the pair
    unchanged, and the congruence is a right congruence, so this is exact.
    Pairs are numbered in (rank of p, sorted out-generator) order and each
    class keeps its lowest pair as root: roots are then the lexicographically
    least members, each source's block of a layer comes out sorted by
    representative, and class sizes are exact sums of prefix sizes.  Only
    the last max(m) layers are kept while building.
    """

    def __init__(self, objects, generators, relations):
        index = self.index = {v: i for i, v in enumerate(objects)}
        out = self.out = [[] for _ in objects]
        targets = self.targets = [[] for _ in objects]
        pos = self.pos = {}
        for g, (s, t) in sorted(generators.items()):
            i = index[s]
            pos[g] = len(out[i])
            out[i].append(g)
            targets[i].append(index[t])
        self.relations = {}
        for u, v in relations:
            starts = self.relations.get(len(u))
            if starts is None:
                starts = self.relations[len(u)] = [[] for _ in objects]
            starts[index[generators[u[0]][0]]].append([pos[g] for g in u + v])
        self.depth = max(self.relations, default=1)

    @classmethod
    def _compiled(cls, index, out, targets, pos, relations, heights):
        """An engine from arrays laid out as ``__init__`` lays them out, and
        the ``heights`` of an acyclic generator graph; nothing is sorted,
        looked up or checked."""
        engine = object.__new__(cls)
        engine.index, engine.out, engine.targets, engine.pos = index, out, targets, pos
        engine.relations = relations
        engine.depth = max(relations, default=1)
        engine.heights = heights  # kept in place of the cached Kahn pass
        return engine

    @cached_property
    def heights(self):
        """Per object number, the length of the longest generator word into
        it; None if the generator graph has a cycle (self-loops count).  By
        Kahn's algorithm: an object is freed after all its predecessors, and
        never if it is on a cycle."""
        targets = self.targets
        into = [0] * len(targets)  # in-generators not yet removed
        for ts in targets:
            for w in ts:
                into[w] += 1
        heights = [0] * len(targets)
        free = [v for v, n in enumerate(into) if not n]
        for v in free:  # the list grows while it is read
            h = heights[v] + 1
            for w in targets[v]:
                if heights[w] < h:
                    heights[w] = h
                into[w] -= 1
                if not into[w]:
                    free.append(w)
        return heights if len(free) == len(targets) else None

    def layers(self, sources, max_len, max_classes):
        """Yield the _Layer of each length 0, 1, ... up to ``max_len``, or
        until a layer is empty; only the last max(m) layers are kept here."""
        if max_len is not None and max_len < 0:
            raise DomainError(f"length bound {max_len} is negative")
        out, targets, depth = self.out, self.targets, self.depth
        relations = self.relations.items()
        k = len(sources)
        blocks = list(range(k + 1)) if k > 1 else None
        layer = _Layer([self.index[x] for x in sources], [1] * k, [()] * k, blocks)
        live = [layer]  # the last ``depth`` layers, oldest first
        built, counts = 1, [1] * k  # classes built: the most from one source, and per source
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
            union = uf.union
            for m, starts in relations:
                if m > len(live):
                    continue
                # walk both sides from each class of the base layer, as pair
                # numbers: the class a pair p of one layer steps to starts
                # the pairs of the next at next.offsets[this.step[p]]
                base = live[-m]
                hops = [(w.step, nxt.offsets) for w, nxt in zip(live[-m:-1], live[1 - m:])]
                for o, s in zip(base.offsets, base.ends):
                    for uv in starts[s]:
                        a = o + uv[0]
                        b = o + uv[m]
                        i = 1
                        while i < m:
                            st, off = hops[i - 1]
                            a = off[st[a]] + uv[i]
                            b = off[st[b]] + uv[m + i]
                            i += 1
                        union(a, b)
            # a union-find parent is always a lower pair, already numbered
            # into the class of its root
            parent = uf.parent
            ends, sizes, reps = [], [], []
            step = [0] * n
            pair = 0
            for v, size, rep in zip(layer.ends, layer.sizes, layer.reps):
                for g, t in zip(out[v], targets[v]):
                    up = parent[pair]
                    if up == pair:
                        step[pair] = len(ends)
                        ends.append(t)
                        sizes.append(size)
                        reps.append(rep + (g,))
                    else:
                        cls = step[pair] = step[up]
                        sizes[cls] += size
                    pair += 1
            if blocks is None:
                built += len(ends)
            else:  # a block's lowest pair is a root: it starts the next block
                offsets.append(n)  # sentinels for empty blocks at the end
                step.append(len(ends))
                blocks = [step[offsets[c]] for c in blocks]
                counts = [b + hi - lo for b, lo, hi in zip(counts, blocks, blocks[1:])]
                built = max(counts)
            if built > max_classes:  # name the first source past the cap
                counts = counts if blocks else [built]
                x, built = next((x, b) for x, b in zip(sources, counts) if b > max_classes)
                raise EnumerationLimitError(f"{built} dipath classes built from {x}, "
                                            f"more than the cap of {max_classes}")
            layer.step = step
            layer = _Layer(ends, sizes, reps, blocks)
            live.append(layer)
            if len(live) > depth:
                del live[0]
            length += 1


def _composites(layers, pos, cls, depth, suffixes):
    """The class of w + s per (s, shared) of ``suffixes`` (see
    ``_shared_prefixes``), w being a word of class ``cls`` in
    ``layers[depth]`` and ``pos`` the generator positions: the one walk
    along the right action.  It steps once per generator that the suffix
    before does not share, so a common prefix of sorted suffixes is walked
    once."""
    layers = layers[depth:]
    path, found = [cls], []  # path[m]: the class of w + s[:m]
    for s, shared in suffixes:
        del path[shared + 1:]
        for m in range(shared, len(s)):
            layer = layers[m]
            path.append(layer.step[layer.offsets[path[m]] + pos[s[m]]])
        found.append(path[-1])
    return found


def _shared_prefixes(words):
    """The suffix list ``_composites`` takes: per word, the word and the
    length of the prefix it shares with the word before (0 for the first).
    Sorted words share the most."""
    pairs, prev = [], ()
    for w in words:
        m = 0
        while m < len(w) and m < len(prev) and w[m] == prev[m]:
            m += 1
        pairs.append((w, m))
        prev = w
    return pairs


def hom_classes(complex_, source, target, max_len=None, max_classes=DEFAULT_MAX_CLASSES):
    """Partition dipaths source -> target by the swap congruence.

    Classes come sorted by their canonical (lexicographically least)
    representative word.  At most ``max_classes`` classes of words out of
    ``source`` (ending anywhere) are built before EnumerationLimitError.
    """
    engine = _require_walkable(complex_, (source, target), max_len)
    t = engine.index[target]
    found = []
    for layer in engine.layers([source], max_len, max_classes):
        found += [
            HomClass(rep, size)
            for v, size, rep in zip(layer.ends, layer.sizes, layer.reps)
            if v == t
        ]
    found.sort(key=lambda c: c.representative)
    return HomClassSet(source, target, max_len, tuple(found))


def fundamental_monoid_classes(complex_, point, max_len, max_classes=DEFAULT_MAX_CLASSES):
    """Per-length loop class counts at ``point``, with a concatenation table.

    ``counts`` has one entry per length up to ``max_len``, so a bound of
    ``max_classes`` or more raises EnumerationLimitError before anything is
    built.  The table is capped by ``max_classes`` too: its entries are
    counted as each layer is built, and EnumerationLimitError is raised as
    soon as they exceed the cap.
    """
    if max_len is None:
        raise DomainError("monoid class counting needs a length bound >= 0")
    if max_len + 1 > max_classes:
        raise EnumerationLimitError(
            f"length bound {max_len} asks for {max_len + 1} class counts, "
            f"more than the cap of {max_classes}"
        )
    engine = _require_walkable(complex_, (point,), max_len)
    p = engine.index[point]
    # prefix[k]: loops shorter than k; entries: the table pairs (i, j) with
    # len(ri) + len(rj) <= max_len among the loops of the layers built so far
    layers, prefix, entries = [], [0], 0
    for length, layer in enumerate(engine.layers([point], max_len, max_classes)):
        layers.append(layer)
        here = layer.ends.count(p)
        prefix.append(prefix[-1] + here)
        # the new pairs: (this, no longer) and (shorter, this)
        room = max_len + 1 - length
        entries += here * (prefix[min(length + 1, room)] + prefix[min(length, room)])
        if entries > max_classes:
            built = sum(len(lay.ends) for lay in layers)
            raise EnumerationLimitError(
                f"{entries} concatenation table entries over the {built} dipath "
                f"classes built from {point} up to length {length}, more than "
                f"the cap of {max_classes}"
            )
    loops = sorted(
        (rep, length, c)
        for length, layer in enumerate(layers)
        for c, (v, rep) in enumerate(zip(layer.ends, layer.reps))
        if v == p
    )
    reps = tuple(rep for rep, _, _ in loops)
    rank = {(length, c): i for i, (_, length, c) in enumerate(loops)}
    counts = [b - a for a, b in zip(prefix, prefix[1:])]
    counts += [0] * (max_len + 1 - len(counts))
    # walks[b]: the numbers and lengths of the reps of length <= b, and the
    # walk along them; in sorted order two reps share the least prefix that
    # neighbours in between share
    shared, walks = _shared_prefixes(reps), []
    for bound in range(max_len + 1):
        js, listed, m = [], [], 0
        for j, (w, s) in enumerate(shared):
            if s < m:
                m = s
            if len(w) <= bound:
                js.append((j, len(w)))
                listed.append((w, m))
                m = len(w)
        walks.append((js, listed))
    table = {}
    for i, (_, li, ci) in enumerate(loops):
        js, suffixes = walks[max_len - li]
        for (j, lj), c in zip(js, _composites(layers, engine.pos, ci, li, suffixes)):
            table[(i, j)] = rank[(li + lj, c)]
    return MonoidClassTable(point, max_len, tuple(counts), reps, table)


def path_preorder(complex_):
    """x <= y iff some dipath runs x -> y; reflexive-transitive by construction."""
    k = require_valid(complex_)
    targets, verts = _engine_of(k).targets, k.vertices
    return {x: frozenset(verts[v] for v in _reach(targets, i)) for i, x in enumerate(verts)}


def _reach(targets, root):
    """The numbers reachable from ``root`` (itself included) when ``targets[v]``
    lists the numbers one step from v: an iterative depth-first search."""
    seen = {root}
    stack = [root]
    while stack:
        for w in targets[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def pi0(complex_):
    """Partition of vertices by the equivalence the path preorder generates
    (= weak connectivity of the edge graph)."""
    k = require_valid(complex_)
    targets, verts = _engine_of(k).targets, k.vertices
    uf = _UnionFind(len(verts))
    for v, ts in enumerate(targets):
        for w in ts:
            uf.union(v, w)
    groups = {}
    for v, name in enumerate(verts):
        groups.setdefault(uf.find(v), []).append(name)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


def is_one_simple(complex_, max_len=None, max_classes=DEFAULT_MAX_CLASSES):
    """Whether every hom-set has at most one class.

    Exact on acyclic complexes (unbounded enumeration); with a bound on a
    cyclic complex the verdict only covers dipaths up to that length and is
    flagged ``exact=False``.  One class sweep per source, each capped at
    ``max_classes``; the witness is the first (x, y) in vertex order.
    """
    k = require_valid(complex_)
    engine = _engine_of(k)
    acyclic = engine.heights is not None
    if max_len is None and not acyclic:
        raise UnboundedEnumerationError(
            "one-simplicity on a cyclic complex needs a length bound"
        )
    exact = acyclic and max_len is None
    for x in k.vertices:
        counts = [0] * len(k.vertices)
        for layer in engine.layers([x], max_len, max_classes):
            for v in layer.ends:
                counts[v] += 1
        for y, n in zip(k.vertices, counts):
            if n > 1:
                return OneSimpleResult(False, (x, y), exact)
    return OneSimpleResult(True, None, exact)


def format_hom_classes(homset):
    """Text report: ``classes <n>`` then ``class <k> size <m> rep <edge ids>``."""
    lines = [f"classes {homset.count}"]
    for i, c in enumerate(homset.classes):
        rep = " ".join(c.representative)
        lines.append(f"class {i} size {c.size} rep {rep}".rstrip())
    return "\n".join(lines) + "\n"
