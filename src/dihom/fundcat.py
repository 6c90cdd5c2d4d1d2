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
presentation whose relations preserve length; its cost grows with the
number of classes, not of words, and a (class, generator) pair of a layer
costs only its own lookups.  Words are built only for the verbs that
print them: a sweep asked for words builds each class's representative, at
the cost of its length, while counts (``hom_class_count``,
``is_one_simple``) and one class's word (``hom_class_rep``) come from
sweeps that build none.  A ``Realization`` counts a presented category's
hom-sets off one sweep without words, and its ``class_of`` reads a word
back the way ``hom_class_rep`` does (``_read_back``); only its ``homs``
sweeps again with words.  Only this module reads a sweep's layers.
Composites are read off the right action by one walk, ``_composites``: the
monoid's concatenation table and a realization's composition table and
``class_of`` all go through it.

Unbounded computation is only allowed on acyclic complexes and is refused
(not silently truncated) otherwise; the class count is capped.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import compress
from operator import itemgetter

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
_FLAGS = bytes.maketrans(b"01", b"\0\1")  # binary digits to flag bytes


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
    bound), and the table lists its keys (i, j) in sorted order.
    """

    __slots__ = _fields = ("point", "bound", "counts", "reps", "table")


class OneSimpleResult(Record):
    """``witness``: an (x, y) with two or more classes, or None."""

    __slots__ = _fields = ("one_simple", "witness", "exact")

    def __bool__(self):
        return self.one_simple


class CatPresentation(Record):
    """Objects, generating arrows, and parallel word-pair relations."""

    # no __slots__: _engine and validate_presentation's verdict are kept in __dict__
    _fields = ("objects", "generators", "relations")

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
    """Violations of a presentation's well-formedness; the verdict is kept
    on the presentation, as its ``_engine`` is."""
    found = vars(pres).get("_violations")
    if found is None:
        found = vars(pres)["_violations"] = tuple(_presentation_violations(pres))
    return list(found)


def _presentation_violations(pres):
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
    order.  It shares the complex's class engine, compiled for a scene.
    """
    k = require_valid(complex_)
    pres = CatPresentation(k.vertices, dict(k.edges), _square_relations(k))
    vars(pres)["_engine"] = _engine_of(k)  # in place of a second, generic engine
    return pres


def _square_relations(k):
    """One relation (d2m d1p) = (d1m d2p) per square, in square id order."""
    return tuple(((d2m, d1p), (d1m, d2p)) for d1m, d1p, d2m, d2p in k.squares.values())


def _engine_of(k):
    """The class engine of a validated complex (vertices, edges, squares),
    built on the first call and kept on the complex; a compiled scene builds
    its own (:class:`dihom.gridscene._SceneComplex`)."""
    if k._engine is None:
        k._engine = _SwapEngine(k.vertices, k._edges, _square_relations(k))
    return k._engine


def is_acyclic(complex_):
    """True iff edge reachability has no nontrivial cycle (self-loops count)."""
    return _engine_of(require_valid(complex_)).acyclic


def _require_walkable(complex_, vertices, max_len):
    """Validate once, check the endpoints, refuse unbounded cyclic walks;
    returns the complex's class engine."""
    engine = _engine_of(require_valid(complex_))
    for v in vertices:
        if v not in engine.index:
            raise DomainError(f"unknown vertex {v}")
    if max_len is None and not engine.acyclic:
        raise UnboundedEnumerationError(
            "unbounded enumeration on cyclic complex; pass a length bound"
        )
    return engine


def _bound(engine, t, max_len):
    """``max_len``, or if None on a generic engine, the height of object ``t``:
    no dipath into t is longer (a scene window's top corner is the highest)."""
    heights = vars(engine).get("heights")  # read by a generic engine's acyclic check
    return heights[t] if max_len is None and heights else max_len


def enumerate_dipaths(complex_, source, target, max_len=None, max_paths=DEFAULT_MAX_PATHS):
    """All dipaths source -> target of length <= max_len, lexicographically.

    ``max_len=None`` means unbounded and requires an acyclic complex.  Like
    :func:`hom_classes` it walks ``complex_._between(source, target)``, and
    an unbounded walk stops at the target's height.
    """
    engine = _require_walkable(complex_._between(source, target), (source, target), max_len)
    t = engine.index[target]
    out = []
    for word, at in _walk(engine, engine.index[source], _bound(engine, t, max_len)):
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
    words and lexicographically least member ``reps[c]`` (``sizes`` and
    ``reps`` are None in a sweep without words); source i's classes are
    ``blocks[i]`` to ``blocks[i + 1]`` - 1 in rep order (None for one
    source), as relations never join pairs of two sources.  Once the next
    layer is built, pair (c, j-th out-generator of its end) is ``offsets[c]
    + j`` and ``step[pair]`` is the class of ``reps[c] + (generator,)``
    there: the right action.  Outside the engine ``_composites`` walks
    ``step`` forward and ``_read_back`` walks it back.
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
    ``targets`` hold, per object, a tuple of its sorted out-generators and
    one of their targets, ``pos[g]`` is g's place in its source's tuple, and
    ``relations[m][s]`` holds, for each length-m relation u = v out of
    object s, a tuple of the positions of u + v.  The arrays are tuples
    whichever way the engine is built (``_compiled`` takes them laid out):
    the cyclic collector stops tracking a tuple of strings or ints, where
    it would walk every list of a large engine again on each full pass.

    A class of length l+1 is a set of pairs (class p of length l, last
    generator g).  A relation u = v of length m out of s joins, for every
    class q of length l+1-m ending at s, the pairs (q.u[:-1], u[-1]) and
    (q.v[:-1], v[-1]), where q.w is read off the right action recorded at
    the layers between; substitutions inside the prefix leave the pair
    unchanged, and the congruence is a right congruence, so this is exact.
    The walk to those pairs is unpacked for the two common lengths: a square
    (m = 2) takes one hop through the base layer's right action, a gluing
    g = h of a pushout (m = 1) none; longer relations, which only subdivided
    presentations have, go through one generic hop loop.
    Pairs are numbered in (rank of p, sorted out-generator) order and each
    class keeps its lowest pair as root: roots are then the lexicographically
    least members, each source's block of a layer comes out sorted by
    representative, and class sizes are exact sums of prefix sizes.  A pair
    costs only its lookups: a running count numbers the classes, and a sweep
    with words walks the out-generators and reads a target only at a root
    (a count sweep walks the targets).  Only the last max(m) layers are kept
    while building.
    """

    def __init__(self, objects, generators, relations):
        index = self.index = {v: i for i, v in enumerate(objects)}
        out, targets, pos = [[] for _ in objects], [[] for _ in objects], {}
        for g, (s, t) in sorted(generators.items()):
            i = index[s]
            pos[g] = len(out[i])
            out[i].append(g)
            targets[i].append(index[t])
        by_length = {}
        for u, v in relations:
            starts = by_length.get(len(u))
            if starts is None:
                starts = by_length[len(u)] = [[] for _ in objects]
            starts[index[generators[u[0]][0]]].append(tuple(pos[g] for g in u + v))
        self.out, self.targets, self.pos = tuple(map(tuple, out)), tuple(map(tuple, targets)), pos
        self.relations = {m: tuple(map(tuple, starts)) for m, starts in by_length.items()}
        self.depth = max(self.relations, default=1)

    @classmethod
    def _compiled(cls, index, out, targets, pos, relations):
        """An engine from arrays laid out as ``__init__`` lays them out, of
        an acyclic generator graph; nothing is sorted, looked up or checked."""
        engine = object.__new__(cls)
        engine.index, engine.out, engine.targets, engine.pos = index, out, targets, pos
        engine.relations = relations
        engine.depth = max(relations, default=1)
        engine.acyclic = True  # in place of the cached traversal
        return engine

    @cached_property
    def heights(self):
        """Per object number, the length of the longest generator word into
        it; None if the generator graph has a cycle (self-loops count).
        ``_order`` lists each component after all it reaches, so in reverse
        an object comes after its predecessors."""
        targets = self.targets
        heights = [0] * len(targets)
        for component in reversed(_order(targets)):
            v = component[0]
            if len(component) > 1 or v in targets[v]:
                return None
            h = heights[v] + 1
            for w in targets[v]:
                if heights[w] < h:
                    heights[w] = h
        return heights

    @cached_property
    def acyclic(self):
        """Whether the generator graph has no cycle (self-loops count)."""
        return self.heights is not None

    def layers(self, sources, max_len, max_classes, words=True):
        """Yield the _Layer of each length 0, 1, ... up to ``max_len``, or
        until a layer is empty; only the last max(m) layers are kept here.
        ``words=False`` counts: its layers carry no ``sizes`` or ``reps``."""
        if max_len is not None and max_len < 0:
            raise DomainError(f"length bound {max_len} is negative")
        out, targets, depth = self.out, self.targets, self.depth
        relations = self.relations.items()
        k = len(sources)
        blocks = list(range(k + 1)) if k > 1 else None
        sizes, reps = ([1] * k, [()] * k) if words else (None, None)
        layer = _Layer([self.index[x] for x in sources], sizes, reps, blocks)
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
                if m == 2:  # a square swap: one hop, through the base's step
                    st = base.step
                    for o, s in zip(base.offsets, base.ends):
                        if starts[s]:
                            for u0, u1, v0, v1 in starts[s]:
                                union(offsets[st[o + u0]] + u1, offsets[st[o + v0]] + v1)
                elif m == 1:  # a gluing g = h: no hop
                    for o, s in zip(base.offsets, base.ends):
                        if starts[s]:
                            for u0, v0 in starts[s]:
                                union(o + u0, o + v0)
                else:
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
            # into the class of its root; ``made`` classes are numbered so far
            parent = uf.parent
            ends, step = [], [0] * n
            sizes, reps = ([], []) if words else (None, None)
            pair = made = 0
            if words:  # pair - first: the pair's place among v's out-generators
                for v, first, size, rep in zip(layer.ends, offsets, layer.sizes, layer.reps):
                    for g in out[v]:
                        up = parent[pair]
                        if up == pair:
                            step[pair] = made
                            made += 1
                            ends.append(targets[v][pair - first])
                            sizes.append(size)
                            reps.append(rep + (g,))
                        else:
                            cls = step[pair] = step[up]
                            sizes[cls] += size
                        pair += 1
            else:
                for v in layer.ends:
                    for t in targets[v]:
                        up = parent[pair]
                        if up == pair:
                            step[pair] = made
                            made += 1
                            ends.append(t)
                        else:
                            step[pair] = step[up]
                        pair += 1
            if blocks is None:
                built += made
            else:  # a block's lowest pair is a root: it starts the next block
                offsets.append(n)  # sentinels for empty blocks at the end
                step.append(made)
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


class Realization:
    """Hom-sets of a presented category as classes of generator words,
    counted off one sweep of a class ``engine`` from the ``sources``
    objects that builds no word.

    The engine numbers ``objects`` first; ``chains`` maps each generator to
    its pieces (:func:`dihom.catho._subdivided`), None for no subdivision.
    ``truncated`` is set when the bound cut words off.  ``hom_rows()``,
    ``hom_counts()`` and ``hom_count`` read a tally of the sweep's classes,
    one list per source, and ``class_of`` reads its one word back through
    the sweep's layers.  ``homs``, built on first read by a sweep with words
    of the same sources, bound and cap, maps (x, y) in sorted order to the
    sorted canonical words x -> y, and lists no empty hom-set.
    """

    def __init__(self, engine, objects, sources, bound, max_classes, chains=None):
        self.objects, self.bound = objects, bound
        self._engine, self._chains = engine, chains
        self._sweep = sources, bound, max_classes
        self._layers = list(engine.layers(sources, bound, max_classes, words=False))
        # the last layer is empty unless the bound cut the words off
        self.truncated = any(engine.out[v] for v in self._layers[-1].ends)
        self._starts = dict(zip(sources, range(len(sources))))  # source -> its layer-0 class
        # a representative's generators: its chains' first pieces
        self._whole = tuple if chains is None else lambda ps: tuple(g for g, k in ps if not k)

    @cached_property
    def homs(self):
        objects, whole = self.objects, self._whole
        n, names = len(objects), sorted(objects)
        rank = dict(zip(names, range(n)))
        ranks, bases = [rank[x] for x in objects], [rank[x] * n for x in self._starts]
        found = {}  # x * n + y by rank (such keys sort fast) -> the words x -> y
        for layer in self._engine.layers(*self._sweep):  # the same classes, with words
            cuts = layer.blocks or (0, len(layer.ends))
            for base, lo, hi in zip(bases, cuts, cuts[1:]):
                for y, rep in zip(layer.ends[lo:hi], layer.reps[lo:hi]):
                    if y < n:  # not inside a chain
                        found.setdefault(base + ranks[y], []).append(whole(rep))
        return {(names[k // n], names[k % n]): tuple(sorted(found[k])) for k in sorted(found)}

    @cached_property
    def _tallies(self):
        """Per source, its number of classes at each object number (the
        chain objects, numbered after ``objects``, included)."""
        width = len(self._engine.out)
        rows = [[0] * width for _ in self._starts]
        for layer in self._layers:
            cuts = layer.blocks or (0, len(layer.ends))
            for row, lo, hi in zip(rows, cuts, cuts[1:]):
                for y in layer.ends[lo:hi]:
                    row[y] += 1
        return rows

    def hom_rows(self):
        """Per source x in sorted order, ``(x, ys, counts)``: the objects y
        with classes x -> y and their numbers of classes, as two iterators
        in sorted order, read off the tally without building a word."""
        objects, starts, rows = self.objects, self._starts, self._tallies
        order = sorted(range(len(objects)), key=objects.__getitem__)
        names = [objects[i] for i in order]
        pick = itemgetter(*order) if len(order) > 1 else lambda row: row[:1]
        for x in sorted(starts):
            row = pick(rows[starts[x]])
            yield x, compress(names, row), filter(None, row)

    def hom_counts(self):
        """The number of classes in each nonempty hom-set, in ``homs``
        order: ``hom_rows`` keyed by (x, y)."""
        return {(x, y): n for x, ys, counts in self.hom_rows() for y, n in zip(ys, counts)}

    def hom_count(self, x, y):
        """The number of classes x -> y, read off the tally."""
        i, j = self._starts.get(x), self._engine.index.get(y)
        return 0 if i is None or j is None or j >= len(self.objects) else self._tallies[i][j]

    def class_of(self, start, word):
        """Canonical word of the class of ``word`` out of ``start``, read
        back through the layers; DomainError for a start that is not a
        source, a word that does not compose from it, or one longer than
        the realization covers."""
        i = self._starts.get(start)
        if i is None:
            raise DomainError(f"unknown object {start}")
        engine, layers, chains = self._engine, self._layers, self._chains
        out, targets, pos = engine.out, engine.targets, engine.pos
        pieces, at = [], engine.index[start]
        for g in word:
            if len(pieces) + 1 == len(layers):
                raise DomainError(f"word longer than the bound {self.bound}")
            for p in (g,) if chains is None else chains.get(g, (None,)):
                j = pos.get(p)
                if j is None or j >= len(out[at]) or out[at][j] != p:
                    raise DomainError(f"word not composable at generator {g}")
                at = targets[at][j]
                pieces.append(p)
        [c] = _composites(layers, pos, i, 0, [(pieces, 0)])
        return self._whole(_read_back(layers, out, c, len(pieces), i))

    def to_fincategory(self):
        """Explicit category with one arrow per class, named by its word;
        complete mode only.  One walk from each object's empty word along
        its representatives, in sorted order, finds their classes; the
        composites of each w1 are walked on from its class the same way."""
        from .catho import FinCategory  # catho imports this module
        if self.truncated:
            raise DomainError("truncated realization does not form a category")
        layers, starts, pos, chains = self._layers, self._starts, self._engine.pos, self._chains
        arrows, leaving = {}, {}  # x -> (pieces, arrow, target) per class out of x, homs order
        for (x, y), reps in self.homs.items():
            for w in reps:
                a = ";".join(w) if w else f"id({x})"
                if a in arrows:
                    raise DomainError(f"two classes would both be named {a}")
                arrows[a] = (x, y)
                pieces = w if chains is None else tuple(p for g in w for p in chains[g])
                leaving.setdefault(x, []).append((pieces, a, y))
        identity = {x: f"id({x})" for x in self.objects}
        # x -> (the walk along its pieces, sorted; per class in homs order:
        # its place in that walk, length, class, arrow and target)
        walks, names = {}, [[None] * len(layer.ends) for layer in layers]
        for x, out in leaving.items():
            order = sorted(range(len(out)), key=lambda k: out[k][0])
            suffixes = _shared_prefixes([out[k][0] for k in order])
            at = _composites(layers, pos, starts[x], 0, suffixes)
            place = sorted(range(len(out)), key=order.__getitem__)
            walks[x] = suffixes, [(r, len(p), at[r], a, y) for r, (p, a, y) in zip(place, out)]
            for _, d, c, a, _ in walks[x][1]:
                names[d][c] = a
        table = {}
        for _, entries in walks.values():
            for _, d1, c1, a1, y in entries:
                suffixes, after = walks[y]
                ends = _composites(layers, pos, c1, d1, suffixes)
                for r, d2, _, a2, _ in after:
                    table[(a1, a2)] = names[d1 + d2][ends[r]]
        return FinCategory(self.objects, arrows, identity, table)


def hom_classes(complex_, source, target, max_len=None, max_classes=DEFAULT_MAX_CLASSES):
    """Partition dipaths source -> target by the swap congruence.

    Classes come sorted by their canonical (lexicographically least)
    representative word.  The sweep runs on ``complex_._between(source,
    target)``, a scene's rectangle between the two, and stops at the
    target's height: at most ``max_classes`` classes of words out of
    ``source`` (ending anywhere) are built there before EnumerationLimitError.
    """
    reps, sizes = hom_class_reps(complex_, source, target, max_len, max_classes)
    return HomClassSet(source, target, max_len, tuple(map(HomClass, reps, sizes)))


def _hom_sweep(complex_, source, target, max_len, max_classes, words):
    """The engine, the target's number and the layers of the sweep that
    ``hom_classes`` runs."""
    engine = _require_walkable(complex_._between(source, target), (source, target), max_len)
    t = engine.index[target]
    return engine, t, engine.layers([source], _bound(engine, t, max_len), max_classes, words)


def hom_class_reps(complex_, source, target, max_len=None, max_classes=DEFAULT_MAX_CLASSES):
    """``(reps, sizes)``: the representatives and sizes of ``hom_classes``,
    as two lists, with no record built.  A layer lists its classes in
    representative order, so they are sorted only when more than one length
    reaches the target (never on a scene)."""
    _, t, layers = _hom_sweep(complex_, source, target, max_len, max_classes, True)
    reps, sizes, reached = [], [], 0
    for layer in layers:
        if t in layer.ends:
            reached += 1
            for v, size, rep in zip(layer.ends, layer.sizes, layer.reps):
                if v == t:
                    reps.append(rep)
                    sizes.append(size)
    if reached > 1:  # reps are distinct, so pairs sort by rep
        reps, sizes = map(list, zip(*sorted(zip(reps, sizes))))
    return reps, sizes


def hom_class_count(complex_, source, target, max_len=None, max_classes=DEFAULT_MAX_CLASSES):
    """``hom_classes(...).count``, from a sweep that builds no word."""
    _, t, layers = _hom_sweep(complex_, source, target, max_len, max_classes, False)
    return sum(layer.ends.count(t) for layer in layers)


def hom_class_rep(complex_, source, target, index, max_len=None,
                  max_classes=DEFAULT_MAX_CLASSES):
    """``hom_classes(...).classes[index].representative``, DomainError if
    there is no such class.  A sweep that builds no word finds the class,
    then ``_read_back`` reads its word back through the layers.  Only where
    more than one length reaches the target are the words built
    (``hom_class_reps``)."""
    engine, t, layers = _hom_sweep(complex_, source, target, max_len, max_classes, False)
    layers = list(layers)
    reached = [length for length, layer in enumerate(layers) if t in layer.ends]
    count = sum(layers[length].ends.count(t) for length in reached)
    if not 0 <= index < count:
        raise DomainError(f"class index {index} out of range ({count} classes)")
    if len(reached) > 1:
        return hom_class_reps(complex_, source, target, max_len, max_classes)[0][index]
    [length] = reached
    cls = [c for c, v in enumerate(layers[length].ends) if v == t][index]
    return _read_back(layers, engine.out, cls, length)


def _read_back(layers, out, cls, length, source=0):
    """The representative of class ``cls`` of ``layers[length]``, out of
    source number ``source``, read back through the layers before it
    (``out``: the engine's out-generators): a class's lowest pair is the
    first in ``step`` to reach it, from the first pair of its source's
    block on, and names its prefix class and last generator."""
    word = []
    for layer in reversed(layers[:length]):
        pair = layer.step.index(cls, layer.offsets[layer.blocks[source]] if layer.blocks else 0)
        cls = bisect_right(layer.offsets, pair) - 1
        word.append(out[layer.ends[cls]][pair - layer.offsets[cls]])
    return tuple(reversed(word))


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
    rows = zip(k.vertices, _closure(_engine_of(k).targets))
    return {x: frozenset(_picked(k.vertices, m)) for x, m in rows}


def _order(targets):
    """The strongly connected components of the graph ``targets`` (per
    number, the numbers it steps to), as lists of numbers, each component
    after every one it reaches: one iterative Tarjan pass, from a root above
    all numbers that steps to each of them, so there is no outer loop."""
    n = len(targets)
    low, stack, seen, found = [0] * (n + 1), [], 0, []  # low: 0 unseen, n + 1 popped
    calls = [(n, 0, 0, iter(range(n)))]
    while True:
        v, num, at, ws = calls[-1]
        for w in ws:
            if not low[w]:
                low[w] = seen = seen + 1
                calls.append((w, seen, len(stack), iter(targets[w])))
                stack.append(w)
                break
            if low[w] < low[v]:
                low[v] = low[w]
        else:
            calls.pop()
            if not calls:
                return found
            if low[v] == num:  # v roots a component: stack[at:]
                found.append(stack[at:])
                del stack[at:]
                for u in found[-1]:
                    low[u] = n + 1
            elif low[v] < low[calls[-1][0]]:
                low[calls[-1][0]] = low[v]


def _closure(targets):
    """Per number v, the bitmask of the numbers reachable from v (v included)
    along ``targets``.  A component comes after all it reaches, so its mask
    ORs its members' bits and their successors' masks, its own still 0
    (Nuutila's closure)."""
    reach = [0] * len(targets)
    for component in _order(targets):
        mask = sum(1 << u for u in component)
        for u in component:
            for w in targets[u]:
                mask |= reach[w]
        for u in component:
            reach[u] = mask
    return reach


def _picked(items, mask):
    """The items whose numbers are set in ``mask``, read through one flag byte per number."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_FLAGS))


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
    if max_len is None and not engine.acyclic:
        raise UnboundedEnumerationError(
            "one-simplicity on a cyclic complex needs a length bound"
        )
    exact = engine.acyclic and max_len is None
    for x in k.vertices:
        counts = [0] * len(k.vertices)
        for layer in engine.layers([x], max_len, max_classes, words=False):
            for v in layer.ends:
                counts[v] += 1
        if max(counts) > 1:
            y = next(y for y, n in zip(k.vertices, counts) if n > 1)
            return OneSimpleResult(False, (x, y), exact)
    return OneSimpleResult(True, None, exact)


def format_hom_classes(homset):
    """Text report: ``classes <n>`` then ``class <k> size <m> rep <edge ids>``."""
    classes = homset.classes
    return f"classes {len(classes)}\n" + "".join(
        format_hom_class(i, c.representative, c.size) for i, c in enumerate(classes))


def format_hom_class(index, rep, size):
    """One class line of ``format_hom_classes``, newline included; the empty
    word's line ends at ``rep`` (an id holds no whitespace to strip)."""
    if rep:
        return f"class {index} size {size} rep {' '.join(rep)}\n"
    return f"class {index} size {size} rep\n"


def format_preorder(complex_):
    """Text report: ``x y`` per pair x <= y, sorted, as vertex numbers follow id order."""
    k = require_valid(complex_)
    rows = zip(k.vertices, _closure(_engine_of(k).targets))
    return "".join(f"{x} " + f"\n{x} ".join(_picked(k.vertices, m)) + "\n" for x, m in rows)
