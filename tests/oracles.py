"""Independent brute-force oracles the tests check the library against.

Everything here deliberately avoids the library's own algorithms: paths are
step words checked against raw scene geometry, class closures are fixpoint
iterations over explicit move relations, category searches are plain
itertools products with direct law checks.  The exceptions are marked as
such: searches and loops that faster library code replaced, kept as they
were so the replacement can be checked against them result for result.
"""

import math
from collections import deque
from fractions import Fraction
from functools import cached_property
from itertools import combinations, filterfalse, product, starmap

from dihom._kernels import _backtrack
from dihom.catho import (
    MAX_ARROWS,
    MAX_FUNCTORS,
    MAX_OBJECTS,
    MAX_WORDS,
    FinCategory,
    FunctorMap,
    NatTransf,
    _guard,
    _length_preserving,
    _subdivided,
    compose_functors,
    full_subcategory,
    identity_functor,
    monoid_category,
    poset_category,
    realize_presentation,
    require_category,
    retract_endofunctors,
)
from dihom.dmetric import DMetricSpace, format_dist
from dihom.errors import (
    DomainError,
    EnumerationLimitError,
    InputSyntaxError,
    UnboundedEnumerationError,
    directives,
)
from dihom.fundcat import (
    DEFAULT_MAX_CLASSES,
    DEFAULT_MAX_PATHS,
    DiPath,
    HomClass,
    HomClassSet,
    OneSimpleResult,
    _Layer,
    _bound,
    _composites,
    _require_walkable,
    _shared_prefixes,
    _SwapEngine,
    _engine_of,
    _UnionFind,
    _walk,
    validate_presentation,
)
from dihom.gridscene import _CELL_KINDS, east_edge_id, north_edge_id, square_id, vertex_id
from dihom.precubical import require_valid

INF = math.inf

# ---------------------------------------------------------------------------
# grid scenes: monotone step words and swap classes straight from geometry


def edge_east_ok(x, y, boxes):
    return all(not (y0 < y < y1 and x + 1 > x0 and x < x1) for (x0, y0, x1, y1) in boxes)


def edge_north_ok(x, y, boxes):
    return all(not (x0 < x < x1 and y + 1 > y0 and y < y1) for (x0, y0, x1, y1) in boxes)


def square_ok(x, y, boxes):
    return all(
        not (x + 1 > x0 and x < x1 and y + 1 > y0 and y < y1)
        for (x0, y0, x1, y1) in boxes
    )


def word_allowed(word, sx, sy, boxes):
    x, y = sx, sy
    for step in word:
        if step == "E":
            if not edge_east_ok(x, y, boxes):
                return False
            x += 1
        else:
            if not edge_north_ok(x, y, boxes):
                return False
            y += 1
    return True


def monotone_words(sx, sy, tx, ty, boxes):
    dx, dy = tx - sx, ty - sy
    if dx < 0 or dy < 0:
        return []
    words = []
    for east_positions in combinations(range(dx + dy), dx):
        word = ["N"] * (dx + dy)
        for i in east_positions:
            word[i] = "E"
        w = tuple(word)
        if word_allowed(w, sx, sy, boxes):
            words.append(w)
    return words


def scene_path_classes(sx, sy, tx, ty, boxes):
    """(class count, path count) by BFS closure under allowed EN<->NE flips."""
    words = monotone_words(sx, sy, tx, ty, boxes)
    index = set(words)
    seen = set()
    n_classes = 0
    for w0 in words:
        if w0 in seen:
            continue
        n_classes += 1
        queue = deque([w0])
        seen.add(w0)
        while queue:
            w = queue.popleft()
            x, y = sx, sy
            for i in range(len(w) - 1):
                if w[i] != w[i + 1] and square_ok(x, y, boxes):
                    w2 = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                    if w2 in index and w2 not in seen:
                        seen.add(w2)
                        queue.append(w2)
                x, y = (x + 1, y) if w[i] == "E" else (x, y + 1)
    return n_classes, len(words)


def closed_cell_meets_open_box(cell_rect, box):
    """Sampled disjointness test: scan the closed rectangle at half-integer
    steps (complete because all corners are integers)."""
    (a, b, c, d) = cell_rect
    (x0, y0, x1, y1) = box
    xs = [Fraction(j, 2) for j in range(2 * a, 2 * b + 1)]
    ys = [Fraction(j, 2) for j in range(2 * c, 2 * d + 1)]
    return any(x0 < x < x1 and y0 < y < y1 for x in xs for y in ys)


# ---------------------------------------------------------------------------
# dipath classes on an arbitrary complex: BFS enumeration + fixpoint closure


def bfs_dipaths(complex_, source, target, max_len):
    """All dipaths as edge words, found breadth-first (a different order
    than the library's DFS)."""
    out = []
    queue = deque([(source, ())])
    while queue:
        at, word = queue.popleft()
        if at == target:
            out.append(word)
        if max_len is not None and len(word) >= max_len:
            continue
        if max_len is None and len(word) >= len(complex_.edges) + 1:
            raise RuntimeError("oracle needs a bound on cyclic complexes")
        for e in sorted(complex_.edges, reverse=True):
            if complex_.src(e) == at:
                queue.append((complex_.tgt(e), word + (e,)))
    return out


def enumerate_dipaths_oracle(complex_, source, target, max_len=None,
                             max_paths=DEFAULT_MAX_PATHS):
    """``fundcat.enumerate_dipaths`` with every word that ends at the target
    built as a checked ``DiPath``, and the out-edges of each word read
    afresh from the engine."""
    engine = _require_walkable(complex_, (source, target), max_len)
    out, targets = engine.out, engine.targets
    t = engine.index[target]
    found = []
    word, stack = [], []  # stack[i]: the untried extensions of word[:i]
    at = engine.index[source]
    while True:
        if at == t:
            found.append(DiPath(complex_, source, tuple(word)))
            if len(found) > max_paths:
                raise EnumerationLimitError(f"more than {max_paths} dipaths {source} -> {target}")
        if max_len is None or len(word) < max_len:
            stack.append(zip(out[at], targets[at]))
        while stack:
            del word[len(stack) - 1:]
            nxt = next(stack[-1], None)
            if nxt is not None:
                g, at = nxt
                word.append(g)
                break
            stack.pop()
        else:
            return found


def hom_classes_sweep_oracle(complex_, source, target, max_len=None,
                             max_classes=DEFAULT_MAX_CLASSES):
    """``fundcat.hom_classes`` as it was before it swept only the part of
    the complex between its endpoints up to the target's height: one sweep
    of the whole complex's engine out of the source until the layers run
    out, the cap counting every class built on the way."""
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


def hom_classes_record_oracle(complex_, source, target, max_len=None,
                              max_classes=DEFAULT_MAX_CLASSES):
    """``fundcat.hom_classes`` before it wrapped the word collector: one
    ``HomClass`` per class as the sweep meets it, then a sort of them all by
    representative, whatever the lengths that reach the target."""
    engine = _require_walkable(complex_._between(source, target), (source, target), max_len)
    t = engine.index[target]
    found = []
    for layer in engine.layers([source], _bound(engine, t, max_len), max_classes):
        if t in layer.ends:
            found += [
                HomClass(rep, size)
                for v, size, rep in zip(layer.ends, layer.sizes, layer.reps)
                if v == t
            ]
    found.sort(key=lambda c: c.representative)
    return HomClassSet(source, target, max_len, tuple(found))


def format_hom_classes_oracle(homset):
    """``fundcat.format_hom_classes`` before its lines came from the one
    class-line formatter: every line in a list, joined once."""
    lines = [f"classes {homset.count}"]
    for i, c in enumerate(homset.classes):
        rep = " ".join(c.representative)
        lines.append(f"class {i} size {c.size} rep {rep}".rstrip())
    return "\n".join(lines) + "\n"


def monoid_table_oracle(complex_, point, max_len):
    """(reps, table) of ``fundamental_monoid_classes``, its table built from
    scratch: each ri + rj walked from the point's empty word, generator by
    generator through the right action, without sharing any prefix.  The
    loop classes are the engine's (``swap_partition`` checks those)."""
    engine = _require_walkable(complex_, (point,), max_len)
    p = engine.index[point]
    layers = list(engine.layers([point], max_len, math.inf))
    loops = sorted((rep, length, c) for length, layer in enumerate(layers)
                   for c, (v, rep) in enumerate(zip(layer.ends, layer.reps)) if v == p)
    rank = {(length, c): i for i, (_, length, c) in enumerate(loops)}
    reps = tuple(rep for rep, _, _ in loops)
    fits = [[(j, rj) for j, rj in enumerate(reps) if len(rj) <= b] for b in range(max_len + 1)]
    table = {}
    for i, ri in enumerate(reps):
        for j, rj in fits[max_len - len(ri)]:
            cls = 0
            for depth, g in enumerate(ri + rj):
                layer = layers[depth]
                cls = layer.step[layer.offsets[cls] + engine.pos[g]]
            table[(i, j)] = rank[(len(ri) + len(rj), cls)]
    return reps, table


def swap_partition(complex_, words):
    """Partition by one-square swaps: neighbor graph + min-label fixpoint."""
    moves = []
    for _w, (d1m, d1p, d2m, d2p) in complex_.squares.items():
        moves.append(((d2m, d1p), (d1m, d2p)))
        moves.append(((d1m, d2p), (d2m, d1p)))
    wordset = set(words)
    neighbors = {w: set() for w in words}
    for w in words:
        for (a0, a1), (b0, b1) in moves:
            for i in range(len(w) - 1):
                if w[i] == a0 and w[i + 1] == a1:
                    w2 = w[:i] + (b0, b1) + w[i + 2:]
                    if w2 in wordset:
                        neighbors[w].add(w2)
                        neighbors[w2].add(w)
    labels = {w: i for i, w in enumerate(words)}
    changed = True
    while changed:
        changed = False
        for w in words:
            low = min([labels[w]] + [labels[v] for v in neighbors[w]])
            if low < labels[w]:
                labels[w] = low
                changed = True
    groups = {}
    for w, root in labels.items():
        groups.setdefault(root, set()).add(w)
    return sorted(groups.values(), key=lambda g: sorted(g)[0])


def is_length_addition(table):
    """True when every recorded concatenation of a ``MonoidClassTable`` lands
    in a class whose length is the sum of the operand lengths."""
    for (i, j), k in table.table.items():
        if len(table.reps[k]) != len(table.reps[i]) + len(table.reps[j]):
            return False
    return True


def has_no_cycle_oracle(objects, generators):
    """Whether the graph of ``generators`` (id -> (src, tgt)) has no cycle,
    self-loops included: the three-colour depth-first search that the class
    engine's cycle check used before Kahn's algorithm (now
    ``heights_kahn_oracle``) replaced it."""
    index = {v: i for i, v in enumerate(objects)}
    targets = [[] for _ in objects]
    for g, (s, t) in sorted(generators.items()):
        targets[index[s]].append(index[t])
    color = [0] * len(targets)  # 1 = on stack, 2 = done
    for root in range(len(targets)):
        if color[root]:
            continue
        stack = [(root, iter(targets[root]))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            for w in it:
                c = color[w]
                if c == 1:
                    return False
                if not c:
                    color[w] = 1
                    stack.append((w, iter(targets[w])))
                    break
            else:
                color[v] = 2
                stack.pop()
    return True


def heights_kahn_oracle(targets):
    """Per number, the length of the longest walk along ``targets`` into it;
    None on a cycle (self-loops count).  Kahn's algorithm, the class engine's
    ``heights`` before one Tarjan pass replaced it: an object is freed after
    all its predecessors, and never if it is on a cycle."""
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


def swap_layers_oracle(engine, sources, max_len, max_classes):
    """``_SwapEngine.layers`` before it walked length-1 and length-2
    relations unpacked: every relation goes through one generic hop loop.
    Collect the layers before reading them: a layer's ``offsets`` and
    ``step`` are set once the next one is asked for."""
    if max_len is not None and max_len < 0:
        raise DomainError(f"length bound {max_len} is negative")
    out, targets, depth = engine.out, engine.targets, engine.depth
    relations = engine.relations.items()
    k = len(sources)
    blocks = list(range(k + 1)) if k > 1 else None
    layer = _Layer([engine.index[x] for x in sources], [1] * k, [()] * k, blocks)
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
        else:
            offsets.append(n)
            step.append(len(ends))
            blocks = [step[offsets[c]] for c in blocks]
            counts = [b + hi - lo for b, lo, hi in zip(counts, blocks, blocks[1:])]
            built = max(counts)
        if built > max_classes:
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


def is_one_simple_scan_oracle(complex_, max_len=None, max_classes=DEFAULT_MAX_CLASSES):
    """``fundcat.is_one_simple`` before it looked for a witness only past a
    count above 1: each source's counts are scanned in vertex order."""
    k = require_valid(complex_)
    engine = _engine_of(k)
    if max_len is None and not engine.acyclic:
        raise UnboundedEnumerationError("one-simplicity on a cyclic complex needs a length bound")
    exact = engine.acyclic and max_len is None
    for x in k.vertices:
        counts = [0] * len(k.vertices)
        for layer in engine.layers([x], max_len, max_classes):
            for v in layer.ends:
                counts[v] += 1
        for y, n in zip(k.vertices, counts):
            if n > 1:
                return OneSimpleResult(False, (x, y), exact)
    return OneSimpleResult(True, None, exact)


def blocked_cells_oracle(scene):
    """Flags of the vertices, east edges, north edges and squares whose closed
    carrier meets an open box, one bytearray per kind indexed by
    ``x * (height + 1) + y`` (the cell at (x, y) has its lower-left corner
    there).  The places where the grid has no such cell (east edges and
    squares at x = width, north edges and squares at y = height) are
    flagged too.  Each box marks its own index ranges, one column slice at
    a time.  The library's flags before its one build step, kept as they were."""
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


class SceneLatticeOracle:
    """A compiled scene's lattice data as the library read it before its one
    build step, kept as it was: seven chained cached properties (flags,
    lattice points, three id lists, the id order by a sort over every vertex
    id, the kept points), the cells, labels and engine arrays read off them.
    ``k`` is a compiled scene or a window of one; only its scene and origin
    are read."""

    def __init__(self, k):
        self._scene, self._origin, self._stride = k._scene, k._origin, k._stride

    _blocked = cached_property(lambda k: blocked_cells_oracle(k._scene))

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
        labels = {}
        for (dim, name, template), flags in zip(_CELL_KINDS, self._blocked):
            for (x, y), flag in zip(self._lattice, flags):
                if not flag:
                    labels[(dim, name(x, y))] = template.format(x=x, y=y, x1=x + 1, y1=y + 1)
        return labels

    @cached_property
    def _engine(self):
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
            starts.append([] if blocked_squares[i] else [[0, 1 - blocked_east[i + stride], 1, 0]])
        relations = {2: starts} if 0 in blocked_squares else {}
        return _SwapEngine._compiled(index, out, targets, pos, relations)


def scene_heights_oracle(k):
    """The heights of a compiled scene's vertices in id order, by the push
    DP over its lattice that compiled scenes used to hand their engine."""
    lattice = SceneLatticeOracle(k)
    stride, (_, blocked_east, blocked_north, _), kept = k._stride, lattice._blocked, lattice._kept
    # x-major index order visits the west and south ends of a point's
    # in-edges before the point; the flags block every edge off the grid
    height = [0] * len(blocked_east)
    for i, h in enumerate(height):
        h += 1
        if not blocked_east[i] and height[i + stride] < h:
            height[i + stride] = h
        if not blocked_north[i] and height[i + 1] < h:
            height[i + 1] = h
    return [height[i] for i in kept]


# ---------------------------------------------------------------------------
# categories: direct law checks with itertools, no backtracking


def all_component_families(cat_d, f, g):
    objs = list(f.domain.objects)
    pools = [cat_d.hom(f.obj(x), g.obj(x)) for x in objs]
    for combo in product(*pools):
        yield dict(zip(objs, combo))


def is_natural(cat_d, f, g, comps):
    for a, (s, t) in f.domain.arrows.items():
        if cat_d.table[(f.arr(a), comps[t])] != cat_d.table[(comps[s], g.arr(a))]:
            return False
    return True


def strong_contraction_objects(cat):
    """Objects v admitting a natural transformation const_v -> id that is
    the identity at v (the independent reading of strong past
    contractibility)."""
    out = []
    for v in cat.objects:
        pools = []
        objs = list(cat.objects)
        for x in objs:
            pools.append(
                [cat.identity[v]] if x == v else cat.hom(v, x)
            )
        found = False
        for combo in product(*pools):
            comps = dict(zip(objs, combo))
            ok = True
            for a, (s, t) in cat.arrows.items():
                # naturality of phi: const_v -> id on arrow a: phi_t = phi_s ; a
                if cat.table[(comps[s], a)] != comps[t]:
                    ok = False
                    break
            if ok:
                found = True
                break
        if found:
            out.append(v)
    return out


def functor_maps(c, d):
    """All functors c -> d by full product enumeration and a final check."""
    objs = list(c.objects)
    arrs = list(c.arrows)
    out = []
    for obj_images in product(d.objects, repeat=len(objs)):
        omap = dict(zip(objs, obj_images))
        pools = []
        feasible = True
        for a in arrs:
            s, t = c.arrows[a]
            pool = d.hom(omap[s], omap[t])
            if not pool:
                feasible = False
                break
            pools.append(pool)
        if not feasible:
            continue
        for arr_images in product(*pools):
            amap = dict(zip(arrs, arr_images))
            if _functor_laws(c, d, omap, amap):
                out.append((omap, amap))
    return out


def _functor_laws(c, d, omap, amap):
    for x in c.objects:
        if amap[c.identity[x]] != d.identity[omap[x]]:
            return False
    for (f, g), h in c.table.items():
        if d.table[(amap[f], amap[g])] != amap[h]:
            return False
    return True


def retract_step_possible(cat, sub_objs):
    """Immediate deformation retract check by full product search."""
    sub = set(sub_objs)
    objs = list(cat.objects)
    arrs = list(cat.arrows)
    for obj_images in product(sorted(sub), repeat=len(objs)):
        omap = dict(zip(objs, obj_images))
        if any(omap[x] != x for x in sub):
            continue
        pools = []
        feasible = True
        for a in arrs:
            s, t = cat.arrows[a]
            if s in sub and t in sub:
                pools.append((a,))
                continue
            pool = cat.hom(omap[s], omap[t])
            if not pool:
                feasible = False
                break
            pools.append(pool)
        if not feasible:
            continue
        for arr_images in product(*pools):
            amap = dict(zip(arrs, arr_images))
            if not _functor_laws(cat, cat, omap, amap):
                continue
            # one-step homotopy in either direction between identity and q
            for direction in ("future", "past"):
                comp_pools = [
                    cat.hom(x, omap[x]) if direction == "future" else cat.hom(omap[x], x)
                    for x in objs
                ]
                for combo in product(*comp_pools):
                    comps = dict(zip(objs, combo))
                    ok = True
                    for a, (s, t) in cat.arrows.items():
                        if direction == "future":
                            left = cat.table[(a, comps[t])]
                            right = cat.table[(comps[s], amap[a])]
                        else:
                            left = cat.table[(amap[a], comps[t])]
                            right = cat.table[(comps[s], a)]
                        if left != right:
                            ok = False
                            break
                    if ok:
                        return True
    return False


# ---------------------------------------------------------------------------
# categories: the unpruned searches the pruned ones replaced, kept as the
# reference they are checked against (same results, same order)


def functor_search_oracle(c, d, obj_preset, arr_preset, images):
    """Every functor c -> d extending the presets: each object map in
    ``iter_product(images)`` order is built in full before any arrow is
    tried, then the arrows are extended depth-first in sorted order."""
    arrows = sorted(c.non_identity_arrows())
    entries = {}
    for (u, v), w in c.table.items():
        for a in {u, v, w}:
            entries.setdefault(a, []).append((u, v, w))
    free = [x for x in c.objects if x not in obj_preset]
    for chosen in product(images, repeat=len(free)):
        omap = dict(obj_preset)
        omap.update(zip(free, chosen))
        amap = {c.identity[x]: d.identity[omap[x]] for x in c.objects}
        amap.update(arr_preset)

        def consistent(a):
            for u, v, w in entries.get(a, ()):
                if u in amap and v in amap and w in amap:
                    if d.table.get((amap[u], amap[v])) != amap[w]:
                        return False
            return True

        def extend(i):
            if i == len(arrows):
                yield FunctorMap(c, d, omap, amap)
                return
            a = arrows[i]
            preset = arr_preset.get(a)
            s, t = c.arrows[a]
            for h in d.hom(omap[s], omap[t]) if preset is None else (preset,):
                amap[a] = h
                if consistent(a):
                    yield from extend(i + 1)
            if preset is None:
                amap.pop(a, None)

        yield from extend(0)


def nat_search_oracle(f, g, fixed=None, find_all=True):
    """Natural transformations f -> g by recursive backtracking over the
    objects in order, re-scanning every arrow of the domain per candidate."""
    if f.domain is not g.domain or f.codomain is not g.codomain:
        if (f.domain.objects, f.domain.arrows) != (g.domain.objects, g.domain.arrows) or (
            f.codomain.objects,
            f.codomain.arrows,
        ) != (g.codomain.objects, g.codomain.arrows):
            raise DomainError("functors are not parallel")
    c, d = f.domain, f.codomain
    objs = list(c.objects)
    fixed = fixed or {}
    found = []
    comp = {}

    def consistent(x):
        for a, (s, t) in c.arrows.items():
            if s in comp and t in comp and (s == x or t == x):
                if d.compose(f.arr(a), comp[t]) != d.compose(comp[s], g.arr(a)):
                    return False
        return True

    def rec(i):
        if i == len(objs):
            found.append(NatTransf(f, g, comp))
            return not find_all
        x = objs[i]
        cands = (fixed[x],) if x in fixed else d.hom(f.obj(x), g.obj(x))
        for a in cands:
            comp[x] = a
            if consistent(x) and rec(i + 1):
                return True
            del comp[x]
        return False

    rec(0)
    return found


class ComponentsOracle:
    """Zig-zag components of a functor list: every pair (i, j), i < j, not
    yet joined is tested for a transformation either way."""

    def __init__(self, functors):
        self.index = {f: i for i, f in enumerate(functors)}
        n = len(functors)
        self.uf = _UnionFind(n)
        for i in range(n):
            for j in range(i + 1, n):
                if self.uf.find(i) == self.uf.find(j):
                    continue
                fi, fj = functors[i], functors[j]
                if nat_search_oracle(fi, fj, find_all=False) or nat_search_oracle(
                    fj, fi, find_all=False
                ):
                    self.uf.union(i, j)

    def connected(self, f, g):
        return self.uf.find(self.index[f]) == self.uf.find(self.index[g])


def equivalence_witness_oracle(c, d):
    """The first (f, g) in (functors c -> d) x (functors d -> c) order whose
    composites are connected to the identities, or None; builds every
    composite as a FunctorMap."""
    fs = list(functor_search_oracle(c, d, {}, {}, d.objects))
    gs = list(functor_search_oracle(d, c, {}, {}, c.objects))
    comp_c = ComponentsOracle(list(functor_search_oracle(c, c, {}, {}, c.objects)))
    comp_d = ComponentsOracle(list(functor_search_oracle(d, d, {}, {}, d.objects)))
    id_c, id_d = identity_functor(c), identity_functor(d)
    for f in fs:
        for g in gs:
            if comp_c.connected(compose_functors(f, g), id_c) and comp_d.connected(
                compose_functors(g, f), id_d
            ):
                return (f, g)
    return None


def contractible_steps_oracle(cat, full_subcategory, n):
    """Exhaustive retract-chain search over full-subcategory object chains."""
    def rec(objs, budget):
        if len(objs) == 1:
            (v,) = tuple(objs)
            return len(cat.hom(v, v)) == 1
        if budget == 0:
            return False
        restricted = full_subcategory(cat, objs)
        items = sorted(objs)
        for mask in range(1, (1 << len(items)) - 1):
            keep = frozenset(items[i] for i in range(len(items)) if mask & (1 << i))
            if retract_step_possible(restricted, keep) and rec(keep, budget - 1):
                return True
        return False

    return rec(frozenset(cat.objects), n)


def _is_trivial_point(cat, obj):
    return len(cat.hom(obj, obj)) == 1


def contractible_in_steps_oracle(cat, n, max_objects=MAX_OBJECTS, max_arrows=MAX_ARROWS):
    """Whether a chain of <= n immediate deformation-retract steps shrinks
    the category, through full subcategories, down to a single object with
    only its identity endoarrow.

    ``catho.contractible_in_steps`` as it was before the breadth-first pass:
    a recursive minimum step count whose memo keeps only successes."""
    _guard(cat, max_objects, max_arrows)
    require_category(cat)
    if n < 0:
        raise DomainError("step count must be >= 0")
    memo = {}

    def min_steps(objs, budget):
        if len(objs) == 1:
            (v,) = objs
            return 0 if _is_trivial_point(cat, v) else None
        if budget <= 0:
            return None
        if objs in memo and memo[objs] is not None:
            return memo[objs]
        sub_cat = full_subcategory(cat, objs)
        best = None
        for keep in _proper_subsets(sorted(objs)):
            found = False
            for _q, _dir in retract_endofunctors(sub_cat, keep):
                found = True
                break
            if not found:
                continue
            rest = min_steps(frozenset(keep), budget - 1)
            if rest is not None:
                cand = rest + 1
                if best is None or cand < best:
                    best = cand
        memo[objs] = best
        return best

    steps = min_steps(frozenset(cat.objects), n)
    return steps is not None and steps <= n


def _proper_subsets(items):
    n = len(items)
    for mask in range(1, (1 << n) - 1):
        yield tuple(items[i] for i in range(n) if mask & (1 << i))


def poset_category_oracle(elements, le_pairs):
    """The poset category as it was built before the reachability walk:
    the relation is closed by re-scanning all pairs of pairs until it stops
    growing.  Which error a bad input raises follows set order here."""
    els = sorted(set(elements))
    rel = {(x, x) for x in els}
    rel.update((str(a), str(b)) for a, b in le_pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    for (a, b) in rel:
        if a != b and (b, a) in rel:
            raise DomainError(f"not a poset: {a} and {b} are equivalent")
        if a not in els or b not in els:
            raise DomainError(f"relation mentions unknown element {a if a not in els else b}")
    arrows = {f"a({a},{b})": (a, b) for (a, b) in rel if a != b}
    compose = {}
    for (a, b) in rel:
        for (c, d) in rel:
            if b == c and a != b and c != d:
                compose[(f"a({a},{b})", f"a({c},{d})")] = f"a({a},{d})"
    return FinCategory.build(els, arrows, compose)


def reach_oracle(targets, root):
    """The numbers reachable from ``root`` (itself included) when ``targets[v]``
    lists the numbers one step from v: the depth-first search that served
    the path preorder and poset categories before the bitset closure, one
    search per root, kept as it was."""
    seen = {root}
    stack = [root]
    while stack:
        for w in targets[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def path_preorder_walk_oracle(complex_):
    """``path_preorder`` as it was built from one search per vertex."""
    k = require_valid(complex_)
    targets, verts = _engine_of(k).targets, k.vertices
    return {x: frozenset(verts[v] for v in reach_oracle(targets, i)) for i, x in enumerate(verts)}


def format_preorder_oracle(reach):
    """The ``preorder`` verb's text as it was written from that dict."""
    return "".join(f"{x} {y}\n" for x in sorted(reach) for y in sorted(reach[x]))


def poset_category_walk_oracle(elements, le_pairs):
    """``poset_category`` as it was built from one search per element, its
    twin check included; the composition table follows set order here."""
    els = sorted(set(map(str, elements)))
    index = {x: i for i, x in enumerate(els)}
    above = [[] for _ in els]
    for a, b in le_pairs:
        a, b = str(a), str(b)
        if a not in index or b not in index:
            raise DomainError(f"relation mentions unknown element {a if a not in index else b}")
        above[index[a]].append(index[b])
    up = [reach_oracle(above, i) for i in range(len(els))]
    for i, js in enumerate(up):
        twins = [j for j in js if j > i and i in up[j]]
        if twins:
            raise DomainError(f"not a poset: {els[i]} and {els[min(twins)]} are equivalent")
    name = {(i, j): f"a({els[i]},{els[j]})" for i, js in enumerate(up) for j in js if i != j}
    arrows = {a: (els[i], els[j]) for (i, j), a in name.items()}
    compose = {(name[i, j], name[j, k]): name[i, k] for i, j in name for k in up[j] if k != j}
    return FinCategory.build(els, arrows, compose)


def validate_category_oracle(cat):
    """The exhaustive law check as it was before thin categories skipped the
    identity and associativity loops; returns the same violation list."""
    out = []
    objset = set(cat.objects)
    for a, (s, t) in cat.arrows.items():
        if s not in objset or t not in objset:
            out.append(f"arrow {a}: endpoint not an object")
    for x in cat.objects:
        i = cat.identity.get(x)
        if i is None or i not in cat.arrows:
            out.append(f"object {x}: missing identity arrow")
        elif cat.arrows[i] != (x, x):
            out.append(f"identity of {x} has endpoints {cat.arrows[i]}")
    for (f, g), h in cat.table.items():
        if f not in cat.arrows or g not in cat.arrows or h not in cat.arrows:
            out.append(f"composition ({f};{g})={h}: unknown arrow")
            continue
        if cat.tgt(f) != cat.src(g):
            out.append(f"composition ({f};{g}) declared on a non-composable pair")
        elif (cat.src(f), cat.tgt(g)) != (cat.src(h), cat.tgt(h)):
            out.append(f"composite {f};{g}={h} has wrong endpoints")
    for f, (_, tf) in cat.arrows.items():
        for g, (sg, _) in cat.arrows.items():
            if tf == sg and (f, g) not in cat.table:
                out.append(f"composition undefined for composable pair ({f};{g})")
    if out:
        return out
    for x in cat.objects:
        i = cat.identity[x]
        for f in cat.arrows:
            if cat.src(f) == x and cat.table[(i, f)] != f:
                out.append(f"left identity law fails at {f}")
            if cat.tgt(f) == x and cat.table[(f, i)] != f:
                out.append(f"right identity law fails at {f}")
    for (f, g), fg in cat.table.items():
        tg = cat.tgt(g)
        for h, (sh, _) in cat.arrows.items():
            if sh != tg:
                continue
            if cat.table[(fg, h)] != cat.table[(f, cat.table[(g, h)])]:
                out.append(f"associativity fails on ({f};{g};{h})")
    return out


def to_fincategory_oracle(real):
    """``Realization.to_fincategory`` as it was before it grouped the hom
    entries by source: every representative scans every hom entry.
    Returns (objects, arrows, identity, table) in the order built."""

    def name(start, word):
        return f"id({start})" if not word else ";".join(word)

    arrows, identity = {}, {}
    for (x, y), reps in real.homs.items():
        for w in reps:
            arrows[name(x, w)] = (x, y)
    for x in real.objects:
        identity[x] = name(x, ())
    table = {}
    for (x, y), reps in real.homs.items():
        for w1 in reps:
            for (y2, _z), reps2 in real.homs.items():
                if y2 != y:
                    continue
                for w2 in reps2:
                    w = real.class_of(x, w1 + w2)
                    table[(name(x, w1), name(y, w2))] = name(x, w)
    return arrows, identity, table


def _rewrites(relations, word):
    """Every word one relation substitution (either direction) away."""
    for u, v in relations:
        for a, b in ((u, v), (v, u)):
            la = len(a)
            for i in range(len(word) - la + 1):
                if word[i : i + la] == a:
                    yield word[:i] + b + word[i + la :]


def word_swap_class_oracle(pres, word, max_words=MAX_WORDS):
    """BFS closure of a word under relation substitutions: how
    ``check_presentation_morphism`` decided length-preserving targets
    before the class engine did.  Finite only when all relations preserve
    length."""
    seen = {tuple(word)}
    queue = deque(seen)
    while queue:
        for w2 in _rewrites(pres.relations, queue.popleft()):
            if w2 not in seen:
                seen.add(w2)
                if len(seen) > max_words:
                    raise EnumerationLimitError(f"more than {max_words} words in the "
                                                f"swap closure of {';'.join(word)}")
                queue.append(w2)
    return seen


def check_presentation_morphism_oracle(morph):
    """``check_presentation_morphism`` as it was before one engine sweep
    decided every relation: swap closure (``word_swap_class_oracle``) when
    the target's relations preserve length, else the whole target realized
    by ``realize_presentation``; undecided when that target is cyclic."""
    out = []
    src, tgt = morph.source, morph.target
    out.extend(f"source: {v}" for v in validate_presentation(src))
    out.extend(f"target: {v}" for v in validate_presentation(tgt))
    if out:
        return out
    out += [f"object {x}: not an object of the source" for x in morph.obj_map
            if x not in src.objects]
    out += [f"generator {g}: not a generator of the source" for g in morph.gen_map
            if g not in src.generators]
    tobj = set(tgt.objects)
    for x in src.objects:
        if morph.obj_map.get(x) not in tobj:
            out.append(f"object {x}: image missing or unknown")
    for g, (s, t) in src.generators.items():
        w = morph.gen_map.get(g)
        if not w:
            out.append(f"generator {g}: image word missing or empty")
            continue
        try:
            ends = tgt.word_endpoints(tuple(w))
        except DomainError as exc:
            out.append(f"generator {g}: image {exc}")
            continue
        if ends != (morph.obj_map.get(s), morph.obj_map.get(t)):
            out.append(f"generator {g}: image word has wrong endpoints")
    if out:
        return out
    lp = _length_preserving(tgt)
    cyclic = not lp and tgt._engine.heights is None
    real = None  # the realized target, built for the first relation that needs it
    for i, (u, v) in enumerate(src.relations):
        wu, wv = morph.word(u), morph.word(v)
        if wu == wv:
            continue
        if cyclic:
            out.append(
                f"relation {i}: preservation undecided "
                "(target is cyclic and has length-changing relations)"
            )
            continue
        if lp:
            same = wv in word_swap_class_oracle(tgt, wu)
        else:
            if real is None:
                real = realize_presentation(tgt)
            start = tgt.gen_src(wu[0])
            same = real.class_of(start, wu) == real.class_of(start, wv)
        if not same:
            out.append(f"relation {i}: image words are not equivalent in the target")
    return out


def realize_words_oracle(pres, bound, max_words=MAX_WORDS):
    """``realize_presentation`` as it was for length-changing relations:
    list every word (up to ``bound``) and join words one relation
    substitution apart.  Exact with no bound; a bound can split a class
    whose members are joined only through longer words."""
    engine = _SwapEngine(pres.objects, pres.generators, ())
    objects, out = pres.objects, engine.out
    words = {}  # (x, y) -> list of words, lexicographic
    total = 0
    truncated = False
    for i, x in enumerate(objects):
        for word, at in _walk(engine, i, bound):
            words.setdefault((x, objects[at]), []).append(tuple(word))
            total += 1
            if total > max_words:
                raise EnumerationLimitError(f"more than {max_words} words enumerated")
            if len(word) == bound and out[at]:
                truncated = True
    homs = {}
    canonical = {}
    for (x, y), ws in sorted(words.items()):
        index = {w: i for i, w in enumerate(ws)}
        uf = _UnionFind(len(ws))
        for i, w in enumerate(ws):
            for w2 in _rewrites(pres.relations, w):
                j = index.get(w2)
                if j is not None:
                    uf.union(i, j)
        roots = [uf.find(i) for i in range(len(ws))]
        homs[(x, y)] = tuple(ws[r] for r in sorted(set(roots)))
        for w, r in zip(ws, roots):
            canonical[(x, w)] = ws[r]

    def class_of(start, word):
        if (start, word) not in canonical:
            raise DomainError(f"no word {';'.join(word)} out of {start} here")
        return canonical[(start, word)]

    return WordClasses(homs, truncated, class_of)


class WordClasses:
    """What the realization oracles give: ``homs`` and ``truncated`` as a
    Realization has them, and their own ``class_of(start, word)``."""

    def __init__(self, homs, truncated, class_of):
        self.homs, self.truncated, self.class_of = homs, truncated, class_of


def realize_per_source_oracle(pres, bound=None, max_words=MAX_WORDS):
    """``realize_presentation`` as it was before one sweep served every
    source object: one engine sweep per object, each kept in ``layers_of``,
    and ``class_of`` reads the start's own layers."""
    if bound is not None and bound < 0:
        raise DomainError(f"length bound {bound} is negative")
    bad = validate_presentation(pres)
    if bad:
        raise DomainError("invalid presentation: " + "; ".join(bad[:5]))
    engine = _SwapEngine(pres.objects, pres.generators, pres.relations)
    heights = engine.heights
    if bound is None and heights is None:
        raise DomainError("cyclic presentation needs a length bound")
    chains = {g: (g,) for g in pres.generators}
    whole = tuple  # the identity on the representatives, which are tuples
    if not _length_preserving(pres):
        if heights is None or bound is not None and bound < max(heights):
            raise DomainError("length-changing relation in truncated mode")
        chains, *sub = _subdivided(pres, heights)
        engine = _SwapEngine(*sub)
        whole = lambda pieces: tuple(g for g, k in pieces if not k)
    objects, out = pres.objects, engine.out
    found = {}
    layers_of = {}
    truncated = False
    for x in objects:
        layers = layers_of[x] = list(engine.layers([x], bound, max_words))
        for layer in layers:
            for y, rep in zip(layer.ends, layer.reps):
                if y < len(objects):  # not inside a chain
                    found.setdefault((x, objects[y]), []).append(whole(rep))
        # the last layer is empty unless the bound cut the words off
        truncated = truncated or any(out[v] for v in layers[-1].ends)
    homs = {xy: tuple(sorted(reps)) for xy, reps in sorted(found.items())}

    def class_of(start, word):
        layers = layers_of.get(start)
        if layers is None:
            raise DomainError(f"unknown object {start}")
        cls = depth = 0
        for g in word:
            if depth + 1 == len(layers):
                raise DomainError(f"word longer than the bound {bound}")
            if g not in chains or engine.index[pres.gen_src(g)] != layers[depth].ends[cls]:
                raise DomainError(f"word not composable at generator {g}")
            for piece in chains[g]:
                layer = layers[depth]
                cls = layer.step[layer.offsets[cls] + engine.pos[piece]]
                depth += 1
        return whole(layers[depth].reps[cls])

    return WordClasses(homs, truncated, class_of)


class WordSweepRealization:
    """``fundcat.Realization`` as it was before it counted first: one sweep
    with words at construction, a dict update per class for the counts, and
    ``class_of`` reading the representative its layers keep."""

    def __init__(self, engine, objects, sources, bound, max_classes, chains=None):
        self.objects, self.bound = objects, bound
        self._engine, self._chains = engine, chains
        self._layers = list(engine.layers(sources, bound, max_classes))
        # the last layer is empty unless the bound cut the words off
        self.truncated = any(engine.out[v] for v in self._layers[-1].ends)
        self._starts = dict(zip(sources, range(len(sources))))  # source -> its layer-0 class
        # a representative's generators: its chains' first pieces
        self._whole = tuple if chains is None else lambda ps: tuple(g for g, k in ps if not k)

    def _hom_blocks(self):
        """``(n, names, ranks, blocks)``: objects ranked in name order, and
        ``(x * n, layer, lo, hi)`` for each source's block of each layer, x
        the source's rank (keys x * n + y sort fast)."""
        objects = self.objects
        n, names = len(objects), sorted(objects)
        rank = dict(zip(names, range(n)))
        ranks, bases = [rank[x] for x in objects], [rank[x] * n for x in self._starts]

        def blocks():
            for layer in self._layers:
                cuts = layer.blocks or (0, len(layer.ends))
                for base, lo, hi in zip(bases, cuts, cuts[1:]):
                    yield base, layer, lo, hi

        return n, names, ranks, blocks()

    @cached_property
    def homs(self):
        n, names, ranks, blocks = self._hom_blocks()
        whole, found = self._whole, {}
        for base, layer, lo, hi in blocks:
            for y, rep in zip(layer.ends[lo:hi], layer.reps[lo:hi]):
                if y < n:  # not inside a chain
                    found.setdefault(base + ranks[y], []).append(whole(rep))
        return {(names[k // n], names[k % n]): tuple(sorted(found[k])) for k in sorted(found)}

    @cached_property
    def _counts(self):
        n, names, ranks, blocks = self._hom_blocks()
        found = {}
        for base, layer, lo, hi in blocks:
            for y in layer.ends[lo:hi]:
                if y < n:  # not inside a chain
                    k = base + ranks[y]
                    found[k] = found.get(k, 0) + 1
        return {(names[k // n], names[k % n]): found[k] for k in sorted(found)}

    def hom_counts(self):
        return dict(self._counts)

    def hom_count(self, x, y):
        return self._counts.get((x, y), 0)

    def class_of(self, start, word):
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
        return self._whole(layers[len(pieces)].reps[c])

    def to_fincategory(self):
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


def realize_word_sweep_oracle(pres, bound=None, max_words=MAX_WORDS):
    """``realize_presentation`` on the ``WordSweepRealization``: the same
    checks, engine and subdivision."""
    if bound is not None and bound < 0:
        raise DomainError(f"length bound {bound} is negative")
    bad = validate_presentation(pres)
    if bad:
        raise DomainError("invalid presentation: " + "; ".join(bad[:5]))
    engine, chains = pres._engine, None
    if bound is None and not engine.acyclic:
        raise DomainError("cyclic presentation needs a length bound")
    if not _length_preserving(pres):
        heights = engine.heights
        if heights is None or bound is not None and bound < max(heights):
            raise DomainError("length-changing relation in truncated mode")
        chains, *sub = _subdivided(pres, heights)
        engine = _SwapEngine(*sub)
    return WordSweepRealization(engine, pres.objects, pres.objects, bound, max_words, chains)


def word_layers(real):
    """The layers of the sweep a ``Realization`` keeps, run again with
    words: the same classes, with their representatives."""
    return list(real._engine.layers(*real._sweep))


def extend_per_suffix_oracle(pres, real, layers, start, word, suffixes):
    """``Realization``'s composite walk as it was before the shared walk:
    walk ``word`` from ``start``'s empty word, then each suffix on from
    there, generator by generator, through ``layers``, the
    ``word_layers(real)`` of ``real``, which realizes ``pres``; returns the
    canonical word of word + s per suffix s, with the same errors."""
    index, pos = real._engine.index, real._engine.pos
    chains = real._chains or {g: (g,) for g in pres.generators}

    def walk(cls, depth, word):  # on from class cls of layer depth, by the right action
        for g in word:
            if depth + 1 == len(layers):
                raise DomainError(f"word longer than the bound {real.bound}")
            if g not in chains or index[pres.gen_src(g)] != layers[depth].ends[cls]:
                raise DomainError(f"word not composable at generator {g}")
            for piece in chains[g]:
                layer = layers[depth]
                cls = layer.step[layer.offsets[cls] + pos[piece]]
                depth += 1
        return cls, depth

    i = index.get(start)
    if i is None or i >= len(real.objects):  # chain objects are no starts
        raise DomainError(f"unknown object {start}")
    at = walk(i, 0, tuple(word))
    return [real._whole(layers[d].reps[c]) for c, d in (walk(*at, s) for s in suffixes)]


def to_fincategory_per_suffix_oracle(pres, real):
    """``Realization.to_fincategory`` as it was before the shared walk: each
    composite's suffix walked on from the first word's class on its own
    (``real`` realizes ``pres``).  Returns (arrows, identity, table) in the
    order built."""
    arrows, name = {}, {}  # name: (start, rep) -> arrow name
    leaving = {}  # x -> the reps of the classes out of x, in homs order
    for (x, y), reps in real.homs.items():
        leaving.setdefault(x, []).extend(reps)
        for w in reps:
            a = name[(x, w)] = f"id({x})" if not w else ";".join(w)
            arrows[a] = (x, y)
    identity = {x: f"id({x})" for x in real.objects}
    layers, table = word_layers(real), {}
    for (x, y), reps in real.homs.items():
        for w1 in reps:
            a1 = name[(x, w1)]
            for w2, w in zip(leaving[y],
                             extend_per_suffix_oracle(pres, real, layers, x, w1, leaving[y])):
                table[(a1, name[(y, w2)])] = name[(x, w)]
    return arrows, identity, table


# ---------------------------------------------------------------------------
# categories: seeded random instances for property testing


def random_category(rng, max_objects=4):
    """Seeded random small category: a random poset or a random monoid
    table (rejection-sampled for associativity, with a cyclic-group
    fallback)."""
    if rng.random() < 0.6:
        n = rng.randint(1, max_objects)
        els = [f"o{i}" for i in range(n)]
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    pairs.append((els[i], els[j]))
        return poset_category(els, pairs)
    n = rng.randint(1, 3)
    els = [f"m{i}" for i in range(n)]
    unit = els[0]
    for _attempt in range(200):
        mul = {}
        for a in els:
            for b in els:
                if a == unit:
                    mul[(a, b)] = b
                elif b == unit:
                    mul[(a, b)] = a
                else:
                    mul[(a, b)] = els[rng.randrange(n)]
        if _associative(els, mul):
            return monoid_category(els, unit, mul)
    mul = {(els[i], els[j]): els[(i + j) % n] for i in range(n) for j in range(n)}
    return monoid_category(els, unit, mul)


def _associative(els, mul):
    for a in els:
        for b in els:
            for c in els:
                if mul[(mul[(a, b)], c)] != mul[(a, mul[(b, c)])]:
                    return False
    return True


# ---------------------------------------------------------------------------
# directed metrics: chain formula by bounded search


def quotient_distance_oracle(space, class_of, a, b):
    """Cheapest alternating chain from a to b, by depth-first search with
    pruning; exact, usable on small spaces only."""
    n = len(space.points)
    best = [INF]

    def rec(i, cost, depth):
        if cost >= best[0]:
            return
        if class_of[i] == class_of[b]:
            best[0] = cost
            return
        if depth == 0:
            return
        for j in range(n):
            step = space.dist[i][j]
            if step == INF:
                continue
            for k in range(n):
                if class_of[k] == class_of[j]:
                    rec(k, cost + step, depth - 1)

    for k in range(n):
        if class_of[k] == class_of[a]:
            rec(k, Fraction(0), n)
    return best[0]


# ---------------------------------------------------------------------------
# directed metrics: the Fraction loops the integer kernel replaced, kept as
# the reference it is checked against; each returns plain values, not spaces


def metric_validate_oracle(points, dist):
    """Violation messages of d(x,x) = 0, nonnegativity and every triangle
    inequality, in (i, j, k) order, computed on the entries themselves."""
    out = []
    n = len(points)
    for i in range(n):
        if dist[i][i] != 0:
            shown = "inf" if dist[i][i] == INF else str(dist[i][i])
            out.append(f"d({points[i]},{points[i]}) = {shown} != 0")
    for i in range(n):
        for j in range(n):
            v = dist[i][j]
            if v != INF and v < 0:
                out.append(f"d({points[i]},{points[j]}) < 0")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][j] + dist[j][k] < dist[i][k]:
                    out.append(f"triangle fails on ({points[i]},{points[j]},{points[k]})")
    return out


def metric_quotient_oracle(points, dist, pairs):
    """(points, dist) of the quotient: classes named by their least member,
    zero inside a class, then Floyd-Warshall on the entries."""
    n = len(points)
    idx = {p: i for i, p in enumerate(points)}
    label = list(range(n))
    for p, q in pairs:  # relabel until the closure is reached
        a, b = label[idx[p]], label[idx[q]]
        label = [min(a, b) if x in (a, b) else x for x in label]
    w = [list(row) for row in dist]
    for i in range(n):
        for j in range(n):
            if label[i] == label[j] and i != j:
                w[i][j] = Fraction(0)
    for k in range(n):
        for i in range(n):
            wik = w[i][k]
            if wik == INF:
                continue
            for j in range(n):
                c = wik + w[k][j]
                if c < w[i][j]:
                    w[i][j] = c
    names = sorted(min(p for p, x in zip(points, label) if x == lab) for lab in set(label))
    reps = [idx[name] for name in names]
    return tuple(names), tuple(tuple(w[a][b] for b in reps) for a in reps)


def is_isometric_oracle(x, y):
    """Existence of a distance-preserving bijection, by backtracking: the
    hand-written search that ``dmetric.is_isometric`` replaced with the shared
    backtracker, kept as it was."""
    if len(x.points) != len(y.points):
        return False
    n = len(x.points)
    x_in, y_in = tuple(zip(*x.dist)), tuple(zip(*y.dist))  # columns
    assign = []  # images of points 0 .. len(assign) - 1
    used = [False] * n
    j = 0  # next image to try for point len(assign)
    while len(assign) < n:
        i = len(assign)
        while j < n and (
            used[j]
            or x.dist[i][i] != y.dist[j][j]
            or tuple(map(y.dist[j].__getitem__, assign)) != x.dist[i][:i]
            or tuple(map(y_in[j].__getitem__, assign)) != x_in[i][:i]
        ):
            j += 1
        if j < n:
            assign.append(j)
            used[j] = True
            j = 0
        elif not assign:
            return False
        else:
            j = assign.pop()
            used[j] = False
            j += 1
    return True


def is_isometric_backtrack_oracle(x, y):
    """``dmetric.is_isometric`` before it ran the isomorphism search it
    shares with thin categories' cores, kept as it was: point i of x tries
    the points of y with its self-distance in index order."""
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


def isomorphic_posets_oracle(p1, p2, max_maps=MAX_FUNCTORS):
    """``catho._isomorphic_posets``, the search thin ``cat equiv`` ran on
    two cores before it shared one with ``dmetric.is_isometric``, kept as it
    was.  Whether two finite posets, given as ``(above, below)``
    (``above[x]`` the set of points strictly above x, ``below[x]`` those
    strictly below), are isomorphic.  Points of the first
    are mapped one at a time, each next to as many mapped points as
    possible, onto points of the second with as many points below and above
    that agree on every relation to the points mapped before; past
    ``max_maps`` partial maps tried it raises :class:`EnumerationLimitError`."""
    (up1, down1), (up2, down2) = p1, p2
    deg1 = {x: (len(down1[x]), len(up1[x])) for x in up1}
    deg2 = {y: (len(down2[y]), len(up2[y])) for y in up2}
    if sorted(deg1.values()) != sorted(deg2.values()):
        return False
    order, links = [], dict.fromkeys(up1, 0)
    while links:
        x = max(links, key=links.get)  # first of the most linked points
        del links[x]
        order.append(x)
        for y in up1[x] | down1[x]:
            if y in links:
                links[y] += 1
    options = [[y for y in up2 if deg2[y] == deg1[x]] for x in order]
    tried = 0

    def consistent(k, chosen):
        nonlocal tried
        tried += 1
        if tried > max_maps:
            raise EnumerationLimitError(f"more than {max_maps} partial isomorphisms tried")
        x, y = order[k], chosen[k]
        ux, uy = up1[x], up2[y]
        for j in range(k):
            xj, yj = order[j], chosen[j]
            if yj == y or (xj in ux) != (yj in uy) or (x in up1[xj]) != (y in up2[yj]):
                return False
        return True

    return next(_backtrack(options, consistent), None) is not None


def metric_product_oracle(factors):
    """(points, dist) of the product of ``(points, dist)`` factors: the
    ``max`` of the coordinate entries, so a tie keeps the earlier factor's."""
    combos = list(product(*(range(len(pts)) for pts, _ in factors)))
    points = tuple(",".join(f[0][c] for f, c in zip(factors, combo)) for combo in combos)
    dist = tuple(
        tuple(max(f[1][a[c]][b[c]] for c, f in enumerate(factors)) for b in combos)
        for a in combos
    )
    return points, dist


def metric_format_oracle(points, dist):
    """The matrix file text with every entry formatted where it stands."""
    order = sorted(range(len(points)), key=lambda i: points[i])
    lines = ["points " + " ".join([str(len(points))] + [points[i] for i in order])]
    for i in order:
        lines.append(" ".join("inf" if dist[i][j] == INF else str(dist[i][j]) for j in order))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# directed metrics: the reader and the integer kernel as they were before
# each space kept one scaled matrix, moved here unchanged (but for their
# names): every token is read with Fraction, every operation scales its
# inputs anew, and the text form is formatted per entry object


def parse_dist_fraction_oracle(token):
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


def parse_dmetric_fraction_oracle(text):
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
                    values[e] = parse_dist_fraction_oracle(e)
        except InputSyntaxError as exc:
            raise InputSyntaxError(str(exc), ln) from None
        rows.append(tuple(map(values.__getitem__, entries)))
    try:
        return DMetricSpace(tuple(ids), tuple(rows))
    except DomainError as exc:  # a repeated id: rows were checked above
        raise InputSyntaxError(str(exc), ln0) from exc


def scaled_oracle(*spaces):
    """``(L, matrices)``: ``L`` is the lcm of the denominators of every finite
    entry of ``spaces``, and each space's matrix holds entry ``v`` as the
    exact integer ``v * L``, or None for ``INF``."""
    ratios = [[[None if type(v) is float and v == INF else v.as_integer_ratio() for v in row]
               for row in s.dist] for s in spaces]
    lcm = math.lcm(*{r[1] for m in ratios for row in m for r in row if r is not None})
    return lcm, [[[None if r is None else r[0] * (lcm // r[1]) for r in row] for row in m]
                 for m in ratios]


def validate_scaled_oracle(space):
    """Check d(x,x) = 0, nonnegativity, and all triangle inequalities."""
    pts = space.points
    _, (d,) = scaled_oracle(space)
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


def product_scaled_oracle(*spaces):
    """Pointwise sup of coordinate distances on tuples (the l-infinity rule)."""
    _, keys = scaled_oracle(*spaces)
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


def disjoint_sum_oracle(*spaces):
    """Disjoint union; distances across different summands are oo."""
    points = tuple(f"{i}:{p}" for i, s in enumerate(spaces) for p in s.points)
    blanks = [(INF,) * len(s.points) for s in spaces]
    dist = []
    for i, s in enumerate(spaces):  # by index: one space may be passed twice
        left, right = sum(blanks[:i], ()), sum(blanks[i + 1:], ())
        dist += [left + tuple(row) + right for row in s.dist]
    return DMetricSpace(points, tuple(dist))


def quotient_scaled_oracle(space, pairs):
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
    lcm, (w,) = scaled_oracle(space)
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


def format_by_object_oracle(space):
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


def discretized_interval_oracle(n):
    """(points, dist) of the interval as first written: distances recomputed
    from the point ids."""
    points = [str(Fraction(i, n)) for i in range(n + 1)]
    return points, [[Fraction(q) - Fraction(p) if Fraction(q) >= Fraction(p) else INF
                     for q in points] for p in points]


def discretized_circle_oracle(n):
    """(points, dist) of the directed circle, distances from the point ids."""
    points = [str(Fraction(i, n)) for i in range(n)]
    return points, [[(Fraction(q) - Fraction(p)) % 1 for q in points] for p in points]


def build_parser_oracle():
    """The CLI's argparse parser as it was written by hand, verb by verb,
    before ``cli.build_parser`` read it off ``cli._VERBS``; ``error`` raises
    the CLI's usage error, as ``cli.build_parser``'s does."""
    import argparse

    from dihom.cli import _UsageError

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    parser = Parser(prog="dihom", description="directed-homotopy invariants toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classes", help="dipath classes from a scene's source to target")
    p.add_argument("scene")
    p.add_argument("--max-len", type=int, default=None)

    p = sub.add_parser("hom", help="dipath classes between two vertices")
    p.add_argument("input", metavar="scene-or-complex")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--reps", action="store_true")

    p = sub.add_parser("pi0", help="path components of a complex")
    p.add_argument("input")

    p = sub.add_parser("preorder", help="path preorder pairs of a complex")
    p.add_argument("input")

    p = sub.add_parser("one-simple", help="at most one class per vertex pair?")
    p.add_argument("input", metavar="scene-or-complex")

    p = sub.add_parser("monoid", help="loop class counts at a vertex")
    p.add_argument("input")
    p.add_argument("--at", required=True)
    p.add_argument("--max-len", type=int, required=True)

    pc = sub.add_parser("cat", help="finite-category analyses")
    csub = pc.add_subparsers(dest="catverb", required=True)

    p = csub.add_parser("contractible", help="initial/terminal object check")
    p.add_argument("category")
    p.add_argument("--direction", choices=["past", "future"], required=True)

    p = csub.add_parser("equiv", help="directed homotopy equivalence of categories")
    p.add_argument("left")
    p.add_argument("right")

    p = csub.add_parser("pushout", help="pushout of presentations")
    p.add_argument("p0")
    p.add_argument("p1")
    p.add_argument("p2")
    p.add_argument("u1")
    p.add_argument("u2")

    p = csub.add_parser("realize", help="hom-sets of a presented category")
    p.add_argument("presentation")
    p.add_argument("--bound", type=int, default=None)

    p = csub.add_parser("faithful", help="functor faithfulness check")
    p.add_argument("functor")

    pm = sub.add_parser("metric", help="directed metric operations")
    msub = pm.add_subparsers(dest="metricverb", required=True)

    p = msub.add_parser("validate", help="axioms check")
    p.add_argument("space")

    p = msub.add_parser("product", help="l-infinity product")
    p.add_argument("spaces", nargs="+")

    p = msub.add_parser("sum", help="disjoint sum")
    p.add_argument("spaces", nargs="+")

    p = msub.add_parser("quotient", help="identify points along a relation")
    p.add_argument("space")
    p.add_argument("relation")

    p = msub.add_parser("ball", help="strict past/future ball")
    p.add_argument("space")
    p.add_argument("--at", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--direction", choices=["past", "future"], required=True)

    p = sub.add_parser("export-dot", help="DOT graph of a complex or category")
    p.add_argument("input", metavar="complex-or-category")
    p.add_argument("-o", dest="output", required=True)
    p.add_argument("--from", dest="src", default=None)
    p.add_argument("--to", dest="dst", default=None)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--highlight", type=int, default=None)

    return parser
