"""Seeded inputs and query lists for the four benchmark workloads.

Every input file is written here as text, from the seed alone.  Nothing here
calls the library's own builders (``catho.random_category``,
``dmetric.discretized_interval``, ``precubical.model``,
``fundcat.presentation_of``, ...), so a library change cannot change a
workload.  Only the text formats and the scene vertex naming (``v<x>_<y>``)
are shared with the library, because they are its public interface.

A workload is a fixed list of CLI queries.  Each query may carry an
invariant check (see checks.py) that holds for any seed and is
computed by the benchmark alone.

The size of every query is fixed by its slot in the list; the seed moves
holes, weights, names and vertex pairs.  Unit holes remove a square but no
vertex or edge, so the dipath count of a scene, and with it the cost of
enumerating it, does not depend on where the holes fall.  That keeps the
work of a pass nearly the same from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("few_classes", "many_classes", "pasting", "metric")


@dataclass
class Query:
    """One CLI invocation.  ``@name`` arguments are input files."""

    argv: tuple
    kind: str
    check: tuple | None = None  # (check name, params), see checks.py
    output: str | None = None  # file the query writes instead of stdout


@dataclass
class Workload:
    name: str
    seed: int
    files: dict = field(default_factory=dict)
    queries: list = field(default_factory=list)
    sizes: dict = field(default_factory=dict)

    def add(self, argv, kind, check=None, output=None):
        self.queries.append(Query(tuple(argv), kind, check, output))

    def file(self, name, text):
        if name in self.files:
            raise ValueError(f"duplicate input file {name}")
        self.files[name] = text
        return "@" + name


def build(name, seed, smoke=False):
    """The workload ``name`` for ``seed``; ``smoke`` picks the smallest sizes."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"perfbench:{name}:{seed}")
    wl = Workload(name, seed)
    _BUILDERS[name](wl, rng, smoke)
    kinds = {}
    for q in wl.queries:
        kinds[q.kind] = kinds.get(q.kind, 0) + 1
    wl.sizes["queries"] = len(wl.queries)
    wl.sizes["queries_by_kind"] = kinds
    return wl


# ---------------------------------------------------------------------------
# grid scenes


def vid(x, y):
    return f"v{x}_{y}"


def scene_text(w, h, boxes, src=(0, 0), tgt=None):
    tgt = (w, h) if tgt is None else tgt
    lines = [f"grid {w} {h}"]
    lines += [f"box {x0} {y0} {x1} {y1}" for x0, y0, x1, y1 in boxes]
    lines += [f"source {src[0]} {src[1]}", f"target {tgt[0]} {tgt[1]}"]
    return "\n".join(lines) + "\n"


def unit_holes(rng, w, h, k):
    """k distinct unit boxes, kept off the border so every hole can split
    dipaths."""
    cells = [(x, y) for x in range(1, w - 1) for y in range(1, h - 1)]
    return sorted(rng.sample(cells, min(k, len(cells))))


def unit_boxes(cells):
    return [(x, y, x + 1, y + 1) for x, y in cells]


def _few_classes(wl, rng, smoke):
    # (width, height, copies) of the corner-to-corner `hom --reps` queries;
    # the largest decides the pass's peak memory, and the twelve 7x7 queries
    # form the block that query_ms.p90 falls in.  Only corner-to-corner
    # pairs: enumeration walks every dipath out of the source, not only
    # those reaching the target, so an inner pair costs as much as its whole
    # upper-right quadrant
    hom_sizes = [(3, 3, 4)] if smoke else [(4, 4, 20), (5, 5, 20), (6, 6, 14), (7, 7, 8),
                                           (8, 8, 2), (9, 9, 1), (10, 3, 8), (3, 10, 8)]
    class_sizes = [(3, 2)] if smoke else [(4, 10), (5, 10), (6, 8), (7, 4), (8, 1)]
    simple_sizes = [(2, 2)] if smoke else [(2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4), (2, 4)]
    torus_lengths = [4] if smoke else [8, 10, 12]

    i = 0
    for w, h, copies in hom_sizes:
        for _ in range(copies):
            boxes = unit_boxes(unit_holes(rng, w, h, rng.randint(1, 3)))
            f = wl.file(f"hom{i}.scene", scene_text(w, h, boxes))
            wl.add(["hom", f, "--from", vid(0, 0), "--to", vid(w, h), "--reps"], "hom_reps",
                   ("class_sizes", {"w": w, "h": h, "boxes": boxes,
                                    "src": (0, 0), "tgt": (w, h)}))
            i += 1
    for n, copies in class_sizes:
        for _ in range(copies):
            boxes = unit_boxes(unit_holes(rng, n, n, rng.randint(1, 3)))
            f = wl.file(f"classes{i}.scene", scene_text(n, n, boxes))
            wl.add(["classes", f], "classes", ("class_count", {"min": 1}))
            i += 1
    for w, h in simple_sizes:
        f = wl.file(f"full{w}x{h}.scene", scene_text(w, h, []))
        wl.add(["one-simple", f], "one_simple", ("one_simple", {}))
    # the one-vertex torus: loops a, b and a commuting square, so l+1 classes
    # among 2**l words of length l
    for L in torus_lengths:
        v, a, b, s = _names(rng, 4)
        f = wl.file(f"torus{L}.complex",
                    f"vertex {v}\nedge {a} {v} {v}\nedge {b} {v} {v}\nsquare {s} {b} {b} {a} {a}\n")
        wl.add(["monoid", f, "--at", v, "--max-len", str(L)], "monoid_torus",
               ("monoid_counts", {"base": None, "max_len": L}))
    wl.sizes.update(hom_scenes=hom_sizes, classes_sides=class_sizes,
                    one_simple_grids=simple_sizes,
                    torus_lengths=torus_lengths)


def _names(rng, k):
    """k distinct seeded cell ids."""
    return [f"c{n:03d}" for n in rng.sample(range(1000), k)]


def _many_classes(wl, rng, smoke):
    # (width, height, copies) of mostly boxed scenes: nearly every dipath is
    # its own class, so the output is as large as the enumeration
    boxed_sizes = [(3, 3, 3)] if smoke else [(4, 4, 16), (5, 4, 8), (4, 5, 8), (5, 5, 14),
                                             (6, 5, 10), (6, 6, 8), (7, 6, 4), (7, 7, 3),
                                             (8, 7, 1), (8, 8, 1), (9, 8, 1)]
    wedges = [(2, 3), (3, 2)] if smoke else [(2, 8), (2, 9), (2, 10), (3, 5), (3, 6)]
    preorder_sides = [6] if smoke else [16, 18, 20]
    dot_sizes = [(3, 3, 2)] if smoke else [(5, 5, 10), (6, 6, 6), (7, 6, 4)]
    keep = 0.15  # share of unit squares left unboxed

    def boxed(w, h):
        # a fixed count of unboxed squares keeps class counts, output size
        # and peak memory close from seed to seed
        cells = [(x, y) for x in range(w) for y in range(h)]
        kept = set(rng.sample(cells, round(keep * len(cells))))
        return unit_boxes(c for c in cells if c not in kept)

    i = 0
    for w, h, copies in boxed_sizes:
        for _ in range(copies):
            boxes = boxed(w, h)
            f = wl.file(f"boxed{i}.scene", scene_text(w, h, boxes))
            wl.add(["hom", f, "--from", vid(0, 0), "--to", vid(w, h), "--reps"], "hom_reps",
                   ("class_sizes", {"w": w, "h": h, "boxes": boxes,
                                    "src": (0, 0), "tgt": (w, h)}))
            i += 1
    # wedges of k circles: no squares, k**l classes of length l, and a concat
    # table quadratic in the number of classes
    for k, L in wedges:
        names = _names(rng, k + 1)
        v, loops = names[0], names[1:]
        text = f"vertex {v}\n" + "".join(f"edge {e} {v} {v}\n" for e in loops)
        f = wl.file(f"wedge{k}_{L}.complex", text)
        wl.add(["monoid", f, "--at", v, "--max-len", str(L)], "monoid_wedge",
               ("monoid_counts", {"base": k, "max_len": L}))
    for n in preorder_sides:
        holes = []
        for _ in range(3):
            x0, y0 = rng.randint(1, n - 4), rng.randint(1, n - 4)
            holes.append((x0, y0, x0 + rng.randint(1, 3), y0 + rng.randint(1, 3)))
        f = wl.file(f"preorder{n}.scene", scene_text(n, n, holes))
        wl.add(["preorder", f], "preorder", ("preorder", {"w": n, "h": n, "boxes": holes}))
    for w, h, copies in dot_sizes:
        for _ in range(copies):
            boxes = boxed(w, h)
            f = wl.file(f"dot{i}.scene", scene_text(w, h, boxes))
            out = f"dot{i}.dot"
            # class 0 always exists: the corner-to-corner hom is never empty
            wl.add(["export-dot", f, "-o", "@" + out, "--highlight", "0"], "export_dot",
                   ("dot_highlight", {}), output=out)
            i += 1
    wl.sizes.update(boxed_scenes=boxed_sizes, unboxed_share=keep, wedges=wedges,
                    preorder_sides=preorder_sides, dot_scenes=dot_sizes)


# ---------------------------------------------------------------------------
# pasting: van Kampen pipeline on scenes cut in two, plus categorical search


def _e(x, y):
    return f"e{x}_{y}"


def _n(x, y):
    return f"n{x}_{y}"


def grid_presentation(h, xa, xb, holes):
    """(objects, generators, relations) of columns xa..xb of an h-high grid
    whose unit holes are ``holes``: the presentation of that face-closed
    half, with the ids scenes compile to."""
    objs = [vid(x, y) for x in range(xa, xb + 1) for y in range(h + 1)]
    gens = {_e(x, y): (vid(x, y), vid(x + 1, y)) for x in range(xa, xb) for y in range(h + 1)}
    gens.update({_n(x, y): (vid(x, y), vid(x, y + 1)) for x in range(xa, xb + 1) for y in range(h)})
    rels = [((_e(x, y), _n(x + 1, y)), (_n(x, y), _e(x, y + 1)))
            for x in range(xa, xb) for y in range(h) if (x, y) not in holes]
    return objs, gens, rels


def presentation_text(objs, gens, rels):
    lines = [f"object {x}" for x in sorted(objs)]
    lines += [f"gen {g} {s} {t}" for g, (s, t) in sorted(gens.items())]
    rels = sorted(tuple(sorted((u, v))) for u, v in rels)
    lines += [f"rel {';'.join(u)} = {';'.join(v)}" for u, v in rels]
    return "\n".join(lines) + ("\n" if lines else "")


def glued_presentation(p1, p2, cut_gens):
    """The pushout of p1 <- p0 -> p2 along identity inclusions, as the
    library names it: tags ``1:``/``2:``, shared objects under ``1:``, and one
    relation ``1:g = 2:g`` per generator of p0."""
    objs1, gens1, rels1 = p1
    objs2, gens2, rels2 = p2
    shared = set(objs1) & set(objs2)

    def obj2(x):
        return f"1:{x}" if x in shared else f"2:{x}"

    objs = [f"1:{x}" for x in objs1] + [obj2(x) for x in objs2 if x not in shared]
    gens = {f"1:{g}": (f"1:{s}", f"1:{t}") for g, (s, t) in gens1.items()}
    gens.update({f"2:{g}": (obj2(s), obj2(t)) for g, (s, t) in gens2.items()})

    def tag(word, side):
        return tuple(f"{side}:{g}" for g in word)

    rels = [(tag(u, 1), tag(v, 1)) for u, v in rels1] + [(tag(u, 2), tag(v, 2)) for u, v in rels2]
    rels += [((f"1:{g}",), (f"2:{g}",)) for g in sorted(cut_gens)]
    return presentation_text(objs, gens, rels)


def identity_morphism_text(objs, gens):
    lines = [f"object {x} {x}" for x in sorted(objs)]
    lines += [f"gen {g} {g}" for g in sorted(gens)]
    return "\n".join(lines) + "\n"


# Hasse diagrams on element indices.  Random posets of one size differ by
# 100x in functor count, and so in search cost, and even the order of the
# object names steers the backtracking: fixed shapes whose seeded names keep
# the index order cost the same for every seed.
POSET_SHAPES = {
    "chain3": (3, [(0, 1), (1, 2)]),
    "vee3": (3, [(0, 1), (0, 2)]),
    "pair3": (3, [(0, 1)]),
    "chain4": (4, [(0, 1), (1, 2), (2, 3)]),
    "diamond4": (4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    "y4": (4, [(0, 1), (1, 2), (1, 3)]),
    "n4": (4, [(0, 2), (1, 2), (1, 3)]),
    "claw4": (4, [(0, 1), (0, 2), (0, 3)]),
    "bowtie4": (4, [(0, 2), (0, 3), (1, 2), (1, 3)]),
    "chain5": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "diamond5": (5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
}


def poset_text(rng, shape):
    """The poset of ``shape`` with seeded object names in index order.
    Returns (text, names, less-or-equal pairs)."""
    k, hasse = POSET_SHAPES[shape]
    names = [f"o{n:02d}" for n in sorted(rng.sample(range(100), k))]
    lt = set(hasse)
    for m in range(k):
        for i in range(k):
            for j in range(k):
                if (i, m) in lt and (m, j) in lt:
                    lt.add((i, j))
    rel = {(names[i], names[j]) for i, j in lt}
    lines = [f"object {x}" for x in names]
    lines += [f"arrow f_{a}_{b} {a} {b}" for a, b in sorted(rel)]
    lines += [f"compose f_{a}_{b} f_{b}_{c} = f_{a}_{c}"
              for a, b in sorted(rel) for b2, c in sorted(rel) if b == b2]
    le = rel | {(x, x) for x in names}
    return "\n".join(lines) + "\n", names, le


def monoid_text(kind, k):
    """One-object category of the cyclic group Z_k (``cyclic``) or of the
    saturating monoid {0..k-1}, i*j = min(i+j, k-1) (``saturating``)."""
    els = range(1, k)
    lines = ["object *"] + [f"arrow g{i} * *" for i in els]
    for i in els:
        for j in els:
            r = (i + j) % k if kind == "cyclic" else min(i + j, k - 1)
            lines.append(f"compose g{i} g{j} = {f'g{r}' if r else 'id(*)'}")
    return "\n".join(lines) + "\n"


def _pasting(wl, rng, smoke):
    # (width, height, holes) of the scenes cut in two at x = width // 2;
    # realize enumerates every word out of every object, and each cut-line
    # edge doubles as 1:g and 2:g, so a glued 5x5 takes half a second.  A
    # 3x3 scene has one inner cell, so its hole and its realize cost are the
    # same for every seed: the thirteen 3x3 realize queries form the block
    # that query_ms.p90 falls in
    scenes = [(3, 3, 1)] if smoke else ([(3, 3, 1)] * 13 + [(4, 3, 1), (3, 4, 1)] * 3
                                        + [(6, 3, 1), (5, 3, 1), (4, 4, 1), (4, 4, 2)] * 2
                                        + [(5, 4, 1), (4, 5, 2), (5, 4, 2), (5, 5, 2)])
    pairs_per_scene = 3 if smoke else 5
    for s, (w, h, nholes) in enumerate(scenes):
        holes = set(unit_holes(rng, w, h, nholes))
        cut = w // 2  # the glued word count, and so the cost, depends on the cut
        p0 = grid_presentation(h, cut, cut, holes)
        p1 = grid_presentation(h, 0, cut, holes)
        p2 = grid_presentation(h, cut, w, holes)
        pre = f"s{s}"
        files = [wl.file(f"{pre}_p{i}.pres", presentation_text(*p)) for i, p in enumerate((p0, p1, p2))]
        morph = wl.file(f"{pre}_id.morph", identity_morphism_text(p0[0], p0[1]))
        glued = glued_presentation(p1, p2, p0[1])
        wl.add(["cat", "pushout", *files, morph, morph], "pushout", ("equals", {"text": glued}))
        gf = wl.file(f"{pre}_glued.pres", glued)
        realize = len(wl.queries)
        wl.add(["cat", "realize", gf], "realize",
               ("realize", {"objects": len(p1[0]) + len(p2[0]) - len(p0[0]), "query": realize}))
        scene = wl.file(f"{pre}.scene", scene_text(w, h, unit_boxes(sorted(holes))))
        for k in range(pairs_per_scene):
            if k == 0:
                a, b = (0, 0), (w, h)
            else:
                a = (rng.randint(0, w - 1), rng.randint(0, h - 1))
                b = (rng.randint(a[0], w), rng.randint(a[1], h))
            # the glued name of a vertex: cut-line vertices keep their 1: tag
            pair = [f"{1 if x <= cut else 2}:{vid(x, y)}" for x, y in (a, b)]
            wl.add(["hom", scene, "--from", vid(*a), "--to", vid(*b)], "hom_direct",
                   ("glued_count", {"realize": realize, "pair": pair}))
    # categorical search on seeded posets and monoids within the 5-object /
    # 40-arrow guard
    wl.file("point.category", "object p\n")
    poset_slots = ["vee3"] if smoke else [*POSET_SHAPES][:9] * 2 + ["chain5", "diamond5"]
    monoid_slots = [("cyclic", 3)] if smoke else [(kind, k) for kind in ("cyclic", "saturating") for k in (2, 3, 4, 5)]
    posets = []
    for i, shape in enumerate(poset_slots):
        text, names, le = poset_text(rng, shape)
        f = wl.file(f"poset{i}.category", text)
        posets.append(f)
        for direction in ("past", "future"):
            wl.add(["cat", "contractible", f, "--direction", direction], "contractible",
                   ("poset_contractible", {"names": names, "le": sorted(le), "direction": direction}))
        wl.add(["cat", "equiv", f, "@point.category"], "equiv")
    for i in range(0, len(posets) - 1, 2):
        wl.add(["cat", "equiv", posets[i], posets[i + 1]], "equiv")
    for kind, k in monoid_slots:
        f = wl.file(f"{kind}{k}.category", monoid_text(kind, k))
        wl.add(["cat", "contractible", f, "--direction", rng.choice(("past", "future"))],
               "contractible", ("monoid_contractible", {"order": k}))
        wl.add(["cat", "equiv", f, "@point.category"], "equiv")
        if kind == "cyclic":
            # Z_k -> Z_k, x -> c*x: a functor, faithful iff gcd(c, k) = 1
            c = rng.randrange(k)
            lines = [f"domain {kind}{k}.category", f"codomain {kind}{k}.category", "object * *"]
            for x in range(1, k):
                y = (c * x) % k
                lines.append(f"arrow g{x} {f'g{y}' if y else 'id(*)'}")
            ff = wl.file(f"mul{k}_{c}.functor", "\n".join(lines) + "\n")
            wl.add(["cat", "faithful", ff], "faithful", ("faithful", {"order": k, "factor": c}))
    for i, (kind, k) in enumerate(monoid_slots[:-1]):
        other = monoid_slots[i + 1]
        wl.add(["cat", "equiv", f"@{kind}{k}.category", f"@{other[0]}{other[1]}.category"], "equiv")
    wl.sizes.update(cut_scenes=scenes, pairs_per_scene=pairs_per_scene,
                    posets=poset_slots, monoids=monoid_slots)


# ---------------------------------------------------------------------------
# directed metrics


def frac_id(i, n):
    return str(Fraction(i, n))


def matrix_text(ids, rows):
    """``rows[i][j]`` is a Fraction or None for infinity."""
    lines = [f"points {len(ids)} " + " ".join(ids)]
    lines += [" ".join("inf" if v is None else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def interval_space(n):
    """The n+1 points 0, 1/n, ..., 1; forward distance j/n - i/n, backward
    infinite."""
    ids = [frac_id(i, n) for i in range(n + 1)]
    rows = [[Fraction(j - i, n) if j >= i else None for j in range(n + 1)] for i in range(n + 1)]
    return ids, rows


def circle_space(n):
    """n equally spaced points; distance is the forward arc."""
    ids = [frac_id(i, n) for i in range(n)]
    rows = [[Fraction((j - i) % n, n) for j in range(n)] for i in range(n)]
    return ids, rows


def canonical_matrix_text(ids, rows):
    """The library's canonical form: points sorted by id, rows in that order."""
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    return matrix_text([ids[i] for i in order], [[rows[i][j] for j in order] for i in order])


def quasi_metric(rng, n, denominator=12):
    """Shortest-path closure of a random strongly connected digraph (a
    seeded Hamiltonian cycle plus 3n random arcs) with rational weights
    k/denominator.  The triangle inequality holds by construction, and every
    distance is finite, so the cost of checking it hardly depends on the
    seed.  Computed on integer numerators."""
    d = [[0 if i == j else None for j in range(n)] for i in range(n)]
    order = rng.sample(range(n), n)
    arcs = list(zip(order, order[1:] + order[:1]))
    arcs += [tuple(rng.sample(range(n), 2)) for _ in range(3 * n)]
    for i, j in arcs:
        w = rng.randint(1, 36)
        if d[i][j] is None or w < d[i][j]:
            d[i][j] = w
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is None:
                continue
            row = d[i]
            for j in range(n):
                if dk[j] is not None and (row[j] is None or dik + dk[j] < row[j]):
                    row[j] = dik + dk[j]
    ids = [f"q{x:03d}" for x in rng.sample(range(1000), n)]
    rows = [[Fraction(v, denominator) for v in row] for row in d]
    return ids, rows


def _metric(wl, rng, smoke):
    # query counts per kind; sizes follow the 32-128 point range, with the
    # O(n^3) validate/quotient/ball inputs at 32 points so a pass stays a
    # few seconds long; products and sums reach 128 output points.  The
    # validate and ball queries cost about the same and form the block that
    # query_ms.p90 falls in, with only the five quotients above it; the
    # 4x8-point products form the block of query_ms.p50
    if smoke:
        plan = dict(validate=[8], quot_small=[8], quot_large=[8], circle=[7],
                    product=[(2, 4)], sum=[(4, 4)], ball=[8])
    else:
        plan = dict(validate=[32] * 6, quot_small=[32] * 2, quot_large=[32] * 2,
                    circle=[32], product=[(4, 8)] * 42 + [(8, 8)] * 8 + [(16, 8)] * 2,
                    sum=[(8, 8)] * 40 + [(16, 16)] * 10, ball=[32] * 8)
    i = 0

    def space(ids_rows, tag):
        nonlocal i
        i += 1
        return wl.file(f"{tag}{i}.dmetric", matrix_text(*ids_rows))

    for n in plan["validate"]:
        wl.add(["metric", "validate", space(quasi_metric(rng, n), "quasi")], "validate",
               ("equals", {"text": "valid true\n"}))
    for n in plan["circle"]:
        f = space(interval_space(n), "interval")
        wl.add(["metric", "validate", f], "validate", ("equals", {"text": "valid true\n"}))
        g = space(circle_space(n), "circle")
        wl.add(["metric", "validate", g], "validate", ("equals", {"text": "valid true\n"}))
        rel = wl.file(f"ends{n}.rel", "0 1\n")
        wl.add(["metric", "quotient", f, rel], "quotient_small_m",
               ("equals", {"text": canonical_matrix_text(*circle_space(n))}))
    for kind, m_of in (("small", lambda n: rng.randint(1, 3)), ("large", lambda n: n // 2)):
        for n in plan[f"quot_{kind}"]:
            ids, rows = quasi_metric(rng, n)
            f = space((ids, rows), "quasi")
            pairs = [rng.sample(ids, 2) for _ in range(m_of(n))]
            rel = wl.file(f"rel{i}.rel", "".join(f"{p} {q}\n" for p, q in pairs))
            wl.add(["metric", "quotient", f, rel], f"quotient_{kind}_m")
    for a, b in plan["product"]:
        wl.add(["metric", "product", space(quasi_metric(rng, a), "quasi"),
                space(quasi_metric(rng, b), "quasi")], "product")
    for a, b in plan["sum"]:
        wl.add(["metric", "sum", space(quasi_metric(rng, a), "quasi"),
                space(quasi_metric(rng, b), "quasi")], "sum")
    for n in plan["ball"]:
        ids, rows = quasi_metric(rng, n)
        f = space((ids, rows), "quasi")
        eps = Fraction(rng.randint(1, 60), rng.choice((2, 3, 4, 6)))
        wl.add(["metric", "ball", f, "--at", rng.choice(ids), "--eps", str(eps),
                "--direction", rng.choice(("past", "future"))], "ball")
    wl.sizes.update({k: v for k, v in plan.items()})


_BUILDERS = {
    "few_classes": _few_classes,
    "many_classes": _many_classes,
    "pasting": _pasting,
    "metric": _metric,
}
