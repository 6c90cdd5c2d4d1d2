"""Directed homotopy of small finite categories.

Natural transformations play the role of one-step directed homotopies
between functors; two functors are homotopic when a zig-zag of
transformations connects them, and two categories are equivalent when some
functor pair composes to endofunctors homotopic to the identities.  Past
(future) contractibility in the strong sense is the existence of an initial
(terminal) object; stepwise contraction works through chains of full
subcategories that are immediate deformation retracts.

All searches are exhaustive, guarded by explicit size limits that raise
:class:`SizeGuardError` instead of degrading.  They prune, but return the
same results in the same order as a full enumeration: object maps are cut
as soon as an arrow between mapped objects has an empty hom-set to go to,
transformation components are checked against the naturality squares
they complete, and composite functors are compared by key.  Equivalence of
two thin categories (preorders) needs no search: it is decided by Stong
cores, without the size guards.

The module also carries the presentation machinery used by the van Kampen
computations: pushouts of generators-and-relations presentations along
morphisms, and their realization as explicit categories (full when the
generator graph is acyclic, length-truncated otherwise): a
:class:`dihom.fundcat.Realization` of the classes of generator words, on
an engine this module picks.  Length-changing relations are first made
length-preserving by cutting each generator into one piece per unit of
height it climbs, which needs an acyclic presentation.  Whether a morphism
preserves relations is decided on the same engine, by one sweep of the target.
"""

from __future__ import annotations

from itertools import combinations

from ._kernels import _backtrack, _isomorphic, _UnionFind
from .errors import (
    DomainError,
    EnumerationLimitError,
    InputSyntaxError,
    Record,
    SizeGuardError,
    directives,
)
from .fundcat import (
    CatPresentation,
    Realization,
    _closure,
    _picked,
    _SwapEngine,
    validate_presentation,
)

MAX_OBJECTS = 5
MAX_ARROWS = 40
MAX_FUNCTORS = 100_000
MAX_WORDS = 1_000_000


# ---------------------------------------------------------------------------
# finite categories


class FinCategory:
    """Objects, arrows with endpoints, identities, total composition table.

    ``table[(f, g)]`` is the composite "f then g" (diagrammatic order).
    Construction stores the data as given; :func:`validate_category` checks
    the laws.
    """

    def __init__(self, objects, arrows, identity, table):
        self.objects = tuple(sorted(objects))
        self.arrows = {a: (str(s), str(t)) for a, (s, t) in sorted(dict(arrows).items())}
        self.identity = dict(identity)
        self.table = dict(table)
        self._ids = frozenset(self.identity.values())
        self._hom = {}
        for a, (s, t) in self.arrows.items():
            self._hom.setdefault((s, t), []).append(a)
        self._hom = {k: tuple(sorted(v)) for k, v in self._hom.items()}

    @classmethod
    def build(cls, objects, arrows, compose):
        """Assemble from non-identity arrows and their composition table;
        identities are synthesized as ``id(<object>)`` and composition with
        them is filled in."""
        arrows = dict(arrows)
        identity = {}
        for x in objects:
            i = f"id({x})"
            if i in arrows:
                raise DomainError(f"arrow id {i} collides with the synthesized identity")
            identity[x] = i
        full = dict(arrows)
        for x, i in identity.items():
            full[i] = (x, x)
        table = dict(compose)
        for f, (s, t) in full.items():
            table[(identity[s], f)] = f
            table[(f, identity[t])] = f
        return cls(objects, full, identity, table)

    def hom(self, x, y):
        return self._hom.get((x, y), ())

    def src(self, a):
        return self.arrows[a][0]

    def tgt(self, a):
        return self.arrows[a][1]

    def compose(self, f, g):
        """The composite "f then g"."""
        try:
            return self.table[(f, g)]
        except KeyError:
            raise DomainError(f"composite of {f} then {g} is undefined") from None

    def is_identity(self, a):
        return a in self._ids

    def non_identity_arrows(self):
        return tuple(a for a in self.arrows if a not in self._ids)

    def __repr__(self):
        return f"FinCategory({len(self.objects)} objects, {len(self.arrows)} arrows)"


def validate_category(cat):
    """Exhaustive law check; returns a list of violation strings.

    On a thin category (at most one arrow per hom-set) whose endpoints and
    composition table check out, the identity and associativity laws hold
    without checking: both sides of each law are arrows of the same hom-set.
    """
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
    leaving = {}  # object -> the arrows out of it, in arrow order
    for g, (sg, _) in cat.arrows.items():
        leaving.setdefault(sg, []).append(g)
    for f, (_, tf) in cat.arrows.items():
        for g in leaving.get(tf, ()):
            if (f, g) not in cat.table:
                out.append(f"composition undefined for composable pair ({f};{g})")
    if out or _is_thin(cat):
        return out
    for x in cat.objects:
        i = cat.identity[x]
        for f in cat.arrows:
            if cat.src(f) == x and cat.table[(i, f)] != f:
                out.append(f"left identity law fails at {f}")
            if cat.tgt(f) == x and cat.table[(f, i)] != f:
                out.append(f"right identity law fails at {f}")
    for (f, g), fg in cat.table.items():
        for h in leaving.get(cat.tgt(g), ()):
            if cat.table[(fg, h)] != cat.table[(f, cat.table[(g, h)])]:
                out.append(f"associativity fails on ({f};{g};{h})")
    return out


def require_category(cat):
    violations = validate_category(cat)
    if violations:
        raise DomainError("invalid category: " + "; ".join(violations[:5]))
    return cat


def _guard(cat, max_objects=MAX_OBJECTS, max_arrows=MAX_ARROWS):
    if len(cat.objects) > max_objects:
        raise SizeGuardError(
            f"category has {len(cat.objects)} objects (guard {max_objects})"
        )
    if len(cat.arrows) > max_arrows:
        raise SizeGuardError(f"category has {len(cat.arrows)} arrows (guard {max_arrows})")
    return cat


# ---------------------------------------------------------------------------
# builders


def ordinal(n):
    """The order category on {0 < 1 < ... < n-1}; ordinal(2) is the
    directed interval, ordinal(1) the point."""
    if n < 0:
        raise DomainError("ordinal needs n >= 0")
    els = [str(i) for i in range(n)]
    return poset_category(els, [(str(i), str(j)) for i in range(n) for j in range(i, n)])


def discrete_category(names):
    return FinCategory.build(list(names), {}, {})


def poset_category(elements, le_pairs):
    """Category of a poset: one arrow per related pair.

    Elements and pairs are taken as strings; ``le_pairs`` is closed
    reflexively and transitively; antisymmetry is required.
    """
    els = sorted(set(map(str, elements)))
    index = {x: i for i, x in enumerate(els)}
    above = [[] for _ in els]
    for a, b in le_pairs:
        a, b = str(a), str(b)
        if a not in index or b not in index:
            raise DomainError(f"relation mentions unknown element {a if a not in index else b}")
        above[index[a]].append(index[b])
    masks, first = _closure(above), {}
    twins = [(first[m], j) for j, m in enumerate(masks) if first.setdefault(m, j) != j]
    if twins:  # equal masks: the least element with a twin, and its least twin
        i, j = min(twins)
        raise DomainError(f"not a poset: {els[i]} and {els[j]} are equivalent")
    up = [list(_picked(range(len(els)), m)) for m in masks]
    name = {(i, j): f"a({els[i]},{els[j]})" for i, js in enumerate(up) for j in js if i != j}
    arrows = {a: (els[i], els[j]) for (i, j), a in name.items()}
    # antisymmetry makes i, j and k distinct
    compose = {(name[i, j], name[j, k]): name[i, k] for i, j in name for k in up[j] if k != j}
    return FinCategory.build(els, arrows, compose)


def monoid_category(elements, unit, mul):
    """One-object category of a monoid; ``mul[(a, b)]`` composes a then b.
    The unit element becomes the identity arrow ``id(*)``."""
    arrows = {str(e): ("*", "*") for e in elements if e != unit}
    compose = {}
    for a in elements:
        for b in elements:
            if a == unit or b == unit:
                continue
            c = mul[(a, b)]
            compose[(str(a), str(b))] = str(c) if c != unit else "id(*)"
    return FinCategory.build(["*"], arrows, compose)


def full_subcategory(cat, objs):
    objs = sorted(set(objs))
    keep = {a for a, (s, t) in cat.arrows.items() if s in objs and t in objs}
    return FinCategory(
        objs,
        {a: cat.arrows[a] for a in keep},
        {x: cat.identity[x] for x in objs},
        {(f, g): h for (f, g), h in cat.table.items() if f in keep and g in keep},
    )


def product_category(c1, c2):
    objects = [f"({x},{y})" for x in c1.objects for y in c2.objects]
    arrows = {
        f"({a},{b})": (
            f"({c1.src(a)},{c2.src(b)})",
            f"({c1.tgt(a)},{c2.tgt(b)})",
        )
        for a in c1.arrows
        for b in c2.arrows
    }
    identity = {
        f"({x},{y})": f"({c1.identity[x]},{c2.identity[y]})"
        for x in c1.objects
        for y in c2.objects
    }
    table = {}
    for (f1, g1), h1 in c1.table.items():
        for (f2, g2), h2 in c2.table.items():
            table[(f"({f1},{f2})", f"({g1},{g2})")] = f"({h1},{h2})"
    return FinCategory(objects, arrows, identity, table)


def cylinder(cat):
    """The directed cylinder: the product with the interval category."""
    return product_category(cat, ordinal(2))


def arrow_category(cat):
    """Objects are the arrows of the input; morphisms f -> g are pairs
    (a, b) with f;b = a;g, composed componentwise."""
    objects = list(cat.arrows)
    arrows = {}
    square = {}  # morphism id -> (f, g, a, b)
    name = {}
    for f, (fx, fy) in cat.arrows.items():
        for g, (gx, gy) in cat.arrows.items():
            for a in cat.hom(fx, gx):
                for b in cat.hom(fy, gy):
                    if cat.compose(f, b) == cat.compose(a, g):
                        m = f"{f}=>{g}[{a},{b}]"
                        arrows[m] = (f, g)
                        square[m] = (f, g, a, b)
                        name[(f, g, a, b)] = m
    identity = {f: f"{f}=>{f}[{cat.identity[fx]},{cat.identity[fy]}]"
                for f, (fx, fy) in cat.arrows.items()}
    table = {}
    for m1, (f1, g1, a1, b1) in square.items():
        for m2, (f2, g2, a2, b2) in square.items():
            if f2 != g1:
                continue
            table[(m1, m2)] = name[
                (f1, g2, cat.compose(a1, a2), cat.compose(b1, b2))
            ]
    return FinCategory(objects, arrows, identity, table)


def opposite_category(cat):
    """Arrows reversed, composition transposed; an involution."""
    arrows = {a: (t, s) for a, (s, t) in cat.arrows.items()}
    table = {(g, f): h for (f, g), h in cat.table.items()}
    return FinCategory(cat.objects, arrows, cat.identity, table)


# ---------------------------------------------------------------------------
# functors and natural transformations


class FunctorMap:
    def __init__(self, domain, codomain, obj_map, arr_map):
        self.domain = domain
        self.codomain = codomain
        self.obj_map = dict(obj_map)
        self.arr_map = dict(arr_map)
        self._key = (
            tuple(sorted(self.obj_map.items())),
            tuple(sorted(self.arr_map.items())),
        )

    def obj(self, x):
        return self.obj_map[x]

    def arr(self, a):
        return self.arr_map[a]

    def __eq__(self, other):
        return isinstance(other, FunctorMap) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        os = ",".join(f"{x}>{y}" for x, y in self._key[0])
        return f"FunctorMap({os})"


def identity_functor(cat):
    return FunctorMap(cat, cat, {x: x for x in cat.objects}, {a: a for a in cat.arrows})


def constant_functor(domain, codomain, obj):
    i = codomain.identity[obj]
    return FunctorMap(
        domain, codomain, {x: obj for x in domain.objects}, {a: i for a in domain.arrows}
    )


def compose_functors(f, g):
    """Apply f, then g."""
    return FunctorMap(
        f.domain,
        g.codomain,
        {x: g.obj(f.obj(x)) for x in f.domain.objects},
        {a: g.arr(f.arr(a)) for a in f.domain.arrows},
    )


def check_functor(fun):
    """Returns a list of violation strings (empty = valid functor)."""
    out = []
    c, d = fun.domain, fun.codomain
    out += [f"object {x}: not an object of the domain" for x in fun.obj_map if x not in c.objects]
    out += [f"arrow {a}: not an arrow of the domain" for a in fun.arr_map if a not in c.arrows]
    for x in c.objects:
        if fun.obj_map.get(x) not in d.objects:
            out.append(f"object {x}: image missing or not an object")
    for a, (s, t) in c.arrows.items():
        fa = fun.arr_map.get(a)
        if fa is None or fa not in d.arrows:
            out.append(f"arrow {a}: image missing")
            continue
        if d.arrows[fa] != (fun.obj_map.get(s), fun.obj_map.get(t)):
            out.append(f"arrow {a}: image {fa} has wrong endpoints")
    if out:
        return out
    for x in c.objects:
        if fun.arr(c.identity[x]) != d.identity[fun.obj(x)]:
            out.append(f"identity of {x} not preserved")
    for (f, g), h in c.table.items():
        if d.compose(fun.arr(f), fun.arr(g)) != fun.arr(h):
            out.append(f"composition ({f};{g}) not preserved")
    return out


class NatTransf:
    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = dict(components)
        self._key = (source._key, target._key, tuple(sorted(self.components.items())))

    def component(self, x):
        return self.components[x]

    def __eq__(self, other):
        return isinstance(other, NatTransf) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        cs = ",".join(f"{x}:{a}" for x, a in sorted(self.components.items()))
        return f"NatTransf({cs})"


def _nat_search(f, g, fixed=None, find_all=True):
    """Natural transformations f -> g: components chosen object by object
    (in object order, each over its hom-set in order), a candidate at x
    checked against the naturality squares of the arrows whose later
    endpoint is x, in arrow order."""
    if f.domain is not g.domain or f.codomain is not g.codomain:
        if (f.domain.objects, f.domain.arrows) != (g.domain.objects, g.domain.arrows) or (
            f.codomain.objects,
            f.codomain.arrows,
        ) != (g.codomain.objects, g.codomain.arrows):
            raise DomainError("functors are not parallel")
    c, d = f.domain, f.codomain
    fixed = fixed or {}
    cands = []
    for x in c.objects:
        cands.append((fixed[x],) if x in fixed else d.hom(f.obj(x), g.obj(x)))
        if not cands[-1]:
            return []
    pos = {x: i for i, x in enumerate(c.objects)}
    squares = [[] for _ in c.objects]
    for a, (s, t) in c.arrows.items():
        i, j = pos[s], pos[t]
        squares[max(i, j)].append((f.arr(a), i, j, g.arr(a)))
    compose = d.compose

    def natural(k, comp):
        for fa, s, t, ga in squares[k]:
            if compose(fa, comp[t]) != compose(comp[s], ga):
                return False
        return True

    found = []
    for comp in _backtrack(cands, natural):
        found.append(NatTransf(f, g, zip(c.objects, comp)))
        if not find_all:
            break
    return found


def nat_transformations(f, g):
    """All natural transformations f -> g, in deterministic order."""
    return _nat_search(f, g, find_all=True)


def exists_nat_transformation(f, g, fixed=None):
    return bool(_nat_search(f, g, fixed=fixed, find_all=False))


def all_functors(c, d, max_objects=MAX_OBJECTS, max_arrows=MAX_ARROWS,
                 max_functors=MAX_FUNCTORS):
    """Every functor c -> d, by exhaustive search with composition pruning."""
    _guard(c, max_objects, max_arrows)
    _guard(d, max_objects, max_arrows)
    results = []
    for f in _functor_search(c, d, {}, {}, d.objects):
        results.append(f)
        if len(results) > max_functors:
            raise EnumerationLimitError(f"more than {max_functors} functors enumerated")
    return results


def _functor_search(c, d, obj_preset, arr_preset, images):
    """Yield every functor c -> d that extends the given object and arrow
    images, in one depth-first run: the other objects over ``images``, then
    the non-identity arrows in sorted order over the matching hom-sets of d.
    An object map is cut once an arrow between mapped objects has nowhere
    to go, an arrow map once a composition-table entry fails."""
    free = [x for x in c.objects if x not in obj_preset]
    m, depth = len(free), {x: k for k, x in enumerate(free)}
    arrows = sorted(c.non_identity_arrows())
    # the free arrows whose hom-set is checked once their later free
    # endpoint is mapped (-1: both endpoints preset)
    links = [[] for _ in range(m + 1)]
    for a in arrows:
        if a not in arr_preset:
            s, t = c.arrows[a]
            links[max(depth.get(s, -1), depth.get(t, -1))].append((s, t))
    linked, omap = set(d.arrows.values()), dict(obj_preset)
    if not all((omap[s], omap[t]) in linked for s, t in links[-1]):
        return
    # the depth at which each arrow's image is set: identities and presets
    # are set with the last object
    level = dict.fromkeys([*c.identity.values(), *arr_preset], -1)
    level.update((a, k) for k, a in enumerate(arrows) if a not in arr_preset)
    # the composition-table entries to check once arrows[k] is mapped: those
    # it takes part in whose arrows are all mapped by then
    entries = {}
    for (u, v), w in c.table.items():
        for a in {u, v, w}:
            entries.setdefault(a, []).append((u, v, w))
    checks = [
        [e for e in entries.get(a, ()) if all(level.get(x, len(arrows)) <= k for x in e)]
        for k, a in enumerate(arrows)
    ]
    options = [images] * m + [(arr_preset[a],) if a in arr_preset else () for a in arrows]
    ends = [(k, *c.arrows[a]) for k, a in enumerate(arrows, m) if a not in arr_preset]
    amap, table = {}, d.table

    def place():  # all objects mapped: the identities, presets and arrow options follow
        amap.update({c.identity[x]: d.identity[omap[x]] for x in c.objects})
        amap.update(arr_preset)
        for k, s, t in ends:
            options[k] = d.hom(omap[s], omap[t])

    def fits(k, chosen):
        if k < m:
            omap[free[k]] = chosen[k]
            for s, t in links[k]:
                if (omap[s], omap[t]) not in linked:
                    return False
            if k == m - 1:
                place()
            return True
        i = k - m  # amap keeps deeper arrows' stale images; checks[i] never reads them
        amap[arrows[i]] = chosen[k]
        for u, v, w in checks[i]:
            if table.get((amap[u], amap[v])) != amap[w]:
                return False
        return True

    if not m:
        place()
    for _ in _backtrack(options, fits):
        yield FunctorMap(c, d, omap, amap)


# ---------------------------------------------------------------------------
# directed homotopy of functors and categories


class _Components:
    """Zig-zag components of a list of parallel functors, looked up by
    ``FunctorMap._key``: pairs (i, j), i < j, are tested for a natural
    transformation either way unless already joined."""

    def __init__(self, functors):
        self.index = {f._key: i for i, f in enumerate(functors)}
        self.uf = _UnionFind(len(functors))
        find = self.uf.find
        for i, fi in enumerate(functors):
            ri = find(i)
            for j in range(i + 1, len(functors)):
                rj = find(j)
                if ri == rj:
                    continue
                fj = functors[j]
                if exists_nat_transformation(fi, fj) or exists_nat_transformation(fj, fi):
                    self.uf.union(ri, rj)
                    ri = min(ri, rj)

    def root(self, key):
        return self.uf.find(self.index[key])


def dhomotopic_functors(f, g, **guards):
    """Zig-zag reachability of g from f through natural transformations,
    decided on the graph of all parallel functors."""
    functors = all_functors(f.domain, f.codomain, **guards)
    comps = _Components(functors)
    if f._key not in comps.index or g._key not in comps.index:
        raise DomainError("functor is not valid for the given categories")
    return comps.root(f._key) == comps.root(g._key)


def _composite_key(f, g):
    """``compose_functors(f, g)._key``, read off the keys of f and g."""
    objs, arrs = f._key
    return (
        tuple((x, g.obj_map[y]) for x, y in objs),
        tuple((a, g.arr_map[b]) for a, b in arrs),
    )


def equivalence_witness(c, d, **guards):
    """A pair (f, g) with both composites zig-zag homotopic to the
    identities, or None; pairs are tried f-major in search order."""
    fs = all_functors(c, d, **guards)
    gs = all_functors(d, c, **guards)
    comp_c = _Components(all_functors(c, c, **guards))
    comp_d = _Components(all_functors(d, d, **guards))
    id_c = comp_c.root(identity_functor(c)._key)
    id_d = comp_d.root(identity_functor(d)._key)
    for f in fs:
        for g in gs:
            if comp_c.root(_composite_key(f, g)) == id_c and (
                comp_d.root(_composite_key(g, f)) == id_d
            ):
                return (f, g)
    return None


def dhomotopy_equivalent(c, d, max_objects=MAX_OBJECTS, max_arrows=MAX_ARROWS,
                         max_functors=MAX_FUNCTORS):
    """Whether c and d are directed homotopy equivalent.

    When both are thin (at most one arrow per hom-set) they are preorders,
    functors are monotone maps and a transformation f -> g exists iff
    f(x) <= g(x) everywhere, so the question is whether two finite spaces
    are homotopy equivalent.  By Stong's theorem that holds iff their cores
    are isomorphic, which is decided without the object and arrow guards;
    on such a pair ``max_functors`` caps the partial maps between the cores
    tried.  Every other pair goes through :func:`equivalence_witness` with
    all three guards.
    """
    if _is_thin(c) and _is_thin(d):
        return _isomorphic(_stong_core(c), _stong_core(d), max_functors)
    return equivalence_witness(
        c, d, max_objects=max_objects, max_arrows=max_arrows, max_functors=max_functors
    ) is not None


def _is_thin(cat):
    return all(len(h) == 1 for h in cat._hom.values())


def _stong_core(cat):
    """The core of a thin category as a matrix over its sorted points, 0 where
    x <= y and None elsewhere.  Isomorphic objects are collapsed onto the
    first of their class, then beat points go until none is left: x is one
    when the points strictly below it have a maximum y (the one point of
    them with one point fewer below it than x), or dually above."""
    le = cat._hom  # the pairs (x, y) with x <= y
    points = sorted({next(y for y in cat.objects if (x, y) in le and (y, x) in le)
                     for x in cat.objects})
    above = {x: {y for y in points if y != x and (x, y) in le} for x in points}
    below = {x: {y for y in points if y != x and (y, x) in le} for x in points}

    def beat(x):
        return any(len(side[y]) == len(side[x]) - 1 for side in (below, above) for y in side[x])

    removed = True
    while removed:
        removed = False
        for x in points:
            if x in above and beat(x):
                for side, other in ((above, below), (below, above)):
                    for y in side.pop(x):
                        other[y].discard(x)
                removed = True
    return [[0 if x == y or y in up else None for y in above] for x, up in above.items()]


def _universal_object(cat, hom):
    """(flag, witness): the first object v with one arrow in hom(v, x) for
    every object x."""
    for v in cat.objects:
        if all(len(hom(v, x)) == 1 for x in cat.objects):
            return True, v
    return False, None


def is_past_contractible(cat):
    """(flag, witness): true iff the category has an initial object."""
    return _universal_object(cat, cat.hom)


def is_future_contractible(cat):
    """(flag, witness): true iff the category has a terminal object."""
    return _universal_object(cat, lambda v, x: cat.hom(x, v))


def retract_endofunctors(cat, sub_objs, strong=False):
    """Endofunctors q = inclusion∘retraction onto the full subcategory on
    ``sub_objs``, paired with their one-step direction.

    Yields (q, direction) with direction "future" for id -> q and "past"
    for q -> id; ``strong`` additionally requires the transformation to be
    an identity on the subcategory's objects.
    """
    sub = set(sub_objs)
    ident = identity_functor(cat)
    fixed = {x: cat.identity[x] for x in sub} if strong else None
    kept = {x: x for x in cat.objects if x in sub}
    inside = {a: a for a in sorted(cat.non_identity_arrows())
              if cat.src(a) in sub and cat.tgt(a) in sub}
    for q in _functor_search(cat, cat, kept, inside, sorted(sub)):
        if exists_nat_transformation(ident, q, fixed=fixed):
            yield q, "future"
        if exists_nat_transformation(q, ident, fixed=fixed):
            yield q, "past"


def contractible_in_steps(cat, n, max_objects=MAX_OBJECTS, max_arrows=MAX_ARROWS):
    """Whether a chain of <= n immediate deformation-retract steps shrinks
    the category, through full subcategories, down to a single object with
    only its identity endoarrow.  Breadth-first: level k holds the object
    sets first reached after k steps, and each set is searched from once."""
    _guard(cat, max_objects, max_arrows)
    require_category(cat)
    if n < 0:
        raise DomainError("step count must be >= 0")
    level = [frozenset(cat.objects)]
    seen = set(level)
    for steps in range(n + 1):
        if any(len(objs) == 1 and len(cat.hom(*objs, *objs)) == 1 for objs in level):
            return True
        if steps == n or not level:
            break
        reached = []
        for objs in level:
            sub_cat = full_subcategory(cat, objs)
            for size in range(1, len(objs)):
                for keep in map(frozenset, combinations(sorted(objs), size)):
                    if keep not in seen and next(retract_endofunctors(sub_cat, keep), None):
                        seen.add(keep)
                        reached.append(keep)
        level = reached
    return False


# ---------------------------------------------------------------------------
# faithfulness and cancellation


def is_faithful(fun):
    """Whether the functor is injective on every hom-set."""
    c = fun.domain
    return _cancels((c.hom(x, y) for x in c.objects for y in c.objects), fun.arr)


def _cancels(hom_sets, composite):
    """Whether no two arrows of one hom-set have the same composite."""
    for hs in hom_sets:
        seen = set()
        for f in hs:
            c = composite(f)
            if c in seen:
                return False
            seen.add(c)
    return True


def cancellable_arrows(cat):
    """Arrows that are both mono and epi, found by exhausting the table."""
    return frozenset(
        m for m, (my, mz) in cat.arrows.items()
        if _cancels((cat.hom(x, my) for x in cat.objects), lambda f: cat.compose(f, m))
        and _cancels((cat.hom(mz, z) for z in cat.objects), lambda f: cat.compose(m, f))
    )


# ---------------------------------------------------------------------------
# presentations: morphisms, pushouts, realization


class PresentationMorphism(Record):
    """Object map plus generator-to-word map between presentations."""

    __slots__ = _fields = ("source", "target", "obj_map", "gen_map")

    def obj(self, x):
        return self.obj_map[x]

    def word(self, gens):
        out = []
        for g in gens:
            out.extend(self.gen_map[g])
        return tuple(out)


def _length_preserving(pres):
    return all(len(u) == len(v) for u, v in pres.relations)


def check_presentation_morphism(morph):
    """Violations list: totality, endpoint preservation, relation preservation.
    Relations whose image words differ are decided by one class-engine sweep
    of the target from those words' start objects: up to the longest of them
    if the target's relations preserve length, else on subdivided generators,
    which needs an acyclic target (else undecided).  A target without
    relations builds nothing: distinct words are never equivalent there."""
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
    images = ((i, morph.word(u), morph.word(v)) for i, (u, v) in enumerate(src.relations))
    differ = [(i, tgt.gen_src(wu[0]), wu, wv) for i, wu, wv in images if wu != wv]
    if differ and tgt.relations:
        bound = None
        if _length_preserving(tgt):
            bound = max(len(w) for _, _, wu, wv in differ for w in (wu, wv))
        elif not tgt._engine.acyclic:
            return [f"relation {i}: preservation undecided (target is cyclic and has "
                    "length-changing relations)" for i, *_ in differ]
        real = _realize(tgt, list(dict.fromkeys(x for _, x, _, _ in differ)), bound, MAX_WORDS)
        differ = [(i, x, wu, wv) for i, x, wu, wv in differ
                  if real.class_of(x, wu) != real.class_of(x, wv)]
    return [f"relation {i}: image words are not equivalent in the target" for i, *_ in differ]


def require_morphism(morph):
    violations = check_presentation_morphism(morph)
    if violations:
        raise DomainError("ill-formed presentation morphism: " + "; ".join(violations[:5]))
    return morph


class Pushout(Record):
    __slots__ = _fields = ("presentation", "left", "right")


def pushout(p0, p1, p2, u1, u2):
    """Glue p1 and p2 along p0.

    Objects are the disjoint (1:/2:-tagged) union of p1's and p2's objects
    modulo u1(x) ~ u2(x); generators are the tagged union; relations are
    both sides' relations plus (u1(a), u2(a)) per generator a of p0.  Merged
    objects are named by their lexicographically least tag.
    """
    if u1.source is not p0 and u1.source != p0:
        raise DomainError("u1 does not start at p0")
    if u2.source is not p0 and u2.source != p0:
        raise DomainError("u2 does not start at p0")
    require_morphism(u1)
    require_morphism(u2)
    sides = (("1", p1), ("2", p2))
    # sorted, so the lowest index of a class, its root, is its least tag
    tagged = sorted(f"{tag}:{x}" for tag, p in sides for x in p.objects)
    index = {t: i for i, t in enumerate(tagged)}
    uf = _UnionFind(len(tagged))
    for x in p0.objects:
        uf.union(index[f"1:{u1.obj(x)}"], index[f"2:{u2.obj(x)}"])
    cls = {t: tagged[uf.find(i)] for t, i in index.items()}

    def tag_word(word, tag):
        return tuple(f"{tag}:{g}" for g in word)

    gens, relations = {}, []
    for tag, p in sides:
        for g, (s, t) in p.generators.items():
            gens[f"{tag}:{g}"] = (cls[f"{tag}:{s}"], cls[f"{tag}:{t}"])
        relations += [(tag_word(u, tag), tag_word(v, tag)) for u, v in p.relations]
    for a in sorted(p0.generators):
        relations.append((tag_word(u1.gen_map[a], "1"), tag_word(u2.gen_map[a], "2")))
    pres = CatPresentation(tuple(sorted(set(cls.values()))), gens, tuple(relations))
    left, right = (
        PresentationMorphism(p, pres, {x: cls[f"{tag}:{x}"] for x in p.objects},
                             {g: (f"{tag}:{g}",) for g in p.generators})
        for tag, p in sides
    )
    return Pushout(pres, left, right)


def realize_presentation(pres, bound=None, max_words=MAX_WORDS):
    """Hom-sets of a presented category, fully if the generator graph is
    acyclic, else for words up to ``bound``; ``truncated`` is set when a
    bound was given and some word of that length can still be extended.

    A :class:`dihom.fundcat.Realization` counts the classes in one sweep
    from every object that builds no word, at most ``max_words`` per
    object; its ``homs`` builds the words on first read.  Relations that
    change length (acyclic only, bound at least the longest generator word)
    make it run on :func:`_subdivided` generators, whose inner classes count.
    """
    if bound is not None and bound < 0:
        raise DomainError(f"length bound {bound} is negative")
    bad = validate_presentation(pres)
    if bad:
        raise DomainError("invalid presentation: " + "; ".join(bad[:5]))
    if bound is None and not pres._engine.acyclic:
        raise DomainError("cyclic presentation needs a length bound")
    return _realize(pres, pres.objects, bound, max_words)


def _realize(pres, sources, bound, max_words):
    """The Realization of a valid presentation by one sweep from the
    ``sources`` objects (see :func:`realize_presentation`): on its own
    engine, or on that of its subdivision when a relation changes length."""
    engine, chains = pres._engine, None
    if not _length_preserving(pres):
        heights = engine.heights
        if heights is None or bound is not None and bound < max(heights):
            raise DomainError("length-changing relation in truncated mode")
        if "_subdivision" not in vars(pres):  # kept on the presentation, as its _engine is
            chains, *sub = _subdivided(pres, heights)
            vars(pres)["_subdivision"] = chains, _SwapEngine(*sub)
        chains, engine = vars(pres)["_subdivision"]
    return Realization(engine, pres.objects, sources, bound, max_words, chains)


def _subdivided(pres, heights):
    """(chains, objects, generators, relations): ``pres`` with generator g
    cut into pieces (g, 0), (g, 1), ... through new objects (g, 1), ..., one
    per unit of height (by object number) it climbs.  A word x -> y then has
    h(y) - h(x) pieces, so relations preserve length.  Classes between the
    given objects are unchanged, as inner objects have one piece in and one
    out, and so are least members: parallel words of an acyclic graph first
    differ at two generators out of one object, ordered as their first pieces.
    """
    height = dict(zip(pres.objects, heights))
    objects, gens, chains = list(pres.objects), {}, {}
    for g, (s, t) in pres.generators.items():
        chain = chains[g] = tuple((g, k) for k in range(height[t] - height[s]))
        stops = [s, *chain[1:], t]
        objects += chain[1:]
        gens.update(zip(chain, zip(stops, stops[1:])))
    relations = [tuple(tuple(p for g in w for p in chains[g]) for w in r) for r in pres.relations]
    return chains, objects, gens, relations


# ---------------------------------------------------------------------------
# text formats


_COMPOSE_FORM = "compose wants: compose <f> <g> = <h>"
_CATEGORY_DIRECTIVES = {
    "object": (1, "object wants 1 field"),
    "arrow": (3, "arrow wants 3 fields"),
    "compose": (4, _COMPOSE_FORM),
}


def parse_category(text):
    """Category file: ``object <id>``, ``arrow <id> <src> <tgt>``,
    ``compose <f> <g> = <h>``; identities are implicit per object."""

    objects, arrows, compose = {}, {}, {}  # objects: id -> line
    arrow_line = {}
    for ln, tok in directives(text, _CATEGORY_DIRECTIVES):
        if tok[0] == "object":
            if tok[1] in objects:
                raise InputSyntaxError(f"duplicate object id {tok[1]}", ln)
            objects[tok[1]] = ln
        elif tok[0] == "arrow":
            if tok[1] in arrows:
                raise InputSyntaxError(f"duplicate arrow id {tok[1]}", ln)
            arrows[tok[1]] = (tok[2], tok[3])
            arrow_line[tok[1]] = ln
        elif tok[3] != "=":
            raise InputSyntaxError(_COMPOSE_FORM, ln)
        elif (tok[1], tok[2]) in compose:
            raise InputSyntaxError(f"duplicate compose {tok[1]} {tok[2]}", ln)
        else:
            compose[(tok[1], tok[2])] = tok[4]
    for a, ends in arrows.items():
        for x in ends:
            if x not in objects:
                raise InputSyntaxError(f"arrow {a}: endpoint {x} is not an object",
                                       arrow_line[a])
    return FinCategory.build(objects, arrows, compose)


def format_category(cat):
    """Canonical category file.

    Identities are implicit: lines composing with an identity are dropped,
    and an identity appearing as a composite is written ``id(<object>)``,
    the name the parser synthesizes.
    """
    lines = [f"object {x}" for x in cat.objects]
    for a in sorted(cat.non_identity_arrows()):
        s, t = cat.arrows[a]
        lines.append(f"arrow {a} {s} {t}")
    ids = set(cat.identity.values())
    for (f, g), h in sorted(cat.table.items()):
        if f in ids or g in ids:
            continue
        if h in ids:
            h = f"id({cat.src(h)})"
        lines.append(f"compose {f} {g} = {h}")
    return "\n".join(lines) + ("\n" if lines else "")


_REL_FORM = "rel wants: rel <word> = <word>"
_PRESENTATION_DIRECTIVES = {
    "object": (1, "object wants 1 field"),
    "gen": (3, "gen wants 3 fields"),
    "rel": (3, _REL_FORM),
}


def parse_presentation(text):
    """Presentation file: ``object <id>``, ``gen <id> <src> <tgt>``,
    ``rel <word> = <word>`` with ;-separated generator words."""

    objects, gens, rels = set(), {}, []
    for ln, tok in directives(text, _PRESENTATION_DIRECTIVES):
        if tok[0] == "object":
            if tok[1] in objects:
                raise InputSyntaxError(f"duplicate object id {tok[1]}", ln)
            objects.add(tok[1])
        elif tok[0] == "gen":
            if tok[1] in gens:
                raise InputSyntaxError(f"duplicate generator id {tok[1]}", ln)
            gens[tok[1]] = (tok[2], tok[3])
        elif tok[2] != "=":
            raise InputSyntaxError(_REL_FORM, ln)
        else:
            rels.append((tuple(tok[1].split(";")), tuple(tok[3].split(";"))))
    pres = CatPresentation(tuple(sorted(objects)), gens, tuple(rels))
    bad = validate_presentation(pres)
    if bad:
        raise InputSyntaxError("; ".join(bad))
    return pres


def format_presentation(pres):
    lines = [f"object {x}" for x in sorted(pres.objects)]
    for g, (s, t) in sorted(pres.generators.items()):
        lines.append(f"gen {g} {s} {t}")
    rels = sorted(tuple(sorted((u, v))) for u, v in pres.relations)
    for u, v in rels:
        lines.append(f"rel {';'.join(u)} = {';'.join(v)}")
    return "\n".join(lines) + ("\n" if lines else "")


_FUNCTOR_DIRECTIVES = {
    "domain": (1, "domain wants 1 field"),
    "codomain": (1, "codomain wants 1 field"),
    "object": (2, "object wants 2 fields"),
    "arrow": (2, "arrow wants 2 fields"),
}


def parse_functor(text, resolve):
    """Functor file: ``domain <ref>``, ``codomain <ref>``, then
    ``object <x> <Fx>`` and ``arrow <f> <Ff>`` lines; identity images are
    implied.  ``resolve`` maps a category reference to a FinCategory."""

    dom = cod = None
    omap, amap, keys = {}, {}, set()
    for ln, tok in directives(text, _FUNCTOR_DIRECTIVES):
        key = " ".join(tok[:-1])  # domain, codomain, object <x> or arrow <f>
        if key in keys:
            raise InputSyntaxError(f"duplicate {key}", ln)
        keys.add(key)
        if tok[0] == "domain":
            dom = resolve(tok[1])
        elif tok[0] == "codomain":
            cod = resolve(tok[1])
        elif tok[0] == "object":
            omap[tok[1]] = tok[2]
        else:
            amap[tok[1]] = tok[2]
    if dom is None or cod is None:
        raise InputSyntaxError("functor file needs domain and codomain lines")
    for x in dom.objects:
        if x not in omap:
            raise InputSyntaxError(f"functor misses object {x}")
    for x, fx in omap.items():
        if x in dom.objects and fx in cod.objects:
            amap.setdefault(dom.identity[x], cod.identity[fx])
    return FunctorMap(dom, cod, omap, amap)


_MORPHISM_DIRECTIVES = {
    "object": (2, "object wants 2 fields"),
    "gen": (2, "gen wants 2 fields"),
}


def parse_presentation_morphism(text, source, target):
    """Morphism file: ``object <x> <image>``, ``gen <g> <word>`` with a
    ;-separated nonempty image word."""

    omap, gmap = {}, {}
    for ln, (kind, key, image) in directives(text, _MORPHISM_DIRECTIVES):
        if key in (omap if kind == "object" else gmap):
            raise InputSyntaxError(f"duplicate {kind} {key}", ln)
        if kind == "object":
            omap[key] = image
        else:
            gmap[key] = tuple(image.split(";"))
    return PresentationMorphism(source, target, omap, gmap)
