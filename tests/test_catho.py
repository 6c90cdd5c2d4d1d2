import hashlib
import math
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from itertools import count, islice, product
from pathlib import Path

import pytest

from dihom import catho as ct
from dihom import fundcat as fc
from dihom import gridscene as gs
from dihom import precubical as pc
from dihom.errors import DomainError, EnumerationLimitError, InputSyntaxError, SizeGuardError
import oracles
from oracles import (
    ComponentsOracle,
    all_component_families,
    contractible_in_steps_oracle,
    contractible_steps_oracle,
    equivalence_witness_oracle,
    functor_maps,
    functor_search_oracle,
    is_natural,
    nat_search_oracle,
    random_category,
    retract_step_possible,
    strong_contraction_objects,
)

ONE, TWO, THREE = ct.ordinal(1), ct.ordinal(2), ct.ordinal(3)


def ordered_circle_category():
    return ct.FinCategory.build(["0", "1"], {"a": ("0", "1"), "b": ("0", "1")}, {})


def stairway_poset():
    # zig-zag order x0 >= x1 <= x2 >= x3
    return ct.poset_category(
        ["x0", "x1", "x2", "x3"], [("x1", "x0"), ("x1", "x2"), ("x3", "x2")]
    )


# law checking

def test_ordinals_validate():
    for n in range(5):
        assert ct.validate_category(ct.ordinal(n)) == []


def test_validate_flags_broken_associativity():
    # one object, arrows p, q with a deliberately non-associative table
    arrows = {"p": ("*", "*"), "q": ("*", "*")}
    compose = {
        ("p", "p"): "q",
        ("p", "q"): "p",
        ("q", "p"): "q",
        ("q", "q"): "q",
    }
    cat = ct.FinCategory.build(["*"], arrows, compose)
    bad = ct.validate_category(cat)
    assert any("associativity" in v for v in bad)


def test_validate_flags_missing_composite():
    cat = ct.FinCategory.build(
        ["0", "1", "2"], {"f": ("0", "1"), "g": ("1", "2")}, {}
    )
    assert any("undefined" in v for v in ct.validate_category(cat))


def test_check_functor_flags_dropped_identity():
    fun = ct.FunctorMap(
        TWO,
        THREE,
        {"0": "0", "1": "1"},
        {"a(0,1)": "a(0,1)", TWO.identity["0"]: "id(0)"},
    )
    assert any("image missing" in v for v in ct.check_functor(fun))


def test_check_functor_flags_identity_violation():
    fun = ct.FunctorMap(
        TWO,
        THREE,
        {"0": "0", "1": "1"},
        {"a(0,1)": "a(0,1)", TWO.identity["0"]: "id(0)", TWO.identity["1"]: "id(2)"},
    )
    assert ct.check_functor(fun)


def test_check_functor_flags_a_missing_object_image():
    fun = ct.FunctorMap(TWO, THREE, {"0": "0"}, {a: a for a in TWO.arrows})
    assert ct.check_functor(fun) == [
        "object 1: image missing or not an object",
        "arrow a(0,1): image a(0,1) has wrong endpoints",
        "arrow id(1): image id(1) has wrong endpoints",
    ]


# opposite

def test_opposite_reverses_interval():
    op = ct.opposite_category(TWO)
    assert op.arrows["a(0,1)"] == ("1", "0")
    assert ct.validate_category(op) == []


def test_opposite_is_involution():
    for cat in (THREE, ordered_circle_category(), stairway_poset()):
        op2 = ct.opposite_category(ct.opposite_category(cat))
        assert op2.arrows == cat.arrows and op2.table == cat.table


def test_opposite_swaps_hom_sets():
    cat = ordered_circle_category()
    op = ct.opposite_category(cat)
    for x in cat.objects:
        for y in cat.objects:
            assert cat.hom(x, y) == op.hom(y, x)


# natural transformations

def test_identity_functor_has_one_endotransformation():
    ident = ct.identity_functor(TWO)
    transfs = ct.nat_transformations(ident, ident)
    assert len(transfs) == 1
    assert all(TWO.is_identity(a) for a in transfs[0].components.values())


def test_transformations_compare_and_hash_by_functors_and_components():
    ident = ct.identity_functor(TWO)
    (t,) = ct.nat_transformations(ident, ident)
    same = ct.NatTransf(ct.identity_functor(TWO), ident, reversed(t.components.items()))
    assert same == t and hash(same) == hash(t) and len({t, same}) == 1
    const = ct.constant_functor(TWO, TWO, "1")
    (u,) = ct.nat_transformations(ident, const)
    assert u != t and t != t.components and len({t, u}) == 2


def test_faces_of_the_interval_have_one_transformation():
    face_minus = ct.constant_functor(ONE, TWO, "0")
    face_plus = ct.constant_functor(ONE, TWO, "1")
    found = ct.nat_transformations(face_minus, face_plus)
    assert len(found) == 1
    assert found[0].component("0") == "a(0,1)"
    assert ct.nat_transformations(face_plus, face_minus) == []


def test_transformations_are_natural_by_oracle():
    cat = stairway_poset()
    fs = ct.all_functors(cat, TWO)
    rng = random.Random(3)
    for _ in range(10):
        f, g = rng.choice(fs), rng.choice(fs)
        for t in ct.nat_transformations(f, g):
            assert is_natural(TWO, f, g, t.components)
        # oracle agreement on the count
        oracle = sum(
            1 for comps in all_component_families(TWO, f, g)
            if is_natural(TWO, f, g, comps)
        )
        assert oracle == len(ct.nat_transformations(f, g))


# functor homotopy

def test_constants_into_interval_are_homotopic():
    c0 = ct.constant_functor(ONE, TWO, "0")
    c1 = ct.constant_functor(ONE, TWO, "1")
    assert ct.dhomotopic_functors(c0, c1)


def test_everything_is_homotopic_under_a_terminal_object():
    fs = ct.all_functors(TWO, THREE)
    terminal_const = ct.constant_functor(TWO, THREE, "2")
    for f in fs:
        # oracle: the canonical cone to the terminal constant is natural
        comps = {x: THREE.hom(f.obj(x), "2")[0] for x in TWO.objects}
        assert is_natural(THREE, f, terminal_const, comps)
        assert ct.dhomotopic_functors(f, terminal_const)
    for f in fs:
        for g in fs:
            assert ct.dhomotopic_functors(f, g)


def test_constants_on_discrete_pair_are_not_homotopic():
    d2 = ct.discrete_category(["a", "b"])
    ca = ct.constant_functor(d2, d2, "a")
    cb = ct.constant_functor(d2, d2, "b")
    assert not ct.dhomotopic_functors(ca, cb)


def test_dhomotopic_functors_refuses_a_map_that_is_not_a_functor():
    swap = ct.FunctorMap(TWO, THREE, {"0": "1", "1": "0"}, {})
    const = ct.constant_functor(TWO, THREE, "0")
    for f, g in ((swap, const), (const, swap)):
        with pytest.raises(DomainError, match="^functor is not valid for the given categories$"):
            ct.dhomotopic_functors(f, g)


def test_non_parallel_functors_are_rejected():
    f = ct.constant_functor(ONE, TWO, "0")
    g = ct.constant_functor(ONE, THREE, "0")
    with pytest.raises(DomainError):
        ct.nat_transformations(f, g)


# contractibility

def test_interval_contractible_both_ways():
    assert ct.is_past_contractible(TWO) == (True, "0")
    assert ct.is_future_contractible(TWO) == (True, "1")


def test_ordered_circle_category_is_not_contractible():
    cat = ordered_circle_category()
    assert ct.is_past_contractible(cat) == (False, None)
    assert ct.is_future_contractible(cat) == (False, None)


def test_point_contractible_both_ways():
    assert ct.is_past_contractible(ONE)[0]
    assert ct.is_future_contractible(ONE)[0]


def test_initial_object_matches_strong_contraction_oracle():
    rng = random.Random(11)
    for _ in range(40):
        cat = random_category(rng)
        flag, witness = ct.is_past_contractible(cat)
        oracle = strong_contraction_objects(cat)
        assert flag == bool(oracle)
        if flag:
            assert witness in oracle


def test_past_future_duality_under_opposite():
    rng = random.Random(12)
    for _ in range(25):
        cat = random_category(rng)
        assert ct.is_past_contractible(cat)[0] == ct.is_future_contractible(
            ct.opposite_category(cat)
        )[0]


# homotopy equivalence

def _rows(functors):
    """Functors as (object items, arrow items): values and dict order."""
    return [(list(f.obj_map.items()), list(f.arr_map.items())) for f in functors]


def _transformation_rows(transformations):
    return [list(t.components.items()) for t in transformations]


def _random_presets(rng, c, d):
    """Presets as the searches accept them, not only as their callers build
    them: preset arrows may land outside the hom-set of their endpoints'
    images, and the images come in shuffled order."""
    objs = [x for x in c.objects if rng.random() < 0.3]
    obj_preset = {x: rng.choice(d.objects) for x in objs}
    arrs = [a for a in sorted(c.non_identity_arrows()) if rng.random() < 0.3]
    arr_preset = {a: rng.choice(sorted(d.arrows)) for a in arrs}
    images = rng.sample(d.objects, rng.randint(1, len(d.objects)))
    return obj_preset, arr_preset, images


def _retract_oracle(cat, sub, strong):
    """retract_endofunctors spelled out on the reference searches."""
    ident = ct.identity_functor(cat)
    fixed = {x: cat.identity[x] for x in sub} if strong else None
    kept = {x: x for x in cat.objects if x in sub}
    inside = {a: a for a in sorted(cat.non_identity_arrows())
              if cat.src(a) in sub and cat.tgt(a) in sub}
    out = []
    for q in functor_search_oracle(cat, cat, kept, inside, sorted(sub)):
        if nat_search_oracle(ident, q, fixed, find_all=False):
            out.append((q, "future"))
        if nat_search_oracle(q, ident, fixed, find_all=False):
            out.append((q, "past"))
    return out


def test_pruned_searches_match_the_unpruned_references(monkeypatch):
    calls = []

    def recorded(search):
        def wrapper(f, g, fixed=None, find_all=True):
            calls.append((f._key, g._key))
            return search(f, g, fixed, find_all)
        return wrapper

    monkeypatch.setattr(ct, "_nat_search", recorded(ct._nat_search))
    monkeypatch.setattr(oracles, "nat_search_oracle", recorded(oracles.nat_search_oracle))
    rng = random.Random(20261018)
    for _ in range(160):
        c, d = random_category(rng), random_category(rng)
        fs = ct.all_functors(c, d)
        assert _rows(fs) == _rows(functor_search_oracle(c, d, {}, {}, d.objects))
        for _ in range(3):
            presets = _random_presets(rng, c, d)
            assert _rows(ct._functor_search(c, d, *presets)) == _rows(
                functor_search_oracle(c, d, *presets)
            )
        for strong in (False, True):
            sub = rng.sample(c.objects, rng.randint(1, len(c.objects)))
            got = list(ct.retract_endofunctors(c, sub, strong=strong))
            want = _retract_oracle(c, sub, strong)
            assert [(_rows([q]), way) for q, way in got] == [(_rows([q]), way) for q, way in want]
        for f, g in [(rng.choice(fs), rng.choice(fs)) for _ in range(4)] if fs else []:
            assert _transformation_rows(ct.nat_transformations(f, g)) == (
                _transformation_rows(nat_search_oracle(f, g))
            )
        ends = ct.all_functors(c, c)
        calls.clear()
        reference = ComponentsOracle(ends)
        want_calls = calls[:]
        calls.clear()
        ct._Components(ends)
        assert calls == want_calls
        for f, g in [(rng.choice(ends), rng.choice(ends)) for _ in range(4)]:
            assert ct.dhomotopic_functors(f, g) == reference.connected(f, g)
        got, want = ct.equivalence_witness(c, d), equivalence_witness_oracle(c, d)
        assert (got is None) == (want is None)
        if got is not None:
            assert _rows(got) == _rows(want)


def test_ordinals_are_equivalent():
    assert ct.dhomotopy_equivalent(TWO, ONE)
    assert ct.dhomotopy_equivalent(THREE, TWO)


def test_point_vs_discrete_pair():
    d2 = ct.discrete_category(["a", "b"])
    # oracle: the only functor pair composes to a constant on d2, and no
    # transformation connects a constant to the identity on a discrete pair
    pairs = functor_maps(ONE, d2)
    assert len(pairs) == 2
    back = functor_maps(d2, ONE)
    assert len(back) == 1
    assert not ct.dhomotopy_equivalent(ONE, d2)


def test_equivalence_witness_composites():
    f, g = ct.equivalence_witness(THREE, TWO)
    assert ct.check_functor(f) == [] and ct.check_functor(g) == []


def test_size_guard_fires():
    with pytest.raises(SizeGuardError):
        ct.all_functors(ct.ordinal(5), ct.ordinal(5), max_objects=4)
    with pytest.raises(SizeGuardError, match=r"^category has 15 arrows \(guard 14\)$"):
        ct.all_functors(ONE, ct.ordinal(5), max_arrows=14)


def test_functor_cap_admits_exactly_max_functors():
    count = len(ct.all_functors(TWO, THREE))
    assert count == 6 and len(ct.all_functors(TWO, THREE, max_functors=count)) == count
    with pytest.raises(EnumerationLimitError, match="^more than 5 functors enumerated$"):
        ct.all_functors(TWO, THREE, max_functors=count - 1)


def crown_order(n, tag=""):
    """The 2n-crown: minimal points a_i below maximal points b_i, b_(i+1)."""
    els = [f"{tag}a{i}" for i in range(n)] + [f"{tag}b{i}" for i in range(n)]
    le = [(f"{tag}a{i}", f"{tag}b{j}") for i in range(n) for j in (i, (i + 1) % n)]
    return els, le


def crown(n):
    return ct.poset_category(*crown_order(n))


def random_poset(rng, n):
    els = [f"q{i}" for i in rng.sample(range(n), n)]
    le = [(els[i], els[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return ct.poset_category(els, le)


def random_preorder(rng, n):
    """A thin category on a random preorder, isomorphic objects allowed."""
    objs = [f"p{i}" for i in range(n)]
    le = {(x, x) for x in objs}
    le.update((x, y) for x in objs for y in objs if rng.random() < 0.3)
    for k in objs:
        for i in objs:
            for j in objs:
                if (i, k) in le and (k, j) in le:
                    le.add((i, j))
    return thin_category(objs, le)


def thin_category(objs, le):
    """The thin category of a preorder ``le``, a reflexive and transitive
    set of pairs of ``objs``."""

    def arrow(x, y):
        return f"id({x})" if x == y else f"a({x},{y})"

    arrows = {arrow(x, y): (x, y) for x, y in le if x != y}
    compose = {
        (arrow(x, y), arrow(y, z)): arrow(x, z)
        for x, y in le
        for y2, z in le
        if y == y2 and x != y and y != z
    }
    return ct.FinCategory.build(objs, arrows, compose)


def test_thin_equivalence_by_cores_matches_the_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a thin pair went through the functor search")

    monkeypatch.setattr(ct, "equivalence_witness", no_search)
    rng = random.Random(20261018)
    empty = ct.discrete_category([])
    cats = [empty, ONE]
    for _ in range(60):
        cats.append(random_poset(rng, rng.randint(1, 4)))
        cats.append(random_preorder(rng, rng.randint(1, 4)))
    for cat in cats:
        assert ct.validate_category(cat) == []
    pairs = [(empty, cat) for cat in cats[:30]] + [(cat, empty) for cat in cats[:4]]
    pairs += [(rng.choice(cats), rng.choice(cats)) for _ in range(160)]
    answers = []
    for c, d in pairs:
        want = equivalence_witness_oracle(c, d) is not None
        assert ct.dhomotopy_equivalent(c, d) == want, (c.arrows, d.arrows)
        answers.append(want)
    assert 40 < sum(answers) < len(answers) - 40


def core_sets(cat):
    """``catho._stong_core(cat)`` as ``(above, below)``: the sets of points
    strictly above and strictly below each point, points named by index."""
    m = ct._stong_core(cat)
    points = range(len(m))
    above = {x: {y for y in points if y != x and m[x][y] == 0} for x in points}
    below = {x: {y for y in points if y != x and m[y][x] == 0} for x in points}
    return above, below


def renamed_thin(rng, cat):
    """``cat`` (thin) with its objects renamed at random, so its core's
    points come in another order."""
    objs = list(cat.objects)
    name = dict(zip(objs, (f"r{i}" for i in rng.sample(range(len(objs)), len(objs)))))
    le = {(name[x], name[y]) for x in objs for y in objs if cat.hom(x, y)}
    return thin_category(sorted(name.values()), le)


def crowns(rng, sizes):
    """Disjoint crowns, renamed at random: a core with two keys, one for
    every minimal point and one for every maximal point, so that the search
    backtracks."""
    orders = [crown_order(n, f"c{i}") for i, n in enumerate(sizes)]
    return renamed_thin(rng, ct.poset_category(*(sum(part, []) for part in zip(*orders))))


def test_thin_equivalence_matches_the_poset_isomorphism_search():
    # the shared isomorphism search against the poset search it replaced,
    # on the same cores: the same answer, or the same cap error, per cap
    rng = random.Random(20261020)
    empty = ct.discrete_category([])
    cats = [empty, ONE] + [crown(n) for n in (2, 3, 4)]
    for _ in range(80):
        cats.append(random_poset(rng, rng.randint(1, 7)))
        cats.append(random_preorder(rng, rng.randint(1, 5)))  # twins allowed
    pairs = [(empty, empty), (empty, ONE), (crown(3), crown(3))]
    for i in range(300):
        c = rng.choice(cats)
        if i % 3 == 0:
            d = renamed_thin(rng, c)
        elif i % 3 == 1:
            d = rng.choice([e for e in cats if len(e.objects) != len(c.objects)])
        else:
            d = rng.choice(cats)
        pairs.append((c, d))
    for sizes, other in [((4, 2), (3, 3)), ((2, 2, 2), (3, 3)), ((2, 3), (3, 2)),
                         ((4, 4), (2, 3, 3))]:
        pairs += [(crowns(rng, sizes), crowns(rng, other)) for _ in range(4)]

    def outcome(search, *args, **kwargs):
        try:
            return search(*args, **kwargs)
        except EnumerationLimitError as exc:
            return str(exc)

    seen = Counter()
    for c, d in pairs:
        cores = core_sets(c), core_sets(d)
        for cap in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, None):
            guard = {} if cap is None else {"max_functors": cap}
            want = outcome(oracles.isomorphic_posets_oracle, *cores, *guard.values())
            got = outcome(ct.dhomotopy_equivalent, c, d, **guard)
            assert got == want, (c.arrows, d.arrows, cap)
            seen[want if isinstance(want, bool) else "cap"] += 1
    assert min(seen[True], seen[False], seen["cap"]) > 200, seen


def saturating_monoid():
    """{1, e} with e e = e: a one-object category equivalent to the point."""
    mul = {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"}
    return ct.monoid_category(["1", "e"], "1", mul)


def test_mixed_pairs_keep_the_search(monkeypatch):
    z2 = ct.monoid_category(["0", "1"], "0", {(a, b): str((int(a) + int(b)) % 2)
                                              for a in "01" for b in "01"})
    searched = []
    witness = ct.equivalence_witness
    monkeypatch.setattr(ct, "equivalence_witness",
                        lambda c, d, **g: searched.append(1) or witness(c, d, **g))
    assert ct.dhomotopy_equivalent(saturating_monoid(), ONE)
    assert ct.dhomotopy_equivalent(ONE, saturating_monoid())
    assert not ct.dhomotopy_equivalent(z2, ONE)
    assert not ct.dhomotopy_equivalent(ONE, z2)
    assert len(searched) == 4
    with pytest.raises(SizeGuardError):
        ct.dhomotopy_equivalent(ct.ordinal(6), z2)


def test_thin_pairs_above_the_guard():
    assert ct.dhomotopy_equivalent(ct.ordinal(8), ONE)
    assert not ct.dhomotopy_equivalent(crown(2), ONE)
    # weakly equivalent (both model the circle) but not homotopy equivalent
    assert not ct.dhomotopy_equivalent(crown(3), crown(2))
    # the 4-crown with beat points hung on: c0 < c1 < a0, b0 < d, a1 < e
    padded = ct.poset_category(
        ["a0", "a1", "b0", "b1", "c0", "c1", "d", "e"],
        [("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1"),
         ("c0", "c1"), ("c1", "a0"), ("b0", "d"), ("a1", "e")],
    )
    assert ct.dhomotopy_equivalent(padded, crown(2))
    assert ct.dhomotopy_equivalent(crown(2), padded)
    assert not ct.dhomotopy_equivalent(padded, ONE)
    # both cores have four points below two and four above two
    (els1, le1), (els2, le2) = crown_order(2, "x"), crown_order(2, "y")
    two_circles = ct.poset_category(els1 + els2, le1 + le2)
    assert not ct.dhomotopy_equivalent(crown(4), two_circles)
    assert ct.dhomotopy_equivalent(two_circles, two_circles)
    assert ct.dhomotopy_equivalent(crown(4), ct.poset_category(*crown_order(4, "z")))
    with pytest.raises(EnumerationLimitError):
        ct.dhomotopy_equivalent(crown(3), crown(3), max_functors=3)
    # the object and arrow guards bind only the search; a misspelled guard fails
    assert ct.dhomotopy_equivalent(crown(3), crown(3), max_objects=1, max_arrows=1)
    with pytest.raises(TypeError):
        ct.dhomotopy_equivalent(crown(3), crown(3), max_functor=3)


# step contractibility

def test_point_in_zero_steps():
    assert ct.contractible_in_steps(ONE, 0)


def test_interval_in_one_step():
    assert ct.contractible_in_steps(TWO, 1)


def test_stairway_needs_exactly_two_steps():
    st = stairway_poset()
    assert ct.contractible_in_steps(st, 2)
    assert not ct.contractible_in_steps(st, 1)
    assert contractible_steps_oracle(st, ct.full_subcategory, 2)
    assert not contractible_steps_oracle(st, ct.full_subcategory, 1)


def test_contractible_in_steps_matches_the_chain_oracle():
    rng = random.Random(20261019)
    verdicts = set()
    for _ in range(150):
        cat = random_category(rng)
        for n in range(4):
            got = ct.contractible_in_steps(cat, n)
            assert got == contractible_steps_oracle(cat, ct.full_subcategory, n)
            verdicts.add((n, got))
    assert {(0, False), (1, True), (1, False), (3, True)} <= verdicts



def test_breadth_first_steps_match_the_recursive_search():
    # up to 5 objects, so some categories need exactly two steps
    rng = random.Random(20261018)
    first_true = set()
    for _ in range(500):
        cat = random_category(rng, max_objects=5)
        got = [ct.contractible_in_steps(cat, n) for n in range(5)]
        assert got == [contractible_in_steps_oracle(cat, n) for n in range(5)]
        assert got == [contractible_steps_oracle(cat, ct.full_subcategory, n) for n in range(5)]
        first_true.add(got.index(True) if True in got else None)
    assert first_true == {0, 1, 2, None}


def test_step_contraction_guards_run_in_order():
    big_and_broken = ct.FinCategory([f"x{i}" for i in range(6)], {}, {}, {})
    with pytest.raises(SizeGuardError):
        ct.contractible_in_steps(big_and_broken, -1)
    with pytest.raises(DomainError, match="invalid category"):
        ct.contractible_in_steps(ct.FinCategory(["x"], {}, {}, {}), -1)
    with pytest.raises(DomainError, match="step count must be >= 0"):
        ct.contractible_in_steps(TWO, -1)
    assert not ct.contractible_in_steps(ct.discrete_category([]), 3)
    assert not ct.contractible_in_steps(ct.discrete_category(["p", "q"]), 4)

def test_retract_steps_match_oracle():
    st = stairway_poset()
    for keep in [("x1", "x2", "x3"), ("x1", "x2"), ("x2",), ("x0", "x3")]:
        found = any(True for _ in ct.retract_endofunctors(st, keep))
        assert found == retract_step_possible(st, keep)


def test_strong_retract_inclusion_is_full_embedding():
    st = stairway_poset()
    sub_objs = ("x1", "x2", "x3")
    strong = list(ct.retract_endofunctors(st, sub_objs, strong=True))
    assert strong
    sub = ct.full_subcategory(st, sub_objs)
    inclusion = ct.FunctorMap(
        sub, st, {x: x for x in sub.objects}, {a: a for a in sub.arrows}
    )
    assert ct.check_functor(inclusion) == []
    assert ct.is_faithful(inclusion)
    for x in sub.objects:
        for y in sub.objects:
            assert len(sub.hom(x, y)) == len(st.hom(x, y))  # fullness


# cylinder and arrow categories

def test_cylinder_of_point_is_interval():
    cyl = ct.cylinder(ONE)
    assert ct.validate_category(cyl) == []
    assert len(cyl.objects) == 2
    assert len(cyl.non_identity_arrows()) == 1
    (a,) = cyl.non_identity_arrows()
    assert cyl.arrows[a] == ("(0,0)", "(0,1)")


def test_arrow_category_of_point():
    ac = ct.arrow_category(ONE)
    assert len(ac.objects) == 1
    assert ct.validate_category(ac) == []


def test_arrow_category_of_interval_has_three_objects():
    ac = ct.arrow_category(TWO)
    assert len(ac.objects) == 3
    assert ct.validate_category(ac) == []


def test_cylinder_validates_on_bigger_input():
    cyl = ct.cylinder(THREE)
    assert ct.validate_category(cyl) == []
    assert len(cyl.objects) == 6


# faithfulness and cancellation

def test_inclusion_is_faithful():
    inc = ct.FunctorMap(
        TWO,
        THREE,
        {"0": "0", "1": "1"},
        {
            TWO.identity["0"]: THREE.identity["0"],
            TWO.identity["1"]: THREE.identity["1"],
            "a(0,1)": "a(0,1)",
        },
    )
    assert ct.check_functor(inc) == []
    assert ct.is_faithful(inc)


def test_collapse_of_parallel_arrows_is_not_faithful():
    oc = ordered_circle_category()
    collapse = ct.FunctorMap(
        oc,
        TWO,
        {"0": "0", "1": "1"},
        {
            oc.identity["0"]: TWO.identity["0"],
            oc.identity["1"]: TWO.identity["1"],
            "a": "a(0,1)",
            "b": "a(0,1)",
        },
    )
    assert ct.check_functor(collapse) == []
    assert not ct.is_faithful(collapse)


def test_poset_arrows_are_all_cancellable():
    for cat in (THREE, stairway_poset()):
        assert ct.cancellable_arrows(cat) == frozenset(cat.arrows)


def test_non_cancellable_idempotent():
    # monoid {1, e} with e*e = e: e is neither mono nor epi
    cat = ct.monoid_category(["1", "e"], "1", {("e", "e"): "e"})
    assert ct.validate_category(cat) == []
    assert "e" not in ct.cancellable_arrows(cat)


def test_cancellable_arrows_match_the_definition_on_seeded_categories():
    rng = random.Random(9)
    for _ in range(60):
        cat = random_category(rng)

        def injective(hom_sets, composite):
            return all(composite(f) != composite(g)
                       for hs in hom_sets for f in hs for g in hs if f != g)

        expected = {
            m for m, (my, mz) in cat.arrows.items()
            if injective([cat.hom(x, my) for x in cat.objects], lambda f: cat.compose(f, m))
            and injective([cat.hom(mz, z) for z in cat.objects], lambda f: cat.compose(m, f))
        }
        assert ct.cancellable_arrows(cat) == expected


def test_cancellable_component_lemma_on_seeded_instances():
    # transformations with cancellable components preserve faithfulness
    rng = random.Random(20240818)
    checked = 0
    while checked < 25:
        d = random_category(rng, max_objects=3)
        c = random_category(rng, max_objects=2)
        cancel = ct.cancellable_arrows(d)
        fs = ct.all_functors(c, d)
        for h in fs:
            for k in fs:
                for t in ct.nat_transformations(h, k):
                    if all(a in cancel for a in t.components.values()):
                        assert ct.is_faithful(h) == ct.is_faithful(k)
                        checked += 1


def test_equivalence_preserves_faithfulness_under_cancellation():
    # domain with all arrows cancellable: any equivalence member is faithful
    for c, d in [(TWO, ONE), (THREE, TWO), (TWO, THREE)]:
        assert ct.cancellable_arrows(c) == frozenset(c.arrows)
        witness = ct.equivalence_witness(c, d)
        assert witness is not None
        f, _g = witness
        assert ct.is_faithful(f)


# pushouts and realization

def interval_pres():
    return fc.presentation_of(pc.model("interval"))


def test_pushout_of_intervals_is_ordered_circle():
    p0 = fc.CatPresentation(("p", "q"), {}, ())
    itv = interval_pres()
    u = ct.PresentationMorphism(p0, itv, {"p": "0", "q": "1"}, {})
    result = ct.pushout(p0, itv, itv, u, u)
    pres = result.presentation
    assert len(pres.objects) == 2
    assert len(pres.generators) == 2
    assert pres.relations == ()
    gens = sorted(pres.generators.values())
    assert gens[0] == gens[1]  # two parallel generators


def test_pushout_of_circles_is_wedge():
    p0 = fc.CatPresentation(("z",), {}, ())
    circ = fc.presentation_of(pc.model("directed_circle"))
    u = ct.PresentationMorphism(p0, circ, {"z": "*"}, {})
    result = ct.pushout(p0, circ, circ, u, u)
    assert len(result.presentation.objects) == 1
    assert len(result.presentation.generators) == 2


def test_pushout_along_identity_presents_the_same_category():
    itv = interval_pres()
    ident = ct.PresentationMorphism(
        itv, itv, {x: x for x in itv.objects}, {g: (g,) for g in itv.generators}
    )
    result = ct.pushout(itv, itv, itv, ident, ident)
    real = ct.realize_presentation(result.presentation)
    base = ct.realize_presentation(itv)
    for x in itv.objects:
        for y in itv.objects:
            assert base.hom_count(x, y) == real.hom_count(
                result.left.obj(x), result.left.obj(y)
            )


def test_pushout_rejects_ill_formed_morphism():
    p0 = fc.CatPresentation(("p",), {}, ())
    itv = interval_pres()
    bad = ct.PresentationMorphism(p0, itv, {"p": "nope"}, {})
    with pytest.raises(DomainError):
        ct.pushout(p0, itv, itv, bad, bad)
    good = ct.PresentationMorphism(p0, itv, {"p": "0"}, {})
    other = ct.PresentationMorphism(fc.CatPresentation(("q",), {}, ()), itv, {"q": "0"}, {})
    with pytest.raises(DomainError, match="u1 does not start at p0"):
        ct.pushout(p0, itv, itv, other, good)
    with pytest.raises(DomainError, match="u2 does not start at p0"):
        ct.pushout(p0, itv, itv, good, other)


def test_morphism_relation_preservation_is_checked():
    square = fc.presentation_of(
        gs.to_precubical(gs.make_scene(1, 1, [], (0, 0), (1, 1)))
    )
    # map both generators of the ordered circle onto different routes of
    # the square: fine, they are equivalent there
    oc = fc.CatPresentation(
        ("0", "1"), {"a": ("0", "1"), "b": ("0", "1")}, ((("a",), ("b",)),)
    )
    good = ct.PresentationMorphism(
        oc,
        square,
        {"0": "v0_0", "1": "v1_1"},
        {"a": ("e0_0", "n1_0"), "b": ("n0_0", "e0_1")},
    )
    assert ct.check_presentation_morphism(good) == []
    # mapping onto a free pair of parallel routes breaks the relation
    oc2 = fc.CatPresentation(
        ("0", "1"), {"a": ("0", "1"), "b": ("0", "1")}, ((("a",), ("b",)),)
    )
    free = fc.CatPresentation(("0", "1"), {"a": ("0", "1"), "b": ("0", "1")}, ())
    bad = ct.PresentationMorphism(oc2, free, {"0": "0", "1": "1"},
                                  {"a": ("a",), "b": ("b",)})
    assert any("not equivalent" in v for v in ct.check_presentation_morphism(bad))


def test_morphism_generator_images_are_checked():
    path = fc.CatPresentation(("0", "1", "2"), {"a": ("0", "1"), "b": ("1", "2")}, ())
    gens = {g: ("x", "y") for g in ("f", "g", "h", "k")}
    source = fc.CatPresentation(("x", "y"), gens, ())
    images = {"g": (), "h": ("b", "a"), "k": ("a", "b")}
    morph = ct.PresentationMorphism(source, path, {"x": "0", "y": "1"}, images)
    assert ct.check_presentation_morphism(morph) == [
        "generator f: image word missing or empty",
        "generator g: image word missing or empty",
        "generator h: image word not composable at generator a",
        "generator k: image word has wrong endpoints",
    ]


def test_morphism_between_invalid_presentations_reports_only_those():
    # the maps are empty: past a bad end, nothing else is reported
    path = fc.CatPresentation(("0", "1"), {"a": ("0", "1")}, ())
    broken = fc.CatPresentation(("x",), {"f": ("x", "y")}, ())
    for source, target, want in (
        (broken, path, ["source: generator f: endpoint not an object"]),
        (path, broken, ["target: generator f: endpoint not an object"]),
        (broken, broken, ["source: generator f: endpoint not an object",
                          "target: generator f: endpoint not an object"]),
    ):
        morph = ct.PresentationMorphism(source, target, {}, {})
        assert ct.check_presentation_morphism(morph) == want


def test_morphism_skips_relations_whose_sides_have_one_image():
    # a cyclic target with a length-changing relation: only equal images are decided
    gens = {"a": ("0", "1"), "c": ("0", "1"), "l": ("1", "1")}
    looped = fc.CatPresentation(("0", "1"), gens, ((("a", "l"), ("c",)),))
    pair = fc.CatPresentation(("x", "y"), {"f": ("x", "y"), "g": ("x", "y")},
                              ((("f",), ("g",)),))
    ends = {"x": "0", "y": "1"}
    same = ct.PresentationMorphism(pair, looped, ends, {"f": ("a",), "g": ("a",)})
    assert ct.check_presentation_morphism(same) == []
    other = ct.PresentationMorphism(pair, looped, ends, {"f": ("a",), "g": ("c",)})
    assert ct.check_presentation_morphism(other) == [
        "relation 0: preservation undecided (target is cyclic and has length-changing relations)"
    ]


def test_presentation_relations_need_two_parallel_sides():
    pres = fc.CatPresentation(
        ("0", "1", "2"), {"a": ("0", "1"), "b": ("1", "2"), "c": ("0", "2")},
        ((("a", "b"), ()), (("a",), ("c",)), (("a", "b"), ("c",))),
    )
    assert fc.validate_presentation(pres) == [
        "relation 0: empty side (not supported)",
        "relation 1: sides are not parallel (('0', '1') vs ('0', '2'))",
    ]


def test_realize_interval_gives_the_interval_category():
    real = ct.realize_presentation(interval_pres())
    assert not real.truncated
    cat = real.to_fincategory()
    assert ct.validate_category(cat) == []
    assert len(cat.objects) == 2
    assert len(cat.arrows) == 3


@pytest.mark.parametrize("text, name", [
    ("object 0\nobject 1\ngen id(0) 0 1\n", "id(0)"),  # a generator named as an identity
    ("object 0\nobject 1\nobject 2\ngen a 0 1\ngen b 1 2\ngen a;b 0 2\n", "a;b"),
])
def test_to_fincategory_refuses_two_classes_of_one_name(text, name):
    real = ct.realize_presentation(ct.parse_presentation(text))
    with pytest.raises(DomainError, match=f"^two classes would both be named {re.escape(name)}$"):
        real.to_fincategory()


def test_realize_circle_bounded():
    circ = fc.presentation_of(pc.model("directed_circle"))
    with pytest.raises(DomainError):
        ct.realize_presentation(circ)  # cyclic without bound
    for bound in (0, 1, 4):
        real = ct.realize_presentation(circ, bound)
        assert real.truncated
        assert real.hom_count("*", "*") == bound + 1
        with pytest.raises(DomainError):
            real.to_fincategory()


def test_realize_cap_counts_classes_per_source_object():
    circ = fc.presentation_of(pc.model("directed_circle"))
    assert ct.realize_presentation(circ, 9, max_words=10).hom_count("*", "*") == 10
    with pytest.raises(EnumerationLimitError, match="11 dipath classes built from"):
        ct.realize_presentation(circ, 10, max_words=10)


def test_repeated_presentation_object_is_rejected():
    with pytest.raises(InputSyntaxError, match=r"^line 2: duplicate object id a$"):
        ct.parse_presentation("object a\nobject a\nobject b\ngen g a b\n")
    # built in the library, the repeat reaches validation
    pres = fc.CatPresentation(("a", "a", "b"), {"g": ("a", "b")}, ())
    assert fc.validate_presentation(pres) == ["duplicate object id a"]
    with pytest.raises(DomainError, match="duplicate object id a"):
        ct.realize_presentation(pres)


def test_realize_rejects_length_changing_relations_when_truncated():
    pres = fc.CatPresentation(
        ("x",), {"a": ("x", "x"), "b": ("x", "x")}, ((("a", "a"), ("b",)),)
    )
    with pytest.raises(DomainError):
        ct.realize_presentation(pres, bound=3)


def test_realize_handles_length_three_relations():
    # two loops identified only at the third power
    pres = fc.CatPresentation(
        ("x",),
        {"p": ("x", "x"), "q": ("x", "x")},
        ((("p", "p", "p"), ("q", "q", "q")),),
    )
    real = ct.realize_presentation(pres, bound=3)
    # 1 + 2 + 4 + 8 words, with ppp ~ qqq merging one pair
    assert real.hom_count("x", "x") == 14
    assert real.class_of("x", ("p", "p", "p")) == real.class_of("x", ("q", "q", "q"))


def test_realize_unit_grid_corner_hom_is_one():
    k = gs.to_precubical(gs.make_scene(1, 1, [], (0, 0), (1, 1)))
    real = ct.realize_presentation(fc.presentation_of(k))
    assert real.hom_count("v0_0", "v1_1") == 1


def test_acyclic_bound_completeness_flag():
    itv = interval_pres()
    assert not ct.realize_presentation(itv, bound=1).truncated
    assert ct.realize_presentation(itv, bound=0).truncated


@pytest.mark.parametrize("relations", [(), ((("a", "b"), ("c",)),)])
def test_realize_refuses_a_negative_bound(relations):
    # refused before the length-changing relation is looked at
    pres = fc.CatPresentation(
        ("0", "1", "2"), {"a": ("0", "1"), "b": ("1", "2"), "c": ("0", "2")}, relations
    )
    with pytest.raises(DomainError, match="length bound -1 is negative"):
        ct.realize_presentation(pres, bound=-1)


def _random_presentation(rng, acyclic):
    """Seeded random presentation with length-preserving relations of
    lengths 1-3; acyclic ones send every generator up the object order."""
    n = rng.randint(2, 4)
    objects = tuple(f"o{i}" for i in range(n))
    gens = {}
    for i in range(rng.randint(1, 6)):
        if acyclic:
            s = rng.randrange(n - 1)
            t = rng.randint(s + 1, n - 1)
        else:
            s, t = rng.randrange(n), rng.randrange(n)
        gens[f"g{i}"] = (objects[s], objects[t])
    parallel = {}  # (length, src, tgt) -> words
    for m in (1, 2, 3):
        for word in product(sorted(gens), repeat=m):
            if all(gens[a][1] == gens[b][0] for a, b in zip(word, word[1:])):
                key = (m, gens[word[0]][0], gens[word[-1]][1])
                parallel.setdefault(key, []).append(word)
    choices = [ws for ws in parallel.values() if len(ws) > 1]
    relations = []
    for _ in range(rng.randint(0, 4) if choices else 0):
        relations.append(tuple(rng.sample(rng.choice(choices), 2)))
    return fc.CatPresentation(objects, gens, tuple(relations))


def _words_out_of(pres, x, max_len):
    layer = [((), x)]
    for _ in range(max_len + 1):
        yield from layer
        layer = [(w + (g,), t) for w, at in layer
                 for g, (s, t) in sorted(pres.generators.items()) if s == at]


def test_realize_engine_matches_the_word_path_on_random_presentations():
    rng = random.Random(20261018)
    for trial in range(200):
        acyclic = trial % 2 == 0
        pres = _random_presentation(rng, acyclic)
        bound = None if acyclic and rng.random() < 0.5 else rng.randint(0, 4)
        real = ct.realize_presentation(pres, bound)
        listed = oracles.realize_words_oracle(pres, bound)
        assert real.homs == listed.homs
        assert real.truncated == listed.truncated
        longest = len(pres.objects) if bound is None else bound
        for x in pres.objects:
            for word, _at in _words_out_of(pres, x, longest + 1):
                if len(word) <= longest:
                    assert real.class_of(x, word) == listed.class_of(x, word)
                elif bound is not None:
                    for r in (real, listed):
                        with pytest.raises(DomainError):
                            r.class_of(x, word)
        for r in (real, listed):
            for start, word in ((pres.objects[0], ("nope",)), ("nowhere", ())):
                with pytest.raises(DomainError):
                    r.class_of(start, word)
        if not real.truncated:
            assert ct.validate_category(real.to_fincategory()) == []


def _length_changing_presentation(rng):
    """Seeded random acyclic presentation whose 1-4 relations join parallel
    words of lengths 1-4, at least one pair of different lengths; None when
    the draw has no such pair."""
    n = rng.randint(2, 5)
    objects = tuple(f"o{i}" for i in range(n))
    gens = {}
    for i in range(rng.randint(1, 6)):
        s = rng.randrange(n - 1)
        gens[f"g{i}"] = (objects[s], objects[rng.randint(s + 1, n - 1)])
    free = fc.CatPresentation(objects, gens, ())
    parallel = {}  # (src, tgt) -> nonempty words of length <= 4
    for x in objects:
        for word, at in _words_out_of(free, x, 4):
            if word:
                parallel.setdefault((x, at), []).append(word)
    groups = [ws for ws in parallel.values() if len(ws) > 1]
    relations = [tuple(rng.sample(rng.choice(groups), 2)) for _ in range(rng.randint(1, 4))
                 if groups]
    if all(len(u) == len(v) for u, v in relations):
        return None
    return fc.CatPresentation(objects, gens, tuple(relations))


def test_realize_matches_the_word_oracle_with_length_changing_relations():
    rng = random.Random(20261019)
    trials = 0
    while trials < 500:
        pres = _length_changing_presentation(rng)
        if pres is None:
            continue
        trials += 1
        real = ct.realize_presentation(pres)
        listed = oracles.realize_words_oracle(pres, None)
        assert real.homs == listed.homs
        assert not real.truncated and not listed.truncated
        words = {x: list(_words_out_of(pres, x, len(pres.objects))) for x in pres.objects}
        longest = max(len(w) for ws in words.values() for w, _at in ws)
        at_longest = ct.realize_presentation(pres, longest)
        assert (at_longest.homs, at_longest.truncated) == (real.homs, False)
        assert ct.realize_presentation(pres, longest + 1).homs == real.homs
        for x, ws in words.items():
            for word, _at in ws:
                want = listed.class_of(x, word)
                assert real.class_of(x, word) == at_longest.class_of(x, word) == want
        for start, word in ((pres.objects[0], ("nope",)), ("nowhere", ())):
            with pytest.raises(DomainError):
                real.class_of(start, word)
        assert ct.validate_category(real.to_fincategory()) == []
        with pytest.raises(DomainError, match="^length-changing relation in truncated mode$"):
            ct.realize_presentation(pres, longest - 1)
        with pytest.raises(DomainError, match="^length bound -1 is negative$"):
            ct.realize_presentation(pres, -1)


def _outcome(call):
    """What ``call()`` returns, or the type and message of the DomainError
    or EnumerationLimitError it raises."""
    try:
        return call()
    except (DomainError, EnumerationLimitError) as exc:
        return type(exc), str(exc)


def _realizing_engine(pres):
    """The engine realization runs on: ``pres``'s own, or that of its
    subdivision when a relation changes length."""
    engine = fc._SwapEngine(pres.objects, pres.generators, pres.relations)
    if ct._length_preserving(pres):
        return engine
    return fc._SwapEngine(*ct._subdivided(pres, engine.heights)[1:])


def _own_sweep_sizes(pres, bound):
    """Per object, the number of classes of each length that a sweep from
    that object alone builds."""
    engine = _realizing_engine(pres)
    return [[len(layer.ends) for layer in engine.layers([x], bound, math.inf)]
            for x in pres.objects]


def _cap_error(pres, bound, cap):
    """The error of one sweep from every object at cap ``cap``: at the first
    length where some object's classes built so far pass the cap, the
    lowest-numbered such object and its count; None if there is none."""
    sizes = _own_sweep_sizes(pres, bound)
    for length in range(1, max(map(len, sizes), default=0)):
        for x, built in zip(pres.objects, (sum(s[:length + 1]) for s in sizes)):
            if built > cap:
                return (EnumerationLimitError,
                        f"{built} dipath classes built from {x}, more than the cap of {cap}")
    return None


def _differential_cases(rng):
    """Seeded (kind, presentation, bound) triples: acyclic and cyclic
    presentations with length-preserving relations, length-changing ones,
    one-object ones, some with an object without generators, and the empty
    presentation."""
    yield "empty", fc.CatPresentation((), {}, ()), None
    yield "empty", fc.CatPresentation((), {}, ()), 3
    # at cap 5, a path of 5 out of a trips it at length 5 and two loops at b
    # at length 2: one sweep names b, where one sweep per object named a
    path = {f"p{i}": (f"a{i or ''}", f"a{i + 1}") for i in range(5)}
    objects = ("a", *(f"a{i}" for i in range(1, 6)), "b")
    yield "renamed", fc.CatPresentation(objects, {**path, "l": ("b", "b"), "m": ("b", "b")},
                                        ()), 5
    for trial in range(240):
        kind = ("acyclic", "cyclic", "one object", "length-changing")[trial % 4]
        if kind == "length-changing":
            pres = None
            while pres is None:
                pres = _length_changing_presentation(rng)
            bound = rng.choice([None, 9])
        else:
            pres = _random_presentation(rng, acyclic=kind == "acyclic")
            bound = None if kind == "acyclic" and rng.random() < 0.5 else rng.randint(0, 4)
        if kind == "one object":  # the first object with its loops
            x = pres.objects[0]
            loops = [g for g, (s, t) in sorted(pres.generators.items()) if s == t == x]
            loops = loops or ["l"]
            pres = fc.CatPresentation((x,), {g: (x, x) for g in loops},
                                      (((loops[0], loops[-1]), (loops[-1], loops[0])),))
        elif rng.random() < 0.4:
            objects = list(pres.objects)
            objects.insert(rng.randint(0, len(objects)), "bare")
            pres = fc.CatPresentation(tuple(objects), pres.generators, pres.relations)
            kind += " with a bare object"
        yield kind, pres, bound


def test_one_sweep_realizes_as_one_sweep_per_object_did():
    rng = random.Random(20261020)
    kinds, raised, renamed = Counter(), 0, 0
    for kind, pres, bound in _differential_cases(rng):
        kinds[kind.split(" with")[0]] += 1
        kinds["bare"] += "bare" in pres.objects
        real = ct.realize_presentation(pres, bound)
        old = oracles.realize_per_source_oracle(pres, bound)
        # dict order too: the oracle sorts the hom-sets under name keys
        assert (list(real.homs.items()), real.truncated) == (list(old.homs.items()), old.truncated)
        tails = [("nope",)] + [(g,) for g in sorted(pres.generators)]
        for (x, _y), reps in real.homs.items():
            for w in reps:
                for k in range(len(w) + 1):
                    assert real.class_of(x, w[:k]) == old.class_of(x, w[:k])
                # one generator more: composable, past the bound, or neither
                for tail in tails:
                    assert _outcome(lambda: real.class_of(x, w + tail)) == _outcome(
                        lambda: old.class_of(x, w + tail))
        # (g, 1) is the first inner object of g's chain, if g climbs by more than 1
        inner = [(g, 1) for g in sorted(pres.generators)]
        kinds["chain"] += any(x in _realizing_engine(pres).index for x in inner)
        for start in ("nowhere", *inner):
            assert _outcome(lambda: real.class_of(start, ())) == _outcome(
                lambda: old.class_of(start, ())) == (DomainError, f"unknown object {start}")
        # caps 0, 1, 5 (see the fixed case) and around where the largest one-object sweep trips
        trip = max(map(sum, _own_sweep_sizes(pres, bound)), default=1)
        for cap in sorted({0, 1, 5, trip - 1, trip, trip + 1}):
            got = _outcome(lambda: ct.realize_presentation(pres, bound, cap).homs)
            was = _outcome(lambda: oracles.realize_per_source_oracle(pres, bound, cap).homs)
            assert (got == real.homs) == (was == real.homs)
            if got != real.homs:
                raised += 1
                renamed += got != was
                assert got == _cap_error(pres, bound, cap)
    assert kinds.pop("empty") == 2 and kinds.pop("renamed") == 1
    assert min(kinds.values()) > 20, kinds
    assert raised > 500 and renamed >= 1


def three_routes():
    """0 -> 2 by pq, rs and xyz, with pq = xyz and rs = xyz: one arrow,
    though pq and rs are joined only through the longer word xyz."""
    gens = {"p": ("0", "1"), "q": ("1", "2"), "r": ("0", "b"), "s": ("b", "2"),
            "x": ("0", "m"), "y": ("m", "n"), "z": ("n", "2")}
    relations = ((("p", "q"), ("x", "y", "z")), (("r", "s"), ("x", "y", "z")))
    return fc.CatPresentation(("0", "1", "2", "b", "m", "n"), gens, relations)


def test_three_routes_are_one_arrow_and_a_short_bound_is_refused():
    for bound in (None, 3):
        real = ct.realize_presentation(three_routes(), bound)
        assert real.homs[("0", "2")] == (("p", "q"),)
        assert real.class_of("0", ("r", "s")) == ("p", "q")
    with pytest.raises(DomainError, match="^length-changing relation in truncated mode$"):
        ct.realize_presentation(three_routes(), 2)


def test_morphism_into_length_changing_relations_is_decided_when_acyclic():
    pair = fc.CatPresentation(("a", "c"), {"f": ("a", "c"), "g": ("a", "c")},
                              ((("f",), ("g",)),))
    routes = three_routes()
    free = fc.CatPresentation(routes.objects, {**routes.generators, "t": ("0", "2")},
                              routes.relations)
    looped = fc.CatPresentation(routes.objects, {**routes.generators, "l": ("2", "2")},
                                routes.relations)
    ends = {"a": "0", "c": "2"}
    for target, rs, verdict in (
        (routes, ("r", "s"), []),
        (free, ("r", "s"), []),
        (free, ("t",), ["relation 0: image words are not equivalent in the target"]),
        (looped, ("r", "s"), ["relation 0: preservation undecided "
                              "(target is cyclic and has length-changing relations)"]),
    ):
        morph = ct.PresentationMorphism(pair, target, ends, {"f": ("p", "q"), "g": rs})
        assert ct.check_presentation_morphism(morph) == verdict


def test_morphism_checks_into_one_target_subdivide_it_once(monkeypatch):
    calls = []
    subdivided = ct._subdivided

    def counting(pres, heights):
        calls.append(pres)
        return subdivided(pres, heights)

    monkeypatch.setattr(ct, "_subdivided", counting)
    pair = fc.CatPresentation(("a", "c"), {"f": ("a", "c"), "g": ("a", "c")},
                              ((("f",), ("g",)),))
    routes = three_routes()
    ends = {"a": "0", "c": "2"}
    for gs_image, verdict in ((("r", "s"), []), (("x", "y", "z"), []),
                              (("p", "q"), [])):
        morph = ct.PresentationMorphism(pair, routes, ends, {"f": ("p", "q"), "g": gs_image})
        assert ct.check_presentation_morphism(morph) == verdict
    assert calls == [routes]
    real = ct.realize_presentation(routes)
    assert real.homs[("0", "2")] == (("p", "q"),) and calls == [routes]
    # a fresh presentation with the same fields builds its own
    again = three_routes()
    morph = ct.PresentationMorphism(pair, again, ends, {"f": ("p", "q"), "g": ("r", "s")})
    assert ct.check_presentation_morphism(morph) == []
    assert calls == [routes, again] and again == routes


def test_grid_with_a_diagonal_generator_matches_the_complex_classes():
    # d = e0_0;n1_0 changes length; listing the words would take minutes
    k = gs.to_precubical(gs.make_scene(8, 8, [(3, 3, 4, 4)], (0, 0), (8, 8)))
    grid = fc.presentation_of(k)
    pres = fc.CatPresentation(
        grid.objects,
        {**grid.generators, "d": ("v0_0", "v1_1")},
        grid.relations + ((("d",), ("e0_0", "n1_0")),),
    )
    real = ct.realize_presentation(pres)
    assert not real.truncated
    for y in k.vertices:
        assert real.hom_count("v0_0", y) == fc.hom_classes(k, "v0_0", y).count
    assert real.class_of("v0_0", ("e0_0", "n1_0")) == ("d",)


# pushout universal property oracle


def realized_functor_maps(morph, real_a, real_b):
    omap = {x: morph.obj(x) for x in real_a.objects}
    amap = {}
    for (x, _y), reps in real_a.homs.items():
        for w in reps:
            img = real_b.class_of(morph.obj(x), morph.word(w))
            amap[_aname(x, w)] = _aname(morph.obj(x), img)
    return omap, amap


def _aname(start, word):
    return f"id({start})" if not word else ";".join(word)


def _compose_maps(f, g):
    return (
        {x: g[0][y] for x, y in f[0].items()},
        {a: g[1][b] for a, b in f[1].items()},
    )


@pytest.mark.parametrize("target_builder", [lambda: TWO, lambda: THREE,
                                            ordered_circle_category])
def test_pushout_satisfies_universal_property(target_builder):
    target = target_builder()
    p0 = fc.CatPresentation(("p", "q"), {}, ())
    itv = interval_pres()
    u = ct.PresentationMorphism(p0, itv, {"p": "0", "q": "1"}, {})
    result = ct.pushout(p0, itv, itv, u, u)

    real0 = ct.realize_presentation(p0)
    real1 = ct.realize_presentation(itv)
    real_q = ct.realize_presentation(result.presentation)
    c0, c1, q = real0.to_fincategory(), real1.to_fincategory(), real_q.to_fincategory()

    i1 = realized_functor_maps(u, real0, real1)
    j1 = realized_functor_maps(result.left, real1, real_q)
    j2 = realized_functor_maps(result.right, real1, real_q)

    cone_pairs = [
        (f1, f2)
        for f1 in functor_maps(c1, target)
        for f2 in functor_maps(c1, target)
        if _compose_maps(i1, f1) == _compose_maps(i1, f2)
    ]
    mediators = functor_maps(q, target)
    matched = 0
    for f1, f2 in cone_pairs:
        ms = [
            h
            for h in mediators
            if _compose_maps(j1, h) == f1 and _compose_maps(j2, h) == f2
        ]
        assert len(ms) == 1  # existence and uniqueness
        matched += 1
    assert matched == len(cone_pairs) and len(mediators) == len(cone_pairs)


# file formats

def test_category_file_round_trip():
    cat = ordered_circle_category()
    text = ct.format_category(cat)
    again = ct.parse_category(text)
    assert ct.format_category(again) == text
    assert again.arrows == cat.arrows


def test_category_file_with_composites():
    text = ct.format_category(THREE)
    cat = ct.parse_category(text)
    assert ct.validate_category(cat) == []
    assert ct.format_category(cat) == text


def test_category_file_identity_composites_survive():
    # a;a = identity forces an id(...) reference inside a compose line
    z2 = ct.monoid_category(["1", "g"], "1", {("g", "g"): "1"})
    text = ct.format_category(z2)
    assert "compose g g = id(*)" in text
    again = ct.parse_category(text)
    assert ct.validate_category(again) == []
    assert ct.format_category(again) == text


def test_presentation_file_round_trip():
    k = gs.to_precubical(gs.make_scene(1, 1, [], (0, 0), (1, 1)))
    text = ct.format_presentation(fc.presentation_of(k))
    assert ct.format_presentation(ct.parse_presentation(text)) == text


def test_presentation_file_rejects_non_parallel_relation():
    with pytest.raises(InputSyntaxError):
        ct.parse_presentation("object 0\nobject 1\ngen a 0 1\nrel a = a;a\n")


def test_functor_file_parsing():
    cats = {"two": TWO, "three": THREE}
    text = "domain two\ncodomain three\nobject 0 0\nobject 1 1\narrow a(0,1) a(0,1)\n"
    fun = ct.parse_functor(text, cats.__getitem__)
    assert ct.check_functor(fun) == []


def test_random_categories_validate():
    rng = random.Random(5)
    for _ in range(50):
        assert ct.validate_category(random_category(rng)) == []


# randomized pasting consistency

def _split_complex(k, axis, line):
    lo, hi = [], []
    for dim, cid in k.cell_keys():
        kind, rest = cid[0], cid[1:]
        x, y = (int(c) for c in rest.split("_"))
        spans = {"v": (0, 0), "e": (1, 0), "n": (0, 1), "s": (1, 1)}[kind]
        coord, span = (x, spans[0]) if axis == "x" else (y, spans[1])
        if coord + span <= line:
            lo.append((dim, cid))
        if coord >= line:
            hi.append((dim, cid))
    return pc.sub_complex(k, lo), pc.sub_complex(k, hi)


def test_random_scene_pushouts_match_direct_counts():
    rng = random.Random(20240811)
    for _ in range(8):
        w, h = rng.randint(2, 3), rng.randint(2, 3)
        boxes = []
        if rng.random() < 0.7:
            x0 = rng.randint(0, w - 1)
            y0 = rng.randint(0, h - 1)
            boxes.append((x0, y0, rng.randint(x0 + 1, w), rng.randint(y0 + 1, h)))
        scene = gs.GridScene(w, h, tuple(gs.Box(*b) for b in boxes), (0, 0), (w, h))
        k = gs.to_precubical(scene)
        axis = rng.choice("xy")
        line = rng.randint(1, (w if axis == "x" else h) - 1)
        k1, k2 = _split_complex(k, axis, line)
        k0 = pc.intersect(k1, k2)
        assert pc.union(k1, k2) == k

        p0, p1, p2 = (fc.presentation_of(x) for x in (k0, k1, k2))
        u1 = ct.PresentationMorphism(
            p0, p1, {x: x for x in p0.objects}, {g: (g,) for g in p0.generators}
        )
        u2 = ct.PresentationMorphism(
            p0, p2, {x: x for x in p0.objects}, {g: (g,) for g in p0.generators}
        )
        po = ct.pushout(p0, p1, p2, u1, u2)
        real = ct.realize_presentation(po.presentation)

        def glued(v):
            return po.left.obj(v) if v in po.left.obj_map else po.right.obj(v)

        verts = sorted(k.vertices)
        for _ in range(6):
            a, b = rng.choice(verts), rng.choice(verts)
            assert real.hom_count(glued(a), glued(b)) == fc.hom_classes(k, a, b).count


def broken_copies(rng, cat):
    """The category with one of its tables or maps damaged, several ways."""
    arrows, identity, table = dict(cat.arrows), dict(cat.identity), dict(cat.table)
    names = sorted(arrows)
    keys = sorted(table)
    copies = []
    if keys:
        drop = dict(table)
        del drop[rng.choice(keys)]
        copies.append((arrows, identity, drop))
        wrong = dict(table)
        wrong[rng.choice(keys)] = rng.choice(names)
        copies.append((arrows, identity, wrong))
        unknown = dict(table)
        unknown[rng.choice(keys)] = "nowhere"
        copies.append((arrows, identity, unknown))
    stray = dict(table)
    stray[(rng.choice(names), rng.choice(names))] = rng.choice(names)
    copies.append((arrows, identity, stray))
    swapped = dict(identity)
    swapped[rng.choice(cat.objects)] = rng.choice(names)
    copies.append((arrows, swapped, table))
    # a second arrow beside an existing one, composites copied from it
    a = rng.choice(names)
    twin = f"twin({a})"
    copies.append((
        {**arrows, twin: arrows[a]},
        identity,
        {**table, **{(twin if f == a else f, twin if g == a else g): h
                     for (f, g), h in table.items() if a in (f, g)}},
    ))
    dangling = dict(arrows)
    dangling["loose"] = (cat.objects[0], "elsewhere")
    copies.append((dangling, identity, table))
    return [ct.FinCategory(cat.objects, *parts) for parts in copies]


def test_validate_category_matches_the_full_law_check():
    rng = random.Random(20261019)
    thin = broken_thin = 0
    for trial in range(150):
        pick = trial % 3
        if pick == 0:
            cat = random_category(rng)
        elif pick == 1:
            cat = random_poset(rng, rng.randint(1, 5))
        else:
            cat = random_preorder(rng, rng.randint(1, 5))
        for c in [cat, *broken_copies(rng, cat)]:
            got = ct.validate_category(c)
            assert got == oracles.validate_category_oracle(c)
            if ct._is_thin(c):
                thin += 1
                broken_thin += bool(got)
    assert thin > 100 and broken_thin > 50


def test_to_fincategory_matches_the_scan_over_every_hom_entry():
    rng = random.Random(20261018)
    cases = []
    for trial in range(200):
        acyclic = trial % 2 == 0
        pres = _random_presentation(rng, acyclic)
        bound = None if acyclic and rng.random() < 0.5 else rng.randint(0, 4)
        cases.append(ct.realize_presentation(pres, bound))
    k = gs.to_precubical(gs.make_scene(4, 4, [(1, 1, 2, 2)], (0, 0), (4, 4)))
    cases.append(ct.realize_presentation(fc.presentation_of(k)))
    complete = [real for real in cases if not real.truncated]
    assert len(complete) > 50
    for real in complete:
        cat = real.to_fincategory()
        arrows, identity, table = oracles.to_fincategory_oracle(real)
        assert list(cat.table.items()) == list(table.items())
        assert list(cat.identity.items()) == list(identity.items())
        assert cat.arrows == ct.FinCategory(real.objects, arrows, identity, table).arrows
        assert cat.objects == tuple(sorted(real.objects))


def _walk_cases():
    """(presentation, realization) pairs: the to_fincategory scan test's 200
    seeded presentations (bounded cyclic ones among them), 60 length-changing
    ones (subdivided, half with a bound at least the longest word) and 40
    cyclic ones whose bound cuts the words off, and 10 seeded scenes."""
    rng = random.Random(20261018)
    for trial in range(200):
        acyclic = trial % 2 == 0
        pres = _random_presentation(rng, acyclic)
        bound = None if acyclic and rng.random() < 0.5 else rng.randint(0, 4)
        yield pres, ct.realize_presentation(pres, bound)
    rng = random.Random(20261021)
    for trial in range(60):
        pres = None
        while pres is None:
            pres = _length_changing_presentation(rng)
        yield pres, ct.realize_presentation(pres, None if trial % 2 else 9)
    for _ in range(40):
        pres = _random_presentation(rng, False)
        yield pres, ct.realize_presentation(pres, rng.randint(1, 4))
    for _ in range(10):  # scenes: many representatives with long common prefixes
        w, h = rng.randint(2, 4), rng.randint(2, 4)
        boxes = [(x, y, x + 1, y + 1) for x in range(w) for y in range(h) if rng.random() < 0.3]
        k = gs.to_precubical(gs.make_scene(w, h, boxes, (0, 0), (w, h)))
        pres = fc.presentation_of(k)
        yield pres, ct.realize_presentation(pres)


def test_shared_walk_matches_the_walk_per_suffix():
    kinds = Counter()
    for pres, real in _walk_cases():
        kinds["subdivided"] += real._chains is not None
        kinds["truncated"] += real.truncated
        assert list(real.homs) == sorted(real.homs) and all(real.homs.values())
        tails = [("nope",)] + [(g,) for g in sorted(pres.generators)]
        layers = oracles.word_layers(real)
        for (x, _y), reps in real.homs.items():
            for w in reps:
                for k in range(len(w) + 1):
                    want = oracles.extend_per_suffix_oracle(pres, real, layers, x, w[:k], [()])
                    assert [real.class_of(x, w[:k])] == want
                for tail in tails:
                    assert _outcome(lambda: real.class_of(x, w + tail)) == _outcome(
                        lambda: oracles.extend_per_suffix_oracle(pres, real, layers, x,
                                                                 w + tail, [()])[0])
        if real.truncated:
            continue
        kinds["complete"] += 1
        kinds["shared"] += any(len(w) > 1 for reps in real.homs.values() for w in reps)
        kinds["large"] += sum(map(len, real.homs.values())) > 100
        cat = real.to_fincategory()
        arrows, identity, table = oracles.to_fincategory_per_suffix_oracle(pres, real)
        assert list(cat.table.items()) == list(table.items())
        assert cat.arrows == arrows
        assert list(cat.identity.items()) == list(identity.items())
    assert kinds["subdivided"] > 40 and kinds["truncated"] > 50
    assert kinds["complete"] > 100 and kinds["shared"] > 40 and kinds["large"] >= 5, kinds


def test_one_hole_8x8_category_is_pinned():
    k = gs.to_precubical(gs.make_scene(8, 8, [(3, 3, 4, 4)], (0, 0), (8, 8)))
    pres = fc.presentation_of(k)
    real = ct.realize_presentation(pres)
    cat = real.to_fincategory()
    assert len(cat.table) == 33325
    _, _, table = oracles.to_fincategory_per_suffix_oracle(pres, real)
    assert list(cat.table.items()) == list(table.items())
    digest = hashlib.sha256(ct.format_category(cat).encode()).hexdigest()
    assert digest.startswith("749c03f6c48a")


def _morphism_targets(rng):
    """Seeded (kind, target) pairs for the morphism checker: acyclic and
    cyclic targets with length-preserving relations, acyclic ones with
    length-changing relations, cyclic ones with a relation between words of
    two lengths, and targets without relations."""
    kinds = ("acyclic", "cyclic", "length-changing", "cyclic length-changing", "free")
    for trial in count():
        kind = kinds[trial % len(kinds)]
        if kind == "length-changing":
            target = None
            while target is None:
                target = _length_changing_presentation(rng)
        else:
            target = _random_presentation(rng, acyclic=kind == "acyclic")
        if kind == "free":
            target = fc.CatPresentation(target.objects, target.generators, ())
        elif kind == "cyclic length-changing":
            parallel = {}
            for x in target.objects:
                for w, y in _words_out_of(target, x, 2):
                    if w:
                        parallel.setdefault((x, y), []).append(w)
            pairs = [(u, v) for ws in parallel.values() for u in ws for v in ws
                     if len(u) < len(v)]
            if not pairs or target._engine.heights is not None:
                continue
            target = fc.CatPresentation(target.objects, target.generators,
                                        target.relations + (rng.choice(pairs),))
        yield kind, target


def _random_morphism(rng, target):
    """A morphism into ``target`` whose 1-5 generators go to words of length
    1-3 out of random objects, in pairs of parallel or equal words, and
    whose 1-3 relations join parallel source words of length 1-2; None when
    the target has no generator."""
    words = {}  # (x, y) -> the nonempty target words x -> y of length <= 3
    for x in target.objects:
        for w, y in _words_out_of(target, x, 3):
            if w:
                words.setdefault((x, y), []).append(w)
    if not words:
        return None
    groups = sorted(words.items())
    images, gens = {}, {}
    for j in range(rng.randint(1, 5)):
        if j % 2 == 0:  # s1 goes to a word parallel to s0's, s3 to one parallel to s2's
            ends, ws = rng.choice(groups)
        images[f"s{j}"] = rng.choice(ws)
        gens[f"s{j}"] = ends
    source = fc.CatPresentation(target.objects, gens, ())
    parallel = {}
    for x in source.objects:
        for w, y in _words_out_of(source, x, 2):
            if w:
                parallel.setdefault((x, y), []).append(w)
    choices = [ws for ws in parallel.values() if len(ws) > 1]
    relations = tuple(tuple(rng.sample(rng.choice(choices), 2))
                      for _ in range(rng.randint(1, 3) if choices else 0))
    source = fc.CatPresentation(target.objects, gens, relations)
    return ct.PresentationMorphism(source, target, {x: x for x in target.objects}, images)


def test_morphism_checks_match_the_swap_closure_and_the_whole_realization():
    rng = random.Random(20261022)
    kinds, verdicts, starts = Counter(), Counter(), Counter()
    checked = 0
    for kind, target in _morphism_targets(rng):
        morph = _random_morphism(rng, target)
        if morph is None:
            continue
        got = _outcome(lambda: ct.check_presentation_morphism(morph))
        assert got == _outcome(lambda: oracles.check_presentation_morphism_oracle(morph))
        kinds[kind] += 1
        images = {(morph.word(u), morph.word(v)) for u, v in morph.source.relations}
        differ = {target.gen_src(wu[0]) for wu, wv in images if wu != wv}
        starts["past the first"] += any(x != target.objects[0] for x in differ)
        starts["several"] += len(differ) > 1
        verdicts["equal images"] += any(wu == wv for wu, wv in images)
        for v in got:
            verdicts[v.split(": ", 1)[1]] += 1
        verdicts["all preserved"] += differ != set() and got == []
        checked += 1
        if checked == 2000:
            break
    assert min(kinds.values()) >= 300, kinds
    assert min(starts.values()) >= 75, starts
    assert len(verdicts) == 4 and min(verdicts.values()) >= 100, verdicts


def test_morphism_checks_leave_the_hom_sets_unbuilt(monkeypatch):
    made = []

    class Watched(fc.Realization):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(ct, "Realization", Watched)
    rng = random.Random(20261022)
    for _, target in islice(_morphism_targets(rng), 300):
        morph = _random_morphism(rng, target)
        if morph is not None:
            ct.check_presentation_morphism(morph)
    assert len(made) > 50 and not any("homs" in vars(real) for real in made)
    assert made[0].homs is made[0].homs  # built on the first read, and kept


def _one_hole_grid(n):
    """The presentation of the n x n scene with one unit hole in its middle."""
    m = n // 2 - 1
    return fc.presentation_of(gs.to_precubical(gs.make_scene(n, n, [(m, m, m + 1, m + 1)],
                                                             (0, 0), (n, n))))


PAIR = fc.CatPresentation(("a", "c"), {"f": ("a", "c"), "g": ("a", "c")}, ((("f",), ("g",)),))


def _timed(call):
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def test_boundary_routes_around_a_hole_are_decided_by_one_sweep():
    # the swap closure of the east-first route holds the 92378 words below
    # the hole: listing them took 63 s
    grid = _one_hole_grid(10)
    east = tuple(f"e{i}_0" for i in range(10)) + tuple(f"n10_{j}" for j in range(10))
    north = tuple(f"n0_{j}" for j in range(10)) + tuple(f"e{i}_10" for i in range(10))
    routes = ct.PresentationMorphism(PAIR, grid, {"a": "v0_0", "c": "v10_10"},
                                     {"f": east, "g": north})
    verdict, seconds = _timed(lambda: ct.check_presentation_morphism(routes))
    assert verdict == ["relation 0: image words are not equivalent in the target"]
    assert seconds < 0.1  # 1.0-1.2 ms on a 2-core machine


def test_length_changing_check_sweeps_from_its_start_only():
    # the 20 x 20 one-hole grid plus d = e0_0;n1_0: the check realized the
    # whole target (0.43-0.47 s), where one sweep from v0_0 takes 7-11 ms
    # (2-core machine)
    grid = _one_hole_grid(20)
    target = fc.CatPresentation(grid.objects, {**grid.generators, "d": ("v0_0", "v1_1")},
                                grid.relations + ((("d",), ("e0_0", "n1_0")),))
    morph = ct.PresentationMorphism(PAIR, target, {"a": "v0_0", "c": "v1_1"},
                                    {"f": ("d",), "g": ("e0_0", "n1_0")})
    verdict, seconds = _timed(lambda: ct.check_presentation_morphism(morph))
    assert verdict == []
    assert seconds < 0.15


def test_morphism_check_past_the_class_cap_names_its_start(monkeypatch):
    # f = g goes to the two routes round the hole of the 4 x 4 grid, out of
    # v1_1; the sweep from v1_1 alone passes a cap of 5 at length 2, with
    # 1 + 2 + 4 classes
    routes = ct.PresentationMorphism(PAIR, _one_hole_grid(4), {"a": "v1_1", "c": "v2_2"},
                                     {"f": ("e1_1", "n2_1"), "g": ("n1_1", "e1_2")})
    assert ct.check_presentation_morphism(routes) == [
        "relation 0: image words are not equivalent in the target"]
    monkeypatch.setattr(ct, "MAX_WORDS", 5)
    with pytest.raises(EnumerationLimitError,
                       match="^7 dipath classes built from v1_1, more than the cap of 5$"):
        ct.check_presentation_morphism(routes)


# poset categories


def test_poset_category_matches_the_closure_oracle():
    rng = random.Random(20261020)
    built = refused = 0
    for trial in range(300):
        n = rng.randint(0, 6)
        els = [f"e{i}" for i in rng.sample(range(10), n)]
        # pairs up a random order, then maybe a pair back down it or an
        # element not in the list
        le = [(a, b) for i, a in enumerate(els) for b in els[i:] if rng.random() < 0.3]
        if els and trial % 3 == 1:
            le.append((rng.choice(els), rng.choice(els)))
        if trial % 7 == 2:
            le.insert(rng.randint(0, len(le)), (rng.choice(els + ["x"]), "y"))
        rng.shuffle(le)
        try:
            want = oracles.poset_category_oracle(els, le)
        except DomainError:
            with pytest.raises(DomainError):
                ct.poset_category(els, le)
            refused += 1
            continue
        got = ct.poset_category(els, le)
        assert got.objects == want.objects
        assert got.arrows == want.arrows
        assert got.identity == want.identity
        assert got.table == want.table
        built += 1
    assert built > 150 and refused > 40


def test_poset_category_matches_one_search_per_element():
    """Against the per-element search it replaced: the same category, or the
    same error line (a twin pair, or an unknown element); only the
    composition table's order differs, which is now ascending."""
    rng = random.Random(20261019)
    built = twins = 0
    for trial in range(400):
        n = rng.randint(0, 12)
        els = [f"v{i}" for i in rng.sample(range(14), n)]  # v9 < v10 only as numbers
        le = [(a, b) for a in els for b in els if rng.random() < (0.25 if trial % 2 else 0.06)]
        if els and trial % 5 == 0:
            le.append((rng.choice(els + ["x"]), rng.choice(els)))
        try:
            want = oracles.poset_category_walk_oracle(els, le)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                ct.poset_category(els, le)
            assert str(got.value) == str(exc)
            twins += str(exc).startswith("not a poset")
            continue
        got = ct.poset_category(els, le)
        assert (got.objects, got.arrows, got.identity, got.table) == (
            want.objects, want.arrows, want.identity, want.table)
        index = {x: i for i, x in enumerate(got.objects)}
        pairs = [(index[got.src(f)], index[got.tgt(f)], index[got.tgt(g)])
                 for f, g in got.table if not (got.is_identity(f) or got.is_identity(g))]
        assert pairs == sorted(pairs)
        built += 1
    assert built > 120 and twins > 120


def test_poset_category_names_the_least_twins():
    # two cycles; the one through the least element is named, by its least twin
    pairs = [("d", "e"), ("e", "d"), ("a", "c"), ("c", "b"), ("b", "a")]
    with pytest.raises(DomainError, match="^not a poset: a and b are equivalent$"):
        ct.poset_category("abcde", pairs)
    pairs = [("a", "e"), ("e", "a"), ("b", "c"), ("c", "b")]
    with pytest.raises(DomainError, match="^not a poset: a and e are equivalent$"):
        ct.poset_category("abcde", pairs)


def test_poset_category_takes_elements_as_strings():
    chain = ct.poset_category([1, 2], [(1, 2)])
    assert chain.objects == ("1", "2")
    assert ct.format_category(chain) == ct.format_category(ct.poset_category(["1", "2"], [("1", "2")]))


POSET_ERRORS_AND_ORDINAL = """
from dihom import catho
from dihom.errors import DomainError

for pairs in ([("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"), ("b", "c")],
              [("a", "x"), ("y", "a")]):
    try:
        catho.poset_category(["a", "b", "c", "d"], pairs)
    except DomainError as exc:
        print(exc)
print(catho.format_category(catho.ordinal(4)), end="")
"""


def test_poset_category_output_does_not_depend_on_the_hash_seed():
    src = str(Path(ct.__file__).resolve().parents[1])
    outputs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", POSET_ERRORS_AND_ORDINAL], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    [out] = outputs
    assert out.startswith(
        "not a poset: a and b are equivalent\nrelation mentions unknown element x\n"
    )


def test_hom_count_reads_the_kept_counts_without_gathering_words(monkeypatch):
    # on every pair of objects of the walk cases, hom_count on a fresh
    # realization whose homs raises is the size of the hom-set in homs
    cases = [(pres, real.bound, {(x, y): len(real.homs.get((x, y), ()))
                                 for x, y in product(pres.objects, repeat=2)})
             for pres, real in _walk_cases()]

    def refuse(real):
        raise AssertionError("hom_count gathered the words of homs")

    monkeypatch.setattr(fc.Realization, "homs", property(refuse))
    empty = 0
    for pres, bound, counts in cases:
        real = ct.realize_presentation(pres, bound)
        assert {xy: real.hom_count(*xy) for xy in counts} == counts
        empty += 0 in counts.values()
    assert empty > 100, empty


def test_hom_counts_are_the_sizes_of_the_hom_sets():
    seen = Counter()
    for pres, real in _walk_cases():
        counts = real.hom_counts()
        assert "homs" not in vars(real)  # counted without gathering a word
        assert list(counts.items()) == [(xy, len(reps)) for xy, reps in real.homs.items()]
        seen["subdivided"] += real._chains is not None
        seen["several"] += any(c > 1 for c in counts.values())
    assert seen["subdivided"] > 40 and seen["several"] > 100, seen


def _category_outcome(real):
    """``real.to_fincategory()`` as its objects, arrows, identities and
    table, dict order included, or the error it raises."""
    def build():
        cat = real.to_fincategory()
        return cat.objects, cat.arrows, list(cat.identity.items()), list(cat.table.items())
    return _outcome(build)


def test_count_first_realization_matches_the_word_sweep():
    # random and bounded cyclic presentations, length-changing (subdivided)
    # ones and scenes (_walk_cases), then the one-sweep differential cases
    rng = random.Random(20261023)
    cases = [(pres, real.bound) for pres, real in _walk_cases()]
    cases += [(pres, bound) for _, pres, bound in _differential_cases(rng)]
    seen = Counter()
    for pres, bound in cases:
        real = ct.realize_presentation(pres, bound)
        old = oracles.realize_word_sweep_oracle(pres, bound)
        seen["subdivided"] += real._chains is not None
        seen["bounded cyclic"] += bound is not None and not pres._engine.acyclic
        seen["truncated"] += real.truncated
        assert real.truncated == old.truncated
        assert list(real.hom_counts().items()) == list(old.hom_counts().items())
        names = [*pres.objects, "nowhere", *((g, 1) for g in sorted(pres.generators))]
        assert [real.hom_count(x, y) for x in names for y in names] == [
            old.hom_count(x, y) for x in names for y in names]
        tails = [("nope",)] + [(g,) for g in sorted(pres.generators)]
        for (x, _y), reps in old.homs.items():
            for w in reps:
                for word in [w[:k] for k in range(len(w))] + [w + tail for tail in tails]:
                    assert _outcome(lambda: real.class_of(x, word)) == _outcome(
                        lambda: old.class_of(x, word))
                assert real.class_of(x, w) == w
                seen["classes"] += 1
        assert "homs" not in vars(real)  # counts and class_of built no word
        assert _category_outcome(real) == _category_outcome(old)
        assert list(real.homs.items()) == list(old.homs.items())
        # caps around where the largest one-object sweep trips: the same error
        trip = max(map(sum, _own_sweep_sizes(pres, bound)), default=1)
        for cap in sorted({0, 1, trip - 1, trip}):
            capped = _outcome(lambda: ct.realize_presentation(pres, bound, cap))
            was = _outcome(lambda: oracles.realize_word_sweep_oracle(pres, bound, cap))
            if isinstance(was, tuple):
                assert capped == was
                seen["cap errors"] += 1
            else:
                assert list(capped.homs.items()) == list(was.homs.items())
                assert _category_outcome(capped) == _category_outcome(was)
    assert seen["subdivided"] > 80 and seen["bounded cyclic"] > 150, seen
    assert seen["truncated"] > 100 and seen["cap errors"] > 500, seen
    assert seen["classes"] > 5000, seen


def test_counts_and_morphism_checks_run_no_word_sweep(monkeypatch):
    sweeps = []  # the words flag of every sweep started
    layers = fc._SwapEngine.layers

    def recorded(engine, sources, max_len, max_classes, words=True):
        sweeps.append(words)
        return layers(engine, sources, max_len, max_classes, words)

    monkeypatch.setattr(fc._SwapEngine, "layers", recorded)
    realized = 0
    for pres, real in _walk_cases():  # each realized under the recorder
        real.hom_counts()
        real.hom_count(pres.objects[0], pres.objects[-1])
        assert all(layer.reps is layer.sizes is None for layer in real._layers)
        realized += 1
    assert len(sweeps) == realized and not any(sweeps)
    rng = random.Random(20261022)
    for _, target in islice(_morphism_targets(rng), 300):
        morph = _random_morphism(rng, target)
        if morph is not None:
            ct.check_presentation_morphism(morph)
    assert len(sweeps) > realized + 50 and not any(sweeps)
    real.homs  # the first read of homs starts the one sweep with words
    assert sweeps[-1] is True and sweeps.count(True) == 1
