import copy
import pickle
import random
import sys
from fractions import Fraction

import pytest

from dihom import dmetric as dm
from dihom.errors import DomainError, InputSyntaxError, SizeGuardError
from oracles import (
    discretized_circle_oracle,
    discretized_interval_oracle,
    disjoint_sum_oracle,
    format_by_object_oracle,
    is_isometric_backtrack_oracle,
    is_isometric_oracle,
    metric_format_oracle,
    metric_product_oracle,
    metric_quotient_oracle,
    metric_validate_oracle,
    parse_dist_fraction_oracle,
    parse_dmetric_fraction_oracle,
    product_scaled_oracle,
    quotient_distance_oracle,
    quotient_scaled_oracle,
    validate_scaled_oracle,
)

F = Fraction


def two_chain():
    # a -> b at cost 1, no way back
    return dm.make_space(
        ["a", "b"], lambda p, q: F(0) if p == q else (F(1) if p == "a" else dm.INF)
    )


def test_asymmetric_space_is_valid():
    assert dm.validate(two_chain()) == []


def test_nonzero_self_distance_is_flagged():
    space = dm.DMetricSpace(("a",), ((F(1),),))
    assert any("!= 0" in v for v in dm.validate(space))


def test_triangle_violation_is_flagged():
    space = dm.DMetricSpace(
        ("a", "b", "c"),
        (
            (F(0), F(1), F(5)),
            (dm.INF, F(0), F(1)),
            (dm.INF, dm.INF, F(0)),
        ),
    )
    assert any("triangle" in v for v in dm.validate(space))


def test_product_with_point_is_isometric_to_factor():
    point = dm.make_space(["*"], lambda p, q: F(0))
    chain = two_chain()
    assert dm.is_isometric(dm.product(chain, point), chain)


def test_product_of_chains_is_sup_combination():
    pr = dm.product(two_chain(), two_chain())
    assert pr.d("a,a", "b,b") == F(1)
    assert pr.d("a,a", "a,b") == F(1)
    assert pr.d("b,a", "a,b") == dm.INF
    assert dm.validate(pr) == []


def test_product_distance_is_max_everywhere():
    x = dm.discretized_interval(2)
    y = two_chain()
    pr = dm.product(x, y)
    for i, p in enumerate(x.points):
        for j, q in enumerate(y.points):
            for i2, p2 in enumerate(x.points):
                for j2, q2 in enumerate(y.points):
                    assert pr.d(f"{p},{q}", f"{p2},{q2}") == max(
                        x.dist[i][i2], y.dist[j][j2]
                    )


def test_sum_has_infinite_cross_distances():
    chain = two_chain()
    sm = dm.disjoint_sum(chain, two_chain(), chain)  # summands told apart by place
    assert dm.validate(sm) == []
    assert sm.d("0:a", "1:a") == dm.INF
    assert sm.d("1:b", "0:a") == dm.INF
    assert sm.d("0:a", "2:a") == sm.d("2:b", "0:b") == dm.INF
    assert sm.d("0:a", "0:b") == F(1)
    assert sm.dist[4][5] is chain.dist[0][1]  # entries are not copied


def test_quotient_by_equality_is_isometric_copy():
    chain = two_chain()
    q = dm.quotient(chain, [])
    assert q.points == chain.points
    assert q.dist == chain.dist


def test_quotient_collapsing_everything():
    q = dm.quotient(dm.discretized_interval(3), [("0", "1/3"), ("1/3", "2/3"), ("2/3", "1")])
    assert q.points == ("0",)
    assert q.dist == ((F(0),),)


def test_interval_quotient_is_directed_circle():
    for n in (2, 4, 8):
        q = dm.quotient(dm.discretized_interval(n), [("0", "1")])
        assert dm.validate(q) == []
        assert dm.is_isometric(q, dm.discretized_directed_circle(n))


def test_quotient_matches_chain_formula_oracle():
    space = dm.discretized_interval(4)
    pairs = [("0", "1")]
    q = dm.quotient(space, pairs)
    class_of = {}
    for i, p in enumerate(space.points):
        class_of[i] = "0" if p in ("0", "1") else p
    for i, p in enumerate(space.points):
        for j, r in enumerate(space.points):
            expected = quotient_distance_oracle(space, class_of, i, j)
            assert q.d(class_of[i], class_of[j]) == expected


def test_quotient_never_increases_distances():
    rng = random.Random(13)
    space = dm.discretized_interval(5)
    points = list(space.points)
    for _ in range(10):
        pairs = [(rng.choice(points), rng.choice(points)) for _ in range(2)]
        q = dm.quotient(space, pairs)
        # rebuild the class naming to map points into the quotient
        parent = {p: p for p in points}

        def find(p):
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        cls = {}
        for p in points:
            root = find(p)
            members = [x for x in points if find(x) == root]
            cls[p] = min(members)
        for p in points:
            for r in points:
                assert q.d(cls[p], cls[r]) <= space.d(p, r)


def test_reflect_is_involution():
    for space in (two_chain(), dm.discretized_interval(3)):
        assert dm.reflect(dm.reflect(space)) == space


def test_reflect_swaps_infinite_triangle():
    space = dm.discretized_interval(2)
    r = dm.reflect(space)
    assert space.d("0", "1/2") == F(1, 2) and space.d("1/2", "0") == dm.INF
    assert r.d("0", "1/2") == dm.INF and r.d("1/2", "0") == F(1, 2)


def test_symmetric_space_is_reflect_fixed_point():
    sym = dm.make_space(["a", "b"], lambda p, q: F(0) if p == q else F(2))
    assert dm.validate(sym) == []
    assert dm.reflect(sym) == sym


def test_reflect_of_product_is_product_of_reflects():
    x, y = two_chain(), dm.discretized_interval(2)
    assert dm.reflect(dm.product(x, y)) == dm.product(dm.reflect(x), dm.reflect(y))


def test_ball_with_zero_radius_is_empty():
    assert dm.ball(dm.discretized_interval(4), "0", F(0), "future") == ()
    assert dm.ball(dm.discretized_interval(4), "0", F(0), "past") == ()


def test_future_ball_is_strict():
    space = dm.discretized_interval(4)
    members = dm.ball(space, "0", F(1, 2), "future")
    assert set(members) == {"0", "1/4"}  # 1/2 excluded by strictness


def test_past_ball_of_minimum_is_singleton():
    space = dm.discretized_interval(4)
    assert dm.ball(space, "0", F(1000), "past") == ("0",)


def test_ball_rejects_bad_direction():
    with pytest.raises(DomainError):
        dm.ball(two_chain(), "a", F(1), "sideways")


def test_operations_refuse_out_of_range_arguments():
    space = two_chain()
    for call, message in (
        (dm.product, "product needs at least one factor"),
        (dm.disjoint_sum, "sum needs at least one summand"),
        (lambda: dm.ball(space, "a", F(-1, 2), "future"), "ball radius must be >= 0"),
        (lambda: dm.ball(space, "z", F(1), "past"), "unknown point z"),
        (lambda: space.d("a", "z"), "unknown point z"),
        (lambda: dm.discretized_interval(0), "discretized_interval needs n >= 1"),
        (lambda: dm.discretized_directed_circle(0), "discretized_directed_circle needs n >= 1"),
    ):
        with pytest.raises(DomainError, match=f"^{message}$"):
            call()


def test_discretized_interval_one_is_two_chain():
    assert dm.is_isometric(dm.discretized_interval(1), two_chain())


def test_circle_arc_lengths_sum_to_one():
    c = dm.discretized_directed_circle(6)
    for p in c.points:
        for q in c.points:
            if p != q:
                assert c.d(p, q) + c.d(q, p) == F(1)


def test_builders_validate():
    for n in (1, 2, 5, 8):
        assert dm.validate(dm.discretized_interval(n)) == []
        assert dm.validate(dm.discretized_directed_circle(n)) == []


def test_matrix_file_round_trip():
    for space in (two_chain(), dm.discretized_interval(3), dm.discretized_directed_circle(4)):
        text = dm.format_dmetric(space)
        assert dm.format_dmetric(dm.parse_dmetric(text)) == text


def test_parse_entry_forms():
    space = dm.parse_dmetric("points 2 a b\n0 0.5\ninf 0\n")
    assert space.d("a", "b") == F(1, 2)
    assert space.d("b", "a") == dm.INF


def test_parse_errors():
    with pytest.raises(InputSyntaxError):
        dm.parse_dmetric("points 2 a b\n0 1\n")  # missing row
    with pytest.raises(InputSyntaxError):
        dm.parse_dmetric("points 2 a b\n0 1 2\n3 0\n")  # row width
    with pytest.raises(InputSyntaxError):
        dm.parse_dmetric("points 1 a\n-1\n")  # negative
    with pytest.raises(InputSyntaxError):
        dm.parse_dmetric("size 1 a\n0\n")  # bad header
    for text, message in (("", "empty d-metric file"), ("# nothing\n\n", "empty d-metric file"),
                          ("\npoints two a b\n0 1\n1 0\n", "line 2: points count must be an integer")):
        with pytest.raises(InputSyntaxError, match=f"^{message}$"):
            dm.parse_dmetric(text)


def test_exponents_past_the_int_digit_limit_are_refused():
    # Fraction writes out 10**exponent: 1e-10000000 took seconds to read,
    # and each further exponent digit ten times as long
    limit = sys.get_int_max_str_digits()
    for tok in ("1e-10000000", f"1e{limit + 1}", f"2.5E-{limit + 1}", "1e" + "9" * (limit + 1)):
        with pytest.raises(InputSyntaxError) as exc:
            dm.parse_dist(tok)
        assert str(exc.value) == f"bad distance {tok!r}"
    assert dm.parse_dist(f"1e{limit}") == 10 ** limit
    assert dm.parse_dist(f"1E-{limit}") == F(1, 10 ** limit)
    with pytest.raises(InputSyntaxError) as exc:
        dm.parse_dmetric("points 2 a b\n0 1e-10000000\ninf 0\n")
    assert str(exc.value) == "line 2: bad distance '1e-10000000'"


def test_parse_error_names_the_first_row_with_a_bad_token():
    with pytest.raises(InputSyntaxError) as exc:
        dm.parse_dmetric("points 2 a b\n0 x\nx 0\n")
    assert str(exc.value) == "line 2: bad distance 'x'"
    with pytest.raises(InputSyntaxError) as exc:
        dm.parse_dmetric("points 2 a b\n0 1/2\n-1/2 0\n")
    assert str(exc.value) == "line 3: negative distance '-1/2'"


def test_builders_match_the_construction_from_point_ids():
    for n in (1, 2, 3, 6, 12):
        for build, oracle in ((dm.discretized_interval, discretized_interval_oracle),
                              (dm.discretized_directed_circle, discretized_circle_oracle)):
            points, dist = oracle(n)
            expected = dm.DMetricSpace(tuple(points), tuple(map(tuple, dist)))
            assert dm.format_dmetric(build(n)) == dm.format_dmetric(expected)
            assert build(n) == expected


def test_is_isometric_past_the_recursion_limit():
    n = max(1100, sys.getrecursionlimit() + 100)
    x = dm.discretized_interval(n - 1)
    y = dm.DMetricSpace(tuple(f"p{i}" for i in range(n)), x.dist)  # same Fractions
    assert dm.is_isometric(x, y)


# equal values held by distinct int and Fraction objects: 1 and F(2, 2)
ISO_ENTRIES = (0, 1, 2, F(1, 2), F(2, 2), dm.INF)


def first_fit_isometry(x, y):
    """The search without backtracking: each point of x takes the first
    point of y that fits it and the points before it."""
    chosen = []
    for i in range(len(x.points)):
        j = next((j for j in range(len(y.points)) if j not in chosen and all(
            x.dist[i][k] == y.dist[j][c] and x.dist[k][i] == y.dist[c][j]
            for k, c in enumerate(chosen + [j]))), None)
        if j is None:
            return False
        chosen.append(j)
    return len(chosen) == len(y.points)


def test_is_isometric_matches_the_hand_written_search():
    rng = random.Random(1313)
    answers, after_backtracking = set(), 0
    for trial in range(1200):
        n = rng.randint(0, 6)
        values = rng.sample(ISO_ENTRIES, rng.randint(1, 3))  # few values: many ties
        x = dm.DMetricSpace(tuple(f"x{i}" for i in range(n)), tuple(
            tuple(rng.choice(values) for _ in range(n)) for _ in range(n)))  # any diagonal
        kind = trial % 4
        if kind == 3:  # unequal sizes, the empty space among them
            m = rng.choice([k for k in range(7) if k != n])
            y = dm.DMetricSpace(tuple(f"y{i}" for i in range(m)), tuple(
                tuple(rng.choice(values) for _ in range(m)) for _ in range(m)))
        else:  # a permuted copy; 1 and F(2, 2) swapped for each other
            perm = rng.sample(range(n), n)
            swap = {1: F(2, 2), F(2, 2): 1}
            rows = [[swap.get(x.dist[perm[i]][perm[j]], x.dist[perm[i]][perm[j]])
                     for j in range(n)] for i in range(n)]
            if kind == 2 and n:  # then one entry changed
                rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(ISO_ENTRIES)
            y = dm.DMetricSpace(tuple(f"y{i}" for i in range(n)), tuple(map(tuple, rows)))
        expected = is_isometric_oracle(x, y)
        assert dm.is_isometric(x, y) == is_isometric_backtrack_oracle(x, y) == expected
        if len(x.points) == len(y.points):
            answers.add(expected)
            after_backtracking += expected and not first_fit_isometry(x, y)
    assert answers == {True, False}
    assert after_backtracking > 20
    empty = dm.DMetricSpace((), ())
    assert dm.is_isometric(empty, empty)
    assert not dm.is_isometric(empty, dm.discretized_interval(1))


def test_is_isometric_on_nan_entries():
    # a NaN object matches itself and no other NaN object, as in the
    # hand-written search, though validate's exact scaling cannot read it
    nan, other = float("nan"), float("nan")

    def space(ab, aa):  # d(a, b) = ab, d(a, a) = aa, d(b, b) = 0, d(b, a) = oo
        return dm.make_space("ab", lambda p, q: {"ab": ab, "aa": aa, "bb": 0}.get(p + q, dm.INF))

    for x, y in ((space(nan, 0), space(other, 0)), (space(1, nan), space(1, other))):
        with pytest.raises(ValueError):
            dm.validate(x)
        for a, b, want in ((x, x, True), (y, y, True), (x, y, False), (y, x, False)):
            assert dm.is_isometric(a, b) is is_isometric_backtrack_oracle(a, b) is want


def test_product_past_the_point_cap_is_refused(monkeypatch):
    chain = dm.discretized_interval(7)  # 8 points
    with pytest.raises(SizeGuardError, match=r"^product has 32768 points \(guard 1000\)$"):
        dm.product(*[chain] * 5)
    monkeypatch.setattr(dm, "MAX_PRODUCT_POINTS", 8)
    assert len(dm.product(dm.discretized_interval(1), dm.discretized_interval(3)).points) == 8
    with pytest.raises(SizeGuardError, match=r"^product has 9 points \(guard 8\)$"):
        dm.product(dm.discretized_interval(2), dm.discretized_interval(2))


# denominator far past float range: 1 / HUGE is 0.0 as a float, so a kernel
# that went through floats would lose every term written over it
HUGE = 10**401 + 7


def random_entry(rng):
    r = rng.random()
    if r < 0.2:
        return dm.INF
    if r < 0.3:
        return rng.randint(-1, 4)
    v = Fraction(rng.randint(-1, 8), rng.choice((1, 2, 3, 4, 6)))
    return v + Fraction(rng.randint(0, 2), HUGE) if rng.random() < 0.5 else v


def random_space(rng, n):
    """A random matrix: oo, negative entries, nonzero diagonals and broken
    triangles included; or, half the time, the cheapest-chain closure of a
    nonnegative one, which is a valid d-metric."""
    points = tuple(f"p{i}" for i in rng.sample(range(20), n))
    dist = [[random_entry(rng) if i != j or rng.random() < 0.2 else 0 for j in range(n)]
            for i in range(n)]
    if rng.random() < 0.5:
        dist = [[v if v == dm.INF or v >= 0 else -v for v in row] for row in dist]
        for i in range(n):
            dist[i][i] = 0
        dist = metric_quotient_oracle(points, dist, [])[1]
    return dm.DMetricSpace(points, tuple(map(tuple, dist)))


def test_integer_kernel_matches_fraction_references():
    rng = random.Random(2024)
    huge_seen = 0
    for _ in range(400):
        space = random_space(rng, rng.randint(1, 6))
        huge_seen += any(v != dm.INF and Fraction(v).denominator % HUGE == 0
                         for row in space.dist for v in row)
        assert dm.validate(space) == metric_validate_oracle(space.points, space.dist)

        pairs = [tuple(rng.sample(space.points, 2)) if len(space.points) > 1
                 else (space.points[0],) * 2 for _ in range(rng.randint(0, 3))]
        q = dm.quotient(space, pairs)
        expected = dm.DMetricSpace(*metric_quotient_oracle(space.points, space.dist, pairs))
        assert q == expected
        assert dm.format_dmetric(q) == dm.format_dmetric(expected)

        factors = [space] + [random_space(rng, rng.randint(1, 3))
                             for _ in range(rng.randint(0, 2))]
        pr = dm.product(*factors)
        points, dist = metric_product_oracle([(f.points, f.dist) for f in factors])
        assert pr.points == points
        # the winning factor's own entry, as max() picks it, ties included
        assert all(a is b for ra, rb in zip(pr.dist, dist) for a, b in zip(ra, rb))
    assert huge_seen > 50


def test_format_matches_the_entrywise_reference():
    # outputs that share entry objects, plus equal values held by distinct
    # int and Fraction objects (both print as "2")
    rng = random.Random(77)
    for _ in range(150):
        spaces = [random_space(rng, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            s = spaces[0]
            spaces[0] = dm.DMetricSpace(s.points, tuple(
                tuple(2 if (i + j) % 2 else F(2) for j in range(len(row)))
                for i, row in enumerate(s.dist)))
        pairs = [tuple(rng.sample(spaces[0].points, 2)) if len(spaces[0].points) > 1
                 else (spaces[0].points[0],) * 2 for _ in range(rng.randint(0, 2))]
        for space in (dm.product(*spaces), dm.disjoint_sum(*spaces),
                      dm.quotient(spaces[0], pairs), spaces[-1]):
            assert dm.format_dmetric(space) == metric_format_oracle(space.points, space.dist)


# tokens the plain-ASCII fast path must leave to Fraction or refuse as it
# did: leading zeros, zero and bad denominators, signs, underscores,
# exponents, non-ASCII digits, spelled infinities, and ints past the
# conversion limit of str -> int
TOKENS = ("007", "0/5", "3/0", "00/07", "2/4", "+1", "1_0", "1e2", ".5", "-0", "-1/2", "٣",
          "²", "1/²", "inf", "Infinity", "nan", "1/2/3", "/2", "2/", "x", "0", "12/12",
          "9" * 5000, "1/" + "9" * 5000, f"1/{10**30}")


def _outcome(call, *args):
    try:
        return "value", call(*args)
    except (InputSyntaxError, DomainError, ValueError) as exc:
        return "error", type(exc).__name__, str(exc)


def _same_space(new, old):
    """The same points and entries, and the same text; the new space's
    matrix agrees with its entries."""
    assert new == old
    assert dm.format_dmetric(new) == format_by_object_oracle(old)
    lcm, rows = new._matrix
    assert all(e == dm.INF if v is dm.INF else Fraction(v, lcm) == e
               for row, drow in zip(rows, new.dist) for v, e in zip(row, drow))


def test_tokens_read_as_the_fraction_reader_read_them():
    for tok in TOKENS:
        new, old = _outcome(dm.parse_dist, tok), _outcome(parse_dist_fraction_oracle, tok)
        assert new == old, tok
        text = f"points 2 a b\n0 {tok}\n{tok} 0\n"
        new = _outcome(dm.parse_dmetric, text)
        old = _outcome(parse_dmetric_fraction_oracle, text)
        assert new[0] == old[0] and (new[0] == "value" or new == old), tok
        if new[0] == "value":
            _same_space(new[1], old[1])
            assert dm.validate(new[1]) == validate_scaled_oracle(old[1])
    assert type(dm.parse_dist("007")) is int and dm.parse_dist("2/4") == F(1, 2)


POOL = ("0", "1", "7", "3/4", "2/4", "007", "0/5", "1e2", ".5", "+1", "inf", "12/12",
        "5/6", "1/3", f"1/{HUGE}", f"{HUGE}/3")


def random_text(rng):
    """A matrix file over POOL: with a zero diagonal, or not; now and then
    a bad or negative token, a short row or a repeated id."""
    n = rng.randint(1, 5)
    ids = [f"p{i}" for i in rng.sample(range(20), n)]
    rows = [[rng.choice(POOL) if i != j or rng.random() < 0.2 else "0" for j in range(n)]
            for i in range(n)]
    r = rng.random()
    if r < 0.05:
        rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(("x", "-1/2", "3/0", "nan"))
    elif r < 0.08:
        rows[rng.randrange(n)].pop()
    elif r < 0.1 and n > 1:
        ids[1] = ids[0]
    return "".join([f"points {n} {' '.join(ids)}\n"] + [" ".join(row) + "\n" for row in rows])


def parsed(rng):
    while True:
        try:
            return dm.parse_dmetric(random_text(rng))
        except InputSyntaxError:
            pass


def test_parse_and_every_operation_match_the_scaling_per_operation():
    rng = random.Random(5150)
    kinds = {"refused": 0, "valid": 0, "invalid": 0, "mixed": 0}
    for _ in range(300):
        text = random_text(rng)
        new, old = _outcome(dm.parse_dmetric, text), _outcome(parse_dmetric_fraction_oracle, text)
        if old[0] == "error":
            kinds["refused"] += 1
            assert new == old
            continue
        x, x_old = new[1], old[1]
        _same_space(x, x_old)
        bad = validate_scaled_oracle(x_old)
        assert dm.validate(x) == bad
        kinds["invalid" if bad else "valid"] += 1
        # factors: parsed ones (carrying a matrix) and hand-built ones (none yet)
        others = [parsed(rng) if rng.random() < 0.5 else random_space(rng, rng.randint(1, 3))
                  for _ in range(rng.randint(0, 2))]
        kinds["mixed"] += any(not hasattr(o, "_matrix") for o in others)
        factors = [x] + others  # and copies without a matrix, holding the same entries
        copies = [dm.DMetricSpace(f.points, f.dist) for f in factors]
        for op, ref in ((dm.product, product_scaled_oracle), (dm.disjoint_sum, disjoint_sum_oracle)):
            got, want = op(*factors), ref(*copies)
            _same_space(got, want)
            # each entry is the factor's own object, the earlier one on a tie
            assert all(a is b for ra, rb in zip(got.dist, want.dist) for a, b in zip(ra, rb))
        pairs = [tuple(rng.sample(x.points, 2)) if len(x.points) > 1 else (x.points[0],) * 2
                 for _ in range(rng.randint(0, 3))]
        _same_space(dm.quotient(x, pairs), quotient_scaled_oracle(copies[0], pairs))
    assert min(kinds.values()) > 10, kinds


def test_operations_read_the_cached_matrix_and_leave_it_unchanged():
    x = dm.parse_dmetric("points 3 a b c\n0 1/2 3/2\ninf 0 1\ninf 1/3 0\n")
    matrix = x._matrix
    kept = (matrix[0], tuple(map(tuple, matrix[1])))
    assert dm.validate(x) == []
    for result in (dm.quotient(x, [("a", "c")]), dm.product(x, x, x),
                   dm.disjoint_sum(x, x), dm.quotient(x, [])):
        assert hasattr(result, "_matrix")  # every returned space carries its own
        _same_space(result, dm.DMetricSpace(result.points, result.dist))
    assert x._matrix is matrix and (matrix[0], tuple(map(tuple, matrix[1]))) == kept


def test_the_cached_matrix_is_not_part_of_the_record():
    x = dm.parse_dmetric("points 2 a b\n0 3/4\ninf 0\n")
    bare = dm.DMetricSpace(x.points, x.dist)  # the same entries, no matrix yet
    assert hasattr(x, "_matrix") and not hasattr(bare, "_matrix")
    assert x == bare and hash(x) == hash(bare) and repr(x) == repr(bare)
    assert pickle.dumps(x) == pickle.dumps(bare)
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert twin == x and not hasattr(twin, "_matrix")
        assert dm.format_dmetric(twin) == dm.format_dmetric(x)


def test_format_refuses_an_entry_it_cannot_scale():
    # a hand-built NaN, which validate refuses the same way
    space = dm.make_space("ab", lambda p, q: float("nan") if p != q else 0)
    for call in (dm.format_dmetric, dm.validate):
        with pytest.raises(ValueError):
            call(space)
