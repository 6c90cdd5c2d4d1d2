"""Invariants of query outputs that hold for any seed.

Each check takes the query's output text, the parameters the workload
recorded for it, and a per-pass context shared by the queries of one pass
(the ``glued_count`` check reads what the ``realize`` check stored there).
It returns ``None`` when the invariant holds and a one-line reason when it
does not.  Everything is computed here from the parameters alone, never by
the library.
"""

from __future__ import annotations

from math import gcd


def _east_ok(x, y, boxes):
    """The closed segment (x, y) -> (x+1, y) misses every open box."""
    return all(not (y0 < y < y1 and x + 1 > x0 and x < x1) for x0, y0, x1, y1 in boxes)


def _north_ok(x, y, boxes):
    return all(not (x0 < x < x1 and y + 1 > y0 and y < y1) for x0, y0, x1, y1 in boxes)


def lattice_paths(w, h, boxes, src, tgt):
    """Monotone unit-step paths src -> tgt in the w x h grid whose steps miss
    every open box (the dipaths of the scene)."""
    (sx, sy), (tx, ty) = src, tgt
    count = {}
    for x in range(sx, tx + 1):
        for y in range(sy, ty + 1):
            c = 1 if (x, y) == (sx, sy) else 0
            if x > sx and _east_ok(x - 1, y, boxes):
                c += count[(x - 1, y)]
            if y > sy and _north_ok(x, y - 1, boxes):
                c += count[(x, y - 1)]
            count[(x, y)] = c
    return count[(tx, ty)]


def _class_sizes(text, p, ctx):
    lines = text.splitlines()
    head = lines[0].split()
    if head[0] != "classes" or int(head[1]) != len(lines) - 1:
        return "class count does not match the class lines"
    total = sum(int(line.split()[3]) for line in lines[1:])
    want = lattice_paths(p["w"], p["h"], p["boxes"], p["src"], p["tgt"])
    if total != want:
        return f"class sizes sum to {total}, lattice paths {want}"
    return None


def _class_count(text, p, ctx):
    tok = text.split()
    if len(tok) != 2 or tok[0] != "classes" or int(tok[1]) < p["min"]:
        return f"expected 'classes N' with N >= {p['min']}"
    return None


def _one_simple(text, p, ctx):
    return None if text == "one-simple true\n" else "a full grid is one-simple"


def _monoid_counts(text, p, ctx):
    first = text.splitlines()[0].split()
    base = p["base"]
    want = [l + 1 if base is None else base ** l for l in range(p["max_len"] + 1)]
    if first[0] != "counts" or [int(c) for c in first[1:]] != want:
        return f"counts should be {want}"
    return None


def reachability_text(w, h, boxes):
    """The expected `preorder` output of a scene: every pair x <= y of
    vertices joined by a dipath, sorted by vertex id.  A step into a point
    inside a box is never allowed, so those points need no test of their own."""
    reach = {}
    for x in range(w, -1, -1):
        for y in range(h, -1, -1):
            if any(x0 < x < x1 and y0 < y < y1 for x0, y0, x1, y1 in boxes):
                continue
            r = {f"v{x}_{y}"}
            if x < w and _east_ok(x, y, boxes):
                r |= reach[(x + 1, y)]
            if y < h and _north_ok(x, y, boxes):
                r |= reach[(x, y + 1)]
            reach[(x, y)] = r
    by_id = {f"v{x}_{y}": r for (x, y), r in reach.items()}
    return "".join(f"{a} {b}\n" for a in sorted(by_id) for b in sorted(by_id[a]))


def _preorder(text, p, ctx):
    if text != reachability_text(p["w"], p["h"], p["boxes"]):
        return "preorder differs from scene reachability"
    return None


def _dot_highlight(text, p, ctx):
    if not text.startswith("digraph ") or "color=red" not in text:
        return "expected a digraph with a highlighted class representative"
    return None


def _equals(text, p, ctx):
    return None if text == p["text"] else "output differs from the expected text"


def _realize(text, p, ctx):
    lines = text.splitlines()
    if lines[:2] != [f"objects {p['objects']}", "truncated false"]:
        return f"expected objects {p['objects']} and a complete realization"
    ctx["realize", p["query"]] = {
        (x, y): int(k) for _, x, y, k in (line.split() for line in lines[2:])
    }
    return None


def _glued_count(text, p, ctx):
    homs = ctx.get(("realize", p["realize"]))
    if homs is None:
        return "realization of the glued presentation is missing"
    want = homs.get(tuple(p["pair"]), 0)
    if text != f"classes {want}\n":
        return f"direct count differs from the glued count {want}"
    return None


def _poset_contractible(text, p, ctx):
    le = {tuple(pair) for pair in p["le"]}
    past = p["direction"] == "past"
    ends = [v for v in sorted(p["names"])
            if all(((v, x) if past else (x, v)) in le for x in p["names"])]
    want = (f"contractible {p['direction']} true object {ends[0]}\n" if ends
            else f"contractible {p['direction']} false\n")
    return None if text == want else f"expected {want.strip()!r}"


def _monoid_contractible(text, p, ctx):
    # a one-object category with k >= 2 arrows has no initial or terminal object
    if not (text.startswith("contractible ") and text.endswith(" false\n")):
        return f"a monoid of order {p['order']} is not contractible"
    return None


def _faithful(text, p, ctx):
    want = "true" if gcd(p["factor"], p["order"]) == 1 else "false"
    return None if text == f"faithful {want}\n" else f"expected faithful {want}"


CHECKS = {
    "class_sizes": _class_sizes,
    "class_count": _class_count,
    "one_simple": _one_simple,
    "monoid_counts": _monoid_counts,
    "preorder": _preorder,
    "dot_highlight": _dot_highlight,
    "equals": _equals,
    "realize": _realize,
    "glued_count": _glued_count,
    "poset_contractible": _poset_contractible,
    "monoid_contractible": _monoid_contractible,
    "faithful": _faithful,
}


def run_check(check, text, ctx):
    """Reason the invariant fails, or None.  A check that trips over output
    it cannot parse reports that as the reason."""
    name, params = check
    try:
        return CHECKS[name](text, params, ctx)
    except (IndexError, KeyError, ValueError) as exc:
        return f"unparsable output ({type(exc).__name__}: {exc})"
