"""The union-find of the class engine, the categorical searches and the
metric quotient, the backtracker of every exhaustive search (functors,
transformations, isomorphisms), and the one isomorphism search of thin
categories' cores and of metric spaces: each written once, in a module that
loads no other part of the library but its errors."""

from itertools import count

from .errors import EnumerationLimitError


class _UnionFind:
    __slots__ = ("parent",)  # the class engine builds one per layer

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        # find, inlined: this is the class engine's inner loop
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        while p[b] != b:
            p[b] = p[p[b]]
            b = p[b]
        # keep the smaller index as root: roots are then lex-least members
        if a < b:
            p[b] = a
        elif b < a:
            p[a] = b


def _backtrack(options, fits):
    """Yield every choice list ``chosen`` (one list, updated in place) with
    ``chosen[k]`` from ``options[k]``, in product order, depth-first:
    ``fits(k, chosen)`` is asked once ``chosen[:k + 1]`` is set, and a
    prefix it rejects is not extended."""
    n = len(options)
    chosen = [None] * n
    tried = [0] * n  # options tried so far at each depth
    k = 0
    while k >= 0:
        if k == n:
            yield chosen
            k -= 1
            continue
        opts = options[k]
        while tried[k] < len(opts):
            chosen[k] = opts[tried[k]]
            tried[k] += 1
            if fits(k, chosen):
                break
        else:
            tried[k] = 0
            k -= 1
            continue
        k += 1


def _isomorphic(a, b, max_tried=None):
    """Whether a bijection p has ``a[i][j] == b[p(i)][p(j)]`` for all i, j, on
    square matrices where None means no link (x not <= y, or oo).  The points
    of ``a`` are placed one at a time, the first of those linked to most
    placed points next, onto unused points of ``b`` with the same key that
    agree both ways with every point placed before; past ``max_tried`` of
    these checks it raises :class:`EnumerationLimitError`."""
    diagonal = {}  # the values on both diagonals, numbered so that the keys sort

    def keys_of(m):  # each point's diagonal value's number and its row's and column's None counts
        n, none = len(m), [v is None for row in m for v in row]
        return [(diagonal.setdefault(m[i][i], len(diagonal)), none[i * n:i * n + n].count(True),
                 none[i::n].count(True)) for i in range(n)]

    cols, keys = (list(zip(*a)), list(zip(*b))), (keys_of(a), keys_of(b))
    if sorted(keys[0]) != sorted(keys[1]):
        return False
    order, out, into, links = [], [], [], dict.fromkeys(range(len(a)), 0)
    while links:
        x = max(links, key=links.get)  # first of the most linked points
        del links[x]
        row, col = a[x], cols[0][x]
        out.append(tuple(map(row.__getitem__, order)))  # its entries to the points before it
        into.append(tuple(map(col.__getitem__, order)))  # and theirs to it
        order.append(x)
        for y in links:
            links[y] += row[y] is not None or col[y] is not None
    images = {}
    for y, kind in enumerate(keys[1]):
        images.setdefault(kind, []).append(y)
    tried = count(1)  # calls of fits, numbered from 1

    def fits(k, chosen):
        if max_tried is not None and next(tried) > max_tried:
            raise EnumerationLimitError(f"more than {max_tried} partial isomorphisms tried")
        y, before = chosen[k], chosen[:k]
        return (y not in before and tuple(map(b[y].__getitem__, before)) == out[k]
                and tuple(map(cols[1][y].__getitem__, before)) == into[k])

    return next(_backtrack([images[keys[0][x]] for x in order], fits), None) is not None
