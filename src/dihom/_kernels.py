"""The union-find of the class engine, the categorical searches and the
metric quotient, and the backtracker of every exhaustive search (functors,
transformations, poset and metric isomorphisms): each written once, in a
module that loads no other part of the library."""


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
