"""The one union-find of dihom, shared by the class engine, the categorical
searches and the metric quotient; a module of its own so that loading it
pulls in no other part of the library."""


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
