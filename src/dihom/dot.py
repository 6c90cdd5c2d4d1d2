"""Deterministic DOT emitters for complexes and categories."""

from __future__ import annotations


def _quote(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def complex_dot(complex_, highlight_edges=(), name="complex"):
    """One node per vertex, one edge per 1-cell; highlighted edges are drawn
    red and thick (used for class representatives)."""
    hl = set(highlight_edges)
    lines = [f"digraph {_quote(name)} {{"]
    for v in complex_.vertices:
        label = complex_.label(0, v) or v
        lines.append(f"  {_quote(v)} [label={_quote(label)}];")
    for e, (s, t) in complex_.edges.items():  # kept in id order
        attrs = [f"label={_quote(e)}"]
        if e in hl:
            attrs.append("color=red")
            attrs.append("penwidth=2.0")
        lines.append(f"  {_quote(s)} -> {_quote(t)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def category_dot(cat, name="category"):
    """One node per object, one edge per non-identity arrow."""
    lines = [f"digraph {_quote(name)} {{"]
    for x in cat.objects:
        lines.append(f"  {_quote(x)};")
    for a in sorted(cat.non_identity_arrows()):
        s, t = cat.arrows[a]
        lines.append(f"  {_quote(s)} -> {_quote(t)} [label={_quote(a)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
