"""Command-line front end.

Verbs: classes, hom, pi0, preorder, one-simple, monoid, cat (contractible,
equiv, pushout, realize, faithful), metric (validate, product, sum,
quotient, ball), export-dot.

Exit codes: 0 success, 1 domain error (guards, cyclic enumeration, law
violations), 2 syntax/usage error.  Every failure prints a single line
``error: <reason>`` to stderr.  Identical invocations produce byte-identical
output.

Each verb imports only the library modules it runs, at the top of its
command function: ``pi0`` on a complex loads ``fundcat`` and ``precubical``
but not ``catho``, ``dmetric``, ``gridscene`` or ``dot``, and the ``metric``
verbs load ``dmetric`` and ``_kernels`` alone.  Each invocation is a fresh
interpreter, and on a small input importing is most of what it waits for.
Commands call through the module objects (``fundcat.hom_classes``), never
through names copied out of them, so a wrapper set on a module attribute
sees every call.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import DihomError, DomainError, InputSyntaxError, directives


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputSyntaxError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputSyntaxError(f"cannot read {path}: not UTF-8 text") from exc


def _sniff(text):
    """First directive decides the file kind."""
    return next((tok[0] for _, tok in directives(text)), "")


def _load_complex_or_scene(path):
    """Returns (complex, scene-or-None)."""
    text = _read(path)
    kind = _sniff(text)
    if kind == "grid":
        from . import gridscene
        scene = gridscene.parse_scene(text)
        return gridscene.to_precubical(scene), scene
    if kind in ("vertex", "edge", "square"):
        from . import precubical
        return precubical.parse_complex(text), None
    raise InputSyntaxError(f"{path}: not a scene or complex file")


def _checked_category(path):
    from . import catho
    cat = catho.parse_category(_read(path))
    bad = catho.validate_category(cat)
    if bad:
        raise DomainError(f"{path}: " + "; ".join(bad[:3]))
    return cat


def build_parser():
    parser = _Parser(prog="dihom", description="directed-homotopy invariants toolkit")
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


@functools.cache
def _shared_parser():
    """build_parser() once per process; parse_args leaves a parser unchanged."""
    return build_parser()


def _scene_endpoints(scene):
    from . import gridscene
    return (
        gridscene.vertex_id(*scene.source),
        gridscene.vertex_id(*scene.target),
    )


def _cmd_classes(args, out):
    from . import fundcat
    complex_, scene = _load_complex_or_scene(args.scene)
    if scene is None:
        raise InputSyntaxError(f"{args.scene}: classes wants a scene file")
    src, dst = _scene_endpoints(scene)
    h = fundcat.hom_classes(complex_, src, dst, args.max_len)
    out.write(f"classes {h.count}\n")


def _cmd_hom(args, out):
    from . import fundcat
    complex_, _ = _load_complex_or_scene(args.input)
    h = fundcat.hom_classes(complex_, args.src, args.dst, args.max_len)
    if args.reps:
        out.write(fundcat.format_hom_classes(h))
    else:
        out.write(f"classes {h.count}\n")


def _cmd_pi0(args, out):
    from . import fundcat
    complex_, _ = _load_complex_or_scene(args.input)
    parts = fundcat.pi0(complex_)
    out.write(f"components {len(parts)}\n")
    for i, part in enumerate(parts):
        out.write(f"component {i} {' '.join(part)}\n")


def _cmd_preorder(args, out):
    from . import fundcat
    complex_, _ = _load_complex_or_scene(args.input)
    reach = fundcat.path_preorder(complex_)
    for x in sorted(reach):
        for y in sorted(reach[x]):
            out.write(f"{x} {y}\n")


def _cmd_one_simple(args, out):
    from . import fundcat
    complex_, _ = _load_complex_or_scene(args.input)
    res = fundcat.is_one_simple(complex_)
    if res.one_simple:
        out.write("one-simple true\n")
    else:
        out.write(f"one-simple false witness {res.witness[0]} {res.witness[1]}\n")


def _cmd_monoid(args, out):
    from . import fundcat
    complex_, _ = _load_complex_or_scene(args.input)
    table = fundcat.fundamental_monoid_classes(complex_, args.at, args.max_len)
    out.write("counts " + " ".join(str(c) for c in table.counts) + "\n")
    for (i, j), k in sorted(table.table.items()):
        out.write(f"concat {i} {j} = {k}\n")


def _cmd_cat(args, out):
    from . import catho
    if args.catverb == "contractible":
        cat = _checked_category(args.category)
        check = (
            catho.is_past_contractible
            if args.direction == "past"
            else catho.is_future_contractible
        )
        flag, witness = check(cat)
        if flag:
            out.write(f"contractible {args.direction} true object {witness}\n")
        else:
            out.write(f"contractible {args.direction} false\n")
    elif args.catverb == "equiv":
        left = _checked_category(args.left)
        right = _checked_category(args.right)
        flag = catho.dhomotopy_equivalent(left, right)
        out.write(f"equivalent {'true' if flag else 'false'}\n")
    elif args.catverb == "pushout":
        p0 = catho.parse_presentation(_read(args.p0))
        p1 = catho.parse_presentation(_read(args.p1))
        p2 = catho.parse_presentation(_read(args.p2))
        u1 = catho.parse_presentation_morphism(_read(args.u1), p0, p1)
        u2 = catho.parse_presentation_morphism(_read(args.u2), p0, p2)
        result = catho.pushout(p0, p1, p2, u1, u2)
        out.write(catho.format_presentation(result.presentation))
    elif args.catverb == "realize":
        pres = catho.parse_presentation(_read(args.presentation))
        real = catho.realize_presentation(pres, args.bound)
        out.write(f"objects {len(real.objects)}\n")
        out.write(f"truncated {'true' if real.truncated else 'false'}\n")
        for (x, y), reps in sorted(real.homs.items()):
            if reps:
                out.write(f"hom {x} {y} {len(reps)}\n")
    else:  # faithful
        path = Path(args.functor)

        def resolve(ref):
            return _checked_category(path.parent / ref)

        fun = catho.parse_functor(_read(path), resolve)
        bad = catho.check_functor(fun)
        if bad:
            raise DomainError(f"{args.functor}: " + "; ".join(bad[:3]))
        out.write(f"faithful {'true' if catho.is_faithful(fun) else 'false'}\n")


def _cmd_metric(args, out):
    from . import dmetric
    if args.metricverb == "validate":
        space = dmetric.parse_dmetric(_read(args.space))
        bad = dmetric.validate(space)
        if bad:
            out.write(f"valid false violations {len(bad)}\n")
            for v in bad:
                out.write(f"violation {v}\n")
        else:
            out.write("valid true\n")
    elif args.metricverb in ("product", "sum"):
        spaces = [dmetric.parse_dmetric(_read(p)) for p in args.spaces]
        for s in spaces:
            dmetric.require_valid(s)
        op = dmetric.product if args.metricverb == "product" else dmetric.disjoint_sum
        out.write(dmetric.format_dmetric(op(*spaces)))
    elif args.metricverb == "quotient":
        space = dmetric.require_valid(dmetric.parse_dmetric(_read(args.space)))
        pairs = dmetric.parse_relation(_read(args.relation))
        out.write(dmetric.format_dmetric(dmetric.quotient(space, pairs)))
    else:  # ball
        space = dmetric.require_valid(dmetric.parse_dmetric(_read(args.space)))
        eps = dmetric.parse_dist(args.eps)
        members = dmetric.ball(space, args.at, eps, args.direction)
        out.write(f"ball {len(members)}\n")
        for p in members:
            out.write(f"{p}\n")


def _cmd_export_dot(args, out):
    from . import dot
    if args.max_len is not None and args.max_len < 0:
        raise DomainError(f"length bound {args.max_len} is negative")
    text = _read(args.input)
    kind = _sniff(text)
    if kind == "object":
        from . import catho
        cat = catho.parse_category(text)
        dot_text = dot.category_dot(cat, name=Path(args.input).stem)
    else:
        complex_, scene = _load_complex_or_scene(args.input)
        highlight = ()
        if args.highlight is not None:
            if scene is not None and (args.src is None or args.dst is None):
                src, dst = _scene_endpoints(scene)
            elif args.src is not None and args.dst is not None:
                src, dst = args.src, args.dst
            else:
                raise DomainError("--highlight needs --from and --to on a complex")
            from . import fundcat
            h = fundcat.hom_classes(complex_, src, dst, args.max_len)
            if not 0 <= args.highlight < h.count:
                raise DomainError(
                    f"class index {args.highlight} out of range ({h.count} classes)"
                )
            highlight = h.classes[args.highlight].representative
        dot_text = dot.complex_dot(complex_, highlight, name=Path(args.input).stem)
    try:
        Path(args.output).write_text(dot_text, encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot write {args.output}: {exc.strerror}") from exc


_COMMANDS = {
    "classes": _cmd_classes,
    "hom": _cmd_hom,
    "pi0": _cmd_pi0,
    "preorder": _cmd_preorder,
    "one-simple": _cmd_one_simple,
    "monoid": _cmd_monoid,
    "cat": _cmd_cat,
    "metric": _cmd_metric,
    "export-dot": _cmd_export_dot,
}


def run(argv, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _shared_parser().parse_args(argv)
    except _UsageError as exc:
        err.write(f"error: {exc}\n")
        return 2
    try:
        _COMMANDS[args.verb](args, out)
    except InputSyntaxError as exc:
        err.write(f"error: {exc}\n")
        return 2
    except DihomError as exc:
        err.write(f"error: {exc}\n")
        return 1
    return 0


def main(argv=None):
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
