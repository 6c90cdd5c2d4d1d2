"""Command-line front end.

Verbs: classes, hom, pi0, preorder, one-simple, monoid, cat (contractible,
equiv, pushout, realize, faithful), metric (validate, product, sum,
quotient, ball), export-dot.

Exit codes: 0 success, 1 domain error (guards, cyclic enumeration, law
violations), 2 syntax/usage error.  Every failure prints a single line
``error: <reason>`` to stderr.  Identical invocations produce byte-identical
output.

One table, ``_VERBS``, declares every verb with its positionals and
options.  ``_parse`` reads a plain command line straight off it: a known
verb, each flag spelled out and given once, values of their kind and not
starting with ``-``, every required flag and the right number of
positionals.  Every other line (help, usage errors, and what argparse
accepts beyond that: abbreviations, ``--flag=value``, ``--``, negative
numbers, repeated flags) goes to the argparse parser that ``build_parser``
makes from the same table, so help, usage messages and exit 2 are
argparse's own.  A plain command line never imports argparse.

Each verb imports only the library modules it runs, at the top of its
command function: ``pi0`` on a complex loads ``fundcat`` and ``precubical``
but not ``catho``, ``dmetric``, ``gridscene`` or ``dot``, and the ``metric``
verbs load ``dmetric`` and ``_kernels`` alone.  Each invocation is a fresh
interpreter, and on a small input importing is most of what it waits for.
Commands call through the module objects (``fundcat.hom_class_count``),
never through names copied out of them, so a wrapper set on a module
attribute sees every call.  The hom-set verbs build a word only where they
print one, and no per-class record.
"""

from __future__ import annotations

import functools
import os
import stat
import sys
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

from .errors import (DihomError, DomainError, InputSyntaxError, UnboundedEnumerationError,
                     directives)


class _UsageError(Exception):
    pass


_CHUNK = 4096  # lines joined per write of ``hom --reps`` and ``cat realize``


def _read(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise InputSyntaxError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputSyntaxError(f"cannot read {path}: not UTF-8 text") from exc


# the keys of gridscene._SCENE_DIRECTIVES, precubical._COMPLEX_DIRECTIVES and
# catho._CATEGORY_DIRECTIVES, written out: sniffing a file imports no parser
_FORMATS = {**dict.fromkeys(("grid", "box", "source", "target"), "scene"),
            **dict.fromkeys(("vertex", "edge", "square"), "complex"),
            **dict.fromkeys(("object", "arrow", "compose"), "category")}


def _sniff(text):
    """The format its first directive names: scene, complex, category, or None."""
    return next((_FORMATS.get(tok[0]) for _, tok in directives(text)), None)


def _load_complex_or_scene(path):
    """Returns (complex, scene-or-None)."""
    text = _read(path)
    return _parse_complex_or_scene(text, _sniff(text), path)


def _parse_complex_or_scene(text, kind, path):
    """(complex, scene-or-None) of the text read from ``path``, of the
    ``kind`` that ``_sniff`` names."""
    if kind == "scene":
        from . import gridscene
        scene = gridscene.parse_scene(text)
        return gridscene.to_precubical(scene), scene
    if kind == "complex":
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


# verb path -> (help, positionals, options), in the order help lists them.
# A positional is its dest, then ":metavar" if it has one, then "+" if it
# takes one or more values.  An option is (flag, dest, kind, required): kind
# is int, str, a tuple of choices, or bool for a switch.  A switch defaults
# to False, every other option to None.
_VERBS = {
    ("classes",): ("dipath classes from a scene's source to target", ("scene",),
                   (("--max-len", "max_len", int, False),)),
    ("hom",): ("dipath classes between two vertices", ("input:scene-or-complex",),
               (("--from", "src", str, True), ("--to", "dst", str, True),
                ("--max-len", "max_len", int, False), ("--reps", "reps", bool, False))),
    ("pi0",): ("path components of a complex", ("input",), ()),
    ("preorder",): ("path preorder pairs of a complex", ("input",), ()),
    ("one-simple",): ("at most one class per vertex pair?", ("input:scene-or-complex",), ()),
    ("monoid",): ("loop class counts at a vertex", ("input",),
                  (("--at", "at", str, True), ("--max-len", "max_len", int, True))),
    ("cat", "contractible"): ("initial/terminal object check", ("category",),
                              (("--direction", "direction", ("past", "future"), True),)),
    ("cat", "equiv"): ("directed homotopy equivalence of categories", ("left", "right"), ()),
    ("cat", "pushout"): ("pushout of presentations", ("p0", "p1", "p2", "u1", "u2"), ()),
    ("cat", "realize"): ("hom-sets of a presented category", ("presentation",),
                         (("--bound", "bound", int, False),)),
    ("cat", "faithful"): ("functor faithfulness check", ("functor",), ()),
    ("metric", "validate"): ("axioms check", ("space",), ()),
    ("metric", "product"): ("l-infinity product", ("spaces+",), ()),
    ("metric", "sum"): ("disjoint sum", ("spaces+",), ()),
    ("metric", "quotient"): ("identify points along a relation", ("space", "relation"), ()),
    ("metric", "ball"): ("strict past/future ball", ("space",),
                         (("--at", "at", str, True), ("--eps", "eps", str, True),
                          ("--direction", "direction", ("past", "future"), True))),
    ("export-dot",): ("DOT graph of a complex or category", ("input:complex-or-category",),
                      (("-o", "output", str, True), ("--from", "src", str, False),
                       ("--to", "dst", str, False), ("--max-len", "max_len", int, False),
                       ("--highlight", "highlight", int, False))),
}
# group verb -> (dest of its verb, help)
_GROUPS = {"cat": ("catverb", "finite-category analyses"),
           "metric": ("metricverb", "directed metric operations")}


def _parse(argv):
    """The namespace argparse gives a plain command line (see the module
    docstring), else None: argparse then parses the line or names its error."""
    path = tuple(argv[:1]) if tuple(argv[:1]) in _VERBS else tuple(argv[:2])
    if path not in _VERBS:
        return None
    _help, positionals, options = _VERBS[path]
    args = {"verb": path[0]}
    if len(path) == 2:
        args[_GROUPS[path[0]][0]] = path[1]
    flags = {flag: (dest, kind) for flag, dest, kind, _ in options}
    args.update((dest, False if kind is bool else None) for dest, kind in flags.values())
    given, values = set(), []
    tokens = iter(argv[len(path):])
    for token in tokens:
        if not token.startswith("-"):
            values.append(token)
            continue
        if token not in flags or token in given:
            return None
        given.add(token)
        dest, kind = flags[token]
        if kind is bool:
            args[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        args[dest] = value
    if any(required and flag not in given for flag, _, _, required in options):
        return None
    dests = [spec.rstrip("+").partition(":")[0] for spec in positionals]
    if positionals[-1].endswith("+") and len(values) >= len(dests):
        values[len(dests) - 1:] = [values[len(dests) - 1:]]
    if len(values) != len(dests):
        return None
    args.update(zip(dests, values))
    return SimpleNamespace(**args)


def build_parser():
    """The argparse parser of ``_VERBS``: it parses what ``_parse`` leaves,
    writes help, and names usage errors, which it raises as ``_UsageError``."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    parser = Parser(prog="dihom", description="directed-homotopy invariants toolkit")
    subs = {(): parser.add_subparsers(dest="verb", required=True)}
    for path, (help_, positionals, options) in _VERBS.items():
        if path[:-1] not in subs:
            dest, group_help = _GROUPS[path[0]]
            group = subs[()].add_parser(path[0], help=group_help)
            subs[path[:-1]] = group.add_subparsers(dest=dest, required=True)
        p = subs[path[:-1]].add_parser(path[-1], help=help_)
        for spec in positionals:
            dest, _, metavar = spec.rstrip("+").partition(":")
            p.add_argument(dest, metavar=metavar or None, nargs="+" if spec[-1] == "+" else None)
        for flag, dest, kind, required in options:
            if kind is bool:
                p.add_argument(flag, dest=dest, action="store_true")
            elif kind in (int, str):
                p.add_argument(flag, dest=dest, type=kind, required=required)
            else:
                p.add_argument(flag, dest=dest, choices=kind, required=required)
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
    out.write(f"classes {fundcat.hom_class_count(complex_, src, dst, args.max_len)}\n")


def _cmd_hom(args, out):
    from . import fundcat
    complex_, _ = _load_complex_or_scene(args.input)
    query = (complex_, args.src, args.dst, args.max_len)
    if not args.reps:
        out.write(f"classes {fundcat.hom_class_count(*query)}\n")
        return
    reps, sizes = fundcat.hom_class_reps(*query)
    line, head = fundcat.format_hom_class, f"classes {len(reps)}\n"
    # the head and at most _CHUNK lines per write, so the whole text is
    # never held at once; up to _CHUNK classes it is one write
    for lo in range(0, len(reps) or 1, _CHUNK):
        hi = lo + _CHUNK
        out.write("".join([head, *map(line, range(lo, hi), reps[lo:hi], sizes[lo:hi])]))
        head = ""


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
    out.write(fundcat.format_preorder(complex_))


def _cmd_one_simple(args, out):
    from . import fundcat
    complex_, _ = _load_complex_or_scene(args.input)
    try:
        res = fundcat.is_one_simple(complex_)
    except UnboundedEnumerationError:  # the library's line asks for a bound the verb lacks
        raise UnboundedEnumerationError("one-simple decides acyclic complexes only") from None
    if res.one_simple:
        out.write("one-simple true\n")
    else:
        out.write(f"one-simple false witness {res.witness[0]} {res.witness[1]}\n")


def _cmd_monoid(args, out):
    from . import fundcat
    complex_, _ = _load_complex_or_scene(args.input)
    table = fundcat.fundamental_monoid_classes(complex_, args.at, args.max_len)
    out.write("counts " + " ".join(str(c) for c in table.counts) + "\n")
    out.write("".join(f"concat {i} {j} = {k}\n" for (i, j), k in table.table.items()))


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
        lines = (f"hom {x} {y} {count}\n"
                 for x, ys, counts in real.hom_rows() for y, count in zip(ys, counts))
        # as hom --reps: the head and at most _CHUNK lines per write
        text = (f"objects {len(real.objects)}\n"
                f"truncated {'true' if real.truncated else 'false'}\n"
                + "".join(islice(lines, _CHUNK)))
        while text:
            out.write(text)
            text = "".join(islice(lines, _CHUNK))
    else:  # faithful
        path = Path(args.functor)
        # one cache per query: a category named as domain and codomain is read once
        resolve = functools.cache(lambda ref: _checked_category(path.parent / ref))
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
    given = [flag for flag, value in (("--from", args.src), ("--to", args.dst),
                                      ("--max-len", args.max_len), ("--highlight", args.highlight))
             if value is not None]
    if kind == "category" and given:
        raise _UsageError(f"{given[0]} applies to a scene or complex, not to a category")
    if given and args.highlight is None:
        raise _UsageError(f"{given[0]} needs --highlight")
    if kind == "scene" and (args.src is None) != (args.dst is None):
        raise _UsageError("--highlight on a scene takes both --from and --to, or neither")
    if kind == "complex" and args.highlight is not None and None in (args.src, args.dst):
        raise _UsageError("--highlight on a complex takes both --from and --to")
    if kind == "category":
        from . import catho
        cat = catho.parse_category(text)
        dot_text = dot.category_dot(cat, name=Path(args.input).stem)
    else:
        complex_, scene = _parse_complex_or_scene(text, kind, args.input)
        highlight = ()
        if args.highlight is not None:
            src, dst = _scene_endpoints(scene) if args.src is None else (args.src, args.dst)
            from . import fundcat
            highlight = fundcat.hom_class_rep(complex_, src, dst, args.highlight, args.max_len)
        dot_text = dot.complex_dot(complex_, highlight, name=Path(args.input).stem)
    try:
        # in place, not truncated to zero first: ext4 (auto_da_alloc) flushes
        # a file truncated to zero when it is closed; a device such as
        # /dev/null refuses ftruncate, so only a regular file is cut to length
        with open(os.open(args.output, os.O_WRONLY | os.O_CREAT, 0o666), "w",
                  encoding="utf-8") as f:
            f.write(dot_text)
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()
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
        args = _parse(argv) or _shared_parser().parse_args(argv)
        _COMMANDS[args.verb](args, out)
    except (_UsageError, InputSyntaxError) as exc:
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
