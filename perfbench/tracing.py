"""Per-layer tracing from outside the library.

The tracer replaces each function listed in ``LAYERS`` with a timing
wrapper.  It sets the wrapper on every ``dihom`` module attribute that holds
the original function, because that attribute is what callers look the
function up on: ``dihom.fundcat.hom_classes`` for the CLI and for
``is_one_simple``'s inner calls, ``dihom.fundcat.require_valid`` for the
alias ``fundcat`` imports from ``precubical``.  Nothing in the library
changes; ``uninstall`` puts the originals back.

Each call records one span: name, start, end, parent span and query id.
Spans stay in memory; self time is a span's duration minus the durations of
its direct children.  Small per-element helpers (``parse_dist``,
``vertex_id``, ...) are not wrapped; their time counts as their caller's.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# module -> public functions wrapped; cli.run is the root span of a query
# and its self time covers argparse, file I/O and the command glue
LAYERS = {
    "cli": ("run",),
    "gridscene": ("parse_scene", "to_precubical", "make_scene", "format_scene"),
    "precubical": ("validate", "require_valid", "parse_complex", "format_complex",
                   "model", "opposite", "sub_complex", "union", "intersect"),
    "fundcat": ("hom_classes", "enumerate_dipaths", "is_acyclic",
                "fundamental_monoid_classes", "path_preorder", "pi0", "is_one_simple",
                "format_hom_classes", "presentation_of", "validate_presentation"),
    "catho": ("validate_category", "require_category", "all_functors",
              "exists_nat_transformation", "nat_transformations", "dhomotopic_functors",
              "equivalence_witness", "dhomotopy_equivalent", "is_past_contractible",
              "is_future_contractible", "is_faithful", "check_functor",
              "compose_functors", "identity_functor", "parse_category", "format_category",
              "parse_presentation", "format_presentation", "parse_presentation_morphism",
              "parse_functor", "check_presentation_morphism", "require_morphism",
              "pushout", "realize_presentation"),
    "dmetric": ("parse_dmetric", "format_dmetric", "parse_relation", "validate",
                "require_valid", "product", "disjoint_sum", "quotient", "ball"),
    "dot": ("complex_dot", "category_dot"),
}

MODULES = tuple(LAYERS)


def _hom_counts(counters, args, result):
    counters["fundcat.dipaths"] += sum(c.size for c in result.classes)
    counters["fundcat.classes"] += result.count


def _realized(counters, args, result):
    counters["catho.realized_classes"] += sum(len(reps) for reps in result.homs.values())


def _functors(counters, args, result):
    counters["catho.functors"] += len(result)


def _triangles(counters, args, result):
    # labelled as computed: validate makes n**3 triangle comparisons
    counters["dmetric.triangle_checks"] += len(args[0].points) ** 3


# counters read off a call's arguments and result
COUNTERS = {
    "fundcat.hom_classes": _hom_counts,
    "catho.realize_presentation": _realized,
    "catho.all_functors": _functors,
    "dmetric.validate": _triangles,
}

COUNTER_NAMES = ("fundcat.dipaths", "fundcat.classes", "catho.realized_classes",
                 "catho.functors", "dmetric.triangle_checks")


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # (name index, start, end, parent span or -1, query id)
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.query = None
        self.passes = []  # (first span, end span) of each install..uninstall
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self._modules = [importlib.import_module(f"dihom.{m}") for m in MODULES]
        self._wrappers = {}  # id(original) -> (original, wrapper)
        for module, (mod, names) in zip(self._modules, LAYERS.items()):
            for n in names:
                fn = getattr(module, n)
                self._wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{n}", fn))

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = (index, start, end, parent, self.query)
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def install(self):
        self._first = len(self.spans)
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        self.passes.append((self._first, len(self.spans)))

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def write(self, path, queries):
        """All spans and the query table, written once."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "queries": queries, "spans": self.spans,
                       "counters": self.counters}, fh)
