"""Benchmark for dihom: seeded CLI workloads timed end to end, traced per layer.

Measure one workload (run from the repository root)::

    python3 perfbench/run.py --workload few_classes --seed 1 --seconds 25 --trace 0

Workloads: few_classes, many_classes, pasting, metric (see workloads.py).
The run generates the workload's input files from the seed, then runs its
fixed query list through ``dihom.cli.run(argv, out, err)`` in this process,
one query after the other (a closed loop with one client), pass after pass,
until ``--seconds`` are used up.

Every time the benchmark reports is scaled to a fixed reference speed
(speed.py): the host's speed swings by up to a factor of two for minutes at
a time, so each query's measured time is multiplied by the speed factor
that a fixed probe routine, timed before and after it, gives.  The first
pass warms up and is gated but not timed.

End-to-end metrics (``--trace 0``):

- ``wall_s``: one pass over the query list, as the sum of each query's
  median scaled time over the timed passes of this run.
- ``query_ms.p50`` / ``query_ms.p90``: median and 90th percentile of those
  per-query latencies over the query list (at least 100 queries, so at least
  ten lie beyond p90; the sample count is in the ``env`` line).
- ``peak_rss_mib``: peak resident memory of this process (fresh per run).
- ``setup_s``: median scaled wall time of a fresh interpreter that imports
  ``dihom.cli`` and runs one trivial verb; input generation is not in it.
- ``ok_frac``: share of query runs that passed the gate, 1 - failed/attempted
  (the failure share itself would read 0 on every healthy run).

Every run of every query goes through the correctness gate: exit code 0 and
no ``error:`` line, output sha256 equal to the reference recorded for that
seed (``reference/<workload>.json``), the same digest on every pass, and the
query's seed-independent invariant (checks.py) on its first run.

The ``env`` line also gives the unscaled figures: the median probe time,
``wall_s`` and ``setup_s`` before scaling.

``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics instead: scaled self times (median over traced passes), call
counts and work counters derived from spans that tracing.py records around
the library's public functions, and ``trace.overhead_s``, traced minus
untraced ``wall_s``.  The spans are written once, at the end, to
``.perfbench/trace-<workload>-<seed>.json``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

Other modes:

    python3 perfbench/run.py --smoke          # every workload at its smallest
                                              # sizes, gated and traced
    python3 perfbench/run.py --record 0-31    # record reference digests
    python3 perfbench/run.py --record 0 --smoke  # (--workload: only that one)

Standard library only; one process, no threads, apart from the set-up
launches.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH / "reference"
DIGEST_CHARS = 8

SETUP_LAUNCHES = 21  # plus one untimed launch that fills the bytecode cache
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from dihom.cli import main; sys.exit(main(sys.argv[2:]))"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "query_ms.p50": "ms",
    "query_ms.p90": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "ok_frac": "ratio",
}

# per-layer metrics: self times per pass of the functions below, plus counts
SELF_TIMED = (
    "fundcat.hom_classes", "fundcat.is_one_simple", "fundcat.fundamental_monoid_classes",
    "fundcat.path_preorder", "fundcat.format_hom_classes", "dot.complex_dot", "cli.run",
    "precubical.validate", "gridscene.parse_scene", "gridscene.to_precubical",
    "precubical.parse_complex", "catho.realize_presentation", "catho.parse_presentation",
    "catho.check_presentation_morphism", "catho.pushout", "catho.validate_category",
    "catho.all_functors", "catho.exists_nat_transformation", "catho.dhomotopy_equivalent",
    "dmetric.validate", "dmetric.quotient", "dmetric.parse_dmetric", "dmetric.format_dmetric",
    "dmetric.product", "dmetric.disjoint_sum", "dmetric.ball",
)
CALL_COUNTED = ("fundcat.hom_classes", "precubical.validate", "catho.exists_nat_transformation")
QUOTIENT_SPLIT = {"quotient_small_m": "small_m", "quotient_large_m": "large_m"}


PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"dmetric.quotient.{part}.self_s": "s" for part in QUOTIENT_SPLIT.values()},
    **{f"{mod}.self_s": "s" for mod in tracing.MODULES},
    **{f"{name}.calls": "count" for name in CALL_COUNTED},
    **{name: "count" for name in tracing.COUNTER_NAMES},
    "fundcat.classes_per_dipath": "ratio",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# the correctness gate


def output_digest(code, stdout, written):
    h = hashlib.sha256(f"{code}\n".encode())
    h.update(stdout.encode())
    if written is not None:
        h.update(b"\0" + written.encode())
    return h.hexdigest()[:DIGEST_CHARS]


class Gate:
    """Counts every query run and every failure.

    A run fails if it raised, exited non-zero or wrote an ``error:`` line,
    if its digest differs from the reference (when one is recorded) or from
    the query's first run, or if the query broke its invariant on its first
    run.
    """

    def __init__(self, queries, reference):
        self.queries = queries
        self.reference = reference
        self.first = [None] * len(queries)
        self.broken = {}  # query index -> reason, from the first run
        self.attempted = 0
        self.failed = 0
        self.reasons = {}  # query index -> first failure reason
        self.context = {}

    def record(self, i, code, stdout, stderr, written):
        self.attempted += 1
        digest = output_digest(code, stdout, written)
        q = self.queries[i]
        reason = None
        if code != 0 or "error:" in stderr:
            reason = f"exit {code}: {stderr.strip()[:200]}"
        elif self.reference is not None and digest != self.reference[i]:
            reason = "output differs from the recorded reference"
        elif self.first[i] is None:
            self.first[i] = digest
            if q.check is not None:
                bad = checks.run_check(q.check, stdout if written is None else written,
                                       self.context)
                if bad is not None:
                    self.broken[i] = f"invariant {q.check[0]}: {bad}"
        elif digest != self.first[i]:
            reason = "output differs from this query's first run"
        reason = reason or self.broken.get(i)
        if reason is not None:
            self.failed += 1
            self.reasons.setdefault(i, reason)


# ---------------------------------------------------------------------------
# passes


def resolve(argv, workdir):
    return [str(workdir / a[1:]) if a.startswith("@") else a for a in argv]


class Pass:
    """One timed pass: wall seconds, each query's measured latency and the
    speed probes taken before each query and after the last."""

    def __init__(self, wall, latencies, probes):
        self.wall = wall
        self.latencies = latencies
        self.probes = probes
        self.factors = speed.factors(probes)
        self.scaled = [t * f for t, f in zip(latencies, self.factors)]


def run_pass(cli, plan, gate, tracer=None):
    """One pass over the query list.  ``cli.run`` is looked up per query, so
    a traced pass calls the tracer's wrapper."""
    latencies, probes = [], []
    start = time.perf_counter()
    for i, (argv, output) in enumerate(plan):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.query = i
        probes.append(speed.probe())
        t0 = time.perf_counter()
        try:
            code = cli.run(argv, out, err)
        except Exception as exc:  # a traceback is a failed query, not a failed benchmark
            code = None
            err.write(f"error: raised {exc!r}")
        latencies.append(time.perf_counter() - t0)
        written = Path(output).read_text(encoding="utf-8") if output and code == 0 else None
        gate.record(i, code, out.getvalue(), err.getvalue(), written)
    probes.append(speed.probe())
    return Pass(time.perf_counter() - start, latencies, probes)


def prepare(wl, workdir):
    for name, text in wl.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return [(resolve(q.argv, workdir), str(workdir / q.output) if q.output else None)
            for q in wl.queries]


def measure_passes(cli, plan, gate, seconds, tracer=None):
    """One untimed warm-up pass, then timed passes while the next one is
    expected to end within ``seconds`` of the start.  With a tracer, timed
    passes alternate untraced and traced.  Returns the untraced and the
    traced passes; every pass, the warm-up too, goes through the gate."""
    deadline = time.perf_counter() + seconds
    run_pass(cli, plan, gate)
    modes = (False, True) if tracer is not None else (False,)
    passes = {mode: [] for mode in modes}
    for k in itertools.count():
        traced = modes[k % len(modes)]
        if traced:
            tracer.install()
            try:
                done = run_pass(cli, plan, gate, tracer)
            finally:
                tracer.uninstall()
        else:
            done = run_pass(cli, plan, gate)
        passes[traced].append(done)
        upcoming = passes[modes[(k + 1) % len(modes)]]
        if upcoming and time.perf_counter() + statistics.median(p.wall for p in upcoming) > deadline:
            return passes[False], passes.get(True, [])


# ---------------------------------------------------------------------------
# metrics


def median_per_query(passes, scaled=True):
    """Each query's median time over the passes, scaled or as measured."""
    return [statistics.median(runs)
            for runs in zip(*(p.scaled if scaled else p.latencies for p in passes))]


def measure_setup(workdir):
    """Median scaled and median measured wall time of a fresh interpreter
    that imports dihom.cli and runs one trivial verb."""
    complex_file = workdir / "setup.complex"
    complex_file.write_text("vertex a\nvertex b\nedge e a b\n", encoding="utf-8")
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), "pi0", str(complex_file)]
    times, probes = [], []
    for k in range(SETUP_LAUNCHES + 1):
        if k:
            probes.append(speed.probe())
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout != "components 1\ncomponent 0 a b\n":
            raise RuntimeError(f"set-up launch failed: {proc.stderr.strip()[:200]}")
        if k:
            times.append(elapsed)
    probes.append(speed.probe())
    scaled = [t * f for t, f in zip(times, speed.factors(probes))]
    return statistics.median(scaled), statistics.median(times)


def end_to_end(untraced, setup_s, gate):
    per_query = median_per_query(untraced)
    ms = [x * 1000 for x in per_query]
    return {
        "wall_s": sum(per_query),
        "query_ms.p50": statistics.median(ms),
        "query_ms.p90": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
        "ok_frac": 1 - gate.failed / gate.attempted,
    }


def per_layer(tracer, wl, untraced, traced):
    """Scaled self times per traced pass, the median pass per metric; call
    counts and work counters per pass.  ``traced[k]`` is the pass that
    ``tracer.passes[k]`` holds the spans of."""
    names, kinds = tracer.names, [q.kind for q in wl.queries]
    own = tracer.self_times()
    self_s = {}  # key -> scaled self time of each traced pass
    calls = {}
    for k, ((first, end), done) in enumerate(zip(tracer.passes, traced)):
        for span in range(first, end):
            idx, _, _, _, query = tracer.spans[span]
            name = names[idx]
            keys = [name, name.split(".")[0]]
            if name == "dmetric.quotient" and kinds[query] in QUOTIENT_SPLIT:
                keys.append(f"dmetric.quotient.{QUOTIENT_SPLIT[kinds[query]]}")
            for key in keys:
                per_pass = self_s.setdefault(key, [0.0] * len(traced))
                per_pass[k] += own[span] * done.factors[query]
            calls[name] = calls.get(name, 0) + 1
    n = len(tracer.passes)
    metrics = {}
    for name in PER_LAYER_UNITS:
        if name.endswith(".self_s"):
            per_pass = self_s.get(name[: -len(".self_s")])
            metrics[name] = statistics.median(per_pass) if per_pass else 0.0
        elif name.endswith(".calls"):
            metrics[name] = calls.get(name[: -len(".calls")], 0) / n
        elif name in tracer.counters:
            metrics[name] = tracer.counters[name] / n
    dipaths = metrics["fundcat.dipaths"]
    metrics["fundcat.classes_per_dipath"] = metrics["fundcat.classes"] / dipaths if dipaths else 0.0
    metrics["trace.overhead_s"] = sum(median_per_query(traced)) - sum(median_per_query(untraced))
    return metrics


# ---------------------------------------------------------------------------
# references


def reference_file(workload):
    return REFERENCE / f"{workload}.json"


def load_reference(workload, seed, smoke, count):
    path = reference_file(workload)
    if not path.is_file():
        return None
    table = json.loads(path.read_text(encoding="utf-8"))["smoke" if smoke else "full"]
    digests = table.get(str(seed))
    if digests is None:
        return None
    digests = digests.split()
    if len(digests) != count:
        raise RuntimeError(f"{path.name}: seed {seed} has {len(digests)} digests "
                           f"for {count} queries; record the reference again")
    return digests


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def environment(wl, args, reference):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference": "recorded" if reference is not None else "absent: invariants and "
                     "cross-pass digests only",
        "sizes": wl.sizes,
    }


# ---------------------------------------------------------------------------
# modes


def import_cli():
    sys.path.insert(0, str(SRC))
    from dihom import cli

    return cli


def measure(args):
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        setup_s, setup_raw = measure_setup(workdir)
        wl = workloads.build(args.workload, args.seed)
        plan = prepare(wl, workdir)
        reference = load_reference(wl.name, wl.seed, False, len(plan))
        cli = import_cli()
        gate = Gate(wl.queries, reference)
        tracer = tracing.Tracer() if args.trace else None
        untraced, traced = measure_passes(cli, plan, gate, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is None:
        metrics = end_to_end(untraced, setup_s, gate)
        units = END_TO_END_UNITS
    else:
        metrics = per_layer(tracer, wl, untraced, traced)
        units = PER_LAYER_UNITS
        tracer.write(WORK / f"trace-{wl.name}-{wl.seed}.json",
                     [{"argv": list(q.argv), "kind": q.kind} for q in wl.queries])
    env = environment(wl, args, reference)
    env["passes"] = {"warm_up": 1, "untraced": len(untraced), "traced": len(traced)}
    probes = [x for p in untraced + traced for x in p.probes]
    env["unscaled"] = {"probe_ms_median": statistics.median(probes) * 1000,
                       "reference_probe_ms": speed.REFERENCE_S * 1000,
                       "wall_s": sum(median_per_query(untraced, scaled=False)),
                       "setup_s": setup_raw}
    env["query_samples"] = len(plan)
    print("env " + json.dumps(env, sort_keys=True))
    for i, reason in sorted(gate.reasons.items()):
        print(f"failed query {i} {' '.join(wl.queries[i].argv)}: {reason}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def smoke(args):
    """Every workload at its smallest sizes: a gated untraced pass and a
    gated traced pass, so a broken generator, check or reference fails fast."""
    cli = import_cli()
    bad = 0
    for name in workloads.WORKLOADS:
        workdir = Path(tempfile.mkdtemp(prefix=f"smoke-{name}-", dir=WORK))
        try:
            wl = workloads.build(name, 0, smoke=True)
            plan = prepare(wl, workdir)
            reference = load_reference(name, 0, True, len(plan))
            gate = Gate(wl.queries, reference)
            tracer = tracing.Tracer()
            untraced = run_pass(cli, plan, gate)
            tracer.install()
            try:
                traced = run_pass(cli, plan, gate, tracer)
            finally:
                tracer.uninstall()
            layers = per_layer(tracer, wl, [untraced], [traced])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        problems = [f"query {i} {' '.join(wl.queries[i].argv)}: {r}"
                    for i, r in sorted(gate.reasons.items())]
        if reference is None:
            problems.append("no smoke reference recorded")
        missing = set(PER_LAYER_UNITS) - set(layers)
        if missing:
            problems.append(f"per-layer metrics missing: {sorted(missing)}")
        status = "ok" if not problems else "FAILED"
        print(f"smoke {name}: {status} ({gate.attempted} runs, {len(layers)} per-layer metrics)")
        for p in problems:
            print(f"  {p}")
        bad += bool(problems)
    return 1 if bad else 0


def record(args):
    """Run one gated pass per workload and seed and store its digests.
    Refuses to record a seed whose outputs break an invariant."""
    cli = import_cli()
    first, _, last = args.record.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    profile = "smoke" if args.smoke else "full"
    for name in [args.workload] if args.workload else workloads.WORKLOADS:
        path = reference_file(name)
        data = (json.loads(path.read_text(encoding="utf-8")) if path.is_file()
                else {"full": {}, "smoke": {}})
        for seed in seeds:
            workdir = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=WORK))
            try:
                wl = workloads.build(name, seed, smoke=args.smoke)
                gate = Gate(wl.queries, None)
                run_pass(cli, prepare(wl, workdir), gate)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if gate.failed or gate.broken:
                reasons = {**gate.reasons, **gate.broken}
                print(f"record {name} seed {seed}: refused, {reasons}", file=sys.stderr)
                return 1
            data[profile][str(seed)] = " ".join(gate.first)
            print(f"record {name} seed {seed}: {len(gate.first)} queries", flush=True)
        data["recorded_at"] = git_commit()
        REFERENCE.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", metavar="SEEDS", help="seed or range a-b to record")
    args = parser.parse_args(argv)
    if not (SRC / "dihom" / "cli.py").is_file():
        print(f"error: {SRC / 'dihom'} not found; run from a dihom checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.record is not None:
        return record(args)
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
