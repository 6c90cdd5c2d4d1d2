"""Command-line parsing: usage errors and help text pinned line for line, and
the table-driven fast path of ``cli._parse`` checked against the argparse
parser that was written by hand (``oracles.build_parser_oracle``)."""

import contextlib
import functools
import io
import random
import re
from pathlib import Path

import pytest

import oracles
from dihom import cli

ROOT = Path(__file__).resolve().parents[1]
VERB_LIST = "'classes', 'hom', 'pi0', 'preorder', 'one-simple', 'monoid', 'cat', 'metric', 'export-dot'"


def outcome(argv, oracle=False):
    """(exit code, stdout, stderr) of ``cli.run(argv)``; help exits through
    SystemExit and prints to sys.stdout, so both are caught.  With
    ``oracle``, the fast path is off and the hand-written parser parses."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if oracle:
            patch = stack.enter_context(pytest.MonkeyPatch.context())
            patch.setattr(cli, "_parse", lambda argv: None)
            patch.setattr(cli, "_shared_parser", _oracle_parser)
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = cli.run(argv, out, err)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@functools.cache
def _oracle_parser():
    return oracles.build_parser_oracle()


# argparse's own wording (Python 3.10 and 3.11), one line each, exit 2
USAGE_ERRORS = [
    ([], "the following arguments are required: verb"),
    (["frobnicate"], f"argument verb: invalid choice: 'frobnicate' (choose from {VERB_LIST})"),
    (["hom", "x.scene", "--to", "v3_3"], "the following arguments are required: --from"),
    (["classes", "x.scene", "--max-len", "x"], "argument --max-len: invalid int value: 'x'"),
    (["cat", "contractible", "two.category", "--direction", "sideways"],
     "argument --direction: invalid choice: 'sideways' (choose from 'past', 'future')"),
    (["pi0", "hole.scene", "extra"], "unrecognized arguments: extra"),
    (["metric", "product"], "the following arguments are required: spaces"),
    (["classes", "x.scene", "--max-len=x"], "argument --max-len: invalid int value: 'x'"),
    (["cat"], "the following arguments are required: catverb"),
    (["metric", "ball", "x.dmetric", "--at", "0", "--eps", "1"],
     "the following arguments are required: --direction"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS,
                         ids=[" ".join(argv) or "no verb" for argv, _ in USAGE_ERRORS])
def test_usage_errors_are_pinned(argv, message):
    assert outcome(argv) == (2, "", f"error: {message}\n")


def test_an_abbreviated_flag_still_answers(monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["hom", "fixtures/hole.scene", "--fro", "v0_0", "--to", "v3_3"]
    assert outcome(argv) == (0, "classes 2\n", "")


HELP_ARGV = [["-h"], ["--help"], ["cat", "-h"], ["metric", "--help"], ["hom", "-h"],
             ["cat", "realize", "-h"], ["metric", "ball", "x", "-h"],
             ["export-dot", "--help", "--bogus"]]


@pytest.mark.parametrize("argv", HELP_ARGV, ids=" ".join)
def test_help_exits_zero_with_the_oracle_text(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = outcome(argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: dihom")
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(io.StringIO()) as text:
        oracles.build_parser_oracle().parse_args(argv)
    assert (exc.value.code, text.getvalue()) == (0, out)


HOM = ["hom", "x.scene", "--from", "a", "--to", "b"]
NOT_PLAIN = [
    [], ["frobnicate"], ["cat"], ["cat", "x.category"], ["-h"], HOM + ["-h"], HOM + ["--"],
    ["hom", "x.scene", "--fro", "a", "--to", "b"], HOM + ["--max-len=3"],
    HOM + ["--max-len", "-1"], ["pi0", "-1"], HOM + ["--to", "b"], HOM + ["--reps", "--reps"],
    ["hom", "x.scene", "--from", "-a", "--to", "b"], HOM + ["--max-len", "x"],
    ["cat", "contractible", "c", "--direction", "sideways"], ["hom", "x.scene", "--to", "b"],
    HOM + ["y.scene"], ["metric", "product"], ["pi0", "-"], HOM + ["--to"],
]


@pytest.mark.parametrize("argv", NOT_PLAIN, ids=" ".join)
def test_fast_path_leaves_lines_that_are_not_plain_to_argparse(argv):
    assert cli._parse(argv) is None


def test_fast_path_gives_what_argparse_gives():
    parser = oracles.build_parser_oracle()
    for argv in (HOM + ["--reps", "--max-len", "+3"], ["metric", "sum", "a", "", " -b"],
                 ["export-dot", "-o", "o.dot", "x"], ["cat", "pushout", *"abcde"]):
        assert vars(cli._parse(argv)) == vars(parser.parse_args(argv)), argv


def test_every_help_text_is_the_oracles(monkeypatch):
    paths = [()] + sorted({path[:1] for path in cli._VERBS}) + list(cli._VERBS)
    assert len(paths) == 1 + 9 + len(cli._VERBS)
    for columns in ("80", "50"):
        monkeypatch.setenv("COLUMNS", columns)
        for path in paths:
            argv = [*path, "-h"]
            assert outcome(argv) == outcome(argv, oracle=True), argv


# fuzz tokens: the table's verbs and flags, abbreviations, ``=`` forms, ``--``,
# help, negative numbers, empty strings, values of every kind and of none
FLAGS = sorted({opt[0] for _, _, options in cli._VERBS.values() for opt in options})
WORDS = sorted({w for path in cli._VERBS for w in path})
NOISE = (FLAGS + WORDS + [f[:k] for f in FLAGS if f.startswith("--") for k in (3, 4, 5)]
         + [f"{f}={v}" for f in FLAGS for v in ("3", "x", "")]
         + ["--", "-", "-h", "--help", "-1", "-0", "-12", "-1.5", "-o", "-ofile", "--wat",
            "", " ", "3", "x", "-x y", "past", "sideways", "1/2", "a b"])
VALUES = {int: ["0", "3", "12", " 4", "+2", "1_0", "x", "", "-1"],
          str: ["v0_0", "a", "1/2", "", "-v", " -v", "past"]}
FILES = ["a.scene", "b", "", " c", "past", "hom", "3"]


def _argv(rng, plain):
    """A command line of a random verb: well formed, and unless ``plain``
    then broken by one to four random edits."""
    path = rng.choice(list(cli._VERBS))
    _help, positionals, options = cli._VERBS[path]
    groups = [[rng.choice(FILES)] for _ in positionals]
    if positionals[-1].endswith("+"):
        groups += [[rng.choice(FILES)] for _ in range(rng.randrange(3))]
    for flag, _dest, kind, required in options:
        if required or rng.random() < 0.5:
            value = [] if kind is bool else [rng.choice(VALUES.get(kind) or kind)]
            if plain and value:
                value = [rng.choice([v for v in VALUES.get(kind) or kind
                                     if v[:1] != "-" and v not in ("x", "")])]
            groups.insert(rng.randint(0, len(groups)), [flag, *value])
    argv = [*path, *(token for group in groups for token in group)]
    for _ in range(0 if plain else rng.randint(1, 4)):
        edit, at = rng.randrange(5), rng.randrange(len(argv) + 1)
        if edit == 0:
            argv.insert(at, rng.choice(NOISE))
        elif edit == 1 and argv:
            del argv[min(at, len(argv) - 1)]
        elif edit == 2 and argv:
            argv[min(at, len(argv) - 1)] = rng.choice(NOISE)
        elif edit == 3 and options:  # a flag given again
            flag, _dest, kind, _required = rng.choice(options)
            argv[at:at] = [flag] if kind is bool else [flag, rng.choice(VALUES.get(kind) or kind)]
        elif edit == 4:
            del argv[at:]
    return argv


def test_fast_path_agrees_with_the_oracle_parser_on_fuzzed_argv():
    rng = random.Random(20261019)
    parser = oracles.build_parser_oracle()
    accepted = edited = 0
    for trial in range(100_000):
        plain = trial % 20 == 0
        argv = _argv(rng, plain)
        fast = cli._parse(argv)
        if plain:
            assert fast is not None, argv
        if fast is None:
            continue
        accepted += 1
        edited += not plain
        assert vars(fast) == vars(parser.parse_args(argv)), argv
    assert accepted > 5000 and edited > 500, (accepted, edited)


def test_run_agrees_with_the_oracle_on_fuzzed_argv(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # no fuzzed file name exists here
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(19)
    seen, fast = set(), 0
    for trial in range(3000):
        argv = _argv(rng, trial % 10 == 0)
        fast += cli._parse(argv) is not None
        got = outcome(argv)
        assert got == outcome(argv, oracle=True), argv
        assert got[0] in (0, 1, 2) and (got[0] == 0 or got[2].count("\n") == 1), (argv, got)
        seen.add(re.sub(r"'.*", "", got[2]) if got[0] else "help")
    # usage errors of every kind, help, and parsed lines that fail on the file
    assert len(seen) > 15 and fast > 300, (seen, fast)
