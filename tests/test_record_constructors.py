"""The constructors that errors.Record writes: one per record class, written
on its first construction from ``_fields`` and ``_defaults``, running the
bytecode of a hand-written ``__init__``, and none written by a launch that
builds no record."""

import copy
import inspect
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import dihom
from dihom import dmetric as dm
from dihom import fundcat as fc
from dihom import gridscene as gs
from dihom import precubical as pc
from dihom.errors import DomainError, Record, _set
from test_records import EDGE, IDS, RECORDS


@pytest.mark.parametrize("cls,args,text,hashable", RECORDS, ids=IDS)
def test_first_construction_writes_the_constructor(monkeypatch, cls, args, text, hashable):
    monkeypatch.setattr(cls, "__init__", Record.__init__)
    first = cls(*args())
    init = cls.__init__
    assert init is not Record.__init__
    assert init.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__name__ in init.__code__.co_filename
    params = list(inspect.signature(init).parameters.values())[1:]
    assert tuple(p.name for p in params) == cls._fields
    assert {p.name: p.default for p in params if p.default is not p.empty} == cls._defaults
    assert cls(*args()) == first and cls.__init__ is init  # written once
    assert pickle.loads(pickle.dumps(first)) == first


# the hand-written constructors that the written ones replace
def old_homclass_init(self, representative, size):
    _set(self, "representative", representative)
    _set(self, "size", size)


def old_cell_init(self, dim, id, label=None):
    _set(self, "dim", dim)
    _set(self, "id", id)
    _set(self, "label", label)


@pytest.mark.parametrize("cls,args,old", [
    (fc.HomClass, (("e",), 1), old_homclass_init),
    (pc.Cell, (0, "a"), old_cell_init),
], ids=["HomClass", "Cell"])
def test_written_constructor_runs_the_hand_written_bytecode(cls, args, old):
    cls(*args)
    new = cls.__init__.__code__
    assert new.co_code == old.__code__.co_code
    assert new.co_consts == old.__code__.co_consts
    assert new.co_names == old.__code__.co_names
    assert cls.__init__.__defaults__ == old.__defaults__


@pytest.mark.parametrize("first", [True, False], ids=["first", "later"])
@pytest.mark.parametrize("call,message", [
    (lambda: pc.Cell(0), "Cell.__init__() missing 1 required positional argument: 'id'"),
    (lambda: pc.Cell(), "Cell.__init__() missing 2 required positional arguments: 'dim' and 'id'"),
    (lambda: pc.Cell(0, "a", None, 1),
     "Cell.__init__() takes from 3 to 4 positional arguments but 5 were given"),
    (lambda: pc.Cell(0, "a", bogus=1),
     "Cell.__init__() got an unexpected keyword argument 'bogus'"),
    (lambda: pc.Cell(0, "a", dim=1), "Cell.__init__() got multiple values for argument 'dim'"),
    (lambda: fc.HomClass(("e",)),
     "HomClass.__init__() missing 1 required positional argument: 'size'"),
    (lambda: gs.Box(0, 0, 1, 1, 2), "Box.__init__() takes 5 positional arguments but 6 were given"),
], ids=["missing", "missing-two", "extra", "unknown-keyword", "twice", "homclass", "box"])
def test_wrong_arguments_raise_the_old_type_error(monkeypatch, call, message, first):
    if first:
        for cls in (pc.Cell, fc.HomClass, gs.Box):
            monkeypatch.setattr(cls, "__init__", Record.__init__)
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


def subclass(parent, name):
    return type(name, (parent,), {"__slots__": (), "__qualname__": name})


@pytest.mark.parametrize("parent_first", [True, False], ids=["parent-first", "subclass-first"])
def test_subclass_with_the_same_fields_builds_and_compares(monkeypatch, parent_first):
    monkeypatch.setattr(gs.Box, "__init__", Record.__init__)
    if parent_first:
        gs.Box(0, 0, 1, 1)
    lookalike = subclass(gs.Box, "Lookalike")
    a, b = lookalike(0, 1, 2, 3), lookalike(x0=0, y0=1, x1=2, y1=3)
    if parent_first:
        assert lookalike.__init__ is gs.Box.__init__
    else:
        assert lookalike.__init__.__qualname__ == "Lookalike.__init__"
        assert gs.Box.__init__ is Record.__init__
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != gs.Box(0, 1, 2, 3) and gs.Box(0, 1, 2, 3) != a
    assert repr(a) == "Lookalike(x0=0, y0=1, x1=2, y1=3)"
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    match a:
        case gs.Box(x0, y0, x1, y1):
            assert (x0, y0, x1, y1) == (0, 1, 2, 3)
    with pytest.raises(DomainError, match="duplicate point id 0"):
        subclass(dm.DMetricSpace, "Checked")(("0", "0"), ((0, 0), (0, 0)))


@pytest.mark.parametrize("cls,call,message", [
    (fc.DiPath, lambda: fc.DiPath(pc.parse_complex(EDGE), "zz"), "unknown vertex zz"),
    (dm.DMetricSpace, lambda: dm.DMetricSpace(("0", "1", "0"), ((0,) * 3,) * 3),
     "duplicate point id 0"),
], ids=["DiPath", "DMetricSpace"])
def test_check_runs_on_the_first_construction_and_later(monkeypatch, cls, call, message):
    monkeypatch.setattr(cls, "__init__", Record.__init__)
    with pytest.raises(DomainError, match=message):
        call()
    assert cls.__init__ is not Record.__init__  # written before the check ran
    with pytest.raises(DomainError, match=message):
        call()


# a fresh interpreter: this one has already built every record
UNWRITTEN = (
    "import sys; sys.path.insert(0, sys.argv[1]); from dihom.cli import main; "
    "from dihom import errors, fundcat; "
    "main(['pi0', sys.argv[2]]); "
    "assert fundcat.HomClass.__init__ is errors.Record.__init__; "
    "sys.stderr.write(' '.join(c.__name__ for c in errors.Record.__subclasses__() "
    "if c.__init__ is not errors.Record.__init__))"
)


def test_pi0_launch_writes_no_constructor():
    src = Path(dihom.__file__).resolve().parents[1]
    circle = src.parent / "fixtures" / "circle.complex"
    proc = subprocess.run(
        [sys.executable, "-c", UNWRITTEN, str(src), str(circle)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "components 1\ncomponent 0 *\n"
    assert proc.stderr == ""
