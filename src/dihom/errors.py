"""Exception hierarchy shared by all dihom modules, the line reader of every
text format, and the base of the library's result records.

InputSyntaxError covers malformed text inputs (exit code 2 in the CLI);
DomainError covers well-formed inputs that violate an operation's
preconditions or a resource guard (exit code 1).
"""


class DihomError(Exception):
    pass


class InputSyntaxError(DihomError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def directives(text, spec=None):
    """Yield (line number, tokens) for each line of ``text`` that has tokens
    once its ``#`` comment is cut off; blank and comment-only lines are
    skipped but counted.

    ``spec`` maps each directive to (field count, message): a line whose
    first token is not in it raises ``unknown directive``, and one with
    another number of fields after the directive raises that message.
    """
    for ln, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        if spec is not None:
            if tok[0] not in spec:
                raise InputSyntaxError(f"unknown directive {tok[0]!r}", ln)
            fields, message = spec[tok[0]]
            if len(tok) != fields + 1:
                raise InputSyntaxError(message, ln)
        yield ln, tok


class DomainError(DihomError):
    pass


class InvalidComplexError(DomainError):
    pass


class UnboundedEnumerationError(DomainError):
    """Unbounded dipath or word enumeration requested on a cyclic structure."""


class EnumerationLimitError(DomainError):
    """The enumerated path/word set exceeded the configured cap."""


class SizeGuardError(DomainError):
    """An input exceeded a size guard: that of a brute-force categorical
    search, or the point cap of scene compilation or of a metric product."""


_set = object.__setattr__  # skips Record.__setattr__; a global is faster than object's lookup


class Record:
    """Base of the immutable result records: a frozen dataclass's semantics
    without the cost of importing and generating one.  A record lists its
    fields in ``__init__`` order in ``_fields`` (and ``__slots__``) and sets
    them with ``_set``.  ==, hash and repr use the fields not in ``_hidden``;
    assignment and deletion raise AttributeError."""

    __slots__ = ()
    _fields = ()
    _hidden = ()  # fields left out of ==, hash and repr

    def __init_subclass__(cls):
        cls.__match_args__ = cls._fields
        cls._compared = tuple(f for f in cls._fields if f not in cls._hidden)

    def _values(self):
        return tuple(getattr(self, f) for f in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle: __setattr__ would refuse the slot state
        return self.__class__, tuple(getattr(self, f) for f in self._fields)
