"""Exception hierarchy shared by all dihom modules, and the line reader of
every text format.

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
