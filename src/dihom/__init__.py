"""Directed-homotopy invariants of finite combinatorial models.

Modules by topic:

- :mod:`dihom.precubical` -- pre-cubical sets (dims 0-2) and their text format
- :mod:`dihom.gridscene`  -- planar grid regions with forbidden boxes
- :mod:`dihom.fundcat`    -- dipaths, swap classes, preorders, realizations
- :mod:`dihom.catho`      -- directed homotopy of finite categories, pushouts
- :mod:`dihom.dmetric`    -- Lawvere directed metric spaces, exact arithmetic
- :mod:`dihom.cli`        -- the ``dihom`` command
"""

from .errors import (
    DihomError,
    DomainError,
    EnumerationLimitError,
    InputSyntaxError,
    InvalidComplexError,
    SizeGuardError,
    UnboundedEnumerationError,
)

__version__ = "0.1.0"

__all__ = [
    "DihomError",
    "DomainError",
    "EnumerationLimitError",
    "InputSyntaxError",
    "InvalidComplexError",
    "SizeGuardError",
    "UnboundedEnumerationError",
    "__version__",
]
