"""Exception hierarchy shared across the package."""


class BnmcError(Exception):
    """Base class for all package-specific errors."""


class CycleError(BnmcError):
    """The CPT parents of a network form a cycle; names one back edge."""

    def __init__(self, parent: int, child: int):
        super().__init__(f"cycle detected involving edge {parent} -> {child}")
        self.parent = parent
        self.child = child


class MalformedQueryError(BnmcError):
    """An assignment or query is ill-formed (unknown variable, value out of
    range, conflicting bindings, or a partial assignment where a full one is
    required)."""


class IllConditionedQueryError(BnmcError):
    """The evidence of a conditional query has probability zero."""


class CapError(BnmcError):
    """A configurable resource cap was exceeded."""


class StateCapError(CapError):
    """Explicit Markov-chain construction would exceed the state cap."""


class EnumerationCapError(CapError):
    """Exhaustive enumeration would exceed the assignment cap."""


class BifParseError(BnmcError):
    """Syntax or consistency error in a BIF document."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class PsddError(BnmcError):
    """Structural problem in a vtree or PSDD."""


class PsddParseError(PsddError):
    """Syntax or validation error while loading a vtree/PSDD file pair."""
