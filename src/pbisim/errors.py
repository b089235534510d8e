"""Exception hierarchy shared by all modules.

Errors map onto CLI exit codes: parse/validation problems exit with 2,
an exceeded enumeration budget exits with 3.
"""

# Pair counts of more decimal digits than this are reported only as a
# bound: Python's default limit refuses to turn them into text, or to read
# a --pair-cap that large.
MAX_DIGITS = 4300
# Here, not in core, matrices or epsilon, so that the command line and the
# parsers need not load them.
DEFAULT_TOL = 1e-9
DEFAULT_PAIR_BUDGET = 10_000_000
NORM_KINDS = ("op-inf", "entry-max", "frobenius")


class PbisimError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PbisimError):
    """A value violates a structural invariant."""


class NegativeEntryError(ValidationError):
    def __init__(self, state: int, action: str, value: float):
        self.state = state
        self.action = action
        self.value = value
        super().__init__(
            f"negative probability {value!r} in row {state} of action {action!r}"
        )


class RowSumError(ValidationError):
    """A transition row sums to neither 0 nor 1 within tolerance."""

    def __init__(self, state: int, action: str, total: float):
        self.state = state
        self.action = action
        self.total = total
        super().__init__(
            f"row {state} of action {action!r} sums to {total!r}; "
            "expected 0 (disabled) or 1 (full distribution)"
        )


class EmptyActionSetError(ValidationError):
    def __init__(self):
        super().__init__("action set is empty")


class NonSurjectiveError(ValidationError):
    def __init__(self, missing_class: int):
        self.missing_class = missing_class
        super().__init__(f"class {missing_class} has no states")


class NotClassificationMatrixError(ValidationError):
    pass


class DimensionMismatchError(ValidationError):
    pass


class NotLumpableError(PbisimError):
    """Raised when a quotient is requested for a non-lumpable classification."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__(f"classification is not lumpable: {violation}")


class InvalidRangeError(ValidationError):
    pass


class ClassCountMismatchError(ValidationError):
    pass


class BudgetExceededError(PbisimError):
    """The exhaustive search space exceeds the configured pair budget."""

    def __init__(self, count: int | None, budget: int):
        self.count = count
        self.budget = budget
        needs = f"more than 10^{MAX_DIGITS}" if count is None else count
        super().__init__(
            f"exhaustive search needs {needs} classification pairs, "
            f"budget is {budget}"
        )


class NotALatticeError(ValidationError):
    pass


class ParseError(PbisimError):
    """Syntax error in a text input; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class UnknownNameError(ParseError):
    def __init__(self, name: str, line: int | None = None):
        self.name = name
        super().__init__(f"unknown name {name!r}", line)
