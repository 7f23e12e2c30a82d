"""Exception hierarchy shared by all halin_ola modules, and their one int check."""


class HalinOlaError(Exception):
    """Base class for all errors raised by this package."""


# -- tree construction -------------------------------------------------------

class CycleDetected(HalinOlaError):
    pass


class DisconnectedInput(HalinOlaError):
    pass


class DuplicateChild(HalinOlaError):
    pass


class InvalidSubstrate(HalinOlaError):
    """Tree cannot carry a Halin graph (degree constraints violated)."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# -- layouts and block operations --------------------------------------------

class NotContiguous(HalinOlaError):
    pass


class Overlapping(HalinOlaError):
    pass


# -- solvers -----------------------------------------------------------------

class NotRecursivelyBalanced(HalinOlaError):
    pass


class NotTreeOptimalInput(HalinOlaError):
    """Input layout is not an optimal arrangement of the underlying tree."""


class TooLarge(HalinOlaError):
    pass


class BadParam(HalinOlaError):
    pass


def _check_ints(**params: int) -> None:
    # bool is an int subclass, so the test is on the exact type
    for name, value in params.items():
        if type(value) is not int:
            raise BadParam(f"{name} must be an int, got {value!r}")


# -- file formats ------------------------------------------------------------

class ParseError(HalinOlaError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class SchemaVersionUnsupported(HalinOlaError):
    pass
