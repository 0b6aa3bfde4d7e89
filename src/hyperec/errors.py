"""Every error the library raises, under one base, :class:`HyperecError`,
and the one rule for integer arguments.

Each module also exports the errors it raises.  The CLI catches the base
alone, so it imports no design-layer module only to name that layer's errors.
An integer argument (a count, an order, a vertex, a point, a field element) is
a plain ``int``, never a ``bool``: :func:`check_int` refuses anything else with
the called module's error, and :func:`int_tuples` tests rows of members.
"""

import itertools


class HyperecError(ValueError):
    """Bad input or a violated precondition, as opposed to a property verdict."""


class _AtLine:
    """A parse error; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class HypergraphError(HyperecError):
    """Invalid hypergraph construction or operation argument."""


class HypergraphFormatError(_AtLine, HypergraphError):
    """Malformed hypergraph text."""


class CheckerUsageError(HyperecError):
    """Caller violated an operation precondition (not a property verdict)."""


class RandomModelError(HyperecError):
    """Invalid random-model parameters."""


class DesignError(HyperecError):
    """Invalid Latin square, MOLS family or block design."""


class DesignFormatError(_AtLine, DesignError):
    """Malformed design or MOLS text."""


class GaloisError(HyperecError):
    """Invalid finite-field order, element or argument."""


def check_int(value, name: str, error, low=None, high=None) -> None:
    """Refuse, with ``error``, a non-``int`` value, one below ``low`` or one outside [low, high)."""
    if type(value) is not int:
        raise error(f"{name} must be int, got {value!r}")
    if high is not None and not low <= value < high:
        raise error(f"{name} {value} out of range [{low}, {high})")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {value}")


def int_tuples(rows) -> bool:
    """True iff ``rows`` and its rows are tuples and every member is an ``int``, not a ``bool``."""
    return (
        type(rows) is tuple
        and set(map(type, rows)) <= {tuple}
        and set(map(type, itertools.chain.from_iterable(rows))) <= {int}
    )
