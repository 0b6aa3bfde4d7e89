"""Every error the library raises, under one base, :class:`HyperecError`.

Each module also exports the errors it raises.  The CLI catches the base
alone, so it imports no design-layer module only to name that layer's errors.
"""


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
