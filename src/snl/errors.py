"""Exception types shared across the package."""


class SnlError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SnlError):
    """Operand dimensions are incompatible."""


class SymmetryError(SnlError):
    """A matrix required to be symmetric is not."""


class PreconditionError(SnlError):
    """An operation precondition (beyond shapes) was violated."""


class KernelDomainError(SnlError):
    """Affinity entries are outside the domain of the requested normalization.

    The raw dot-product kernel can produce negative affinities; use the
    exp_dot kernel when a degree normalization is needed.
    """


class DegenerateVertexError(SnlError):
    """A graph vertex has (numerically) zero degree."""


class AffinityOverflowError(SnlError):
    """The exp_dot kernel exponent exceeds the overflow guard."""


class FilterSpecError(SnlError):
    """A filter specification is inconsistent with its operands."""


class ConfigError(SnlError):
    """A configuration file or object is malformed."""


class NumericError(SnlError):
    """A computation produced a non-finite value."""


class DivergenceError(SnlError):
    """Training loss became non-finite."""

    def __init__(self, step: int):
        super().__init__(f"training diverged (non-finite loss) at step {step}")
        self.step = step
