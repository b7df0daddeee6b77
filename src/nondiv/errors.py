"""Exception hierarchy.

Every failure mode that callers are expected to handle gets its own class;
anything raised as InternalInvariantViolation indicates a bug or corrupted
input that validation should have caught earlier.
"""

from __future__ import annotations


class NondivError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(NondivError):
    """Malformed input data (files, matrices, configs).

    `field` names the offending entry, e.g. "blocks[1]" or "basis_columns[2][0]".
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


class DependentVectors(NondivError):
    """A spanning set that must be independent is not."""


class DegreeOutOfRange(NondivError):
    """Wedge degree outside 1..n."""


class NotUnimodular(NondivError):
    """Basis determinant is not +-1."""


class WholeSpace(NondivError):
    """Operation requires a proper subspace but received the full space."""


class UnexpandableSubspace(NondivError):
    """No torus direction can expand this subspace.

    Happens exactly when the index-set projection of the subspace touches
    every block, leaving no coordinates to contract against, and for the
    zero subspace.
    """


class BudgetExceeded(NondivError):
    """Vector enumeration hit its node budget before completing."""

    def __init__(self, budget: int, message: str = ""):
        self.budget = budget
        super().__init__(message or f"enumeration budget of {budget} exceeded")


class IncompleteSearch(NondivError):
    """A result that must be certified complete could not be (budget ran out)."""


class NotBelowEta0(NondivError):
    """The lattice already satisfies the covolume floor; no step is needed.

    Carries the squared floor `eta0_sq` that governed the comparison and the
    `DeltaResult` `delta` that met it.
    """

    def __init__(self, eta0_sq, delta=None):
        self.eta0_sq = eta0_sq
        self.delta = delta
        super().__init__("restricted minimal covolume already at or above the floor")

    @property
    def delta_sq_pow(self):
        return None if self.delta is None else self.delta.delta_sq_pow


class ProtectionFailed(NondivError):
    """The protection chain escaped to the full space (guard constant too big)."""


class GrowthContractViolated(NondivError):
    """A push-out step failed its a-posteriori growth check."""


class OutputTooLarge(NondivError):
    """A number to be written has more decimal digits than the interpreter
    converts (`sys.get_int_max_str_digits()`); nothing is written.

    `field` names the offending output entry, e.g. "final.delta_sq_pow".
    """

    def __init__(self, field: str, limit: int):
        self.field = field
        self.limit = limit
        super().__init__(f"{field}: over the {limit}-digit limit for decimal output")


class InternalInvariantViolation(NondivError):
    """A structural property that is supposed to be guaranteed failed."""
