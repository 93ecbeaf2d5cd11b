"""Exception types shared across the package."""


class DftError(Exception):
    """Base class for all library errors."""


class SymbolSyntaxError(DftError):
    """The symbol string does not match the grammar."""


class ValidityError(DftError):
    """The input is well formed but invalid: a symbol that describes no
    discriminant form, or 0/1 columns that list a row twice or outside
    the rows."""


class DegenerateForm(DftError):
    """The bilinear form has a radical (should not happen for built forms)."""


class DimensionMismatch(DftError):
    """An element does not belong to the form it was used with."""


class NotIsotropic(DftError):
    """A subgroup required to be isotropic is not."""


class NotNested(DftError):
    """Transitivity check called on subgroups that are not nested."""


class NotTwoAdic(DftError):
    """Graph construction requires a form of 2-power level."""


class NotACycle(DftError):
    """The given vertex sequence is not a closed walk in the isotropy graph."""


class EvenLength(DftError):
    """Closed-walk combination requires odd length."""


class HypothesisFailed(DftError):
    """Preconditions of an explicit construction do not hold."""


class BoundExceeded(DftError):
    """The computation would exceed a configured enumeration bound."""


class RelationFailed(DftError):
    """An exact matrix identity failed; carries the offending entry."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry
