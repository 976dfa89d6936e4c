"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class SizeLimitError(RuntimeError):
    """A combinatorial guard was exceeded; the request is too large for exact work."""


class DegenerateHostError(RuntimeError):
    """The host row family is rank deficient: no full-size subset has nonzero determinant.

    Also raised when float residuals leave mass on a row the exact measure gives none.
    """


class IdentityError(RuntimeError):
    """An exact identity of the verify suite does not hold."""
