"""Exception types shared across the package.

Refusals (a construction declines to run because its hypotheses fail) are kept
distinct from numerical failures (a construction ran but the result does not
meet its certificate).  The command line maps the two groups to different exit
codes, so library code should pick the class that matches what actually went
wrong rather than raising ValueError.
"""


class OrbitForgeError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(OrbitForgeError):
    """Operands live in incompatible spaces (index set or dimension)."""


class DegenerateInputError(OrbitForgeError):
    """Input is structurally unusable: zero vector, empty tuple, rank collapse."""


class DomainError(OrbitForgeError):
    """A requested target lies outside the admissible domain of a construction.

    Carries ``admissible_radius`` when the violated constraint is a sup-norm
    ball, so callers can report how far off the request was.
    """

    def __init__(self, message, admissible_radius=None):
        super().__init__(message)
        self.admissible_radius = admissible_radius


class PreconditionError(OrbitForgeError):
    """A hypothesis of the underlying statement fails for these inputs.

    ``minimal_n`` is set when the hypothesis is a threshold in a single integer
    parameter and the smallest passing value is known.
    """

    def __init__(self, message, minimal_n=None):
        super().__init__(message)
        self.minimal_n = minimal_n


class UnsupportedModelError(OrbitForgeError):
    """The operator model is outside the catalogue of the requested operation."""


class ResolutionError(OrbitForgeError):
    """A discretization is too coarse for the requested tolerance."""


class WindowBudgetError(OrbitForgeError):
    """The construction would exceed the stored-entry budget."""

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class NumericalError(OrbitForgeError):
    """A computation ran but failed its own accuracy certificate.

    ``residual`` holds the measured defect when one is available; ``floor``
    holds the float64 rounding floor when that is what stopped the run, and
    ``bound`` the tolerance that could not be certified.
    """

    def __init__(self, message, residual=None, floor=None, bound=None):
        super().__init__(message)
        self.residual = residual
        self.floor = floor
        self.bound = bound


class ConfigError(OrbitForgeError):
    """A config file is malformed or contains unknown keys.

    ``location`` is a human-readable pointer (file, section, key) when known.
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


REFUSAL_ERRORS = (
    DomainError,
    PreconditionError,
    UnsupportedModelError,
    ResolutionError,
    WindowBudgetError,
    DegenerateInputError,
    DimensionMismatchError,
)
