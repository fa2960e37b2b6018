"""Exception hierarchy shared across the package."""


class DwdeError(Exception):
    """Base class for all package-specific failures."""


class BadPartitionError(DwdeError):
    """Breakpoints are not strictly increasing or do not span [0, 1]."""


class NonMarkovImageError(DwdeError):
    """A branch image does not align with partition breakpoints."""


class NonExpandingError(DwdeError):
    """A branch has |slope| <= 1."""


class OutOfDomainError(DwdeError):
    """A base point lies outside [0, 1]."""


class EnumerationTooLargeError(DwdeError):
    """A cylinder or word enumeration would exceed the configured cap."""


class InvalidModelError(DwdeError):
    """An environment model fails validation."""


class HorizonZeroError(DwdeError):
    """A simulation was requested with fewer than one step."""


class BudgetExceededError(DwdeError):
    """An ensemble or experiment exceeds the configured work budget."""


class WindowTooSmallError(DwdeError):
    """A DP window cannot contain the walk for the requested horizon."""


class UnsupportedBaseError(DwdeError):
    """The base map shape is not supported by the requested reduction."""


class UnsupportedJumpsError(DwdeError):
    """An operation requires +/-1 jumps but the environment has others."""


class SingularSystemError(DwdeError):
    """An exact linear solve hit a singular system (modeling bug)."""


class HypothesisViolatedError(DwdeError):
    """Inputs do not satisfy the hypotheses of the requested certificate."""


class DegenerateAlphaError(DwdeError):
    """A Solomon alpha value of 0 or 1 was supplied."""


class ConfigError(DwdeError):
    """A configuration document is malformed or has unknown keys."""


class ConsistencyError(DwdeError):
    """A Monte Carlo verdict disagrees with its exact-DP certification."""


class IoFailureError(DwdeError):
    """An output file (report, CSV, JSON or exported config) could not be written."""
