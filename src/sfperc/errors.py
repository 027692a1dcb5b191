"""Exception types used across the package."""


class SfpercError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SfpercError, ValueError):
    """A parameter is outside its mathematical domain."""


class NumericalFailureError(SfpercError, RuntimeError):
    """An iterative numerical routine failed to converge within its budget."""


class ConfigError(SfpercError, ValueError):
    """An experiment configuration is malformed or infeasible."""
