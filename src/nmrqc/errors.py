"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Bad user-supplied parameters: unknown names, out-of-range values."""


class NumericalIntegrityError(RuntimeError):
    """A numerical contract was violated (non-unit norm, non-unitary matrix)."""
