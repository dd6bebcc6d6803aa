"""Exception types shared across the package, and the checks of an integer
and of a choice that every parameter check is built on."""
from numbers import Integral


class ConfigurationError(ValueError):
    """Bad user-supplied parameters: unknown names, out-of-range values."""


class NumericalIntegrityError(RuntimeError):
    """A numerical contract was violated (non-unit norm, non-unitary matrix)."""


def is_integer(x) -> bool:
    """An int or another Integral such as numpy's int64; a bool is none."""
    return type(x) is int or isinstance(x, Integral) and not isinstance(x, bool)


def check_choice(value, name: str, domain: tuple):
    """The entry of domain equal to value, or ConfigurationError naming
    the parameter.  Only a string or an integer (``is_integer``)
    matches: neither True nor 2.0 is 2."""
    if (type(value) is str or is_integer(value)) and value in domain:
        return domain[domain.index(value)]
    raise ConfigurationError(f"{name} must be one of {domain}, got {value!r}")
