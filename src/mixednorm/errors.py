import numbers


class ValidationError(ValueError):
    """A space, tensor, norm spec, instance, or document violates its contract."""


def as_count(value, what: str, minimum: int = 0) -> int:
    """A count, seed or index as a Python int: an integral number (a numpy
    integer too) that is not a bool and is at least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} is not an integer: {value!r}")
    if value < minimum:
        raise ValidationError(f"{what} must be at least {minimum}, got {value}")
    return int(value)
