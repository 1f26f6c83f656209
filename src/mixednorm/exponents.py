"""Exponents for mixed norms: exact rationals in (0, inf) plus infinity.

Finite exponents are stored as fractions.Fraction so that harmonic means,
Holder complements, and derived exponent tables come out exact.  INF is
math.inf itself: it compares greater than every Fraction, and reciprocal
gives it exactly 0.  Every infinite exponent is that one object, since
as_exponent returns INF for every spelling of infinity and the derivations
return the constant, so `e is INF` tests for it.  Floats are converted only
at evaluation time.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError


INF = math.inf

Exponent = Fraction | float


def as_exponent(value) -> Exponent:
    """Coerce a number, Fraction, 'inf' (also 'oo' or '∞'), or 'a/b' string to an
    exponent in (0, inf]."""
    if isinstance(value, bool):
        raise ValidationError(f"not an exponent: {value!r}")
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("inf", "+inf", "infinity", "oo", "∞"):
            return INF
        _check_decimal_exponent(text, value)
        try:
            frac = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not an exponent: {value!r}") from exc
    elif isinstance(value, (int, Fraction)):
        frac = Fraction(value)
    elif isinstance(value, float):
        if math.isnan(value):
            raise ValidationError("exponent may not be NaN")
        if math.isinf(value):
            if value < 0:
                raise ValidationError("exponent must be positive")
            return INF
        frac = Fraction(value)  # exact binary value of the float
    else:
        raise ValidationError(f"not an exponent: {value!r}")
    if frac <= 0:
        raise ValidationError(f"exponent must be positive, got {value!r}")
    to_float(frac)  # a finite exponent must have a float value to evaluate with
    return frac


def _check_decimal_exponent(text: str, value) -> None:
    """Reject a decimal string whose exponent part puts it outside the float
    range, before Fraction spends time growing its power of ten.

    A float lies between about 1e-324 and 1.8e308, and a string of n
    characters has at most n significant digits, so a nonzero decimal whose
    exponent part exceeds n + 330 in size is certainly outside that range.
    """
    mantissa, e, exponent = text.rpartition("e")
    digits = exponent.lstrip("+-").replace("_", "")
    if not (e and digits.isdigit()):
        return  # no exponent part; Fraction judges the rest
    size = digits.lstrip("0")
    if len(size) <= 7 and int(size or "0") <= len(text) + 330:
        return
    if mantissa.startswith("-") or not any(c in "123456789" for c in mantissa):
        raise ValidationError(f"exponent must be positive, got {value!r}")
    where = "below" if exponent.startswith("-") else "beyond"
    raise ValidationError(f"exponent {value!r} is {where} the float range")


def reciprocal(e: Exponent) -> Fraction:
    """1/e with the exact convention 1/inf = 0."""
    if e is INF:
        return Fraction(0)
    return 1 / e


def to_float(e: Exponent) -> float:
    """The float value of an exponent; a finite one beyond the float range is
    rejected rather than rounded to inf, and a positive one too small for a
    float rather than rounded to 0."""
    if e is INF:
        return INF
    try:
        f = float(e)
    except OverflowError:
        f = math.inf
    if f == math.inf or (f == 0.0 and e > 0):
        magnitude = math.log10(e.numerator) - math.log10(e.denominator)
        where = "beyond" if f else "below"
        raise ValidationError(f"exponent of about 1e{magnitude:.0f} is {where} the float range")
    return f


def exponent_to_doc(e: Exponent):
    """JSON form: 'inf', an int, a float when binary-exact, else 'a/b'."""
    if e is INF:
        return "inf"
    if e.denominator == 1:
        return int(e)
    f = to_float(e)
    if Fraction(f) == e:
        return f
    return str(e)


def harmonic_mean(exponents) -> Exponent:
    """Exact harmonic mean: n / sum(1/p_j), with 1/inf = 0; inf if all are inf."""
    exps = [as_exponent(e) for e in exponents]
    if not exps:
        raise ValidationError("harmonic mean of an empty exponent list")
    s = sum((reciprocal(e) for e in exps), Fraction(0))
    if s == 0:
        return INF
    return Fraction(len(exps)) / s
