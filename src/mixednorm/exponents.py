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
        frac = parse_rational(value, "exponent")
    elif isinstance(value, Fraction):
        frac = value  # immutable, so it needs no copy
    elif isinstance(value, int):
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


def parse_rational(value: str, what: str) -> Fraction:
    """The exact value of a decimal or 'a/b' string: an exponent's or a subset
    coefficient's text (`what` names it in messages).  A nonzero decimal of n
    characters whose exponent part exceeds n + 330 in size is certainly
    outside the float range (about 1e-324 to 1.8e308), and is rejected before
    Fraction spends time growing its power of ten."""
    text = value.strip().lower()
    mantissa, e, exponent = text.rpartition("e")
    digits = exponent.lstrip("+-").replace("_", "")
    size = digits.lstrip("0")
    if e and digits.isdigit() and (len(size) > 7 or int(size or "0") > len(text) + 330):
        if not any(c in "123456789" for c in mantissa):
            text = mantissa + "e0"  # a zero mantissa is 0 at any exponent; Fraction checks its text
        elif mantissa.startswith("-"):
            raise ValidationError(f"{what} {value!r} is not positive")
        else:
            where = "below" if exponent.startswith("-") else "beyond"
            raise ValidationError(f"{what} {value!r} is {where} the float range")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{what} {value!r} is not a number") from exc


def reciprocal(e: Exponent) -> Fraction:
    """1/e with the exact convention 1/inf = 0."""
    if e is INF:
        return Fraction(0)
    return 1 / e


def to_float(e: Exponent) -> float:
    """The float value of an exponent (a Fraction or INF; an int works too);
    a finite one beyond the float range is rejected rather than rounded to
    inf, and a positive one too small for a float rather than rounded to 0."""
    if e is INF:
        return INF
    try:
        f = e.numerator / e.denominator  # float(e) without its dispatch: the same correctly rounded division
    except OverflowError:
        f = math.inf
    if f == math.inf or (f == 0.0 and e > 0):
        magnitude = math.log10(e.numerator) - math.log10(e.denominator)
        where = "beyond" if f else "below"
        raise ValidationError(f"exponent of about 1e{magnitude:.0f} is {where} the float range")
    return f


def json_float(x: float):
    """x for a strict-JSON document: the float itself, or its name ("inf",
    "-inf") when it is not finite."""
    return float(x) if math.isfinite(x) else str(x)


def exponent_to_doc(e: Exponent):
    """JSON form: 'inf', an int, a float when binary-exact, else 'a/b'."""
    if e is INF:
        return "inf"
    d = e.denominator
    if d == 1:
        return int(e)
    f = to_float(e)
    if d & (d - 1) == 0 and Fraction(f) == e:  # only a power-of-two denominator can be a float's
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
