"""Exact exponent arithmetic: parsing, ordering, reciprocals, harmonic means."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mixednorm import INF, ValidationError, as_exponent, harmonic_mean, reciprocal, to_float
from mixednorm.exponents import exponent_to_doc


def test_as_exponent_accepts_the_usual_forms():
    assert as_exponent(2) == Fraction(2)
    assert as_exponent("4/3") == Fraction(4, 3)
    assert as_exponent("2") == Fraction(2)
    assert as_exponent("0.5") == Fraction(1, 2)
    assert as_exponent(Fraction(7, 5)) == Fraction(7, 5)
    assert as_exponent("inf") is INF
    assert as_exponent("Infinity") is INF
    assert as_exponent(math.inf) is INF
    assert as_exponent(INF) is INF
    # floats convert to their exact binary value
    assert as_exponent(0.25) == Fraction(1, 4)


@pytest.mark.parametrize("bad", [0, -1, "-3", "0", "nan", "two", None, True, [], -math.inf])
def test_as_exponent_rejects_nonpositive_and_garbage(bad):
    with pytest.raises(ValidationError):
        as_exponent(bad)


@pytest.mark.parametrize("text", ["oo", "∞", " OO ", "inf"])
def test_infinity_spellings_round_trip_to_inf(text):
    e = as_exponent(text)
    assert e is INF
    assert exponent_to_doc(e) == "inf" and str(e) == "inf"


@pytest.mark.parametrize(
    "value", [float("inf"), np.float64("inf"), math.inf, INF, "+inf", "oo", "∞", "Infinity"]
)
def test_every_infinity_is_the_one_inf_object(value):
    # the package tests for infinity with `e is INF`, which needs this identity
    assert INF is math.inf
    assert as_exponent(value) is INF


def test_as_exponent_rejects_nan_float():
    with pytest.raises(ValidationError):
        as_exponent(math.nan)


def test_infinity_ordering():
    one = Fraction(1)
    assert INF > one
    assert INF >= one
    assert not (INF < one)
    assert not (INF <= one)
    assert one < INF
    assert one <= INF
    assert INF <= INF
    assert INF >= INF
    assert not (INF > INF)
    assert INF == INF
    assert INF != one


def test_sorting_mixed_exponent_lists():
    exps = [INF, Fraction(1), Fraction(3), INF, Fraction(1, 2)]
    ordered = sorted(exps)
    assert ordered[:3] == [Fraction(1, 2), Fraction(1), Fraction(3)]
    assert ordered[3] is INF and ordered[4] is INF
    assert max(exps) is INF
    assert sorted(exps, reverse=True)[0] is INF


def test_reciprocal_is_exact():
    assert reciprocal(Fraction(4, 3)) == Fraction(3, 4)
    assert reciprocal(INF) == 0
    assert isinstance(reciprocal(INF), Fraction)


def test_to_float():
    assert to_float(Fraction(3, 2)) == 1.5
    assert to_float(INF) == math.inf


def test_exponents_beyond_the_float_range_are_rejected():
    with pytest.raises(ValidationError, match="beyond the float range"):
        to_float(Fraction(3 * 10**308))
    for text in ("1e400", "1e5000", f"{10**400}/3"):
        with pytest.raises(ValidationError, match="beyond the float range"):
            as_exponent(text)
    assert to_float(as_exponent("1.5e308")) == 1.5e308


def test_exponents_below_the_float_range_are_rejected():
    # 1e-400 is a positive Fraction whose float is 0.0, which gave NaN norms
    with pytest.raises(ValidationError, match="below the float range"):
        to_float(Fraction(1, 10**400))
    for text in ("1e-400", "12345e-330"):
        with pytest.raises(ValidationError, match="below the float range"):
            as_exponent(text)
    assert to_float(as_exponent("5e-324")) == 5e-324


def test_huge_decimal_exponents_are_rejected_before_fraction():
    # Fraction("1e10000000") alone takes seconds; these must not reach it
    start = time.perf_counter()
    for text in ("1e10000000", "1E-99999999", "2.5e+1_000_000"):
        with pytest.raises(ValidationError, match="float range"):
            as_exponent(text)
    for text in ("0e10000000", "-1e10000000"):
        with pytest.raises(ValidationError, match="positive"):
            as_exponent(text)
    assert time.perf_counter() - start < 1.0
    assert as_exponent("1e-0000000000000000000000000005") == Fraction(1, 10**5)


def test_harmonic_mean_known_values():
    assert harmonic_mean([2, 1]) == Fraction(4, 3)
    assert harmonic_mean([2, 1, 1]) == Fraction(6, 5)
    assert harmonic_mean([3, 3, 3]) == Fraction(3)
    # 1/inf counts as exactly zero
    assert harmonic_mean([2, "inf"]) == Fraction(4)
    assert harmonic_mean(["inf", "inf"]) is INF
    with pytest.raises(ValidationError):
        harmonic_mean([])


def test_string_and_doc_forms():
    assert str(Fraction(4, 3)) == "4/3"
    assert str(Fraction(2)) == "2"
    assert str(INF) == "inf"
    assert exponent_to_doc(Fraction(2)) == 2
    assert exponent_to_doc(Fraction(1, 4)) == 0.25  # binary-exact
    assert exponent_to_doc(Fraction(4, 3)) == "4/3"  # not binary-exact
    assert exponent_to_doc(INF) == "inf"
    # doc forms round-trip through as_exponent
    for e in (Fraction(2), Fraction(1, 4), Fraction(4, 3), INF):
        assert as_exponent(exponent_to_doc(e)) == e
