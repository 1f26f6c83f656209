"""Permutation actions, raising/lowering, decomposition, and orbits."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mixednorm import (
    INF,
    NormSpec,
    Permutation,
    ValidationError,
    all_permutations,
    apply_permutation,
    decompose,
    inversion_count,
    lowers,
    orbit,
    orbit_info,
    raises,
    sorting_permutations,
)

POOL = ["1/2", "1", "3/2", "2", "3", "inf"]


def random_spec(rng, n, pool=POOL):
    exps = [pool[int(rng.integers(len(pool)))] for _ in range(n)]
    return NormSpec(tuple((e, f"x{i + 1}") for i, e in enumerate(exps)))


# ---------------------------------------------------------------------------
# the group itself

def test_permutation_basics():
    p = Permutation((2, 3, 1))
    assert p(1) == 2 and p(3) == 1
    assert p.inverse().images == (3, 1, 2)
    assert p.compose(p.inverse()).is_identity
    assert Permutation.identity(4).is_identity
    assert Permutation.transposition(4, 2).images == (1, 3, 2, 4)
    with pytest.raises(ValidationError):
        Permutation((1, 1, 3))
    for images in ((1.9, 2), (1.0, 2), (True, 2), ("a", 2)):
        with pytest.raises(ValidationError, match="not an integer"):
            Permutation(images)
    with pytest.raises(ValidationError):
        Permutation.transposition(3, 3)


def test_all_permutations_lex_and_count():
    perms = list(all_permutations(3))
    assert len(perms) == 6
    assert perms[0].images == (1, 2, 3)
    assert perms[-1].images == (3, 2, 1)
    assert [p.images for p in perms] == sorted(p.images for p in perms)


def test_inversion_count():
    assert inversion_count(Permutation((1, 2, 3))) == 0
    assert inversion_count(Permutation((3, 2, 1))) == 3
    assert inversion_count(Permutation((2, 1, 4, 3))) == 2


def test_apply_permutation_modes():
    spec = NormSpec(((1, "a"), (2, "b"), (3, "c")))
    sigma = Permutation((2, 3, 1))
    both = apply_permutation(spec, sigma, "both")
    assert both.columns == ((Fraction(2), "b"), (Fraction(3), "c"), (Fraction(1), "a"))
    exps = apply_permutation(spec, sigma, "exponents")
    assert exps.exponents == (Fraction(2), Fraction(3), Fraction(1))
    assert exps.axis_ids == ("a", "b", "c")
    vrs = apply_permutation(spec, sigma, "variables")
    assert vrs.exponents == (Fraction(1), Fraction(2), Fraction(3))
    assert vrs.axis_ids == ("b", "c", "a")
    with pytest.raises(ValidationError):
        apply_permutation(spec, Permutation((1, 2)), "both")
    with pytest.raises(ValidationError):
        apply_permutation(spec, sigma, "rows")


def test_actions_are_right_actions():
    # applying sigma then rho must equal applying sigma∘rho once
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        spec = random_spec(rng, n)
        sigma = Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))
        rho = Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))
        for mode in ("both", "exponents", "variables"):
            two_steps = apply_permutation(apply_permutation(spec, sigma, mode), rho, mode)
            one_step = apply_permutation(spec, sigma.compose(rho), mode)
            assert two_steps == one_step, (mode, sigma.images, rho.images)


# ---------------------------------------------------------------------------
# raising and lowering

def test_raises_by_definition_small_case():
    spec = NormSpec(((1, "a"), (2, "b")))
    swap = Permutation((2, 1))
    assert raises(swap, spec)  # moves the 2 inward past the 1
    assert not lowers(swap, spec)
    assert raises(Permutation((1, 2)), spec)  # identity raises trivially
    assert lowers(Permutation((1, 2)), spec)
    desc = NormSpec(((2, "a"), (1, "b")))
    assert not raises(swap, desc)
    assert lowers(swap, desc)


def test_ties_raise_and_lower_both_ways():
    spec = NormSpec(((2, "a"), (2, "b")))
    swap = Permutation((2, 1))
    assert raises(swap, spec)
    assert lowers(swap, spec)


def test_infinite_exponents_count_as_largest():
    spec = NormSpec((("inf", "a"), (2, "b")))
    swap = Permutation((2, 1))
    assert lowers(swap, spec)
    assert not raises(swap, spec)


def test_adjacent_transposition_criterion():
    # swapping columns j, j+1 raises exactly when q_j <= q_{j+1}
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        spec = random_spec(rng, n)
        j = int(rng.integers(1, n))
        tau = Permutation.transposition(n, j)
        exps = spec.exponents
        assert raises(tau, spec) == (exps[j - 1] <= exps[j])
        assert lowers(tau, spec) == (exps[j - 1] >= exps[j])


def test_raise_lower_duality_and_closure():
    rng = np.random.default_rng(42)
    for n in (2, 3, 4):
        perms = list(all_permutations(n))
        for _ in range(30):
            spec = random_spec(rng, n)
            raising = [s for s in perms if raises(s, spec)]
            # duality: sigma raises P iff sigma^-1 lowers P·sigma
            for sigma in perms:
                moved = apply_permutation(spec, sigma, "both")
                assert raises(sigma, spec) == lowers(sigma.inverse(), moved)
            # closure: if sigma raises P and rho raises P·sigma then sigma∘rho raises P
            for sigma in raising:
                moved = apply_permutation(spec, sigma, "both")
                for rho in perms:
                    if raises(rho, moved):
                        assert raises(sigma.compose(rho), spec)


def test_raises_error_names_witness_pair():
    spec = NormSpec(((2, "a"), (1, "b")))
    with pytest.raises(ValidationError, match="columns"):
        decompose(Permutation((2, 1)), spec, "raise")


# ---------------------------------------------------------------------------
# decomposition certificates

def test_decompose_identity_is_empty():
    spec = NormSpec(((1, "a"), (2, "b")))
    trace = decompose(Permutation.identity(2), spec)
    assert trace.steps == ()
    assert trace.final_spec == spec
    assert trace.recompose().is_identity
    assert trace.to_doc() == []


def test_decompose_structure_brute_force():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        perms = list(all_permutations(n))
        for _ in range(40):
            spec = random_spec(rng, n)
            for sigma in perms:
                for direction, pred in (("raise", raises), ("lower", lowers)):
                    if not pred(sigma, spec):
                        with pytest.raises(ValidationError):
                            decompose(sigma, spec, direction)
                        continue
                    trace = decompose(sigma, spec, direction)
                    assert len(trace.steps) == inversion_count(sigma)
                    assert trace.recompose() == sigma
                    assert trace.final_spec == apply_permutation(spec, sigma, "both")
                    # every step is an adjacent swap that raises/lowers its input
                    state = spec
                    for step in trace.steps:
                        tau = Permutation.transposition(n, step.position)
                        assert pred(tau, state)
                        assert step.state == apply_permutation(state, tau, "both")
                        state = step.state


def test_sorting_permutations_sort_and_are_stable():
    spec = NormSpec(((2, "a"), (3, "b"), (2, "c"), (1, "d")))
    desc, asc = sorting_permutations(spec)
    up = apply_permutation(spec, desc, "both")
    down = apply_permutation(spec, asc, "both")
    assert [str(e) for e in up.exponents] == ["3", "2", "2", "1"]
    assert [str(e) for e in down.exponents] == ["1", "2", "2", "3"]
    # stability: the two equal exponents keep their original axis order
    assert up.axis_ids == ("b", "a", "c", "d")
    assert down.axis_ids == ("d", "a", "c", "b")
    assert raises(desc, spec)
    assert lowers(asc, spec)


# ---------------------------------------------------------------------------
# orbits

def test_orbit_exponents_equals_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        spec = random_spec(rng, n, pool=["1", "2", "inf"])
        got = orbit(spec, "exponents")
        expected = {
            apply_permutation(spec, sigma, "exponents") for sigma in all_permutations(n)
        }
        assert set(got) == expected
        assert len(got) == len(expected) == orbit_info(spec).size
        rows = [s.exponents for s in got]
        assert all(s.axis_ids == spec.axis_ids for s in got)
        # ascending lexicographic listing, no duplicates
        assert rows == sorted(rows) and len(set(rows)) == len(rows)


def test_orbit_exponents_small_example():
    spec = NormSpec(((3, "a"), (2, "b"), (2, "c")))
    rows = [[str(e) for e in s.exponents] for s in orbit(spec, "exponents")]
    assert rows == [["2", "2", "3"], ["2", "3", "2"], ["3", "2", "2"]]


def test_orbit_variables_requires_sorted():
    with pytest.raises(ValidationError, match="nonincreasing"):
        orbit(NormSpec(((1, "a"), (2, "b"))), "variables")


def test_orbit_variables_canonical_representatives():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        exps = sorted(
            [["1", "2", "inf"][int(rng.integers(3))] for _ in range(n)],
            key=lambda s: float(Fraction(s)) if s != "inf" else math.inf,
            reverse=True,
        )
        spec = NormSpec(tuple((e, f"x{i + 1}") for i, e in enumerate(exps)))
        got = orbit(spec, "variables")
        assert len(got) == orbit_info(spec).size

        def canonical(s):
            # sort axes within each run of equal exponents
            cols = list(s.columns)
            out, i = [], 0
            while i < len(cols):
                j = i
                while j < len(cols) and cols[j][0] == cols[i][0]:
                    j += 1
                out.extend(sorted(cols[i:j], key=lambda c: c[1]))
                i = j
            return NormSpec(tuple(out))

        brute = {
            canonical(apply_permutation(spec, sigma, "variables"))
            for sigma in all_permutations(n)
        }
        assert set(got) == brute
        assert all(s.exponents == spec.exponents for s in got)
        ids = [s.axis_ids for s in got]
        assert ids == sorted(ids)


def test_orbit_exponents_are_fractions_or_the_inf_object():
    rng = np.random.default_rng(11)
    for _ in range(40):
        spec = random_spec(rng, int(rng.integers(1, 6)), pool=["1/2", "1", "2", "inf", math.inf])
        ordered = NormSpec(tuple(zip(sorted(spec.exponents, reverse=True), spec.axis_ids)))
        for s in orbit(spec, "exponents") + orbit(ordered, "variables"):
            assert all(isinstance(e, Fraction) or e is INF for e in s.exponents)


def test_orbit_rejects_unknown_mode():
    with pytest.raises(ValidationError):
        orbit(NormSpec(((1, "a"),)), "columns")


def test_orbit_rejects_past_the_column_limit_before_enumerating():
    # 12 distinct exponents: 12! specs of 12 columns
    spec = NormSpec(tuple((p, f"x{p}") for p in range(12, 0, -1)))
    for mode in ("exponents", "variables"):
        with pytest.raises(ValidationError, match="columns"):
            orbit(spec, mode)
    # two ties among eight exponents: 8!/(2! 2!) specs of 8 columns, 80,640
    tied = NormSpec(tuple((p, f"x{i}") for i, p in enumerate((6, 5, 4, 3, 2, 2, 1, 1))))
    assert len(orbit(tied, "variables")) == 10_080


def test_orbit_info_values():
    info = orbit_info(NormSpec(((2, "a"), (1, "b"), (1, "c"))))
    assert info.size == 3
    assert info.harmonic_mean == Fraction(6, 5)
    assert [str(v) for v in info.values] == ["2", "1"]
    assert info.multiplicities == (1, 2)
    info2 = orbit_info(NormSpec((("inf", "a"), ("inf", "b"), (2, "c"), (2, "d"))))
    assert info2.size == 6
    assert info2.values[0] is INF
    assert info2.harmonic_mean == Fraction(4)  # 4 / (0 + 0 + 1/2 + 1/2)
