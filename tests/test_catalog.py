"""The inequality catalog: exact derived exponents, documents, evaluation."""

import contextlib
import copy
import dataclasses
import json
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixednorm import (
    Axis,
    GmLpNorm,
    INF,
    KINDS,
    InequalityInstance,
    MixedNorm,
    NormSpec,
    Permutation,
    ProductIntegral,
    ProductSpace,
    Tensor,
    TrialConfig,
    ValidationError,
    build_instance,
    check_holder_system,
    decompose,
    evaluate_instance,
    instance_from_doc,
    instance_to_doc,
    integrate_product,
    random_inputs,
    size_k_subsets,
    solve_subset_coefficients,
    sorting_permutations,
)
from mixednorm import evaluation, search, spaces
from mixednorm.catalog import RhsFactor
from mixednorm.evaluation import _pair_ratio, batch_log_sides, evaluate_batch
from mixednorm.search import maximize_ratio, random_params
from mixednorm.spaces import _BATCH_BYTES, mixed_norm_log


def unit_space(ids, sizes):
    return ProductSpace(tuple(Axis(a, (1.0,) * s) for a, s in zip(ids, sizes)))


def random_space(rng, ids, max_size=4):
    return ProductSpace(
        tuple(
            Axis(a, tuple(np.exp(rng.uniform(-2, 2, int(rng.integers(1, max_size + 1))))))
            for a in ids
        )
    )


def random_tensor(rng, space):
    return Tensor(space, np.exp(rng.uniform(-2, 2, space.shape)))


def log_values(t: Tensor) -> np.ndarray:
    """The log of a tensor's values, with zeros as -inf."""
    with np.errstate(divide="ignore"):
        return np.log(t.values)


# ---------------------------------------------------------------------------
# conjugate systems and subset coefficients

def test_check_holder_system():
    a = NormSpec(((2, "x"), (4, "y")))
    b = NormSpec(((2, "x"), ("4/3", "y")))
    ok, res = check_holder_system([a, b])
    assert ok and res == {"x": 0, "y": 0}
    bad = NormSpec(((3, "x"), (4, "y")))
    ok2, res2 = check_holder_system([a, bad])
    assert not ok2
    assert res2["x"] == Fraction(1, 2) + Fraction(1, 3) - 1
    with pytest.raises(ValidationError, match="different axes"):
        check_holder_system([a, NormSpec(((2, "x"), (2, "z")))])


def test_infinite_exponents_in_a_system():
    a = NormSpec(((1, "x"), ("inf", "y")))
    b = NormSpec((("inf", "x"), (1, "y")))
    ok, _ = check_holder_system([a, b])
    assert ok


def test_size_k_subsets_rejects_families_past_the_column_limit():
    assert len(size_k_subsets(316, 315)) == 316  # 316 specs of 316 columns: 99,856
    with pytest.raises(ValidationError, match="columns"):
        size_k_subsets(317, 316)  # 100,489 columns
    with pytest.raises(ValidationError, match="columns"):
        size_k_subsets(26, 13)


def test_size_k_subsets_lex():
    assert size_k_subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert size_k_subsets(4, 1) == [(1,), (2,), (3,), (4,)]
    with pytest.raises(ValidationError):
        size_k_subsets(3, 3)


def test_uniform_coefficients_are_exact():
    c = solve_subset_coefficients(4, 2, "uniform")
    assert all(v == Fraction(1, 3) for v in c)
    # every axis is covered exactly once: C(n-1, k-1) subsets contain it
    subsets = size_k_subsets(4, 2)
    for j in range(1, 5):
        assert sum(v for v, s in zip(c, subsets) if j in s) == 1


def test_random_coefficients_are_feasible_and_deterministic():
    c1 = solve_subset_coefficients(4, 2, "random", seed=3)
    c2 = solve_subset_coefficients(4, 2, "random", seed=3)
    c3 = solve_subset_coefficients(4, 2, "random", seed=4)
    assert c1 == c2
    assert c1 != c3  # the null space is nontrivial for (4, 2)
    subsets = size_k_subsets(4, 2)
    for j in range(1, 5):
        assert sum(v for v, s in zip(c1, subsets) if j in s) == pytest.approx(1.0, abs=1e-12)
    assert all(v >= 0 for v in c1)
    with pytest.raises(ValidationError, match="seed"):
        solve_subset_coefficients(4, 2, "random")


def test_user_coefficients_validated():
    good = solve_subset_coefficients(3, 2, "user", coefficients=["1/2", "1/2", "1/2"])
    assert good == (Fraction(1, 2),) * 3
    with pytest.raises(ValidationError, match="axis"):
        solve_subset_coefficients(3, 2, "user", coefficients=["1", "0", "0"])
    with pytest.raises(ValidationError, match="negative"):
        solve_subset_coefficients(3, 2, "user", coefficients=["3/2", "-1/2", "1/2"])
    with pytest.raises(ValidationError):
        solve_subset_coefficients(3, 2, "user", coefficients=["1/2", "1/2"])
    with pytest.raises(ValidationError):
        solve_subset_coefficients(3, 2, "user")


# ---------------------------------------------------------------------------
# derived exponents, exact

def test_littlewood_exponent():
    inst = build_instance("Littlewood43")
    assert inst.kind == "Littlewood43"
    assert inst.derived["pbar"] == "4/3"
    assert inst.lhs == GmLpNorm(Fraction(4, 3))
    assert inst.arity == 1
    assert len(inst.rhs) == 2
    # both right-hand specs use exponents (2, 1) in the two variable orders
    rows = sorted(tuple(str(e) for e in f.spec.exponents) for f in inst.rhs)
    assert rows == [("2", "1"), ("2", "1")]
    assert {f.spec.axis_ids for f in inst.rhs} == {("x1", "x2"), ("x2", "x1")}


def test_blei21_exponent_family():
    for J in range(2, 9):
        for K in range(1, J):
            inst = build_instance("Blei21", {"J": J, "K": K})
            assert inst.derived["pbar"] == str(Fraction(2 * J, K + J))
            assert inst.derived["m"] == math.comb(J, K)
            assert len(inst.rhs) == math.comb(J, K)


def test_blei_qp_closed_form():
    # pbar = J*p*q / (p*J + (q-p)*K) for finite q; p*J/K in the limit q = inf
    for J, K in ((3, 1), (4, 2), (5, 3)):
        for p in (Fraction(1), Fraction(4, 3), Fraction(2)):
            for q in (Fraction(3), Fraction(4), Fraction(12)):
                if not p < q:
                    continue
                inst = build_instance("BleiQP", {"J": J, "K": K, "q": str(q), "p": str(p)})
                expected = J * p * q / (p * J + (q - p) * K)
                assert inst.derived["pbar"] == str(expected), (J, K, p, q)
    inst_inf = build_instance("BleiQP", {"J": 4, "K": 2, "q": "inf", "p": "2"})
    assert inst_inf.derived["pbar"] == str(Fraction(2 * 4, 2))
    with pytest.raises(ValidationError, match="p < q"):
        build_instance("BleiQP", {"J": 3, "K": 1, "q": "2", "p": "2"})
    with pytest.raises(ValidationError, match="0 < K < J"):
        build_instance("Blei21", {"J": 3, "K": 3})


def test_popa_sinnamon_exponents():
    # q = (3, 6, 6): reciprocal sum 2/3, gap 1/3
    first = build_instance("PopaSinnamonFirst", {"q": [3, 6, 6]})
    assert first.derived["p"] == ["3/2", "2", "2"]
    second = build_instance("PopaSinnamonSecond", {"q": [3, 6, 6]})
    assert second.derived["s"] == ["2", "3", "3"]
    # factor j of the first form: q_j on the other axes, p_j innermost-last on its own
    spec0 = first.rhs[0].spec
    assert spec0.columns[:2] == ((Fraction(3), "x2"), (Fraction(3), "x3"))
    assert spec0.columns[2] == (Fraction(3, 2), "x1")
    # factor j of the second form: q_j on its own axis first, s_j on the others
    spec0b = second.rhs[0].spec
    assert spec0b.columns[0] == (Fraction(3), "x1")
    assert spec0b.columns[1:] == ((Fraction(2), "x2"), (Fraction(2), "x3"))
    with pytest.raises(ValidationError, match="exceeds 1"):
        build_instance("PopaSinnamonFirst", {"q": [2, 2, 2]})


def test_popa_sinnamon_all_infinite():
    # all q infinite: gap is 1 and every 1/s_j = 1/(n-1)
    inst = build_instance("PopaSinnamonSecond", {"q": ["inf", "inf", "inf"]})
    assert inst.derived["s"] == ["2", "2", "2"]
    assert "notes" in inst.derived


def test_quad6_assignment():
    inst = build_instance("Quad6")
    assert inst.derived["p"] == ["3", "4", "6", "6", "4", "3"]
    assert inst.derived["epsilon"] == "1/2"
    assert inst.derived["M"] == 6
    assert inst.derived["c"] == ["1/2", "1/3", "1/6", "1/6", "1/3", "1/2"]
    assert inst.arity == 6
    assert inst.derived["subsets"] == [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
    # factor for subset {1,2}: q=12 on axes 3,4 inside, p=3 on axes 1,2 outside
    s0 = inst.rhs[0].spec
    assert [str(e) for e in s0.exponents] == ["12", "12", "3", "3"]
    assert s0.axis_ids == ("x3", "x4", "x1", "x2")


def test_blei_ps_uniform_small():
    inst = build_instance("BleiPS", {"n": 3, "k": 2, "q": [4, 4, 4]})
    assert inst.derived["epsilon"] == "1/4"
    assert inst.derived["c"] == ["1/2", "1/2", "1/2"]
    assert inst.derived["p"] == ["8/3", "8/3", "8/3"]
    assert inst.derived["M"] == 3
    with pytest.raises(ValidationError, match="exceeds 1"):
        build_instance("BleiPS", {"n": 3, "k": 2, "q": [2, 2, 2]})
    with pytest.raises(ValidationError, match="length 3"):
        build_instance("BleiPS", {"n": 3, "k": 2, "q": [4, 4]})


# ---------------------------------------------------------------------------
# coherence across kinds

def _rhs_rows(inst):
    return tuple((f.spec, f.weight, f.input_index) for f in inst.rhs)


def _reports_hex(inst, tensors):
    rep = evaluate_instance(inst, tensors)
    return [v.hex() for v in (rep.lhs, rep.rhs, rep.ratio, rep.margin)]


def test_blei_ps_k1_matches_popa_sinnamon_first():
    qs = ["4", "6", "12"]
    ps1 = build_instance("PopaSinnamonFirst", {"q": qs})
    bps = build_instance("BleiPS", {"n": 3, "k": 1, "q": qs})
    assert bps.derived["p"] == ps1.derived["p"]
    assert _rhs_rows(bps) == _rhs_rows(ps1)
    rng = np.random.default_rng(5)
    space = random_space(rng, ps1.axis_ids)
    fs = [random_tensor(rng, space) for _ in range(3)]
    assert _reports_hex(ps1, fs) == _reports_hex(bps, fs)


def test_blei_ps_kn1_matches_popa_sinnamon_second():
    # BleiPS lists the (n-1)-subsets leaving out axes n, ..., 1: its factor i
    # is Second's factor n-1-i, on the reversed q row
    n = 3
    qs = ["4", "6", "12"]
    ps2 = build_instance("PopaSinnamonSecond", {"q": qs})
    assert [set(range(1, n + 1)) - set(s) for s in size_k_subsets(n, n - 1)] == [{3}, {2}, {1}]
    bps = build_instance("BleiPS", {"n": n, "k": n - 1, "q": qs[::-1]})
    want = tuple((spec, w, n - 1 - i) for spec, w, i in reversed(_rhs_rows(bps)))
    assert _rhs_rows(ps2) == want
    assert bps.derived["p"][::-1] == ps2.derived["s"]
    # distinct inputs pin which input each factor reads
    rng = np.random.default_rng(6)
    space = random_space(rng, ps2.axis_ids)
    fs = [random_tensor(rng, space) for _ in range(n)]
    assert _reports_hex(ps2, fs) == _reports_hex(bps, fs[::-1])


# documents and factors from the kinds' former standalone derivation, pinned literally
PS_DOCS = {
    "PopaSinnamonFirst": {
        "kind": "PopaSinnamonFirst",
        "params": {"q": [3, 6, "inf"]},
        "derived": {
            "p": ["6/5", "3/2", "2"],
            "p_float": [1.2, 1.5, 2.0],
            "sum_recip_q": "1/2",
            "gap": "1/2",
        },
    },
    "PopaSinnamonSecond": {
        "kind": "PopaSinnamonSecond",
        "params": {"q": [3, 6, "inf"]},
        "derived": {
            "s": ["12/7", "12/5", "4"],
            "s_float": [1.7142857142857142, 2.4, 4.0],
            "sum_recip_q": "1/2",
            "gap": "1/2",
        },
    },
}
PS_FACTORS = {
    "PopaSinnamonFirst": [
        [("3", "v"), ("3", "w"), ("6/5", "u")],
        [("6", "u"), ("6", "w"), ("3/2", "v")],
        [("inf", "u"), ("inf", "v"), ("2", "w")],
    ],
    "PopaSinnamonSecond": [
        [("3", "u"), ("12/7", "v"), ("12/7", "w")],
        [("6", "v"), ("12/5", "u"), ("12/5", "w")],
        [("inf", "w"), ("4", "u"), ("4", "v")],
    ],
}


@pytest.mark.parametrize("kind", ["PopaSinnamonFirst", "PopaSinnamonSecond"])
def test_popa_sinnamon_documents_are_pinned(kind):
    doc = instance_to_doc(build_instance(kind, {"q": [3, 6, "inf"]}))
    assert doc == PS_DOCS[kind]
    with_axes = build_instance(kind, {"q": [3, 6, "inf"], "axes": ["u", "v", "w"]})
    want = copy.deepcopy(PS_DOCS[kind])
    want["params"]["axes"] = ["u", "v", "w"]
    assert instance_to_doc(with_axes) == want
    factors = [[(str(p), a) for p, a in f.spec.columns] for f in with_axes.rhs]
    assert factors == PS_FACTORS[kind]
    assert [(f.weight, f.input_index) for f in with_axes.rhs] == [(1, 0), (1, 1), (1, 2)]


def test_popa_sinnamon_second_all_infinite_document_is_pinned():
    doc = instance_to_doc(build_instance("PopaSinnamonSecond", {"q": ["inf", "inf", "inf"]}))
    assert doc == {
        "kind": "PopaSinnamonSecond",
        "params": {"q": ["inf", "inf", "inf"]},
        "derived": {
            "s": ["2", "2", "2"],
            "s_float": [2.0, 2.0, 2.0],
            "sum_recip_q": "0",
            "gap": "1",
            "notes": ["3 of 3 exponents are infinite"],
        },
    }


def test_blei_ps_uniform_equal_q_harmonic_mean_is_subset_count():
    # with uniform coefficients and one common q, every right-hand row has
    # harmonic mean exactly M = C(n, k), matching the two-exponent closed form
    from mixednorm import harmonic_mean

    for n, k, Q in ((4, 2, 12), (5, 2, 20), (5, 3, 12)):
        M = math.comb(n, k)
        inst = build_instance("BleiPS", {"n": n, "k": k, "q": [Q] * M})
        p_star = Fraction(inst.derived["p"][0])
        for factor in inst.rhs:
            assert harmonic_mean(factor.spec.exponents) == M
        qp = build_instance(
            "BleiQP", {"J": n, "K": k, "q": str(Q), "p": str(p_star)}
        )
        assert qp.derived["pbar"] == str(Fraction(M))


def test_gm_orbit_scales_to_an_exact_conjugate_system():
    # scaling every orbit exponent by m/pbar turns the orbit into a system
    # whose reciprocals sum to exactly 1 on every axis
    for spec in (
        NormSpec(((2, "a"), (1, "b"))),
        NormSpec(((3, "a"), (2, "b"), (2, "c"))),
        NormSpec((("inf", "a"), (2, "b"), (1, "c"))),
    ):
        inst = build_instance("SymmetricHolder", {"spec": spec.to_doc()})
        m = inst.derived["m"]
        pbar = Fraction(inst.derived["pbar"]) if inst.derived["pbar"] != "inf" else INF
        scale = Fraction(m) / pbar if pbar is not INF else None
        assert scale is not None
        scaled = [
            NormSpec(
                tuple(
                    (p if p is INF else p * scale, a) for p, a in f.spec.columns
                )
            )
            for f in inst.rhs
        ]
        ok, residuals = check_holder_system(scaled)
        assert ok and all(r == 0 for r in residuals.values()), residuals


# ---------------------------------------------------------------------------
# permutation-flavored kinds

def test_minkowski_raise_builder():
    spec = NormSpec(((1, "a"), (2, "b")))
    inst = build_instance(
        "MinkowskiRaise", {"spec": spec.to_doc(), "perm": [2, 1], "direction": "raise"}
    )
    assert inst.lhs == MixedNorm(spec)
    assert inst.rhs[0].spec.exponents == (Fraction(2), Fraction(1))
    assert inst.derived["inversions"] == 1
    low = build_instance(
        "MinkowskiRaise",
        {"spec": spec.to_doc(), "perm": [1, 2], "direction": "lower"},
    )
    assert low.lhs == MixedNorm(spec)  # identity: both sides the same spec
    with pytest.raises(ValidationError, match="does not raise"):
        build_instance(
            "MinkowskiRaise",
            {"spec": NormSpec(((2, "a"), (1, "b"))).to_doc(), "perm": [2, 1]},
        )


def test_sorted_sandwich_builder():
    spec = NormSpec(((2, "a"), (3, "b"), (1, "c")))
    inst = build_instance("SortedSandwich", {"spec": spec.to_doc()})
    assert [str(e) for e in inst.rhs[0].spec.exponents] == ["3", "2", "1"]
    assert [str(e) for e in inst.lower.exponents] == ["1", "2", "3"]


# ---------------------------------------------------------------------------
# documents

def test_instance_doc_round_trip_every_kind():
    params_by_kind = {
        "HolderMixed": {
            "specs": [
                NormSpec(((2, "x1"), (4, "x2"))).to_doc(),
                NormSpec(((2, "x1"), ("4/3", "x2"))).to_doc(),
            ]
        },
        "MinkowskiRaise": {
            "spec": NormSpec(((1, "x1"), (2, "x2"))).to_doc(),
            "perm": [2, 1],
            "direction": "raise",
        },
        "SortedSandwich": {"spec": NormSpec(((2, "x1"), (3, "x2"), (1, "x3"))).to_doc()},
        "SymmetricHolder": {"spec": NormSpec(((2, "x1"), (1, "x2"))).to_doc()},
        "SymmetricGM": {"spec": NormSpec(((2, "x1"), (1, "x2"))).to_doc()},
        "SymmetricGM1": {"spec": NormSpec(((2, "x1"), (2, "x2"), (1, "x3"))).to_doc()},
        "Littlewood43": {},
        "Blei21": {"J": 4, "K": 2},
        "BleiQP": {"J": 3, "K": 1, "q": "6", "p": "3/2"},
        "PopaSinnamonFirst": {"q": [3, 6, 6]},
        "PopaSinnamonSecond": {"q": [3, 6, "inf"]},
        "BleiPS": {"n": 3, "k": 2, "q": [4, 6, 12]},
        "Quad6": {},
    }
    assert set(params_by_kind) == set(KINDS)
    for kind, params in params_by_kind.items():
        inst = build_instance(kind, params)
        doc = instance_to_doc(inst)
        back = instance_from_doc(doc)
        assert instance_to_doc(back) == doc, kind
        assert back == inst, kind


def test_instance_from_doc_rejects_stale_derived():
    doc = instance_to_doc(build_instance("Blei21", {"J": 3, "K": 1}))
    doc["derived"]["pbar"] = "7/5"
    with pytest.raises(ValidationError, match="pbar"):
        instance_from_doc(doc)


def test_unknown_kind():
    with pytest.raises(ValidationError, match="unknown instance kind"):
        build_instance("Nope")


# ---------------------------------------------------------------------------
# evaluation semantics

def test_holder_mixed_holds_and_box_equality():
    rng = np.random.default_rng(31)
    params = {
        "specs": [
            NormSpec(((2, "x1"), (4, "x2"))).to_doc(),
            NormSpec(((2, "x1"), ("4/3", "x2"))).to_doc(),
        ]
    }
    inst = build_instance("HolderMixed", params)
    for trial in range(30):
        space = random_space(rng, ("x1", "x2"))
        fs = [random_tensor(rng, space) for _ in range(2)]
        rep = evaluate_instance(inst, fs)
        assert rep.passed and rep.ratio <= 1 + 1e-8
    # equality for a common product-box characteristic function
    space = ProductSpace((Axis("x1", (0.3, 2.0, 1.0)), Axis("x2", (1.5, 0.7))))
    mask = np.zeros(space.shape)
    mask[np.ix_([0, 2], [1])] = 1.0
    box = Tensor(space, mask)
    rep = evaluate_instance(inst, [box, box])
    assert abs(rep.lhs - rep.rhs) <= 1e-10 * rep.rhs


def test_symmetric_gm1_equal_exponents_is_equality():
    inst = build_instance(
        "SymmetricGM1",
        {"spec": NormSpec(((2, "x1"), (2, "x2"))).to_doc()},
    )
    rng = np.random.default_rng(8)
    for _ in range(20):
        space = random_space(rng, ("x1", "x2"))
        rep = evaluate_instance(inst, [random_tensor(rng, space)])
        assert abs(rep.lhs - rep.rhs) <= 1e-10 * rep.rhs


def test_broadcast_one_tensor_to_all_slots():
    inst = build_instance("Quad6")
    rng = np.random.default_rng(14)
    space = random_space(rng, inst.axis_ids, max_size=3)
    f = random_tensor(rng, space)
    one = evaluate_instance(inst, [f])
    six = evaluate_instance(inst, [f] * 6)
    assert one.ratio == six.ratio
    with pytest.raises(ValidationError, match="takes 6"):
        evaluate_instance(inst, [f, f])


def test_tensors_must_share_instance_axes():
    inst = build_instance("Littlewood43")
    space = unit_space(("x1", "zz"), (2, 2))
    with pytest.raises(ValidationError, match="axes"):
        evaluate_instance(inst, [Tensor.constant(space, 1.0)])
    # the tensors of one call share one space, not only its axis ids
    holder = build_instance("HolderMixed", {"specs": [NormSpec.uniform(2, ("x1", "x2")).to_doc()] * 2})
    here, there = unit_space(("x1", "x2"), (2, 2)), unit_space(("x1", "x2"), (2, 3))
    with pytest.raises(ValidationError, match="one space"):
        evaluate_instance(holder, [Tensor.constant(here, 1.0), Tensor.constant(there, 1.0)])


def test_sandwich_evaluation_reports_three_values():
    inst = build_instance(
        "SortedSandwich", {"spec": NormSpec(((1, "x1"), (3, "x2"), (2, "x3"))).to_doc()}
    )
    rng = np.random.default_rng(21)
    for _ in range(30):
        space = random_space(rng, ("x1", "x2", "x3"))
        rep = evaluate_instance(inst, [random_tensor(rng, space)])
        assert rep.passed
        lo = rep.trial["log_lower"]
        mid = rep.trial["log_middle"]
        hi = rep.trial["log_upper"]
        assert lo <= mid + 1e-9 and mid <= hi + 1e-9


def test_minkowski_raise_holds_both_directions():
    rng = np.random.default_rng(33)
    ascending = NormSpec((("1/2", "x1"), (2, "x2"), ("inf", "x3")))
    descending = NormSpec((("inf", "x1"), (2, "x2"), ("1/2", "x3")))
    for direction, spec, perm in (
        ("raise", ascending, [2, 1, 3]),
        ("lower", descending, [2, 1, 3]),
    ):
        inst = build_instance(
            "MinkowskiRaise",
            {"spec": spec.to_doc(), "perm": perm, "direction": direction},
        )
        for _ in range(25):
            space = random_space(rng, ("x1", "x2", "x3"))
            rep = evaluate_instance(inst, [random_tensor(rng, space)])
            assert rep.passed, (direction, rep.ratio)


def test_perturbed_instance_reports_violations_honestly():
    inst = build_instance(
        "SymmetricGM1",
        {
            "spec": NormSpec(((2, "x1"), (1, "x2"))).to_doc(),
            "lhs_exponent": "8/5",  # 1.2 * pbar
        },
    )
    assert inst.derived.get("perturbed") is True
    space = ProductSpace((Axis("x1", (1e-6, 1e6)), Axis("x2", (1e-6, 1e6))))
    vals = np.zeros((2, 2))
    vals[0, 0] = 1.0  # indicator of the lightest box
    rep = evaluate_instance(inst, [Tensor(space, vals)])
    assert not rep.passed
    assert rep.ratio == pytest.approx((1e-12) ** (-1 / 8), rel=1e-9)


def test_zero_over_zero_passes_and_hard_failure_is_flagged():
    inst = build_instance("Littlewood43")
    space = unit_space(("x1", "x2"), (2, 2))
    rep = evaluate_instance(inst, [Tensor.constant(space, 0.0)])
    assert rep.passed and rep.ratio == 0.0 and not rep.hard_failure
    # the raw pair rule: zero right side with a real left side can never pass
    ratio, hard = _pair_ratio(0.0, -math.inf, 1e-8)
    assert hard and ratio == math.inf
    ratio0, hard0 = _pair_ratio(-math.inf, -math.inf, 1e-8)
    assert ratio0 == 0.0 and not hard0


def test_report_doc_is_strict_json():
    import json

    inst = build_instance("Littlewood43")
    space = unit_space(("x1", "x2"), (2, 2))
    rep = evaluate_instance(inst, [Tensor.constant(space, 0.0)])
    text = json.dumps(rep.to_doc())
    assert "Infinity" not in text and "NaN" not in text


# ---------------------------------------------------------------------------
# the shared evaluation pass

def _reference_uniform_log_norm(logs, space, p) -> float:
    """The log of the L^p norm over the whole space of the values whose logs
    are `logs`, one axis at a time, the first innermost, with one fresh
    array per operation: the loop the pass's slot sum must match bit for
    bit."""
    for axis in space.axes:
        if p is INF:
            logs = np.max(logs, axis=0)
            continue
        a = float(p) * logs + np.log(np.asarray(axis.weights)).reshape((-1,) + (1,) * (logs.ndim - 1))
        top = np.max(a, axis=0)
        shift = np.where(np.isfinite(top), top, 0.0)
        with np.errstate(divide="ignore"):
            logs = (np.log(np.sum(np.exp(a - shift), axis=0)) + shift) / float(p)
    return float(logs)


def _reference_sides(inst, fs):
    """(log lhs, log rhs, log lower or None), one spec at a time through
    mixed_norm_log, with the left side's accumulators folded and reduced
    explicitly."""
    space = fs[0].space
    log_rhs = 0.0
    for factor in inst.rhs:
        log_rhs += float(factor.weight) * mixed_norm_log(fs[factor.input_index], factor.spec)
    if isinstance(inst.lhs, MixedNorm):
        log_lhs = mixed_norm_log(fs[0], inst.lhs.spec)
    else:
        acc = log_values(fs[0])
        for t in fs[1:]:
            acc = acc + log_values(t)
        if isinstance(inst.lhs, GmLpNorm):
            log_lhs = _reference_uniform_log_norm(acc / len(fs), space, inst.lhs.exponent)
        else:  # a product integral is the L^1 norm of the product
            log_lhs = _reference_uniform_log_norm(acc, space, 1)
    lower = None
    if inst.lower is not None:
        lower = mixed_norm_log(fs[0], inst.lower)
    return log_lhs, log_rhs, lower


INF_HEAVY = [
    ("PopaSinnamonSecond", {"q": ["inf", "inf", "inf"]}),
    ("BleiQP", {"J": 4, "K": 2, "q": "inf", "p": 2}),
    ("SymmetricHolder", {"spec": {"columns": [{"p": "inf", "axis": "a"}, {"p": 2, "axis": "b"}]}}),
]


def test_every_exponent_is_a_fraction_or_the_inf_object():
    # The package tests for infinity by identity (`e is INF`), so no infinite
    # exponent may be a float other than INF itself.
    rng = np.random.default_rng(4)
    cases = [(kind, random_params(kind, rng)) for kind in KINDS for _ in range(8)]
    infinite = set()
    for kind, params in cases + INF_HEAVY:
        inst = build_instance(kind, params)
        specs = [f.spec for f in inst.rhs]
        if inst.lower is not None:
            specs.append(inst.lower)
        if isinstance(inst.lhs, MixedNorm):
            specs.append(inst.lhs.spec)
        exps = [e for s in specs for e in s.exponents]
        if isinstance(inst.lhs, GmLpNorm):
            exps.append(inst.lhs.exponent)
        assert all(isinstance(e, Fraction) or e is INF for e in exps), kind
        if INF in exps:
            infinite.add(kind)
    assert len(infinite) >= 10


def _assert_parses_to_itself(spec):
    # a spec built without the parse must be the spec the parse builds, with
    # the same exponent types (Fraction(1) == 1, so == alone would not tell)
    parsed = NormSpec(spec.columns)
    assert spec == parsed
    assert type(spec.columns) is tuple and all(type(c) is tuple for c in spec.columns)
    assert [type(p) for p in spec.exponents] == [type(p) for p in parsed.exponents]


def test_trusted_specs_and_axes_equal_the_parsed_ones(monkeypatch):
    # specs derived from checked ones (orbits, permutations, subset families,
    # decompose steps, the pass's uniform left side) and the axes the sweep
    # draws skip the parse; each must equal what the parse would build
    rng = np.random.default_rng(27)
    cases = [(kind, random_params(kind, rng)) for kind in KINDS for _ in range(20)]
    monkeypatch.setattr(evaluation, "Pass", lambda space, requests, *args: requests)
    for kind, params in cases + INF_HEAVY:
        inst = build_instance(kind, params)
        space = search._draw_space(rng, inst.axis_ids)
        for axis in space.axes:
            assert axis == Axis(axis.id, axis.weights)
            assert all(type(w) is float for w in axis.weights)
        requests, _ = evaluation._compile_pass(inst, space, tuple(range(inst.arity)))
        specs = [s for _, s in requests]  # rhs, the left side's spec, lower
        assert len(specs) == len(inst.rhs) + 1 + (inst.lower is not None)
        for spec in specs:
            _assert_parses_to_itself(spec)
            for step in decompose(sorting_permutations(spec)[0], spec).steps:
                _assert_parses_to_itself(step.state)
        if kind == "MinkowskiRaise":  # the builder's own permutation, raising or lowering
            trace = decompose(Permutation(tuple(params["perm"])), NormSpec.from_doc(params["spec"]), params["direction"])
            for step in trace.steps:
                _assert_parses_to_itself(step.state)
    with pytest.raises(ValidationError, match="axis id"):
        random_inputs(TrialConfig(seed=1), 1, 2, axis_ids=(1, 2))


@pytest.mark.parametrize("kind", KINDS)
def test_shared_pass_equals_one_spec_at_a_time(kind):
    # random_params draws inf exponents for most kinds; a quarter of the
    # cells are zero, and every other trial broadcasts one tensor.
    rng = np.random.default_rng([KINDS.index(kind), 20])
    for trial in range(12):
        inst = build_instance(kind, random_params(kind, rng))
        space = random_space(rng, inst.axis_ids, max_size=3)
        fs = []
        for _ in range(1 if trial % 2 else inst.arity):
            vals = np.exp(rng.uniform(-3, 3, space.shape))
            vals[rng.random(space.shape) < 0.25] = 0.0
            fs.append(Tensor(space, np.asfortranarray(vals) if trial % 3 == 0 else vals))
        before = [f.values.copy() for f in fs]
        rep = evaluate_instance(inst, fs)
        lhs, rhs, lower = _reference_sides(inst, fs * inst.arity if len(fs) == 1 else fs)
        if lower is None:
            assert (rep.trial["log_lhs"], rep.trial["log_rhs"]) == (lhs, rhs)
        else:
            got = (rep.trial["log_lower"], rep.trial["log_middle"], rep.trial["log_upper"])
            assert got == (lower, lhs, rhs)
        for f, b in zip(fs, before):
            assert np.array_equal(f.values, b)


def test_shared_pass_keeps_the_memory_layout_of_the_slot_sum():
    # The geometric mean's reductions sum in memory order, so the folded
    # accumulator must be laid out as the plain slot-by-slot sum is: C order
    # once two slots disagree.  Seed 12 changes the last bit otherwise.
    for seed in range(30):
        rng = np.random.default_rng(seed)
        exps = rng.choice(["1/2", "2", "3", "inf"], size=3)
        inst = build_instance(
            "SymmetricHolder",
            {"spec": NormSpec(tuple((e, f"x{i + 1}") for i, e in enumerate(exps))).to_doc()},
        )
        if inst.arity < 3:
            continue
        shape = tuple(int(n) for n in rng.integers(9, 40, size=3))
        space = ProductSpace(
            tuple(Axis(f"x{i + 1}", tuple(rng.uniform(0.5, 2, n))) for i, n in enumerate(shape))
        )
        fs = []
        for k in range(inst.arity):
            vals = np.exp(rng.uniform(-5, 5, shape))
            fortran = k < 2 or (k + seed) % 3 == 0
            fs.append(Tensor(space, np.asfortranarray(vals) if fortran else vals))
        rep = evaluate_instance(inst, fs)
        lhs, rhs, _ = _reference_sides(inst, fs)
        assert (rep.trial["log_lhs"], rep.trial["log_rhs"]) == (lhs, rhs), seed


_HOLDER_48 = {
    "specs": [
        NormSpec.uniform(2, ("x1", "x2", "x3", "x4")).to_doc(),
        NormSpec(((4, "x1"), (2, "x2"), (4, "x3"), (4, "x4"))).to_doc(),
        NormSpec(((4, "x1"), ("inf", "x2"), (4, "x3"), (4, "x4"))).to_doc(),
    ]
}
_GM1_48 = {"spec": NormSpec(((2, "x1"), (2, "x2"), (1, "x3"), (1, "x4"))).to_doc()}


@pytest.mark.parametrize("kind, params", [("HolderMixed", _HOLDER_48), ("SymmetricGM1", _GM1_48)])
def test_shared_pass_peak_memory(kind, params):
    # one tensor broadcast to every slot, streamed: blocks and reduced arrays
    inst = build_instance(kind, params)
    space = unit_space(("x1", "x2", "x3", "x4"), (48,) * 4)
    f = Tensor(space, np.exp(np.random.default_rng(48).uniform(-1, 1, space.shape)))
    tracemalloc.start()
    try:
        rep = evaluate_instance(inst, [f])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 0.5 * f.values.nbytes


_MINKOWSKI_48 = {
    "spec": NormSpec(((1, "x1"), ("3/2", "x2"), (3, "x3"), (4, "x4"))).to_doc(),
    "perm": [4, 3, 2, 1],
    "direction": "raise",
}


@pytest.mark.parametrize(
    "kind, params, bound",
    [
        ("SymmetricGM1", _GM1_48, 0.5),
        ("MinkowskiRaise", _MINKOWSKI_48, 0.5),
        ("HolderMixed", _HOLDER_48, 0.5),
        ("SymmetricGM", _GM1_48, 0.5),
    ],
)
def test_streamed_pass_peak_memory(kind, params, bound, workers):
    # Above the batch budget no full-size array is made: a norm needs only
    # blocks and reduced arrays, and a slot sum (HolderMixed's product
    # integral, SymmetricGM's mean of 6 slots) is formed block by block.
    # One or two worker threads stay within 0.25 of the input; the default
    # pool, of up to 8 threads, holds up to 8 blocks at a time.
    inst = build_instance(kind, params)
    space = unit_space(("x1", "x2", "x3", "x4"), (48,) * 4)
    f = Tensor(space, np.exp(np.random.default_rng(48).uniform(-1, 1, space.shape)))
    for n in (None, 1, 2):
        with workers(n):
            tracemalloc.start()
            try:
                rep = evaluate_instance(inst, [f])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert rep.passed
        assert peak <= (bound if n is None else 0.25) * f.values.nbytes, n


def test_distinct_inputs_above_the_batch_budget_keep_the_row_at_a_time_peak():
    # three distinct inputs plus their slot sum would stack to 4x an input's
    # bytes, far above _BATCH_BYTES; they are logged and reduced in blocks
    # instead, the slot sum formed from each block's logs.  The per-input
    # pass before row-batched plans peaked at 4.02x, a full-size slot sum
    # at 1.31x.
    spec = NormSpec(((2, "x1"), (2, "x2"), (1, "x3")))
    inst = build_instance("SymmetricHolder", {"spec": spec.to_doc()})
    assert inst.arity == 3
    space = unit_space(("x1", "x2", "x3"), (100, 100, 100))
    rng = np.random.default_rng(40)
    fs = [Tensor(space, np.exp(rng.uniform(-1, 1, space.shape))) for _ in range(3)]
    assert 4 * fs[0].values.nbytes > _BATCH_BYTES
    tracemalloc.start()
    try:
        rep = evaluate_instance(inst, fs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 1.0 * fs[0].values.nbytes


# ---------------------------------------------------------------------------
# compiled plans against the one-spec-at-a-time reference

_PLAN_POOL = ("1/2", "1", "2", "3", "inf")


def _plan_instance(rng, ids, arity):
    """An instance with arbitrary right-side factors over a few axis orders
    and a small exponent pool, so that specs share column prefixes."""
    orders = [list(rng.permutation(ids)) for _ in range(int(rng.integers(1, 3)))]

    def spec():
        order = orders[int(rng.integers(len(orders)))]
        return NormSpec(tuple((str(rng.choice(_PLAN_POOL)), a) for a in order))

    rhs = tuple(
        RhsFactor(spec(), Fraction(1, arity), int(rng.integers(arity)))
        for _ in range(int(rng.integers(1, 2 * arity + 2)))
    )
    lhs = [ProductIntegral(), GmLpNorm(Fraction(str(rng.choice(_PLAN_POOL[:4])))), MixedNorm(spec())]
    return InequalityInstance(
        kind="plan-check",
        axis_ids=tuple(ids),
        arity=arity,
        lhs=lhs[int(rng.integers(3))],
        rhs=rhs,
        params={},
        derived={},
        lower=spec() if rng.integers(2) else None,
    )


def _plan_inputs(rng, space, arity, pattern):
    def tensor():
        vals = np.exp(rng.uniform(-4, 4, space.shape))
        vals[rng.random(space.shape) < 0.25] = 0.0
        return Tensor(space, vals)

    if pattern == "broadcast":
        return [tensor()]
    if pattern == "distinct":
        return [tensor() for _ in range(arity)]
    pool = [tensor() for _ in range(2)]
    return [pool[int(rng.integers(2))] for _ in range(arity)]


def _log_fields(rep):
    return {k: v for k, v in rep.trial.items() if k.startswith("log_")}


def _check_plan_case(seed, sizes, arity):
    rng = np.random.default_rng(seed)
    ids = [f"x{i + 1}" for i in range(len(sizes))]
    inst = _plan_instance(rng, ids, arity)
    for pattern in ("broadcast", "distinct", "partial"):
        # the space lists its axes in another order than inst.axis_ids
        order = list(rng.permutation(len(ids)))
        space = ProductSpace(
            tuple(
                Axis(ids[k], tuple(np.exp(rng.uniform(-2, 2, sizes[k])))) for k in order
            )
        )
        fs = _plan_inputs(rng, space, arity, pattern)
        rep = evaluate_instance(inst, fs)
        full = fs * arity if len(fs) == 1 else fs
        lhs, rhs, lower = _reference_sides(inst, full)
        want = {"log_lhs": lhs, "log_rhs": rhs}
        if lower is not None:
            want = {"log_lower": lower, "log_middle": lhs, "log_upper": rhs}
        assert _log_fields(rep) == want, (pattern, order)
        # the instance's cached plans serve every pattern seen so far
        fresh = dataclasses.replace(inst)
        assert rep == evaluate_instance(fresh, fs)
    return inst


@st.composite
def _plan_shapes(draw):
    """1-5 axes of 1-12 atoms, at most 3000 cells."""
    sizes = []
    for _ in range(draw(st.integers(1, 5))):
        sizes.append(draw(st.integers(1, min(12, 3000 // math.prod(sizes)))))
    return sizes


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), sizes=_plan_shapes(), arity=st.integers(1, 5))
def test_compiled_plans_equal_one_spec_at_a_time(seed, sizes, arity):
    _check_plan_case(seed, sizes, arity)


def test_compiled_plans_above_the_batch_budget_equal_one_spec_at_a_time():
    sizes = (12, 12, 12, 12, 4)
    assert 8 * math.prod(sizes) > _BATCH_BYTES
    with _streamed_plans() as streamed:
        inst = _check_plan_case(7, sizes, 3)
    # every cached pass streamed its plan
    assert all(id(ev.plan) in streamed for ev, _ in inst._passes.values())


def test_one_cached_pass_serves_every_size_of_a_space():
    # The cache is keyed on the axis order, not the shape: the batched or
    # streamed choice is made per call from the inputs' bytes, so spaces of
    # every size with one axis order share one pass.
    spec = NormSpec(((2, "x1"), (1, "x2"), ("inf", "x3")))
    inst = build_instance("SymmetricHolder", {"spec": spec.to_doc()})
    rng = np.random.default_rng(3)
    with _streamed_plans() as streamed:
        for sizes in ((1, 2, 3), (4, 4, 4), (3, 1, 2), (90, 80, 20), (5, 6, 7)):
            space = unit_space(("x1", "x2", "x3"), sizes)
            fs = [random_tensor(rng, space)]
            lhs, rhs, _ = _reference_sides(inst, fs * inst.arity)
            assert _log_fields(evaluate_instance(inst, fs)) == {"log_lhs": lhs, "log_rhs": rhs}
    assert 8 * 90 * 80 * 20 > _BATCH_BYTES
    assert len(inst._passes) == 1
    assert id(next(iter(inst._passes.values()))[0].plan) in streamed


@pytest.mark.parametrize("sizes", [(3, 4, 2, 5), (20, 20, 20, 20)], ids=["stacked", "streamed"])
def test_one_tensor_in_every_slot_integrates_the_slot_sum_row(sizes):
    # HolderMixed with one tensor broadcast to its three slots: one input
    # row, whose log the slot-sum row holds three times.  Weights of total
    # mass about 1 keep log_lhs near 0, where its last bits tell one order of
    # summation from another.
    inst = build_instance("HolderMixed", _HOLDER_48)
    rng = np.random.default_rng(20)
    for _ in range(4):
        space = ProductSpace(tuple(Axis(a, tuple(rng.uniform(0.5, 2, n) / n)) for a, n in zip(inst.axis_ids, sizes)))
        f = Tensor(space, rng.uniform(0.5, 1.5, space.shape))
        with _streamed_plans() as streamed:
            rep = evaluate_instance(inst, [f])
        assert bool(streamed) == (sizes[0] > 3)
        assert rep.trial["log_lhs"] == _reference_sides(inst, [f] * inst.arity)[0]
        assert rep.lhs == pytest.approx(integrate_product([f] * inst.arity, method="direct"), rel=1e-12)


@contextlib.contextmanager
def _batch_budget(nbytes):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_BATCH_BYTES", nbytes)
        yield


@contextlib.contextmanager
def _streamed_plans():
    """The ids of the plans that spaces._stream_plan runs within the block."""
    seen = set()
    stream = spaces._stream_plan

    def spy(plan, *args, **kwargs):
        seen.add(id(plan))
        return stream(plan, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_stream_plan", spy)
        yield seen


@contextlib.contextmanager
def _stacked_plans():
    """(plan id, set count) of each stack that spaces._run_plan runs a plan
    on within the block, the nodes below a plan's root included."""
    seen = []
    run = spaces._run_plan

    def spy(plan, stack, *args):
        seen.append((id(plan), stack.shape[1]))
        return run(plan, stack, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_run_plan", spy)
        yield seen


@st.composite
def _streamed_shapes(draw):
    """A 1-D shape of 33-300 atoms, or 0-2 size-1 axes followed by 2-4 axes
    of 1-60 atoms, at most 3000 cells and above 32: every input is above a
    256-byte budget, and a long axis 0 tells pairwise from row-by-row sums."""
    if draw(st.booleans()):
        return (draw(st.integers(33, 300)),)
    sizes = [1] * draw(st.integers(0, 2))
    for _ in range(draw(st.integers(2, 4))):
        sizes.append(draw(st.integers(1, min(60, 3000 // math.prod(sizes)))))
    assume(math.prod(sizes) > 32)
    return tuple(sizes)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), shape=_streamed_shapes(), arity=st.integers(1, 4))
def test_streamed_plans_equal_one_spec_at_a_time(seed, shape, arity):
    # With a 256-byte budget every array is reduced in blocks of a few
    # slices, and the sides must still come out bit for bit as the
    # one-spec-at-a-time reference computes them on whole arrays.
    rng = np.random.default_rng(seed)
    ids = [f"x{i + 1}" for i in range(len(shape))]
    inst = _plan_instance(rng, ids, arity)
    order = [ids[k] for k in rng.permutation(len(ids))]
    space = ProductSpace(
        tuple(Axis(a, tuple(np.exp(rng.uniform(-2, 2, n)))) for a, n in zip(order, shape))
    )
    streamed = set()
    for pattern in ("broadcast", "distinct", "partial"):
        fs = _plan_inputs(rng, space, arity, pattern)
        if rng.integers(2):  # the same inputs, from Fortran-ordered arrays
            fortran = {id(f): Tensor(space, np.asfortranarray(f.values)) for f in fs}
            fs = [fortran[id(f)] for f in fs]
        lhs, rhs, lower = _reference_sides(inst, fs * arity if len(fs) == 1 else fs)
        with _batch_budget(256), _streamed_plans() as seen:
            rep = evaluate_instance(inst, fs)
        streamed |= seen
        want = {"log_lhs": lhs, "log_rhs": rhs}
        if lower is not None:
            want = {"log_lower": lower, "log_middle": lhs, "log_upper": rhs}
        assert _log_fields(rep) == want, pattern
    # every cached pass streamed its plan
    assert all(id(ev.plan) in streamed for ev, _ in inst._passes.values())


def test_sides_beyond_the_float_range_report_inf():
    space = ProductSpace((Axis("x1", (1e300, 1e300)),))
    f = Tensor(space, [1e300, 1e300])
    inst = build_instance("HolderMixed", {"specs": [NormSpec.uniform(1, ("x1",)).to_doc()]})
    rep = evaluate_instance(inst, [f])
    assert rep.lhs == math.inf and rep.rhs == math.inf
    assert rep.ratio == 1.0 and rep.passed
    doc = rep.to_doc()
    assert doc["lhs"] == "inf" and doc["rhs"] == "inf" and doc["margin"] == 0.0
    # exactly one side beyond the float range gives an infinite margin,
    # which the document writes as strict JSON
    holder = build_instance(
        "HolderMixed", {"specs": [NormSpec.uniform(p, ("x1",)).to_doc() for p in (1, "inf")]}
    )
    two = ProductSpace((Axis("x1", (1.0, 1.0)),))
    gm = build_instance(
        "SymmetricGM1", {"spec": NormSpec(((2, "x1"), (1, "x2"))).to_doc(), "lhs_exponent": "1"}
    )
    heavy = ProductSpace((Axis("x1", (1e200,)), Axis("x2", (1e200,))))
    for inst, fs, margin in (
        (holder, [Tensor(two, [1e300, 0.0]), Tensor(two, [0.0, 1e300])], "inf"),
        (gm, [Tensor.constant(heavy, 1.0)], "-inf"),
    ):
        doc = evaluate_instance(inst, fs).to_doc()
        assert "inf" in (doc["lhs"], doc["rhs"]) and doc["lhs"] != doc["rhs"]
        assert doc["margin"] == margin
        assert json.loads(json.dumps(doc, allow_nan=False)) == doc
    # a huge left side over a zero or tiny right side
    assert _pair_ratio(1000.0, -math.inf, 1e-8) == (math.inf, True)
    assert _pair_ratio(800.0, -100.0, 1e-8) == (math.inf, False)


def test_holder_mixed_rejects_two_column_orders():
    # with the second spec's columns reversed, maximize_ratio(seed=3) on a
    # 3x3 unit space used to reach a ratio of 1.16: Holder needs one order.
    a = NormSpec((("3/2", "x1"), (3, "x2")))
    b = NormSpec((("3/2", "x2"), (3, "x1")))
    ok, _ = check_holder_system([a, b])
    assert ok  # the exponents alone balance
    with pytest.raises(ValidationError, match="order"):
        build_instance("HolderMixed", {"specs": [a.to_doc(), b.to_doc()]})
    # the same system with one shared order is sound on the same space
    inst = build_instance(
        "HolderMixed", {"specs": [a.to_doc(), NormSpec(((3, "x1"), ("3/2", "x2"))).to_doc()]}
    )
    space = unit_space(("x1", "x2"), (3, 3))
    assert maximize_ratio(inst, space, seed=3).best_ratio <= 1 + 1e-8


# ---------------------------------------------------------------------------
# batched evaluation: K input sets in one pass


def _batch_values(rng, sets, arity, shape):
    values = np.exp(rng.uniform(-4, 4, (sets, arity, *shape)))
    values[rng.random(values.shape) < 0.25] = 0.0
    return values


def _check_batch_rows(inst, space, values):
    """Each input set's ratio and log sides from one batched call equal, by
    float.hex, what evaluate_instance reports for that set's Tensors."""
    sides = batch_log_sides(inst, space, values)
    ratios = evaluate_batch(inst, space, values)
    assert len(sides) == len(ratios) == len(values)
    for row, (lhs, rhs, lower), ratio in zip(values, sides, ratios):
        rep = evaluate_instance(inst, [Tensor(space, v) for v in row])
        got = {"log_lhs": lhs, "log_rhs": rhs}
        if lower is not None:
            got = {"log_lower": lower, "log_middle": lhs, "log_upper": rhs}
        hexed = lambda fields: {k: float(v).hex() for k, v in fields.items()}
        assert hexed(got) == hexed(_log_fields(rep))
        assert float(ratio).hex() == float(rep.ratio).hex()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    sets=st.integers(1, 9),
    budget=st.sampled_from((256, _BATCH_BYTES)),
)
def test_batched_rows_equal_evaluate_instance(kind, seed, sets, budget):
    # every kind's random draws on a random space whose axes come in another
    # order than the instance's; with a 256-byte budget both sides stream
    rng = np.random.default_rng(seed)
    inst = build_instance(kind, random_params(kind, rng, max_axes=4))
    ids = [inst.axis_ids[k] for k in rng.permutation(len(inst.axis_ids))]
    space = random_space(rng, ids)
    with _batch_budget(budget):
        _check_batch_rows(inst, space, _batch_values(rng, sets, inst.arity, space.shape))


def test_batched_rows_above_the_batch_budget_equal_evaluate_instance():
    rng = np.random.default_rng(11)
    # 16 Quad6 sets on 5^4 stack 112 rows, above the budget, where one set
    # stacks: they all run in one stack
    quad6 = build_instance("Quad6")
    small = ProductSpace(tuple(Axis(a, tuple(np.exp(rng.uniform(-2, 2, 5)))) for a in quad6.axis_ids))
    # a product integral whose every input row is above the budget on its own
    specs = [NormSpec.uniform(p, ("x1", "x2", "x3")).to_doc() for p in ("3/2", 3)]
    holder = build_instance("HolderMixed", {"specs": specs})
    large = ProductSpace(tuple(Axis(a, tuple(np.exp(rng.uniform(-2, 2, 41)))) for a in ("x3", "x1", "x2")))
    assert 8 * 41**3 > _BATCH_BYTES
    with _streamed_plans() as streamed, _stacked_plans() as stacked:
        for inst, space, sets in ((quad6, small, 16), (holder, large, 3)):
            _check_batch_rows(inst, space, _batch_values(rng, sets, inst.arity, space.shape))
    assert id(holder._passes[large.ids, (0, 1)][0].plan) in streamed
    # the batch and evaluate_instance share Quad6's one pass, and its plan
    # ran on one stack of 16 sets for each batched call, then of one set
    # for each evaluate_instance, and never streamed
    (chunked, _), = quad6._passes.values()
    assert [sets for plan, sets in stacked if plan == id(chunked.plan)] == [16] * 2 + [1] * 16
    assert id(chunked.plan) not in streamed


def test_many_small_input_sets_run_in_chunks_that_stack(monkeypatch):
    # 40,000 sets on a 2-atom axis stack 1.9 MB of rows, above the budget,
    # but each set stacks in 48 bytes: the sets run in one stack, not one
    # reduction per row, and each ratio keeps the bits of the set evaluated
    # in a smaller batch
    inst = build_instance("HolderMixed", {"specs": [NormSpec.uniform(2, ("x1",)).to_doc()] * 2})
    space = ProductSpace((Axis("x1", (0.5, 2.0)),))
    values = _batch_values(np.random.default_rng(40), 40_000, 2, space.shape)
    apart = [float(r).hex() for k in range(0, 40_000, 4_000) for r in evaluate_batch(inst, space, values[k : k + 4000])]
    calls = []
    reduce_column = spaces._reduce_column
    monkeypatch.setattr(spaces, "_reduce_column", lambda *args: calls.append(1) or reduce_column(*args))
    assert [float(r).hex() for r in evaluate_batch(inst, space, values)] == apart
    assert len(calls) <= 8


def test_a_root_reduced_in_place_leaves_its_siblings_and_the_inputs_intact(monkeypatch):
    # a spare child of a plan's root reduces its rows of the pass's stack in
    # place, and each set keeps the bits of a pass that never writes it;
    # SymmetricGM1's root children share its one row, which a first child
    # reads for two exponents, Blei21's last child reads its one row for two
    # exponents, SymmetricGM's gather rows among spare runs, and
    # SymmetricHolder's with distinct inputs gather rows beside an infinite
    # exponent's run
    cols = lambda *ps: {"columns": [{"p": p, "axis": f"x{j + 1}"} for j, p in enumerate(ps)]}
    cases = [
        ("SymmetricGM1", {"spec": cols(3, 2, 2, 1)}),
        ("Blei21", {"J": 3, "K": 2}),
        ("SymmetricGM", {"spec": cols(3, 2, 2, 1)}),
        ("SymmetricHolder", {"spec": cols(2, 3, "inf")}),
    ]
    rng = np.random.default_rng(29)
    seen, reduce_column = set(), spaces._reduce_column
    for kind, params in cases:
        inst = build_instance(kind, params)
        space = random_space(rng, inst.axis_ids)
        values = _batch_values(rng, 40, inst.arity, space.shape)
        before = values.copy()
        with monkeypatch.context() as mp:
            mp.setattr(spaces, "_reduce_column", lambda *args: reduce_column(*args[:4]))
            unwritten = [float(r).hex() for r in evaluate_batch(inst, space, values)]
        _check_batch_rows(inst, space, values)
        assert [float(r).hex() for r in evaluate_batch(inst, space, values)] == unwritten
        assert values.tobytes() == before.tobytes()
        (ev, _), = inst._passes.values()
        read = []
        for _, sel, _, spare, _, _, pairs, _ in ev.plan[0]:
            rows = [pos for pos, _ in pairs]
            features = {
                "spare": spare,
                "shared": bool(set(rows) & set(read)),
                "gathered": not isinstance(sel, slice),
                "broadcast": len(set(rows)) < len(rows),
            }
            seen |= {name for name, on in features.items() if on}
            read += rows
    assert seen == {"spare", "shared", "gathered", "broadcast"}


def test_one_plan_serves_every_number_of_input_sets(monkeypatch):
    # a batch compiles one set's plan, whatever its size and however many
    # chunks it runs in, and evaluate_instance on distinct tensors runs the
    # same pass
    compiled, compile_plan = [], spaces._compile

    def spy(group, remaining, depth):
        if depth == 0:
            compiled.append(remaining)
        return compile_plan(group, remaining, depth)

    monkeypatch.setattr(spaces, "_compile", spy)
    rng = np.random.default_rng(16)
    quad6 = build_instance("Quad6")
    small = ProductSpace(tuple(Axis(a, tuple(np.exp(rng.uniform(-2, 2, 5)))) for a in quad6.axis_ids))
    holder = build_instance("HolderMixed", {"specs": [NormSpec.uniform(2, ("x1",)).to_doc()] * 2})
    two = ProductSpace((Axis("x1", (0.5, 2.0)),))
    for inst, space, sets in ((quad6, small, 16), (holder, two, 40_000)):
        values = _batch_values(rng, sets, inst.arity, space.shape)
        compiled.clear()
        evaluate_batch(inst, space, values)
        assert compiled == [space.ids]
        evaluate_instance(inst, [Tensor(space, v) for v in values[-1]])
        assert compiled == [space.ids]


def test_batched_values_get_the_tensor_checks():
    specs = [NormSpec.uniform(2, ("x1", "x2")).to_doc()] * 2
    inst = build_instance("HolderMixed", {"specs": specs})
    space = unit_space(("x1", "x2"), (2, 3))
    good = np.ones((4, 2, 2, 3))
    assert evaluate_batch(inst, space, good) == [1.0] * 4
    for bad_value in (math.nan, math.inf, -0.5):
        values = good.copy()
        values[2, 1, 1, 0] = bad_value
        with pytest.raises(ValidationError) as tensor_error:
            Tensor(space, values[2, 1])
        with pytest.raises(ValidationError) as batch_error:
            evaluate_batch(inst, space, values)
        assert str(batch_error.value) == str(tensor_error.value)
        assert "flat index 3" in str(batch_error.value)
    for shape in ((4, 1, 2, 3), (4, 2, 3, 2), (2, 3), (4, 2, 2, 3, 1)):
        with pytest.raises(ValidationError, match="shape"):
            evaluate_batch(inst, space, np.ones(shape))
    with pytest.raises(ValidationError, match="axes"):
        evaluate_batch(inst, unit_space(("x1", "x3"), (2, 3)), good)
    complex_values = good.astype(complex)
    complex_values[1, 0, 0, 0] = 1 + 2j
    ragged = [[[[1, 2, 3], [4, 5]]] * 2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning: the imaginary part is not dropped
        text, flags = good.astype(str), good.astype(bool)
        mixed = good.tolist()
        mixed[3][1][1][2] = True
        for bad, message in ((complex_values, "complex"), (complex_values.tolist(), "complex"),
                             (ragged, "not real numbers"), ("ab", "not real numbers"),
                             (text, "not real numbers"), (text.tolist(), "not real numbers"),
                             (flags, "not real numbers"), (mixed, "not real numbers")):
            with pytest.raises(ValidationError, match=message) as batch_error:
                evaluate_batch(inst, space, bad)
            with pytest.raises(ValidationError) as tensor_error:
                Tensor(space, bad)
            assert str(batch_error.value) == str(tensor_error.value)
    assert evaluate_batch(inst, space, np.ones((0, 2, 2, 3))) == []


# ---------------------------------------------------------------------------
# the streamed kernel on worker threads


def test_streamed_results_are_the_same_bits_for_any_worker_count(workers, executors, monkeypatch):
    # With a 256-byte budget these inputs stream in many blocks, the slot
    # sums of the product integrals among them, on pools of 1, 2 and 3
    # threads.  A zero logs to -inf and an all-zero set sums to a zero
    # integral: a task run without the kernel's np.errstate would warn, and
    # warnings are errors here.
    rng = np.random.default_rng(12)
    sizes = {"x3": 6, "x1": 5, "x4": 4, "x2": 7}
    space = ProductSpace(tuple(Axis(a, tuple(np.exp(rng.uniform(-2, 2, n)))) for a, n in sizes.items()))
    cases = (("HolderMixed", _HOLDER_48), ("SymmetricGM1", _GM1_48), ("MinkowskiRaise", _MINKOWSKI_48))
    insts = [build_instance(kind, params) for kind, params in cases]
    sets = [_batch_values(rng, 3, inst.arity, space.shape) for inst in insts]
    sets[0][1] = 0.0
    spec = NormSpec((("3/2", "x2"), ("inf", "x3"), (3, "x1"), (1, "x4")))
    f, g = (Tensor(space, v) for v in sets[0][0, :2])

    def results():
        out = []
        for inst, values in zip(insts, sets):
            rep = evaluate_instance(inst, [Tensor(space, v) for v in values[0]])
            out.append({k: float(v).hex() for k, v in _log_fields(rep).items()})
            out.append([float(r).hex() for r in evaluate_batch(inst, space, values)])
        out.append(float(mixed_norm_log(f, spec)).hex())
        out.append(float(integrate_product([f, g, f])).hex())
        return out

    seen = {"stacked": results()}
    loops, block_map = [], spaces._map  # the item count of each block loop

    def counted_map(task, items, nbytes):
        loops.append(len(items))
        return block_map(task, items, nbytes)

    monkeypatch.setattr(spaces, "_map", counted_map)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter lock between threads often
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 2, 3):
                loops.clear()
                executors.clear()
                with _batch_budget(256), workers(n):
                    seen[n] = results()
                # each loop of two or more blocks opens a pool of its own, of at most n threads
                assert executors == [min(n, k) for k in loops if k > 1 and n > 1]
                assert any(k > 1 for k in loops)
    finally:
        sys.setswitchinterval(interval)
    assert seen[1] == seen[2] == seen[3] == seen["stacked"]
