"""The randomized harness: trial configs, probes, the violation search, sweeps."""

import dataclasses
import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mixednorm import (
    Axis,
    KINDS,
    NormSpec,
    ProductSpace,
    Tensor,
    TrialConfig,
    ValidationError,
    build_instance,
    evaluate_instance,
    instance_from_doc,
    maximize_ratio,
    random_inputs,
    scaling_probe,
    space_from_doc,
    sweep,
    tensor_from_doc,
)
from mixednorm import search
from mixednorm.catalog import MixedNorm, RhsFactor, _subset_specs, size_k_subsets
from mixednorm.evaluation import evaluate_batch
from mixednorm.perms import all_permutations, lowers, raises
from mixednorm.search import _monotone_images, random_params


def test_trial_config_validation_and_round_trip():
    cfg = TrialConfig(seed=9, trials=12, kinds=("Quad6", "Blei21"))
    with pytest.raises(ValidationError):
        TrialConfig(trials=0)
    with pytest.raises(ValidationError):
        TrialConfig(axis_size_range=(3, 2))
    with pytest.raises(ValidationError):
        TrialConfig(weight_range=(0.0, 1.0))
    with pytest.raises(ValidationError):
        TrialConfig(kinds=("NoSuchKind",))
    with pytest.raises(ValidationError, match="max_axes"):
        TrialConfig(max_axes=3)


def test_random_inputs_are_deterministic_and_in_range():
    cfg = TrialConfig(seed=5, weight_range=(0.5, 2.0), value_range=(0.1, 10.0))
    s1, ts1 = random_inputs(cfg, arity=2, n=3, trial_index=4)
    s2, ts2 = random_inputs(cfg, arity=2, n=3, trial_index=4)
    assert s1 == s2
    assert all(np.array_equal(a.values, b.values) for a, b in zip(ts1, ts2))
    s3, _ = random_inputs(cfg, arity=2, n=3, trial_index=5)
    assert s3 != s1  # different trial index, different draw
    assert s1.ids == ("x1", "x2", "x3")
    for axis in s1.axes:
        assert 1 <= axis.size <= 5
        assert all(0.5 <= w <= 2.0 for w in axis.weights)
    for t in ts1:
        assert t.values.min() >= 0.1 and t.values.max() <= 10.0
    with pytest.raises(ValidationError):
        random_inputs(cfg, arity=1, n=2, axis_ids=("a",))


# ---------------------------------------------------------------------------
# scaling probe

def test_scaling_probe_matches_the_power_law():
    spec = NormSpec(((2, "x1"), (1, "x2")))
    grid = [2.0**k for k in range(11)]
    for p, checks in (
        (1, {4.0: 2.0, 16.0: 4.0}),
        (2, {4.0: 0.5, 16.0: 0.25}),
    ):
        probe = scaling_probe(spec, p, grid)
        assert probe.max_rel_err < 1e-9
        table = dict(zip(probe.ts, probe.analytic))
        for t, expected in checks.items():
            assert table[t] == pytest.approx(expected, rel=1e-12)
    # at p = pbar = 4/3 the family is flat
    flat = scaling_probe(spec, "4/3", grid)
    assert all(a == pytest.approx(1.0) for a in flat.analytic)
    assert flat.max_rel_err < 1e-9


def test_scaling_probe_fractional_t():
    spec = NormSpec(((2, "x1"), (1, "x2")))
    probe = scaling_probe(spec, 2, [0.5, 1.5, 2.75])
    assert probe.max_rel_err < 1e-9


def test_scaling_probe_rejects_bad_input():
    spec = NormSpec(((2, "x1"), (1, "x2")))
    with pytest.raises(ValidationError):
        scaling_probe(spec, "inf", [1.0])
    with pytest.raises(ValidationError):
        scaling_probe(spec, 2, [0.0])


@pytest.mark.parametrize(
    "exps, p, t",
    [
        (["1/3"], 1000, 1e-300),  # ratio about 1e899
        ([2, 1], "1e-300", 2.0),  # log ratio about 1e300
        ([1000], "1/3", 1e-300),  # ratio about 1e-900, underflows to 0
    ],
)
def test_scaling_probe_rejects_ratios_beyond_the_float_range(exps, p, t):
    spec = NormSpec(tuple((e, f"x{i}") for i, e in enumerate(exps, 1)))
    with pytest.raises(ValidationError, match="beyond the float range"):
        scaling_probe(spec, p, [1.0, t])


def test_scaling_probe_cell_limit_message_is_short():
    with pytest.raises(ValidationError, match=r"ceil\(1e\+300\)\^1 cells") as exc:
        scaling_probe(NormSpec(((2, "x1"),)), 2, [1e300])
    assert len(str(exc.value)) < 80


def test_scaling_probe_doc():
    spec = NormSpec(((2, "x1"), (1, "x2")))
    doc = scaling_probe(spec, 2, [1.0, 4.0]).to_doc()
    assert doc["p"] == "2"
    assert len(doc["rows"]) == 2
    json.dumps(doc)


# ---------------------------------------------------------------------------
# the violation search

@pytest.fixture
def wide_space():
    return ProductSpace(
        (Axis("x1", (1e-6, 1.0, 1e6)), Axis("x2", (1e-6, 1.0, 1e6)))
    )


def perturbed_gm1():
    return build_instance(
        "SymmetricGM1",
        {
            "spec": NormSpec(((2, "x1"), (1, "x2"))).to_doc(),
            "lhs_exponent": "8/5",
        },
    )


def test_maximize_ratio_finds_the_known_violation(wide_space):
    res = maximize_ratio(perturbed_gm1(), wide_space, seed=5, max_evals=10_000)
    assert res.best_ratio > 1
    assert res.evaluations <= 10_000
    # the witness reproduces the ratio exactly on re-evaluation
    rep = evaluate_instance(perturbed_gm1(), list(res.witnesses))
    assert rep.ratio == pytest.approx(res.best_ratio, rel=1e-12)


def test_maximize_ratio_is_deterministic(wide_space):
    a = maximize_ratio(perturbed_gm1(), wide_space, seed=17, max_evals=2000)
    b = maximize_ratio(perturbed_gm1(), wide_space, seed=17, max_evals=2000)
    assert a.best_ratio == b.best_ratio
    assert a.evaluations == b.evaluations
    assert all(
        np.array_equal(x.values, y.values) for x, y in zip(a.witnesses, b.witnesses)
    )


def test_small_inputs_never_start_the_kernel_pool(workers, executors, wide_space):
    # sweep-, search- and batch-sized inputs fit the batch budget, so they
    # run on the calling thread even where the pool would have two workers
    with workers(2):
        sweep(TrialConfig(seed=3, trials=2))
        maximize_ratio(perturbed_gm1(), wide_space, seed=17, max_evals=200)
        quad6 = build_instance("Quad6")
        space = ProductSpace(tuple(Axis(a, (1.0,) * 5) for a in quad6.axis_ids))
        values = np.random.default_rng(4).uniform(0, 1, (8, quad6.arity, *space.shape))
        evaluate_batch(quad6, space, values)
    assert executors == []


def test_maximize_ratio_respects_soundness(wide_space):
    # an unperturbed instance never exceeds 1 by more than the tolerance
    sound = build_instance(
        "SymmetricGM1", {"spec": NormSpec(((2, "x1"), (1, "x2"))).to_doc()}
    )
    res = maximize_ratio(sound, wide_space, seed=3, max_evals=1500)
    assert res.best_ratio <= 1 + 1e-8
    # ... and the indicator starts actually achieve equality here
    assert res.best_ratio == pytest.approx(1.0, rel=1e-10)


def crossed_holder():
    """HolderMixed with two column orders, which build_instance rejects:
    Holder's inequality needs one order, and this system breaks it."""
    a = NormSpec((("3/2", "x1"), (3, "x2")))
    b = NormSpec((("3/2", "x2"), (3, "x1")))
    one_order = NormSpec(((3, "x1"), ("3/2", "x2")))
    sound = build_instance("HolderMixed", {"specs": [a.to_doc(), one_order.to_doc()]})
    return dataclasses.replace(
        sound, rhs=(RhsFactor(a, Fraction(1), 0), RhsFactor(b, Fraction(1), 1))
    )


def test_climb_finds_the_violation_the_indicator_starts_miss():
    inst = crossed_holder()
    space = ProductSpace(tuple(Axis(a, (1.0, 1.0, 1.0)) for a in ("x1", "x2")))
    starts = search._indicator_starts(space, inst.arity)
    assert len(starts) == 5
    assert evaluate_batch(inst, space, starts) == [1.0] * 5
    found = 0
    for seed in range(10):
        res = maximize_ratio(inst, space, seed=seed)
        assert res.evaluations == 10_000
        again = evaluate_instance(inst, list(res.witnesses)).ratio
        assert float(again).hex() == float(res.best_ratio).hex()
        found += res.best_ratio > 1 + 1e-8
    assert found >= 7


def swapped_minkowski():
    """MinkowskiRaise with its sides swapped: the raised norm bounds the original."""
    spec = NormSpec(((1, "x1"), (2, "x2"), (3, "x3")))
    sound = build_instance("MinkowskiRaise", {"spec": spec.to_doc(), "perm": [3, 2, 1]})
    return dataclasses.replace(
        sound, lhs=MixedNorm(sound.rhs[0].spec), rhs=(RhsFactor(sound.lhs.spec, Fraction(1), 0),)
    )


def shrunk_blei_ps():
    """BleiPS whose factor weights sum to 9/10 of what homogeneity needs."""
    sound = build_instance("BleiPS", {"n": 3, "k": 1, "q": [3, 3, 3]})
    return dataclasses.replace(
        sound, rhs=tuple(dataclasses.replace(f, weight=f.weight * Fraction(9, 10)) for f in sound.rhs)
    )


def short_holder():
    """HolderMixed whose reciprocal exponents on x1 sum to 1/2 + 1/3."""
    a, b = NormSpec(((2, "x1"), (2, "x2"))), NormSpec(((3, "x1"), (2, "x2")))
    sound = build_instance("HolderMixed", {"specs": [a.to_doc(), a.to_doc()]})
    return dataclasses.replace(sound, rhs=(RhsFactor(a, Fraction(1), 0), RhsFactor(b, Fraction(1), 1)))


def low_blei21():
    """Blei21 with its left exponent at 95% of pbar."""
    pbar = Fraction(build_instance("Blei21", {"J": 3, "K": 1}).derived["pbar"])
    return build_instance("Blei21", {"J": 3, "K": 1, "lhs_exponent": str(pbar * Fraction(19, 20))})


def _with_specs(sound, specs):
    """sound with its right-side factors' specs replaced, in order."""
    return dataclasses.replace(sound, rhs=tuple(dataclasses.replace(f, spec=s) for f, s in zip(sound.rhs, specs)))


def swapped_blei_qp():
    """BleiQP (J = 3, K = 1) with q = 3 on each subset and 3/2 on its
    complement: p > q, which build_instance rejects."""
    sound = build_instance("BleiQP", {"J": 3, "K": 1, "q": 3, "p": "3/2"})
    return _with_specs(sound, _subset_specs(sound.axis_ids, size_k_subsets(3, 1), [Fraction(3, 2)] * 3, [Fraction(3)] * 3))


def increasing_symmetric_gm():
    """SymmetricGM on [2, 1] with its orbit listed with increasing
    exponents, which orbit() rejects as unsorted."""
    sound = build_instance("SymmetricGM", {"spec": NormSpec(((2, "x1"), (1, "x2"))).to_doc()})
    return _with_specs(sound, (NormSpec(((1, "x1"), (2, "x2"))), NormSpec(((1, "x2"), (2, "x1")))))


def _blei_ps_with_outer(outer):
    """BleiPS n = 3, k = 1, q = [6, 6, 6] with outer exponents `outer` on its
    subsets: 1/p_i = 1/6 + c_i / 2 for coefficients c_i that build_instance rejects."""
    sound = build_instance("BleiPS", {"n": 3, "k": 1, "q": [6, 6, 6]})
    return _with_specs(sound, _subset_specs(sound.axis_ids, size_k_subsets(3, 1), [Fraction(6)] * 3, outer))


def uncovered_blei_ps():
    """c = (1, 1, 1/2): the coefficients do not cover the third axis."""
    return _blei_ps_with_outer([Fraction(3, 2), Fraction(3, 2), Fraction(12, 5)])


def low_p_blei_ps():
    """c = (2, 1, 1): p_1 = 6/7 < 1."""
    return _blei_ps_with_outer([Fraction(6, 7), Fraction(3, 2), Fraction(3, 2)])


def high_p_blei_ps():
    """c = (-1/6, 1, 1): p_1 = 12 > q_1 = 6."""
    return _blei_ps_with_outer([Fraction(12), Fraction(3, 2), Fraction(3, 2)])


def _holder_with_order(specs, one_order):
    """HolderMixed built from one_order, specs with their columns in one
    order, and then given specs, the same columns in other orders."""
    return _with_specs(build_instance("HolderMixed", {"specs": [s.to_doc() for s in one_order]}), specs)


def reversed_holder():
    """HolderMixed whose third spec reduces x2 first and the others x1."""
    a, b = NormSpec(((2, "x1"), (4, "x2"))), NormSpec(((4, "x1"), (4, "x2")))
    return _holder_with_order(
        (a, b, NormSpec(((2, "x2"), (4, "x1")))), (a, b, NormSpec(((4, "x1"), (2, "x2"))))
    )


def swapped_outer_holder():
    """HolderMixed on three axes whose second spec swaps its outer pair."""
    a = NormSpec(((2, "x1"), ("3/2", "x2"), (3, "x3")))
    return _holder_with_order(
        (a, NormSpec(((2, "x1"), ("3/2", "x3"), (3, "x2")))), (a, NormSpec(((2, "x1"), (3, "x2"), ("3/2", "x3"))))
    )


@pytest.mark.parametrize(
    "make",
    [
        swapped_minkowski,
        shrunk_blei_ps,
        short_holder,
        low_blei21,
        swapped_blei_qp,
        increasing_symmetric_gm,
        uncovered_blei_ps,
        low_p_blei_ps,
        high_p_blei_ps,
        reversed_holder,
        swapped_outer_holder,
    ],
)
def test_climb_finds_the_violation_of_known_false_variants(make):
    # each variant breaks one hypothesis of a sound kind, and the climb on a
    # random space of 4 atoms per axis finds a witness the evaluator confirms
    inst = make()
    rng = np.random.default_rng(0)
    space = ProductSpace(tuple(Axis(a, tuple(np.exp(rng.uniform(-2, 2, 4)))) for a in inst.axis_ids))
    res = maximize_ratio(inst, space, seed=0, max_evals=4000)
    assert res.best_ratio > 1 + 1e-8
    again = evaluate_instance(inst, list(res.witnesses)).ratio
    assert float(again).hex() == float(res.best_ratio).hex()


def test_maximize_ratio_spends_its_budget(wide_space):
    rng = np.random.default_rng(8)
    quad6 = build_instance("Quad6")
    space = ProductSpace(
        tuple(Axis(a, tuple(np.exp(rng.uniform(-7, 7, 5)))) for a in quad6.axis_ids)
    )
    for inst, space, max_evals in ((perturbed_gm1(), wide_space, 2_001), (quad6, space, 333)):
        res = maximize_ratio(inst, space, seed=2, max_evals=max_evals)
        assert res.evaluations == max_evals
        assert all(isinstance(w, Tensor) for w in res.witnesses)
        again = evaluate_instance(inst, list(res.witnesses)).ratio
        assert float(again).hex() == float(res.best_ratio).hex()
    # with the ratio 1 everywhere no population wins, so each start's step
    # collapses below _MIN_STEP many times over and is reset each time
    spec = NormSpec(((2, "x1"), (1, "x2"))).to_doc()
    flat = build_instance("MinkowskiRaise", {"spec": spec, "perm": [1, 2], "direction": "raise"})
    unit = ProductSpace(tuple(Axis(a, (1.0, 1.0)) for a in ("x1", "x2")))
    res = maximize_ratio(flat, unit, seed=2, max_evals=5_000)
    assert res.evaluations == 5_000 and res.best_ratio == 1.0
    # a budget smaller than the indicator family stops part way through it
    res = maximize_ratio(perturbed_gm1(), wide_space, seed=2, max_evals=3)
    assert res.evaluations == 3 and res.best_ratio > 1


def test_maximize_ratio_validates_space():
    inst = perturbed_gm1()
    wrong = ProductSpace((Axis("zz", (1.0,)),))
    with pytest.raises(ValidationError):
        maximize_ratio(inst, wrong, seed=1)
    good = ProductSpace((Axis("x1", (1.0,)), Axis("x2", (1.0,))))
    with pytest.raises(ValidationError):
        maximize_ratio(inst, good, seed=1, max_evals=0)


def test_maximize_ratio_draws_only_the_starts_it_runs(wide_space):
    # at most max_evals // 2 starts run; the other random starts are never drawn
    t0 = time.perf_counter()
    res = maximize_ratio(perturbed_gm1(), wide_space, seed=4, restarts=10**6, max_evals=20)
    assert time.perf_counter() - t0 < 1.0
    assert res.evaluations == 20
    assert res.starts == len(search._indicator_starts(wide_space, 1)) + 10**6
    with pytest.raises(ValidationError, match="restarts"):
        maximize_ratio(perturbed_gm1(), wide_space, seed=4, restarts=-1)


# ---------------------------------------------------------------------------
# random parameters and the sweep

def test_random_params_build_for_every_kind():
    for kind in KINDS:
        for seed in range(6):
            rng = np.random.default_rng([seed, KINDS.index(kind)])
            inst = build_instance(kind, random_params(kind, rng))
            assert inst.kind == kind
            assert inst.arity >= 1


def test_random_params_honour_max_axes():
    widest = 0
    for kind in KINDS:
        for seed in range(8):
            rng = np.random.default_rng([seed, KINDS.index(kind)])
            inst = build_instance(kind, random_params(kind, rng, max_axes=7))
            assert len(inst.axis_ids) <= 7
            widest = max(widest, len(inst.axis_ids))
    assert widest > 5


def test_minkowski_candidates_are_the_raising_permutations_in_order():
    # random_params draws its MinkowskiRaise permutation by index from this
    # list, so it must be the raises/lowers filter over S_n, in order.
    pool = ("1/2", "1", "3", "inf")
    for n in range(1, 5):
        for row in itertools.product(pool, repeat=n):
            spec = NormSpec(tuple((p, f"x{i}") for i, p in enumerate(row)))
            for direction, accepts in (("raise", raises), ("lower", lowers)):
                want = [s.images for s in all_permutations(n) if accepts(s, spec)]
                assert _monotone_images(spec, direction) == want, (row, direction)


def test_sweep_draws_params_with_its_max_axes(monkeypatch):
    seen = []
    real = search.random_params

    def recording(kind, rng, max_axes=5):
        seen.append(max_axes)
        return real(kind, rng, max_axes)

    monkeypatch.setattr(search, "random_params", recording)
    sweep(TrialConfig(seed=1, trials=2, kinds=("Blei21",), max_axes=7))
    assert seen == [7, 7]


def test_sweep_failure_witnesses_reproduce_their_reports(monkeypatch):
    # a SymmetricGM1 left side at exponent 1 rather than pbar = 4/3 is false
    # on these draws, and each failing trial carries a witness that reloads
    # to the same report
    params = {"spec": NormSpec(((2, "x1"), (1, "x2"))).to_doc(), "lhs_exponent": "1"}
    monkeypatch.setattr(search, "random_params", lambda kind, rng, max_axes=5: params)
    cfg = TrialConfig(seed=1, trials=5, kinds=("SymmetricGM1",))
    report = sweep(cfg)
    block = report["kinds"]["SymmetricGM1"]
    assert report["pass"] is False and block["pass"] is False
    assert len(block["failures"]) == 5
    for witness in block["failures"]:
        inst = instance_from_doc(witness["instance"])
        space = space_from_doc(witness["space"])
        tensors = [tensor_from_doc(doc, space) for doc in witness["tensors"]]
        trial = {"index": witness["report"]["trial"]["index"]}
        rep = evaluate_instance(inst, tensors, tolerance=cfg.tolerance, seed=cfg.seed, trial=trial)
        assert rep.to_doc() == witness["report"]


def test_sweep_small_run_passes_and_reports():
    cfg = TrialConfig(seed=2, trials=5)
    report = sweep(cfg)
    assert report["pass"] is True
    assert set(report["kinds"]) == set(KINDS)
    for kind, block in report["kinds"].items():
        assert block["trials"] == 5
        assert block["failures"] == []
        assert 0 <= block["max_ratio"] <= 1 + cfg.tolerance
        assert 0 <= block["max_ratio_trial"] < 5
    json.dumps(report)


def test_sweep_is_thread_count_invariant():
    cfg = TrialConfig(seed=6, trials=4)
    seq = json.dumps(sweep(cfg, threads=1), sort_keys=True)
    par = json.dumps(sweep(cfg, threads=8), sort_keys=True)
    assert seq == par


def test_sweep_rejects_bad_threads_through_the_api():
    cfg = TrialConfig(seed=1, trials=1, kinds=("Quad6",))
    for threads in (0, -3, 1.5):
        with pytest.raises(ValidationError, match="threads"):
            sweep(cfg, threads=threads)


def test_sweep_kind_filter():
    cfg = TrialConfig(seed=1, trials=3, kinds=("Quad6",))
    report = sweep(cfg)
    assert list(report["kinds"]) == ["Quad6"]
