"""The randomized harness: trial configs, probes, the violation search, sweeps."""

import dataclasses
import itertools
import json
import math
import time
import tracemalloc
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
        TrialConfig(kinds=("NoSuchKind",))
    with pytest.raises(ValidationError, match="empty"):
        TrialConfig(kinds=())
    # a count or seed is an integer, never a bool, and checked at construction
    for bad in ({"trials": True}, {"seed": True}, {"seed": 1.5}, {"trials": 2.0}, {"seed": -1}):
        with pytest.raises(ValidationError):
            TrialConfig(**bad)
    numpy_seeded = TrialConfig(seed=np.int64(9), trials=np.int32(12))
    assert type(numpy_seeded.seed) is int and type(numpy_seeded.trials) is int
    assert numpy_seeded.to_doc() == TrialConfig(seed=9, trials=12).to_doc()


def test_random_inputs_are_deterministic_and_in_range():
    cfg = TrialConfig(seed=5)
    s1, ts1 = random_inputs(cfg, arity=2, n=3, trial_index=4)
    s2, ts2 = random_inputs(cfg, arity=2, n=3, trial_index=4)
    assert s1 == s2
    assert all(np.array_equal(a.values, b.values) for a, b in zip(ts1, ts2))
    s3, _ = random_inputs(cfg, arity=2, n=3, trial_index=5)
    assert s3 != s1  # different trial index, different draw
    assert s1.ids == ("x1", "x2", "x3")
    for axis in s1.axes:
        assert 1 <= axis.size <= 5
        assert all(1e-3 <= w <= 1e3 for w in axis.weights)
    for t in ts1:
        assert t.values.min() >= 1e-2 and t.values.max() <= 1e2
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
    probe = scaling_probe(spec, 2, [1.0, 4.0, 16.0])
    doc = probe.to_doc()
    assert doc["p"] == "2"
    assert len(doc["rows"]) == 3
    json.dumps(doc)
    # one relative error per t, the largest of them reported
    assert probe.rel_errs == tuple(abs(e - a) / a for e, a in zip(probe.empirical, probe.analytic))
    assert doc["max_rel_err"] == max(probe.rel_errs) > 0
    assert scaling_probe(spec, 2, []).max_rel_err == 0.0


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


def _reference_indicator_starts(space, arity):
    """The boxes built the long way: a full grid per level in both weight
    orders, each distinct box kept once in order of first appearance."""
    boxes = {}
    for step in (1, -1):
        orders = [np.argsort(np.asarray(a.weights))[::step] for a in space.axes]
        for level in range(1, max(space.shape) + 1):
            vals = np.zeros(space.shape)
            vals[np.ix_(*(order[:level] for order in orders))] = 1.0
            boxes.setdefault(vals.tobytes(), vals)
    return np.broadcast_to(np.array(list(boxes.values()))[:, None], (len(boxes), arity, *space.shape))


def test_indicator_starts_are_the_2l_minus_1_distinct_boxes():
    # tied weights (drawn from {1, 2}) and size-1 axes included
    rng = np.random.default_rng(23)
    for _ in range(300):
        axes = []
        for j in range(int(rng.integers(1, 5))):
            size = int(rng.integers(1, 7))
            weights = rng.integers(1, 3, size) if rng.integers(2) else np.exp(rng.uniform(-2, 2, size))
            axes.append(Axis(f"x{j + 1}", tuple(float(w) for w in weights)))
        space = ProductSpace(tuple(axes))
        arity = int(rng.integers(1, 4))
        starts = search._indicator_starts(space, arity)
        assert starts.shape == (2 * max(space.shape) - 1, arity, *space.shape)
        assert np.array_equal(starts, _reference_indicator_starts(space, arity))


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
    for max_evals in (True, 2.5):
        with pytest.raises(ValidationError, match="max_evals"):
            maximize_ratio(inst, good, seed=1, max_evals=max_evals)
    for seed in (True, 1.5, -1):
        with pytest.raises(ValidationError, match="seed"):
            maximize_ratio(inst, good, seed=seed, max_evals=5)


def _reference_search(inst, space, seed, max_evals, restarts):
    """maximize_ratio's trajectory written out on its own, with its constants
    spelled out: the indicator starts scored first, then random starts drawn
    from one generator in start order, each start's climb from its own
    generator with an even share of the budget left where it begins, in
    populations of 8 whose factors are exp of the step times a uniform draw
    of variance 1 (u - 0.5 times sqrt(12), in maximize_ratio's order of
    operations), with the 1/5 rule on a step of at most 0.5 and the reset
    below 1e-4, and the first best start kept on a tie."""
    evals = 0

    def score(population):
        nonlocal evals
        evals += len(population)
        return evaluate_batch(inst, space, population)

    indicators = search._indicator_starts(space, inst.arity)
    n_starts = len(indicators) + restarts
    indicators = indicators[:max_evals]
    indicator_ratios = score(indicators)
    draws = np.random.default_rng([seed, 1])
    best = None
    for si in range(n_starts):
        if si < len(indicators):
            current, ratio = indicators[si], indicator_ratios[si]
        elif evals < max_evals:
            current = np.exp(draws.uniform(math.log(1e-2), math.log(1e2), indicators.shape[1:]))
            ratio = score(current[None])[0]
        else:
            break
        budget = (max_evals - evals) // (n_starts - si)
        rng, step = np.random.default_rng([seed, 2, si]), 0.5
        while budget > 0:
            size = min(8, budget)
            population = current * np.exp((rng.random((size, *current.shape)) - 0.5) * (step * math.sqrt(12)))
            found = score(population)
            budget -= size
            wins = [j for j, r in enumerate(found) if r > ratio]
            if wins:
                top = max(wins, key=found.__getitem__)
                current, ratio = population[top], found[top]
            step = min(0.5, step * (1.5 if len(wins) > size / 5 else 0.7))
            if step < 1e-4:
                step = 0.5
        if best is None or ratio > best[0]:
            best = (ratio, current, si)
    ratio, witness, start = best
    return search.SearchResult(
        ratio, tuple(Tensor(space, a) for a in witness), evals, n_starts, start, seed
    ).to_doc()


def _random_space(inst, atoms, seed):
    rng = np.random.default_rng(seed)
    return ProductSpace(tuple(Axis(a, tuple(np.exp(rng.uniform(-3, 3, atoms)))) for a in inst.axis_ids))


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("max_evals, restarts", [(300, 6), (20, 10**6), (3, 6)])
def test_climb_follows_the_reference_trajectory(wide_space, seed, max_evals, restarts):
    quad6 = build_instance("Quad6")
    cases = [
        (perturbed_gm1(), wide_space),
        (crossed_holder(), _random_space(crossed_holder(), 3, 1)),
        (swapped_minkowski(), _random_space(swapped_minkowski(), 2, 2)),
        (quad6, ProductSpace(tuple(Axis(a, (1.0, 2.0)) for a in quad6.axis_ids))),
    ]
    for inst, space in cases:
        got = maximize_ratio(inst, space, seed, max_evals=max_evals, restarts=restarts)
        assert got.to_doc() == _reference_search(inst, space, seed, max_evals, restarts)


def test_climb_follows_the_reference_through_step_resets():
    # here the five starts' steps collapse and are reset, and the result
    # depends on the value they are reset to
    inst = crossed_holder()
    space = _random_space(inst, 2, 7)
    got = maximize_ratio(inst, space, 0, max_evals=2000, restarts=0)
    assert got.to_doc() == _reference_search(inst, space, 0, 2000, 0)


@pytest.mark.parametrize("max_evals, restarts", [(400, 0), (400, 6), (400, 40), (60, 40)])
def test_climb_follows_the_reference_across_waves(max_evals, restarts):
    # Quad6's 8 sets of 6 tensors of 5^4 cells take 240,000 bytes, so a wave
    # holds 4 of its 9 + restarts starts; each start's last population is
    # ragged, and at 60 evaluations the later starts have no budget left
    quad6 = build_instance("Quad6")
    space = _random_space(quad6, 5, 3)
    assert search._WAVE_BYTES // (8 * 6 * 5**4 * 8) == 4
    for seed in (0, 5):
        got = maximize_ratio(quad6, space, seed, max_evals=max_evals, restarts=restarts)
        assert got.to_doc() == _reference_search(quad6, space, seed, max_evals, restarts)


def test_climb_follows_the_reference_one_start_a_wave(monkeypatch, wide_space):
    monkeypatch.setattr(search, "_WAVE_BYTES", 1)
    for seed in (0, 5):
        for max_evals, restarts in ((300, 6), (20, 10**6), (3, 6)):
            test_climb_follows_the_reference_trajectory(wide_space, seed, max_evals, restarts)
    test_climb_follows_the_reference_through_step_resets()


def test_climb_memory_does_not_grow_with_restarts():
    # a wave's population buffer holds at most _WAVE_BYTES, and the pass it
    # feeds stacks at most _BATCH_BYTES: 200 restarts on Quad6 5^4 stay
    # within 3 x _WAVE_BYTES, where keeping all 209 starts live takes 60 MiB
    quad6 = build_instance("Quad6")
    space = ProductSpace(tuple(Axis(a, (1.0, 2.0, 3.0, 4.0, 5.0)) for a in quad6.axis_ids))
    tracemalloc.start()
    try:
        res = maximize_ratio(quad6, space, seed=1, max_evals=3000, restarts=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.evaluations == 3000
    assert peak < 3 * search._WAVE_BYTES


def test_maximize_ratio_draws_only_the_starts_it_runs(wide_space):
    # at most max_evals // 2 starts run; the other random starts are never drawn
    t0 = time.perf_counter()
    res = maximize_ratio(perturbed_gm1(), wide_space, seed=4, restarts=10**6, max_evals=20)
    assert time.perf_counter() - t0 < 1.0
    assert res.evaluations == 20
    assert res.starts == len(search._indicator_starts(wide_space, 1)) + 10**6
    for restarts in (-1, False, 1.5):
        with pytest.raises(ValidationError, match="restarts"):
            maximize_ratio(perturbed_gm1(), wide_space, seed=4, restarts=restarts)


def test_each_wave_scores_its_first_points_in_one_call(monkeypatch, wide_space):
    # the 5 boxes and 6 random starts of wide_space fit one wave, whose
    # first points are scored together before any start climbs
    sizes = []

    def recorded(inst, space, arrays, tolerance=1e-8):
        sizes.append(len(arrays))
        return evaluate_batch(inst, space, arrays, tolerance)

    monkeypatch.setattr(search, "evaluate_batch", recorded)
    res = maximize_ratio(perturbed_gm1(), wide_space, seed=4, max_evals=300, restarts=6)
    assert sizes[0] == 11 and sum(sizes) == res.evaluations == 300


def test_climb_perturbations_have_bounded_support(monkeypatch, wide_space):
    # the first step's factors population / current for the 6 random starts
    # (a box start has zeros): the log of each is uniform on +-0.5 sqrt(3)
    # at the first step of 0.5, so it is bounded, unlike a normal draw's
    calls = []

    def recorded(inst, space, arrays, tolerance=1e-8):
        calls.append(np.array(arrays))  # a copy: the population buffer is reused
        return evaluate_batch(inst, space, arrays, tolerance)

    monkeypatch.setattr(search, "evaluate_batch", recorded)
    maximize_ratio(perturbed_gm1(), wide_space, seed=4, max_evals=300, restarts=6)
    firsts, population = calls[0], calls[1]
    assert len(firsts) == 11 and len(population) == 11 * 8
    factors = population[5 * 8 :].reshape(6, 8, *firsts.shape[1:]) / firsts[5:, None]
    assert np.all(factors >= math.exp(-0.5 * math.sqrt(3)))
    assert np.all(factors <= math.exp(0.5 * math.sqrt(3)))
    assert len(np.unique(factors)) > 1


@pytest.mark.parametrize("restarts", [6, 10**6])
def test_only_starts_that_climb_build_a_generator(monkeypatch, wide_space, restarts):
    # one _rng(seed, 2, si) for each start with a budget above 0, and one
    # _rng(seed, 1) for the random starts' first points; at 10**6 restarts
    # about 10,000 starts run with a budget of 0
    keys = []

    def recorded(seed, *key):
        keys.append(key)
        return np.random.default_rng([seed, *key])

    monkeypatch.setattr(search, "_rng", recorded)
    boxes = len(search._indicator_starts(wide_space, 1))
    climbing = [si for si, b in enumerate(search._budgets(boxes, boxes + restarts, 10_000)) if b > 0]
    maximize_ratio(perturbed_gm1(), wide_space, seed=4, max_evals=10_000, restarts=restarts)
    assert keys == [(1,)] + [(2, si) for si in climbing]


@pytest.mark.parametrize("max_evals", [1, 3, 5, 6, 11, 60, 400])
@pytest.mark.parametrize("restarts", [0, 6, 10**6])
def test_budget_schedule_accounts_for_every_evaluation(wide_space, max_evals, restarts):
    # one first point per running start plus its budget; with max_evals
    # below the 5 boxes, that many boxes run and none climbs
    boxes = len(search._indicator_starts(wide_space, 1))
    budgets = list(search._budgets(boxes, boxes + restarts, max_evals))
    res = maximize_ratio(perturbed_gm1(), wide_space, seed=1, max_evals=max_evals, restarts=restarts)
    assert len(budgets) + sum(budgets) == res.evaluations
    assert len(budgets) <= max_evals and min(budgets) >= 0
    if max_evals <= boxes:
        assert budgets == [0] * max_evals


def test_budget_schedule_is_lazy():
    t0 = time.perf_counter()
    first = list(itertools.islice(search._budgets(5, 10**18, 10**18), 8))  # boxes, then random starts
    assert time.perf_counter() - t0 < 0.1
    assert first == [0] * 8


# ---------------------------------------------------------------------------
# random parameters and the sweep

def test_random_params_build_for_every_kind():
    for kind in KINDS:
        for seed in range(6):
            rng = np.random.default_rng([seed, KINDS.index(kind)])
            inst = build_instance(kind, random_params(kind, rng))
            assert inst.kind == kind
            assert inst.arity >= 1


def test_random_spec_documents_are_those_of_the_parsed_spec():
    # the pools' document values are parsed once: the same as a spec's to_doc
    assert [search._POOL_DOC[e] for e in ("1/2", "2", "1/3", "inf")] == [0.5, 2, "1/3", "inf"]
    exps = list(search._EXP_POOL)
    spec = NormSpec(tuple((e, f"x{i}") for i, e in enumerate(exps, 1)))
    assert search._spec_doc(exps) == spec.to_doc()
    assert search._sorted_desc(exps) == exps[::-1]


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
    for threads in (0, -3, 1.5, True, "2"):
        with pytest.raises(ValidationError, match="threads"):
            sweep(cfg, threads=threads)


def test_sweep_kind_filter():
    cfg = TrialConfig(seed=1, trials=3, kinds=("Quad6",))
    report = sweep(cfg)
    assert list(report["kinds"]) == ["Quad6"]
