"""Acceptance suite: eight end-to-end criteria with one printed status line each.

Run with `pytest -v`; each criterion prints `ACCEPTANCE <n> <name>: PASS|FAIL`
directly to the terminal (bypassing capture) so the gate is auditable from the
test log alone.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from mixednorm import (
    Axis,
    INF,
    KINDS,
    NormSpec,
    Permutation,
    ProductSpace,
    Tensor,
    TrialConfig,
    all_permutations,
    apply_permutation,
    as_exponent,
    build_instance,
    decompose,
    evaluate_instance,
    harmonic_mean,
    instance_to_doc,
    inversion_count,
    lowers,
    maximize_ratio,
    orbit_info,
    raises,
    scaling_probe,
    sorting_permutations,
    sweep,
)


@pytest.fixture
def announce(capfd):
    def _announce(num: int, name: str, status: str) -> None:
        with capfd.disabled():
            print(f"ACCEPTANCE {num} {name}: {status}")

    return _announce


EXP_POOL = tuple(
    as_exponent(x) for x in ("1/2", "1", "4/3", "3/2", "2", "3", "inf")
)


def random_row_spec(rng, n, prefix="a"):
    """A spec over n fresh axes with exponents drawn from a small pool, so
    ties occur regularly."""
    picks = rng.integers(0, len(EXP_POOL), n)
    return NormSpec(
        tuple((EXP_POOL[int(k)], f"{prefix}{i + 1}") for i, k in enumerate(picks))
    )


def random_space(rng, ids, max_size=4):
    return ProductSpace(
        tuple(
            Axis(a, tuple(np.exp(rng.uniform(-2, 2, int(rng.integers(1, max_size + 1))))))
            for a in ids
        )
    )


def random_tensor(rng, space):
    return Tensor(space, np.exp(rng.uniform(-2, 2, space.shape)))


# ---------------------------------------------------------------------------
# 1. derived exponents are produced exactly

def test_criterion_1_derived_exponents(announce):
    status = "FAIL"
    try:
        t0 = time.monotonic()

        assert harmonic_mean([as_exponent(2), as_exponent(1)]) == Fraction(4, 3)
        assert harmonic_mean(
            [as_exponent(2), as_exponent(1), as_exponent(1)]
        ) == Fraction(6, 5)
        info = orbit_info(NormSpec(((2, "x1"), (1, "x2"))))
        assert info.harmonic_mean == Fraction(4, 3) and info.size == 2

        # two-exponent subset family: closed form 2J/(K+J), exact for all J <= 8
        for J in range(2, 9):
            for K in range(1, J):
                doc = instance_to_doc(build_instance("Blei21", {"J": J, "K": K}))
                assert as_exponent(doc["derived"]["pbar"]) == Fraction(2 * J, K + J)

        # (p,q) subset family on a rational grid, and its q = inf limit
        grid_p = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]
        grid_q = [Fraction(2), Fraction(3), Fraction(4), Fraction(6)]
        for J in range(2, 6):
            for K in range(1, J):
                for p in grid_p:
                    for q in grid_q:
                        if not p < q:
                            continue
                        doc = instance_to_doc(
                            build_instance(
                                "BleiQP",
                                {"J": J, "K": K, "p": str(p), "q": str(q)},
                            )
                        )
                        expect = (J * p * q) / (p * J + (q - p) * K)
                        assert as_exponent(doc["derived"]["pbar"]) == expect
                    doc = instance_to_doc(
                        build_instance("BleiQP", {"J": J, "K": K, "p": str(p), "q": "inf"})
                    )
                    assert as_exponent(doc["derived"]["pbar"]) == p * J / K
        # six-factor quadratic instance: exponents and epsilon fall out exactly
        doc = instance_to_doc(build_instance("Quad6"))
        assert doc["derived"]["p"] == ["3", "4", "6", "6", "4", "3"]
        assert doc["derived"]["epsilon"] == "1/2"

        assert time.monotonic() - t0 < 1.0
        status = "PASS"
    finally:
        announce(1, "derived-exponents", status)


# ---------------------------------------------------------------------------
# 2. permutation laws, exhaustively for n <= 4

def test_criterion_2_permutation_laws(announce):
    status = "FAIL"
    try:
        t0 = time.monotonic()
        rng = np.random.default_rng(20260816)
        perms_by_n = {n: list(all_permutations(n)) for n in range(1, 5)}

        for trial in range(200):
            n = int(rng.integers(1, 5))
            spec = random_row_spec(rng, n)
            q = spec.exponents

            # adjacent criterion: tau_j raises exactly when q_j <= q_{j+1}
            for j in range(1, n):
                tau = Permutation.transposition(n, j)
                assert raises(tau, spec) == (q[j - 1] <= q[j])
                assert lowers(tau, spec) == (q[j] <= q[j - 1])

            raising = []
            for sigma in perms_by_n[n]:
                moved = apply_permutation(spec, sigma, "both")
                # duality: sigma raises P iff sigma^-1 lowers P·sigma
                assert raises(sigma, spec) == lowers(sigma.inverse(), moved)
                if raises(sigma, spec):
                    raising.append((sigma, moved))
                    trace = decompose(sigma, spec, "raise")
                    assert trace.recompose().images == sigma.images
                    assert len(trace.steps) == inversion_count(sigma)
                    assert trace.final_spec == moved
                    prev = spec
                    for step in trace.steps:
                        r = prev.exponents
                        assert r[step.position - 1] <= r[step.position]
                        prev = step.state
                if lowers(sigma, spec):
                    trace = decompose(sigma, spec, "lower")
                    assert trace.recompose().images == sigma.images
                    assert len(trace.steps) == inversion_count(sigma)
                    assert trace.final_spec == moved
                    prev = spec
                    for step in trace.steps:
                        r = prev.exponents
                        assert r[step.position] <= r[step.position - 1]
                        prev = step.state

            # closure: raising steps chain into raising compositions
            for sigma, moved in raising:
                for rho in perms_by_n[n]:
                    if raises(rho, moved):
                        assert raises(sigma.compose(rho), spec)

        assert time.monotonic() - t0 < 30.0
        status = "PASS"
    finally:
        announce(2, "permutation-laws", status)


# ---------------------------------------------------------------------------
# 3. randomized soundness sweep: every kind, 500 trials, zero failures

def test_criterion_3_soundness_sweep(announce):
    status = "FAIL"
    try:
        t0 = time.monotonic()
        cfg = TrialConfig(seed=20260816, trials=500)
        # the default envelope is the one the gate requires
        doc = cfg.to_doc()
        assert doc["axis_size_range"] == [1, 5] and doc["max_axes"] == 5
        assert doc["weight_range"] == [1e-3, 1e3]
        assert doc["value_range"] == [1e-2, 1e2]
        assert cfg.tolerance == 1e-8

        report = sweep(cfg)
        assert report["pass"] is True
        assert set(report["kinds"]) == set(KINDS)
        for kind in KINDS:
            block = report["kinds"][kind]
            assert block["trials"] == 500
            assert block["failures"] == []
            assert block["max_ratio"] <= 1 + cfg.tolerance

        assert time.monotonic() - t0 < 300.0
        status = "PASS"
    finally:
        announce(3, "soundness-sweep", status)


# ---------------------------------------------------------------------------
# 4. equality cases are reproduced to 1e-10

def test_criterion_4_equality_cases(announce):
    status = "FAIL"
    try:
        rng = np.random.default_rng(4)

        # geometric-mean comparison degenerates to equality when all
        # exponents agree
        for p in ("1", "3/2", "2"):
            inst = build_instance(
                "SymmetricGM1",
                {"spec": NormSpec(((p, "x1"), (p, "x2"), (p, "x3"))).to_doc()},
            )
            for _ in range(25):
                space = random_space(rng, ("x1", "x2", "x3"))
                rep = evaluate_instance(inst, [random_tensor(rng, space)])
                assert abs(rep.lhs - rep.rhs) <= 1e-10 * rep.rhs

        # product-form bound is tight on a common product-box indicator
        inst = build_instance(
            "HolderMixed",
            {
                "specs": [
                    NormSpec(((2, "x1"), (4, "x2"))).to_doc(),
                    NormSpec(((2, "x1"), ("4/3", "x2"))).to_doc(),
                ]
            },
        )
        space = ProductSpace((Axis("x1", (0.3, 2.0, 1.0)), Axis("x2", (1.5, 0.7))))
        mask = np.zeros(space.shape)
        mask[np.ix_([0, 2], [1])] = 1.0
        box = Tensor(space, mask)
        rep = evaluate_instance(inst, [box, box])
        assert abs(rep.lhs - rep.rhs) <= 1e-10 * rep.rhs

        status = "PASS"
    finally:
        announce(4, "equality-cases", status)


# ---------------------------------------------------------------------------
# 5. scaling family follows the analytic power law

def test_criterion_5_scaling_power_law(announce):
    status = "FAIL"
    try:
        spec = NormSpec(((2, "x1"), (1, "x2")))
        grid = [float(2**k) for k in range(11)]
        for p in (1, 2):
            probe = scaling_probe(spec, p, grid)
            assert probe.max_rel_err <= 1e-9
            for t, emp, ana in zip(probe.ts, probe.empirical, probe.analytic):
                expect = t ** (2 * (1 / p - 3 / 4))
                assert ana == pytest.approx(expect, rel=1e-12)
                assert abs(emp - expect) <= 1e-9 * expect
        status = "PASS"
    finally:
        announce(5, "scaling-power-law", status)


# ---------------------------------------------------------------------------
# 6. the ratio search exposes a seeded violation of a perturbed instance

def test_criterion_6_violation_search(announce):
    status = "FAIL"
    try:
        inst = build_instance(
            "SymmetricGM1",
            {
                "spec": NormSpec(((2, "x1"), (1, "x2"))).to_doc(),
                "lhs_exponent": "8/5",
            },
        )
        space = ProductSpace(
            (Axis("x1", (1e-6, 1.0, 1e6)), Axis("x2", (1e-6, 1.0, 1e6)))
        )
        runs = [
            maximize_ratio(inst, space, seed=5, max_evals=10_000) for _ in range(2)
        ]
        first, second = runs
        assert first.best_ratio > 1
        assert first.evaluations <= 10_000
        # deterministic: both runs identical, witness reproduces the ratio
        assert first.best_ratio == second.best_ratio
        assert first.evaluations == second.evaluations
        assert all(
            np.array_equal(a.values, b.values)
            for a, b in zip(first.witnesses, second.witnesses)
        )
        rep = evaluate_instance(inst, list(first.witnesses))
        assert rep.ratio == pytest.approx(first.best_ratio, rel=1e-12)
        status = "PASS"
    finally:
        announce(6, "violation-search", status)


# ---------------------------------------------------------------------------
# 7. sorting permutations decompose into valid adjacent chains

def test_criterion_7_sorting_decompositions(announce):
    status = "FAIL"
    try:
        rng = np.random.default_rng(7)
        for trial in range(1000):
            n = int(rng.integers(1, 8))
            spec = random_row_spec(rng, n)
            up, down = sorting_permutations(spec)
            for perm, direction in ((up, "raise"), (down, "lower")):
                trace = decompose(perm, spec, direction)
                assert trace.recompose().images == perm.images
                prev = spec
                for step in trace.steps:
                    r = prev.exponents
                    if direction == "raise":
                        assert r[step.position - 1] <= r[step.position]
                    else:
                        assert r[step.position] <= r[step.position - 1]
                    prev = step.state
                final = trace.final_spec
                assert final == apply_permutation(spec, perm, "both")
                ordered = list(final.exponents)
                if direction == "raise":
                    assert all(b <= a for a, b in zip(ordered, ordered[1:]))
                else:
                    assert all(a <= b for a, b in zip(ordered, ordered[1:]))
        status = "PASS"
    finally:
        announce(7, "sorting-decompositions", status)


# ---------------------------------------------------------------------------
# 8. the sweep command is byte-identical across thread counts

def test_criterion_8_sweep_determinism(announce):
    status = "FAIL"
    try:
        outputs = []
        for threads in ("1", "1", "8"):
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "mixednorm",
                    "sweep",
                    "--seed",
                    "99",
                    "--trials",
                    "30",
                    "--threads",
                    threads,
                ],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        report = json.loads(outputs[0])
        assert report["pass"] is True
        status = "PASS"
    finally:
        announce(8, "sweep-determinism", status)
