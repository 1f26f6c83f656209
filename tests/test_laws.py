"""Property tests for the laws of mixed norms that the paper relies on."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixednorm import (
    KINDS,
    Axis,
    NormSpec,
    ProductSpace,
    Tensor,
    build_instance,
    eval_mixed_norm,
    instance_from_doc,
    instance_to_doc,
)
from mixednorm.perms import all_permutations, apply_permutation, raises
from mixednorm.search import random_params

LAWS = settings(max_examples=100, deadline=None, derandomize=True)
EXPONENTS = ("1/3", "1/2", "1", "4/3", "2", "3", "inf")


@st.composite
def _cases(draw):
    """A space of 1-4 axes of 1-4 atoms, a tensor on it with some zero cells,
    and a spec over its axes in a drawn column order."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n = len(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = ProductSpace(
        tuple(
            Axis(f"x{i + 1}", tuple(np.exp(rng.uniform(-2, 2, s))))
            for i, s in enumerate(sizes)
        )
    )
    values = np.exp(rng.uniform(-3, 3, sizes)) * (rng.random(sizes) > 0.2)
    order = draw(st.permutations(range(n)))
    exps = draw(st.lists(st.sampled_from(EXPONENTS), min_size=n, max_size=n))
    spec = NormSpec(tuple((p, f"x{i + 1}") for p, i in zip(exps, order)))
    return Tensor(space, values), spec, rng


@LAWS
@given(case=_cases(), c=st.floats(1e-3, 1e3))
def test_homogeneity(case, c):
    f, spec, _ = case
    scaled = Tensor(f.space, c * f.values)
    assert eval_mixed_norm(scaled, spec) == pytest.approx(
        c * eval_mixed_norm(f, spec), rel=1e-10, abs=1e-300
    )


@LAWS
@given(case=_cases())
def test_monotonicity(case):
    f, spec, rng = case
    shape = f.values.shape
    bump = np.exp(rng.uniform(-3, 3, shape)) * rng.integers(0, 2, shape)
    g = Tensor(f.space, f.values + bump)
    assert eval_mixed_norm(f, spec) <= eval_mixed_norm(g, spec) * (1 + 1e-12)


@LAWS
@given(case=_cases(), pick=st.integers(0, 10**6))
def test_raising_does_not_decrease_the_norm(case, pick):
    f, spec, _ = case
    raising = [p for p in all_permutations(spec.n) if raises(p, spec)]
    perm = raising[pick % len(raising)]
    raised = apply_permutation(spec, perm, "both")
    assert eval_mixed_norm(f, spec) <= eval_mixed_norm(f, raised) * (1 + 1e-12)


@LAWS
@given(case=_cases())
def test_log_and_direct_paths_agree_on_drawn_cases(case):
    f, spec, _ = case
    assert eval_mixed_norm(f, spec, method="log") == pytest.approx(
        eval_mixed_norm(f, spec, method="direct"), rel=1e-9, abs=1e-300
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
def test_instance_document_round_trip_is_the_identity(kind, seed):
    inst = build_instance(kind, random_params(kind, np.random.default_rng(seed)))
    doc = json.loads(json.dumps(instance_to_doc(inst)))
    assert instance_from_doc(doc) == inst
