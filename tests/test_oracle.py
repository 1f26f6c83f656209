"""A 50-digit mpmath oracle for the log-domain kernel's product integrals.

mpmath holds every float input and weight exactly, so a cell-by-cell sum in
50 digits gives log ∫ f_1 ... f_m to far below a float's last bit.  The
kernel's value must lie within 1e-14 * max(1, |log I|) of it: well under
the verdict tolerance of 1e-8, and loose enough for any order of summation.
Draws span weights e^±30 and values e^±40 with about a fifth of the cells
zero, on grids of at most 5^4 cells.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixednorm import Axis, ProductSpace, Tensor, build_instance, evaluate_instance, integrate_product
from mixednorm.search import random_params

mpmath = pytest.importorskip("mpmath")

ORACLE = settings(max_examples=100, deadline=None, derandomize=True)


def _space(rng, ids, cells=625):
    """A space on ids of at most `cells` cells, with atom weights e^±30."""
    most = int(cells ** (1 / len(ids)) + 1e-9)
    return ProductSpace(
        tuple(Axis(a, tuple(np.exp(rng.uniform(-30, 30, int(rng.integers(1, most + 1)))))) for a in ids)
    )


def _tensor(rng, space):
    """Values e^±40, about a fifth of them zero."""
    shape = space.shape
    return Tensor(space, np.exp(rng.uniform(-40, 40, shape)) * (rng.random(shape) >= 0.2))


def _assert_near_log_integral(got: float, tensors) -> None:
    """got is within the error bound of log ∫ f_1 ... f_m, summed in 50
    digits; a zero integral must give -inf."""
    space = tensors[0].space
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for cell in np.ndindex(space.shape):
            term = mpmath.mpf(1)
            for t in tensors:
                term *= mpmath.mpf(float(t.values[cell]))
            for axis, a in zip(space.axes, cell):
                term *= mpmath.mpf(float(axis.weights[a]))
            total += term
        if total == 0:
            assert got == -math.inf
            return
        want = mpmath.log(total)
        assert abs(mpmath.mpf(got) - want) <= 1e-14 * max(1, abs(want)), (got, want)


@ORACLE
@given(
    seed=st.integers(0, 2**32 - 1),
    ndim=st.integers(1, 4),
    slots=st.lists(st.integers(0, 2), min_size=1, max_size=4),
)
def test_product_integral_matches_a_50_digit_sum(seed, ndim, slots):
    # slots names each slot's tensor, so one tensor may fill several slots
    rng = np.random.default_rng(seed)
    space = _space(rng, [f"x{i + 1}" for i in range(ndim)])
    distinct = [_tensor(rng, space) for _ in range(max(slots) + 1)]
    tensors = [distinct[s] for s in slots]
    integral = integrate_product(tensors)
    _assert_near_log_integral(math.log(integral) if integral else -math.inf, tensors)


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), broadcast=st.booleans())
def test_holder_mixed_left_side_matches_a_50_digit_sum(seed, broadcast):
    rng = np.random.default_rng(seed)
    inst = build_instance("HolderMixed", random_params("HolderMixed", rng, max_axes=4))
    space = _space(rng, inst.axis_ids)
    tensors = [_tensor(rng, space) for _ in range(1 if broadcast else inst.arity)]
    rep = evaluate_instance(inst, tensors)
    _assert_near_log_integral(rep.trial["log_lhs"], tensors * inst.arity if broadcast else tensors)
