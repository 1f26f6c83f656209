"""A 50-digit mpmath oracle for the log-domain kernel's product integrals,
mixed norms and geometric-mean norms.

mpmath holds every float input, weight and exponent exactly, so a
cell-by-cell sum, or a nested reduction one column at a time, in 50 digits
gives the log of the result to far below a float's last bit.  The kernel's
value must lie within 1e-14 * max(1, |log N|) of it: well under the verdict
tolerance of 1e-8, and loose enough for any order of summation.  Draws span
weights e^±30 and values e^±40 with about a fifth of the cells zero, on
grids of at most 5^4 cells.  The norms are checked at the default batch
budget and at a 256-byte one, under which most draws stream in blocks and
form the geometric mean's slot sum block by block.  Every kind's right side,
the weighted sum of its factors' log norms, its left side and
SortedSandwich's lower side are checked the same way, through
`evaluate_instance` and `batch_log_sides`, and so is its ratio, through
`evaluate_instance` and `evaluate_batch`.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixednorm import (
    INF,
    KINDS,
    Axis,
    NormSpec,
    ProductSpace,
    Tensor,
    build_instance,
    evaluate_batch,
    evaluate_instance,
    integrate_product,
    mixed_norm_log,
)
from mixednorm import spaces
from mixednorm.catalog import GmLpNorm, MixedNorm
from mixednorm.evaluation import batch_log_sides
from mixednorm.search import random_params

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


def _mp_log_integral(tensors):
    """log ∫ f_1 ... f_m, summed cell by cell in 50 digits."""
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
        return mpmath.log(total)


def _assert_near_log_integral(got: float, tensors) -> None:
    """got is within the error bound of the 50-digit log of the product
    integral; a zero integral must give -inf."""
    with mpmath.workdps(50):
        _assert_near(got, _mp_log_integral(tensors))


def _assert_near(got: float, want, scale=None) -> None:
    """got is within 1e-14 * max(1, scale) of the 50-digit log want, where
    scale defaults to |want|; a zero (want = -inf) must give -inf."""
    if want == -mpmath.inf:
        assert got == -math.inf
    else:
        bound = 1e-14 * max(1, abs(want) if scale is None else scale)
        assert abs(mpmath.mpf(got) - want) <= bound, (got, want)


def _at_both_budgets(run) -> list[float]:
    """run() at the default batch budget and at 256 bytes."""
    got = [run()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_BATCH_BYTES", 256)
        got.append(run())
    return got


def _mp_values(t: Tensor) -> np.ndarray:
    return np.vectorize(mpmath.mpf, otypes=[object])(t.values)


def _mp_norm(arr: np.ndarray, space, columns) -> object:
    """The mixed norm of an array of mpf values under (exponent, axis id)
    columns, innermost first, reduced one column at a time in 50 digits."""
    remaining = list(space.ids)
    for p, aid in columns:
        ax = remaining.index(aid)
        if p is INF:
            arr = np.max(arr, axis=ax)
        else:
            pf = mpmath.mpf(float(p))
            shape = [1] * arr.ndim
            shape[ax] = -1
            w = np.array([mpmath.mpf(float(x)) for x in space.axis(aid).weights], dtype=object).reshape(shape)
            arr = np.sum(arr**pf * w, axis=ax) ** (1 / pf)
        remaining.pop(ax)
    return arr


def _mp_log_lhs(inst, space, tensors, mp_values):
    """The 50-digit log of inst's left side on the slots' tensors, whose mpf
    values are mp_values: a mixed norm of the first slot, the uniform norm
    of the slots' geometric mean, or the product integral."""
    if isinstance(inst.lhs, MixedNorm):
        return mpmath.log(_mp_norm(mp_values[0], space, inst.lhs.spec.columns))
    if isinstance(inst.lhs, GmLpNorm):
        product = mp_values[0]
        for v in mp_values[1:]:
            product = product * v
        mean = np.vectorize(lambda v: mpmath.root(v, inst.arity), otypes=[object])(product)
        return mpmath.log(_mp_norm(mean, space, NormSpec.uniform(inst.lhs.exponent, space.ids).columns))
    return _mp_log_integral(tensors)


_NORM_POOL = ("1/3", "1/2", "2/3", "1", "3/2", "2", "3", "4", "12", "inf")


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), ndim=st.integers(1, 4))
def test_mixed_norm_matches_a_50_digit_nested_reduction(seed, ndim):
    rng = np.random.default_rng(seed)
    ids = [f"x{i + 1}" for i in range(ndim)]
    space = _space(rng, ids)
    f = _tensor(rng, space)
    spec = NormSpec(tuple((_NORM_POOL[int(rng.integers(len(_NORM_POOL)))], a) for a in rng.permutation(ids)))
    with mpmath.workdps(50):
        want = mpmath.log(_mp_norm(_mp_values(f), space, spec.columns))
        for got in _at_both_budgets(lambda: mixed_norm_log(f, spec)):
            _assert_near(got, want)


@ORACLE
@given(seed=st.integers(0, 2**32 - 1))
def test_geometric_mean_left_side_matches_a_50_digit_sum(seed):
    # SymmetricGM's left side, the L^pbar norm of the slots' geometric mean:
    # the kernel's mean of the slots' logs, as one uniform norm request
    rng = np.random.default_rng(seed)
    inst = build_instance("SymmetricGM", random_params("SymmetricGM", rng, max_axes=4))
    assume(inst.arity > 1)
    space = _space(rng, inst.axis_ids)
    distinct = [_tensor(rng, space) for _ in range(int(rng.integers(1, inst.arity + 1)))]
    slots = [int(rng.integers(len(distinct))) for _ in range(inst.arity)]  # one tensor may fill several
    tensors = [distinct[s] for s in slots]
    with mpmath.workdps(50):
        values = [_mp_values(t) for t in distinct]
        want = _mp_log_lhs(inst, space, tensors, [values[s] for s in slots])
        for got in _at_both_budgets(lambda: evaluate_instance(inst, tensors).trial["log_lhs"]):
            _assert_near(got, want)


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


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_right_and_lower_sides_match_50_digit_nested_reductions(kind, seed):
    # the right side is sum_i w_i log N_i over the factors' norms, each
    # reduced in 50 digits; its error bound scales with sum_i |w_i log N_i|.
    # The left side (SortedSandwich's middle) is the 50-digit norm, mean's
    # norm or cell sum, and a ratio's bound adds the bounds of its two sides.
    rng = np.random.default_rng(seed)
    inst = build_instance(kind, random_params(kind, rng, max_axes=4))
    space = _space(rng, inst.axis_ids)
    tensors = [_tensor(rng, space) for _ in range(inst.arity)]
    values = np.stack([t.values for t in tensors])[None]
    with mpmath.workdps(50):
        mp_values = [_mp_values(t) for t in tensors]
        terms = [
            mpmath.mpf(f.weight.numerator) / f.weight.denominator
            * mpmath.log(_mp_norm(mp_values[f.input_index], space, f.spec.columns))
            for f in inst.rhs
        ]
        want = {"lhs": _mp_log_lhs(inst, space, tensors, mp_values), "rhs": mpmath.fsum(terms)}
        if inst.lower is not None:
            want["lower"] = mpmath.log(_mp_norm(mp_values[0], space, inst.lower.columns))
        scale = {"lhs": abs(want["lhs"]), "rhs": mpmath.fsum(abs(t) for t in terms), "lower": abs(want.get("lower", 0))}
        # the ratio is the worse of lhs/rhs and, for a sandwich, lower/lhs
        pairs = [("lhs", "rhs")] + [("lower", "lhs")] * (inst.lower is not None)
        exact = max(mpmath.mpf(0) if want[a] == -mpmath.inf else mpmath.exp(want[a] - want[b]) for a, b in pairs)
        ratio_bound = max(1e-14 * (max(1, scale[a]) + max(1, scale[b])) for a, b in pairs)

        def sides():
            rep = evaluate_instance(inst, tensors)
            (lhs, rhs, lower), = batch_log_sides(inst, space, values)
            ratios = (rep.ratio, evaluate_batch(inst, space, values)[0])
            if inst.lower is None:
                return ratios, [{"lhs": rep.trial["log_lhs"], "rhs": rep.trial["log_rhs"]}, {"lhs": lhs, "rhs": rhs}]
            trial = {"lhs": rep.trial["log_middle"], "rhs": rep.trial["log_upper"], "lower": rep.trial["log_lower"]}
            return ratios, [trial, {"lhs": lhs, "rhs": rhs, "lower": lower}]

        for ratios, got in _at_both_budgets(sides):
            for fields in got:
                assert fields.keys() == want.keys()
                for side, value in fields.items():
                    _assert_near(value, want[side], scale[side])
            if mpmath.mpf("1e-300") < exact < mpmath.mpf("1e300"):
                for ratio in ratios:
                    assert abs(ratio / exact - 1) <= ratio_bound, (ratio, exact)
