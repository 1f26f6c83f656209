"""Spaces, tensors, and mixed-norm evaluation against hand-computed values."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mixednorm import (
    Axis,
    INF,
    NormSpec,
    ProductSpace,
    Tensor,
    ValidationError,
    eval_mixed_norm,
    integrate_product,
    mixed_norm_log,
)
from mixednorm import spaces
from mixednorm.spaces import mixed_norm_logs


def unit_space(*sizes):
    return ProductSpace(
        tuple(Axis(f"x{i + 1}", (1.0,) * s) for i, s in enumerate(sizes))
    )


def log_values(t: Tensor) -> np.ndarray:
    """The log of a tensor's values, with zeros as -inf."""
    with np.errstate(divide="ignore"):
        return np.log(t.values)


# ---------------------------------------------------------------------------
# construction and validation

def test_axis_rejects_bad_weights():
    with pytest.raises(ValidationError):
        Axis("a", ())
    with pytest.raises(ValidationError, match="atom 1"):
        Axis("a", (1.0, 0.0))
    with pytest.raises(ValidationError, match="atom 0"):
        Axis("a", (-2.0, 1.0))
    with pytest.raises(ValidationError):
        Axis("a", (math.inf,))
    with pytest.raises(ValidationError):
        Axis("", (1.0,))
    # a text or bytes object is not a list of numbers, and a boolean is not a number
    for weights in ("ab", b"ab", (np.bool_(True), 2.0), (True, 2.0), ("1", 2.0), (1 + 0j, 2.0)):
        with pytest.raises(ValidationError, match="must be numbers"):
            Axis("x", weights)
    assert Axis("x", (np.float64(0.5), np.int64(2), Fraction(1, 4), 3)).weights == (0.5, 2.0, 0.25, 3.0)


def test_product_space_rejects_duplicate_ids():
    a = Axis("x", (1.0,))
    with pytest.raises(ValidationError, match="duplicate"):
        ProductSpace((a, Axis("x", (2.0,))))
    with pytest.raises(ValidationError):
        ProductSpace(())


def test_tensor_validation_names_flat_index():
    space = unit_space(2, 2)
    with pytest.raises(ValidationError, match="shape"):
        Tensor(space, [[1.0, 2.0]])
    with pytest.raises(ValidationError, match="flat index 3"):
        Tensor(space, [[1.0, 2.0], [3.0, -4.0]])
    with pytest.raises(ValidationError, match="flat index 1"):
        Tensor(space, [[1.0, math.nan], [3.0, 4.0]])
    # values numpy cannot convert, complex ones (whose imaginary part a cast
    # would drop with a ComplexWarning), and text and booleans (which a cast
    # would parse or turn into 1 and 0) are a ValidationError too
    not_real = [([1 + 2j, 3, 4, 5], "complex"), (np.array([1 + 2j, 3, 4, 5]), "complex"),
                ([[1, 2], [3]], "not real numbers"), ("ab", "not real numbers"), ([{}, 1, 2, 3], "not real numbers"),
                (["1.5", "2", "3", "4"], "not real numbers"), (np.array(["1.5", "2", "3", "4"]), "not real numbers"),
                ([b"1", b"2", b"3", b"4"], "not real numbers"), (np.array(["1.5", 2, 3, 4], dtype=object), "not real"),
                ([True, 2.0, 3.0, 4.0], "not real numbers"), (np.array([True, False, True, True]), "not real numbers")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values, message in not_real:
            with pytest.raises(ValidationError, match=message):
                Tensor(space, values)
            with pytest.raises(ValidationError, match=message):
                Tensor.from_flat(space, values)


def test_tensor_values_are_read_only():
    t = Tensor(unit_space(2), [1.0, 2.0])
    with pytest.raises(ValueError):
        t.values[0] = 5.0


def test_tensor_from_flat_and_constant():
    space = unit_space(2, 3)
    t = Tensor.from_flat(space, [1, 2, 3, 4, 5, 6])
    assert t.values[1, 2] == 6.0
    assert np.all(Tensor.constant(space, 2.5).values == 2.5)
    with pytest.raises(ValidationError):
        Tensor.from_flat(space, [1, 2, 3])


def test_norm_spec_validation():
    s = NormSpec((("2", "a"), ("inf", "b")))
    assert s.exponents == (Fraction(2), INF)
    assert s.axis_ids == ("a", "b")
    assert s.exponent_for("b") is INF
    with pytest.raises(ValidationError, match="repeats"):
        NormSpec((("2", "a"), ("1", "a")))
    with pytest.raises(ValidationError):
        NormSpec(())
    with pytest.raises(ValidationError):
        NormSpec((("0", "a"),))


def test_norm_spec_is_nonincreasing():
    assert NormSpec((("inf", "a"), ("2", "b"), ("2", "c"), ("1", "d"))).is_nonincreasing()
    assert not NormSpec((("1", "a"), ("2", "b"))).is_nonincreasing()


# ---------------------------------------------------------------------------
# evaluation, hand-checked

def test_mixed_norm_2x2_iterated_value():
    # inner p=2 along x1 gives sqrt(1+9)=sqrt(10) and sqrt(4+16)=sqrt(20);
    # outer p=1 along x2 sums them.
    space = unit_space(2, 2)
    f = Tensor(space, [[1.0, 2.0], [3.0, 4.0]])
    spec = NormSpec(((2, "x1"), (1, "x2")))
    expected = math.sqrt(10) + math.sqrt(20)
    assert eval_mixed_norm(f, spec) == pytest.approx(expected, rel=1e-12)
    assert eval_mixed_norm(f, spec, method="direct") == pytest.approx(expected, rel=1e-12)
    # the reduction order matters: x2 innermost gives a different value
    swapped = NormSpec(((2, "x2"), (1, "x1")))
    other = math.sqrt(1 + 4) + math.sqrt(9 + 16)
    assert eval_mixed_norm(f, swapped) == pytest.approx(other, rel=1e-12)
    assert other != pytest.approx(expected, rel=1e-6)


def test_single_axis_norms():
    space = ProductSpace((Axis("x1", (2.0, 3.0)),))
    f = Tensor(space, [4.0, 5.0])
    # p=1: weighted sum; p=2: weighted quadratic mean; p=inf: max
    assert eval_mixed_norm(f, NormSpec(((1, "x1"),))) == pytest.approx(4 * 2 + 5 * 3)
    assert eval_mixed_norm(f, NormSpec(((2, "x1"),))) == pytest.approx(
        math.sqrt(16 * 2 + 25 * 3)
    )
    assert eval_mixed_norm(f, NormSpec((("inf", "x1"),))) == pytest.approx(5.0)


def test_infinity_ignores_weights():
    light = ProductSpace((Axis("x1", (1e-6, 1e-6)),))
    f = Tensor(light, [7.0, 3.0])
    assert eval_mixed_norm(f, NormSpec((("inf", "x1"),))) == pytest.approx(7.0)


def test_zero_values_are_legal():
    space = unit_space(2, 2)
    z = Tensor.constant(space, 0.0)
    spec = NormSpec(((2, "x1"), (1, "x2")))
    assert eval_mixed_norm(z, spec) == 0.0
    assert mixed_norm_log(z, spec) == -math.inf
    # a single zero only removes one term
    f = Tensor(space, [[0.0, 2.0], [3.0, 4.0]])
    expected = math.sqrt(9) + math.sqrt(4 + 16)
    assert eval_mixed_norm(f, spec) == pytest.approx(expected, rel=1e-12)


def test_zero_values_with_infinite_exponent():
    space = unit_space(2)
    f = Tensor(space, [0.0, 0.0])
    assert eval_mixed_norm(f, NormSpec((("inf", "x1"),))) == 0.0


def test_norm_is_homogeneous_and_monotone():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        shape = tuple(int(s) for s in rng.integers(1, 4, size=3))
        space = ProductSpace(
            tuple(
                Axis(f"x{i + 1}", tuple(np.exp(rng.uniform(-2, 2, s))))
                for i, s in enumerate(shape)
            )
        )
        f_vals = np.exp(rng.uniform(-2, 2, shape))
        exps = rng.choice(["1/2", "1", "2", "inf"], size=3)
        spec = NormSpec(tuple((e, f"x{i + 1}") for i, e in enumerate(exps)))
        v = eval_mixed_norm(Tensor(space, f_vals), spec)
        # absolute homogeneity
        v3 = eval_mixed_norm(Tensor(space, 3.0 * f_vals), spec)
        assert v3 == pytest.approx(3.0 * v, rel=1e-10)
        # pointwise monotone
        g_vals = f_vals * (1.0 + rng.uniform(0, 1, shape))
        assert eval_mixed_norm(Tensor(space, g_vals), spec) >= v * (1 - 1e-12)


def test_log_and_direct_paths_agree():
    rng = np.random.default_rng(77)
    for _ in range(100):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(s) for s in rng.integers(1, 5, size=ndim))
        space = ProductSpace(
            tuple(
                Axis(f"x{i + 1}", tuple(np.exp(rng.uniform(-1.5, 1.5, s))))
                for i, s in enumerate(shape)
            )
        )
        vals = np.exp(rng.uniform(-2, 2, shape))
        if rng.integers(2):
            vals.reshape(-1)[rng.integers(vals.size)] = 0.0
        order = rng.permutation(ndim)
        exps = rng.choice(["1/3", "1", "3/2", "2", "4", "inf"], size=ndim)
        spec = NormSpec(tuple((exps[i], f"x{order[i] + 1}") for i in range(ndim)))
        f = Tensor(space, vals)
        a = eval_mixed_norm(f, spec, method="log")
        b = eval_mixed_norm(f, spec, method="direct")
        assert a == pytest.approx(b, rel=1e-9, abs=1e-300)


def test_log_path_survives_extreme_scales():
    # 12th powers of values near 1e-280 underflow the direct path; the log
    # path must still give the homogeneity-scaled answer.
    space = unit_space(3)
    tiny = Tensor(space, [1e-280, 2e-280, 3e-280])
    ref = Tensor(space, [1.0, 2.0, 3.0])
    spec = NormSpec(((12, "x1"),))
    v = eval_mixed_norm(tiny, spec)
    assert v == pytest.approx(1e-280 * eval_mixed_norm(ref, spec), rel=1e-9)


def test_weights_scale_like_a_measure():
    # doubling every weight multiplies an L^p norm by 2^(1/p) per axis
    base = ProductSpace((Axis("x1", (1.0, 2.0)),))
    double = ProductSpace((Axis("x1", (2.0, 4.0)),))
    f1 = Tensor(base, [3.0, 4.0])
    f2 = Tensor(double, [3.0, 4.0])
    for p, factor in ((1, 2.0), (2, math.sqrt(2)), (4, 2 ** 0.25)):
        spec = NormSpec(((p, "x1"),))
        assert eval_mixed_norm(f2, spec) == pytest.approx(
            factor * eval_mixed_norm(f1, spec), rel=1e-12
        )


def test_spec_must_cover_exactly_the_space_axes():
    space = unit_space(2, 2)
    f = Tensor.constant(space, 1.0)
    with pytest.raises(ValidationError, match="axes"):
        eval_mixed_norm(f, NormSpec(((2, "x1"),)))
    with pytest.raises(ValidationError, match="axes"):
        eval_mixed_norm(f, NormSpec(((2, "x1"), (1, "nope"))))


def test_integrate_product_oracle():
    space = unit_space(2)
    f = Tensor(space, [1.0, 2.0])
    g = Tensor(space, [3.0, 5.0])
    assert integrate_product([f, g]) == pytest.approx(13.0, rel=1e-12)
    assert integrate_product([f, g], method="direct") == pytest.approx(13.0, rel=1e-12)
    # weights multiply the integrand
    wspace = ProductSpace((Axis("x1", (2.0, 0.5)),))
    fw = Tensor(wspace, [1.0, 2.0])
    gw = Tensor(wspace, [3.0, 5.0])
    assert integrate_product([fw, gw]) == pytest.approx(1 * 3 * 2 + 2 * 5 * 0.5, rel=1e-12)


def test_integrate_product_requires_shared_space():
    f = Tensor(unit_space(2), [1.0, 2.0])
    g = Tensor(unit_space(3), [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        integrate_product([f, g])


def _old_direct(f: Tensor, spec: NormSpec) -> float:
    """The direct path as first written, with two full-size temporaries."""
    remaining = list(f.space.ids)
    arr = f.values
    for p, aid in spec.columns:
        ax = remaining.index(aid)
        if p is INF:
            arr = np.max(arr, axis=ax)
        else:
            pf = float(p)
            shape = [1] * arr.ndim
            shape[ax] = -1
            w = np.asarray(f.space.axis(aid).weights, dtype=float).reshape(shape)
            arr = np.sum(np.power(arr, pf) * w, axis=ax) ** (1.0 / pf)
        remaining.pop(ax)
    return float(arr)


def _old_direct_integral(tensors) -> float:
    acc = tensors[0].values.copy()
    for t in tensors[1:]:
        acc = acc * t.values
    for i, axis in enumerate(tensors[0].space.axes):
        shape = [1] * acc.ndim
        shape[i] = -1
        acc = acc * np.asarray(axis.weights).reshape(shape)
    return float(acc.sum())


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_direct_path_holds_one_temporary_and_keeps_its_bits():
    rng = np.random.default_rng(31)
    shape = (60, 50, 40)
    space = ProductSpace(
        tuple(Axis(f"x{i + 1}", tuple(rng.uniform(0.5, 2, n))) for i, n in enumerate(shape))
    )
    f, g = (Tensor(space, np.exp(rng.uniform(-2, 2, shape))) for _ in range(2))
    spec = NormSpec((("3/2", "x2"), ("inf", "x3"), (3, "x1")))
    norm, peak = _traced_peak(eval_mixed_norm, f, spec, "direct")
    assert norm == _old_direct(f, spec)
    assert peak <= 1.25 * f.values.nbytes
    integral, peak = _traced_peak(integrate_product, [f, g, f], "direct")
    assert integral == _old_direct_integral([f, g, f])
    assert peak <= 1.25 * f.values.nbytes


def _reference_log_integral(tensors) -> float:
    """The log of the product integral from one full-size log per input,
    summed in slot order, then reduced axis by axis, the first axis
    innermost, each by one shifted p = 1 log-sum-exp: the L^1 norm of the
    product, which by Fubini is its integral."""
    acc = log_values(tensors[0])
    for t in tensors[1:]:
        acc = acc + log_values(t)
    for axis in tensors[0].space.axes:
        a = acc + np.log(np.asarray(axis.weights)).reshape((-1,) + (1,) * (acc.ndim - 1))
        top = np.max(a, axis=0)
        shift = np.where(np.isfinite(top), top, 0.0)
        with np.errstate(divide="ignore"):
            acc = np.log(np.sum(np.exp(a - shift), axis=0)) + shift
    return float(acc)


def test_log_path_streams_raw_values_and_keeps_its_bits(workers):
    # Above the batch budget a norm needs only blocks of the input's log and
    # reduced arrays, and a product integral adds the one full-size slot sum
    # whose L^1 norm it is, at the default worker count and on two threads.
    rng = np.random.default_rng(48)
    shape = (48, 48, 48, 48)
    space = ProductSpace(
        tuple(Axis(f"x{i + 1}", tuple(rng.uniform(0.5, 2, n))) for i, n in enumerate(shape))
    )
    f, g = (Tensor(space, np.exp(rng.uniform(-1, 1, shape))) for _ in range(2))
    spec = NormSpec((("3/2", "x2"), ("inf", "x3"), (3, "x1"), (1, "x4")))
    want_norm, want_integral = _reference_log_norm(f, spec), _reference_log_integral([f, g, f])
    for n in (None, 2):
        with workers(n):
            log_norm, peak = _traced_peak(mixed_norm_log, f, spec)
            assert log_norm == want_norm
            assert peak <= 0.25 * f.values.nbytes
            norm, peak = _traced_peak(eval_mixed_norm, f, spec)
            assert norm == math.exp(log_norm)
            assert peak <= 0.25 * f.values.nbytes
            integral, peak = _traced_peak(integrate_product, [f, g, f])
        assert integral == math.exp(want_integral)
        assert peak <= 1.25 * f.values.nbytes


@pytest.mark.parametrize("shape", [(6, 5, 4), (50, 40, 40)], ids=["stacked", "streamed"])
def test_one_slot_and_one_repeated_slot_integrate_as_the_reference(shape):
    # [f] is the L^1 norm of f's own row, [f, f] that of the slot-sum row
    # f's log is folded into twice.  The larger f is above the batch budget.
    # Weights of total mass about 1 keep log I near 0, where its last bits
    # tell one order of summation from another.
    rng = np.random.default_rng(14)
    for _ in range(4):
        space = ProductSpace(
            tuple(Axis(f"x{i + 1}", tuple(rng.uniform(0.5, 2, n) / n)) for i, n in enumerate(shape))
        )
        f = Tensor(space, rng.uniform(0.5, 1.5, shape) * (rng.random(shape) >= 0.2))
        assert (f.values.nbytes > spaces._BATCH_BYTES) == (shape[0] > 6)
        for tensors in ([f], [f, f]):
            integral = integrate_product(tensors)
            assert integral == math.exp(_reference_log_integral(tensors))
            assert integral == pytest.approx(integrate_product(tensors, method="direct"), rel=1e-12)


def test_streamed_loops_below_the_pool_size_stay_on_the_calling_thread(monkeypatch, executors):
    # a 32^4 input (8 MiB) streams in blocks, but no loop reads _POOL_BYTES
    monkeypatch.setattr(spaces, "_WORKERS", 2)
    rng = np.random.default_rng(32)
    space = ProductSpace(tuple(Axis(f"x{i + 1}", tuple(rng.uniform(0.5, 2, 32))) for i in range(4)))
    f, g = (Tensor(space, rng.uniform(0.5, 2, space.shape)) for _ in range(2))
    assert spaces._BATCH_BYTES < f.values.nbytes < spaces._POOL_BYTES
    mixed_norm_log(f, NormSpec((("3/2", "x2"), ("inf", "x3"), (3, "x1"), (1, "x4"))))
    integrate_product([f, g, f])
    assert executors == []


# ---------------------------------------------------------------------------
# the shared reduction kernel

def _reference_log_norm(f: Tensor, spec: NormSpec) -> float:
    """One spec at a time, one fresh array per operation: the loop the shared
    kernel replaced, kept as the reference it must match bit for bit."""
    with np.errstate(divide="ignore"):
        arr = np.log(f.values)
    remaining = list(f.space.ids)
    for p, aid in spec.columns:
        ax = remaining.index(aid)
        if p is INF:
            arr = np.max(arr, axis=ax)
        else:
            pf = float(p)
            shape = [1] * arr.ndim
            shape[ax] = -1
            a = pf * arr + np.log(np.asarray(f.space.axis(aid).weights)).reshape(shape)
            amax = np.max(a, axis=ax, keepdims=True)
            shift = np.where(np.isfinite(amax), amax, 0.0)
            with np.errstate(divide="ignore"):
                total = np.log(np.sum(np.exp(a - shift), axis=ax))
            arr = (total + np.squeeze(shift, axis=ax)) / pf
        remaining.pop(ax)
    return float(arr)


def _random_case(rng, ndim):
    shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
    space = ProductSpace(
        tuple(
            Axis(f"x{i + 1}", tuple(np.exp(rng.uniform(-3, 3, size))))
            for i, size in enumerate(shape)
        )
    )
    vals = np.exp(rng.uniform(-4, 4, shape))
    vals[rng.random(shape) < 0.3] = 0.0
    if rng.integers(2):
        vals = np.asfortranarray(vals)
    return space, Tensor(space, vals)


def test_shared_pass_is_bit_identical_to_the_one_spec_loop():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        ndim = int(rng.integers(1, 5))
        space, f = _random_case(rng, ndim)
        # a small exponent pool makes specs share column prefixes
        specs = []
        for _ in range(8):
            order = rng.permutation(ndim)
            exps = rng.choice(["1/2", "2", "inf"], size=ndim)
            specs.append(NormSpec(tuple((exps[i], f"x{order[i] + 1}") for i in range(ndim))))
        logv = log_values(f)
        before = logv.copy()
        got = mixed_norm_logs(logv, space, specs)
        assert got == [_reference_log_norm(f, s) for s in specs]
        assert got == [mixed_norm_log(f, s) for s in specs]
        assert np.array_equal(logv, before)  # the kernel never writes its input


def test_streamed_pass_is_bit_identical_to_the_one_spec_loop(monkeypatch):
    # with a 64-byte budget every array above 8 cells is reduced in blocks
    monkeypatch.setattr(spaces, "_BATCH_BYTES", 64)
    rng = np.random.default_rng(2025)
    for _ in range(60):
        ndim = int(rng.integers(1, 5))
        space, f = _random_case(rng, ndim)
        specs = []
        for _ in range(8):
            order = rng.permutation(ndim)
            exps = rng.choice(["1/2", "2", "inf"], size=ndim)
            specs.append(NormSpec(tuple((exps[i], f"x{order[i] + 1}") for i in range(ndim))))
        logv = log_values(f)
        before = logv.copy()
        want = [_reference_log_norm(f, s) for s in specs]
        assert mixed_norm_logs(logv, space, specs) == want
        assert np.array_equal(logv, before)
        assert [mixed_norm_log(f, s) for s in specs] == want
        g = Tensor(space, np.exp(rng.uniform(-4, 4, space.shape)))
        assert integrate_product([f, g, f]) == math.exp(_reference_log_integral([f, g, f]))


def test_streamed_leaf_with_more_outputs_than_the_budget_keeps_its_bits(monkeypatch):
    # 20 exponents on x1 reduce to 20 rows, too many to stack in 256 bytes,
    # and each row's two exponents on x2 to 40 scalars: a leaf of 40 outputs
    monkeypatch.setattr(spaces, "_BATCH_BYTES", 256)
    streamed = []
    stream = spaces._stream_plan
    monkeypatch.setattr(spaces, "_stream_plan", lambda plan, *args: streamed.append(plan) or stream(plan, *args))
    rng = np.random.default_rng(40)
    space = ProductSpace((Axis("x1", tuple(rng.uniform(0.5, 2, 3))), Axis("x2", tuple(rng.uniform(0.5, 2, 2)))))
    f = Tensor(space, np.exp(rng.uniform(-4, 4, space.shape)))
    specs = [NormSpec(((Fraction(k, 3), "x1"), (q, "x2"))) for k in range(1, 21) for q in (2, 3)]
    assert mixed_norm_logs(log_values(f), space, specs) == [_reference_log_norm(f, s) for s in specs]
    assert streamed


def test_kernel_agrees_with_scipy_logsumexp():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(77)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        w = np.exp(rng.uniform(-5, 5, n))
        vals = np.exp(rng.uniform(-20, 20, n))
        vals[rng.random(n) < 0.3] = 0.0
        vals[0] = 1.5  # keep one atom nonzero
        p = float(rng.choice([0.5, 1.0, 3.0, 12.0]))
        space = ProductSpace((Axis("x1", tuple(w)),))
        f = Tensor(space, vals)
        with np.errstate(divide="ignore"):
            logf = np.log(vals)
        want = special.logsumexp(p * logf, b=w) / p
        assert mixed_norm_log(f, NormSpec(((p, "x1"),))) == pytest.approx(want, rel=1e-12)
        g = Tensor(space, np.exp(rng.uniform(-20, 20, n)))
        want_integral = special.logsumexp(logf + np.log(g.values), b=w)
        assert math.log(integrate_product([f, g])) == pytest.approx(want_integral, rel=1e-12)


def test_direct_path_gives_inf_beyond_the_float_range_without_warning():
    space = ProductSpace((Axis("x1", (1e300, 1e300)), Axis("x2", (2.0,))))
    f = Tensor(space, [[1e300], [1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (1, 2, "1/2"):
            assert eval_mixed_norm(f, NormSpec.uniform(p, ("x1", "x2")), method="direct") == math.inf
        assert integrate_product([f, f], method="direct") == math.inf


def test_log_path_gives_inf_beyond_the_float_range():
    # the norm is 2e600: its log is fine, exp of it is not a float
    space = ProductSpace((Axis("x1", (1e300, 1e300)),))
    f = Tensor(space, [1e300, 1e300])
    spec = NormSpec.uniform(1, ("x1",))
    assert mixed_norm_log(f, spec) == pytest.approx(math.log(2) + 600 * math.log(10))
    assert eval_mixed_norm(f, spec) == math.inf
    assert integrate_product([f]) == math.inf
