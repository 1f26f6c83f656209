"""Nonnegative tensors on finite product spaces, and their mixed norms.

A mixed norm reduces a tensor one axis at a time in the column order of its
spec: the first column is the innermost reduction.  A finite exponent p
collapses an axis by the weighted p-power sum (sum_a f(a)^p * w_a)^(1/p); an
infinite exponent takes the maximum over the axis (all atom weights are
positive, so the maximum is the essential supremum).  Zero values are legal
everywhere, with 0^p = 0.

Two evaluation paths are provided and must agree: direct power sums, and a
log-domain path that masks zeros as -inf and uses shifted log-sum-exp so
large exponents (12th powers and the like) cannot overflow.  The log path
is the default and the oracle the catalog's verdicts rest on.

Every log-domain result comes from one `Pass`: the norm requests of one set
of a few distinct inputs, and of its slot sum (its logs added slot by slot;
by Fubini a product integral is the sum's L^1 norm, and a geometric mean's
L^p norm is the L^p norm of the sum over the slot count), compiled by a
trie walk over the specs' columns so each distinct (input, column prefix)
is reduced once.  A caller names the slot sum and lists the slots; the
pass forms the sum only for two or more slots, and reads a lone slot's
input for it otherwise.  Each `run` takes K sets of raw values and the
space, logs the values and the space's weights itself, runs that one plan
on the sets, and chooses how.  Where one set fits `_BATCH_BYTES`, all K
stack into one C-ordered array with a row per input (and one for the slot
sum) first and the sets last, so that each operation's inner loop runs
over K times the cells after the axis it reduces, and each plan node
collapses one axis for every set and (row, exponent) pair reducing it at
that depth, by one in-place shifted log-sum-exp (a maximum for an infinite
exponent), in the stack itself for the root's spare rows.  With one set
the stack is a lone array's layout.  A set too large to stack alone
streams: each pair is reduced from the raw inputs by one block loop, which
sees the inputs as (lead, rest) matrices and takes blocks of at most
`_BATCH_BYTES` as ranges of their columns (columns of an (n0, rest)
matrix, or whole rows of an (outer, rest) one seen as a single row), each
block logged once for every pair that shares it, and the block's slot sum
formed from those logs, until a node's outputs fit the budget, or are
scalars, and stack again.  No array the size of an input is made.  A block
is the unit of work of `_map`, which runs a large loop on threads of its
own, one per CPU up to 8, and joins them before it returns; no result
depends on the count.
`mixed_norm_log`, `integrate_product`, `evaluation.evaluate_instance` and
`search.scaling_probe` all run a `Pass` on one set of raw values;
`evaluation.evaluate_batch` runs the same pass on K sets, one per candidate
of a search population.
`Tensor` stores its values in C order, so a stacked row or a block sums
each cell in the same order as a lone array (where sets follow an axis
that numpy would sum pairwise in a lone array, the sum runs on a copy with
that axis last), and each entry point returns bit for bit what a one-spec
loop over whole arrays returns.
The direct path shares none of this code, so it stays an independent check.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .exponents import INF, to_float
from .specs import NormSpec, ProductSpace


@dataclass(frozen=True, eq=False)
class Tensor:
    """Nonnegative finite function values on a product space, row-major."""

    space: ProductSpace
    values: np.ndarray

    def __post_init__(self):
        arr = as_float_array(self.values, copy=True)
        check_values(arr, self.space.shape)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def constant(cls, space: ProductSpace, value) -> "Tensor":
        return cls(space, np.full(space.shape, float(value)))

    @classmethod
    def from_flat(cls, space: ProductSpace, flat) -> "Tensor":
        """A tensor from a flat sequence of its values in row-major order."""
        arr = as_float_array(list(flat))
        expected = math.prod(space.shape)
        if arr.shape != (expected,):
            raise ValidationError(f"expected {expected} values in a flat list for shape {space.shape}, got shape {arr.shape}")
        return cls(space, arr.reshape(space.shape))


def as_float_array(values, copy: bool = False) -> np.ndarray:
    """values as a C-ordered float array, a new one when copy is set.  Values
    that numpy cannot convert to floats, text, booleans, complex values and
    integers past the float range are a ValidationError rather than a numpy
    error, a cast or a silently dropped part; a text or boolean value is
    named by its flat index."""
    try:
        arr = np.asarray(values)
        kind = arr.dtype.kind
        bad = 0 if kind in "USb" else None
        if kind == "O" or not isinstance(values, np.ndarray):  # numpy casts a bool among numbers, text among objects
            flat = enumerate(np.asarray(values, dtype=object).flat)
            bad = next((i for i, v in flat if isinstance(v, (str, bytes, bool, np.bool_))), None)
        if bad is None and kind != "c":
            return np.array(arr, dtype=float, order="C") if copy else np.ascontiguousarray(arr, dtype=float)
    except OverflowError:
        raise ValidationError("tensor values are beyond the float range") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"tensor values are not real numbers: {exc}") from None
    if bad is None:
        raise ValidationError("tensor values are complex")
    raise ValidationError(f"tensor values are not real numbers: text or a boolean at flat index {bad}")


def check_values(arr: np.ndarray, shape, lead: int = 0) -> None:
    """Tensor's checks on a float array of value arrays of one shape, with
    `lead` axes before it: the shape, then that every value is finite and
    nonnegative.  An error names the first bad array's flat index."""
    if arr.shape[lead:] != shape:
        raise ValidationError(f"tensor shape {arr.shape[lead:]} does not match space shape {shape}")
    flat = arr.reshape(-1)
    if not np.isfinite(flat).all():
        idx = int(np.flatnonzero(~np.isfinite(flat))[0])
        raise ValidationError(f"tensor value at flat index {idx % math.prod(shape)} is not finite")
    if (flat < 0).any():
        idx = int(np.flatnonzero(flat < 0)[0])
        raise ValidationError(f"tensor value at flat index {idx % math.prod(shape)} is negative ({flat[idx]})")


def exp_or_inf(x: float) -> float:
    """math.exp that returns inf where the result leaves the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _logsumexp_inplace(a: np.ndarray, axis: int, last: bool = False) -> np.ndarray:
    """Shifted log-sum-exp along one axis, keeping it with length 1.

    a is overwritten.  A slice that is all -inf gives -inf; the caller holds
    np.errstate(divide="ignore") for its log(0).  Log arrays never hold NaN
    (values are finite and exponents positive), so a max that is not finite
    is infinite.  Numpy sums an axis that only 1-atom axes follow pairwise
    once it has 8 or more atoms, and any other axis slice by slice.  With
    last set the sum runs on a contiguous copy with the axis moved last: in
    a stack the set axis follows it, where a lone set's array would have
    summed it pairwise.
    """
    shift = np.maximum.reduce(a, axis=axis, keepdims=True)
    np.copyto(shift, 0.0, where=np.isinf(shift))
    a -= shift
    np.exp(a, out=a)
    if last:
        out = np.expand_dims(np.add.reduce(np.moveaxis(a, axis, -1).copy(), axis=-1), axis)
    else:
        out = np.add.reduce(a, axis=axis, keepdims=True)
    np.log(out, out=out)
    out += shift
    return out


# The most bytes of one set's rows in a work array: a set within it stacks
# with its call's other sets, a larger one streams.  Stacking rows saves
# numpy's per-call overhead, which dominates on small arrays; once a
# reduction's input and work array no longer fit in a core's L2 cache
# together, rows reduced one at a time are faster.  Measured on a 2-vCPU
# Xeon (2 MiB L2 per core), SymmetricHolder with 12 distinct inputs on four
# axes ran 0.69x the row-at-a-time time with 0.43 MB batched arrays, 0.81x
# at 0.68 MB, 1.07x at 1.0 MB and 1.25x at 1.5 MB; Quad6 broke even near
# 0.4-0.6 MB.  All of a call's sets stack at once, and the caller bounds
# them (search._WAVE_BYTES): on a 2-vCPU AMD EPYC one Quad6 5^4 call took
# 32.7, 22.0, 16.9, 13.6, 11.7, 15.2 and 18.9 us a set at 8, 16, 32, 64,
# 256, 512 and 2,048 sets (a 72 MB stack) with the sets last, against
# 41.4, 33.1, 29.1, 27.2, 25.6, 28.1 and 33.0 us with them second, so a
# set costs more again above a few hundred.  It is also the block size of
# the streamed path (_stream_plan), so that a block's log and work arrays
# stay cache-sized and the allocator reuses their memory (with blocks of
# one 13 MB slice, a call page-faulted about 1 GB).  On a 96x96x96x178 input
# (1.26 GB) the grid's MinkowskiRaise, SymmetricGM1 and HolderMixed took
# about 2.0, 3.7 and 3.7 s in blocks, against 3.8, 7.0 and 4.5 s on whole
# arrays.  A block is also the unit of work handed to a worker (_map).
_BATCH_BYTES = 1 << 19

_POOL_BYTES = 1 << 25  # a smaller loop runs inline: it gains little on threads, and its time varies more
_WORKERS = min(8, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _map(task, items: list, nbytes: int) -> list:
    """[task(*item) for item in items], on threads of its own (numpy releases the GIL inside a ufunc),
    joined before it returns, for two or more items over nbytes >= _POOL_BYTES."""
    if _WORKERS < 2 or len(items) < 2 or nbytes < _POOL_BYTES:
        return [task(*item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    def quiet(item):  # numpy keeps the kernel's np.errstate per thread
        with np.errstate(divide="ignore", over="ignore"):
            return task(*item)
    with ThreadPoolExecutor(min(_WORKERS, len(items)), thread_name_prefix="mixednorm") as pool:
        return list(pool.map(quiet, items))


def _reduce_column(rows: np.ndarray, pf, ax: int, logw: np.ndarray, spare: bool = False, last: bool = False) -> np.ndarray:
    """Collapse axis ax of a log array, or of a stack of them with rows on
    axis 0 and sets on the last axis.  pf is None for an infinite exponent,
    else a float or the rows' float exponents as a (k, 1, ..., 1) column.
    logw is the axis's log weights shaped to broadcast along ax.  rows is
    written only if spare; last is handed on to _logsumexp_inplace.
    """
    if pf is None:
        return np.maximum.reduce(rows, axis=ax)
    a = np.multiply(rows, pf, out=rows if spare else None)
    a += logw
    out = _logsumexp_inplace(a, ax, last)
    out /= pf
    return out.reshape(a.shape[:ax] + a.shape[ax + 1 :])


class Pass:
    """One log-domain evaluation: the mixed norms of a set of a few inputs,
    and of the set's slot sum, compiled once for a space's axis order and run
    on any number of sets, stacked on the last axis.

    requests holds (row, spec) pairs: row r reads input r, and row None the
    slot sum.  slots lists the input row of each slot, so a set has
    max(slots) + 1 inputs.  The slot sum adds the slots' logs in slot order,
    and mean divides it by the slot count; the pass forms it only when a
    request reads it and there are two or more slots, and otherwise None
    reads the lone slot's input.
    """

    def __init__(self, space: ProductSpace, requests, slots=(0,), mean: bool = False):
        self.inputs, self.count = max(slots) + 1, len(requests)
        self.fold = None  # the slot sum of a stack or a block of logs, where a request reads it
        if len(slots) > 1 and any(row is None for row, _ in requests):
            self.fold = functools.partial(_fold, slots, mean)
        sum_row = self.inputs if self.fold else slots[0]
        group = []  # (output index, row, float columns)
        for i, (row, spec) in enumerate(requests):
            spec.validate_for(space)
            group.append((i, sum_row if row is None else row, tuple((aid, to_float(p)) for p, aid in spec.columns)))
        self.plan, width = _compile(group, space.ids, 0)
        self.height = self.inputs + (self.fold is not None)  # a set's rows in the stack: its inputs, then its slot sum
        self.width = max(width, self.height)  # the most rows of one set a stacked array holds

    def run(self, arrays, space: ProductSpace) -> list[list[float]]:
        """Each input set's log norms, in request order.  arrays holds raw
        values on space (or on any space of the same axis order): a (K,
        inputs, *shape) array of K sets, or a list of one set's input
        arrays, arrays[r] for row r.  The pass logs the values and the
        space's weights itself, and does not write the arrays.  A set within
        _BATCH_BYTES stacks with all the others, rows first and sets last,
        in one (height, *shape, sets) array; a larger one streams on its
        own."""
        logw = {a.id: np.log(np.asarray(a.weights, dtype=float)) for a in space.axes}
        sets = arrays if isinstance(arrays, np.ndarray) else [arrays]
        one, n = sets[0][0], self.inputs
        out = [[0.0] * self.count for _ in range(len(sets))]
        with np.errstate(divide="ignore", over="ignore"):
            if self.width * one.nbytes > _BATCH_BYTES:
                for values, norms in zip(sets, out):
                    _stream_plan(self.plan, values, logw, norms, True, self.fold)
                return out
            stack = np.empty((self.height, *one.shape, len(sets)))
            if len(sets) > 1:
                np.log(np.moveaxis(sets, 0, -1), out=stack[:n])
            else:
                np.log(sets[0], out=stack[:n, ..., 0])
            if self.fold:
                self.fold(stack, out=stack[n])
            _run_plan(self.plan, stack, logw, out)
        return out


def _fold(slots, mean: bool, logs, out=None) -> np.ndarray:
    """The slots' logs, logs[row] for each slot's row, summed in slot order
    into out (a new array where out is None), and divided by the slot count
    when mean is set."""
    out = np.add(logs[slots[0]], logs[slots[1]], out=out)
    for row in slots[2:]:
        out += logs[row]
    if mean:
        out /= len(slots)
    return out


def _compile(group, remaining, depth):
    """The reduction plan of group, (output index, row, float columns)
    triples sharing their first `depth` columns, over a stack with a row
    axis first, the `remaining` axes after it and a set axis last.

    The plan is a tuple tree built by a trie walk over the columns, so each
    distinct (row, column prefix) is reduced once.  A node is (children,
    outputs).  Each child collapses one axis for a set of (row, exponent)
    pairs in one _reduce_column call: every pair that collapses the axis
    with a finite exponent, or every one with an infinite exponent.  It also
    lists those pairs, with None for an infinite exponent, which a streamed
    run reduces one at a time.  A child holds its axis among the `remaining`
    axes, the index of its rows in a stack, whether it is spare, and the
    shape (lead) that broadcasts the axis's log weights along it in a
    stack.  Returns (plan, width): width is the most rows of one set a work
    array holds.
    """
    if not remaining:
        return ((), tuple((i, pos) for i, pos, _ in group)), 0
    children: dict = {}
    for member in group:
        aid, pf = member[2][depth]
        children.setdefault((aid, pf == math.inf), []).append(member)
    nodes, width = [], 1
    for k, ((aid, infinite), members) in enumerate(children.items()):
        ax = remaining.index(aid)
        where: dict = {}  # (row, exponent) -> row of the child's array
        for _, pos, cols in members:
            where.setdefault((pos, cols[depth][1]), len(where))
        pairs = tuple((pos, None if infinite else p) for pos, p in where)
        rows = [pos for pos, _ in pairs]
        if rows.count(rows[0]) == len(rows):  # one row, for one or several exponents: broadcast it
            sel = slice(rows[0], rows[0] + 1)
        elif rows == list(range(rows[0], rows[0] + len(rows))):  # a run of rows: a view, not a copy
            sel = slice(rows[0], rows[0] + len(rows))
        else:
            sel = np.array(rows)
        pf = pairs[0][1] if len(pairs) == 1 else None
        if len(pairs) > 1 and not infinite:
            pf = np.array([p for _, p in pairs]).reshape((-1,) + (1,) * (len(remaining) + 1))
        sub, sub_width = _compile(
            [(i, where[pos, cols[depth][1]], cols) for i, pos, cols in members],
            remaining[:ax] + remaining[ax + 1 :],
            depth + 1,
        )
        spare = not (depth or infinite) and isinstance(sel, slice) and sel.stop - sel.start == len(rows)
        spare = spare and not any(pos in rows for later in list(children.values())[k + 1 :] for _, pos, _ in later)
        lead = (-1,) + (1,) * (len(remaining) - ax)
        nodes.append((ax, sel, pf, spare, aid, lead, pairs, sub))
        width = max(width, len(rows), sub_width)
    return (tuple(nodes), ()), width


def _run_plan(plan, stack: np.ndarray, logw, out) -> None:
    """Evaluate a compiled plan on a stack of log arrays with a row axis
    first and a set axis last, writing set k's log norm of each request to
    out[k][index].  With two or more sets, a child whose axis has 8 or more
    atoms and only 1-atom axes before the sets sums with that axis last,
    pairwise as in a lone set (_logsumexp_inplace).  Only a spare child
    writes the stack, in its own rows; the caller holds
    np.errstate(divide="ignore", over="ignore")."""
    children, outputs = plan
    if outputs:
        for norms, row in zip(out, stack.T.tolist()):
            for i, pos in outputs:
                norms[i] = row[pos]
    many = stack.shape[-1] > 1
    for ax, sel, pf, spare, aid, lead, _, sub in children:
        last = many and stack.shape[ax + 1] >= 8 and math.prod(stack.shape[ax + 2 : -1]) == 1
        _run_plan(sub, _reduce_column(stack[sel], pf, ax + 1, logw[aid].reshape(lead), spare, last), logw, out)


def _stream_plan(plan, arrays, logw, out, log: bool = False, fold=None) -> None:
    """Evaluate a compiled plan on one set's row arrays, arrays[r] for row
    r, writing each request's log norm to out[index].

    The arrays share one shape and have no row axis; they hold raw values
    when log is set, else log values.  Each (row, exponent) pair of a child
    is one _reduce_blocks head, and fold is handed on to _reduce_blocks.
    Once a child's reduced rows fit in _BATCH_BYTES together, or are 0-d
    (the child is a leaf), they are stacked and the child's plan runs on the
    stack.  The arrays are not written; the caller holds
    np.errstate(divide="ignore", over="ignore").
    """
    children, _ = plan
    heads = [(pos, ax, p, aid) for ax, _, _, _, aid, _, pairs, _ in children for pos, p in pairs]
    reduced = iter(_reduce_blocks(arrays, heads, logw, log, fold))
    for *_, pairs, sub in children:
        rows = [next(reduced) for _ in pairs]
        if not rows[0].ndim or 8 * len(rows) * rows[0].size <= _BATCH_BYTES:
            _run_plan(sub, np.stack(rows)[..., None], logw, [out])
        else:
            _stream_plan(sub, rows, logw, out)


def _reduce_blocks(arrays, heads, logw, log: bool, fold) -> list[np.ndarray]:
    """Each (row, axis, exponent or None, axis id) head's reduction of
    arrays[row], logged first when log is set.  A row past the arrays is the
    slot sum: fold(logs) forms it from the logs of each array's block that a
    head reads, and no more of it is kept.

    One loop reduces the arrays in blocks of at most _BATCH_BYTES where the
    shape allows, and writes each block's reduction into its part of each
    head's output.  A group of heads sees the arrays as (lead, rest)
    matrices and takes ranges of their columns, whole runs of every axis its
    heads reduce, so one log of a block serves every head of the group.
    Heads of axis 0, and heads whose run over all n0 rows fits _BATCH_BYTES,
    have lead n0: one block for an array within _BATCH_BYTES or a 1-D
    array.  The others (never a slot sum's: it starts at axis 0) have lead
    1, and their ranges are whole rows of (outer, rest) matrices over the
    axes before the first axis they reduce.  Either way numpy sums each
    output cell in the same order as for the whole array, provided a block
    of n0 rows is never one column wide while the matrix has more: axis 0
    would then be its only axis, which numpy sums pairwise, not row by row.
    """
    shape = arrays[0].shape
    n0, size = shape[0], math.prod(shape)
    reduced = [np.empty(shape[:ax] + shape[ax + 1 :]) for _, ax, *_ in heads]
    columns, rows = [], []
    for k, (_, ax, *_) in enumerate(heads):
        (columns if 8 * n0 * math.prod(shape[ax:]) <= _BATCH_BYTES or ax == 0 else rows).append(k)
    groups = []  # (heads, lead, (start, stop) column ranges)
    if columns:
        run = max((math.prod(shape[heads[k][1] :]) for k in columns if heads[k][1]), default=1)
        width = max(2, _BATCH_BYTES // (8 * n0 * run) * run)
        groups.append((columns, n0, list(_bounds(size // n0, width))))
    if rows:
        outer = math.prod(shape[: min(heads[k][1] for k in rows)])
        width, tail = max(1, _BATCH_BYTES * outer // (8 * size)), size // outer
        groups.append((rows, 1, [(start * tail, stop * tail) for start, stop in _bounds(outer, width)]))
    for group, lead, bounds in groups:
        matrices = [a.reshape(lead, -1) for a in arrays]
        sums = fold is not None and group is columns
        used = range(len(arrays)) if sums else {heads[k][0] for k in group}

        def block(start, stop):
            logs = {r: np.log(matrices[r][:, start:stop]) if log else matrices[r][:, start:stop] for r in used}
            if sums:
                logs[len(arrays)] = fold(list(logs.values()))
            for k in group:
                r, ax, pf, aid = heads[k]
                if ax:  # lead rows of runs of n atoms, each holding the axes after ax
                    n = shape[ax]
                    runs = logs[r].reshape(lead, -1, n, math.prod(shape[ax + 1 :]))
                    cells = _reduce_column(runs, pf, 2, logw[aid][:, None])
                    reduced[k].reshape(lead, -1)[:, start // n : stop // n] = cells.reshape(lead, -1)
                else:
                    reduced[k].reshape(-1)[start:stop] = _reduce_column(logs[r], pf, 0, logw[aid][:, None])
        _map(block, bounds, 8 * size * len(used))
    return reduced


def _bounds(n: int, width: int):
    """(start, stop) of blocks of `width` slices along an axis of n; a lone
    last slice joins the block before it."""
    starts = list(range(0, n, width))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [n])


def distinct_inputs(tensors) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Each tensor's row among the distinct ones, numbered in order of first
    use (a repeated slot holds the same Tensor object), and the distinct
    tensors' values by row.  This is the one check that the tensors of a
    call live on one space."""
    row_of: dict = {}
    slots = tuple(row_of.setdefault(id(t), len(row_of)) for t in tensors)
    distinct = [tensors[slots.index(row)] for row in range(len(row_of))]
    if any(t.space != distinct[0].space for t in distinct[1:]):
        raise ValidationError("all tensors must live on one space")
    return slots, [t.values for t in distinct]


def mixed_norm_log(f: Tensor, spec: NormSpec) -> float:
    return Pass(f.space, [(0, spec)]).run((f.values,), f.space)[0][0]


def _mixed_norm_direct(f: Tensor, spec: NormSpec) -> float:
    spec.validate_for(f.space)
    remaining = list(f.space.ids)
    arr = f.values
    for p, aid in spec.columns:
        ax = remaining.index(aid)
        if p is INF:
            arr = np.max(arr, axis=ax)
        else:
            pf = to_float(p)
            w = np.asarray(f.space.axis(aid).weights, dtype=float)
            shape = [1] * arr.ndim
            shape[ax] = -1
            with np.errstate(over="ignore"):  # a power sum past the float range is inf
                powered = np.power(arr, pf)
                powered *= w.reshape(shape)
                arr = np.sum(powered, axis=ax) ** (1.0 / pf)
        remaining.pop(ax)
    return float(arr)


def eval_mixed_norm(f: Tensor, spec: NormSpec, method: str = "log") -> float:
    """Evaluate the mixed norm of f.

    method='log' (default) computes in the log domain and exponentiates;
    method='direct' uses plain power sums.  The two agree to ~1e-12 relative
    for well-scaled inputs; the log path is robust to extreme exponents.
    """
    if method == "log":
        return exp_or_inf(mixed_norm_log(f, spec))
    if method == "direct":
        return _mixed_norm_direct(f, spec)
    raise ValidationError(f"unknown evaluation method {method!r}")


def integrate_product(tensors, method: str = "log") -> float:
    """Integral of the pointwise product f_1 * ... * f_m over the product space."""
    if method not in ("log", "direct"):
        raise ValidationError(f"unknown evaluation method {method!r}")
    if not tensors:
        raise ValidationError("at least one tensor required")
    slots, arrays = distinct_inputs(tensors)
    space = tensors[0].space
    if method == "log":  # by Fubini, the L^1 norm of the product: of the slot sum
        evaluation = Pass(space, [(None, NormSpec.uniform(1, space.ids))], slots)
        return exp_or_inf(evaluation.run(arrays, space)[0][0])
    acc = tensors[0].values.copy()
    with np.errstate(over="ignore"):  # a product past the float range is inf
        for t in tensors[1:]:
            acc *= t.values
        for i, axis in enumerate(space.axes):
            shape = [1] * acc.ndim
            shape[i] = -1
            acc *= np.asarray(axis.weights).reshape(shape)
        return float(acc.sum())
