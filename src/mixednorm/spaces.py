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

Every log-domain result comes from one `Pass`: the norm requests of K input
sets of a few distinct inputs each, and of each set's slot sum (its logs
added slot by slot; by Fubini a product integral is the sum's L^1 norm, and
a geometric mean's L^p norm is the L^p norm of the sum over the slot count),
compiled by a trie walk over the specs' columns so each distinct (input,
column prefix) is reduced once.  Each `run` chooses how to run its one plan.
Within `_BATCH_BYTES` the logs stack into one C-ordered array with a row
per input of every set (and one per set for the slot sum), and each plan
node collapses one axis for every (row, exponent) pair reducing it at that
depth, by one in-place shifted log-sum-exp (a maximum for an infinite
exponent).  Above it the plan streams: each pair is reduced from the raw
inputs in blocks of at most `_BATCH_BYTES`, each block logged once for
every pair that shares it, and the block's slot sums formed from those
logs, until a node's outputs fit the budget and stack again.  No array
the size of an input is made.  A block is the unit of work of a pool of
one thread per CPU (`_map`); no result depends on the count.
`mixed_norm_logs`, `mixed_norm_log`, `integrate_product` and
`evaluation.evaluate_instance` all run a `Pass` of one set;
`evaluation.evaluate_batch` runs K sets, one per candidate of a search
population.
`Tensor` stores its values in C order, so a stacked row or a block sums
each cell in the same order as a lone array, and each entry point returns
bit for bit what a one-spec loop over whole arrays returns.
The direct path shares none of this code, so it stays an independent check.
"""

from __future__ import annotations

import math
import os
import threading
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
        arr = as_float_array(list(flat))
        expected = int(np.prod(space.shape))
        if arr.size != expected:
            raise ValidationError(
                f"expected {expected} values for shape {space.shape}, got {arr.size}"
            )
        return cls(space, arr.reshape(space.shape))


def as_float_array(values, copy: bool = False) -> np.ndarray:
    """values as a C-ordered float array, a new one when copy is set.  Values
    that numpy cannot convert to floats, and complex ones, are a
    ValidationError rather than a numpy error or a silently dropped part."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind != "c":
            return np.array(arr, dtype=float, order="C") if copy else np.ascontiguousarray(arr, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"tensor values are not real numbers: {exc}") from None
    raise ValidationError("tensor values are complex")


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


def log_weights(space: ProductSpace) -> dict[str, np.ndarray]:
    """The log of each axis's atom weights, keyed by axis id."""
    return {a.id: np.log(np.asarray(a.weights, dtype=float)) for a in space.axes}


def exp_or_inf(x: float) -> float:
    """math.exp that returns inf where the result leaves the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _logsumexp_inplace(a: np.ndarray, axis: int) -> np.ndarray:
    """Shifted log-sum-exp along one axis, keeping it with length 1.

    a is overwritten.  A slice that is all -inf gives -inf; the caller holds
    np.errstate(divide="ignore") for its log(0).  Log arrays never hold NaN
    (values are finite and exponents positive), so a max that is not finite
    is infinite.
    """
    shift = np.maximum.reduce(a, axis=axis, keepdims=True)
    np.copyto(shift, 0.0, where=np.isinf(shift))
    a -= shift
    np.exp(a, out=a)
    out = np.add.reduce(a, axis=axis, keepdims=True)
    np.log(out, out=out)
    out += shift
    return out


# A batched work array holds one row per (input, exponent) pair that a plan
# node reduces.  Stacking rows saves numpy's per-call overhead, which
# dominates on small arrays; once a reduction's input and work array no
# longer fit in a core's L2 cache together, rows reduced one at a time are
# faster.  Measured on a 2-vCPU Xeon (2 MiB L2 per core), SymmetricHolder
# with 12 distinct inputs on four axes ran 0.69x the row-at-a-time time with
# 0.43 MB batched arrays, 0.81x at 0.68 MB, 1.07x at 1.0 MB and 1.25x at
# 1.5 MB; Quad6 broke even near 0.4-0.6 MB.  It is also the block size of
# the streamed path (_stream_plan), so that a block's log and work arrays
# stay cache-sized and the allocator reuses their memory (with blocks
# of one 13 MB slice, a call page-faulted about 1 GB).  On a 96x96x96x178
# input (1.26 GB) the grid's MinkowskiRaise, SymmetricGM1 and HolderMixed
# took about 2.0, 3.7 and 3.7 s in blocks, against 3.8, 7.0 and 4.5 s on
# whole arrays.  A block is also the unit of work handed to a worker (_map).
_BATCH_BYTES = 1 << 19

_POOL_BYTES = 1 << 25  # a smaller loop runs inline: it gains little on threads, and its time varies more
_WORKERS = min(8, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
_pool, _pool_lock = None, threading.Lock()  # the pool starts in the first _map that needs it
if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=lambda: globals().update(_pool=None, _pool_lock=threading.Lock()))


def _map(task, items: list, nbytes: int) -> list:
    """[task(*item) for item in items], on the pool (numpy releases the GIL inside a ufunc) for two or
    more items over nbytes >= _POOL_BYTES.  A task must not call _map: a nested map can deadlock."""
    global _pool
    if _WORKERS < 2 or len(items) < 2 or nbytes < _POOL_BYTES:
        return [task(*item) for item in items]
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="mixednorm")

    def quiet(item):  # numpy keeps the kernel's np.errstate per thread
        with np.errstate(divide="ignore", over="ignore"):
            return task(*item)
    return list(_pool.map(quiet, items))


def _reduce_column(rows: np.ndarray, pf, ax: int, logw: np.ndarray) -> np.ndarray:
    """Collapse axis ax of a log array, or of a stack of them with rows on
    axis 0.  pf is None for an infinite exponent, else a float or the rows'
    float exponents as a (k, 1, ..., 1) column.  logw is the axis's log
    weights shaped to broadcast along ax.  rows is not written.
    """
    if pf is None:
        return np.maximum.reduce(rows, axis=ax)
    a = np.multiply(rows, pf)
    a += logw
    out = _logsumexp_inplace(a, ax)
    out /= pf
    return out.reshape(a.shape[:ax] + a.shape[ax + 1 :])


class Pass:
    """One log-domain evaluation: the mixed norms of K = `sets` input sets
    of a few inputs each, and of each set's slot sum, compiled once for a
    space's axis order.

    requests holds (row, spec) pairs of one set.  Row r < inputs reads input
    r; row `inputs` reads the slot sum.  slots, where given, lists the input
    row of each of two or more slots.  The slot sum adds the slots' logs in
    slot order, and mean divides it by the slot count.  Each set's requests
    are the same; the stack holds set k's inputs in rows k * inputs + r,
    then the K slot sums, so set k's norms come out in positions
    k * len(requests) + i.
    """

    def __init__(self, space: ProductSpace, requests, inputs: int, slots=None, mean: bool = False, sets: int = 1):
        self.ids, self.inputs, self.slots, self.mean, self.sets = space.ids, inputs, slots, mean, sets
        self.rows = sets * inputs  # the input rows; the slot sums, if any, follow them
        columns = []
        for row, spec in requests:
            spec.validate_for(space)
            columns.append((row, tuple((aid, to_float(p)) for p, aid in spec.columns)))
        self.group = [  # (output index, row, float columns)
            (k * len(columns) + i, self.rows + k if row == inputs else k * inputs + row, cols)
            for k in range(sets)
            for i, (row, cols) in enumerate(columns)
        ]
        self.sums = sets if slots is not None else 0  # slot-sum rows
        self.plan, width = _compile(self.group, self.ids, 0)
        self.width = max(width, self.rows + self.sums)  # the most rows a stacked array holds

    def run(self, arrays, logw, log: bool = True) -> list[float]:
        """Log norms in output order of the input rows arrays[k * inputs + r],
        raw values when log is set, else logs with zeros as -inf; logw is the
        space's log_weights.  arrays is a list of arrays, or one array with
        the rows on axis 0.  The arrays are not written."""
        out = [0.0] * len(self.group)
        shape = arrays[0].shape
        with np.errstate(divide="ignore", over="ignore"):
            if self.width * arrays[0].nbytes <= _BATCH_BYTES:
                stack = np.empty((self.rows + self.sums, *shape))
                # one array of rows is logged in one call, a list row by row
                rows = [(slice(self.rows), arrays)] if isinstance(arrays, np.ndarray) else enumerate(arrays)
                for row, arr in rows:
                    if log:
                        np.log(arr, out=stack[row])
                    else:
                        stack[row] = arr
                if self.sums:
                    by_slot = stack[: self.rows].reshape(self.sets, self.inputs, *shape).swapaxes(0, 1)
                    _fold(by_slot, self.slots, self.mean, out=stack[self.rows :])
                _run_plan(self.plan, stack, logw, out)
                return out
            fold = None
            if self.sums:  # each set's slot sum of one block of logs, formed when a head reads it
                fold = lambda logs: [_fold(logs[k * self.inputs :], self.slots, self.mean) for k in range(self.sets)]
            _stream_plan(self.plan, arrays, logw, out, log, fold)
        return out


def _fold(logs, slots, mean: bool, out=None) -> np.ndarray:
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
    triples sharing their first `depth` columns, over an array with a row
    axis first and the `remaining` axes after it.

    The plan is a tuple tree built by a trie walk over the columns, so each
    distinct (row, column prefix) is reduced once.  A node is (children,
    outputs).  Each child collapses one axis for a set of (row, exponent)
    pairs in one _reduce_column call: every pair that collapses the axis
    with a finite exponent, or every one with an infinite exponent.  It also
    lists those pairs, with None for an infinite exponent, which a streamed
    run reduces one at a time.  Returns (plan, width): width is the most
    rows a work array holds.
    """
    if not remaining:
        return ((), tuple((i, pos) for i, pos, _ in group)), 0
    children: dict = {}
    for member in group:
        aid, pf = member[2][depth]
        children.setdefault((aid, pf == math.inf), []).append(member)
    nodes, width = [], 1
    for (aid, infinite), members in children.items():
        ax = remaining.index(aid)
        where: dict = {}  # (row, exponent) -> row of the child's array
        for _, pos, cols in members:
            where.setdefault((pos, cols[depth][1]), len(where))
        pairs = tuple((pos, None if infinite else p) for pos, p in where)
        rows = [pos for pos, _ in pairs]
        if len(rows) == 1:
            sel, pf = slice(rows[0], rows[0] + 1), pairs[0][1]
        else:
            if rows.count(rows[0]) == len(rows):  # one row, several exponents: broadcast it
                sel = slice(rows[0], rows[0] + 1)
            elif rows[1] > rows[0] and rows == list(range(rows[0], rows[-1] + 1, rows[1] - rows[0])):
                sel = slice(rows[0], rows[-1] + 1, rows[1] - rows[0])  # evenly spaced: one per set
            else:
                sel = np.array(rows)
            pf = None
            if not infinite:
                pf = np.array([p for _, p in pairs]).reshape((-1,) + (1,) * len(remaining))
        sub, sub_width = _compile(
            [(i, where[pos, cols[depth][1]], cols) for i, pos, cols in members],
            remaining[:ax] + remaining[ax + 1 :],
            depth + 1,
        )
        lead = (-1,) + (1,) * (len(remaining) - ax - 1)
        nodes.append((ax + 1, sel, pf, aid, lead, pairs, sub))
        width = max(width, len(rows), sub_width)
    return (tuple(nodes), ()), width


def _run_plan(plan, stack: np.ndarray, logw, out) -> None:
    """Evaluate a compiled plan on a stack of log arrays, writing each
    request's log norm to out[index].  stack is not written; the caller holds
    np.errstate(divide="ignore", over="ignore")."""
    children, outputs = plan
    for i, pos in outputs:
        out[i] = float(stack[pos])
    for ax, sel, pf, aid, lead, _, sub in children:
        _run_plan(sub, _reduce_column(stack[sel], pf, ax, logw[aid].reshape(lead)), logw, out)


def _stream_plan(plan, arrays, logw, out, log: bool = False, fold=None) -> None:
    """Evaluate a compiled plan on row arrays, arrays[r] for row r, writing
    each request's log norm to out[index].

    The arrays share one shape and have no row axis; they hold raw values
    when log is set, else log values.  Each (row, exponent) pair of a child
    is one _reduce_blocks head, and fold is handed on to _reduce_blocks.
    Once a child's reduced rows fit in _BATCH_BYTES together, they are
    stacked and the child's plan runs on the stack.  The arrays are not
    written; the caller holds np.errstate(divide="ignore", over="ignore").
    """
    children, outputs = plan
    for i, pos in outputs:
        out[i] = float(arrays[pos])
    heads = [(pos, ax - 1, p, aid, lead) for ax, _, _, aid, lead, pairs, _ in children for pos, p in pairs]
    if not heads:
        return
    reduced = iter(_reduce_blocks(arrays, heads, logw, log, fold))
    for *_, pairs, sub in children:
        rows = [next(reduced) for _ in pairs]
        if 8 * len(rows) * rows[0].size <= _BATCH_BYTES:
            _run_plan(sub, np.stack(rows), logw, out)
        else:
            _stream_plan(sub, rows, logw, out)


def _reduce_blocks(arrays, heads, logw, log: bool, fold) -> list[np.ndarray]:
    """Each (row, axis, exponent or None, axis id, log weight shape) head's
    reduction of arrays[row], logged first when log is set.  A row past the
    arrays is a set's slot sum: fold(logs) forms it, one per set, from the
    logs of each array's block that a head reads, and no more of it is kept.

    A 1-D array, or one within _BATCH_BYTES, is reduced whole.  A larger one
    is reduced in blocks of at most _BATCH_BYTES where the shape allows, and
    each block's reduction is written into its part of the head's output.
    Blocks are ranges of columns of the arrays seen as (n0, rest) matrices,
    whole runs of every axis a head reduces, so one log of a block serves
    every head.  A head whose run of columns over all n0 rows would pass
    _BATCH_BYTES (never a slot sum's: it starts at axis 0) takes blocks of
    rows of its array seen as a matrix instead, after the blocks of columns,
    along the axes before the first axis such heads reduce.  Either way
    numpy sums each output cell in the same order as for the whole array,
    provided a block of columns is never one column wide while the matrix
    has more: axis 0 would then be its only axis, which numpy sums pairwise
    rather than row by row.
    """
    shape = arrays[0].shape
    n0, size = shape[0], math.prod(shape)
    if len(shape) == 1 or 8 * size <= _BATCH_BYTES:
        used = range(len(arrays)) if fold else {h[0] for h in heads}
        logs = {r: _logged(arrays[r], log) for r in used}
        if fold:
            logs.update(enumerate(fold(list(logs.values())), len(arrays)))
        return [_reduce_column(logs[r], pf, ax, logw[aid].reshape(lead)) for r, ax, pf, aid, lead in heads]
    reduced = [np.empty(shape[:ax] + shape[ax + 1 :]) for _, ax, *_ in heads]
    columns, rows = [], []
    for k, (_, ax, *_) in enumerate(heads):
        (columns if 8 * n0 * math.prod(shape[ax:]) <= _BATCH_BYTES or ax == 0 else rows).append(k)
    if columns:
        run = max((math.prod(shape[heads[k][1] :]) for k in columns if heads[k][1]), default=1)
        width = max(2, _BATCH_BYTES // (8 * n0 * run) * run)
        matrices = [a.reshape(n0, -1) for a in arrays]
        used = range(len(arrays)) if fold else {heads[k][0] for k in columns}

        def column_block(start, stop):
            logs = {r: _logged(matrices[r][:, start:stop], log) for r in used}
            if fold:
                logs.update(enumerate(fold(list(logs.values())), len(arrays)))
            for k in columns:
                r, ax, pf, aid, _ = heads[k]
                if ax == 0:
                    reduced[k].reshape(-1)[start:stop] = _reduce_column(logs[r], pf, 0, logw[aid][:, None])
                else:
                    n = shape[ax]
                    cells = _reduce_run(logs[r], pf, n, shape[ax + 1 :], logw[aid])
                    reduced[k].reshape(n0, -1)[:, start // n : stop // n] = cells
        _map(column_block, list(_bounds(size // n0, width)), 8 * size * len(used))
    if rows:
        first = min(heads[k][1] for k in rows)
        outer = math.prod(shape[:first])
        matrices = [a.reshape(outer, -1) for a in arrays]
        used = {heads[k][0] for k in rows}

        def row_block(start, stop):
            logs = {r: _logged(matrices[r][start:stop], log) for r in used}
            for k in rows:
                r, ax, pf, aid, _ = heads[k]
                cells = _reduce_run(logs[r], pf, shape[ax], shape[ax + 1 :], logw[aid])
                reduced[k].reshape(outer, -1)[start:stop] = cells
        _map(row_block, list(_bounds(outer, max(1, _BATCH_BYTES * outer // (8 * size)))), 8 * size * len(used))
    return reduced


def _logged(block: np.ndarray, log: bool) -> np.ndarray:
    return np.log(block) if log else block


def _reduce_run(block: np.ndarray, pf, n: int, tail, logw: np.ndarray) -> np.ndarray:
    """Collapse an axis of n atoms in a 2-D block whose columns hold whole
    runs of that axis and the `tail` axes after it; returns a 2-D block."""
    runs = block.reshape(block.shape[0], -1, n, math.prod(tail))
    return _reduce_column(runs, pf, 2, logw[:, None]).reshape(block.shape[0], -1)


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
    tensors' values by row."""
    row_of: dict = {}
    slots = tuple(row_of.setdefault(id(t), len(row_of)) for t in tensors)
    return slots, [tensors[slots.index(row)].values for row in range(len(row_of))]


def mixed_norm_logs(logv: np.ndarray, space: ProductSpace, specs) -> list[float]:
    """Logs of the mixed norms of one log-domain array under several specs.

    logv holds log values with zeros as -inf; it is not modified.
    """
    return Pass(space, [(0, s) for s in specs], 1).run((logv,), log_weights(space), log=False)


def mixed_norm_log(f: Tensor, spec: NormSpec) -> float:
    return Pass(f.space, [(0, spec)], 1).run((f.values,), log_weights(f.space))[0]


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
    space = tensors[0].space
    if any(t.space != space for t in tensors[1:]):
        raise ValidationError("tensors live on different spaces")
    if method == "log":  # by Fubini, the L^1 norm of the product: of the slot sum for two or more slots
        slots, arrays = distinct_inputs(tensors)
        summed = len(slots) > 1
        request = (len(arrays) if summed else 0, NormSpec.uniform(1, space.ids))
        evaluation = Pass(space, [request], len(arrays), slots if summed else None)
        return exp_or_inf(evaluation.run(arrays, log_weights(space))[0])
    acc = tensors[0].values.copy()
    with np.errstate(over="ignore"):  # a product past the float range is inf
        for t in tensors[1:]:
            acc *= t.values
        for i, axis in enumerate(space.axes):
            shape = [1] * acc.ndim
            shape[i] = -1
            acc *= np.asarray(axis.weights).reshape(shape)
        return float(acc.sum())
