"""Finite weighted product spaces, nonnegative tensors, and mixed norms.

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

Every log-domain result comes from one `Pass`: the norm requests of a few
distinct inputs and of their slot sum (their logs added slot by slot, for a
product integral or a geometric mean), compiled by a trie walk over the
specs' columns so each distinct (input, column prefix) is reduced once.
Each `run` chooses how to run its one plan.  Within `_BATCH_BYTES` the logs
stack into one C-ordered array with a row per input (and one for the slot
sum), and each plan node collapses one axis for every (row, exponent) pair
reducing it at that depth, by one in-place shifted log-sum-exp (a maximum
for an infinite exponent).  Above it the plan streams: each pair is reduced
from the raw inputs in blocks of at most `_BATCH_BYTES`, each block logged
once for every pair that shares it and added into the slot sum, until a
node's outputs fit the budget and stack again.  Only the slot sum is
full-size.  `mixed_norm_logs`, `mixed_norm_log`, `integrate_product` and the
catalog's `evaluate_instance` all run a `Pass`.  `Tensor` stores its values
in C order, so a stacked row or a block sums each cell in the same order as
a lone array, and each entry point returns bit for bit what a one-spec loop
over whole arrays returns.
The direct path shares none of this code, so it stays an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .exponents import INF, Exponent, as_exponent, exponent_to_doc, to_float


@dataclass(frozen=True)
class Axis:
    """One factor of a product space: finitely many atoms with positive weights."""

    id: str
    weights: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError("axis id must be a nonempty string")
        try:
            ws = tuple(float(w) for w in self.weights)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"axis {self.id!r}: weights must be numbers") from exc
        if not ws:
            raise ValidationError(f"axis {self.id!r} has no atoms")
        for i, w in enumerate(ws):
            if not math.isfinite(w) or w <= 0:
                raise ValidationError(
                    f"axis {self.id!r}, atom {i}: weight {w!r} is not a positive finite number"
                )
        object.__setattr__(self, "weights", ws)

    @property
    def size(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ProductSpace:
    axes: tuple[Axis, ...]

    def __post_init__(self):
        axes = tuple(self.axes)
        if not axes:
            raise ValidationError("a product space needs at least one axis")
        ids = [a.id for a in axes]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate axis ids: {ids}")
        object.__setattr__(self, "axes", axes)

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.axes)

    def position(self, axis_id: str) -> int:
        for i, a in enumerate(self.axes):
            if a.id == axis_id:
                return i
        raise ValidationError(f"no axis {axis_id!r} in space with axes {list(self.ids)}")

    def axis(self, axis_id: str) -> Axis:
        return self.axes[self.position(axis_id)]

    def weight_array(self, axis_id: str) -> np.ndarray:
        return np.asarray(self.axis(axis_id).weights, dtype=float)


@dataclass(frozen=True, eq=False)
class Tensor:
    """Nonnegative finite function values on a product space, row-major."""

    space: ProductSpace
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, order="C")
        if arr.shape != self.space.shape:
            raise ValidationError(
                f"tensor shape {arr.shape} does not match space shape {self.space.shape}"
            )
        if not np.all(np.isfinite(arr)):
            idx = int(np.flatnonzero(~np.isfinite(arr.reshape(-1)))[0])
            raise ValidationError(f"tensor value at flat index {idx} is not finite")
        if np.any(arr < 0):
            idx = int(np.flatnonzero(arr.reshape(-1) < 0)[0])
            raise ValidationError(
                f"tensor value at flat index {idx} is negative ({arr.reshape(-1)[idx]})"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def constant(cls, space: ProductSpace, value) -> "Tensor":
        return cls(space, np.full(space.shape, float(value)))

    @classmethod
    def from_flat(cls, space: ProductSpace, flat) -> "Tensor":
        arr = np.asarray(list(flat), dtype=float)
        expected = int(np.prod(space.shape))
        if arr.size != expected:
            raise ValidationError(
                f"expected {expected} values for shape {space.shape}, got {arr.size}"
            )
        return cls(space, arr.reshape(space.shape))


@dataclass(frozen=True)
class NormSpec:
    """A mixed-norm specification: ordered (exponent, axis) columns, innermost first."""

    columns: tuple[tuple[Exponent, str], ...]

    def __post_init__(self):
        cols = []
        for col in self.columns:
            try:
                p_raw, aid = col
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"norm spec column {col!r} is not an (exponent, axis) pair"
                ) from exc
            cols.append((as_exponent(p_raw), str(aid)))
        if not cols:
            raise ValidationError("norm spec needs at least one column")
        ids = [a for _, a in cols]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"norm spec repeats an axis: {ids}")
        object.__setattr__(self, "columns", tuple(cols))

    @property
    def n(self) -> int:
        return len(self.columns)

    @property
    def exponents(self) -> tuple[Exponent, ...]:
        return tuple(p for p, _ in self.columns)

    @property
    def axis_ids(self) -> tuple[str, ...]:
        return tuple(a for _, a in self.columns)

    def exponent_for(self, axis_id: str) -> Exponent:
        for p, a in self.columns:
            if a == axis_id:
                return p
        raise ValidationError(f"norm spec has no axis {axis_id!r}")

    def is_nonincreasing(self) -> bool:
        exps = self.exponents
        return all(exps[i] >= exps[i + 1] for i in range(len(exps) - 1))

    def validate_for(self, space: ProductSpace) -> None:
        if {a for _, a in self.columns} != set(space.ids):
            raise ValidationError(
                f"norm spec axes {sorted(self.axis_ids)} do not match "
                f"space axes {sorted(space.ids)}"
            )

    @classmethod
    def uniform(cls, p, axis_ids) -> "NormSpec":
        return cls(tuple((p, a) for a in axis_ids))

    def to_doc(self) -> dict:
        return {"columns": [{"p": exponent_to_doc(p), "axis": a} for p, a in self.columns]}

    @classmethod
    def from_doc(cls, doc) -> "NormSpec":
        if not isinstance(doc, dict) or "columns" not in doc:
            raise ValidationError("norm spec document must be an object with a 'columns' list")
        cols = doc["columns"]
        if not isinstance(cols, list):
            raise ValidationError("norm spec 'columns' must be a list")
        pairs = []
        for i, c in enumerate(cols):
            if not isinstance(c, dict) or "p" not in c or "axis" not in c:
                raise ValidationError(f"norm spec column {i} must have 'p' and 'axis'")
            pairs.append((c["p"], c["axis"]))
        return cls(tuple(pairs))


def _require_shared_space(tensors) -> ProductSpace:
    if not tensors:
        raise ValidationError("at least one tensor required")
    space = tensors[0].space
    for t in tensors[1:]:
        if t.space != space:
            raise ValidationError("tensors live on different spaces")
    return space


def log_values(t: Tensor) -> np.ndarray:
    """Elementwise log with zeros mapped to -inf."""
    with np.errstate(divide="ignore"):
        return np.log(t.values)


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
# whole arrays.
_BATCH_BYTES = 1 << 19

# The most columns the specs of an orbit or a subset family may hold
# together (M specs over n axes hold M * n), checked before any is listed.
_MAX_COLUMNS = 100_000


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
    """One log-domain evaluation: the mixed norms of a few inputs and of
    their slot sum, compiled once for a space's axis order.

    requests holds (row, spec) pairs.  Row r < inputs reads input r; row
    `inputs` reads the slot sum of two or more slots.  slots, where given,
    lists the input row of each slot.  The slot sum adds the slots' logs in
    slot order, and mean divides it by the slot count.  With one slot, the
    slot sum is that input's log.
    """

    def __init__(self, space: ProductSpace, requests, inputs: int, slots=None, mean: bool = False):
        self.ids, self.inputs, self.slots, self.mean = space.ids, inputs, slots, mean
        self.rows = inputs + (slots is not None and len(slots) > 1)
        self.group = []  # (output index, row, float columns)
        for i, (row, spec) in enumerate(requests):
            spec.validate_for(space)
            self.group.append((i, row, tuple((aid, to_float(p)) for p, aid in spec.columns)))
        self.plan, width = _compile(self.group, self.ids, 0)
        self.width = max(width, self.rows)  # the most rows a stacked array holds

    def run(self, arrays, logw, log: bool = True):
        """(log norms in request order, slot sum or None) of the distinct
        inputs' arrays, raw values when log is set, else logs with zeros as
        -inf; logw is the space's log_weights.  The arrays are not written,
        and the slot sum is the caller's to overwrite."""
        out = [0.0] * len(self.group)
        acc = None
        with np.errstate(divide="ignore", over="ignore"):
            if self.width * arrays[0].nbytes <= _BATCH_BYTES:
                stack = np.empty((self.rows, *arrays[0].shape))
                for row, arr in enumerate(arrays):
                    if log:
                        np.log(arr, out=stack[row])
                    else:
                        stack[row] = arr
                if self.rows > self.inputs:
                    acc = _fold(stack[self.inputs], stack, self.slots, self.mean)
                elif self.slots is not None:
                    acc = stack[self.slots[0]]
                _run_plan(self.plan, stack, logw, out)
                return out, acc
            arrays, fold = list(arrays), None
            if self.slots is not None:
                acc = np.empty(arrays[0].shape)
                columns = acc.reshape(len(acc), -1)
                fold = lambda start, stop, logs: _fold(columns[:, start:stop], logs, self.slots, self.mean)
                if self.rows > self.inputs:
                    arrays.append(acc)
            _stream_plan(self.plan, arrays, logw, out, self.inputs if log else 0, fold)
        return out, acc


def _fold(out: np.ndarray, logs, slots, mean: bool) -> np.ndarray:
    """The slots' logs, logs[row] for each slot's row, summed in slot order
    into out, and divided by the slot count when mean is set."""
    if len(slots) == 1:
        np.copyto(out, logs[slots[0]])
        return out
    np.add(logs[slots[0]], logs[slots[1]], out=out)
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
            elif rows == list(range(rows[0], rows[0] + len(rows))):
                sel = slice(rows[0], rows[0] + len(rows))
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


def _stream_plan(plan, arrays, logw, out, raw: int = 0, fold=None) -> None:
    """Evaluate a compiled plan on row arrays, arrays[r] for row r, writing
    each request's log norm to out[index].

    The arrays share one shape and have no row axis.  The first `raw` hold
    raw values, the rest log values.  Each (row, exponent) pair of a child
    is one _reduce_blocks head, and fold is handed on to _reduce_blocks.
    Once a child's reduced rows fit in _BATCH_BYTES together, they are
    stacked and the child's plan runs on the stack.  The arrays are not
    written; the caller holds np.errstate(divide="ignore", over="ignore").
    """
    children, outputs = plan
    for i, pos in outputs:
        out[i] = float(arrays[pos])
    heads = [(pos, ax - 1, p, aid, lead) for ax, _, _, aid, lead, pairs, _ in children for pos, p in pairs]
    if not (heads or fold):
        return
    reduced = iter(_reduce_blocks(arrays, heads, logw, raw, fold))
    for *_, pairs, sub in children:
        rows = [next(reduced) for _ in pairs]
        if 8 * len(rows) * rows[0].size <= _BATCH_BYTES:
            _run_plan(sub, np.stack(rows), logw, out)
        else:
            _stream_plan(sub, rows, logw, out)


def _reduce_blocks(arrays, heads, logw, raw: int, fold) -> list[np.ndarray]:
    """Each (array index, axis, exponent or None, axis id, log weight shape)
    head's reduction of its array, logged first for the first `raw` arrays.

    A 1-D array, or one within _BATCH_BYTES, is reduced whole.  A larger one
    is reduced in blocks of at most _BATCH_BYTES where the shape allows, and
    each block's reduction is written into its part of the head's output.
    Blocks are ranges of columns of the arrays seen as (n0, rest) matrices,
    whole runs of every axis a head reduces, so one log of a block serves
    every head, and fold(start, stop, logs), where given, receives them
    before any head reads the block.  A head whose run of columns over all
    n0 rows would pass _BATCH_BYTES takes blocks of rows of its array seen
    as a matrix instead, after the blocks of columns, along the axes before
    the first axis such heads reduce.  Either way numpy sums each output
    cell in the same order as for the whole array, provided a block of
    columns is never one column wide while the matrix has more: axis 0
    would then be its only axis, which numpy sums pairwise rather than row
    by row.
    """
    shape = arrays[0].shape
    n0, size = shape[0], math.prod(shape)
    if len(shape) == 1 or 8 * size <= _BATCH_BYTES:
        used = range(len(arrays)) if fold else {h[0] for h in heads}
        logs = {r: _logged(arrays[r], r < raw) for r in used}
        if fold:
            fold(0, size // n0, [logs[r].reshape(n0, -1) for r in used])
        return [_reduce_column(logs[r], pf, ax, logw[aid].reshape(lead)) for r, ax, pf, aid, lead in heads]
    reduced = [np.empty(shape[:ax] + shape[ax + 1 :]) for _, ax, *_ in heads]
    columns, rows = [], []
    for k, (_, ax, *_) in enumerate(heads):
        (columns if 8 * n0 * math.prod(shape[ax:]) <= _BATCH_BYTES or ax == 0 else rows).append(k)
    if columns or fold:
        run = max((math.prod(shape[heads[k][1] :]) for k in columns if heads[k][1]), default=1)
        width = max(2, _BATCH_BYTES // (8 * n0 * run) * run)
        matrices = [a.reshape(n0, -1) for a in arrays]
        used = range(len(arrays)) if fold else {heads[k][0] for k in columns}
        for start, stop in _bounds(size // n0, width):
            logs = {r: _logged(matrices[r][:, start:stop], r < raw) for r in used}
            if fold:
                fold(start, stop, [logs[r] for r in range(len(arrays))])
            for k in columns:
                r, ax, pf, aid, _ = heads[k]
                if ax == 0:
                    reduced[k].reshape(-1)[start:stop] = _reduce_column(logs[r], pf, 0, logw[aid][:, None])
                else:
                    n = shape[ax]
                    cells = _reduce_run(logs[r], pf, n, shape[ax + 1 :], logw[aid])
                    reduced[k].reshape(n0, -1)[:, start // n : stop // n] = cells
    if rows:
        first = min(heads[k][1] for k in rows)
        outer = math.prod(shape[:first])
        matrices = [a.reshape(outer, -1) for a in arrays]
        used = {heads[k][0] for k in rows}
        for start, stop in _bounds(outer, max(1, _BATCH_BYTES * outer // (8 * size))):
            logs = {r: _logged(matrices[r][start:stop], r < raw) for r in used}
            for k in rows:
                r, ax, pf, aid, _ = heads[k]
                cells = _reduce_run(logs[r], pf, shape[ax], shape[ax + 1 :], logw[aid])
                reduced[k].reshape(outer, -1)[start:stop] = cells
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
    return Pass(space, [(0, s) for s in specs], 1).run((logv,), log_weights(space), log=False)[0]


def mixed_norm_log(f: Tensor, spec: NormSpec) -> float:
    return Pass(f.space, [(0, spec)], 1).run((f.values,), log_weights(f.space))[0][0]


def integral_log_inplace(acc: np.ndarray, space: ProductSpace, logw) -> float:
    """Log of the weighted sum of exp(acc) over the whole space; acc is overwritten."""
    for i, axis in enumerate(space.ids):
        shape = [1] * acc.ndim
        shape[i] = -1
        acc += logw[axis].reshape(shape)
    with np.errstate(divide="ignore", over="ignore"):
        return float(_logsumexp_inplace(acc.reshape(-1), 0)[0])


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
            w = f.space.weight_array(aid)
            shape = [1] * arr.ndim
            shape[ax] = -1
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
    space = _require_shared_space(tensors)
    if method == "log":
        slots, arrays = distinct_inputs(tensors)
        logw = log_weights(space)
        acc = Pass(space, (), len(arrays), slots).run(arrays, logw)[1]
        return exp_or_inf(integral_log_inplace(acc, space, logw))
    acc = tensors[0].values.copy()
    for t in tensors[1:]:
        acc *= t.values
    for i, axis in enumerate(space.axes):
        shape = [1] * acc.ndim
        shape[i] = -1
        acc *= np.asarray(axis.weights).reshape(shape)
    return float(acc.sum())
