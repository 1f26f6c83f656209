"""Randomized soundness sweeps, sharpness probes, and violation search.

Everything here is deterministic given a master seed: per-trial generators
are derived from (seed, kind index, trial index), so a sweep's report is a
pure function of its config.  Every trial draws from the same fixed ranges
of axis sizes, weights and values (the module constants below), which the
report's config echoes.  The violation search climbs by populations
of log-uniform multiplicative perturbations (exponents may be infinite, so
there is no gradient to follow) and always starts from the indicator family
that makes the geometric-mean inequalities tight.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .catalog import KINDS, InequalityInstance, build_instance, instance_to_doc
from .documents import space_to_doc, tensor_to_doc
from .errors import ValidationError, as_count
from .evaluation import evaluate_batch, evaluate_instance
from .exponents import INF, as_exponent, exponent_to_doc, harmonic_mean, json_float, reciprocal
from .perms import _kept_pairs, orbit
from .spaces import Pass, Tensor
from .specs import Axis, NormSpec, ProductSpace, as_axis_id

# The sweep's draws: atoms per axis, axis weights and tensor values (both
# log-uniform; the values are the climb's random starts too), and the most
# axes of a random parameterization.
_AXIS_SIZE_RANGE = (1, 5)
_WEIGHT_RANGE = (1e-3, 1e3)
_VALUE_RANGE = (1e-2, 1e2)
_MAX_AXES = 5
# Population climb: candidates per step, first and largest log-step (a
# growing step let values drift towards the float range's end), its factors
# when more than 1/5 of a population beats the current point and otherwise,
# and the step below which the climb resets it to _INIT_STEP.
_POPULATION = 8
_INIT_STEP = 0.5
_STEP_GROW = 1.5
_STEP_DECAY = 0.7
_MIN_STEP = 1e-4
# The most bytes of populations one step of the climb scores in one call:
# the starts climb in waves of as many as fit (at least one).
_WAVE_BYTES = 1 << 20
# The most cells a probe grid or a drawn space may hold (2^24 float64 cells are 128 MiB).
_MAX_CELLS = 1 << 24


@dataclass(frozen=True)
class TrialConfig:
    """What a randomized run is keyed by: the master seed (an integer >= 0)
    and the trials per kind (>= 1), both checked here, the pass tolerance
    and the kinds to run (None for all).  The draw ranges are the module
    constants, echoed by to_doc."""

    seed: int = 0
    trials: int = 500
    tolerance: float = 1e-8
    kinds: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "seed", as_count(self.seed, "seed"))
        object.__setattr__(self, "trials", as_count(self.trials, "trial count", 1))
        if self.kinds is not None:
            kinds = tuple(self.kinds)
            if not kinds:
                raise ValidationError("the kind list is empty")
            unknown = [k for k in kinds if k not in KINDS]
            if unknown:
                raise ValidationError(f"unknown kinds {unknown}")
            object.__setattr__(self, "kinds", kinds)

    def to_doc(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "axis_size_range": list(_AXIS_SIZE_RANGE),
            "weight_range": list(_WEIGHT_RANGE),
            "value_range": list(_VALUE_RANGE),
            "tolerance": self.tolerance,
            "kinds": list(self.kinds) if self.kinds is not None else None,
            "max_axes": _MAX_AXES,
        }


def _rng(seed, *key) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _log_uniform(rng, lo, hi, shape):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), shape))


def _draw_space(rng, axis_ids) -> ProductSpace:
    lo, hi = _AXIS_SIZE_RANGE
    axes = []
    for aid in axis_ids:
        size = int(rng.integers(lo, hi + 1))
        weights = _log_uniform(rng, *_WEIGHT_RANGE, size)
        axes.append(Axis._of(aid, tuple(weights.tolist())))  # positive finite floats: no checks
    space = ProductSpace(tuple(axes))
    if math.prod(space.shape) > _MAX_CELLS:  # before any tensor of that size is drawn
        raise ValidationError(f"a random space of shape {space.shape} holds more than {_MAX_CELLS} cells")
    return space


def _draw_tensors(rng, space: ProductSpace, count: int) -> list[Tensor]:
    return [Tensor(space, _log_uniform(rng, *_VALUE_RANGE, space.shape)) for _ in range(count)]


def random_inputs(
    cfg: TrialConfig,
    arity: int,
    n: int,
    trial_index: int = 0,
    axis_ids=None,
) -> tuple[ProductSpace, list[Tensor]]:
    """A random space with n axes and `arity` tensors, deterministic in
    (cfg.seed, trial_index)."""
    if axis_ids is None:
        axis_ids = tuple(f"x{i}" for i in range(1, n + 1))
    if len(axis_ids) != n:
        raise ValidationError(f"expected {n} axis ids, got {len(axis_ids)}")
    for aid in axis_ids:  # the caller's ids: _draw_space trusts them
        as_axis_id(aid)
    rng = _rng(cfg.seed, as_count(trial_index, "trial_index"))
    space = _draw_space(rng, axis_ids)
    return space, _draw_tensors(rng, space, arity)


# ---------------------------------------------------------------------------
# sharpness probe

@dataclass(frozen=True)
class ScalingProbe:
    """Ratios of the indicator family against the closed-form power law."""

    spec: NormSpec
    p: Fraction
    ts: tuple[float, ...]
    empirical: tuple[float, ...]
    analytic: tuple[float, ...]

    @property
    def rel_errs(self) -> tuple[float, ...]:
        """|empirical - analytic| / analytic per t; scaling_probe keeps both positive."""
        return tuple(abs(e - a) / a for e, a in zip(self.empirical, self.analytic))

    @property
    def max_rel_err(self) -> float:
        return max(self.rel_errs, default=0.0)

    def to_doc(self) -> dict:
        return {
            "spec": self.spec.to_doc(),
            "p": str(self.p),
            "rows": [
                {"t": t, "empirical": e, "analytic": a}
                for t, e, a in zip(self.ts, self.empirical, self.analytic)
            ],
            "max_rel_err": self.max_rel_err,
        }


def _indicator_space(axis_ids, t: float) -> ProductSpace:
    """Each axis gets ceil(t) unit atoms, the last weighing t - floor(t) if fractional."""
    count = math.ceil(t)
    weights = [1.0] * count
    frac = t - math.floor(t)
    if frac > 0:
        weights[-1] = frac
    return ProductSpace(tuple(Axis(aid, tuple(weights)) for aid in axis_ids))


def scaling_probe(spec: NormSpec, p, t_grid) -> ScalingProbe:
    """Probe the full-box indicator family at scales t.

    The left side is the plain L^p norm, the right side the geometric mean
    of the orbit norms; for the indicator of a box of measure t per axis the
    exact ratio is t^(n (1/p - 1/pbar)), which pins pbar as the only possible
    left-hand exponent.  Every orbit element gives the same norm on an
    indicator box, so the exponent-row orbit is used (no sortedness needed).
    """
    p = as_exponent(p)
    if p is INF:
        raise ValidationError("probe exponent must be finite")
    ts = [float(t) for t in t_grid]
    for t in ts:
        if not 0 < t < math.inf:
            raise ValidationError(f"scale parameter must be positive and finite, got {t}")
    max_t = max(ts, default=0.0)
    if math.ceil(max_t) ** spec.n > _MAX_CELLS:  # ceil(t) atoms per axis at the largest t
        raise ValidationError(
            f"the t grid needs ceil({max_t!r})^{spec.n} cells, over {_MAX_CELLS}"
        )
    orbit_specs = orbit(spec, "exponents")
    specs = [NormSpec.uniform(p, spec.axis_ids), *orbit_specs]
    try:
        expo = float(spec.n * (reciprocal(p) - reciprocal(harmonic_mean(spec.exponents))))
    except OverflowError:
        raise ValidationError("the power law's exponent is beyond the float range") from None
    empirical, analytic = [], []
    for t in ts:
        space = _indicator_space(spec.axis_ids, t)
        ones = np.broadcast_to(1.0, space.shape)  # a read-only view: no grid-sized array is made
        log_lhs, *log_orbit = Pass(space, [(0, s) for s in specs]).run((ones,), space)[0]
        log_rhs = sum(log_orbit) / len(orbit_specs)
        empirical.append(_ratio_in_range(t, "empirical", math.exp, log_lhs - log_rhs))
        analytic.append(_ratio_in_range(t, "analytic", pow, t, expo))
    return ScalingProbe(spec, p, tuple(ts), tuple(empirical), tuple(analytic))


def _ratio_in_range(t: float, side: str, fn, *args) -> float:
    """fn(*args), rejected where it leaves the float range: by overflow, or by
    underflow to 0, since a row whose analytic ratio is 0 is never checked."""
    try:
        ratio = fn(*args)
    except OverflowError:
        ratio = math.inf
    if not 0 < ratio < math.inf:  # NaN too, from inf - inf log norms
        raise ValidationError(f"at t = {t!r} the {side} ratio is beyond the float range")
    return ratio


# ---------------------------------------------------------------------------
# violation search

@dataclass(frozen=True)
class SearchResult:
    best_ratio: float
    witnesses: tuple[Tensor, ...]
    evaluations: int
    starts: int
    best_start: int
    seed: int

    def to_doc(self) -> dict:
        return {
            "best_ratio": json_float(self.best_ratio),
            "evaluations": self.evaluations,
            "starts": self.starts,
            "best_start": self.best_start,
            "seed": self.seed,
            "witnesses": [tensor_to_doc(t, inline_space=False) for t in self.witnesses],
        }


def _indicator_starts(space: ProductSpace, arity: int) -> np.ndarray:
    """Box indicators aligned with the weight order — the scaling family's
    counterpart on a fixed space.  Small boxes of light atoms and large boxes
    of heavy atoms are where power-law violations live.  With L the largest
    axis size, the box of the k lightest atoms per axis (all of an axis
    with fewer) for k = 1..L, then of the k heaviest for k = 1..L - 1 (at
    k = L it is the full box again): 2L - 1 distinct boxes, each in every
    slot, as a read-only (2L - 1, arity, *shape) view of one array."""
    orders = [np.argsort(np.asarray(a.weights)) for a in space.axes]
    size = max(space.shape)
    boxes = np.zeros((2 * size - 1, *space.shape))
    for k in range(1, size + 1):
        boxes[k - 1][np.ix_(*(order[:k] for order in orders))] = 1.0
        if k < size:
            boxes[size + k - 1][np.ix_(*(order[::-1][:k] for order in orders))] = 1.0
    return np.broadcast_to(boxes[:, None], (len(boxes), arity, *space.shape))


def _budgets(boxes: int, n_starts: int, max_evals: int):
    """Each running start's climbing budget, in start order: the first points
    of the boxes (at most max_evals of them) are counted first, a random start
    runs only while evaluations are left and its first point costs one, and
    each start takes an even share of what is left where it begins.  Lazy,
    so no list grows with n_starts."""
    evals = boxes = min(boxes, max_evals)
    for si in range(n_starts):
        if si >= boxes:
            if evals >= max_evals:
                return
            evals += 1
        budget = (max_evals - evals) // (n_starts - si)
        evals += budget
        yield budget


def maximize_ratio(
    inst: InequalityInstance,
    space: ProductSpace,
    seed: int,
    max_evals: int = 10_000,
    restarts: int = 6,
    tolerance: float = 1e-8,
) -> SearchResult:
    """Multi-start population climb for the largest lhs/rhs ratio.

    The box-indicator starts come first, then `restarts` seeded random
    starts, drawn in start order only for the starts that run, so a large
    `restarts` costs nothing beyond the budget.  Each start's budget is fixed
    before anything climbs (_budgets): an even share of what is left where it
    begins, all of which it spends.  A (1+λ) step scores _POPULATION
    log-uniform perturbations of the current tensors, each cell's factor
    exp(step · u) with u uniform on ±√3 (variance 1, as a standard normal's,
    at a fraction of its cost to draw), moves to the best if it beats them,
    and the step size follows the 1/5 success rule, up to _INIT_STEP.  A
    step below _MIN_STEP is reset to _INIT_STEP at the current point, which
    is the start's best; fresh random points are the `restarts` starts' job.

    The starts climb in lockstep waves of consecutive starts, as many as
    have populations within _WAVE_BYTES (at least one).  One evaluate_batch
    call scores a wave's first points, boxes and random draws alike; then
    each step draws every live start's population into one reused buffer
    and scores it in one call, so a small space pays for a call once a step,
    not once a start.  The bound keeps memory flat in `restarts`, where a
    lockstep of all starts would hold all their tensors at once.  A start
    reads only its own generator, budget and ratios, and evaluate_batch
    gives each set the same bits in a call of any size, so the result is
    that of climbing the starts one after another, the first start of the
    largest ratio kept.  Deterministic in the seed; re-evaluating the
    returned witnesses with evaluate_instance reproduces best_ratio exactly.
    """
    seed = as_count(seed, "seed")
    max_evals = as_count(max_evals, "max_evals", 1)
    restarts = as_count(restarts, "restarts")
    sets = max(2 * max(space.shape) - 1, _POPULATION)  # the box starts, or one start's population
    if sets * inst.arity * math.prod(space.shape) > _MAX_CELLS:  # before any box is built
        raise ValidationError(f"the climb's {sets} x {inst.arity} tensors of shape {space.shape} hold over {_MAX_CELLS} cells")

    indicators = _indicator_starts(space, inst.arity)
    n_starts = len(indicators) + restarts
    shape = indicators.shape[1:]
    per_wave = max(1, _WAVE_BYTES // (_POPULATION * indicators[0].nbytes))
    population = np.empty((min(per_wave, n_starts) * _POPULATION, *shape))
    schedule = enumerate(_budgets(len(indicators), n_starts, max_evals))
    rng_init = _rng(seed, 1)
    best_ratio, best_set, best_start, evals = -math.inf, None, 0, 0
    while wave := list(itertools.islice(schedule, per_wave)):
        starts, left = [si for si, _ in wave], [budget for _, budget in wave]
        currents = [indicators[si] if si < len(indicators) else _log_uniform(rng_init, *_VALUE_RANGE, shape) for si in starts]
        ratios = evaluate_batch(inst, space, np.stack(currents), tolerance)
        rngs = [_rng(seed, 2, si) if budget else None for si, budget in wave]  # only for starts that climb
        steps = [_INIT_STEP] * len(wave)
        evals += len(wave)
        while live := [i for i, budget in enumerate(left) if budget > 0]:
            spans, end = [], 0
            for i in live:
                size = min(_POPULATION, left[i])
                left[i] -= size
                block = population[end : end + size]
                rngs[i].random(out=block)
                block -= 0.5
                block *= steps[i] * math.sqrt(12)  # U(-1/2, 1/2) has variance 1/12
                np.exp(block, out=block)
                block *= currents[i]
                spans.append(range(end, end + size))
                end += size
            found = evaluate_batch(inst, space, population[:end], tolerance)
            evals += end
            for i, span in zip(live, spans):
                wins = [j for j in span if found[j] > ratios[i]]
                if wins:
                    top = max(wins, key=found.__getitem__)
                    currents[i], ratios[i] = population[top].copy(), found[top]
                steps[i] = min(_INIT_STEP, steps[i] * (_STEP_GROW if len(wins) > len(span) / 5 else _STEP_DECAY))
                if steps[i] < _MIN_STEP:
                    steps[i] = _INIT_STEP
        for si, ratio, current in zip(starts, ratios, currents):
            if best_set is None or ratio > best_ratio:
                best_ratio, best_set, best_start = ratio, current, si
    witnesses = tuple(Tensor(space, a) for a in best_set)
    return SearchResult(best_ratio, witnesses, evals, n_starts, best_start, seed)


# ---------------------------------------------------------------------------
# random instance parameters per kind

_EXP_POOL = ("1/3", "1/2", "2/3", "1", "4/3", "3/2", "2", "3", "4", "inf")
_FINITE_POOL = ("1/3", "1/2", "2/3", "1", "4/3", "3/2", "2", "3", "4")
# Each pool entry's exponent and its document value, parsed once.
_POOL_EXPONENT = {s: as_exponent(s) for s in _EXP_POOL}
_POOL_DOC = {s: exponent_to_doc(e) for s, e in _POOL_EXPONENT.items()}


def _pick_exponents(rng, n, pool=_EXP_POOL, distinct_cap=None):
    pool = list(pool)
    if distinct_cap is not None and distinct_cap < len(pool):
        idx = rng.choice(len(pool), size=distinct_cap, replace=False)
        pool = [pool[i] for i in sorted(idx)]
    return [pool[int(rng.integers(len(pool)))] for _ in range(n)]


def _sorted_desc(exps):
    return sorted(exps, key=_POOL_EXPONENT.__getitem__, reverse=True)


def _spec_doc(exps):
    """The document of the spec with pool exponents exps on axes x1, x2, ..."""
    return {"columns": [{"p": _POOL_DOC[e], "axis": f"x{i}"} for i, e in enumerate(exps, 1)]}


def _random_q_list(rng, count, denom=12):
    """Exponents q with sum of reciprocals <= 1, as exact rationals."""
    u = rng.integers(0, 4, count)
    d = max(denom, int(u.sum()))
    out = []
    for ui in u:
        ui = int(ui)
        out.append("inf" if ui == 0 else str(Fraction(d, ui)))
    return out


def _monotone_images(spec: NormSpec, direction: str) -> list[tuple[int, ...]]:
    """The images of the permutations that perms.raises (direction "raise")
    or perms.lowers accepts for spec, in lexicographic order: those that keep
    every pair of perms._kept_pairs in order."""
    kept = _kept_pairs(spec.exponents, direction)
    return [
        images
        for images in itertools.permutations(range(1, spec.n + 1))
        if all(images.index(i) < images.index(j) for i, j in kept)
    ]


def random_params(kind: str, rng: np.random.Generator, max_axes: int = _MAX_AXES) -> dict:
    """A valid random parameterization for the given catalog kind, with at
    most max_axes axes."""
    if kind in ("Littlewood43", "Quad6"):
        return {}
    if kind == "HolderMixed":
        n = int(rng.integers(1, max_axes + 1))
        m = int(rng.integers(2, 5))
        specs = [{"columns": []} for _ in range(m)]
        for j in range(1, n + 1):  # axis j's exponents: their reciprocals u_i / total sum to 1
            u = rng.integers(0, 7, m)
            if u.sum() == 0:
                u[int(rng.integers(m))] = 1
            total = int(u.sum())
            for spec, ui in zip(specs, u.tolist()):
                spec["columns"].append({"p": str(Fraction(total, ui)) if ui else "inf", "axis": f"x{j}"})
        return {"specs": specs}
    if kind == "MinkowskiRaise":
        n = int(rng.integers(2, max_axes + 1))
        exps = _pick_exponents(rng, n)
        spec = NormSpec._of(tuple((_POOL_EXPONENT[e], f"x{i}") for i, e in enumerate(exps, 1)))
        direction = "raise" if rng.integers(2) else "lower"
        candidates = _monotone_images(spec, direction)
        perm = candidates[int(rng.integers(len(candidates)))]
        return {"spec": _spec_doc(exps), "perm": list(perm), "direction": direction}
    if kind == "SortedSandwich":
        n = int(rng.integers(1, max_axes + 1))
        return {"spec": _spec_doc(_pick_exponents(rng, n))}
    if kind == "SymmetricHolder":
        n = int(rng.integers(1, max_axes + 1))
        return {"spec": _spec_doc(_pick_exponents(rng, n, distinct_cap=3))}
    if kind in ("SymmetricGM", "SymmetricGM1"):
        n = int(rng.integers(1, max_axes + 1))
        exps = _sorted_desc(_pick_exponents(rng, n, distinct_cap=3))
        return {"spec": _spec_doc(exps)}
    if kind == "Blei21":
        J = int(rng.integers(2, max_axes + 1))
        K = int(rng.integers(1, J))
        return {"J": J, "K": K}
    if kind == "BleiQP":
        J = int(rng.integers(2, max_axes + 1))
        K = int(rng.integers(1, J))
        while True:
            p = _FINITE_POOL[int(rng.integers(len(_FINITE_POOL)))]
            q = _EXP_POOL[int(rng.integers(len(_EXP_POOL)))]
            if _POOL_EXPONENT[p] < _POOL_EXPONENT[q]:
                return {"J": J, "K": K, "q": q, "p": p}
    if kind in ("PopaSinnamonFirst", "PopaSinnamonSecond"):
        n = int(rng.integers(2, max_axes + 1))
        return {"q": _random_q_list(rng, n)}
    if kind == "BleiPS":
        n = int(rng.integers(2, max_axes + 1))
        k = int(rng.integers(1, n))
        m = math.comb(n, k)
        params = {"n": n, "k": k, "q": _random_q_list(rng, m, denom=24)}
        if rng.integers(2):
            params["strategy"] = "random"
            params["seed"] = int(rng.integers(2**31))
        return params
    raise ValidationError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# the sweep

def _run_trial(cfg: TrialConfig, kind: str, kind_index: int, t: int) -> dict:
    rng = _rng(cfg.seed, kind_index, t)
    params = random_params(kind, rng)
    inst = build_instance(kind, params)
    space = _draw_space(rng, inst.axis_ids)
    if inst.arity > 1 and rng.integers(2):
        count = 1  # exercise the broadcast path
    else:
        count = inst.arity
    tensors = _draw_tensors(rng, space, count)
    report = evaluate_instance(
        inst, tensors, tolerance=cfg.tolerance, seed=cfg.seed, trial={"index": t}
    )
    row = {"index": t, "ratio": report.ratio, "pass": report.passed}
    if not report.passed:
        row["witness"] = {
            "instance": instance_to_doc(inst),
            "space": space_to_doc(space),
            "tensors": [tensor_to_doc(x, inline_space=False) for x in tensors],
            "report": report.to_doc(),
        }
    return row


def sweep(cfg: TrialConfig, threads: int = 1) -> dict:
    """Run the full randomized soundness suite; the report is a pure function
    of cfg.  Trials run in order on the calling thread: they hold the
    interpreter lock, and a thread pool measured slower.  `threads` must be
    a positive integer and has no effect."""
    as_count(threads, "threads", 1)
    kinds = [k for k in KINDS if cfg.kinds is None or k in cfg.kinds]
    report: dict = {"config": cfg.to_doc(), "kinds": {}, "pass": True}
    for kind in kinds:
        kind_index = KINDS.index(kind)
        rows = [_run_trial(cfg, kind, kind_index, t) for t in range(cfg.trials)]
        ratios = [r["ratio"] for r in rows]
        worst = max(range(len(rows)), key=lambda i: ratios[i])
        failures = [r["witness"] for r in rows if not r["pass"]]
        all_pass = not failures
        report["kinds"][kind] = {
            "trials": cfg.trials,
            "max_ratio": json_float(ratios[worst]),
            "max_ratio_trial": worst,
            "failures": failures,
            "pass": all_pass,
        }
        report["pass"] = report["pass"] and all_pass
    return report
