"""Randomized soundness sweeps, sharpness probes, and violation search.

Everything here is deterministic given a master seed: per-trial generators
are derived from (seed, kind index, trial index), so a sweep's report is a
pure function of its config.  The violation search climbs by populations
of multiplicative perturbations (exponents may be infinite, so there is no
gradient to follow) and always starts from the indicator family that makes
the geometric-mean inequalities tight.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .catalog import KINDS, InequalityInstance, build_instance, instance_to_doc
from .documents import space_to_doc, tensor_to_doc
from .errors import ValidationError
from .evaluation import evaluate_batch, evaluate_instance
from .exponents import INF, as_exponent, harmonic_mean, json_float, reciprocal
from .perms import _kept_pairs, orbit
from .spaces import Tensor, mixed_norm_logs
from .specs import Axis, NormSpec, ProductSpace

# Values of random tensors, in sweeps and as climb starts.
_VALUE_RANGE = (1e-2, 1e2)
# Population climb: candidates per step, first and largest log-step (a
# growing step let values drift towards the float range's end), its factors
# when more than 1/5 of a population beats the current point and otherwise,
# and the step below which the climb resets it to _INIT_STEP.
_POPULATION = 8
_INIT_STEP = 0.5
_STEP_GROW = 1.5
_STEP_DECAY = 0.7
_MIN_STEP = 1e-4
# The most cells a probe grid may hold (2^24 float64 cells are 128 MiB).
_MAX_CELLS = 1 << 24


@dataclass(frozen=True)
class TrialConfig:
    """Shared knobs for randomized trials."""

    seed: int = 0
    trials: int = 500
    axis_size_range: tuple[int, int] = (1, 5)
    weight_range: tuple[float, float] = (1e-3, 1e3)
    value_range: tuple[float, float] = _VALUE_RANGE
    tolerance: float = 1e-8
    kinds: tuple[str, ...] | None = None
    max_axes: int = 5

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("trial count must be positive")
        lo, hi = self.axis_size_range
        if not (1 <= lo <= hi):
            raise ValidationError(f"bad axis size range {self.axis_size_range}")
        if self.max_axes < 4:
            raise ValidationError(
                f"max_axes must be at least 4 (Quad6 has 4 axes), got {self.max_axes}"
            )
        for name in ("weight_range", "value_range"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi) or not math.isfinite(hi):
                raise ValidationError(f"bad {name} {getattr(self, name)}")
        if self.kinds is not None:
            unknown = [k for k in self.kinds if k not in KINDS]
            if unknown:
                raise ValidationError(f"unknown kinds {unknown}")
            object.__setattr__(self, "kinds", tuple(self.kinds))

    def to_doc(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "axis_size_range": list(self.axis_size_range),
            "weight_range": list(self.weight_range),
            "value_range": list(self.value_range),
            "tolerance": self.tolerance,
            "kinds": list(self.kinds) if self.kinds is not None else None,
            "max_axes": self.max_axes,
        }


def _rng(seed, *key) -> np.random.Generator:
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng([int(k) for k in (seed, *key)])


def _log_uniform(rng, lo, hi, shape):
    if lo == hi:
        return np.full(shape, lo)
    return np.exp(rng.uniform(math.log(lo), math.log(hi), shape))


def _draw_space(rng, cfg: TrialConfig, axis_ids) -> ProductSpace:
    lo, hi = cfg.axis_size_range
    axes = []
    for aid in axis_ids:
        size = int(rng.integers(lo, hi + 1))
        weights = _log_uniform(rng, *cfg.weight_range, size)
        axes.append(Axis(aid, tuple(float(w) for w in weights)))
    return ProductSpace(tuple(axes))


def _draw_tensors(rng, cfg: TrialConfig, space: ProductSpace, count: int) -> list[Tensor]:
    return [
        Tensor(space, _log_uniform(rng, *cfg.value_range, space.shape))
        for _ in range(count)
    ]


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
    rng = _rng(cfg.seed, trial_index)
    space = _draw_space(rng, cfg, axis_ids)
    return space, _draw_tensors(rng, cfg, space, arity)


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
    def max_rel_err(self) -> float:
        worst = 0.0
        for e, a in zip(self.empirical, self.analytic):
            if a != 0:
                worst = max(worst, abs(e - a) / abs(a))
        return worst

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
        log_lhs, *log_orbit = mixed_norm_logs(np.zeros(space.shape), space, specs)
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
    of heavy atoms are where power-law violations live.  One input set per
    distinct box, the box in every slot: a read-only (boxes, arity, *shape)
    view of one array per box."""
    boxes: dict = {}  # the distinct boxes in order of first appearance
    max_size = max(a.size for a in space.axes)
    for ascending in (True, False):
        orders = [
            np.argsort(np.asarray(a.weights))[:: 1 if ascending else -1] for a in space.axes
        ]
        for level in range(1, max_size + 1):
            vals = np.zeros(space.shape)
            picks = [order[: min(level, len(order))] for order in orders]
            vals[np.ix_(*picks)] = 1.0
            boxes.setdefault(vals.tobytes(), vals)
    return np.broadcast_to(np.array(list(boxes.values()))[:, None], (len(boxes), arity, *space.shape))


def maximize_ratio(
    inst: InequalityInstance,
    space: ProductSpace,
    seed: int,
    max_evals: int = 10_000,
    restarts: int = 6,
    tolerance: float = 1e-8,
) -> SearchResult:
    """Multi-start population climb for the largest lhs/rhs ratio.

    The box-indicator starts are evaluated first, then `restarts` seeded
    random starts are drawn as the climb reaches them, so a large
    `restarts` costs nothing beyond the budget.  Each start climbs with an
    even share of the budget left, so all of it is spent: a (1+λ) step
    scores _POPULATION log-normal perturbations of the current tensors in
    one evaluate_batch call and moves to the best if it beats them, and
    the step size follows the 1/5 success rule, up to _INIT_STEP.  A step
    below _MIN_STEP is reset to _INIT_STEP at the current point, which is
    the start's best; fresh random points are the `restarts` starts' job.
    Deterministic in the seed; re-evaluating the returned witnesses with
    evaluate_instance reproduces best_ratio exactly.
    """
    if set(space.ids) != set(inst.axis_ids):
        raise ValidationError("space axes do not match the instance")
    if max_evals < 1:
        raise ValidationError("max_evals must be positive")
    if restarts < 0:
        raise ValidationError(f"restarts must be nonnegative, got {restarts}")

    evals = 0

    def ratios(population: np.ndarray) -> list[float]:
        nonlocal evals
        evals += len(population)
        return evaluate_batch(inst, space, population, tolerance)

    indicators = _indicator_starts(space, inst.arity)
    n_starts = len(indicators) + restarts
    indicators = indicators[:max_evals]
    indicator_ratios = ratios(indicators)
    rng_init = _rng(seed, 1)
    best_ratio, best_set, best_start = -math.inf, None, 0
    for si in range(n_starts):
        if si < len(indicators):
            current, current_ratio = indicators[si], indicator_ratios[si]
        elif evals < max_evals:
            current = _log_uniform(rng_init, *_VALUE_RANGE, indicators.shape[1:])
            current_ratio = ratios(current[None])[0]
        else:
            break
        budget = (max_evals - evals) // (n_starts - si)
        current, current_ratio = _climb(ratios, _rng(seed, 2, si), current, current_ratio, budget)
        if best_set is None or current_ratio > best_ratio:
            best_ratio, best_set, best_start = current_ratio, current, si
    witnesses = tuple(Tensor(space, a) for a in best_set)
    return SearchResult(best_ratio, witnesses, evals, n_starts, best_start, seed)


def _climb(ratios, rng, current: np.ndarray, current_ratio: float, budget: int):
    """The (1+λ) climb from one start with `budget` evaluations: the best
    input set found and its ratio."""
    step = _INIT_STEP
    while budget > 0:
        size = min(_POPULATION, budget)
        population = current * np.exp(step * rng.standard_normal((size, *current.shape)))
        found = ratios(population)
        budget -= size
        wins = [j for j, r in enumerate(found) if r > current_ratio]
        if wins:
            top = max(wins, key=found.__getitem__)
            current, current_ratio = population[top], found[top]
        step = min(_INIT_STEP, step * (_STEP_GROW if len(wins) > size / 5 else _STEP_DECAY))
        if step < _MIN_STEP:
            step = _INIT_STEP
    return current, current_ratio


# ---------------------------------------------------------------------------
# random instance parameters per kind

_EXP_POOL = ("1/3", "1/2", "2/3", "1", "4/3", "3/2", "2", "3", "4", "inf")
_FINITE_POOL = ("1/3", "1/2", "2/3", "1", "4/3", "3/2", "2", "3", "4")


def _pick_exponents(rng, n, pool=_EXP_POOL, distinct_cap=None):
    pool = list(pool)
    if distinct_cap is not None and distinct_cap < len(pool):
        idx = rng.choice(len(pool), size=distinct_cap, replace=False)
        pool = [pool[i] for i in sorted(idx)]
    return [pool[int(rng.integers(len(pool)))] for _ in range(n)]


def _sorted_desc(exps):
    return sorted(exps, key=lambda s: as_exponent(s), reverse=True)


def _spec_doc(exps, n):
    return NormSpec(tuple(zip(exps, (f"x{i}" for i in range(1, n + 1))))).to_doc()


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


def random_params(kind: str, rng: np.random.Generator, max_axes: int = 5) -> dict:
    """A valid random parameterization for the given catalog kind, with at
    most max_axes axes."""
    if kind in ("Littlewood43", "Quad6"):
        return {}
    if kind == "HolderMixed":
        n = int(rng.integers(1, max_axes + 1))
        m = int(rng.integers(2, 5))
        axes = [f"x{i}" for i in range(1, n + 1)]
        recips = np.zeros((m, n), dtype=object)
        for j in range(n):
            u = rng.integers(0, 7, m)
            if u.sum() == 0:
                u[int(rng.integers(m))] = 1
            total = int(u.sum())
            for i in range(m):
                recips[i, j] = Fraction(int(u[i]), total)
        specs = []
        for i in range(m):
            cols = []
            for j in range(n):
                r = recips[i, j]
                p = "inf" if r == 0 else str(1 / r)
                cols.append({"p": p, "axis": axes[j]})
            specs.append({"columns": cols})
        return {"specs": specs}
    if kind == "MinkowskiRaise":
        n = int(rng.integers(2, max_axes + 1))
        exps = _pick_exponents(rng, n)
        spec = NormSpec(tuple(zip(exps, (f"x{i}" for i in range(1, n + 1)))))
        direction = "raise" if rng.integers(2) else "lower"
        candidates = _monotone_images(spec, direction)
        perm = candidates[int(rng.integers(len(candidates)))]
        return {"spec": spec.to_doc(), "perm": list(perm), "direction": direction}
    if kind == "SortedSandwich":
        n = int(rng.integers(1, max_axes + 1))
        return {"spec": _spec_doc(_pick_exponents(rng, n), n)}
    if kind == "SymmetricHolder":
        n = int(rng.integers(1, max_axes + 1))
        return {"spec": _spec_doc(_pick_exponents(rng, n, distinct_cap=3), n)}
    if kind in ("SymmetricGM", "SymmetricGM1"):
        n = int(rng.integers(1, max_axes + 1))
        exps = _sorted_desc(_pick_exponents(rng, n, distinct_cap=3))
        return {"spec": _spec_doc(exps, n)}
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
            if as_exponent(p) < as_exponent(q):
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
    params = random_params(kind, rng, cfg.max_axes)
    inst = build_instance(kind, params)
    space = _draw_space(rng, cfg, inst.axis_ids)
    if inst.arity > 1 and rng.integers(2):
        count = 1  # exercise the broadcast path
    else:
        count = inst.arity
    tensors = _draw_tensors(rng, cfg, space, count)
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
    if not isinstance(threads, int) or threads < 1:
        raise ValidationError(f"threads must be a positive integer, got {threads!r}")
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
