"""Evaluation of catalog instances: both sides of an inequality in the log
domain, their ratio, and the report of one verification.

An instance caches one `spaces.Pass` per space axis order and pattern of
repeated inputs.  `evaluate_instance` runs it on one set of tensors;
`evaluate_batch` runs the same pass on K sets in one call, each set's ratio
bit for bit what `evaluate_instance` reports for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import GmLpNorm, InequalityInstance, MixedNorm
from .errors import ValidationError
from .exponents import json_float
from .spaces import Pass, Tensor, as_float_array, check_values, distinct_inputs, exp_or_inf, log_weights
from .specs import NormSpec


@dataclass(frozen=True)
class VerificationReport:
    lhs: float
    rhs: float
    ratio: float
    margin: float
    passed: bool
    hard_failure: bool
    tolerance: float
    seed: int | None
    trial: dict

    def to_doc(self) -> dict:
        return {
            "lhs": json_float(self.lhs),
            "rhs": json_float(self.rhs),
            "ratio": json_float(self.ratio),
            "margin": json_float(self.margin),
            "pass": self.passed,
            "hard_failure": self.hard_failure,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "trial": {
                k: json_float(v) if isinstance(v, float) else v
                for k, v in self.trial.items()
            },
        }


def _resolve_inputs(inst: InequalityInstance, tensors) -> list[Tensor]:
    tensors = list(tensors)
    if len(tensors) == inst.arity:
        return tensors
    if len(tensors) == 1 and inst.arity > 1:
        return tensors * inst.arity  # one function in every slot
    raise ValidationError(
        f"{inst.kind} takes {inst.arity} tensors (or 1 to broadcast), got {len(tensors)}"
    )


def _pair_ratio(log_lhs: float, log_rhs: float, tolerance: float):
    """(ratio, hard_failure) under the 0/0 -> 0 convention."""
    if log_rhs == -math.inf:
        if log_lhs == -math.inf or exp_or_inf(log_lhs) <= tolerance:
            return 0.0, False
        return math.inf, True
    return exp_or_inf(log_lhs - log_rhs), False


def _compile_pass(inst: InequalityInstance, space, slot_rows) -> tuple[Pass, tuple[float, ...]]:
    """The instance's pass for one space axis order and pattern of repeated
    inputs, with the right-side factors' weights.  Its norms, in output
    order: the right-side factors, the left side, then `lower`.  A GmLpNorm
    or ProductIntegral left side reads the pass's slot sum: a GmLpNorm is
    the L^exponent norm of the slots' mean, and a ProductIntegral the L^1
    norm of their sum (Fubini)."""
    lhs = inst.lhs
    requests = [(slot_rows[f.input_index], f.spec) for f in inst.rhs]
    if isinstance(lhs, MixedNorm):
        requests.append((0, lhs.spec))
    else:
        exponent = lhs.exponent if isinstance(lhs, GmLpNorm) else 1
        requests.append((None, NormSpec.uniform(exponent, space.ids)))
    if inst.lower is not None:
        requests.append((0, inst.lower))
    weights = tuple(float(f.weight) for f in inst.rhs)
    return Pass(space, requests, slot_rows, isinstance(lhs, GmLpNorm)), weights


def _log_sides(inst: InequalityInstance, space, slot_rows, arrays) -> list[tuple]:
    """(log lhs, log rhs, log lower or None) of each input set of arrays, a
    (K, inputs, *shape) array or a list of one set's distinct inputs, in one
    pass cached on the instance for the space's axis order and the pattern
    of repeated inputs."""
    key = (space.ids, slot_rows)
    cached = inst._passes.get(key)
    if cached is None:
        cached = inst._passes[key] = _compile_pass(inst, space, slot_rows)
    evaluation, weights = cached
    lhs, sides = len(inst.rhs), []
    for values in evaluation.run(arrays, log_weights(space)):
        log_rhs = 0.0
        for weight, v in zip(weights, values):
            log_rhs += weight * v
        sides.append((values[lhs], log_rhs, values[-1] if inst.lower is not None else None))
    return sides


def _check_space(inst: InequalityInstance, space) -> None:
    if set(space.ids) != set(inst.axis_ids):
        raise ValidationError(
            f"instance axes {sorted(inst.axis_ids)} do not match space axes {sorted(space.ids)}"
        )


def _ratio(log_lhs: float, log_rhs: float, log_lo: float | None, tolerance: float) -> tuple:
    """(ratio, hard_failure, numerator, denominator) of one input set: the
    worse of lower <= lhs and lhs <= rhs where a lower spec is set."""
    if log_lo is not None:
        r1, h1 = _pair_ratio(log_lo, log_lhs, tolerance)  # lower <= middle
        r2, h2 = _pair_ratio(log_lhs, log_rhs, tolerance)  # middle <= upper
        if r1 >= r2:
            return r1, h1, log_lo, log_lhs
        return r2, h2, log_lhs, log_rhs
    return (*_pair_ratio(log_lhs, log_rhs, tolerance), log_lhs, log_rhs)


def batch_log_sides(inst: InequalityInstance, space, values) -> list[tuple]:
    """(log lhs, log rhs, log lower or None) of each input set of values, a
    (K, arity, *space.shape) float array: set k puts values[k, i] in slot
    i, as evaluate_instance would with one Tensor per slot, and gets the
    same bits.  The values get Tensor's checks once for the whole array."""
    _check_space(inst, space)
    values = as_float_array(values)
    if values.shape[1:2] != (inst.arity,):
        raise ValidationError(f"{inst.kind} takes {inst.arity} tensors per input set, got shape {values.shape}")
    check_values(values, space.shape, lead=2)
    if not len(values):
        return []
    return _log_sides(inst, space, tuple(range(inst.arity)), values)


def evaluate_batch(inst: InequalityInstance, space, values, tolerance: float = 1e-8) -> list[float]:
    """The ratio evaluate_instance reports for each input set of values, a
    (K, arity, *space.shape) float array, from one pass over all of them."""
    return [_ratio(*sides, tolerance)[0] for sides in batch_log_sides(inst, space, values)]


def evaluate_instance(
    inst: InequalityInstance,
    tensors,
    tolerance: float = 1e-8,
    seed: int | None = None,
    trial: dict | None = None,
) -> VerificationReport:
    """Evaluate both sides in the log domain and report the ratio.

    pass <=> ratio <= 1 + tolerance; a zero right side with a left side above
    tolerance is flagged as a hard failure.  A side beyond the float range is
    reported as inf.
    """
    fs = _resolve_inputs(inst, tensors)
    space = fs[0].space
    for t in fs[1:]:
        if t.space != space:
            raise ValidationError("all tensors must live on one space")
    _check_space(inst, space)
    meta = dict(trial or {})
    meta["kind"] = inst.kind
    if inst.derived.get("notes"):
        meta["notes"] = list(inst.derived["notes"])

    slot_rows, arrays = distinct_inputs(fs)
    log_lhs, log_rhs, log_lo = _log_sides(inst, space, slot_rows, arrays)[0]
    ratio, hard, log_num, log_den = _ratio(log_lhs, log_rhs, log_lo, tolerance)
    lhs_v, rhs_v = exp_or_inf(log_num), exp_or_inf(log_den)
    if log_lo is not None:
        meta["log_lower"], meta["log_middle"], meta["log_upper"] = log_lo, log_lhs, log_rhs
    else:
        meta["log_lhs"], meta["log_rhs"] = log_lhs, log_rhs

    passed = (not hard) and ratio <= 1 + tolerance
    if math.isfinite(rhs_v) and math.isfinite(lhs_v):
        margin = rhs_v - lhs_v
    elif rhs_v == lhs_v:
        margin = 0.0
    else:
        margin = math.inf if rhs_v > lhs_v else -math.inf
    return VerificationReport(
        lhs=lhs_v,
        rhs=rhs_v,
        ratio=ratio,
        margin=margin,
        passed=passed,
        hard_failure=hard,
        tolerance=tolerance,
        seed=seed,
        trial=meta,
    )
