"""Command-line front end.

Subcommands map one-to-one onto the library: eval, orbit, decompose, plan,
verify, coeffs, probe, search, sweep.  Machine output is JSON on stdout
(sorted keys, so identical runs are byte-identical); diagnostics go to
stderr.  Exit codes: 0 ok, 1 verification failure, 2 usage or validation
error.  Document arguments accept an inline JSON literal or a file path.
The exact subcommands (orbit, decompose, plan, coeffs) never load numpy:
the handlers of the numeric ones import the numeric modules themselves.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .catalog import (
    KINDS,
    _rational_doc,
    _solve_coefficients,
    build_instance,
    instance_from_doc,
    instance_to_doc,
    size_k_subsets,
)
from .errors import ValidationError
from .exponents import as_exponent, exponent_to_doc, json_float, to_float
from .perms import Permutation, decompose, orbit, orbit_info
from .specs import NormSpec

PROBE_RTOL = 1e-9


def _check_tolerance(value: float, source: str) -> float:
    if not (value >= 0 and math.isfinite(value)):
        raise ValidationError(f"{source} must be a finite nonnegative number, got {value!r}")
    return value


def _default_tolerance() -> float:
    raw = os.environ.get("MIXEDNORM_TOL")
    if raw is None:
        return 1e-8
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"MIXEDNORM_TOL is not a number: {raw!r}")
    return _check_tolerance(value, "MIXEDNORM_TOL")


def _load_doc(arg: str):
    """A document argument: inline JSON if it looks like JSON, else a file
    (whose contents may be JSON or CSV text)."""
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        try:
            with open(arg) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read document {arg!r}: {exc}")
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        try:
            return json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to convert
            raise ValidationError(f"invalid JSON in {arg!r}: {exc}")
    return text  # CSV tensor text


def _write(text: str) -> None:
    """Write text to stdout.  Once the reader has closed the pipe, stdout is
    pointed at os.devnull, so the rest of the output and the interpreter's
    flush at exit go nowhere instead of raising BrokenPipeError; the command
    still exits with its own code."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(doc) -> None:
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _resolve_kind(name: str) -> str:
    for kind in KINDS:
        if kind.lower() == name.lower():
            return kind
    raise ValidationError(f"unknown kind {name!r}; expected one of {', '.join(KINDS)}")


def _instance_from_args(args):
    if getattr(args, "instance", None) is not None:
        if getattr(args, "kind", None) is not None:
            raise ValidationError("give either --instance or --kind, not both")
        doc = _load_doc(args.instance)
        if not isinstance(doc, dict):
            raise ValidationError("instance document must be a JSON object")
        return instance_from_doc(doc)
    if getattr(args, "kind", None) is None:
        raise ValidationError("an instance is required: pass --instance or --kind")
    params = _load_doc(args.params) if args.params is not None else None
    if params is not None and not isinstance(params, dict):
        raise ValidationError("--params must be a JSON object")
    return build_instance(_resolve_kind(args.kind), params)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_eval(args) -> int:
    from .documents import space_from_doc, tensor_from_doc
    from .spaces import eval_mixed_norm, exp_or_inf, mixed_norm_log

    spec = NormSpec.from_doc(_load_doc(args.spec))
    space = space_from_doc(_load_doc(args.space)) if args.space is not None else None
    tensor = tensor_from_doc(_load_doc(args.tensor), space)
    log_norm = mixed_norm_log(tensor, spec)
    value = exp_or_inf(log_norm) if args.method == "log" else eval_mixed_norm(tensor, spec, "direct")
    _emit(
        {
            "spec": spec.to_doc(),
            "method": args.method,
            "norm": json_float(value),
            "log_norm": json_float(log_norm),
        }
    )
    return 0


def _cmd_orbit(args) -> int:
    spec = NormSpec.from_doc(_load_doc(args.spec))
    specs = orbit(spec, args.mode)  # checks the orbit's size before orbit_info computes it
    info = orbit_info(spec)
    _emit(
        {
            "mode": args.mode,
            "m": info.size,
            "pbar": exponent_to_doc(info.harmonic_mean),
            "pbar_float": json_float(to_float(info.harmonic_mean)),
            "values": [exponent_to_doc(v) for v in info.values],
            "multiplicities": list(info.multiplicities),
            "orbit": [s.to_doc() for s in specs],
        }
    )
    return 0


def _cmd_decompose(args) -> int:
    spec = NormSpec.from_doc(_load_doc(args.spec))
    perm_doc = _load_doc(args.perm)
    trace = decompose(Permutation.from_doc(perm_doc), spec, args.direction)
    _emit(trace.to_doc())
    return 0


def _cmd_plan(args) -> int:
    _emit(instance_to_doc(_instance_from_args(args)))
    return 0


def _cmd_verify(args) -> int:
    from .documents import space_from_doc, tensor_from_doc
    from .evaluation import evaluate_instance

    inst = _instance_from_args(args)
    reports = []
    if args.random is not None:
        if args.tensors:
            raise ValidationError("give either --tensors or --random, not both")
        from .search import TrialConfig, random_inputs
        cfg = TrialConfig(seed=args.seed, trials=args.random, tolerance=args.tol)
        n = len(inst.axis_ids)
        for t in range(args.random):
            space, tensors = random_inputs(
                cfg, inst.arity, n, trial_index=t, axis_ids=inst.axis_ids
            )
            reports.append(
                evaluate_instance(
                    inst, tensors, tolerance=args.tol, seed=args.seed, trial={"index": t}
                )
            )
    else:
        if not args.tensors:
            raise ValidationError("pass input tensors via --tensors or use --random N --seed S")
        space = space_from_doc(_load_doc(args.space)) if args.space is not None else None
        tensors = [tensor_from_doc(_load_doc(d), space) for d in args.tensors]
        reports.append(evaluate_instance(inst, tensors, tolerance=args.tol))
    all_pass = all(r.passed for r in reports)
    worst = max(range(len(reports)), key=lambda i: reports[i].ratio)
    _emit(
        {
            "kind": inst.kind,
            "instance": instance_to_doc(inst),
            "trials": len(reports),
            "pass": all_pass,
            "max_ratio": json_float(reports[worst].ratio),
            "max_ratio_trial": worst,
            "reports": [r.to_doc() for r in reports],
        }
    )
    return 0 if all_pass else 1


def _cmd_coeffs(args) -> int:
    coefficients = _load_doc(args.coefficients) if args.coefficients is not None else None
    subsets = size_k_subsets(args.n, args.k)
    c = _solve_coefficients(args.n, args.k, subsets, args.strategy, args.seed, coefficients)
    doc = {
        "n": args.n,
        "k": args.k,
        "subsets": [list(s) for s in subsets],
        "c": [_rational_doc(v) for v in c],
        "c_float": [float(v) for v in c],
        "strategy": args.strategy,
    }
    if args.seed is not None:
        doc["seed"] = args.seed
    _emit(doc)
    return 0


def _cmd_probe(args) -> int:
    from .search import scaling_probe

    spec = NormSpec.from_doc(_load_doc(args.spec))
    try:
        t_grid = [float(x) for x in re.split(r"[,\s]+", args.t_grid.strip()) if x]
    except ValueError as exc:
        raise ValidationError(f"bad t grid {args.t_grid!r}: {exc}") from None
    if not t_grid:
        raise ValidationError("empty t grid")
    result = scaling_probe(spec, as_exponent(args.p), t_grid)
    if args.format == "csv":
        rows = zip(result.ts, result.empirical, result.analytic, result.rel_errs)
        lines = ["t,empirical,analytic,rel_err", *(",".join(map(repr, row)) for row in rows)]
        _write("\n".join(lines) + "\n")
    else:
        _emit(result.to_doc())
    return 0 if result.max_rel_err <= PROBE_RTOL else 1


def _cmd_search(args) -> int:
    from .documents import space_from_doc
    from .search import maximize_ratio

    inst = _instance_from_args(args)
    space = space_from_doc(_load_doc(args.space))
    result = maximize_ratio(
        inst,
        space,
        seed=args.seed,
        max_evals=args.max_evals,
        restarts=args.restarts,
        tolerance=args.tol,
    )
    doc = result.to_doc()
    violation = result.best_ratio > 1 + args.tol
    doc["violation"] = violation
    doc["kind"] = inst.kind
    _emit(doc)
    return 1 if violation else 0


def _cmd_sweep(args) -> int:
    from .search import TrialConfig, sweep

    kinds = None
    if args.kinds is not None:
        kinds = tuple(_resolve_kind(k) for k in args.kinds.split(",") if k)
    cfg = TrialConfig(
        seed=args.seed, trials=args.trials, tolerance=args.tol, kinds=kinds
    )
    report = sweep(cfg, threads=args.threads)
    _emit(report)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixednorm",
        description="Weighted mixed-norm evaluation, permutation calculus, "
        "and inequality verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a mixed norm of one tensor")
    p.add_argument("--tensor", required=True, help="tensor document (JSON or CSV)")
    p.add_argument("--space", help="space document (required unless inlined in the tensor)")
    p.add_argument("--spec", required=True, help="norm spec document")
    p.add_argument("--method", choices=("log", "direct"), default="log")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("orbit", help="orbit, size, and harmonic mean of a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--mode", choices=("exponents", "variables"), default="exponents")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("decompose", help="factor a raising/lowering permutation")
    p.add_argument("--spec", required=True)
    p.add_argument("--perm", required=True, help="JSON array of 1-based images")
    p.add_argument("--direction", choices=("raise", "lower"), default="raise")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("plan", help="build an inequality instance document")
    p.add_argument("--kind", required=True)
    p.add_argument("--params", help="parameter document (JSON)")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("verify", help="check an instance on given or random inputs")
    p.add_argument("--instance", help="instance document (e.g. from `plan`)")
    p.add_argument("--kind")
    p.add_argument("--params")
    p.add_argument("--space")
    p.add_argument("--tensors", nargs="+", default=[], help="tensor documents")
    p.add_argument("--random", type=int, metavar="N", help="number of random trials")
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("coeffs", help="solve subset coefficients")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--strategy",
        choices=("uniform", "random", "seeded-random-feasible", "user", "user-supplied"),
        default="uniform",
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--coefficients", help="JSON array (user strategy)")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("probe", help="scaling-family sharpness probe")
    p.add_argument("--spec", required=True)
    p.add_argument("--p", required=True, help="test exponent (finite)")
    p.add_argument(
        "--t-grid",
        default="1,2,4,8,16,32,64,128,256,512,1024",
        help="comma-separated scale parameters",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("search", help="climb the lhs/rhs ratio of an instance by seeded populations")
    p.add_argument("--instance")
    p.add_argument("--kind")
    p.add_argument("--params")
    p.add_argument("--space", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-evals", type=int, default=10_000)
    p.add_argument("--restarts", type=int, default=6)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("sweep", help="randomized soundness sweep over catalog kinds")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--kinds", help="comma-separated kind names (default: all)")
    p.add_argument("--threads", type=int, default=1, help="positive; has no effect on output")
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_sweep)

    return parser


def _require_seed(args) -> None:
    """Randomized subcommands must be explicitly seeded."""
    if args.command == "sweep" and args.seed is None:
        raise ValidationError("sweep is randomized: --seed is required")
    if args.command == "search" and args.seed is None:
        raise ValidationError("search is randomized: --seed is required")
    if args.command == "verify" and args.random is not None and args.seed is None:
        raise ValidationError("verify --random is randomized: --seed is required")
    if (
        args.command == "coeffs"
        and args.strategy in ("random", "seeded-random-feasible")
        and args.seed is None
    ):
        raise ValidationError("the random coefficient strategy requires --seed")


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if hasattr(args, "tol"):  # only the commands that take --tol read MIXEDNORM_TOL
            args.tol = _default_tolerance() if args.tol is None else _check_tolerance(args.tol, "--tol")
        _require_seed(args)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
