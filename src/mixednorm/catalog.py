"""A catalog of mixed-norm inequalities with exact derived exponents.

Each instance is one inequality over named axes: a typed left side bounded
by a product of weighted right-side factors.  The left side is a
ProductIntegral (the integral of the inputs' product), a GmLpNorm (the L^p
norm of their geometric mean) or a MixedNorm (one mixed norm of the first
input); each right-side factor is a mixed norm of one input raised to a
rational weight, so the factors run over an orbit, a subset family or a
Holder system.  SortedSandwich also carries a `lower` spec whose norm must
not exceed the left side.  The exact rational data the inequality needs
(harmonic means, complementary exponents, subset coefficients) is kept in a
`derived` block.  Instances are built from plain parameter dicts, serialize
to {"kind", "params", "derived"} documents, and are re-derived and
cross-checked on load.  All of this is exact and needs no numpy; the
`evaluation` module evaluates instances on tensors.

Kinds
-----
HolderMixed         product integral vs product of mixed norms, reciprocal
                    exponents summing to 1 on every axis
MinkowskiRaise      single mixed norm vs its raised (or lowered) rearrangement
SortedSandwich      norm squeezed between its ascending and descending sorts
SymmetricHolder     L^pbar norm of a geometric mean vs the exponent-row orbit
SymmetricGM         same with the variable-row orbit (sorted exponents)
SymmetricGM1        single-function case of SymmetricGM
Littlewood43        SymmetricGM1 at exponents (2, 1): the 4/3 inequality
Blei21              exponent rows of 2s and 1s indexed by K-subsets
BleiQP              exponent rows of qs and ps indexed by K-subsets
PopaSinnamonFirst   BleiPS at k = 1 with uniform coefficients: n functions,
                    inner exponent q_j over the other axes
PopaSinnamonSecond  BleiPS at k = n - 1 with uniform coefficients: n
                    functions, inner exponent q_j over the own axis
BleiPS              subset-indexed family with coefficients c_i solving
                    sum_{S_i ∋ j} c_i = 1
Quad6               the fixed n=4, k=2, q=12 instance of BleiPS (six factors)
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations

from .errors import ValidationError
from .exponents import (
    INF,
    Exponent,
    as_exponent,
    exponent_to_doc,
    harmonic_mean,
    json_float,
    reciprocal,
    to_float,
)
from .perms import (
    Permutation,
    apply_permutation,
    inversion_count,
    lowers,
    orbit,
    raises,
    sorting_permutations,
)
from .specs import _MAX_COLUMNS, NormSpec

_RESIDUAL_TOL = 1e-12


def check_holder_system(specs) -> tuple[bool, dict[str, Fraction]]:
    """Do the reciprocal exponents sum to 1 on every axis?

    Returns (ok, residuals) where residuals[axis] = sum_i 1/p_{i,axis} - 1,
    exact rationals.  ok is True when every residual is 0 or within 1e-12
    (float-derived exponents carry their binary values exactly, so a system
    assembled from rationals must balance exactly to pass as exact).
    """
    if not specs:
        raise ValidationError("empty norm spec list")
    axis_set = set(specs[0].axis_ids)
    for s in specs[1:]:
        if set(s.axis_ids) != axis_set:
            raise ValidationError(
                f"norm specs cover different axes: {sorted(axis_set)} vs {sorted(s.axis_ids)}"
            )
    residuals = {}
    for aid in sorted(axis_set):
        total = sum((reciprocal(s.exponent_for(aid)) for s in specs), Fraction(0))
        residuals[aid] = total - 1
    ok = all(abs(r) <= _RESIDUAL_TOL for r in residuals.values())
    return ok, residuals


def size_k_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {1..n} in lexicographic order; a family whose M
    specs would hold more than _MAX_COLUMNS columns is rejected before it is
    enumerated."""
    if not 0 < k < n:
        raise ValidationError(f"need 0 < k < n, got k={k}, n={n}")
    m = math.comb(n, k)
    if m * n > _MAX_COLUMNS:
        raise ValidationError(
            f"{m} {k}-subsets of {n} axes hold {m * n} columns, over {_MAX_COLUMNS}"
        )
    return list(combinations(range(1, n + 1), k))


def _validate_coefficients(n, k, subsets, coeffs):
    if len(coeffs) != len(subsets):
        raise ValidationError(f"need {len(subsets)} coefficients, got {len(coeffs)}")
    for i, c in enumerate(coeffs):
        if not c >= 0:
            raise ValidationError(f"coefficient c_{i + 1} = {c} is negative or not a number")
    exact = all(isinstance(c, (Fraction, int)) for c in coeffs)
    for j in range(1, n + 1):
        total = sum(c for c, s in zip(coeffs, subsets) if j in s)
        residual = total - 1
        if exact:
            if residual != 0:
                raise ValidationError(
                    f"coefficients do not cover axis {j}: sum is {total}, want 1"
                )
        elif abs(residual) > _RESIDUAL_TOL:
            raise ValidationError(
                f"coefficients do not cover axis {j}: residual {float(residual):.3e}"
            )


def solve_subset_coefficients(
    n: int, k: int, strategy: str = "uniform", seed: int | None = None, coefficients=None
):
    """Nonnegative c_i over the k-subsets of {1..n} with sum_{S_i ∋ j} c_i = 1.

    strategy 'uniform' returns the exact 1/binom(n-1, k-1) point;
    'random' (alias 'seeded-random-feasible') adds a seeded direction from
    the null space of the incidence constraints, scaled to stay nonnegative;
    'user' (alias 'user-supplied') validates the supplied coefficients.
    """
    return _solve_coefficients(n, k, size_k_subsets(n, k), strategy, seed, coefficients)


def _solve_coefficients(n, k, subsets, strategy, seed, coefficients):
    """solve_subset_coefficients on the k-subsets of {1..n} already listed."""
    if not isinstance(strategy, str):
        raise ValidationError(f"unknown coefficient strategy {strategy!r}")
    strategy = {"seeded-random-feasible": "random", "user-supplied": "user"}.get(
        strategy, strategy
    )
    if strategy == "uniform":
        c = Fraction(1, math.comb(n - 1, k - 1))
        return tuple(c for _ in subsets)
    if strategy == "user":
        if not isinstance(coefficients, (list, tuple)):
            raise ValidationError("user strategy needs an explicit list of coefficients")
        coeffs = []
        try:
            for v in coefficients:
                if isinstance(v, str) or isinstance(v, int):
                    coeffs.append(Fraction(v))
                elif isinstance(v, Fraction):
                    coeffs.append(v)
                else:
                    coeffs.append(float(v))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a coefficient: {v!r}") from exc
        _validate_coefficients(n, k, subsets, coeffs)
        return tuple(coeffs)
    if strategy == "random":
        if not isinstance(seed, int) or seed < 0:
            raise ValidationError(f"random strategy needs a nonnegative integer seed, got {seed!r}")
        import numpy as np  # the one numeric step of the exact layer
        uniform = np.full(len(subsets), 1.0 / math.comb(n - 1, k - 1))
        incidence = np.zeros((n, len(subsets)))
        for i, s in enumerate(subsets):
            for j in s:
                incidence[j - 1, i] = 1.0
        # orthonormal null-space basis of the incidence constraints
        _, sing, vt = np.linalg.svd(incidence)
        rank = int(np.sum(sing > 1e-12 * sing[0]))
        null_basis = vt[rank:]
        if null_basis.shape[0] == 0:
            return tuple(Fraction(1, math.comb(n - 1, k - 1)) for _ in subsets)
        rng = np.random.default_rng([int(seed), 0x5EED])
        direction = null_basis.T @ (null_basis @ rng.standard_normal(len(subsets)))
        peak = np.max(np.abs(direction))
        if peak < 1e-12:
            return tuple(Fraction(1, math.comb(n - 1, k - 1)) for _ in subsets)
        direction /= peak
        negative = direction < 0
        step_cap = np.min(uniform[negative] / -direction[negative]) if negative.any() else 1.0
        c = uniform + 0.5 * step_cap * direction
        c = np.maximum(c, 0.0)
        coeffs = tuple(float(v) for v in c)
        _validate_coefficients(n, k, subsets, coeffs)
        return coeffs
    raise ValidationError(f"unknown coefficient strategy {strategy!r}")


@dataclass(frozen=True)
class SubsetSystem:
    """The combinatorial data behind the subset-indexed inequalities."""

    n: int
    k: int
    subsets: tuple[tuple[int, ...], ...]
    c: tuple

    def __post_init__(self):
        expected = size_k_subsets(self.n, self.k)
        if list(self.subsets) != expected:
            raise ValidationError("subsets must be the k-subsets of {1..n} in lex order")
        _validate_coefficients(self.n, self.k, self.subsets, self.c)

    def to_doc(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "subsets": [list(s) for s in self.subsets],
            "c": [_rational_doc(v) for v in self.c],
            "c_float": [float(v) for v in self.c],
        }


def _rational_doc(v):
    if isinstance(v, Fraction):
        return str(v)
    return float(v)


@dataclass(frozen=True)
class RhsFactor:
    spec: NormSpec
    weight: Fraction  # the norm enters the right-hand side raised to this power
    input_index: int  # which input tensor the norm applies to


@dataclass(frozen=True)
class ProductIntegral:
    """Left side: the integral of the product of the inputs."""


@dataclass(frozen=True)
class GmLpNorm:
    """Left side: the uniform L^exponent norm of the inputs' geometric mean."""

    exponent: Exponent


@dataclass(frozen=True)
class MixedNorm:
    """Left side: one mixed norm of the first input."""

    spec: NormSpec


@dataclass(frozen=True)
class InequalityInstance:
    """One concrete inequality: lhs(tensors) <= prod_i ||f_(idx_i)||_{spec_i}^{w_i},
    and also ||f_0||_lower <= lhs(tensors) where `lower` is set."""

    kind: str
    axis_ids: tuple[str, ...]
    arity: int
    lhs: ProductIntegral | GmLpNorm | MixedNorm
    rhs: tuple[RhsFactor, ...]
    params: dict
    derived: dict
    lower: NormSpec | None = None
    # the `evaluation` module's passes with the factor weights, keyed by
    # (space axis ids, slot -> row, input sets)
    _passes: dict = field(default_factory=dict, init=False, compare=False, repr=False)


# ---------------------------------------------------------------------------
# builders

def _default_axes(n: int, given=None) -> tuple[str, ...]:
    if given is None:
        return tuple(f"x{i}" for i in range(1, n + 1))
    if not isinstance(given, (list, tuple)):
        raise ValidationError(f"axes must be a list of ids, got {given!r}")
    axes = tuple(str(a) for a in given)
    if len(axes) != n:
        raise ValidationError(f"expected {n} axis ids, got {len(axes)}")
    if len(set(axes)) != n:
        raise ValidationError(f"duplicate axis ids: {list(axes)}")
    return axes


def _spec_from_params(params, key="spec") -> NormSpec:
    if key not in params:
        raise ValidationError(f"missing parameter {key!r}")
    doc = params[key]
    if isinstance(doc, NormSpec):
        return doc
    return NormSpec.from_doc(doc)


def _gm_builder(kind, axes, orbit_specs, pbar, multi_input, params_norm, params, **extra_derived):
    """Assemble ||GM(f_1..f_m)||_pbar <= prod_i ||f_i||_{orbit_i}^(1/m), the one
    shape of the geometric-mean family; params['lhs_exponent'] perturbs pbar."""
    m = len(orbit_specs)
    override = params.get("lhs_exponent")
    lhs_e = as_exponent(override) if override is not None else pbar
    derived = {
        "pbar": str(pbar),
        "pbar_float": json_float(to_float(pbar)),
        "m": m,
        **extra_derived,
        "orbit": [s.to_doc() for s in orbit_specs],
    }
    if lhs_e != pbar:
        derived["perturbed"] = True
        params_norm["lhs_exponent"] = str(lhs_e)
    return InequalityInstance(
        kind=kind,
        axis_ids=axes,
        arity=m if multi_input else 1,
        lhs=GmLpNorm(lhs_e),
        rhs=tuple(
            RhsFactor(s, Fraction(1, m), i if multi_input else 0)
            for i, s in enumerate(orbit_specs)
        ),
        params=params_norm,
        derived=derived,
    )


def _orbit_gm(kind, spec, mode, multi_input, params_norm, params):
    """A geometric-mean instance over the orbit of spec."""
    return _gm_builder(
        kind, spec.axis_ids, orbit(spec, mode), harmonic_mean(spec.exponents),
        multi_input, params_norm, params,
    )


def _build_symmetric_holder(params):
    spec = _spec_from_params(params)
    return _orbit_gm("SymmetricHolder", spec, "exponents", True, {"spec": spec.to_doc()}, params)


def _build_symmetric_gm(kind, params):
    """SymmetricGM (one input per orbit factor) and SymmetricGM1 (one input)."""
    spec = _spec_from_params(params)
    if not spec.is_nonincreasing():
        raise ValidationError(f"{kind} needs exponents sorted nonincreasing")
    multi_input = kind == "SymmetricGM"
    return _orbit_gm(kind, spec, "variables", multi_input, {"spec": spec.to_doc()}, params)


def _build_littlewood43(params):
    axes = _default_axes(2, params.get("axes"))
    spec = NormSpec(((Fraction(2), axes[0]), (Fraction(1), axes[1])))
    return _orbit_gm("Littlewood43", spec, "variables", False, {"axes": list(axes)}, params)


def _subset_specs(axes, subsets, inner_exps, outer_exps):
    """One spec per subset: its inner exponent over the complement, its outer
    exponent over the subset."""
    specs = []
    for s, inner_e, outer_e in zip(subsets, inner_exps, outer_exps):
        inner = [(inner_e, axes[j - 1]) for j in range(1, len(axes) + 1) if j not in s]
        outer = [(outer_e, axes[j - 1]) for j in s]
        specs.append(NormSpec(tuple(inner + outer)))
    return specs


def _build_subset_gm(kind, J, K, q, p, params_norm, params):
    """Blei21 / BleiQP: single function, orbit indexed by the K-subsets."""
    if not (isinstance(J, int) and isinstance(K, int)):
        raise ValidationError("J and K must be integers")
    if not 0 < K < J:
        raise ValidationError(f"need 0 < K < J, got K={K}, J={J}")
    if not p < q:
        raise ValidationError(f"need p < q, got p={p}, q={q}")
    if p is INF:
        raise ValidationError("p must be finite")
    axes = _default_axes(J, params.get("axes"))
    if params.get("axes") is not None:
        params_norm["axes"] = list(axes)
    subsets = size_k_subsets(J, K)
    m = len(subsets)
    specs = _subset_specs(axes, subsets, [q] * m, [p] * m)
    pbar = harmonic_mean([q] * (J - K) + [p] * K)
    return _gm_builder(
        kind, axes, specs, pbar, False, params_norm, params,
        subsets=[list(s) for s in subsets],
    )


def _build_blei21(params):
    J, K = params.get("J"), params.get("K")
    return _build_subset_gm("Blei21", J, K, Fraction(2), Fraction(1), {"J": J, "K": K}, params)


def _build_blei_qp(params):
    J, K = params.get("J"), params.get("K")
    q = as_exponent(params.get("q"))
    p = as_exponent(params.get("p"))
    params_norm = {"J": J, "K": K, "q": exponent_to_doc(q), "p": exponent_to_doc(p)}
    return _build_subset_gm("BleiQP", J, K, q, p, params_norm, params)


def _build_holder_mixed(params):
    if "specs" not in params or not isinstance(params["specs"], list):
        raise ValidationError("HolderMixed needs a 'specs' list")
    specs = [s if isinstance(s, NormSpec) else NormSpec.from_doc(s) for s in params["specs"]]
    ok, residuals = check_holder_system(specs)
    if not ok:
        bad = {a: str(r) for a, r in residuals.items() if r != 0}
        raise ValidationError(f"reciprocal exponents do not sum to 1: residuals {bad}")
    # Holder's inequality for mixed norms needs every factor to reduce the
    # axes in the same order; with different orders it can fail.
    for i, s in enumerate(specs[1:], start=2):
        if s.axis_ids != specs[0].axis_ids:
            raise ValidationError(
                f"spec {i} reduces the axes in the order {list(s.axis_ids)}, "
                f"spec 1 in the order {list(specs[0].axis_ids)}; HolderMixed needs one order"
            )
    return InequalityInstance(
        kind="HolderMixed",
        axis_ids=specs[0].axis_ids,
        arity=len(specs),
        lhs=ProductIntegral(),
        rhs=tuple(RhsFactor(s, Fraction(1), i) for i, s in enumerate(specs)),
        params={"specs": [s.to_doc() for s in specs]},
        derived={"m": len(specs), "residuals": {a: str(r) for a, r in residuals.items()}},
    )


def _build_minkowski_raise(params):
    spec = _spec_from_params(params)
    perm_doc = params.get("perm")
    perm = perm_doc if isinstance(perm_doc, Permutation) else Permutation.from_doc(perm_doc)
    direction = params.get("direction", "raise")
    if direction not in ("raise", "lower"):
        raise ValidationError(f"direction must be 'raise' or 'lower', got {direction!r}")
    predicate = raises if direction == "raise" else lowers
    if not predicate(perm, spec):
        raise ValidationError(f"permutation {list(perm.images)} does not {direction} the spec")
    permuted = apply_permutation(spec, perm, "both")
    if direction == "raise":
        lhs_spec, rhs_spec = spec, permuted
    else:
        lhs_spec, rhs_spec = permuted, spec
    return InequalityInstance(
        kind="MinkowskiRaise",
        axis_ids=spec.axis_ids,
        arity=1,
        lhs=MixedNorm(lhs_spec),
        rhs=(RhsFactor(rhs_spec, Fraction(1), 0),),
        params={"spec": spec.to_doc(), "perm": perm.to_doc(), "direction": direction},
        derived={
            "inversions": inversion_count(perm),
            "permuted": permuted.to_doc(),
        },
    )


def _build_sorted_sandwich(params):
    spec = _spec_from_params(params)
    desc, asc = sorting_permutations(spec)
    upper = apply_permutation(spec, desc, "both")
    lower = apply_permutation(spec, asc, "both")
    return InequalityInstance(
        kind="SortedSandwich",
        axis_ids=spec.axis_ids,
        arity=1,
        lhs=MixedNorm(spec),
        rhs=(RhsFactor(upper, Fraction(1), 0),),
        params={"spec": spec.to_doc()},
        derived={
            "raising": desc.to_doc(),
            "lowering": asc.to_doc(),
            "upper": upper.to_doc(),
            "lower": lower.to_doc(),
        },
        lower=lower,
    )


def _build_popa_sinnamon(kind, params):
    """PopaSinnamonFirst and Second: BleiPS with uniform coefficients at
    k = 1 and k = n - 1, with the gap as epsilon.  BleiPS lists the
    (n-1)-subsets leaving out axes n, ..., 1, so Second builds on the
    reversed q row and reverses the factors back."""
    if "q" not in params or not isinstance(params["q"], list):
        raise ValidationError(f"{kind} needs a 'q' list")
    qs = [as_exponent(v) for v in params["q"]]
    n = len(qs)
    if n < 2:
        raise ValidationError(f"{kind} needs at least two exponents")
    axes = _default_axes(n, params.get("axes"))
    first = kind == "PopaSinnamonFirst"
    order = slice(None, None, 1 if first else -1)
    blei = _build_blei_ps({"n": n, "k": 1 if first else n - 1, "q": qs[order], "axes": axes}, kind)
    key = "p" if first else "s"
    gap = Fraction(blei.derived["epsilon"])
    derived = {
        key: blei.derived["p"][order],
        key + "_float": blei.derived["p_float"][order],
        "sum_recip_q": str(1 - gap),
        "gap": str(gap),
    }
    inf_count = sum(1 for e in qs if e is INF)
    if not first and inf_count >= n - 1:
        derived["notes"] = [f"{inf_count} of {n} exponents are infinite"]
    params_norm = {"q": [exponent_to_doc(e) for e in qs]}
    if params.get("axes") is not None:
        params_norm["axes"] = list(axes)
    rhs = tuple(RhsFactor(f.spec, f.weight, i) for i, f in enumerate(blei.rhs[order]))
    return replace(blei, rhs=rhs, params=params_norm, derived=derived)


def _build_blei_ps(params, kind="BleiPS"):
    n, k = params.get("n"), params.get("k")
    if not (isinstance(n, int) and isinstance(k, int) and 0 < k < n):
        raise ValidationError(f"need integers 0 < k < n, got k={k!r}, n={n!r}")
    subsets = size_k_subsets(n, k)
    m = len(subsets)
    if "q" not in params or not isinstance(params["q"], list) or len(params["q"]) != m:
        raise ValidationError(f"{kind} needs a 'q' list of length {m}")
    qs = [as_exponent(v) for v in params["q"]]
    total = sum((reciprocal(e) for e in qs), Fraction(0))
    epsilon = 1 - total
    if epsilon < 0:
        raise ValidationError(f"reciprocal q sum {total} exceeds 1")
    axes = _default_axes(n, params.get("axes"))
    if "c" in params and params["c"] is not None:
        coeffs = _solve_coefficients(n, k, subsets, "user", None, params["c"])
        c_params = {"c": [_rational_doc(c) for c in coeffs]}
    else:
        strategy = params.get("strategy", "uniform")
        seed = params.get("seed")
        coeffs = _solve_coefficients(n, k, subsets, strategy, seed, None)
        c_params = {"strategy": strategy}
        if seed is not None:
            c_params["seed"] = seed
    outer = []
    for q_i, c_i in zip(qs, coeffs):
        r = reciprocal(q_i) + (c_i * epsilon if isinstance(c_i, Fraction) else Fraction(c_i) * epsilon)
        e = INF if r == 0 else 1 / r
        if not (1 <= e and e <= q_i):
            raise ValidationError(f"derived exponent {e} violates 1 <= p_i <= q_i = {q_i}")
        outer.append(e)
    specs = _subset_specs(axes, subsets, qs, outer)
    params_norm = {"n": n, "k": k, "q": [exponent_to_doc(e) for e in qs], **c_params}
    if params.get("axes") is not None:
        params_norm["axes"] = list(axes)
    derived = {
        "M": m,
        "subsets": [list(s) for s in subsets],
        "epsilon": str(epsilon),
        "epsilon_float": float(epsilon),
        "c": [_rational_doc(c) for c in coeffs],
        "c_float": [float(c) for c in coeffs],
        "p": [str(e) for e in outer],
        "p_float": [json_float(to_float(e)) for e in outer],
    }
    return InequalityInstance(
        kind=kind,
        axis_ids=axes,
        arity=m,
        lhs=ProductIntegral(),
        rhs=tuple(RhsFactor(s, Fraction(1), i) for i, s in enumerate(specs)),
        params=params_norm,
        derived=derived,
    )


def _build_quad6(params):
    fixed = {
        "n": 4,
        "k": 2,
        "q": [12] * 6,
        "c": ["1/2", "1/3", "1/6", "1/6", "1/3", "1/2"],
        "axes": params.get("axes"),
    }
    inst = _build_blei_ps(fixed, kind="Quad6")
    params_norm = {"axes": list(inst.axis_ids)} if params.get("axes") is not None else {}
    return replace(inst, params=params_norm)


_BUILDERS = {
    "HolderMixed": _build_holder_mixed,
    "MinkowskiRaise": _build_minkowski_raise,
    "SortedSandwich": _build_sorted_sandwich,
    "SymmetricHolder": _build_symmetric_holder,
    "SymmetricGM": lambda p: _build_symmetric_gm("SymmetricGM", p),
    "SymmetricGM1": lambda p: _build_symmetric_gm("SymmetricGM1", p),
    "Littlewood43": _build_littlewood43,
    "Blei21": _build_blei21,
    "BleiQP": _build_blei_qp,
    "PopaSinnamonFirst": lambda p: _build_popa_sinnamon("PopaSinnamonFirst", p),
    "PopaSinnamonSecond": lambda p: _build_popa_sinnamon("PopaSinnamonSecond", p),
    "BleiPS": _build_blei_ps,
    "Quad6": _build_quad6,
}
KINDS = tuple(_BUILDERS)  # the order fixes each kind's sweep seed


def build_instance(kind: str, params: dict | None = None) -> InequalityInstance:
    """Construct a catalog instance, deriving every dependent exponent exactly."""
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise ValidationError(f"unknown instance kind {kind!r}; known: {list(KINDS)}")
    if params is not None and not isinstance(params, dict):
        raise ValidationError(f"{kind} params must be an object, got {params!r}")
    return _BUILDERS[kind](dict(params or {}))


def instance_to_doc(inst: InequalityInstance) -> dict:
    return {
        "kind": inst.kind,
        "params": copy.deepcopy(inst.params),
        "derived": copy.deepcopy(inst.derived),
    }


def instance_from_doc(doc) -> InequalityInstance:
    """Rebuild an instance from its document; stored derived data must match."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValidationError("instance document must be an object with a 'kind'")
    inst = build_instance(doc["kind"], doc.get("params") or {})
    if "derived" in doc and doc["derived"] is not None:
        if doc["derived"] != inst.derived:
            stored, fresh = doc["derived"], inst.derived
            if not isinstance(stored, dict):
                raise ValidationError("instance document 'derived' must be an object")
            bad = sorted(
                key
                for key in set(stored) | set(fresh)
                if stored.get(key) != fresh.get(key)
            )
            raise ValidationError(
                f"derived fields do not match recomputation: {bad}"
            )
    return inst
