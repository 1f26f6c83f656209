"""Weighted mixed norms on finite product spaces, the permutation calculus
that reorders them, and a verified catalog of the inequalities they satisfy.

Importing the package loads only the exact layer (exponents, specs, perms,
catalog), which needs no numpy; the numeric names resolve on first use.
"""

import importlib

from .catalog import (
    KINDS,
    GmLpNorm,
    InequalityInstance,
    MixedNorm,
    ProductIntegral,
    build_instance,
    check_holder_system,
    instance_from_doc,
    instance_to_doc,
    size_k_subsets,
    solve_subset_coefficients,
)
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
    OrbitInfo,
    Permutation,
    RaiseStep,
    RaiseTrace,
    all_permutations,
    apply_permutation,
    decompose,
    inversion_count,
    lowers,
    orbit,
    orbit_info,
    raises,
    sorting_permutations,
)
from .specs import Axis, NormSpec, ProductSpace

# The numeric layer's names, by module; each module, and numpy with it, is
# imported on the first access to one of its names.
_NUMERIC = {
    "documents": ("space_from_doc", "space_to_doc", "tensor_from_csv", "tensor_from_doc",
                  "tensor_to_doc"),
    "evaluation": ("VerificationReport", "evaluate_batch", "evaluate_instance"),
    "search": ("ScalingProbe", "SearchResult", "TrialConfig", "maximize_ratio", "random_inputs",
               "scaling_probe", "sweep"),
    "spaces": ("Tensor", "eval_mixed_norm", "integrate_product", "mixed_norm_log"),
}


def __getattr__(name):
    """A numeric name, imported on first access and kept (PEP 562)."""
    for module, names in _NUMERIC.items():
        if name in names:
            globals()[name] = value = getattr(importlib.import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "1.0.0"

__all__ = [
    "Axis",
    "Exponent",
    "GmLpNorm",
    "INF",
    "InequalityInstance",
    "KINDS",
    "MixedNorm",
    "NormSpec",
    "OrbitInfo",
    "Permutation",
    "ProductIntegral",
    "ProductSpace",
    "RaiseStep",
    "RaiseTrace",
    "ScalingProbe",
    "SearchResult",
    "Tensor",
    "TrialConfig",
    "ValidationError",
    "VerificationReport",
    "all_permutations",
    "apply_permutation",
    "as_exponent",
    "build_instance",
    "check_holder_system",
    "decompose",
    "eval_mixed_norm",
    "evaluate_batch",
    "evaluate_instance",
    "exponent_to_doc",
    "harmonic_mean",
    "instance_from_doc",
    "instance_to_doc",
    "integrate_product",
    "inversion_count",
    "json_float",
    "lowers",
    "maximize_ratio",
    "mixed_norm_log",
    "orbit",
    "orbit_info",
    "raises",
    "random_inputs",
    "reciprocal",
    "scaling_probe",
    "size_k_subsets",
    "solve_subset_coefficients",
    "sorting_permutations",
    "space_from_doc",
    "space_to_doc",
    "sweep",
    "tensor_from_csv",
    "tensor_from_doc",
    "tensor_to_doc",
    "to_float",
]
