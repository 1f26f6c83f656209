"""Weighted mixed norms on finite product spaces, the permutation calculus
that reorders them, and a verified catalog of the inequalities they satisfy.

Importing the package loads none of its modules.  Each public name is listed
once in `_EXPORTS`, under the module that defines it, and that module is
imported on the first access to one of its names.  The exact layer
(errors, exponents, specs, perms, catalog) needs no numpy; the numeric
modules (spaces, documents, evaluation, search) load it.
"""

import importlib

__version__ = "1.0.0"

_EXPORTS = {
    "catalog": ("KINDS", "GmLpNorm", "InequalityInstance", "MixedNorm", "ProductIntegral",
                "build_instance", "check_holder_system", "instance_from_doc", "instance_to_doc",
                "size_k_subsets", "solve_subset_coefficients"),
    "errors": ("ValidationError",),
    "exponents": ("INF", "Exponent", "as_exponent", "exponent_to_doc", "harmonic_mean",
                  "json_float", "reciprocal", "to_float"),
    "perms": ("OrbitInfo", "Permutation", "RaiseStep", "RaiseTrace", "all_permutations",
              "apply_permutation", "decompose", "inversion_count", "lowers", "orbit", "orbit_info",
              "raises", "sorting_permutations"),
    "specs": ("Axis", "NormSpec", "ProductSpace"),
    "documents": ("space_from_doc", "space_to_doc", "tensor_from_csv", "tensor_from_doc",
                  "tensor_to_doc"),
    "evaluation": ("VerificationReport", "evaluate_batch", "evaluate_instance"),
    "search": ("ScalingProbe", "SearchResult", "TrialConfig", "maximize_ratio", "random_inputs",
               "scaling_probe", "sweep"),
    "spaces": ("Tensor", "eval_mixed_norm", "integrate_product", "mixed_norm_log"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    """A public name, imported from its module on first access and kept (PEP 562)."""
    for module, names in _EXPORTS.items():
        if name in names:
            globals()[name] = value = getattr(importlib.import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
