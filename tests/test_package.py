"""The package's public namespace."""

import importlib
import json
import subprocess
import sys

import numpy as np
import pytest

import mixednorm
from mixednorm import Axis, NormSpec, Permutation, ProductSpace, Tensor, ValidationError
from mixednorm.search import random_params


def _fresh(code: str):
    """The JSON that `code` prints in a fresh interpreter, after `import mixednorm`."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys, mixednorm\n{code}"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_module_of_the_package_and_no_numpy():
    code = "print(json.dumps(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('mixednorm.'))))"
    assert _fresh(code) == []


def test_every_exported_name_is_the_object_its_module_defines():
    for module, names in mixednorm._EXPORTS.items():
        for name in names:
            assert getattr(mixednorm, name) is getattr(importlib.import_module(f"mixednorm.{module}"), name)


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from mixednorm import *", namespace)
    missing = [name for name in mixednorm.__all__ if name not in namespace]
    assert missing == []
    assert len(set(mixednorm.__all__)) == len(mixednorm.__all__)


def test_every_exported_name_resolves_by_attribute_access():
    code = "print(json.dumps([n for n in mixednorm.__all__ if getattr(mixednorm, n, None) is None]))"
    assert _fresh(code) == []
    assert mixednorm.Tensor is mixednorm.spaces.Tensor
    assert mixednorm.evaluate_instance is mixednorm.evaluation.evaluate_instance


def test_dir_lists_every_exported_name_before_any_is_resolved():
    assert _fresh("print(json.dumps(sorted(set(mixednorm.__all__) - set(dir(mixednorm)))))") == []


def test_an_unknown_name_is_an_attribute_error():
    code = """
try:
    mixednorm.no_such_name
except Exception as exc:
    print(json.dumps([type(exc).__name__, hasattr(mixednorm, "no_such_name")]))
"""
    assert _fresh(code) == ["AttributeError", False]


@pytest.mark.parametrize("name", ["Tensor", "evaluate_instance", "tensor_to_doc", "sweep"])
def test_numpy_is_first_imported_when_a_numeric_name_is_resolved(name):
    code = f"""
seen = ["numpy" in sys.modules]
mixednorm.NormSpec, mixednorm.build_instance, mixednorm.orbit, mixednorm.json_float
seen.append("numpy" in sys.modules)
mixednorm.{name}
seen.append("numpy" in sys.modules)
print(json.dumps(seen))
"""
    assert _fresh(code) == [False, False, True]


# Checks that no command reaches, so each is called through the library.
SPACE_2 = ProductSpace((Axis("x1", (1.0, 2.0)),))
SPEC_2 = NormSpec(((2, "x1"),))
REJECTED_CALLS = {
    "csv-header-not-a-shape": lambda: mixednorm.tensor_from_csv("# size: 2\n1, 2\n", SPACE_2),
    "csv-shape-not-integers": lambda: mixednorm.tensor_from_csv("# shape: two\n1, 2\n", SPACE_2),
    "eval-unknown-method": lambda: mixednorm.eval_mixed_norm(Tensor.from_flat(SPACE_2, [1.0, 2.0]), SPEC_2, "exact"),
    "integrate-unknown-method": lambda: mixednorm.integrate_product([Tensor.from_flat(SPACE_2, [1.0, 2.0])], "exact"),
    "integrate-no-tensors": lambda: mixednorm.integrate_product([]),
    "compose-sizes": lambda: Permutation((2, 1)).compose(Permutation((1, 2, 3))),
    "raises-sizes": lambda: mixednorm.raises(Permutation((1, 2)), SPEC_2),
    "decompose-direction": lambda: mixednorm.decompose(Permutation((1,)), SPEC_2, "up"),
    "space-unknown-axis": lambda: SPACE_2.position("x2"),
    "spec-column-not-a-pair": lambda: NormSpec((2,)),
    "spec-unknown-axis": lambda: SPEC_2.exponent_for("x2"),
    "random-params-unknown-kind": lambda: random_params("Nope", np.random.default_rng(0)),
}


@pytest.mark.parametrize("call", REJECTED_CALLS.values(), ids=REJECTED_CALLS.keys())
def test_public_calls_reject_inputs_no_command_sends(call):
    with pytest.raises(ValidationError):
        call()
