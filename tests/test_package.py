"""The package's public namespace."""

import json
import subprocess
import sys

import pytest

import mixednorm


def _fresh(code: str):
    """The JSON that `code` prints in a fresh interpreter, after `import mixednorm`."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys, mixednorm\n{code}"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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
