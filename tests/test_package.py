"""The package's public namespace."""

import mixednorm


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from mixednorm import *", namespace)
    missing = [name for name in mixednorm.__all__ if name not in namespace]
    assert missing == []
    assert len(set(mixednorm.__all__)) == len(mixednorm.__all__)
