"""Byte pins of the exact layer.

Each digest is the SHA-256 of canonical JSON documents: the `plan` documents
of 20 fixed `random_params` draws per kind, and the `orbit` documents of both
modes for a fixed set of specs with ties and infinite exponents.  A change
meant to keep the exact layer's output (exponents, orbits, the catalog's
derivations) must keep every digest; one that means to change it replaces
the literal and says why.
"""

import hashlib
import json

import numpy as np
import pytest

from mixednorm import KINDS, NormSpec, ValidationError, build_instance, orbit
from mixednorm.catalog import instance_to_doc
from mixednorm.search import random_params

DRAWS = 20

ORBIT_ROWS = [
    ["inf"],
    [2, 2],
    ["inf", "inf", "inf"],
    ["inf", 2, 2],
    [3, "inf", 1, "inf"],
    ["inf", "inf", 2, 1, 1],
    ["1/2", 1, "1/2", "inf", 1, "inf"],
    ["inf", "inf", 3, 3, "4/3", "4/3"],
]

PLAN_DIGESTS = {
    "HolderMixed": "0ac9f0e59ec1f94796440186adde8d0e5fd5844ff4761e927deef76adbeab613",
    "MinkowskiRaise": "e0169e35cfd20026dbca1dd5a4a73f481a97de44fc96fb7ac9da38512149f1c8",
    "SortedSandwich": "3b8647e2ae0c905469305aeb00f3fc2237d6e6c04dedef6dac6163edb886de12",
    "SymmetricHolder": "e28f76e2dd31d23d58afbfcb413bd76caafe69dc94557d581d90b9100dbd9467",
    "SymmetricGM": "3aefd679192d55060471841a65848d46b8022febc54f61e57538d1d35a45e527",
    "SymmetricGM1": "2cc75faa7a0be71ae37e57966a4c9101ce1a823229dbe063673ffedbd7e666a5",
    "Littlewood43": "b5d833db2a25eb31cb6cf0217826034ebd86d280ef9db819baa989efdd2cb79c",
    "Blei21": "1d7150920fa787c0c16911f2db396aa06137f89cf6cfc83cca54c12629737828",
    "BleiQP": "41614a0ddc53397efb0a69103e5ba6f00032f2ef74514fee7e3e1f2a3dfa77bf",
    "PopaSinnamonFirst": "7f8f803dfce609e0b79b53023ceceb5506d89349cbd106b67beace6310052af9",
    "PopaSinnamonSecond": "b97a9ae777a2920618b4fd4b59598397ac88a4c4f048b46db06f2ca818fabc4c",
    "BleiPS": "7f8b0d72194a459ec140bee9b73d97d79fb190b70ffee0def4d3ff350b50e391",
    "Quad6": "6acf1fa90ed3ea5540d536ab466a40f5040e5e25aeb1d781cd7550628500a666",
}

ORBIT_DIGEST = "42d00a3b18132bb4a78b81836db1919bf40943b133660fc095f272ab7d3e797b"


def _digest(docs) -> str:
    h = hashlib.sha256()
    for doc in docs:
        h.update(json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False).encode())
        h.update(b"\n")
    return h.hexdigest()


def plan_digest(kind: str) -> str:
    rng = np.random.default_rng(KINDS.index(kind))
    return _digest(
        instance_to_doc(build_instance(kind, random_params(kind, rng))) for _ in range(DRAWS)
    )


def orbit_digest() -> str:
    docs = []
    for row in ORBIT_ROWS:
        n = len(row)
        # axis ids out of order, so the variables mode has to sort them
        ids = [f"x{(3 * k) % n + 1 if n % 3 else n - k}" for k in range(n)]
        spec = NormSpec(tuple(zip(row, ids)))
        for mode in ("exponents", "variables"):
            try:
                docs.append([s.to_doc() for s in orbit(spec, mode)])
            except ValidationError as exc:
                docs.append(str(exc))
    return _digest(docs)


@pytest.mark.parametrize("kind", KINDS)
def test_plan_documents_are_pinned(kind):
    assert plan_digest(kind) == PLAN_DIGESTS[kind], f"{kind} plan documents changed"


def test_orbit_documents_are_pinned():
    assert orbit_digest() == ORBIT_DIGEST, "orbit documents changed"
