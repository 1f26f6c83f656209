"""Digest the outputs that a refactor must keep byte for byte.

    python3 tools/bytes.py                # print "sha256  label" for each output
    python3 tools/bytes.py --parent DIR   # also run the list on DIR/src; print the
                                          # labels that differ, exit 1 if any do

The list is fixed.  Each command's digest covers its stdout, its stderr and
its exit code:
- `sweep` at --seed 99 and 20260816, each at --threads 1 and 8;
- the README commands (a 2x2 CSV tensor on a 2x2 space stands in for the
  `tensor.csv` and `space.json` the README names), and `eval --method
  direct` on the README tensor;
- `probe` of the README spec at --p 2 --t-grid 1,1000,4000 (16M cells at
  t = 4000, so the probe's grid streams and its loops run on threads);
- `verify --kind Quad6 --random 20 --seed 7`;
- `search` on the README instance, and on Quad6 with --seed 3
  --max-evals 4000 on a 3x2x2x3 space and on a 5^4 space, there at the
  default --restarts and at 40 (waves of 4 starts, each ending on a
  ragged population), at --max-evals 300 --restarts 400 (starts left
  with no budget), at --max-evals 5 (5 of the 9 boxes scored, no start
  climbs) and at --restarts 0 --max-evals 400 (the boxes alone).
Each float digest covers `float.hex` of log_lhs, log_rhs and the ratio of
HolderMixed, MinkowskiRaise or SymmetricGM1 with one tensor in every slot
(and HolderMixed with distinct tensors too), on 32^4 and on 48x40x36x64
(33.75 MiB, so its large loops run on threads), at the default
spaces._BATCH_BYTES and at 256 bytes.
Each "batch" digest covers `float.hex` of the `evaluate_batch` ratios of
40 seeded input sets of one kind, a seeded `random_params` draw on a seeded
space of 2-5 atoms an axis, all 40 in one call.  Each "batch <kind> long
axes" digest covers HolderMixed, MinkowskiRaise or SymmetricGM1 the same
way, 12 seeded sets a call on a 4x40 and on a 3x10x1 space: axes of 8 or
more atoms that only 1-atom axes follow, which numpy sums pairwise.
The "public names" digest covers each name of `sorted(mixednorm.__all__)`
with the `__module__` and `__qualname__` of what it resolves to, or the
`repr` of a constant.

Every command runs as `python -m mixednorm` on the checkout's `src`, in a
temporary directory; the list takes about a minute a checkout on a
2-vCPU Xeon.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SPEC = '{"columns": [{"p": 2, "axis": "x1"}, {"p": 1, "axis": "x2"}]}'
TENSOR = (
    '{"shape": [2,2], "values": [1,2,3,4], "space": {"axes": [{"id": "x1", "weights": [1,1]},'
    ' {"id": "x2", "weights": [1,1]}]}}'
)
GM1_PARAMS = '{"spec": %s, "lhs_exponent": "8/5"}' % SPEC
GM1_SPACE = '{"axes": [{"id": "x1", "weights": [1e-6, 1, 1e6]}, {"id": "x2", "weights": [1e-6, 1, 1e6]}]}'
QUAD6_SPACE = json.dumps(
    {"axes": [{"id": f"x{j + 1}", "weights": [1.0 + 0.5 * i for i in range(n)]} for j, n in enumerate((3, 2, 2, 3))]}
)
QUAD6_SPACE_5 = json.dumps(
    {"axes": [{"id": f"x{j + 1}", "weights": [0.25 * (j + 1) + i for i in range(5)]} for j in range(4)]}
)
FILES = {
    "tensor.csv": "# shape: 2,2\n1, 2\n3, 4\n",
    "space.json": '{"axes": [{"id": "x1", "weights": [0.5, 2.0]}, {"id": "x2", "weights": [1.0, 3.0]}]}',
}

COMMANDS = [
    *(
        (f"sweep --seed {seed} --threads {threads}", ["sweep", "--seed", seed, "--threads", threads])
        for seed in ("99", "20260816")
        for threads in ("1", "8")
    ),
    ("README eval", ["eval", "--tensor", TENSOR, "--spec", SPEC]),
    ("README eval --method direct", ["eval", "--tensor", TENSOR, "--spec", SPEC, "--method", "direct"]),
    ("README orbit", ["orbit", "--spec", SPEC]),
    ("README decompose", ["decompose", "--spec", SPEC, "--perm", "[2, 1]", "--direction", "lower"]),
    ("README plan", ["plan", "--kind", "Quad6"]),  # its stdout is quad6.json for the next command
    ("README verify --instance", ["verify", "--instance", "quad6.json", "--random", "100", "--seed", "7"]),
    ("README verify --tensors", ["verify", "--kind", "Littlewood43", "--tensors", "tensor.csv", "--space", "space.json"]),
    ("README coeffs uniform", ["coeffs", "--n", "4", "--k", "2"]),
    ("README coeffs random", ["coeffs", "--n", "4", "--k", "2", "--strategy", "random", "--seed", "3"]),
    ("coeffs --n 6 --k 3 random", ["coeffs", "--n", "6", "--k", "3", "--strategy", "random", "--seed", "1"]),
    ("README probe", ["probe", "--spec", SPEC, "--p", "2", "--t-grid", "1,4,16", "--format", "csv"]),
    ("probe --t-grid 1,1000,4000", ["probe", "--spec", SPEC, "--p", "2", "--t-grid", "1,1000,4000"]),
    ("README search", ["search", "--kind", "SymmetricGM1", "--params", GM1_PARAMS, "--space", GM1_SPACE, "--seed", "5"]),
    ("README sweep", ["sweep", "--seed", "99", "--trials", "500"]),
    ("verify Quad6 --random 20", ["verify", "--kind", "Quad6", "--random", "20", "--seed", "7"]),
    (
        "search Quad6 3x2x2x3",
        ["search", "--kind", "Quad6", "--space", QUAD6_SPACE, "--seed", "3", "--max-evals", "4000"],
    ),
    *(
        ("search Quad6 5^4 " + " ".join(extra), ["search", "--kind", "Quad6", "--space", QUAD6_SPACE_5, "--seed", "3", *extra])
        for extra in (
            ("--max-evals", "4000"),
            ("--max-evals", "4000", "--restarts", "40"),
            ("--max-evals", "300", "--restarts", "400"),
            ("--max-evals", "5"),
            ("--restarts", "0", "--max-evals", "400"),
        )
    ),
]

# Run in a child on one checkout; prints {label: "hex hex hex"} as JSON.
FLOATS = r"""
import json, math
import numpy as np
import mixednorm as mn
from mixednorm import spaces
from mixednorm.search import random_params

def spec(ps):
    return {"columns": [{"p": p, "axis": f"x{j + 1}"} for j, p in enumerate(ps)]}

def space(rng, shape):
    return mn.ProductSpace(tuple(
        mn.Axis(f"x{j + 1}", tuple(float(w) for w in np.exp(rng.uniform(-0.7, 0.7, n))))
        for j, n in enumerate(shape)))

instances = {
    "HolderMixed": mn.build_instance("HolderMixed", {"specs": [spec(["2", "3", "4", "4/3"]), spec(["2", "3/2", "4/3", "4"])]}),
    "MinkowskiRaise": mn.build_instance(
        "MinkowskiRaise", {"spec": spec(["4/3", "2", "3", "4"]), "perm": [4, 3, 2, 1], "direction": "raise"}),
    "SymmetricGM1": mn.build_instance("SymmetricGM1", {"spec": spec([2, 2, 1, 1])}),
}
out, default = {}, spaces._BATCH_BYTES
for shape in ((32, 32, 32, 32), (48, 40, 36, 64)):
    rng = np.random.default_rng([20261020, len(out)])
    sp = space(rng, shape)
    tensors = []
    for _ in range(4):
        values = np.exp(rng.uniform(-4.0, 4.0, shape))
        values[rng.random(shape) < 0.01] = 0.0
        tensors.append(mn.Tensor(sp, values))
    for budget in (default, 256):
        spaces._BATCH_BYTES = budget
        for name, inst in instances.items():
            cases = {"one tensor": tensors[:1], "distinct tensors": tensors[: inst.arity]}
            for inputs, fs in list(cases.items())[: 1 + (inst.arity > 1)]:
                r = mn.evaluate_instance(inst, fs)
                sides = (r.trial["log_lhs"], r.trial["log_rhs"], r.ratio)
                label = f"floats {name} {'x'.join(map(str, shape))} {budget} B {inputs}"
                out[label] = " ".join(float(v).hex() for v in sides)
        spaces._BATCH_BYTES = default
for k, kind in enumerate(mn.KINDS):
    rng = np.random.default_rng([20261022, k])
    inst = mn.build_instance(kind, random_params(kind, rng, max_axes=4))
    sp = space(rng, [int(n) for n in rng.integers(2, 6, len(inst.axis_ids))])
    values = np.exp(rng.uniform(-4.0, 4.0, (40, inst.arity, *sp.shape)))
    values[rng.random(values.shape) < 0.05] = 0.0
    out[f"batch {kind} 40 sets"] = " ".join(float(r).hex() for r in mn.evaluate_batch(inst, sp, values))
long_axes = {  # each kind's params on n axes
    "HolderMixed": lambda n: {"specs": [spec(["2", "3", "4"][:n]), spec(["2", "3/2", "4/3"][:n])]},
    "MinkowskiRaise": lambda n: {"spec": spec(["4/3", "2", "3"][:n]), "perm": list(range(n, 0, -1)), "direction": "raise"},
    "SymmetricGM1": lambda n: {"spec": spec([3, 2, 1][-n:])},
}
for k, (name, params) in enumerate(long_axes.items()):
    hexes = []
    for shape in ((4, 40), (3, 10, 1)):
        rng = np.random.default_rng([20261023, k, len(shape)])
        inst, sp = mn.build_instance(name, params(len(shape))), space(rng, shape)
        values = np.exp(rng.uniform(-4.0, 4.0, (12, inst.arity, *shape)))
        values[rng.random(values.shape) < 0.05] = 0.0
        hexes += [float(r).hex() for r in mn.evaluate_batch(inst, sp, values)]
    out[f"batch {name} long axes"] = " ".join(hexes)
print(json.dumps(out))
"""

# Run in a child on one checkout; prints one line per public name.
SURFACE = r"""
import mixednorm
for name in sorted(mixednorm.__all__):
    value = getattr(mixednorm, name)
    where = f"{value.__module__}.{value.__qualname__}" if hasattr(value, "__qualname__") else repr(value)
    print(name, where)
"""


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()


def digests(src: Path) -> dict[str, str]:
    """{label: sha256} of every output of the list, run on the package in src."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text)
        for label, argv in COMMANDS:
            run = subprocess.run([sys.executable, "-m", "mixednorm", *argv], cwd=tmp, env=env, capture_output=True)
            if argv[0] == "plan":
                Path(tmp, "quad6.json").write_bytes(run.stdout)
            out[label] = _sha(str(run.returncode).encode(), run.stdout, run.stderr)
        run = subprocess.run([sys.executable, "-c", FLOATS], cwd=tmp, env=env, capture_output=True, check=True)
        for label, text in json.loads(run.stdout).items():
            out[label] = _sha(text.encode())
        run = subprocess.run([sys.executable, "-c", SURFACE], cwd=tmp, env=env, capture_output=True)
        out["public names"] = _sha(str(run.returncode).encode(), run.stdout, run.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="a checkout to compare with; its src/ is run")
    args = parser.parse_args(argv)
    mine = digests(ROOT / "src")
    if args.parent is None:
        for label, digest in mine.items():
            print(f"{digest}  {label}")
        return 0
    theirs = digests(args.parent / "src")
    differ = [label for label in mine if mine[label] != theirs[label]]
    for label in differ:
        print(label)
    print(f"{len(differ)} of {len(mine)} outputs differ from {args.parent}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
