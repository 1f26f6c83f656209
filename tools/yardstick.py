"""Count the seeds at which the violation climb breaks each known-false variant.

    python3 tools/yardstick.py             # run the climb of the checkout's src
    python3 tools/yardstick.py --src DIR   # run the climb of the package in DIR

For each variant, `maximize_ratio` runs at seeds 0-9 with 300 and with 1,000
evaluations, and a seed counts where its best ratio exceeds 1 + 1e-8.  The
variants are the 11 known-false ones of tests/test_search.py, whose
constructors this imports, each on a random space of 4 atoms per axis drawn
from the seed, and the crossed HolderMixed on the unit 3x3 space.  Prints
{"300": {variant: count, ..., "total": n}, "1000": {...}} as JSON, totals of
120.  It takes about 2 s on a 2-vCPU Xeon.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = (
    "swapped_minkowski",
    "shrunk_blei_ps",
    "short_holder",
    "low_blei21",
    "swapped_blei_qp",
    "increasing_symmetric_gm",
    "uncovered_blei_ps",
    "low_p_blei_ps",
    "high_p_blei_ps",
    "reversed_holder",
    "swapped_outer_holder",
)
SEEDS = range(10)
BUDGETS = (300, 1000)


def counts(src: Path) -> dict[str, dict[str, int]]:
    sys.path[:0] = [str(src.resolve()), str(ROOT / "tests")]
    import numpy as np
    import test_search
    from mixednorm import Axis, ProductSpace, maximize_ratio

    def random_space(inst, seed):
        rng = np.random.default_rng(seed)
        return ProductSpace(tuple(Axis(a, tuple(np.exp(rng.uniform(-2, 2, 4)))) for a in inst.axis_ids))

    def unit_space(inst, seed):
        return ProductSpace(tuple(Axis(a, (1.0, 1.0, 1.0)) for a in inst.axis_ids))

    cases = {name: (getattr(test_search, name)(), random_space) for name in VARIANTS}
    cases["crossed_holder"] = (test_search.crossed_holder(), unit_space)
    table = {}
    for max_evals in BUDGETS:
        row = {
            name: sum(
                maximize_ratio(inst, space(inst, seed), seed=seed, max_evals=max_evals).best_ratio > 1 + 1e-8
                for seed in SEEDS
            )
            for name, (inst, space) in cases.items()
        }
        row["total"] = sum(row.values())
        table[str(max_evals)] = row
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the directory that holds the mixednorm package")
    args = parser.parse_args(argv)
    print(json.dumps(counts(args.src), indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
