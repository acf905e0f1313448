"""How far `cd_search` ends below the optimum, frozen in tests/data/.

Each set holds 20 seeded `scenario_range_context` slots of one size, odd seeds
with a narrow coverage cone: 6 users x 3 UAVs in cd_oracle_gap.json and 8 x 3
in cd_oracle_gap_8x3.json. For each instance the file holds
`brute_force_oracle`'s DOR (the optimum) and the gap `optimum - cd_search DOR`
at the time of recording, as hex floats. Regenerate only for a declared change
of the objective, the search or the instances (the 8 x 3 oracle takes about
2 s per instance):

    PYTHONPATH=src python -m tests._cd_gap
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from tests._instances import scenario_range_context
from uavmec.allocator import brute_force_oracle, cd_search

DATA = Path(__file__).parent / "data"
GAP_FILES = {(6, 3): DATA / "cd_oracle_gap.json", (8, 3): DATA / "cd_oracle_gap_8x3.json"}
GAP_FILE = GAP_FILES[6, 3]
SEEDS = range(20)


def gap_instance(seed: int, users: int = 6, uavs: int = 3):
    rng = np.random.default_rng([users, uavs, 17, seed])
    return scenario_range_context(rng, users, uavs, narrow_coverage=seed % 2 == 1)


def record(users: int, uavs: int):
    rows = []
    for seed in SEEDS:
        ctx = gap_instance(seed, users, uavs)
        optimum = brute_force_oracle(ctx).dor
        rows.append({"seed": seed, "narrow_coverage": seed % 2 == 1,
                     "optimum": optimum.hex(), "gap": (optimum - cd_search(ctx).dor).hex()})
    lines = ",\n".join("  " + json.dumps(row) for row in rows)
    GAP_FILES[users, uavs].write_text(
        f'{{"users": {users}, "uavs": {uavs}, "instances": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    for size in GAP_FILES:
        record(*size)
