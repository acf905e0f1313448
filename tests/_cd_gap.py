"""How far `cd_search` ends below the optimum, frozen in tests/data/cd_oracle_gap.json.

The instances are 20 seeded `scenario_range_context` slots at 6 users x 3 UAVs,
odd seeds with a narrow coverage cone. For each the file holds
`brute_force_oracle`'s DOR (the optimum) and the gap `optimum - cd_search DOR`
at the time of recording, as hex floats. Regenerate only for a declared change
of the objective, the search or the instances:

    PYTHONPATH=src python tests/_cd_gap.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from tests._instances import scenario_range_context
from uavmec.allocator import brute_force_oracle, cd_search

GAP_FILE = Path(__file__).parent / "data" / "cd_oracle_gap.json"
USERS, UAVS = 6, 3
SEEDS = range(20)


def gap_instance(seed: int):
    rng = np.random.default_rng([USERS, UAVS, 17, seed])
    return scenario_range_context(rng, USERS, UAVS, narrow_coverage=seed % 2 == 1)


def record():
    rows = []
    for seed in SEEDS:
        ctx = gap_instance(seed)
        optimum = brute_force_oracle(ctx).dor
        rows.append({"seed": seed, "narrow_coverage": seed % 2 == 1,
                     "optimum": optimum.hex(), "gap": (optimum - cd_search(ctx).dor).hex()})
    lines = ",\n".join("  " + json.dumps(row) for row in rows)
    GAP_FILE.write_text(f'{{"users": {USERS}, "uavs": {UAVS}, "instances": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    record()
