"""Pin the scenario-matrix reference cells for a range of seeds.

    python3 perfbench/pin.py FIRST LAST

Adds to ``perfbench/pinned_matrix.json``, for every seed in
``FIRST..LAST`` (inclusive), the :data:`run.PINNED_FIELDS` of all 80
cells as the current code computes them.  ``run.py`` checks each
scenario-matrix pass against these; seeds without an entry are checked
against cells computed in the benchmark process instead.  Re-pin only
in a change whose purpose is to change the matrix's numbers.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    sys.path.insert(0, str(run.SRC))
    seeds = json.loads(run.PINNED.read_text())["seeds"] if run.PINNED.exists() else {}
    cells: list[str] = []
    for seed in range(first, last + 1):
        computed = run.computed_matrix(seed)
        cells = [run.matrix_key(cell) for cell in computed]
        seeds[str(seed)] = [[cell[field] for field in run.PINNED_FIELDS] for cell in computed]
        print(f"pinned seed {seed}", flush=True)
    ordered = sorted(seeds, key=int)
    lines = [
        "{",
        f'"fields": {json.dumps(list(run.PINNED_FIELDS))},',
        f'"cells": {json.dumps(cells)},',
        '"seeds": {',
        ",\n".join(f"{json.dumps(seed)}: {json.dumps(seeds[seed])}" for seed in ordered),
        "}",
        "}",
    ]
    run.PINNED.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
