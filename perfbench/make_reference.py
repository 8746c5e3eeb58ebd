"""Regenerate the stored default-seed references of every workload.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once at the default seed, applies the checks that need no
reference, and writes the compared columns of each output file to
``reference/<workload>_<file>.csv``.  Regenerate only when an output is
meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import csv
import shutil
import sys

from run import Bench
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, reference_path, reference_table


def main(names: list[str]) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        bench = Bench(workload, DEFAULT_SEED, seconds=0.0)
        try:
            run = bench.workload_run(traced=False)  # checks against the old reference
            problems = run.problems if run.code != 0 else workload.check(run.out)[0]
            if problems:
                print(f"{name}: not written: {problems}", file=sys.stderr)
                return 1
            for suffix in workload.reference:
                columns, rows = reference_table(workload, run.out, suffix)
                with open(reference_path(name, suffix), "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(columns)
                    writer.writerows(rows)
            shutil.rmtree(run.out)
        finally:
            bench.close()
        print(f"{name}: reference written")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
