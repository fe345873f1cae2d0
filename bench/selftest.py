"""Self-test: the traced run's exact counts repeat exactly for a seed.

Runs ``run.py --trace 1`` twice per workload with the same seed and a short
run length (``SELFTEST_SEED``, ``SELFTEST_SECONDS``), and compares the
counts that depend only on the inputs (``tracing.EXACT_COUNTS``).  Exits 0
when every count repeats and every run reported correct outputs, 1
otherwise.

    python3 bench/selftest.py
"""

from __future__ import annotations

import sys

from record import run
from tracing import EXACT_COUNTS
from workloads import WORKLOADS

SELFTEST_SEED = 7
SELFTEST_SECONDS = 2.0


def main() -> int:
    ok = True
    for workload in sorted(WORKLOADS):
        first, second = (
            run(workload, SELFTEST_SEED, SELFTEST_SECONDS, 1)[0] for _ in range(2)
        )
        for name in EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                ok = False
                print(f"{workload}: {name} {a} != {b}")
        if not (first["correct"] and second["correct"]):
            ok = False
            print(f"{workload}: a traced run reported incorrect outputs")
        counts = ", ".join(f"{n}={first['metrics'][n]['value']}" for n in EXACT_COUNTS)
        print(f"{workload}: {counts}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
