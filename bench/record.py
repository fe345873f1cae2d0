"""Run every workload over several seeds and write ``BENCH_<label>.json``.

    python3 bench/record.py --label baseline [--seeds 1-10]

For each workload this runs ``run.py`` once per seed with tracing off and
once (seed ``TRACE_SEED``) with tracing on, at the run length set in
``BENCHMARK.json``, and records each end-to-end metric's median, quartiles
and quartile spread (``(q3 - q1) / median``), both as reported (scaled to
the reference host speed) and unscaled, next to the environment: Python,
numpy and scipy versions, CPU count, and the DEFLAB_THREADS each workload
uses.  The file is written to ``bench/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import RAW_PREFIX  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRACE_SEED = 1


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict | None]:
    """One benchmark run in a child process.

    Returns its result object and, for an untraced run, its unscaled times.
    """
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    raw = [line for line in done.stderr.splitlines() if line.startswith(RAW_PREFIX)]
    return (
        json.loads(done.stdout.strip().splitlines()[-1]),
        json.loads(raw[-1][len(RAW_PREFIX):]) if raw else None,
    )


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "runs": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import scipy  # only for the version string

    record = {
        "label": args.label,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpus": os.cpu_count(),
            "note": "thread scaling is measured only up to the CPU count",
        },
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "trace_seed": TRACE_SEED,
        "workloads": {},
    }
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    for name in sorted(WORKLOADS):
        results, raws = zip(*(run(name, seed, spec["run_seconds"], 0) for seed in args.seeds))
        traced, _ = run(name, TRACE_SEED, spec["run_seconds"], 1)
        metrics = {
            m: summary([r["metrics"][m]["value"] for r in results])
            for m in results[0]["metrics"]
        }
        unscaled = {m: summary([r[m] for r in raws]) for m in raws[0]}
        record["workloads"][name] = {
            "why": whys[name],
            "deflab_threads": WORKLOADS[name].threads,
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": metrics,
            "unscaled": unscaled,
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
        spreads = ", ".join(f"{m} {v['spread']:.3f}" for m, v in metrics.items())
        print(f"{name}: spreads {spreads}", flush=True)

    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
