"""deference-lab benchmark: seeded closed-loop workloads, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload global-exact --seed 1 --seconds 30 --trace 0

Workloads (one caller, closed loop: the next operation starts when the
previous one returns):

* ``global-exact``   -- one exact ``check_global_trust`` per operation,
  n = 5..9, random / trusting / repeated-row experts, DEFLAB_THREADS=1.
* ``mc-scores``      -- one score bundle per operation (``expected_gap``,
  ``rhs_identity``, ``estimate_ae_trust``, ``inaccuracy_mc``), n in {4, 8},
  Gaussian and mixture measures, DEFLAB_THREADS=2.
* ``pipeline-small`` -- one in-process ``cli.main`` call per operation on a
  scenario file with n = 2..5, cycling through the five subcommands,
  DEFLAB_THREADS=1.

Set-up (a cold interpreter's ``import deference_lab.cli`` plus generating
the workload's scenarios and files) is repeated ``SETUP_REPEATS`` times and
its median reported as ``setup_s``.  The timed loop then runs whole rounds
for ``--seconds``; correctness checks run after it and decide ``correct``
and ``failed``.

End-to-end metrics (``--trace 0``): ``setup_s``, ``ops_per_s``,
``op_p50_s``, ``op_p90_s`` and ``peak_rss_mb``.  A shared 2-CPU host can
change speed by 20-50% within seconds, so every time is reported at a
reference host speed: each is scaled by a fixed reference kernel's nominal
time over its measured time next to the operation (``calibration.py``).
The unscaled times (and the kernel's median time) are printed to stderr
as one JSON line starting with ``raw-metrics``; ``failed_frac`` is
printed there too.  Monte-Carlo throughput is the per-layer
``sampling.samples_per_s``.

``--trace 1`` runs a fixed list of rounds once untraced and once with
spans around every public layer function (``tracing.py``), prints the
per-layer metrics and writes the spans to ``.bench_out/``.  The last line
of stdout is the result object.  Exits 2 without a result when the package
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
WARMUP_OPS = 3
#: Starts the stderr line that holds the unscaled times as JSON.
RAW_PREFIX = "raw-metrics "

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}

#: Times a cold ``import deference_lab.cli``, then the interpreter kernel
#: three times in the same process (median), to gauge the host's speed.
COLD_IMPORT = (
    "import time; t = time.perf_counter(); import deference_lab.cli; "
    "t = time.perf_counter() - t; from calibration import InterpreterKernel; "
    "k = InterpreterKernel(); print(t, sorted(k() for _ in range(3))[1])"
)


def cold_import() -> tuple[float, float]:
    """(import seconds, kernel seconds) from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SOURCE), str(HERE))))
    done = subprocess.run(
        [sys.executable, "-c", COLD_IMPORT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    imported, kernel_s = done.stdout.split()
    return float(imported), float(kernel_s)


def set_up(workload_cls, seed: int, scratch: Path):
    """Repeated cold import + generation; returns the last pool and medians.

    ``setup_s`` is normalised like the loop metrics, by the kernel time
    measured in the importing interpreter; the raw times are returned too.
    """
    from calibration import InterpreterKernel

    cold_import()  # compiles bytecode on a fresh checkout; not measured
    scaled, raw, imports = [], [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        imported, kernel_s = cold_import()
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        started = time.perf_counter()
        workload = workload_cls(seed, scratch)
        total = imported + time.perf_counter() - started
        raw.append(total)
        scaled.append(total * InterpreterKernel.nominal_s / kernel_s)
        imports.append(imported)
    return workload, statistics.median(scaled), statistics.median(raw), statistics.median(imports)


def run_rounds(workload, rounds: int | None, seconds: float, tracer=None, kernel=None):
    """Closed loop over whole rounds: a fixed count, or until ``seconds``.

    Returns the executions and, per round, the op latencies and (given a
    reference ``kernel``) the kernel's times before each op and after the
    last one.
    """
    executions, timings = [], []
    deadline = time.perf_counter() + seconds
    k = r = 0
    while (r < rounds) if rounds is not None else (r == 0 or time.perf_counter() < deadline):
        latencies, kernel_s = [], []
        for op in workload.rounds[r % len(workload.rounds)]:
            if kernel is not None:
                kernel_s.append(kernel())
            if tracer is not None:
                tracer.op = k
            t0 = time.perf_counter()
            try:
                result, error = workload.run(op, k), None
            except Exception as exc:  # a raised exception is a failed operation
                result, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            executions.append((op, k, result, error))
            k += 1
        if kernel is not None:
            kernel_s.append(kernel())
        timings.append((latencies, kernel_s))
        r += 1
    return executions, timings


def scaled(timings, nominal_s: float) -> list[list[float]]:
    """Per-round latencies at the reference host speed.

    Each latency is scaled by ``nominal_s`` over the mean of the reference
    kernel's times just before and just after the op, i.e. to seconds on a
    host that runs the kernel in ``nominal_s`` (see ``calibration.py``).
    """
    return [
        [t * 2.0 * nominal_s / (before + after) for t, before, after in zip(lat, ks, ks[1:])]
        for lat, ks in timings
    ]


def loop_metrics(rounds: list[list[float]]) -> dict:
    """Throughput (median over rounds of ops per busy second) and latency quantiles."""
    pooled = [t for latencies in rounds for t in latencies]
    return {
        "ops_per_s": statistics.median(len(lat) / sum(lat) for lat in rounds),
        "op_p50_s": statistics.median(pooled),
        "op_p90_s": statistics.quantiles(pooled, n=10)[8],
    }


def check_all(workload, executions) -> tuple[int, list[str]]:
    """Failed operation count, plus problems found by the whole-run checks."""
    failed = 0
    for op, k, result, error in executions:
        problems = [error] if error is not None else workload.check(op, result)
        if problems:
            failed += 1
            print(f"op {k} failed: {'; '.join(problems)}", file=sys.stderr)
    return failed, workload.final_checks(executions)


def main(argv=None) -> int:
    import deference_lab  # the checkout's own source, put on sys.path below
    from tracing import LAYER_UNITS
    from workloads import WORKLOADS

    if Path(deference_lab.__file__).resolve().parent != SOURCE / "deference_lab":
        print(f"error: imported deference_lab from {deference_lab.__file__}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    os.environ["DEFLAB_THREADS"] = str(cls.threads)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload, setup_s, setup_raw, import_s = set_up(cls, args.seed, scratch)
        for k, op in enumerate(workload.rounds[0][:WARMUP_OPS]):  # lazy numpy set-up
            workload.run(op, -1 - k)

        if args.trace:
            metrics, executions = traced_metrics(workload, args, import_s)
        else:
            kernel = cls.kernel()
            try:
                started = time.perf_counter()
                executions, timings = run_rounds(workload, None, args.seconds, kernel=kernel)
                elapsed = time.perf_counter() - started
            finally:
                kernel.close()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            at_reference = scaled(timings, kernel.nominal_s)
            metrics = {"setup_s": setup_s, **loop_metrics(at_reference), "peak_rss_mb": peak_rss_mb}
            raw = {
                "setup_s": setup_raw,
                **loop_metrics([latencies for latencies, _ in timings]),
                "kernel_s": statistics.median(t for _, ks in timings for t in ks),
            }
            print(
                f"{args.workload}: {len(executions)} ops in {len(timings)} rounds, {elapsed:.2f} s",
                file=sys.stderr,
            )
            print(f"{RAW_PREFIX}{json.dumps(raw)}", file=sys.stderr)
        failed, problems = check_all(workload, executions)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    attempted = len(executions)
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_metrics(workload, args, import_s: float):
    """Untraced then traced pass over the same fixed rounds."""
    from tracing import Tracer

    rounds = max(1, int(args.seconds / (2.0 * workload.round_s)))
    kernel = workload.kernel()
    tracer = Tracer()
    try:
        plain, plain_timings = run_rounds(workload, rounds, 0.0, kernel=kernel)
        tracer.install()
        try:
            traced, traced_timings = run_rounds(workload, rounds, 0.0, tracer, kernel)
        finally:
            tracer.uninstall()
    finally:
        kernel.close()
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    untraced_s, traced_s = (
        sum(map(sum, scaled(t, kernel.nominal_s))) for t in (plain_timings, traced_timings)
    )
    families = {k: workload.family(op) for op, k, *_ in traced}
    metrics = tracer.layer_metrics(families, import_s, untraced_s, traced_s)
    return metrics, plain + traced


if __name__ == "__main__":
    if not (SOURCE / "deference_lab" / "__init__.py").is_file():
        print(f"error: package source not found under {SOURCE}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SOURCE))
    sys.exit(main())
