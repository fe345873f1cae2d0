"""One-line mutants of the decision core, the boxes, the sampler and the report
format, each run against the test suite.

Run from anywhere (it takes several minutes, so pytest does not collect it)::

    python tests/mutants.py              # every mutant
    python tests/mutants.py rank-cut     # only the named ones

Each mutant is one text edit of a file under ``src/deference_lab``; the
text it replaces must occur exactly once.  For each mutant the tree is
copied into a temporary directory, the edit is applied, and ``pytest -x``
runs there.  The mutant is killed when the run fails.  Tests that already
fail on an unmutated copy (one that needs an installed console script, say)
are deselected first, so they cannot kill a mutant.  The exit status is 0
when every mutant was killed.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (name, file under src/deference_lab, text, replacement).
MUTANTS = [
    ("single-projection", "trust.py",
     "    return residual - basis.T @ (basis @ residual)\n",
     "    return residual\n"),
    ("residual-skipped-at-n-minus-1", "trust.py",
     "    if k < n:\n",
     "    if k < n - 1:\n"),
    ("diagonal-stride", "trust.py",
     "    off.flat[:: k + 1] = 0.0\n",
     "    off.flat[:: k] = 0.0\n"),
    ("off-diagonal-slack-1e-6", "trust.py",
     "    if off[d, c] > SLACK:\n",
     "    if off[d, c] > SLACK * 1e6:\n"),
    ("class-residual-slack-1e-6", "trust.py",
     "        if sizes[c] > SLACK:\n",
     "        if sizes[c] > SLACK * 1e6:\n"),
    ("row-sum-slack-1e-6", "trust.py",
     "    if rows[d] < -SLACK:\n",
     "    if rows[d] < -SLACK * 1e6:\n"),
    ("rank-cut", "trust.py",
     "sv > sv[0] * max(distinct.shape) * _EPS",
     "sv > sv[0] * _EPS"),
    ("zero-mass-classes-kept", "trust.py",
     "zip(head, pi.tolist()) if p > 0.0}",
     "zip(head, pi.tolist()) if p >= 0.0}"),
    ("witness-to-minus-1e-3", "trust.py",
     "max(0.0, weight @ x + 1.0)",
     "max(0.0, weight @ x + 1e-3)"),
    ("local-shift-by-quarter-slack", "trust.py",
     "x.shifted(slack / 2.0 - v)",
     "x.shifted(slack / 4.0 - v)"),
    ("chain-last-cut-moved", "trust.py",
     "levels[-1] - 1.0)",
     "levels[-1] - 0.5)"),
    ("ordering-vector-shifted", "trust.py",
     "np.sin(np.arange(1.0, distinct.shape[1] + 1.0))",
     "np.sin(np.arange(2.0, distinct.shape[1] + 2.0))"),
    ("ae-full-acceptance-reuse-dropped", "trust.py",
     "        partial = np.where(accepted @ ones == scenario.n, agent_value, partial)\n",
     ""),
    ("half-width-box", "boxes.py",
     "        delta=min(lam, xi),\n",
     "        delta=min(lam, xi) / 2.0,\n"),
    ("witness-accepts-strictly", "trust.py",
     "    accepted = previsions >= 0.0\n",
     "    accepted = previsions > 0.0\n"),
    ("event-margin-from-nearest-outside", "trust.py",
     "xi = -max(outside)",
     "xi = -min(outside)"),
    ("positive-box-side", "boxes.py",
     "orientation=Orientation.POSITIVE_SIDE)",
     "orientation=Orientation.NEGATIVE_SIDE)"),
    ("chunk-seed-shifted", "sampling.py",
     "spawn_key=(chunk_index,)",
     "spawn_key=(chunk_index + 1,)"),
    ("chunk-merge-weight", "sampling.py",
     "delta * (c_count / total)",
     "delta * (count / total)"),
    ("float-format-16-digits", "cli.py",
     'format(float(x), ".17g")',
     'format(float(x), ".16g")'),
]

IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", "*.egg-info"
)


def _copy_tree(dst: Path) -> Path:
    tree = dst / "tree"
    shutil.copytree(ROOT, tree, ignore=IGNORED)
    return tree


def _pytest(tree: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)


def _failed(output: str) -> list[str]:
    """The node ids of the FAILED and ERROR lines of pytest's short summary."""
    ids = []
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                ids.append(line[len(tag):].split(" - ", 1)[0])
    return ids


def _apply(tree: Path, name: str, file: str, text: str, replacement: str) -> None:
    path = tree / "src" / "deference_lab" / file
    source = path.read_text()
    if source.count(text) != 1:
        raise SystemExit(f"mutant {name}: its text occurs {source.count(text)} times in {file}")
    path.write_text(source.replace(text, replacement))


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        control = _failed(_pytest(_copy_tree(Path(scratch) / "control"), "-rfE").stdout)
        print(f"deselected (failing unmutated): {control or 'none'}", flush=True)
        deselect = [arg for node in control for arg in ("--deselect", node)]
        survivors = []
        for k, (name, file, text, replacement) in enumerate(chosen):
            tree = _copy_tree(Path(scratch) / str(k))
            _apply(tree, name, file, text, replacement)
            start = time.perf_counter()
            run = _pytest(tree, "-x", "-rfE", *deselect)
            seconds = time.perf_counter() - start
            if run.returncode == 0:
                survivors.append(name)
                print(f"SURVIVED {name} ({seconds:.0f} s)", flush=True)
            else:
                killer = (_failed(run.stdout) or [f"pytest exit {run.returncode}"])[0]
                print(f"killed   {name} by {killer} ({seconds:.0f} s)", flush=True)
            shutil.rmtree(tree)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
