"""Spans and counters around deference_lab's public functions, from outside.

``Tracer.install()`` replaces each traced function with a timing wrapper in
every ``deference_lab`` module that holds a reference to it, so calls
between modules are seen as well as calls from the benchmark;
``uninstall()`` puts the originals back.  Spans (name, start, end, parent,
op id, world count) stay in memory and are written out once, at the end.

Spans are opened only on the benchmark's own thread.  The draw and
evaluate callables handed to the Monte-Carlo drivers may run on worker
threads, so they feed lock-protected accumulators of summed thread time
instead of spans.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from collections import defaultdict

from deference_lab import accuracy, adversarial, boxes, cli, core, measures, sampling, simplex, trust

#: World counts for which the per-call time of the exact global check is
#: reported separately, over one scenario family only: the per-call time
#: depends on the family (LP difficulty, skipped events), and this one runs
#: at every size, so the series shows how the time grows with n.
GLOBAL_SIZES = (5, 6, 7, 8, 9)
GLOBAL_SIZE_FAMILY = "trusting"

#: Every per-layer metric, with its unit.  Times ending in ``_s`` are
#: seconds per benchmark operation unless the name says ``s_per_call``.
LAYER_UNITS = {
    "simplex.calls": "count",
    "simplex.pivots": "count",
    "simplex.busy_s": "s",
    "trust.global.calls": "count",
    "trust.global.busy_s": "s",
    "trust.global.self_s": "s",
    "trust.global.events_skipped": "count",
    **{f"trust.global.s_per_call.n{n}": "s" for n in GLOBAL_SIZES},
    "trust.local.calls": "count",
    "trust.local.busy_s": "s",
    "core.expectation.calls": "count",
    "trust.ae.busy_s": "s",
    "accuracy.gap.busy_s": "s",
    "accuracy.identity.busy_s": "s",
    "accuracy.inaccuracy.busy_s": "s",
    "sampling.chunks": "count",
    "sampling.samples": "count",
    "sampling.busy_s": "s",
    "sampling.draw_s": "s",
    "sampling.eval_s": "s",
    "sampling.samples_per_s": "samples/s",
    "measures.draw_s": "s",
    "boxes.calls": "count",
    "boxes.positive_calls": "count",
    "boxes.busy_s": "s",
    "adversarial.calls": "count",
    "adversarial.rungs": "count",
    "adversarial.exhausted": "count",
    "adversarial.busy_s": "s",
    "cli.calls": "count",
    "cli.busy_s": "s",
    "cli.load_s": "s",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Counts that depend only on the inputs, so they repeat exactly for a seed.
EXACT_COUNTS = (
    "simplex.calls",
    "simplex.pivots",
    "trust.global.calls",
    "trust.global.events_skipped",
    "trust.local.calls",
    "core.expectation.calls",
    "sampling.chunks",
    "sampling.samples",
    "boxes.calls",
    "boxes.positive_calls",
    "adversarial.calls",
    "adversarial.rungs",
    "adversarial.exhausted",
    "cli.calls",
)

NAME, START, END, PARENT, OP, WORLDS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.thread_s: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            scenario = args[0] if args else None
            worlds = scenario.n if isinstance(scenario, trust.Scenario) else 0
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter(), 0.0, parent, self.op, worlds]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except adversarial.SearchExhaustedError:
                if name == "adversarial":
                    self.counts["adversarial.exhausted"] += 1
                raise
            finally:
                record[END] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _thread_timed(self, key, fn, rows=False):
        def wrapper(*args):
            started = time.perf_counter()
            out = fn(*args)
            spent = time.perf_counter() - started
            with self._lock:
                self.thread_s[key] += spent
                if rows:
                    self.counts["sampling.chunks"] += 1
                    self.counts["sampling.samples"] += int(args[1])
            return out

        return wrapper

    def _counted(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _driver(self, fn):
        traced = self._span("sampling", fn)

        def wrapper(draw, values, samples, seed):
            return traced(
                self._thread_timed("sampling.draw_s", draw, rows=True),
                self._thread_timed("sampling.eval_s", values),
                samples,
                seed,
            )

        return wrapper

    def _pivots(self, result) -> None:
        self.counts["simplex.pivots"] += result.iterations

    # -- installation ------------------------------------------------------

    def _patch(self, module, name, make) -> None:
        original = getattr(module, name)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("deference_lab") and (
                getattr(mod, name, None) is original
            ):
                setattr(mod, name, wrapper)
                self._undo.append((mod, name, original))

    def install(self) -> None:
        span = self._span
        self._patch(simplex, "simplex_maximize", lambda f: span("simplex", f, self._pivots))
        self._patch(trust, "check_global_trust", lambda f: span("trust.global", f))
        self._patch(trust, "check_local_trust", lambda f: span("trust.local", f))
        self._patch(trust, "estimate_ae_trust", lambda f: span("trust.ae", f))
        self._patch(core, "expectation", lambda f: self._counted("core.expectation.calls", f))
        self._patch(accuracy, "expected_gap", lambda f: span("accuracy.gap", f))
        self._patch(accuracy, "rhs_identity", lambda f: span("accuracy.identity", f))
        self._patch(accuracy, "inaccuracy_mc", lambda f: span("accuracy.inaccuracy", f))
        self._patch(sampling, "mc_estimate", self._driver)
        self._patch(sampling, "mc_frequency", self._driver)
        self._patch(boxes, "build_violation_box", lambda f: span("boxes", f))
        self._patch(boxes, "build_positive_box", lambda f: span("boxes.positive", f))
        self._patch(adversarial, "build_adversarial_measure", lambda f: span("adversarial", f))
        self._patch(cli, "main", lambda f: span("cli", f))
        self._patch(cli, "load_scenario", lambda f: span("cli.load", f))

        original_sampler = measures.MeasureSpec.sampler

        def sampler(spec, dim):
            return self._thread_timed("measures.draw_s", original_sampler(spec, dim))

        measures.MeasureSpec.sampler = sampler
        self._undo.append((measures.MeasureSpec, "sampler", original_sampler))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- reduction ---------------------------------------------------------

    def layer_metrics(
        self, families: dict[int, str], import_s: float, untraced_s: float, traced_s: float
    ) -> dict:
        """Per-layer metrics over the traced operations.

        ``families`` maps each traced operation's id to its scenario family.
        ``untraced_s`` and ``traced_s`` are the host-speed-normalised busy
        times of the same operations without and with tracing.
        """
        durations = [s[END] - s[START] for s in self.spans]
        covered = [0.0] * len(self.spans)
        children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                covered[s[PARENT]] += durations[i]
                children[s[PARENT]].append(i)

        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        per_size: dict[int, list[float]] = defaultdict(list)
        skipped = rungs = 0
        for i, s in enumerate(self.spans):
            name = s[NAME]
            calls[name] += 1
            busy[name] += durations[i]
            own[name] += durations[i] - covered[i]
            kids = [self.spans[c][NAME] for c in children[i]]
            if name == "trust.global":
                if families[s[OP]] == GLOBAL_SIZE_FAMILY:
                    per_size[s[WORLDS]].append(durations[i])
                skipped += (1 << s[WORLDS]) - 1 - kids.count("simplex")
            elif name == "adversarial":
                rungs += kids.count("accuracy.gap")

        c = self.counts
        per_op = 1.0 / len(families)
        metrics = {
            "simplex.calls": calls["simplex"],
            "simplex.pivots": c["simplex.pivots"],
            "simplex.busy_s": busy["simplex"] * per_op,
            "trust.global.calls": calls["trust.global"],
            "trust.global.busy_s": busy["trust.global"] * per_op,
            "trust.global.self_s": own["trust.global"] * per_op,
            "trust.global.events_skipped": skipped,
            **{
                f"trust.global.s_per_call.n{n}": (
                    statistics.median(per_size[n]) if per_size[n] else 0.0
                )
                for n in GLOBAL_SIZES
            },
            "trust.local.calls": calls["trust.local"],
            "trust.local.busy_s": busy["trust.local"] * per_op,
            "core.expectation.calls": c["core.expectation.calls"],
            "trust.ae.busy_s": busy["trust.ae"] * per_op,
            "accuracy.gap.busy_s": busy["accuracy.gap"] * per_op,
            "accuracy.identity.busy_s": busy["accuracy.identity"] * per_op,
            "accuracy.inaccuracy.busy_s": busy["accuracy.inaccuracy"] * per_op,
            "sampling.chunks": c["sampling.chunks"],
            "sampling.samples": c["sampling.samples"],
            "sampling.busy_s": busy["sampling"] * per_op,
            "sampling.draw_s": self.thread_s["sampling.draw_s"] * per_op,
            "sampling.eval_s": self.thread_s["sampling.eval_s"] * per_op,
            "sampling.samples_per_s": c["sampling.samples"] / untraced_s,
            "measures.draw_s": self.thread_s["measures.draw_s"] * per_op,
            "boxes.calls": calls["boxes"] + calls["boxes.positive"],
            "boxes.positive_calls": calls["boxes.positive"],
            "boxes.busy_s": (busy["boxes"] + busy["boxes.positive"]) * per_op,
            "adversarial.calls": calls["adversarial"],
            "adversarial.rungs": rungs,
            "adversarial.exhausted": c["adversarial.exhausted"],
            "adversarial.busy_s": busy["adversarial"] * per_op,
            "cli.calls": calls["cli"],
            "cli.busy_s": busy["cli"] * per_op,
            "cli.load_s": busy["cli.load"] * per_op,
            "cli.self_s": own["cli"] * per_op,
            "cli.import_s": import_s,
            "trace.overhead_frac": 1.0 - untraced_s / traced_s,
        }
        assert metrics.keys() == LAYER_UNITS.keys()
        return metrics

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT],
                            "op": s[OP],
                            "n": s[WORLDS],
                        }
                    )
                    + "\n"
                )
