"""Per-layer spans recorded from outside the simulator.

The tracer replaces public functions and methods of the simulator's modules
with timing wrappers for the duration of a ``with`` block, then puts the
originals back. Each call becomes one span (name, start, end, parent), kept
in memory and written out when the benchmark ends. A name is looked up
where the caller looks it up: ``controller`` imports ``shortest_feasible_path``
by name, so the wrapper goes on ``qoechain.controller``, not on
``qoechain.routing``.

Per-link accessors such as ``NetworkState.link_quality`` are deliberately not
wrapped: they run millions of times per run and the wrapper would swamp them.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter_ns

# (span name, module, attribute path) for every wrapped entry point;
# run_bench.layer_metrics groups the span names into layers.
ENTRY_POINTS = [
    ("kernel.run", "qoechain.kernel", "run"),
    ("kernel.audit_conservation", "qoechain.kernel", "audit_conservation"),
    ("kernel.audit_lifecycle", "qoechain.kernel", "audit_lifecycle"),
    ("orchestrator.submit_request", "qoechain.orchestrator", "Orchestrator.submit_request"),
    ("orchestrator.complete_request", "qoechain.orchestrator", "Orchestrator.complete_request"),
    ("orchestrator.apply_action", "qoechain.orchestrator", "Orchestrator.apply_action"),
    ("controller.admit", "qoechain.controller", "Controller.admit"),
    ("controller.monitor_window", "qoechain.controller", "Controller.monitor_window"),
    ("controller.handle_breach", "qoechain.controller", "Controller.handle_breach"),
    ("controller.handle_host_failure", "qoechain.controller", "Controller.handle_host_failure"),
    ("routing.shortest_feasible_path", "qoechain.controller", "shortest_feasible_path"),
    ("qoe.predict_mos", "qoechain.controller", "predict_mos"),
    ("qoe.estimate_mos", "qoechain.controller", "estimate_mos"),
    ("qoe.estimate_mos", "qoechain.qoe", "estimate_mos"),
    ("service.path_metrics", "qoechain.controller", "path_metrics"),
    ("service.path_metrics", "qoechain.qoe", "path_metrics"),
    ("network.reserve", "qoechain.network", "NetworkState.reserve"),
    ("network.release", "qoechain.network", "NetworkState.release"),
    ("network.fail_host", "qoechain.network", "NetworkState.fail_host"),
    ("network.degrade_link", "qoechain.network", "NetworkState.degrade_link"),
    ("scenario.load_scenario", "qoechain.scenario", "load_scenario"),
    ("report.write_report", "qoechain.report", "write_report"),
]


class Tracer:
    """Wraps ENTRY_POINTS while active and records one span per call.

    ``spans`` holds (name, start_ns, end_ns, parent_index) tuples in call
    order; parent_index is -1 for a root span. ``outcomes`` counts
    (span name, outcome label) pairs for calls whose result tells whether
    the work was useful, such as a path found or a request admitted.
    Spans and outcomes accumulate until the tracer is discarded.
    """

    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.outcomes: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, module_name, path in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, func):
        spans, stack, outcomes = self.spans, self._stack, self.outcomes
        label = _OUTCOMES.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if label is not None:
                for outcome, count in label(result):
                    outcomes[(name, outcome)] += count
            return result

        return traced

    def self_times(self) -> dict[str, tuple[int, int]]:
        """Per span name: (call count, self time in ns).

        Self time is a span's duration minus the durations of its direct
        children; calls nest strictly in one thread, so children never
        overlap each other.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, tuple[int, int]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            calls, self_ns = totals.get(name, (0, 0))
            totals[name] = (calls + 1, self_ns + end - start - child_ns[index])
        return totals

    def durations_ns(self, name: str) -> list[int]:
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]

    def write(self, path) -> None:
        """Write the spans as CSV: index, name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start_ns,end_ns,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{index},{name},{start},{end},{parent}\n")


# Outcome labels with counts, read off a call's result.
def _admit_outcome(result):
    reason = getattr(result, "reason", None)
    if reason is None:
        return [("accepted", 1)]
    return [("rejected", 1), (f"reject.{reason.value}", 1)]


def _repair_outcome(result):
    actions = result if isinstance(result, list) else [result]
    return [(f"action.{action.kind.value}", 1) for action in actions]


_OUTCOMES = {
    "routing.shortest_feasible_path": lambda path: [("found", path is not None)],
    "controller.admit": _admit_outcome,
    "controller.handle_breach": _repair_outcome,
    "controller.handle_host_failure": _repair_outcome,
    "controller.monitor_window": lambda result: [("sample", len(result[0]))],
}
