"""Per-layer tracing from outside the program.

The tracer replaces names in loopscope's modules with timing wrappers,
always the name the *calling* module resolves: ``sweep`` imports
``assemble`` and ``solve`` by name, so those are wrapped as
``loopscope.sweep.assemble`` and ``loopscope.sweep.solve``.  A name that
no longer exists is listed as absent and its metrics read 0; it never
fails the run.

Spans are kept in memory with a link to the span that caused them.  A
span opened on a worker thread with no open span of its own is linked to
the innermost open span of the main thread, which is the caller waiting
for that worker.  A span's self time is its duration minus the union of
its children's intervals.  Layer times add up the spans of that layer;
the CLI's all-nodes thread pool runs node sweeps side by side, so there a
layer's time can exceed ``cli.run_s``.

Run as a script, it audits one CLI argv in this fresh process with
tracing on and writes the per-layer metrics to a JSON file::

    python3 perfbench/tracing.py RESULT.json -- <loopscope argv>
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

# (module, name, span name, attributes taken from the return value)
WRAPS = [
    ("loopscope.cli", "run", "cli.run", None),
    ("loopscope.cli", "parse", "netlist.parse", None),
    ("loopscope.cli", "elaborate", "netlist.elaborate",
     lambda net: {"elements": len(net.elements)}),
    ("loopscope.cli", "build_pattern", "mna.build_pattern",
     lambda pat: {"dim": pat.dim}),
    ("loopscope.sweep", "build_pattern", "mna.build_pattern",
     lambda pat: {"dim": pat.dim}),
    ("loopscope.sweep", "assemble", "mna.assemble", None),
    ("loopscope.sweep", "solve", "mna.solve", None),
    # Points are counted where the CLI receives responses, so that each
    # point counts once whichever path produced it.
    ("loopscope.cli", "inject_node", "sweep.inject_node",
     lambda resp: {"points": len(resp.magnitude), "clamped": int(resp.clamped.sum())}),
    ("loopscope.sweep", "inject_node", "sweep.inject_node", None),
    ("loopscope.cli", "sweep_all_nodes", "sweep.sweep_all_nodes",
     lambda swept: {"points": sum(len(r.magnitude) for r in swept.responses),
                    "clamped": sum(int(r.clamped.sum()) for r in swept.responses),
                    "errors": len(swept.errors)}),
    ("loopscope.cli", "analyze_response", "stability.analyze",
     lambda result: {"peaks": len(result[1])}),
    ("loopscope.cli", "build_report", "report.build",
     lambda rep: {"loops": len(rep.groups)}),
    ("loopscope.cli", "render_text", "report.render", None),
    ("loopscope.cli", "render_json", "report.render", None),
]

# per-layer metric -> (unit, span names it is computed from)
LAYER_METRICS = {
    "netlist.parse_s": ("s", ["netlist.parse"]),
    "netlist.elaborate_s": ("s", ["netlist.elaborate"]),
    "netlist.elements": ("count", ["netlist.elaborate"]),
    "mna.build_pattern_s": ("s", ["mna.build_pattern"]),
    "mna.dim": ("count", ["mna.build_pattern"]),
    "mna.assemble_calls": ("count", ["mna.assemble"]),
    "mna.assemble_s": ("s", ["mna.assemble"]),
    "mna.solve_calls": ("count", ["mna.solve"]),
    "mna.solve_s": ("s", ["mna.solve"]),
    "mna.solve_us_per_call": ("us", ["mna.solve"]),
    "sweep.inject_node_calls": ("count", ["sweep.inject_node"]),
    "sweep.inject_node_self_s": ("s", ["sweep.inject_node"]),
    "sweep.points": ("count", ["sweep.inject_node", "sweep.sweep_all_nodes"]),
    "sweep.clamped_frac": ("1", ["sweep.inject_node", "sweep.sweep_all_nodes"]),
    "sweep.node_errors": ("count", ["sweep.sweep_all_nodes"]),
    "stability.analyze_calls": ("count", ["stability.analyze"]),
    "stability.analyze_s": ("s", ["stability.analyze"]),
    "stability.peaks": ("count", ["stability.analyze"]),
    "report.build_s": ("s", ["report.build"]),
    "report.render_s": ("s", ["report.render"]),
    "report.loops": ("count", ["report.build"]),
    "cli.run_s": ("s", ["cli.run"]),
    "cli.self_s": ("s", ["cli.run"]),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs: dict | None = None


class Tracer:
    """Collects spans from the wrapped names until ``uninstall``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> "Tracer":
        self.absent = []
        for module_name, attr, span_name, extract in WRAPS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name, extract))
        return self

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, name, extract):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            span = Span(name, parent)
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if extract is not None:
                try:
                    span.attrs = extract(result)
                except (AttributeError, TypeError, IndexError):
                    pass
            return result
        return traced

    def take(self) -> list[Span]:
        """Return and forget the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans

    def absent_metrics(self) -> list[str]:
        """Metrics none of whose source names could be wrapped."""
        wrapped = {span for module, attr, span, _ in WRAPS
                   if f"{module}.{attr}" not in self.absent}
        return sorted(metric for metric, (_, sources) in LAYER_METRICS.items()
                      if not wrapped.intersection(sources))


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one audit's spans."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    attrs: dict[str, float] = defaultdict(float)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    for span in spans:
        duration = span.end - span.start
        calls[span.name] += 1
        busy[span.name] += duration
        own[span.name] += duration - _covered(children.get(id(span), []))
        for key, value in (span.attrs or {}).items():
            attrs[key] += value
    solves = calls["mna.solve"]
    return {
        "netlist.parse_s": busy["netlist.parse"],
        "netlist.elaborate_s": busy["netlist.elaborate"],
        "netlist.elements": attrs["elements"],
        "mna.build_pattern_s": busy["mna.build_pattern"],
        "mna.dim": attrs["dim"] / max(calls["mna.build_pattern"], 1),
        "mna.assemble_calls": calls["mna.assemble"],
        "mna.assemble_s": busy["mna.assemble"],
        "mna.solve_calls": solves,
        "mna.solve_s": busy["mna.solve"],
        "mna.solve_us_per_call": 1e6 * busy["mna.solve"] / solves if solves else 0.0,
        "sweep.inject_node_calls": calls["sweep.inject_node"],
        "sweep.inject_node_self_s": own["sweep.inject_node"],
        "sweep.points": attrs["points"],
        "sweep.clamped_frac": attrs["clamped"] / attrs["points"] if attrs["points"] else 0.0,
        "sweep.node_errors": attrs["errors"],
        "stability.analyze_calls": calls["stability.analyze"],
        "stability.analyze_s": busy["stability.analyze"],
        "stability.peaks": attrs["peaks"],
        "report.build_s": busy["report.build"],
        "report.render_s": busy["report.render"],
        "report.loops": attrs["loops"],
        "cli.run_s": busy["cli.run"],
        "cli.self_s": own["cli.run"],
    }


def _main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py RESULT.json -- <loopscope argv>", file=sys.stderr)
        return 1
    result_path, cli_argv = argv[0], argv[2:]
    import loopscope.cli
    tracer = Tracer().install()
    try:
        code = loopscope.cli.main(cli_argv)
    finally:
        tracer.uninstall()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "metrics": layer_metrics(tracer.take()),
                   "absent": tracer.absent_metrics()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
