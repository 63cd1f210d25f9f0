"""The audit pipeline, ``audit``, and its command-line front end.

``--node NAME`` audits one node and ``--all-nodes`` every non-ground node
(``--filter GLOB`` keeps the matching ones).  Both are one ``audit`` call
over a list of nodes, so they share the report, the grouping of findings
into loops and the failure policy.  The exit status is scriptable: 0 for
a clean run, 2 when any loop grades as unstable-risk, 1 on errors,
including an audit that analysed no node.
"""

from __future__ import annotations

import argparse
import datetime
import fnmatch
import math
import sys

from . import __version__
from .mna import GMIN_DEFAULT, MnaError, build_pattern
from .netlist import Netlist, NetlistError, elaborate, parse, parse_value
from .report import (REL_GAP_DEFAULT, StabilityReport, build_report,
                     render_curves_csv, render_json, render_text)
from .stability import (PEAK_FLOOR_DEFAULT, Curves, Severity, detect_peaks,
                        stability_curves)
from .sweep import BadRange, FrequencyGrid, make_grid, sweep_all_nodes

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSTABLE_RISK = 2


def _spice_float(text: str) -> float:
    try:
        return parse_value(text)
    except NetlistError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _in_range(value: float, relation: str) -> bool:
    """True when ``value`` is finite and ``> 0``, or ``>= 0`` for ">="."""
    return math.isfinite(value) and (value > 0 or relation == ">=" and value == 0)


def _number(relation: str):
    """An argparse type for a SPICE number that is ``> 0`` or ``>= 0``."""
    def check(text: str) -> float:
        try:
            value = parse_value(text)
        except NetlistError:
            value = math.nan
        if not _in_range(value, relation):
            raise argparse.ArgumentTypeError(
                f"expected a finite number {relation} 0, got {text!r}")
        return value
    return check


def _param_override(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name.strip().lower(), _spice_float(value.strip())


class _ArgumentParser(argparse.ArgumentParser):
    # Usage problems must exit 1; status 2 is reserved for unstable-risk
    # findings so the tool can gate CI runs.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="loopscope",
        description="AC stability audit of closed-loop linear circuits by "
                    "per-node current injection (no loop breaking).")
    ap.add_argument("netlist", help="SPICE-subset netlist file")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--node", help="single-node mode: inject at this node")
    mode.add_argument("--all-nodes", action="store_true",
                      help="audit every non-ground node")
    ap.add_argument("--filter", dest="node_filter", metavar="GLOB",
                    help="all-nodes mode: only nodes matching this pattern")
    ap.add_argument("--fstart", type=_spice_float, default=1.0,
                    help="sweep start frequency in Hz (default 1)")
    ap.add_argument("--fstop", type=_spice_float, default=1e10,
                    help="sweep stop frequency in Hz (default 10G)")
    ap.add_argument("--ppd", type=int, default=100,
                    help="grid points per decade (default 100)")
    ap.add_argument("--floor", type=_number(">"), default=PEAK_FLOOR_DEFAULT,
                    help="peak detection floor on |P| (default 0.1)")
    ap.add_argument("--gap", type=_number(">"), default=REL_GAP_DEFAULT,
                    help="relative frequency gap for loop grouping (default 0.05)")
    ap.add_argument("--gmin", type=_number(">="), default=GMIN_DEFAULT,
                    help="node-to-ground conductance for solvability (default 1e-12)")
    ap.add_argument("--out", dest="out_path", metavar="PATH",
                    help="write the text report here instead of stdout")
    ap.add_argument("--csv", dest="csv_path", metavar="PATH",
                    help="write magnitude and stability curves as CSV")
    ap.add_argument("--json", dest="json_path", metavar="PATH",
                    help="write the machine-readable report as JSON")
    ap.add_argument("--param", dest="params", metavar="NAME=VALUE",
                    type=_param_override, action="append", default=[],
                    help="override a .param value (repeatable)")
    ap.add_argument("--stamp", action="store_true",
                    help="include a generation timestamp in the text report")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return ap


def _param_references(net: Netlist) -> set[str]:
    """Every parameter name a parsed netlist declares or references, at
    top level and inside subcircuit definitions."""
    names = set(net.params)
    values = list(net.params.values())
    for elements in [net.elements, *(sub.elements for sub in net.subcircuits.values())]:
        values.extend(elem.value for elem in elements)
    names.update(v for v in values if isinstance(v, str))
    return names


def audit(net: Netlist, grid: FrequencyGrid, *, nodes: list[str] | None = None,
          floor: float = PEAK_FLOOR_DEFAULT, gap: float = REL_GAP_DEFAULT,
          gmin: float = GMIN_DEFAULT) -> tuple[StabilityReport, Curves]:
    """Sweep ``nodes`` (all when None), analyse each and group the peaks
    into loops.  Returns the report and the analysed nodes' curves; a node
    that fails to solve is in ``report.per_node_errors`` instead.  Raises
    ``ValueError``, before any sweep, unless ``floor`` and ``gap`` are
    finite and > 0 and ``gmin`` is finite and >= 0."""
    for name, value, relation in (("floor", floor, ">"), ("gap", gap, ">"),
                                  ("gmin", gmin, ">=")):
        if not _in_range(value, relation):
            raise ValueError(f"{name} must be a finite number {relation} 0, got {value!r}")
    swept = sweep_all_nodes(build_pattern(net, gmin=gmin), grid, nodes)
    curves = stability_curves(swept)
    peaks = detect_peaks(curves, floor=floor)
    return build_report(net.title, grid, peaks, warnings=net.warnings,
                        per_node_errors=swept.errors, rel_gap=gap), curves


def run(args: argparse.Namespace) -> int:
    """Run one audit from parsed arguments; returns the exit status."""
    try:
        with open(args.netlist, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"loopscope: error: cannot read netlist: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        grid = make_grid(args.fstart, args.fstop, args.ppd)
        parsed = parse(source)
        known = _param_references(parsed)
        for name, value in args.params:
            if name not in known:
                # A misspelt override would otherwise audit the unmodified design.
                raise NetlistError(f"--param {name!r} is not a parameter of this netlist")
            parsed.params[name] = value
        net = elaborate(parsed)
        nodes = None if args.node is None else [args.node]
        if args.node_filter is not None:
            glob = args.node_filter.lower()
            nodes = [n for n in net.nodes if fnmatch.fnmatchcase(n.lower(), glob)]
        report, curves = audit(net, grid, nodes=nodes, floor=args.floor,
                               gap=args.gap, gmin=args.gmin)
        _emit(args, report, curves)
    except (NetlistError, MnaError, BadRange, OSError) as exc:
        print(f"loopscope: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if not curves.nodes:
        # Nothing was analysed, so "no loops" would be a false all-clear.
        if report.per_node_errors:
            reason = f"all {len(report.per_node_errors)} swept node(s) failed to solve"
        elif args.node_filter is not None:
            reason = f"no node matches --filter {args.node_filter!r}"
        else:
            reason = "the netlist has no non-ground node"
        print(f"loopscope: error: no node analysed: {reason}", file=sys.stderr)
        return EXIT_ERROR
    if report.worst_severity is Severity.UNSTABLE_RISK:
        return EXIT_UNSTABLE_RISK
    return EXIT_OK


def _emit(args: argparse.Namespace, report: StabilityReport, curves: Curves):
    # Every requested output is rendered before anything is written, so a
    # render error leaves no file behind and no partial set of outputs.
    text = render_text(report)
    if args.stamp:
        now = datetime.datetime.now().isoformat(timespec="seconds")
        text = f"generated {now}\n{text}"
    csv_text = render_curves_csv(curves) if args.csv_path else None
    json_text = render_json(report) if args.json_path else None
    if args.out_path:
        _write(args.out_path, text)
    else:
        sys.stdout.write(text)
    if csv_text is not None:
        _write(args.csv_path, csv_text, newline="")
    if json_text is not None:
        _write(args.json_path, json_text)


def _write(path: str, text: str, newline: str | None = None):
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.node_filter is not None and not args.all_nodes:
        parser.error("--filter requires --all-nodes")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
