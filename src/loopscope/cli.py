"""Command-line front end.

Two run modes mirror the library pipeline: ``--node NAME`` sweeps and
grades a single node, ``--all-nodes`` audits every non-ground node and
groups the findings into loops.  The exit status is scriptable: 0 for a
clean run, 2 when any loop grades as unstable-risk, 1 on errors.
"""

from __future__ import annotations

import argparse
import datetime
import math
import sys
from dataclasses import dataclass, field

from . import __version__
from .mna import GMIN_DEFAULT, MnaError, build_pattern
from .netlist import NetlistError, elaborate, parse, parse_value
from .report import (MismatchedGrids, REL_GAP_DEFAULT, StabilityReport,
                     build_report, render_curves_csv, render_json, render_text)
from .stability import PEAK_FLOOR_DEFAULT, Severity, analyze_response
from .sweep import BadRange, inject_node, make_grid, sweep_all_nodes

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSTABLE_RISK = 2


@dataclass
class RunConfig:
    netlist_path: str
    node: str | None = None          # single-node mode when set
    all_nodes: bool = False
    node_filter: str | None = None
    f_start: float = 1.0
    f_stop: float = 1e10
    ppd: int = 100
    floor: float = PEAK_FLOOR_DEFAULT
    rel_gap: float = REL_GAP_DEFAULT
    gmin: float = GMIN_DEFAULT
    out_path: str | None = None      # text report target, None = stdout
    csv_path: str | None = None
    json_path: str | None = None
    params: dict[str, float] = field(default_factory=dict)
    stamp: bool = False


def _spice_float(text: str) -> float:
    try:
        return parse_value(text)
    except NetlistError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _gmin(text: str) -> float:
    try:
        value = parse_value(text)
    except NetlistError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


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
    ap.add_argument("--floor", type=_positive_float, default=PEAK_FLOOR_DEFAULT,
                    help="peak detection floor on |P| (default 0.1)")
    ap.add_argument("--gap", type=_positive_float, default=REL_GAP_DEFAULT,
                    help="relative frequency gap for loop grouping (default 0.05)")
    ap.add_argument("--gmin", type=_gmin, default=GMIN_DEFAULT,
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


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(netlist_path=args.netlist, node=args.node,
                     all_nodes=args.all_nodes, node_filter=args.node_filter,
                     f_start=args.fstart, f_stop=args.fstop, ppd=args.ppd,
                     floor=args.floor, rel_gap=args.gap, gmin=args.gmin,
                     out_path=args.out_path, csv_path=args.csv_path,
                     json_path=args.json_path, params=dict(args.params),
                     stamp=args.stamp)


def run(config: RunConfig) -> int:
    """Execute one analysis run; returns the process exit status."""
    try:
        with open(config.netlist_path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        print(f"loopscope: error: cannot read netlist: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        grid = make_grid(config.f_start, config.f_stop, config.ppd)
        parsed = parse(source)
        for name, value in config.params.items():
            parsed.params[name] = value
        net = elaborate(parsed)

        curves = []
        peaks = []
        errors: dict[str, str] = {}
        if config.node is not None:
            pattern = build_pattern(net, gmin=config.gmin)
            responses = [inject_node(pattern, config.node, grid)]
        else:
            swept = sweep_all_nodes(net, grid, node_filter=config.node_filter,
                                    gmin=config.gmin)
            responses = swept.responses
            errors = swept.errors
        for resp in responses:
            curve, node_peaks = analyze_response(resp, floor=config.floor)
            curves.append(curve)
            peaks.extend(node_peaks)
        report = build_report(net.title, grid, peaks,
                              warnings=net.warnings,
                              per_node_errors=errors,
                              rel_gap=config.rel_gap)
        _emit(config, report, curves, responses)
    except (NetlistError, MnaError, BadRange, MismatchedGrids, OSError) as exc:
        print(f"loopscope: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if not responses:
        # Nothing was analysed, so "no loops" would be a false all-clear.
        if errors:
            reason = f"all {len(errors)} swept node(s) failed to solve"
        elif config.node_filter is not None:
            reason = f"no node matches --filter {config.node_filter!r}"
        else:
            reason = "the netlist has no non-ground node"
        print(f"loopscope: error: no node analysed: {reason}", file=sys.stderr)
        return EXIT_ERROR
    if report.worst_severity is Severity.UNSTABLE_RISK:
        return EXIT_UNSTABLE_RISK
    return EXIT_OK


def _emit(config: RunConfig, report: StabilityReport, curves, responses):
    # Each output is rendered before its file is opened, so a render
    # error leaves no empty file behind.
    text = render_text(report)
    if config.stamp:
        now = datetime.datetime.now().isoformat(timespec="seconds")
        text = f"generated {now}\n{text}"
    if config.out_path:
        _write(config.out_path, text)
    else:
        sys.stdout.write(text)
    if config.csv_path:
        _write(config.csv_path, render_curves_csv(curves, responses), newline="")
    if config.json_path:
        _write(config.json_path, render_json(report))


def _write(path: str, text: str, newline: str | None = None):
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.node_filter is not None and not args.all_nodes:
        parser.error("--filter requires --all-nodes")
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
