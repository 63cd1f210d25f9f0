"""Loop grouping and report rendering (text, CSV, JSON).

Pole peaks from different nodes that share a natural frequency belong to
the same feedback loop, so they are clustered on log frequency with
single-linkage and a relative gap cutoff.  The text report lists one
section per loop, worst member first, in the style

    Loop at 3.16 MHz
    Output 28.884067 3.16E+06

with peak magnitudes printed to six fractional digits and frequencies in
two-decimal scientific notation.  Rendering is deterministic: rows sort
on the values they print, then on node, so noise below the printed
precision never reorders them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .stability import Curves, Peak, PeakKind, Severity
from .sweep import FrequencyGrid

REL_GAP_DEFAULT = 0.05

JSON_SCHEMA = "loopscope-report-1"


@dataclass
class LoopGroup:
    """One loop: its pole peaks, deepest first.  The loop's grade is its
    worst member's, the min-zeta gradable one; severity never improves
    as zeta falls, so that member also carries the worst severity."""

    members: list[Peak]            # sorted on construction by descending printed |p_value|
    worst: Peak | None = field(init=False)

    def __post_init__(self):
        self.members = sorted(self.members, key=lambda pk: (-round(abs(pk.p_value), 6), pk.node))
        self.worst = min((m for m in self.members if m.gradable),
                         key=lambda m: m.zeta, default=None)

    @property
    def label_freq(self) -> float:
        """Hz, from the first row: the deepest peak as printed."""
        return self.members[0].natural_freq

    @property
    def worst_zeta(self) -> float | None:
        return self.worst.zeta if self.worst else None

    @property
    def worst_node(self) -> str:
        """The worst member's node, else the first row's."""
        return (self.worst or self.members[0]).node

    @property
    def severity(self) -> Severity | None:
        return self.worst.severity if self.worst else None


@dataclass
class StabilityReport:
    netlist_title: str
    grid: FrequencyGrid
    groups: list[LoopGroup]
    zeros: list[Peak]
    warnings: list[str]
    per_node_errors: dict[str, str]

    @property
    def worst_severity(self) -> Severity | None:
        graded = [g.severity for g in self.groups if g.severity is not None]
        return min(graded) if graded else None


def build_report(title: str, grid: FrequencyGrid, peaks: list[Peak],
                 warnings: list[str] | None = None,
                 per_node_errors: dict[str, str] | None = None,
                 rel_gap: float = REL_GAP_DEFAULT) -> StabilityReport:
    """Cluster the pole peaks into loops and list the zeros apart.  Loops
    are single-linkage clusters on ln(natural frequency): sort the poles
    by frequency and cut wherever consecutive ones are more than
    ``1 + rel_gap`` apart, so the loops come out in increasing frequency.
    Input order never affects the result."""
    poles = sorted((pk for pk in peaks if pk.kind is PeakKind.COMPLEX_POLE),
                   key=lambda pk: (pk.natural_freq, pk.node, -abs(pk.p_value)))
    cut = math.log1p(rel_gap)
    clusters: list[list[Peak]] = []
    for i, here in enumerate(poles):
        if i == 0 or math.log(here.natural_freq / poles[i - 1].natural_freq) > cut:
            clusters.append([])
        clusters[-1].append(here)
    zeros = [pk for pk in peaks if pk.kind is PeakKind.COMPLEX_ZERO]
    zeros.sort(key=lambda pk: (float(f"{pk.natural_freq:.2E}"), pk.node))
    return StabilityReport(title, grid, [LoopGroup(c) for c in clusters], zeros,
                           list(warnings or []), dict(per_node_errors or {}))


def format_eng_freq(freq_hz: float) -> str:
    """Three-significant-digit engineering formatting: 3.16 MHz, 47.9 MHz,
    and past either end of the unit table 1000 THz or 0.000005 Hz."""
    value = float(f"{freq_hz:.3g}")
    for unit, scale in (("THz", 1e12), ("GHz", 1e9), ("MHz", 1e6), ("kHz", 1e3)):
        if value >= scale:
            break
    else:
        unit, scale = "Hz", 1.0
    # Positional digits: "%.3g" would switch to an exponent ("1e+03 THz").
    digits = np.format_float_positional(value / scale, precision=3, unique=False,
                                        fractional=False, trim="-")
    return f"{digits} {unit}"


def _flag_suffix(peak: Peak) -> str:
    if not peak.flags:
        return ""
    notes = " ".join(f"[{f.value}]" for f in sorted(peak.flags, key=lambda f: f.value))
    return f" {notes}"


def _row_widths(peaks: list[Peak]) -> tuple[int, int]:
    node_w = max(len(pk.node) for pk in peaks)
    peak_w = max(len(f"{abs(pk.p_value):.6f}") for pk in peaks)
    return node_w, peak_w


def _fmt_row(pk: Peak, node_w: int, peak_w: int) -> str:
    return (f"{pk.node:<{node_w}} {abs(pk.p_value):>{peak_w}.6f} "
            f"{pk.natural_freq:.2E}{_flag_suffix(pk)}")


def render_text(report: StabilityReport) -> str:
    """Deterministic plain-text report.  Rows are
    node, |stability peak|, natural frequency (Hz)."""
    grid = report.grid
    out = [report.netlist_title,
           f"sweep {grid.freqs[0]:g} Hz .. {grid.freqs[-1]:g} Hz, "
           f"{grid.points_per_decade} points/decade ({len(grid)} points)",
           ""]
    if not report.groups:
        out.append("No oscillatory loops detected above floor.")
        out.append("")
    shown = [pk for g in report.groups for pk in g.members] + report.zeros
    node_w, peak_w = _row_widths(shown) if shown else (1, 1)
    for group in report.groups:
        out.append(f"Loop at {format_eng_freq(group.label_freq)}")
        out.extend(_fmt_row(pk, node_w, peak_w) for pk in group.members)
        worst = group.worst
        if worst is not None:
            out.append(f"  worst zeta {worst.zeta:.3f} (node {worst.node}): "
                       f"est. phase margin {worst.phase_margin_deg:.1f} deg, "
                       f"overshoot {worst.overshoot_pct:.1f}%, "
                       f"severity {worst.severity.label}")
        else:
            out.append("  all peaks flagged; severity ungraded")
        out.append("")
    if report.zeros:
        out.append("Complex zeros")
        out.extend(_fmt_row(pk, node_w, peak_w) for pk in report.zeros)
        out.append("")
    if report.warnings or report.per_node_errors:
        out.append("Warnings")
        for w in report.warnings:
            out.append(f"- {w}")
        for node in sorted(report.per_node_errors):
            out.append(f"- node {node!r} excluded: {report.per_node_errors[node]}")
        out.append("")
    return "\n".join(out)


def render_curves_csv(curves: Curves) -> str:
    """CSV dump of each node's magnitude and stability curve at the
    curves' frequencies, in row order; with no node only the ``freq_hz``
    column."""
    table = np.empty((len(curves.freqs), 1 + 2 * len(curves.nodes)))
    table[:, 0] = curves.freqs
    table[:, 1::2] = curves.magnitude.T
    table[:, 2::2] = curves.p.T
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["freq_hz", *(f"{column}_{node}" for node in curves.nodes
                                  for column in ("mag", "p"))])
    writer.writerows([repr(x) for x in row] for row in table.tolist())
    return buf.getvalue()


def _peak_obj(peak: Peak) -> dict:
    return {
        "node": peak.node,
        "kind": peak.kind.value,
        "p_value": peak.p_value,
        "natural_freq_hz": peak.natural_freq,
        "zeta": peak.zeta,
        "phase_margin_deg": peak.phase_margin_deg,
        "overshoot_pct": peak.overshoot_pct,
        "severity": peak.severity.label if peak.severity is not None else None,
        "flags": sorted(f.value for f in peak.flags),
    }


def render_json(report: StabilityReport) -> str:
    """Machine-readable report; numbers keep full precision so a parse of
    the output reproduces every field exactly."""
    doc = {
        "schema": JSON_SCHEMA,
        "netlist_title": report.netlist_title,
        "grid": {
            "f_start_hz": report.grid.freqs[0],
            "f_stop_hz": report.grid.freqs[-1],
            "points_per_decade": report.grid.points_per_decade,
            "n_points": len(report.grid),
        },
        "groups": [
            {
                "label_freq_hz": g.label_freq,
                "worst_zeta": g.worst_zeta,
                "worst_node": g.worst_node,
                "severity": g.severity.label if g.severity is not None else None,
                "members": [_peak_obj(pk) for pk in g.members],
            }
            for g in report.groups
        ],
        "zeros": [_peak_obj(pk) for pk in report.zeros],
        "warnings": list(report.warnings),
        "per_node_errors": dict(sorted(report.per_node_errors.items())),
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
