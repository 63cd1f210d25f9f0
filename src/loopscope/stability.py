"""Stability-plot computation and peak grading.

The stability plot P is the second derivative of log magnitude with
respect to log angular frequency.  Straight-line segments of the Bode
magnitude (flat regions, integrator slopes, far real-pole skirts)
differentiate away, while an underdamped pole pair leaves a negative
spike at its natural frequency whose depth encodes the damping ratio:

    P(wn) = -1 / zeta**2

and a complex zero pair leaves the mirror-image positive spike.  The
damping ratio recovered from a negative peak maps to estimated phase
margin and step overshoot through the closed-form second-order relations
of the canonical loop wn**2 / (s (s + 2 zeta wn)).

Implementation notes: the response is sampled on a uniform log grid, so
P is one central second difference of ln|V| (exact for any quadratic in
log-log coordinates, which is why pure slopes vanish identically),
computed for every node of a sweep in one array expression, a
``Curves`` block with a row per node, which ``detect_peaks`` scans.  An
underdamped pole also carries small positive side lobes (about a tenth
of the peak depth); a detected extremum that is both opposite in sign
and much smaller than a close neighbour is discarded as such a lobe
rather than reported as a separate resonance.  Each candidate's doublet
and side-lobe status is decided before its ``Peak`` is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum

import numpy as np

from .sweep import BadRange, FrequencyGrid, Sweep

#: Lower clamp applied to |V| before logs; samples below it (the sweep's
#: unresolved zeros among them) are flagged and never become peak candidates.
MAGNITUDE_FLOOR = 1e-300
PEAK_FLOOR_DEFAULT = 0.1
#: A pole and a zero whose frequencies agree within this relative gap are
#: flagged as a pole-zero doublet.
DOUBLET_GAP_DEFAULT = 0.05
#: Cross-sign dominance suppression: drop an extremum when an opposite one
#: within LOBE_WINDOW (natural-log frequency units) is LOBE_RATIO times larger.
LOBE_WINDOW = 1.0
LOBE_RATIO = 4.0

#: Severity grades by damping ratio: unstable-risk below the first,
#: marginal below the second.
SEVERITY_THRESHOLDS_DEFAULT = (0.3, 0.5)


class PeakKind(Enum):
    COMPLEX_POLE = "complex-pole"
    COMPLEX_ZERO = "complex-zero"


class PeakFlag(Enum):
    END_OF_RANGE = "end-of-range"
    POLE_ZERO_DOUBLET = "pole-zero-doublet"
    CLAMPED_DATA = "clamped-data"


class Severity(IntEnum):
    """Ordered worst-first so min() picks the worst grade."""

    UNSTABLE_RISK = 0
    MARGINAL = 1
    ACCEPTABLE = 2
    NON_OSCILLATORY = 3

    @property
    def label(self) -> str:
        return self.name.lower().replace("_", "-")


@dataclass
class Curves:
    """A sweep's stability plot at its grid's interior points: row k of
    ``magnitude``, ``p`` and ``clamped`` is node ``nodes[k]``."""

    grid: FrequencyGrid
    nodes: list[str]
    log_freq: np.ndarray   # ln(omega) at the interior points, shared by every row
    magnitude: np.ndarray  # the sweep's |V| at the same points, floor applied
    p: np.ndarray
    clamped: np.ndarray    # True where the difference stencil touched clamped data


@dataclass
class Peak:
    """One stability-plot extremum, graded on construction: a pole with a
    negative P gets its zeta, and, unless flagged end-of-range or
    clamped, the closed-form second-order phase margin and overshoot,
    and a severity grade."""

    node: str
    kind: PeakKind
    natural_freq: float            # Hz
    p_value: float
    flags: frozenset[PeakFlag] = frozenset()
    zeta: float | None = field(init=False)              # poles only
    phase_margin_deg: float | None = field(init=False)
    overshoot_pct: float | None = field(init=False)
    severity: Severity | None = field(init=False)       # None when ungradable

    def __post_init__(self):
        pole = self.kind is PeakKind.COMPLEX_POLE and self.p_value < 0
        self.zeta = zeta_from_index(self.p_value) if pole else None
        graded = self.gradable
        self.phase_margin_deg = phase_margin_from_zeta(self.zeta) if graded else None
        self.overshoot_pct = overshoot_from_zeta(self.zeta) if graded else None
        self.severity = severity_from_zeta(self.zeta) if graded else None

    @property
    def gradable(self) -> bool:
        return (self.zeta is not None
                and PeakFlag.END_OF_RANGE not in self.flags
                and PeakFlag.CLAMPED_DATA not in self.flags)


def stability_curves(sweep: Sweep) -> Curves:
    """Central second difference of ln(magnitude) over the log grid, for
    every node of ``sweep`` at once, one row per node.

    Magnitudes below ``MAGNITUDE_FLOOR`` (zeros included) are raised to it
    and clamped.  Each row is normalized by its maximum first, which makes
    the curve exactly invariant under power-of-two rescaling of the data
    and keeps the logs well conditioned.
    """
    n = len(sweep.grid)
    if n < 3:
        raise BadRange(f"need at least 3 grid points, got {n}")
    floored = np.maximum(sweep.magnitude, MAGNITUDE_FLOOR)
    logm = np.log(floored / floored.max(axis=1, keepdims=True))
    h = sweep.grid.log_step
    p = (logm[:, 2:] - 2.0 * logm[:, 1:-1] + logm[:, :-2]) / (h * h)
    c = sweep.magnitude < MAGNITUDE_FLOOR
    clamped = c[:, 2:] | c[:, 1:-1] | c[:, :-2]
    log_freq = np.log(2.0 * math.pi * sweep.grid.freqs[1:-1])
    return Curves(sweep.grid, sweep.nodes, log_freq, floored[:, 1:-1], p, clamped)


def zeta_from_index(p_value: float) -> float:
    """Invert P = -1/zeta**2 for a negative pole-peak value."""
    if p_value >= 0:
        raise ValueError(f"pole peak value must be negative, got {p_value!r}")
    return 1.0 / math.sqrt(-p_value)


def phase_margin_from_zeta(zeta: float) -> float:
    """Phase margin (degrees) of the loop wn**2 / (s (s + 2 zeta wn)):
    atan(2 zeta / sqrt(sqrt(1 + 4 zeta**4) - 2 zeta**2)), written in the
    equal form that has no cancellation at large zeta."""
    z2 = zeta * zeta
    tan_pm = 2.0 * zeta * math.sqrt(2.0 * z2 + math.sqrt(1.0 + 4.0 * z2 * z2))
    return math.degrees(math.atan(tan_pm))


def overshoot_from_zeta(zeta: float) -> float:
    """Step overshoot (percent) of a second-order pole pair."""
    if zeta >= 1.0:
        return 0.0
    return 100.0 * math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta * zeta))


def severity_from_zeta(zeta: float) -> Severity:
    risk_below, marginal_below = SEVERITY_THRESHOLDS_DEFAULT
    if zeta >= 1.0:
        return Severity.NON_OSCILLATORY
    if zeta >= marginal_below:
        return Severity.ACCEPTABLE
    if zeta >= risk_below:
        return Severity.MARGINAL
    return Severity.UNSTABLE_RISK


def refine_peak(log_freq: np.ndarray, p: np.ndarray, index: int) -> tuple[float, float]:
    """Sub-grid extremum estimate on one row: vertex of the parabola
    through the sample and its two neighbours, in (ln w, P) coordinates.
    Falls back to the raw sample at the row ends or if they are collinear."""
    raw = (math.exp(log_freq[index]) / (2.0 * math.pi), float(p[index]))
    if index <= 0 or index >= len(p) - 1:
        return raw
    a, b, c = float(p[index - 1]), float(p[index]), float(p[index + 1])
    curv = a - 2.0 * b + c
    if curv == 0.0:
        return raw
    delta = 0.5 * (a - c) / curv
    h = float(log_freq[index + 1] - log_freq[index])
    x_vertex = float(log_freq[index]) + delta * h
    p_vertex = b - 0.25 * (a - c) * delta
    return math.exp(x_vertex) / (2.0 * math.pi), p_vertex


def detect_peaks(curves: Curves, floor: float = PEAK_FLOOR_DEFAULT) -> list[Peak]:
    """Find pole/zero candidates in every row of ``curves``, returned in
    row order, then sample order.

    Strict local minima below ``-floor`` become complex-pole candidates
    and strict local maxima above ``+floor`` complex-zero candidates.
    Row-end extrema are flagged end-of-range.  A pole and zero of one row
    whose refined frequencies agree within ``DOUBLET_GAP_DEFAULT`` are
    flagged as a pole-zero doublet; unflagged extrema that are dwarfed (by
    ``LOBE_RATIO``) by an opposite one of their row within ``LOBE_WINDOW``
    of log frequency are dropped as side lobes of that larger feature.
    Peaks sitting on clamped data are flagged and left ungraded.
    """
    p, clamped = curves.p, curves.clamped
    n = p.shape[1]
    if n < 2:
        return []
    # Strict extrema against both neighbours; the infinite sentinels let
    # each end sample compete against its one real neighbour only.
    ends = ((0, 0), (1, 1))
    above = np.pad(p, ends, constant_values=np.inf)
    below = np.pad(p, ends, constant_values=-np.inf)
    minima = (p < -floor) & (p < above[:, :-2]) & (p < above[:, 2:])
    maxima = (p > floor) & (p > below[:, :-2]) & (p > below[:, 2:])
    # Curvature computed from floor-clamped samples is meaningless; such
    # points never become candidates.
    padded = np.pad(clamped, ends)
    near_clamp = padded[:, :-2] | padded[:, 2:]
    found = []  # (row, kind, frequency, value, flags), in row then sample order
    for k, i in np.argwhere((minima | maxima) & ~clamped).tolist():
        flags = set()
        if i == 0 or i == n - 1:
            flags.add(PeakFlag.END_OF_RANGE)
        if near_clamp[k, i]:
            flags.add(PeakFlag.CLAMPED_DATA)
        if flags:
            freq, value = math.exp(curves.log_freq[i]) / (2.0 * math.pi), float(p[k, i])
        else:
            freq, value = refine_peak(curves.log_freq, p[k], i)
        kind = PeakKind.COMPLEX_POLE if minima[k, i] else PeakKind.COMPLEX_ZERO
        found.append((k, kind, freq, value, flags))

    # One pass over each row's opposite-kind pairs: a close pair is a
    # doublet, a joint feature kept whole; any other candidate dwarfed by
    # an opposite one within LOBE_WINDOW is a side lobe of it and dropped.
    gap = math.log1p(DOUBLET_GAP_DEFAULT)
    dominated = [False] * len(found)
    for a, (row, kind_a, freq_a, value_a, flags_a) in enumerate(found):
        for b in range(a + 1, len(found)):
            row_b, kind_b, freq_b, value_b, flags_b = found[b]
            if row_b != row:
                break
            if kind_a is kind_b:
                continue
            dist = abs(math.log(freq_a / freq_b))
            if dist <= gap:
                flags_a.add(PeakFlag.POLE_ZERO_DOUBLET)
                flags_b.add(PeakFlag.POLE_ZERO_DOUBLET)
            if dist <= LOBE_WINDOW:
                dominated[a] |= abs(value_b) >= LOBE_RATIO * abs(value_a)
                dominated[b] |= abs(value_a) >= LOBE_RATIO * abs(value_b)
    return [Peak(curves.nodes[k], kind, freq, value, frozenset(flags))
            for (k, kind, freq, value, flags), lobe in zip(found, dominated)
            if PeakFlag.POLE_ZERO_DOUBLET in flags or not lobe]
