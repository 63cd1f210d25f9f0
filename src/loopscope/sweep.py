"""AC current-injection frequency sweeps on a log-spaced grid.

Each audit zeroes every independent source and walks the grid once: at
each frequency it builds Y(w) = G + jwC and solves it, in one
``mna.solve_block`` call, against a fixed 1 A injected into each
requested node, recording |V| at that node.  With a 1 A stimulus the
magnitude equals the driving-point impedance, and the stimulus level
would cancel out of the downstream log-derivative analysis anyway.
``sweep_all_nodes`` is the one entry point for an audit, of one node or
of many, and returns one ``Sweep``: a nodes x frequencies block of
magnitudes.  A node whose solve fails is recorded instead of aborting
the audit, gets no further solves and has no row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mna import MnaError, MnaPattern, solve_block

#: A node voltage at or below this fraction of the solution's largest
#: entry is solver rounding residue, not signal (ideal-source-driven nodes
#: come back as ~1e-13 of scale noise); such points are written as 0, which
#: the stability analysis clamps, so it never differentiates numerical noise.
NOISE_FLOOR_REL = 1e-11

#: Largest grid make_grid builds; each point costs one solve per node.
MAX_GRID_POINTS = 1_000_000


class BadRange(Exception):
    pass


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Uniform-in-log frequency grid, endpoints included."""

    f_start: float
    f_stop: float
    points_per_decade: int
    freqs: np.ndarray
    # uniform spacing of ln(f), == ln(10)/ppd for whole decades
    log_step: float

    def __len__(self) -> int:
        return len(self.freqs)


def make_grid(f_start: float = 1.0, f_stop: float = 1e10,
              points_per_decade: int = 100) -> FrequencyGrid:
    """Build a log grid with ``round(ppd*log10(f_stop/f_start)) + 1`` points."""
    if not (0 < f_start < f_stop):
        raise BadRange(f"need 0 < f_start < f_stop, got {f_start!r}, {f_stop!r}")
    if points_per_decade < 10:
        raise BadRange(f"points_per_decade must be >= 10, got {points_per_decade!r}")
    try:
        span = points_per_decade * math.log10(f_stop / f_start)
    except OverflowError:  # points_per_decade too large for a float
        span = math.inf
    if not span <= MAX_GRID_POINTS - 1:  # also rejects an infinite span
        raise BadRange(f"grid would exceed {MAX_GRID_POINTS} points; lower "
                       "points_per_decade or narrow the frequency range")
    if not math.isfinite(2.0 * math.pi * f_stop):
        raise BadRange(f"f_stop {f_stop!r} Hz overflows the angular frequency")
    n = int(round(span)) + 1
    if n < 3:  # the stability plot's difference stencil needs three points
        raise BadRange("frequency range too narrow for this grid density")
    lnf = np.linspace(math.log(f_start), math.log(f_stop), n)
    freqs = np.exp(lnf)
    freqs[0] = f_start
    freqs[-1] = f_stop
    return FrequencyGrid(f_start=f_start, f_stop=f_stop,
                         points_per_decade=points_per_decade,
                         freqs=freqs, log_step=float(lnf[1] - lnf[0]))


@dataclass
class Sweep:
    """Result of a sweep.  Row k of ``magnitude`` is node ``nodes[k]``;
    rows keep the requested node order, and so does ``errors``, which maps
    each node whose solve failed (it has no row) to the failure."""

    grid: FrequencyGrid
    nodes: list[str]
    magnitude: np.ndarray        # |V| in volts (== ohms at 1 A), 0 where unresolved
    errors: dict[str, str]


def sweep_all_nodes(pattern: MnaPattern, grid: FrequencyGrid,
                    nodes: list[str] | None = None) -> Sweep:
    """Inject at each of ``nodes`` in the given order, or at every
    non-ground node in netlist order (``Netlist.nodes``) when None.
    Names resolve before any solve: an unknown or repeated node raises
    ``MnaError``, and so does a w*C that overflows on the grid; results
    carry the netlist's spelling of each node."""
    if nodes is None:
        nodes = pattern.labels[:pattern.n_nodes]
    C, labels = pattern.C, pattern.labels
    rows = [pattern.row_of_node(name) for name in nodes]
    if len(set(rows)) < len(rows):
        repeat = next(name for k, name in enumerate(nodes) if rows[k] in rows[:k])
        raise MnaError(f"node {repeat!r} requested twice")
    rows = np.array(rows, dtype=np.intp)
    unit = np.zeros((len(rows), pattern.dim), dtype=np.complex128)
    unit[range(len(rows)), rows] = 1.0
    magnitude = np.zeros((len(rows), len(grid)))
    failed: dict[int, str] = {}  # index into rows -> its first refusal
    omegas = 2.0 * math.pi * grid.freqs
    with np.errstate(over="ignore"):
        wc_max = omegas * abs(C).max(initial=0.0)
    if np.isinf(wc_max[-1]):  # w ascends, so w*C overflows here if anywhere
        i = int(np.isinf(wc_max).argmax())
        raise MnaError(f"w*C overflows at {grid.freqs[i]:g} Hz "
                       f"(omega={omegas[i]:g} rad/s)")
    # One work matrix for the whole audit, Y(w) = G + jwC: its real part
    # is G at every frequency, so it is written once and each frequency
    # writes only w*C into the imaginary part, then solves the unit rows
    # of every live node against that Y as one block.  G and C are sums
    # into zeros and hold no -0.0, so this Y is bitwise the G + jwC that
    # evaluating it afresh gives.  The whole-array 2*pi*f gives the same
    # floats as one point at a time.
    Y = pattern.G.astype(np.complex128)
    wC = Y.imag
    live = np.arange(len(rows))  # the nodes still solving, as indexes into rows
    B, at = unit, (live, rows)     # their unit rows; each one's own unknown in X
    for i, omega in enumerate(omegas.tolist()):
        if not live.size:
            break
        np.multiply(omega, C, out=wC)
        X, refused = solve_block(Y, B)
        if refused:
            failed.update((int(live[j]), f"singular MNA system at unknown {labels[u]!r} "
                           f"(omega={omega:g} rad/s)") for j, u in refused.items())
            kept = [j for j in range(len(live)) if j not in refused]
            live, X = live[kept], X[kept]
            B, at = unit[live], (np.arange(len(live)), rows[live])
        # hypot is bitwise the scalar abs(x[row]) of a per-point solve; an
        # array abs of complex values may differ from it in the last bit.
        x = X[at]
        mag = np.hypot(x.real, x.imag)
        mag[mag <= NOISE_FLOOR_REL * abs(X).max(axis=1)] = 0.0
        magnitude[live, i] = mag
    ok = [k for k in range(len(rows)) if k not in failed]
    return Sweep(grid, [labels[rows[k]] for k in ok], magnitude[ok],
                 {labels[rows[k]]: msg for k, msg in sorted(failed.items())})
