"""loopscope: AC stability audit of closed-loop linear circuits.

The method injects an AC current into each circuit node across a wide
log-spaced frequency band, computes the second derivative of log
magnitude versus log frequency of the node response ("stability plot"),
and reads every underdamped loop directly off that curve: the negative
peak sits at the loop's natural frequency and its depth equals
-1/zeta**2, which maps to phase margin and overshoot through the classic
second-order table.  No feedback loop is ever broken.
"""

__version__ = "0.1.0"

from .netlist import (
    Element,
    ElementKind,
    MalformedNumber,
    Netlist,
    NetlistError,
    NetlistSyntaxError,
    elaborate,
    parse,
    parse_value,
    render,
)
from .mna import (
    MnaPattern,
    SingularSystem,
    UnknownNode,
    build_pattern,
    solve,
)
from .sweep import (
    AllNodesSweep,
    BadRange,
    FrequencyGrid,
    NodeResponse,
    inject_node,
    make_grid,
    sweep_all_nodes,
)
from .stability import (
    Peak,
    PeakFlag,
    PeakKind,
    Severity,
    StabilityCurve,
    DAMPING_TABLE,
    DampingRow,
    analyze_response,
    detect_peaks,
    refine_peak,
    stability_curve,
    damping_lookup,
    zeta_from_index,
)
from .report import (
    LoopGroup,
    MismatchedGrids,
    StabilityReport,
    build_report,
    group_loops,
    render_curves_csv,
    render_json,
    render_text,
)

__all__ = [
    "__version__",
    # netlist
    "Element", "ElementKind", "MalformedNumber", "Netlist", "NetlistError",
    "NetlistSyntaxError", "elaborate", "parse", "parse_value", "render",
    # mna
    "MnaPattern", "SingularSystem", "UnknownNode", "build_pattern", "solve",
    # sweep
    "AllNodesSweep", "BadRange", "FrequencyGrid", "NodeResponse",
    "inject_node", "make_grid", "sweep_all_nodes",
    # stability
    "Peak", "PeakFlag", "PeakKind", "Severity", "StabilityCurve", "DAMPING_TABLE",
    "DampingRow", "analyze_response", "detect_peaks", "refine_peak",
    "stability_curve", "damping_lookup", "zeta_from_index",
    # report
    "LoopGroup", "MismatchedGrids", "StabilityReport", "build_report",
    "group_loops", "render_curves_csv", "render_json", "render_text",
]
