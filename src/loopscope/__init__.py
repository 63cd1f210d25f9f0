"""loopscope: AC stability audit of closed-loop linear circuits.

The method injects an AC current into each circuit node across a wide
log-spaced frequency band, computes the second derivative of log
magnitude versus log frequency of the node response ("stability plot"),
and reads every underdamped loop directly off that curve: the negative
peak sits at the loop's natural frequency and its depth equals
-1/zeta**2, which maps to phase margin and overshoot through the
closed-form second-order relations.  No feedback loop is ever broken.

The pipeline's entry points are re-exported here; every other public
name imports from its own module (``loopscope.stability.Peak``, ...).
"""

__version__ = "0.1.0"

from .netlist import NetlistError, elaborate, parse, parse_value
from .mna import SingularSystem, build_pattern
from .sweep import BadRange, inject_node, make_grid, sweep_all_nodes
from .stability import analyze_response
from .report import build_report, render_curves_csv, render_json, render_text

__all__ = [
    "__version__",
    # netlist
    "parse", "elaborate", "parse_value", "NetlistError",
    # mna
    "build_pattern", "SingularSystem",
    # sweep
    "make_grid", "BadRange", "inject_node", "sweep_all_nodes",
    # stability
    "analyze_response",
    # report
    "build_report", "render_text", "render_json", "render_curves_csv",
]
