"""loopscope: AC stability audit of closed-loop linear circuits.

The method injects an AC current into each circuit node across a wide
log-spaced frequency band, computes the second derivative of log
magnitude versus log frequency of the node response ("stability plot"),
and reads every underdamped loop directly off that curve: the negative
peak sits at the loop's natural frequency and its depth equals
-1/zeta**2, which maps to phase margin and overshoot through the
closed-form second-order relations.  No feedback loop is ever broken.

The pipeline's entry points (``parse``, ``elaborate``, ``audit``, the
renderers) are re-exported here; every other public name imports from
its own module (``loopscope.stability.Peak``, ...).  ``import loopscope``
loads only the netlist front end, which needs neither numpy nor
``dataclasses``.  The numeric layers ``mna``, ``sweep``, ``stability``,
``report`` and ``cli`` (home of ``audit``), and the names exported from
them, load on first access.
"""

import importlib

__version__ = "0.1.0"

from .netlist import NetlistError, elaborate, parse, parse_value

# Name -> numeric layer that defines it; the layer loads on first access.
_LAZY = {
    "audit": "cli", "make_grid": "sweep", "BadRange": "sweep",
    "render_text": "report", "render_json": "report", "render_curves_csv": "report",
}
_LAYERS = frozenset({"mna", "sweep", "stability", "report", "cli"})

__all__ = ["__version__", "parse", "elaborate", "parse_value", "NetlistError", *_LAZY]


def __getattr__(name: str):
    if name in _LAYERS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _LAZY:
        value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAYERS})
