"""Netlist builders and reference data shared across the test suite.

Each builder returns netlist source text so the same circuits drive both
library-level tests and CLI tests (written to temp files).  Analytic
transfer functions used as oracles are documented next to each builder.
"""

import math
import os
from pathlib import Path

CIRCUITS_DIR = Path(__file__).parent.parent / "circuits"
GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).parent.parent / "src"


def src_env():
    """Environment for a child interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env

L_HENRY = 1e-3
C_FARAD = 1e-6

#: 1/(2*pi*sqrt(LC)) for the standard L=1 mH / C=1 uF resonator.
F_NATURAL = 1.0 / (2.0 * math.pi * math.sqrt(L_HENRY * C_FARAD))


#: The classic second-order characteristics table: zeta, step overshoot
#: (%) and performance index P = -1/zeta**2, each printed rounded.
DAMPING_TABLE = (
    (1.0, 0.0, -1.0),
    (0.9, 0.0, -1.2),
    (0.8, 2.0, -1.6),
    (0.7, 5.0, -2.0),
    (0.6, 10.0, -2.8),
    (0.5, 16.0, -4.0),
    (0.4, 25.0, -6.3),
    (0.3, 37.0, -11.0),
    (0.2, 53.0, -25.0),
    (0.1, 73.0, -100.0),
    (0.0, 100.0, -math.inf),
)


def series_r_for(zeta: float, l: float = L_HENRY, c: float = C_FARAD) -> float:
    """Loop resistance giving damping ratio zeta: R = 2*zeta*sqrt(L/C)."""
    return 2.0 * zeta * math.sqrt(l / c)


def passive_rlc_loop(zeta: float, l: float = L_HENRY, c: float = C_FARAD) -> str:
    """Series RLC loop closed through ground: gnd-L-n1-R-n2-C-gnd.

    Driving-point responses (current I injected, s = jw):
        V(n1) = s*l*(1 + s*r*c) * I / D(s)
        V(n2) = (r + s*l) * I / D(s)
    with D(s) = s^2*l*c + s*r*c + 1.  Both nodes see the loop's complex
    pole pair plus one real zero (at 1/(r*c) resp. r/l).
    """
    r = series_r_for(zeta, l, c)
    return f"""series RLC loop, zeta={zeta}
L1 0 n1 {l!r}
R1 n1 n2 {r!r}
C1 n2 0 {c!r}
.end
"""


def sensed_rlc_loop(zeta: float, l: float = L_HENRY, c: float = C_FARAD) -> str:
    """Series RLC loop plus a current-sense branch that exposes the bare
    loop characteristic: V(out) = s*l * I / D(s), no finite zeros.

    The 0 V source Vs rides inside the loop (between L and R) and a CCVS
    adds R times the sensed loop current to V(n2), cancelling the
    resistive term of the n2 response exactly.
    """
    r = series_r_for(zeta, l, c)
    return f"""sensed series RLC loop, zeta={zeta}
L1 0 n1 {l!r}
Vs n1 nx AC 0
R1 nx n2 {r!r}
C1 n2 0 {c!r}
Hs out n2 Vs {r!r}
.end
"""


def parallel_rc(r: float = 1e3, c: float = 1e-6) -> str:
    """Single real pole: Z(a) = r / (1 + s*r*c), pole at 1/(2*pi*r*c)."""
    return f"""parallel RC single-pole
R1 a 0 {r!r}
C1 a 0 {c!r}
.end
"""


def cmos_input_stage() -> str:
    """A 1 TOhm, 1 pF gate input driving a 1 mS transconductor into
    1 kOhm || 10 pF.  Below ~0.16 Hz, |Z(in)| is ~1e12, so 1 A injected
    at ``in`` gives a response near 1e11 V."""
    return """CMOS input stage
Rin in 0 1T
Cin in 0 1p
G1 out 0 in 0 1m
Rout out 0 1k
Cout out 0 10p
.end
"""


def sense_only_node() -> str:
    """Node n5 is only G1's sense terminal, so its row of Y holds gmin
    alone: at gmin 1e-320 injection there gives a non-finite response and
    the node is refused, while every other node's row n5 reads
    gmin * V(n5) = 0 and solves.  The circuit's own loops grade
    unstable-risk."""
    return """sense-only node at gmin 1e-320
R0 n4 n3 8.63e+10
G1 0 n4 n5 n3 2.22e-06
C2 n4 n1 1.96e+11
R3 n4 n2 9.92e+06
L4 n1 n3 3.88e-13
G5 0 n1 0 n1 -4.96
.end
"""


def resistive_divider() -> str:
    return """resistive divider
R1 top mid 1k
R2 mid 0 1k
.end
"""


def double_real_pole() -> tuple[str, float]:
    """Two coincident real poles observed at one node, built from two RC
    time constants coupled by voltage amplifiers.

    With E1 feeding k*V(b) back through R1 into the measured node a and a
    unity buffer E2 driving the R2-C2 stage from a:

        Z(a) = R1*(1 + s*t2) / (1 - k + s*(t1 + t2) + s^2*t1*t2)

    Choosing k = 1 - (t1+t2)^2/(4*t1*t2) makes the denominator a perfect
    square (double pole at (t1+t2)/(2*t1*t2) rad/s) while the lone zero
    at 1/t2 sits almost two decades below, so the curve minimum is the
    clean double-real-pole value of -1.  Returns (netlist, pole_freq_hz).
    """
    r1, c1 = 1e3, 1e-6
    r2, c2 = 10e3, 10e-6
    t1, t2 = r1 * c1, r2 * c2
    k = 1.0 - (t1 + t2) ** 2 / (4.0 * t1 * t2)
    pole_hz = (t1 + t2) / (2.0 * t1 * t2) / (2.0 * math.pi)
    src = f"""double real pole via coupled RC stages
E1 q 0 b 0 {k!r}
R1 q a {r1!r}
C1 a 0 {c1!r}
E2 m 0 a 0 1.0
R2 m b {r2!r}
C2 b 0 {c2!r}
.end
"""
    return src, pole_hz


def lc_trap(zeta_zero: float = 0.2, zeta_pole: float = 2.0) -> str:
    """Shunt series-LC trap: a complex zero pair at the trap frequency.

        Z(n) = R0*(s^2*l*c + s*rt*c + 1) / (s^2*l*c + s*(rt+R0)*c + 1)

    The numerator pair has zeta_zero = (rt/2)*sqrt(c/l); the denominator
    pair shares the same natural frequency but is overdamped (zeta_pole),
    so its real poles sit far from the trap and the positive peak reads
    +1/zeta_zero^2.
    """
    rt = series_r_for(zeta_zero)
    r0 = series_r_for(zeta_pole) - rt
    return f"""shunt series-LC trap, zero pair zeta={zeta_zero}
R0 n 0 {r0!r}
L1 n x {L_HENRY!r}
Rt x y {rt!r}
C1 y 0 {C_FARAD!r}
.end
"""


def two_block() -> str:
    """Two electrically isolated resonators: 5 kHz at zeta=0.2 (inline)
    and 500 kHz at zeta=0.4 (instantiated from a subcircuit), both in the
    sensed-loop style so the recovered damping is unbiased."""
    fa, za = 5e3, 0.2
    fb, zb = 5e5, 0.4
    ca = 1.0 / ((2.0 * math.pi * fa) ** 2 * L_HENRY)
    cb = 1.0 / ((2.0 * math.pi * fb) ** 2 * L_HENRY)
    ra = 2.0 * za * math.sqrt(L_HENRY / ca)
    rb = 2.0 * zb * math.sqrt(L_HENRY / cb)
    return f"""two isolated resonators (5 kHz zeta=0.2, 500 kHz zeta=0.4)
* block A, inline
La 0 a1 {L_HENRY!r}
Vsa a1 ax AC 0
Ra ax a2 {ra!r}
Ca a2 0 {ca!r}
Hsa aout a2 Vsa {ra!r}
* block B, via subcircuit
X1 bout resloop
.subckt resloop out
L1 0 n1 {L_HENRY!r}
Vs n1 nx AC 0
R1 nx n2 {rb!r}
C1 n2 0 {cb!r}
Hs out n2 Vs {rb!r}
.ends
.end
"""


def hierarchical_opamp_buffer() -> str:
    """The shipped two-stage op-amp macromodel wired as a unity buffer
    (``circuits/opamp_buffer.cir``); exercises subcircuit expansion and
    parameter substitution."""
    return (CIRCUITS_DIR / "opamp_buffer.cir").read_text(encoding="utf-8")


def ladder(n: int) -> str:
    """``Rs in 0 50``, then n sections of series L 1u and R 0.5 with C 1n
    to ground, then ``Rl 50``: 2n+1 nodes, MNA dimension 3n+1.  Its n
    lightly damped pole pairs crowd into one octave, so the all-nodes
    report has many overlapping peaks."""
    lines = [f"ladder({n})", "Rs in 0 50"]
    prev = "in"
    for k in range(1, n + 1):
        lines += [f"L{k} {prev} m{k} 1u", f"R{k} m{k} s{k} 0.5", f"C{k} s{k} 0 1n"]
        prev = f"s{k}"
    lines += [f"Rl {prev} 0 50", ".end", ""]
    return "\n".join(lines)
