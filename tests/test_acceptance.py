"""Acceptance suite: one test per acceptance criterion, at the stated
tolerances, each printing a PASS/FAIL line.

Expected values are either computed in-test from closed-form circuit
analysis (analytic impedances, natural frequency 1/(2*pi*sqrt(LC)),
damping from R = 2*zeta*sqrt(L/C)), taken from the classic
second-order-system characteristics table, or computed in-test from the
canonical second-order loop by an independent numerical route.
"""

import functools
import math
import time

import numpy as np
import pytest

from loopscope import audit
from loopscope.mna import build_pattern, solve_block
from loopscope.netlist import elaborate, parse
from loopscope.report import build_report, render_text
from loopscope.stability import (
    Peak,
    PeakFlag,
    PeakKind,
    Severity,
    detect_peaks,
    overshoot_from_zeta,
    phase_margin_from_zeta,
    stability_curves,
    zeta_from_index,
)
from loopscope.sweep import Sweep, make_grid, sweep_all_nodes

import circuits
from circuits import GOLDEN_DIR


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({title}): PASS"
                  + (f" - {detail}" if detail else ""))
        return wrapper
    return deco


def _pipeline(source, node, f_start, f_stop, ppd):
    net = elaborate(parse(source))
    grid = make_grid(f_start, f_stop, ppd)
    curves = stability_curves(sweep_all_nodes(build_pattern(net), grid, [node]))
    return curves, detect_peaks(curves)


def _deepest_pole(peaks):
    poles = [pk for pk in peaks if pk.kind is PeakKind.COMPLEX_POLE]
    assert poles, "expected at least one pole peak"
    return min(poles, key=lambda pk: pk.p_value)


@criterion(1, "performance-index closure on synthesized RLC loops")
def test_criterion_1_index_closure():
    f_natural = 1.0 / (2.0 * math.pi * math.sqrt(circuits.L_HENRY * circuits.C_FARAD))
    assert f_natural == pytest.approx(5032.9, abs=0.1)
    t0 = time.monotonic()
    details = []
    for zeta in (0.1, 0.2, 0.3, 0.4, 0.5):
        _, peaks = _pipeline(circuits.sensed_rlc_loop(zeta), "out",
                             50.0, 500e3, 200)
        pole = _deepest_pole(peaks)
        target = -1.0 / zeta**2
        assert pole.p_value == pytest.approx(target, rel=0.03), zeta
        assert pole.zeta == pytest.approx(zeta, rel=0.02), zeta
        assert pole.natural_freq == pytest.approx(f_natural, rel=0.01), zeta
        details.append(f"z={zeta}: peak {pole.p_value:.3f} vs {target:.3f}")
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    return f"{'; '.join(details)}; {elapsed:.2f}s"


def _canonical_loop(zeta):
    """Open loop wn**2 / (s (s + 2 zeta wn)) at wn = 1, as a function of w."""
    return lambda w: 1.0 / (1j * w * (1j * w + 2.0 * zeta))


def _oracle_phase_margin(zeta):
    """180 deg plus the loop phase where |L(jw)| = 1, found by bisection."""
    loop = _canonical_loop(zeta)
    lo, hi = 1e-3, 1e3
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if abs(loop(mid)) > 1.0 else (lo, mid)
    return 180.0 + math.degrees(np.angle(loop(lo)))


def _oracle_overshoot(zeta):
    """Peak of the closed loop's exact unit-step response, in percent.

    The closed loop 1 / (s**2 + 2 zeta s + 1) in state form x' = A x + b:
    with A = V diag(lam) V^-1 the step response is
    y(t) = 1 - sum_i r_i exp(lam_i t), r = (V[0] * (V^-1 b)) / -lam.
    """
    a = np.array([[0.0, 1.0], [-1.0, -2.0 * zeta]])
    lam, vec = np.linalg.eig(a.astype(complex))
    w = np.linalg.solve(vec, np.array([0.0, 1.0], dtype=complex))
    residues = vec[0] * w / -lam
    t = np.linspace(0.0, 40.0, 40001)
    y = 1.0 - (np.exp(np.outer(t, lam)) @ residues).real
    return 100.0 * max(float(np.max(y)) - 1.0, 0.0)


@criterion(2, "second-order table reproduction")
def test_criterion_2_table_rows():
    # Index -> damping closure is exact where the tabulated index is exact.
    assert zeta_from_index(-1.0) == 1.0
    assert zeta_from_index(-4.0) == 0.5
    assert zeta_from_index(-25.0) == 0.2
    assert zeta_from_index(-100.0) == 0.1
    assert zeta_from_index(-math.inf) == 0.0
    for zeta, overshoot, index in circuits.DAMPING_TABLE:
        # The table prints its overshoot and index rounded; the closed
        # forms and the index inversion must land within that rounding.
        assert overshoot_from_zeta(zeta) == pytest.approx(overshoot, abs=0.6), zeta
        assert zeta_from_index(index) == pytest.approx(zeta, rel=0.02), zeta
    # Independent oracles on the canonical loop, inside and beyond the
    # table (zeta = 1 is left out: its step response is the defective
    # double pole, and the closed form's 0% is the table's own row).
    for zeta in (0.02, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.5, 4.0):
        assert phase_margin_from_zeta(zeta) == pytest.approx(
            _oracle_phase_margin(zeta), abs=1e-9), zeta
        assert overshoot_from_zeta(zeta) == pytest.approx(
            _oracle_overshoot(zeta), abs=1e-3), zeta
        # The unrounded identity is exact to machine precision.
        assert zeta_from_index(-1.0 / zeta**2) == pytest.approx(zeta, rel=1e-14)
    assert phase_margin_from_zeta(0.0) == 0.0
    return (f"{len(circuits.DAMPING_TABLE)} rows reproduced; "
            f"PM(0.5) {phase_margin_from_zeta(0.5):.2f} deg, "
            f"overshoot(0.5) {overshoot_from_zeta(0.5):.2f}%")


@criterion(3, "real poles filtered, not graded oscillatory")
def test_criterion_3_real_pole_filtering():
    r, c = 1e3, 1e-6
    f_pole = 1.0 / (2.0 * math.pi * r * c)
    _, peaks = _pipeline(circuits.parallel_rc(r, c), "a", 1.0, 100e3, 100)
    single = _deepest_pole(peaks)
    assert single.p_value == pytest.approx(-0.5, abs=0.02)
    assert single.natural_freq == pytest.approx(f_pole, rel=0.02)
    assert single.severity is Severity.NON_OSCILLATORY

    src, f_double = circuits.double_real_pole()
    _, peaks = _pipeline(src, "a", 0.1, 10e3, 100)
    double = _deepest_pole(peaks)
    assert double.p_value == pytest.approx(-1.0, abs=0.03)
    assert double.natural_freq == pytest.approx(f_double, rel=0.02)
    assert double.severity in (Severity.ACCEPTABLE, Severity.NON_OSCILLATORY)
    return (f"single pole P {single.p_value:.4f}, "
            f"double pole P {double.p_value:.4f}")


@criterion(4, "complex zero detection on a shunt LC trap")
def test_criterion_4_complex_zero():
    zeta_zero = 0.2
    f_trap = 1.0 / (2.0 * math.pi * math.sqrt(circuits.L_HENRY * circuits.C_FARAD))
    _, peaks = _pipeline(circuits.lc_trap(zeta_zero), "n", 50.0, 500e3, 200)
    zeros = [pk for pk in peaks if pk.kind is PeakKind.COMPLEX_ZERO]
    assert zeros, "expected a complex-zero peak"
    trap = max(zeros, key=lambda pk: pk.p_value)
    assert trap.p_value == pytest.approx(1.0 / zeta_zero**2, rel=0.05)
    assert trap.natural_freq == pytest.approx(f_trap, rel=0.02)
    return f"zero peak {trap.p_value:.3f} at {trap.natural_freq:.1f} Hz"


SAMPLE_AUDIT_ROWS = [
    ("Output", 28.884067, 3.16e6),
    ("net052", 28.884063, 3.16e6),
    ("net136", 28.884748, 3.16e6),
    ("net138", 27.522194, 3.16e6),
    ("net99", 27.086771, 3.31e6),
    ("net066", 0.948229, 3.63e7),
    ("net81", 5.334409, 4.79e7),
    ("net17", 0.504486, 4.68e7),
    ("net056", 4.608340, 4.79e7),
    ("net013", 5.063032, 4.90e7),
    ("net57", 4.485003, 5.01e7),
    ("net16", 0.252345, 5.01e7),
    ("net75", 5.072788, 4.90e7),
    ("net019", 0.232893, 5.13e7),
]


@criterion(5, "property suite and report golden file")
def test_criterion_5_properties_and_golden():
    # (a) stability curve invariant under magnitude scaling.
    grid = make_grid(10.0, 1e5, 100)
    u = grid.freqs / 1e3
    mag = 1.0 / np.sqrt((1 - u**2) ** 2 + (2 * 0.25 * u) ** 2)

    def curve_of(m):
        swept = Sweep(grid, ["s"], m[np.newaxis], {})
        curves = stability_curves(swept)
        assert curves.nodes == ["s"]
        return curves.p

    assert np.array_equal(curve_of(mag), curve_of(mag * 2.0**30))
    assert np.max(np.abs(curve_of(mag) - curve_of(mag * 7.3))) <= 1e-9

    # (c) reciprocity on an RLC-only network.
    rec = elaborate(parse("t\nR1 a b 1k\nL1 b c 10m\nC1 c 0 100n\nC2 a 0 1u\n.end\n"))
    pat = build_pattern(rec)
    for f_hz in (100.0, 5e3, 2e5):
        w = 2 * math.pi * f_hz
        B = np.zeros((2, pat.dim), dtype=complex)
        B[[0, 1], [pat.row_of_node("a"), pat.row_of_node("c")]] = 1.0
        (xa, xc), refused = solve_block(pat.G + 1j * w * pat.C, B)
        assert refused == {}
        v_c_a = xa[pat.row_of_node("c")]
        v_a_c = xc[pat.row_of_node("a")]
        assert abs(v_c_a - v_a_c) <= 1e-8 * abs(v_a_c)

    # (d) determinism and permutation-invariant grouping.
    pattern = build_pattern(elaborate(parse(circuits.passive_rlc_loop(0.2))))
    s1 = sweep_all_nodes(pattern, grid)
    s2 = sweep_all_nodes(pattern, grid)
    assert s1.nodes == s2.nodes
    for ra, rb in zip(s1.magnitude, s2.magnitude):
        assert np.array_equal(ra, rb)
    peaks = [Peak(n, PeakKind.COMPLEX_POLE, f, -d) for n, d, f in SAMPLE_AUDIT_ROWS]
    base = build_report("t", grid, peaks).groups
    rng = np.random.default_rng(7)
    shuffled = list(peaks)
    rng.shuffle(shuffled)
    again = build_report("t", grid, shuffled).groups
    assert [[m.node for m in g.members] for g in again] == \
           [[m.node for m in g.members] for g in base]

    # (e) golden-file report with the verbatim reference row.
    report = build_report("all-nodes stability audit", make_grid(1.0, 1e8, 100),
                          peaks)
    text = render_text(report)
    assert "Output 28.884067 3.16E+06" in text.splitlines()
    golden = (GOLDEN_DIR / "sample_audit_report.txt").read_text()
    assert text == golden
    return "scaling, reciprocity, determinism, grouping, golden file"


@criterion(6, "multi-loop audit separates isolated resonators")
def test_criterion_6_multi_loop():
    t0 = time.monotonic()
    net = elaborate(parse(circuits.two_block()))
    report, _ = audit(net, make_grid(50.0, 50e6, 100))
    assert not report.per_node_errors
    elapsed = time.monotonic() - t0
    assert len(report.groups) == 2, [g.label_freq for g in report.groups]
    block_a = {"a1", "ax", "a2", "aout"}
    block_b = {"x1.n1", "x1.nx", "x1.n2", "bout"}
    ga, gb = report.groups
    assert {m.node.lower() for m in ga.members} <= block_a
    assert {m.node.lower() for m in gb.members} <= block_b
    assert ga.label_freq == pytest.approx(5e3, rel=0.01)
    assert gb.label_freq == pytest.approx(5e5, rel=0.01)
    assert ga.worst_zeta == pytest.approx(0.2, rel=0.05)
    assert gb.worst_zeta == pytest.approx(0.4, rel=0.05)
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    return (f"groups at {ga.label_freq:.0f}/{gb.label_freq:.0f} Hz, "
            f"worst zeta {ga.worst_zeta:.4f}/{gb.worst_zeta:.4f}, {elapsed:.2f}s")


@criterion(7, "end-of-range peaks flagged and excluded from grading")
def test_criterion_7_end_of_range():
    # Sweep cut below the resonance, per the stated 50 Hz - 4 kHz window:
    # every boundary extremum (if any) must carry the end-of-range flag
    # and nothing may be severity-graded from it.
    for f_stop in (4000.0, 4600.0):
        net = elaborate(parse(circuits.sensed_rlc_loop(0.2)))
        report, curves = audit(net, make_grid(50.0, f_stop, 200), nodes=["out"])
        assert curves.nodes == ["out"]
        poles = [pk for g in report.groups for pk in g.members]
        # Flagged peaks keep their raw sample frequency.
        ends = [math.exp(x) / (2.0 * math.pi) for x in curves.log_freq[[0, -1]]]
        for pk in poles + report.zeros:
            if pk.natural_freq in ends:
                assert PeakFlag.END_OF_RANGE in pk.flags
                assert pk.severity is None
        for pk in poles:
            assert PeakFlag.END_OF_RANGE in pk.flags
            assert not pk.gradable
        assert report.worst_severity is None
        for g in report.groups:
            assert g.worst_zeta is None and g.severity is None
    # The 4.6 kHz cut genuinely produces a deep boundary pole candidate.
    boundary_poles = [pk for pk in poles if PeakFlag.END_OF_RANGE in pk.flags]
    assert boundary_poles
    return f"boundary pole at {boundary_poles[0].natural_freq:.0f} Hz flagged"
