"""Stability-plot, peak-detection and grading tests.

Synthetic magnitude data comes straight from closed-form transfer
functions; where the continuum value matters, a dense independent
numerical differentiation oracle cross-checks the production path.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopscope.mna import build_pattern
from loopscope.netlist import elaborate, parse
from loopscope.stability import (
    Curves,
    DOUBLET_GAP_DEFAULT,
    LOBE_RATIO,
    LOBE_WINDOW,
    MAGNITUDE_FLOOR,
    Peak,
    PeakFlag,
    PeakKind,
    Severity,
    detect_peaks,
    overshoot_from_zeta,
    phase_margin_from_zeta,
    refine_peak,
    severity_from_zeta,
    stability_curves,
    zeta_from_index,
)
from loopscope.sweep import BadRange, FrequencyGrid, Sweep, make_grid, sweep_all_nodes

import circuits


def synthetic(grid, magnitude, node="syn"):
    """A one-row sweep of ``magnitude`` at ``node``."""
    return Sweep(grid, [node], np.asarray(magnitude, dtype=float)[np.newaxis], {})


def curve_of(grid, magnitude):
    """The one-row curves block of ``magnitude``."""
    curves = stability_curves(synthetic(grid, magnitude))
    assert curves.nodes == ["syn"]
    return curves


def second_order_magnitude(freqs, fn, zeta):
    """|1 / (s^2 + 2 s zeta + 1)| with s normalized to the pole pair."""
    u = freqs / fn
    return 1.0 / np.sqrt((1.0 - u**2) ** 2 + (2.0 * zeta * u) ** 2)


# ---------------------------------------------------------------------------
# stability_curves basics
# ---------------------------------------------------------------------------

def test_flat_magnitude_gives_zero_curve():
    grid = make_grid(1.0, 1e4, 25)
    curve = curve_of(grid, np.full(len(grid), 123.0))
    assert np.all(curve.p == 0.0)
    assert curve.p.shape == (1, len(grid) - 2)


def test_one_over_omega_gives_zero_curve():
    grid = make_grid(1.0, 1e4, 25)
    curve = curve_of(grid, 42.0 / grid.freqs)
    assert np.max(np.abs(curve.p)) < 1e-9


def test_single_real_pole_minimum():
    # d2/dx2 of -0.5*ln(1+u^2) in x = ln(w) has minimum -0.5 exactly at
    # the pole; cross-check the production curve against a dense numeric
    # differentiation oracle.
    fp = 250.0
    grid = make_grid(1.0, 100e3, 100)
    mag = 1.0 / np.sqrt(1.0 + (grid.freqs / fp) ** 2)
    curve = curve_of(grid, mag)
    (p,) = curve.p
    i = int(np.argmin(p))
    f_at_min = math.exp(curve.log_freq[i]) / (2 * math.pi)
    assert p[i] == pytest.approx(-0.5, abs=5e-4)
    assert f_at_min == pytest.approx(fp, rel=0.02)

    x = np.linspace(math.log(fp) - 2, math.log(fp) + 2, 20001)
    lm = -0.5 * np.log1p((np.exp(x) / fp) ** 2)
    oracle = np.gradient(np.gradient(lm, x), x)
    assert oracle.min() == pytest.approx(-0.5, abs=1e-4)


@pytest.mark.parametrize("zeta", [0.1, 0.2, 0.3, 0.5])
def test_performance_index_closure_on_synthetic_data(zeta):
    # Curve value at the grid point nearest the natural frequency equals
    # -1/zeta^2 within discretization error at 200 points/decade.
    fn = 1e3
    grid = make_grid(10.0, 1e5, 200)
    (p,) = curve_of(grid, second_order_magnitude(grid.freqs, fn, zeta)).p
    i = int(np.argmin(np.abs(grid.freqs[1:-1] - fn)))
    assert p[i] == pytest.approx(-1.0 / zeta**2, rel=0.02)


def test_pole_zero_duality_negates_curve():
    fn = 1e3
    grid = make_grid(10.0, 1e5, 100)
    mag = second_order_magnitude(grid.freqs, fn, 0.25)
    p_pole = curve_of(grid, mag).p
    p_zero = curve_of(grid, 1.0 / mag).p
    assert np.max(np.abs(p_pole + p_zero)) <= 1e-9


def test_scale_invariance_power_of_two_is_bitwise():
    grid = make_grid(10.0, 1e5, 60)
    mag = second_order_magnitude(grid.freqs, 1e3, 0.3)
    base = curve_of(grid, mag).p
    scaled = curve_of(grid, mag * 2.0**40).p
    assert np.array_equal(base, scaled)


@given(alpha=st.floats(min_value=1e-6, max_value=1e6,
                       allow_nan=False, allow_infinity=False))
@settings(max_examples=30, deadline=None)
def test_scale_invariance_general(alpha):
    grid = make_grid(10.0, 1e5, 40)
    mag = second_order_magnitude(grid.freqs, 1e3, 0.4)
    base = curve_of(grid, mag).p
    scaled = curve_of(grid, mag * alpha).p
    assert np.max(np.abs(base - scaled)) <= 1e-9


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_products_of_real_factors_stay_bounded(data):
    # Real poles/zeros at least half a decade apart: the curve never
    # leaves [-1.05, 1.05] at 100 points/decade.  (Coincident factors can
    # exceed this: k stacked poles reach -k/2, see the double-pole test.)
    n_factors = data.draw(st.integers(min_value=1, max_value=5))
    slots = np.arange(n_factors) * 0.5  # half-decade spacing in log10(f)
    offset = data.draw(st.floats(min_value=1.0, max_value=2.0))
    signs = data.draw(st.lists(st.booleans(), min_size=n_factors, max_size=n_factors))
    grid = make_grid(1.0, 1e6, 100)
    logm = np.zeros(len(grid))
    for slot, is_zero in zip(slots, signs):
        fb = 10.0 ** (offset + slot)
        term = -0.5 * np.log1p((grid.freqs / fb) ** 2)
        logm += -term if is_zero else term
    curve = curve_of(grid, np.exp(logm))
    assert np.all(curve.p >= -1.05)
    assert np.all(curve.p <= 1.05)


def test_coincident_double_real_pole_reaches_minus_one():
    fp = 1e3
    grid = make_grid(10.0, 1e5, 100)
    mag = 1.0 / (1.0 + (grid.freqs / fp) ** 2)  # two identical poles
    curve = curve_of(grid, mag)
    assert curve.p.min() == pytest.approx(-1.0, abs=5e-4)
    assert curve.p.min() >= -1.05


def test_grid_too_short():
    freqs = np.array([1.0, 10.0])
    tiny = FrequencyGrid(f_start=1.0, f_stop=10.0, points_per_decade=10,
                         freqs=freqs, log_step=math.log(10.0))
    with pytest.raises(BadRange, match="^need at least 3 grid points, got 2$"):
        curve_of(tiny, np.ones(2))


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def test_flat_curve_detects_nothing():
    grid = make_grid(1.0, 1e4, 25)
    curve = curve_of(grid, np.full(len(grid), 5.0))
    assert detect_peaks(curve) == []


def test_single_real_pole_detected_as_wide_pole():
    fp = 250.0
    grid = make_grid(1.0, 100e3, 100)
    mag = 1.0 / np.sqrt(1.0 + (grid.freqs / fp) ** 2)
    curve = curve_of(grid, mag)
    peaks = detect_peaks(curve)
    assert len(peaks) == 1
    (pk,) = peaks
    assert pk.kind is PeakKind.COMPLEX_POLE
    assert pk.p_value == pytest.approx(-0.5, abs=0.01)
    assert pk.zeta == pytest.approx(math.sqrt(2.0), rel=0.02)
    assert pk.severity is Severity.NON_OSCILLATORY


def test_underdamped_pole_yields_one_pole_and_no_zero():
    # The pole's own positive side lobes (about a tenth of the dip) must
    # be suppressed, not reported as complex zeros.
    net = elaborate(parse(circuits.passive_rlc_loop(0.2)))
    grid = make_grid(50.0, 500e3, 100)
    curves = stability_curves(sweep_all_nodes(build_pattern(net), grid, ["n2"]))
    peaks = detect_peaks(curves)
    assert [pk.kind for pk in peaks] == [PeakKind.COMPLEX_POLE]
    assert peaks[0].p_value == pytest.approx(-25.0, rel=0.03)
    # the raw curve really does contain positive lobes above the floor
    assert curves.p.max() > 0.1


def test_genuine_doublet_is_flagged_and_kept():
    # A sharp pole and a comparable sharp zero 2% apart: the visible
    # extrema land within the doublet gap and both survive, flagged.
    # (Superposition pushes the apparent extrema slightly apart, so the
    # underlying roots sit closer than the 5% flagging tolerance.)
    fn = 1e3
    grid = make_grid(10.0, 1e5, 200)
    mag = (second_order_magnitude(grid.freqs, fn, 0.05)
           / second_order_magnitude(grid.freqs, fn * 1.02, 0.05))
    curve = curve_of(grid, mag)
    peaks = detect_peaks(curve)
    kinds = {pk.kind for pk in peaks}
    assert kinds == {PeakKind.COMPLEX_POLE, PeakKind.COMPLEX_ZERO}
    assert all(PeakFlag.POLE_ZERO_DOUBLET in pk.flags for pk in peaks)


def test_end_of_range_pole_flagged_and_ungraded():
    # Resonance just above the sweep: the boundary sample is a running
    # minimum and must come back flagged, with no severity grade.
    fn = 5032.9
    grid = make_grid(50.0, 4600.0, 200)
    net = elaborate(parse(circuits.sensed_rlc_loop(0.2)))
    curves = stability_curves(sweep_all_nodes(build_pattern(net), grid, ["out"]))
    peaks = detect_peaks(curves)
    poles = [pk for pk in peaks if pk.kind is PeakKind.COMPLEX_POLE]
    assert poles, "expected a boundary pole candidate"
    for pk in poles:
        assert PeakFlag.END_OF_RANGE in pk.flags
        assert pk.severity is None
        assert not pk.gradable
    assert all(pk.natural_freq < fn for pk in poles)


def test_clamped_samples_never_become_candidates():
    grid = make_grid(1.0, 1e4, 25)
    mag = np.full(len(grid), 3.0)
    mag[10] = 0.0  # exact null -> floor clamp
    curves = stability_curves(synthetic(grid, mag))
    # interior points 8, 9 and 10 are the stencils that touch sample 10
    assert np.flatnonzero(curves.clamped[0]).tolist() == [8, 9, 10]
    peaks = detect_peaks(curves)
    # The huge fake curvature around the clamped point is ignored.
    lo, hi = np.exp(curves.log_freq[curves.clamped[0]][[0, -1]]) / (2 * math.pi)
    assert not any(lo <= pk.natural_freq <= hi for pk in peaks)
    assert peaks == []


def test_zero_and_subnormal_magnitudes_are_floored_without_a_warning():
    # A simulator's export may hold exact zeros and underflows; the
    # analysis floors them before its log and clamps them.  P is bitwise
    # that of the floor written into the sweep, where a sample exactly at
    # the floor is data, not clamped.
    grid = make_grid(1.0, 1e4, 25)
    m = np.vstack([np.full(len(grid), 3.0), np.linspace(1.0, 2.0, len(grid))])
    m[0, 10], m[1, 20] = 0.0, 1e-310
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curves = stability_curves(Sweep(grid, ["a", "b"], m, {}))
        written = stability_curves(Sweep(grid, ["a", "b"],
                                         np.where(m < MAGNITUDE_FLOOR, MAGNITUDE_FLOOR, m), {}))
    below = m < MAGNITUDE_FLOOR
    assert below.sum() == 2
    assert curves.magnitude.tobytes() == np.maximum(m, MAGNITUDE_FLOOR)[:, 1:-1].tobytes()
    assert np.array_equal(curves.clamped, below[:, 2:] | below[:, 1:-1] | below[:, :-2])
    assert curves.p.tobytes() == written.p.tobytes()
    assert np.isfinite(curves.p).all()
    assert not written.clamped.any()


def reference_detect_peaks(curves, floor):
    """The loop-based candidate scan that detect_peaks replaced, with the
    unchanged doublet and side-lobe passes, run on one row at a time: the
    oracle for the masks."""
    return [pk for k in range(len(curves.nodes))
            for pk in _reference_row_peaks(curves, k, floor)]


def _reference_row_peaks(curves, k, floor):
    p, clamped, node = curves.p[k], curves.clamped[k], curves.nodes[k]
    n = len(p)
    if n == 0:
        return []
    found = []

    def add(i, kind, end_of_range):
        if clamped[i]:
            return
        flags = set()
        if end_of_range:
            flags.add(PeakFlag.END_OF_RANGE)
        if (i > 0 and clamped[i - 1]) or (i < n - 1 and clamped[i + 1]):
            flags.add(PeakFlag.CLAMPED_DATA)
        if flags:
            freq, value = math.exp(curves.log_freq[i]) / (2.0 * math.pi), float(p[i])
        else:
            freq, value = refine_peak(curves.log_freq, p, i)
        found.append((i, Peak(node, kind, freq, value, flags=frozenset(flags))))

    for i in range(1, n - 1):
        if p[i] < -floor and p[i] < p[i - 1] and p[i] < p[i + 1]:
            add(i, PeakKind.COMPLEX_POLE, False)
        elif p[i] > floor and p[i] > p[i - 1] and p[i] > p[i + 1]:
            add(i, PeakKind.COMPLEX_ZERO, False)
    if n >= 2:
        if p[0] < -floor and p[0] < p[1]:
            add(0, PeakKind.COMPLEX_POLE, True)
        elif p[0] > floor and p[0] > p[1]:
            add(0, PeakKind.COMPLEX_ZERO, True)
        if p[n - 1] < -floor and p[n - 1] < p[n - 2]:
            add(n - 1, PeakKind.COMPLEX_POLE, True)
        elif p[n - 1] > floor and p[n - 1] > p[n - 2]:
            add(n - 1, PeakKind.COMPLEX_ZERO, True)

    gap = math.log1p(DOUBLET_GAP_DEFAULT)
    doublet = set()
    for i, (_, a) in enumerate(found):
        for j in range(i + 1, len(found)):
            b = found[j][1]
            if a.kind is b.kind:
                continue
            if abs(math.log(a.natural_freq / b.natural_freq)) <= gap:
                doublet.add(i)
                doublet.add(j)
    for i in sorted(doublet):
        index, pk = found[i]
        found[i] = (index, replace(pk, flags=pk.flags | {PeakFlag.POLE_ZERO_DOUBLET}))

    def distance(i, j):
        # One distance per pair, earlier candidate first, as detect_peaks
        # takes it: ln(fa/fb) and ln(fb/fa) can differ in the last bit, and
        # a pair exactly LOBE_WINDOW apart must be judged alike from both
        # sides.
        a, b = found[min(i, j)][1], found[max(i, j)][1]
        return abs(math.log(a.natural_freq / b.natural_freq))

    kept = []
    for i, (index, a) in enumerate(found):
        if i in doublet:
            kept.append((index, a))
            continue
        dominated = any(
            b.kind is not a.kind
            and distance(i, j) <= LOBE_WINDOW
            and abs(b.p_value) >= LOBE_RATIO * abs(a.p_value)
            for j, (_, b) in enumerate(found) if j != i)
        if not dominated:
            kept.append((index, a))
    kept.sort(key=lambda item: item[0])
    return [pk for _, pk in kept]


# A few repeated levels make ties between neighbours and plateaus common.
_P_SAMPLES = st.one_of(
    st.sampled_from([-50.0, -9.0, -4.0, -1.0, -0.1, 0.0, 0.1, 1.0, 4.0, 9.0, 50.0]),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))


@given(data=st.data(),
       floor=st.sampled_from([0.0, 0.1, 1.0]),
       log_step=st.sampled_from([0.005, 0.03, 0.1, 0.5]))
@settings(max_examples=200, deadline=None)
def test_detect_peaks_matches_loop_reference(data, floor, log_step):
    p = data.draw(st.lists(_P_SAMPLES, min_size=1, max_size=14), label="p")
    clamped = data.draw(st.lists(st.sampled_from([False, False, False, True]),
                                 min_size=len(p), max_size=len(p)), label="clamped")
    curve = _tiny_curve(p, clamped, log_step)
    assert detect_peaks(curve, floor=floor) == reference_detect_peaks(curve, floor)


@given(data=st.data(), floor=st.sampled_from([0.0, 0.1, 1.0]))
@settings(max_examples=100, deadline=None)
def test_detect_peaks_reads_each_row_alone(data, floor):
    # A many-row block gives each row's peaks, in row order, exactly as
    # that row alone gives them: no doublet or side lobe spans two rows.
    width = data.draw(st.integers(min_value=1, max_value=10), label="width")
    rows = data.draw(st.lists(st.lists(_P_SAMPLES, min_size=width, max_size=width),
                              min_size=1, max_size=4), label="rows")
    clamped = data.draw(st.lists(st.lists(st.sampled_from([False, False, False, True]),
                                          min_size=width, max_size=width),
                                 min_size=len(rows), max_size=len(rows)), label="clamped")
    block = _tiny_curve(rows, clamped)
    alone = [pk for k, (p, c) in enumerate(zip(rows, clamped))
             for pk in detect_peaks(_tiny_curve(p, c, node=block.nodes[k]), floor=floor)]
    assert detect_peaks(block, floor=floor) == alone
    assert detect_peaks(block, floor=floor) == reference_detect_peaks(block, floor)


@pytest.mark.parametrize("p,clamped", [
    ([-5.0], None),
    ([5.0], None),
    ([-5.0, -1.0], None),
    ([1.0, 5.0], None),
    ([-2.0, -2.0], None),
    # a pole at each end, a tie and a clamped sample
    ([-5.0, -1.0, -3.0, -3.0, 0.5, 2.0, -7.0],
     [False, False, False, False, True, False, False]),
    # a refined pole-zero doublet whose members the end extrema, four
    # times deeper and within LOBE_WINDOW, would drop as side lobes: kept
    # and flagged
    ([20.0, -1.0, 1.0, -20.0], None),
    # a small zero within LOBE_WINDOW of a deep doublet pole, and of no
    # other pole: dropped (the plateau after the pair holds no candidate)
    ([0.0, 0.5, 0.0, 100.0, -5.0, 5.0, -100.0, -100.0], None),
])
def test_detect_peaks_matches_loop_reference_on_edge_cases(p, clamped):
    curve = _tiny_curve(p, clamped)
    assert detect_peaks(curve) == reference_detect_peaks(curve, 0.1)


def test_side_lobe_window_edge_is_judged_once_per_pair():
    # A flagged zero and pole two samples of 0.5 apart sit LOBE_WINDOW
    # apart up to the last bit, and the zero is exactly LOBE_RATIO times
    # deeper.  Which side of the window edge the pair falls on is one
    # decision, the same as the reference's.
    curve = _tiny_curve([-50.0, -50.0, -50.0, -50.0, -50.0, 36.0, -4.0, -9.0],
                        [False, False, False, False, False, False, True, False],
                        log_step=0.5)
    assert detect_peaks(curve, floor=0.0) == reference_detect_peaks(curve, 0.0)


@pytest.mark.parametrize("flags,graded", [
    ((), True),
    ((PeakFlag.POLE_ZERO_DOUBLET,), True),
    ((PeakFlag.END_OF_RANGE,), False),
    ((PeakFlag.CLAMPED_DATA,), False),
])
def test_pole_peak_grades_itself(flags, graded):
    pk = Peak("n", PeakKind.COMPLEX_POLE, 1e3, -25.0, flags=frozenset(flags))
    assert pk.zeta == 0.2
    assert pk.gradable is graded
    if graded:
        assert pk.phase_margin_deg == pytest.approx(22.60, abs=0.005)
        assert pk.overshoot_pct == pytest.approx(52.66, abs=0.005)
        assert pk.severity is Severity.UNSTABLE_RISK
    else:
        assert (pk.phase_margin_deg, pk.overshoot_pct, pk.severity) == (None, None, None)


def test_zero_peak_carries_no_damping_figures():
    pk = Peak("n", PeakKind.COMPLEX_ZERO, 1e3, 25.0)
    assert (pk.zeta, pk.phase_margin_deg, pk.overshoot_pct, pk.severity) == \
           (None, None, None, None)
    assert not pk.gradable


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def _tiny_curve(p_values, clamped=None, log_step=0.1, node="t"):
    """A curves block with the given P samples: one row from a flat list,
    a row per node ``t0``, ``t1``, ... from a list of rows."""
    p = np.atleast_2d(np.asarray(p_values, dtype=float))
    n = p.shape[1] + 2
    freqs = np.exp(np.linspace(0.0, (n - 1) * log_step, n))
    grid = FrequencyGrid(f_start=freqs[0], f_stop=freqs[-1],
                         points_per_decade=10, freqs=freqs, log_step=log_step)
    if clamped is None:
        clamped = np.zeros(p.shape, dtype=bool)
    nodes = [node] if np.ndim(p_values) == 1 else [f"t{k}" for k in range(len(p))]
    return Curves(grid=grid, nodes=nodes, log_freq=np.log(2 * math.pi * freqs[1:-1]),
                  magnitude=np.ones(p.shape), p=p,
                  clamped=np.atleast_2d(np.asarray(clamped, dtype=bool)))


def test_refine_symmetric_samples():
    curve = _tiny_curve([-9.0, -10.0, -9.0])
    freq, value = refine_peak(curve.log_freq, curve.p[0], 1)
    assert value == pytest.approx(-10.0)
    assert freq == pytest.approx(math.exp(curve.log_freq[1]) / (2 * math.pi), rel=1e-12)


@pytest.mark.parametrize("p,index", [([-1.0, -5.0, -2.0], 0), ([-1.0, -5.0, -2.0], 2),
                                     ([-1.0, -2.0, -3.0], 1)],
                         ids=["first", "last", "collinear"])
def test_refine_falls_back_to_sample(p, index):
    # A row end has no neighbour on one side (index 0 must not read
    # p[-1]), and three collinear samples have no vertex.
    curve = _tiny_curve(p)
    freq, value = refine_peak(curve.log_freq, curve.p[0], index)
    assert value == p[index]
    assert freq == pytest.approx(math.exp(curve.log_freq[index]) / (2 * math.pi), rel=1e-12)


def test_refined_frequency_accuracy_at_100_ppd():
    net = elaborate(parse(circuits.passive_rlc_loop(0.2)))
    grid = make_grid(50.0, 500e3, 100)
    curves = stability_curves(sweep_all_nodes(build_pattern(net), grid, ["n2"]))
    peaks = detect_peaks(curves)
    (pole,) = [pk for pk in peaks if pk.kind is PeakKind.COMPLEX_POLE]
    assert pole.natural_freq == pytest.approx(circuits.F_NATURAL, rel=0.005)


# ---------------------------------------------------------------------------
# zeta and the closed-form damping figures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index,zeta", [(-1.0, 1.0), (-4.0, 0.5),
                                        (-25.0, 0.2), (-100.0, 0.1)])
def test_zeta_from_index_exact_rows(index, zeta):
    assert zeta_from_index(index) == zeta


def test_zeta_from_index_rejects_nonnegative():
    with pytest.raises(ValueError, match="^pole peak value must be negative, got 0.0$"):
        zeta_from_index(0.0)
    with pytest.raises(ValueError, match="^pole peak value must be negative, got 2.0$"):
        zeta_from_index(2.0)


@given(zeta=st.floats(min_value=1e-3, max_value=10.0,
                      allow_nan=False, allow_infinity=False))
def test_zeta_round_trip(zeta):
    assert zeta_from_index(-1.0 / zeta**2) == pytest.approx(zeta, rel=1e-14)


def test_closed_forms_at_known_points():
    # zeta = 1/sqrt(2): the loop crosses over at wc = wn*sqrt(sqrt(2) - 1)
    # and the closed loop peaks at exp(-pi) overshoot.
    zeta = 1.0 / math.sqrt(2.0)
    wc = math.sqrt(math.sqrt(2.0) - 1.0)
    assert phase_margin_from_zeta(zeta) == pytest.approx(
        math.degrees(math.atan(2.0 * zeta / wc)), abs=1e-12)
    assert overshoot_from_zeta(zeta) == pytest.approx(100.0 * math.exp(-math.pi), rel=1e-14)
    assert phase_margin_from_zeta(0.5) == pytest.approx(51.83, abs=0.005)
    assert overshoot_from_zeta(0.5) == pytest.approx(16.30, abs=0.005)
    assert phase_margin_from_zeta(0.1) == pytest.approx(11.42, abs=0.005)
    assert overshoot_from_zeta(0.1) == pytest.approx(72.92, abs=0.005)


def test_damping_table_has_eleven_rows_ending_at_zero():
    table = circuits.DAMPING_TABLE
    assert len(table) == 11
    assert table[0] == (1.0, 0.0, -1.0)
    assert table[-1][0] == 0.0 and table[-1][2] == -math.inf
    # Both end rows are exact on the closed forms, not only within rounding.
    assert zeta_from_index(table[0][2]) == 1.0
    assert overshoot_from_zeta(1.0) == 0.0
    assert zeta_from_index(table[-1][2]) == 0.0
    assert overshoot_from_zeta(0.0) == pytest.approx(100.0, rel=1e-14)
    assert phase_margin_from_zeta(0.0) == 0.0


def test_closed_forms_beyond_seventy_degrees():
    # Every zeta gets a phase margin, rising towards 90 deg; overshoot
    # is zero from critical damping on.
    assert phase_margin_from_zeta(0.9) == pytest.approx(73.51, abs=0.005)
    assert overshoot_from_zeta(0.9) == pytest.approx(0.15, abs=0.005)
    assert phase_margin_from_zeta(1.0) == pytest.approx(76.35, abs=0.005)
    assert overshoot_from_zeta(1.0) == 0.0
    assert overshoot_from_zeta(1.5) == 0.0
    margins = [phase_margin_from_zeta(z) for z in np.linspace(0.01, 50.0, 500)]
    assert all(a < b for a, b in zip(margins, margins[1:]))
    assert 89.9 < margins[-1] < 90.0


@pytest.mark.parametrize("zeta,severity", [
    (0.05, Severity.UNSTABLE_RISK),
    (0.29, Severity.UNSTABLE_RISK),
    (0.3, Severity.MARGINAL),
    (0.49, Severity.MARGINAL),
    (0.5, Severity.ACCEPTABLE),
    (0.99, Severity.ACCEPTABLE),
    (1.0, Severity.NON_OSCILLATORY),
    (1.41, Severity.NON_OSCILLATORY),
])
def test_severity_thresholds(zeta, severity):
    assert severity_from_zeta(zeta) is severity
