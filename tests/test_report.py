"""Loop grouping and renderer tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopscope.report import (
    build_report,
    format_eng_freq,
    render_curves_csv,
    render_json,
    render_text,
)
from loopscope.stability import (
    Peak,
    PeakFlag,
    PeakKind,
    stability_curves,
)
from loopscope.sweep import Sweep, make_grid


def pole(node, p_value, freq, flags=()):
    return Peak(node, PeakKind.COMPLEX_POLE, freq, p_value, flags=frozenset(flags))


def zero(node, p_value, freq):
    return Peak(node, PeakKind.COMPLEX_ZERO, freq, p_value)


GRID = make_grid(1.0, 1e8, 10)


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------

def test_group_close_frequencies_into_one_loop():
    peaks = [pole("a", -20.0, 3.16e6), pole("b", -21.0, 3.16e6),
             pole("c", -19.0, 3.31e6)]
    groups = build_report("t", GRID, peaks, rel_gap=0.05).groups
    assert len(groups) == 1
    assert {m.node for m in groups[0].members} == {"a", "b", "c"}


def test_group_distant_frequencies_split():
    groups = build_report("t", GRID, [pole("a", -4.0, 1e6), pole("b", -4.0, 5e7)]).groups
    assert len(groups) == 2


def test_group_empty():
    assert build_report("t", GRID, []).groups == []


def test_zero_peaks_never_join_a_loop():
    poles = [pole("a", -20.0, 3.16e6), pole("b", -4.0, 5e7)]
    z = zero("c", 30.0, 3.16e6)
    alone = build_report("t", GRID, poles)
    mixed = build_report("t", GRID, [z, *poles])
    assert [g.members for g in mixed.groups] == [g.members for g in alone.groups]
    assert mixed.zeros == [z]
    assert render_text(mixed).count("Loop at") == 2


def test_group_label_and_worst_fields():
    peaks = [pole("weak", -9.0, 1.00e6), pole("deep", -36.0, 1.02e6)]
    (g,) = build_report("t", GRID, peaks).groups
    assert g.worst_node == "deep"
    assert g.label_freq == 1.02e6
    assert g.worst_zeta == pytest.approx(1.0 / 6.0)
    assert [m.node for m in g.members] == ["deep", "weak"]


def test_group_worst_zeta_skips_flagged_members():
    peaks = [pole("edge", -100.0, 1.0e6, flags={PeakFlag.END_OF_RANGE}),
             pole("mid", -4.0, 1.02e6)]
    (g,) = build_report("t", GRID, peaks).groups
    assert g.worst_zeta == pytest.approx(0.5)
    assert g.severity is not None
    edge = pole("edge", -100.0, 1e6, flags={PeakFlag.END_OF_RANGE})
    only_flagged = build_report("t", GRID, [edge]).groups
    assert only_flagged[0].worst_zeta is None
    assert only_flagged[0].severity is None


def test_group_worst_node_is_min_zeta_gradable_member():
    # The deepest peak is flagged, so it is neither graded nor the worst
    # node; JSON and text must name the same member.
    peaks = [pole("edge", -100.0, 1.0e6, flags={PeakFlag.END_OF_RANGE}),
             pole("weak", -2.0, 1.01e6), pole("mid", -4.0, 1.02e6)]
    (g,) = build_report("t", GRID, peaks).groups
    assert g.members[0].node == "edge"
    assert g.worst_node == "mid"
    report = build_report("t", GRID, peaks)
    (doc_group,) = json.loads(render_json(report))["groups"]
    assert doc_group["worst_node"] == "mid"
    assert "(node mid)" in render_text(report)
    edge = pole("edge", -100.0, 1e6, flags={PeakFlag.END_OF_RANGE})
    only_flagged = build_report("t", GRID, [edge]).groups
    assert only_flagged[0].worst_node == "edge"


# Depths on the severity thresholds (zeta 1, 0.5, 0.3) as well as between.
_DEPTHS = st.one_of(st.sampled_from([1.0, 4.0, 1.0 / 0.09, 100.0]),
                    st.floats(min_value=0.01, max_value=1e4))


@given(members=st.lists(st.tuples(_DEPTHS, st.sets(st.sampled_from(list(PeakFlag)))),
                        min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_group_grade_is_its_worst_members(members):
    # The group's grade is derived from its min-zeta gradable member; that
    # is the worst severity only because severity never improves as zeta
    # falls.
    peaks = [pole(f"n{i}", -depth, 1e6, flags) for i, (depth, flags) in enumerate(members)]
    (g,) = build_report("t", GRID, peaks).groups
    graded = [pk for pk in peaks if pk.severity is not None]
    assert g.severity == min((pk.severity for pk in graded), default=None)
    if graded:
        (named,) = [pk for pk in peaks if pk.node == g.worst_node]
        assert named.gradable
        assert named.zeta == g.worst_zeta == min(pk.zeta for pk in graded)
    else:
        assert g.worst_zeta is None
        assert g.worst_node == g.members[0].node


@given(freqs=st.lists(st.floats(min_value=1e2, max_value=1e9), min_size=1,
                      max_size=12),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=50, deadline=None)
def test_grouping_permutation_invariant(freqs, seed):
    peaks = [pole(f"n{i}", -4.0 - i, f) for i, f in enumerate(freqs)]
    base = build_report("t", GRID, peaks).groups
    rng = np.random.default_rng(seed)
    shuffled = list(peaks)
    rng.shuffle(shuffled)
    again = build_report("t", GRID, shuffled).groups
    assert [[m.node for m in g.members] for g in base] == \
           [[m.node for m in g.members] for g in again]
    assert [g.label_freq for g in base] == [g.label_freq for g in again]


@given(freqs=st.lists(st.floats(min_value=1e2, max_value=1e9), min_size=1,
                      max_size=12))
@settings(max_examples=50, deadline=None)
def test_grouping_monotone_in_gap(freqs):
    peaks = [pole(f"n{i}", -4.0, f) for i, f in enumerate(freqs)]
    counts = [len(build_report("t", GRID, peaks, rel_gap=g).groups)
              for g in (0.01, 0.05, 0.2, 1.0)]
    assert counts == sorted(counts, reverse=True)


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def test_render_single_member_loop():
    report = build_report("t", GRID, [pole("out", -28.884067, 3.16e6)])
    text = render_text(report)
    assert "Loop at 3.16 MHz" in text
    row = next(line for line in text.splitlines() if line.startswith("out"))
    assert row.split() == ["out", "28.884067", "3.16E+06"]


def test_render_end_of_range_suffix():
    report = build_report("t", GRID, [pole("n1", -30.0, 2e3,
                                           flags={PeakFlag.END_OF_RANGE})])
    text = render_text(report)
    assert "[end-of-range]" in text
    assert "ungraded" in text


def test_render_empty_report_with_warnings():
    report = build_report("t", GRID, [], warnings=["node 'x' has no conductive path to ground"])
    text = render_text(report)
    assert "No oscillatory loops detected above floor." in text
    assert "Warnings" in text
    assert "conductive path" in text


def test_render_every_pole_appears_exactly_once():
    peaks = [pole(f"n{i}", -4.0 - i, 10.0 ** (3 + i)) for i in range(5)]
    text = render_text(build_report("t", GRID, peaks))
    for pk in peaks:
        assert text.count(f"{abs(pk.p_value):.6f}") == 1


def test_render_is_deterministic():
    peaks = [pole("a", -25.0, 3.16e6), pole("b", -11.0, 3.2e6),
             zero("c", 8.0, 1e4)]
    r1 = build_report("t", GRID, peaks, warnings=["w"])
    r2 = build_report("t", GRID, peaks, warnings=["w"])
    assert render_text(r1) == render_text(r2)


def test_rows_that_print_the_same_sort_by_node():
    # Noise below the printed precision (another BLAS build, another
    # solve engine) must not reorder rows: ties in the printed value
    # sort by node, whichever node got the larger exact value.
    lo, hi = 1 - 1e-12, 1 + 1e-12
    texts = set()
    for a, b in ((lo, hi), (hi, lo)):
        peaks = [zero("za", 0.5, 3.17e8 * a), zero("zb", 0.5, 3.17e8 * b),
                 pole("deep", -50.0, 1e6), pole("pa", -12.5 * a, 1e6),
                 pole("pb", -12.5 * b, 1e6)]
        texts.add(render_text(build_report("t", GRID, peaks)))
    (text,) = texts
    rows = [line.split()[0] for line in text.splitlines() if "E+0" in line]
    assert rows == ["deep", "pa", "pb", "za", "zb"]


def test_render_zeros_section():
    text = render_text(build_report("t", GRID, [zero("trap", 24.7, 5.03e3)]))
    assert "Complex zeros" in text
    assert "trap 24.700000 5.03E+03" in text


def test_eng_freq_formatting():
    assert format_eng_freq(3.16e6) == "3.16 MHz"
    assert format_eng_freq(4.79e7) == "47.9 MHz"
    assert format_eng_freq(3.63e7) == "36.3 MHz"
    assert format_eng_freq(5032.9) == "5.03 kHz"
    assert format_eng_freq(80.43) == "80.4 Hz"
    assert format_eng_freq(999.9) == "1 kHz"
    assert format_eng_freq(2.5e9) == "2.5 GHz"
    assert format_eng_freq(999.4e9) == "999 GHz"
    assert format_eng_freq(999.6e9) == "1 THz"
    assert format_eng_freq(2e12) == "2 THz"
    assert format_eng_freq(999.6e12) == "1000 THz"
    assert format_eng_freq(5e15) == "5000 THz"
    assert format_eng_freq(5e-6) == "0.000005 Hz"


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _curve(node="a", n_points=5, nodes=None):
    """The curves block of a rising magnitude at ``node``, or at each of
    ``nodes`` (none for an empty list)."""
    nodes = [node] if nodes is None else nodes
    grid = make_grid(1.0, 10.0 ** ((n_points - 1) / 10.0), 10)
    assert len(grid) == n_points
    mag = np.tile(np.linspace(1.0, 2.0, n_points), (len(nodes), 1))
    curves = stability_curves(Sweep(grid, nodes, mag, {}))
    assert curves.nodes == nodes
    return curves


def test_csv_line_count():
    curve = _curve(n_points=5)
    lines = render_curves_csv(curve).strip().splitlines()
    assert len(lines) == 1 + 3  # header + interior points
    assert lines[0] == "freq_hz,mag_a,p_a"
    # With no curves the grid's interior frequencies are the only column.
    lines = render_curves_csv(_curve(n_points=5, nodes=[])).strip().splitlines()
    assert lines == ["freq_hz", *(repr(float(f)) for f in curve.grid.freqs[1:-1])]


def test_csv_hierarchical_node_name_not_quoted():
    curve = _curve(node="X1.out")
    text = render_curves_csv(curve)
    assert "mag_X1.out" in text.splitlines()[0]
    assert '"' not in text.splitlines()[0]


def test_csv_quotes_when_needed():
    curve = _curve(node="we,ird")
    header = render_curves_csv(curve).splitlines()[0]
    assert '"mag_we,ird"' in header


def test_csv_round_trips_full_precision():
    curve = _curve()
    lines = render_curves_csv(curve).strip().splitlines()
    first = lines[1].split(",")
    assert float(first[0]) == curve.grid.freqs[1]
    assert float(first[1]) == curve.magnitude[0, 0] == 1.25  # the response's |V| at point 1
    assert float(first[2]) == curve.p[0, 0]


def test_csv_columns_follow_the_row_order():
    curves = _curve(nodes=["b", "a"])
    curves.p[1] += 1.0  # tell the rows apart
    lines = render_curves_csv(curves).strip().splitlines()
    assert lines[0] == "freq_hz,mag_b,p_b,mag_a,p_a"
    for i, line in enumerate(lines[1:]):
        cells = [float(cell) for cell in line.split(",")]
        assert cells == [curves.grid.freqs[i + 1], curves.magnitude[0, i], curves.p[0, i],
                         curves.magnitude[1, i], curves.p[1, i]]


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def test_json_empty_report_valid():
    doc = json.loads(render_json(build_report("t", GRID, [])))
    assert doc["schema"] == "loopscope-report-1"
    assert doc["groups"] == []
    assert doc["zeros"] == []


def test_json_group_schema():
    peaks = [pole("out", -25.0, 3.16e6), zero("z", 4.0, 1e3)]
    doc = json.loads(render_json(build_report("t", GRID, peaks)))
    (grp,) = doc["groups"]
    assert set(grp) == {"label_freq_hz", "worst_zeta", "worst_node",
                        "severity", "members"}
    (member,) = grp["members"]
    assert member["node"] == "out"
    assert member["kind"] == "complex-pole"
    assert doc["zeros"][0]["kind"] == "complex-zero"


def test_json_numeric_round_trip_exact():
    p = pole("out", -28.884067, 3.1637e6)
    doc = json.loads(render_json(build_report("t", GRID, [p])))
    member = doc["groups"][0]["members"][0]
    assert member["p_value"] == p.p_value
    assert member["natural_freq_hz"] == p.natural_freq
    assert member["zeta"] == p.zeta
    assert doc["grid"]["f_start_hz"] == GRID.f_start
