"""Frequency grid and node-sweep tests."""

import math

import numpy as np
import pytest

from loopscope import sweep
from loopscope.mna import MnaError, build_pattern, solve_block
from loopscope.netlist import elaborate, parse
from loopscope.stability import MAGNITUDE_FLOOR, stability_curves
from loopscope.sweep import (
    MAX_GRID_POINTS,
    NOISE_FLOOR_REL,
    BadRange,
    make_grid,
    sweep_all_nodes,
)

import circuits


def _net(src):
    return elaborate(parse(src))


# ---------------------------------------------------------------------------
# make_grid
# ---------------------------------------------------------------------------

def test_grid_count_and_ratio():
    grid = make_grid(1.0, 1000.0, 10)
    assert len(grid) == 31
    ratios = grid.freqs[1:] / grid.freqs[:-1]
    assert np.allclose(ratios, 10 ** (1 / 10), rtol=1e-12)


def test_grid_endpoints_exact():
    grid = make_grid(50.0, 500e3, 200)
    assert grid.freqs[0] == 50.0
    assert grid.freqs[-1] == 500e3


def test_grid_ten_decades():
    grid = make_grid(1.0, 1e10, 100)
    assert len(grid) == 1001
    assert grid.log_step == pytest.approx(math.log(10) / 100, rel=1e-12)


def test_grid_uniform_log_spacing():
    grid = make_grid(3.0, 7e5, 37)
    steps = np.diff(np.log(grid.freqs))
    assert np.allclose(steps, steps[0], rtol=1e-9)


@pytest.mark.parametrize("fs,fe,ppd", [(10, 10, 100), (100, 10, 100),
                                       (0, 10, 100), (1, 1000, 9),
                                       (1e3, 1.2e3, 10), (1e306, 1e308, 10)])
def test_grid_bad_ranges(fs, fe, ppd):
    # The last range's top angular frequency 2*pi*fe overflows to inf.
    with pytest.raises(BadRange):
        make_grid(fs, fe, ppd)


@pytest.mark.parametrize("fs,fe,ppd", [(1.0, 1e10, 100_000_000),
                                       (1.0, 1e6, 166_667),
                                       (1e-10, 1e308, 100),
                                       pytest.param(1.0, 2.0, 10**400, id="401-digit-ppd")])
def test_grid_rejects_more_than_max_points(fs, fe, ppd):
    # Rejected from the requested size alone, before any allocation; the
    # third case's span overflows to infinity, the last one's ppd is too
    # large for a float.
    with pytest.raises(BadRange, match="exceed"):
        make_grid(fs, fe, ppd)


def test_grid_just_below_max_points_is_accepted():
    grid = make_grid(1.0, 1e6, 166_666)
    assert MAX_GRID_POINTS - 3 == len(grid) == 999_997


def test_grid_density_is_not_capped_on_its_own():
    assert len(make_grid(1.0, 1.001, 10_000_000)) == 4342


# ---------------------------------------------------------------------------
# one node's sweep
# ---------------------------------------------------------------------------

def test_flat_resistive_response():
    net = _net("t\nR1 a 0 1k\nR2 a 0 1k\n.end\n")
    grid = make_grid(1.0, 1e6, 20)
    swept = sweep_all_nodes(build_pattern(net, gmin=0.0), grid, ["a"])
    assert swept.nodes == ["a"] and swept.magnitude.shape == (1, len(grid))
    assert np.allclose(swept.magnitude, 500.0, rtol=1e-12)
    assert not (swept.magnitude == 0).any()


def test_rc_response_matches_analytic_magnitude():
    r, c = 1e3, 1e-6
    net = _net(circuits.parallel_rc(r, c))
    grid = make_grid(1.0, 100e3, 50)
    (magnitude,) = sweep_all_nodes(build_pattern(net, gmin=0.0), grid, ["a"]).magnitude
    f_pole = 1.0 / (2 * math.pi * r * c)
    expected = r / np.sqrt(1.0 + (grid.freqs / f_pole) ** 2)
    assert np.allclose(magnitude, expected, rtol=1e-9)
    assert f_pole == pytest.approx(159.1549, rel=1e-4)


def test_passive_loop_nodes_match_analytic_formulas():
    # Both loop nodes share the characteristic denominator; numerators are
    # s*l*(1 + s*r*c) at n1 and (r + s*l) at n2.
    zeta = 0.2
    l, c = circuits.L_HENRY, circuits.C_FARAD
    r = circuits.series_r_for(zeta)
    net = _net(circuits.passive_rlc_loop(zeta))
    grid = make_grid(50.0, 500e3, 30)
    pattern = build_pattern(net, gmin=0.0)
    s = 2j * math.pi * grid.freqs
    den = s * s * l * c + s * r * c + 1.0
    for node, num in [("n1", s * l * (1.0 + s * r * c)), ("n2", r + s * l)]:
        (magnitude,) = sweep_all_nodes(pattern, grid, [node]).magnitude
        assert np.allclose(magnitude, np.abs(num / den), rtol=1e-9), node


def test_response_finite_everywhere_with_gmin():
    net = _net(circuits.two_block())
    grid = make_grid(1.0, 1e9, 30)
    pattern = build_pattern(net)
    for node in net.nodes:
        (magnitude,) = sweep_all_nodes(pattern, grid, [node]).magnitude
        assert np.all(np.isfinite(magnitude))


# ---------------------------------------------------------------------------
# sweep_all_nodes
# ---------------------------------------------------------------------------

def test_all_nodes_count_and_order():
    net = _net("t\nR1 a b 1k\nC1 b 0 1u\nR2 b c 1k\nC2 c 0 1u\nR3 c d 1k\nC3 d 0 1u\n.end\n")
    grid = make_grid(10.0, 1e4, 20)
    swept = sweep_all_nodes(build_pattern(net), grid)
    assert swept.nodes == ["a", "b", "c", "d"]
    assert swept.magnitude.shape == (4, len(grid))
    assert swept.errors == {}


def test_all_nodes_filter_hierarchical():
    # Named nodes are swept in the order given, each under its netlist
    # spelling.
    net = _net(circuits.two_block())
    grid = make_grid(1e3, 1e7, 20)
    chosen = [n for n in net.nodes if n.startswith("X1.")][::-1]
    assert len(chosen) > 1
    swept = sweep_all_nodes(build_pattern(net), grid,
                            nodes=[n.swapcase() for n in chosen])
    assert swept.nodes == chosen


def test_unknown_node_is_refused_before_any_solve(monkeypatch):
    calls = []
    monkeypatch.setattr(sweep, "solve_block", lambda *args, **kwargs: calls.append(args))
    pattern = build_pattern(_net(circuits.passive_rlc_loop(0.2)))
    for nodes, message in ((["n1", "nope"], "unknown node 'nope'"),
                           (["n1", "N1"], "node 'N1' requested twice")):
        with pytest.raises(MnaError, match=f"^{message}$"):
            sweep_all_nodes(pattern, make_grid(50.0, 500e3, 10), nodes=nodes)
    assert calls == []


def test_one_block_per_frequency(monkeypatch):
    # Frequency-major: each frequency's Y, whose imaginary part is w*C,
    # is handed to solve_block once, with every node's unit row in node
    # order, and every call gets the same work matrix.  How the block is
    # factored is solve_block's own contract (test_mna).
    blocks = []
    block = sweep.solve_block

    def counted_block(Y, B):
        blocks.append((Y, Y.imag.tobytes(), B.tobytes()))
        return block(Y, B)

    monkeypatch.setattr(sweep, "solve_block", counted_block)
    pattern = build_pattern(_net(circuits.ladder(3)))
    grid = make_grid(1.0, 1000.0, 10)
    swept = sweep_all_nodes(pattern, grid)
    assert len(grid) == 31 and len(swept.nodes) == pattern.n_nodes == 7
    omegas = (2 * math.pi * grid.freqs).tolist()
    unit_rows = np.eye(pattern.dim, dtype=np.complex128)[:7].tobytes()
    assert [(wc, b) for _, wc, b in blocks] == [
        ((omega * pattern.C).tobytes(), unit_rows) for omega in omegas]
    assert all(Y is blocks[0][0] for Y, _, _ in blocks)


def _failing_solve(monkeypatch, pattern, grid, fail_at):
    """Patch the sweep's block solve to refuse the row of each node in
    ``fail_at`` at its omega, blaming that node and leaving NaN in that
    row of X; returns the (node, omega) of every row solved.  A block's
    omega is the grid's one whose w*C is bitwise Y's imaginary part."""
    calls = []
    block = sweep.solve_block
    omegas = (2 * math.pi * grid.freqs).tolist()

    def failing(Y, B):
        X, refused = block(Y, B)
        (omega,) = [w for w in omegas if (w * pattern.C).tobytes() == Y.imag.tobytes()]
        for j, b in enumerate(B):
            row = int(np.flatnonzero(b)[0])
            node = pattern.labels[row]
            calls.append((node, omega))
            if fail_at.get(node) == omega:
                X[j] = np.nan
                refused[j] = row
        return X, refused

    monkeypatch.setattr(sweep, "solve_block", failing)
    return calls


def test_failing_node_stops_alone_and_leaves_the_others_bitwise(monkeypatch):
    pattern = build_pattern(_net(circuits.ladder(3)))
    grid = make_grid(1.0, 1000.0, 10)
    clean = sweep_all_nodes(pattern, grid)
    omegas = (2 * math.pi * grid.freqs).tolist()
    calls = _failing_solve(monkeypatch, pattern, grid, {"s2": omegas[15]})
    swept = sweep_all_nodes(pattern, grid)
    assert swept.errors == {
        "s2": f"singular MNA system at unknown 's2' (omega={omegas[15]:g} rad/s)"}
    assert "s2" not in swept.nodes
    assert [omega for node, omega in calls if node == "s2"] == omegas[:16]
    others = [k for k, node in enumerate(clean.nodes) if node != "s2"]
    assert swept.nodes == [clean.nodes[k] for k in others]
    assert swept.magnitude.shape == (len(others), len(grid))
    for got, want in enumerate(others):
        node = swept.nodes[got]
        assert swept.magnitude[got].tobytes() == clean.magnitude[want].tobytes(), node


def test_errors_keep_node_order_whichever_node_fails_first(monkeypatch):
    # s3 fails first; errors follow the requested order, not the matrix
    # rows (first sweep) and not the order of the failures (second).
    pattern = build_pattern(_net(circuits.ladder(3)))
    grid = make_grid(1.0, 1000.0, 10)
    omegas = (2 * math.pi * grid.freqs).tolist()
    _failing_solve(monkeypatch, pattern, grid, {"m1": omegas[20], "s3": omegas[3]})
    swept = sweep_all_nodes(pattern, grid, nodes=["s3", "m1", "in"])
    assert list(swept.errors) == ["s3", "m1"]
    assert swept.nodes == ["in"]
    swept = sweep_all_nodes(pattern, grid)
    assert list(swept.errors) == ["m1", "s3"]


def test_sense_only_node_is_refused_alone_on_a_real_netlist(monkeypatch):
    # The real solve_block, only observed: at gmin 1e-320, n5 is refused
    # at the first frequency, so its row is in the first block only, and
    # the other four nodes read bitwise what a sweep of them alone reads.
    pattern = build_pattern(_net(circuits.sense_only_node()), gmin=1e-320)
    grid = make_grid(1.0, 1e10, 20)
    blocks = []
    block = sweep.solve_block

    def counted_block(Y, B):
        blocks.append([pattern.labels[int(np.flatnonzero(b)[0])] for b in B])
        return block(Y, B)

    monkeypatch.setattr(sweep, "solve_block", counted_block)
    swept = sweep_all_nodes(pattern, grid)
    assert swept.errors == {"n5": "singular MNA system at unknown 'n5' (omega=6.28319 rad/s)"}
    assert len(blocks) == len(grid)
    assert [k for k, rows in enumerate(blocks) if "n5" in rows] == [0]
    assert swept.nodes == ["n4", "n3", "n1", "n2"]
    alone = sweep_all_nodes(pattern, grid, nodes=swept.nodes)
    assert alone.errors == {}
    assert swept.magnitude.tobytes() == alone.magnitude.tobytes()


def _row_curve(grid, magnitude):
    """One node's stability curve computed from that node's row alone: the
    reference the whole-block expression of ``stability_curves`` must
    match bitwise.  The row is floored before its log, and the samples
    below the floor are the clamped ones."""
    clamped = magnitude < MAGNITUDE_FLOOR
    floored = np.where(clamped, MAGNITUDE_FLOOR, magnitude)
    logm = np.log(floored / np.max(floored))
    h = grid.log_step
    p = (logm[2:] - 2.0 * logm[1:-1] + logm[:-2]) / (h * h)
    return p, clamped[2:] | clamped[1:-1] | clamped[:-2], floored[1:-1]


@pytest.mark.parametrize("case", ["ladder10", "opamp", "one_node_fails"])
def test_stability_curves_match_per_row_reference_bitwise(case, monkeypatch):
    if case == "ladder10":
        pattern = build_pattern(_net(circuits.ladder(10)))
        grid = make_grid(1e3, 1e9, 100)
    elif case == "opamp":
        pattern = build_pattern(_net(circuits.hierarchical_opamp_buffer()))
        grid = make_grid(1e3, 1e9, 100)
    else:
        pattern = build_pattern(_net(circuits.ladder(3)))
        grid = make_grid(1.0, 1000.0, 10)
        omegas = (2 * math.pi * grid.freqs).tolist()
        _failing_solve(monkeypatch, pattern, grid, {"s2": omegas[15]})
    swept = sweep_all_nodes(pattern, grid)
    rows = {"ladder10": 21, "opamp": 5, "one_node_fails": 6}[case]
    assert len(swept.nodes) == rows and swept.magnitude.shape == (rows, len(grid))
    assert list(swept.errors) == (["s2"] if case == "one_node_fails" else [])
    if case == "opamp":  # the input, pinned by Vin, is noise everywhere
        assert (swept.magnitude[swept.nodes.index("in")] == 0).all()
    curves = stability_curves(swept)
    assert curves.nodes == swept.nodes
    assert curves.p.shape == curves.clamped.shape == curves.magnitude.shape \
        == (rows, len(grid) - 2)
    log_freq = np.log(2.0 * math.pi * grid.freqs[1:-1])
    assert curves.log_freq.tobytes() == log_freq.tobytes()
    assert curves.grid is grid
    for k, magnitude in enumerate(swept.magnitude):
        p, stencil, interior = _row_curve(grid, magnitude.copy())
        node = curves.nodes[k]
        assert curves.p[k].tobytes() == p.tobytes(), node
        assert np.array_equal(curves.clamped[k], stencil), node
        assert curves.magnitude[k].tobytes() == interior.tobytes(), node


def test_determinism_bitwise():
    net = _net(circuits.two_block())
    grid = make_grid(50.0, 5e6, 40)
    a = sweep_all_nodes(build_pattern(net), grid)
    b = sweep_all_nodes(build_pattern(net), grid)
    assert len(a.nodes) == len(b.nodes) == len(net.nodes)
    assert a.nodes == b.nodes
    assert np.array_equal(a.magnitude, b.magnitude)


@pytest.mark.parametrize("src,node,grid_args", [
    (circuits.passive_rlc_loop(0.2), "n2", (50.0, 500e3, 100)),
    (circuits.hierarchical_opamp_buffer(), "Xamp.n2", (1e3, 1e9, 100)),
], ids=["rlc-n2", "opamp-Xamp.n2"])
def test_all_nodes_entry_matches_single_node_sweep_bitwise(src, node, grid_args):
    # --node and --all-nodes read the same curve, stability plot included.
    pattern = build_pattern(_net(src))
    grid = make_grid(*grid_args)
    single = sweep_all_nodes(pattern, grid, [node])
    swept = sweep_all_nodes(pattern, grid)
    k = swept.nodes.index(node)
    assert np.array_equal(single.magnitude[0], swept.magnitude[k])
    one, every = stability_curves(single), stability_curves(swept)
    assert np.array_equal(one.clamped[0], every.clamped[k])
    assert np.array_equal(one.p[0], every.p[k])


def _oracle_response(pattern, node, grid):
    """The sweep written out with a fresh G + jwC per frequency: |V| at the
    node, or 0 where it is noise; the floor is the analysis's."""
    row = pattern.row_of_node(node)
    b = np.zeros(pattern.dim, dtype=np.complex128)
    b[row] = 1.0
    magnitude = np.empty(len(grid))
    for i, f in enumerate(grid.freqs):
        omega = 2.0 * math.pi * f
        X, refused = solve_block(pattern.G + 1j * omega * pattern.C, b[None])
        assert refused == {}
        x = X[0]
        magnitude[i] = abs(x[row])
        if magnitude[i] <= NOISE_FLOOR_REL * float(np.max(np.abs(x))):
            magnitude[i] = 0.0
    return magnitude


@pytest.mark.parametrize("src,grid_args", [
    (circuits.two_block(), (50.0, 5e6, 40)),
    (circuits.passive_rlc_loop(0.2), (50.0, 500e3, 100)),
    (circuits.hierarchical_opamp_buffer(), (1e3, 1e9, 50)),
    (circuits.ladder(10), (1e3, 1e9, 100)),  # the benchmark's all-nodes audit
], ids=["two_block", "rlc", "opamp", "ladder10"])
def test_in_place_assembly_matches_fresh_matrix_oracle_bitwise(src, grid_args):
    pattern = build_pattern(_net(src))
    grid = make_grid(*grid_args)
    g_bytes, c_bytes = pattern.G.tobytes(), pattern.C.tobytes()
    swept = sweep_all_nodes(pattern, grid)
    single = sweep_all_nodes(pattern, grid, [pattern.labels[0]])
    assert pattern.G.tobytes() == g_bytes and pattern.C.tobytes() == c_bytes
    assert not swept.errors
    assert swept.nodes == pattern.labels[:pattern.n_nodes]
    for result in (swept, single):
        for node, row_mag in zip(result.nodes, result.magnitude):
            magnitude = _oracle_response(pattern, node, grid)
            assert row_mag.tobytes() == magnitude.tobytes(), node
    if "Xamp.eo" in pattern.labels:  # the ideal-source-driven node is noise
        assert (swept.magnitude[swept.nodes.index("Xamp.eo")] == 0).all()


def test_added_isource_changes_nothing_bitwise():
    base = _net(circuits.passive_rlc_loop(0.3))
    plus = _net(circuits.passive_rlc_loop(0.3).replace(
        ".end", "Iextra 0 n1 AC 3\n.end"))
    grid = make_grid(100.0, 1e5, 40)
    ra = sweep_all_nodes(build_pattern(base), grid, ["n2"])
    rb = sweep_all_nodes(build_pattern(plus), grid, ["n2"])
    assert np.array_equal(ra.magnitude, rb.magnitude)


def test_added_vsource_is_zeroed_during_injection():
    # A V source adds a branch (different matrix), so equality is numeric
    # rather than bitwise; its AC value must still be irrelevant.
    base = circuits.passive_rlc_loop(0.3)
    with_v = base.replace(".end", "Vextra probe n1 AC 9\nRp probe 0 1g\n.end")
    with_v0 = base.replace(".end", "Vextra probe n1 AC 0\nRp probe 0 1g\n.end")
    grid = make_grid(100.0, 1e5, 40)
    na, nb = _net(with_v), _net(with_v0)
    ra = sweep_all_nodes(build_pattern(na), grid, ["n2"])
    rb = sweep_all_nodes(build_pattern(nb), grid, ["n2"])
    assert np.allclose(ra.magnitude, rb.magnitude, rtol=1e-12)


def test_ideal_source_driven_node_clamps_instead_of_noise():
    # Injecting into a node pinned by an ideal VCVS has a zero response;
    # the computed values are solver rounding residue and must come back
    # as 0, which the analysis clamps, never as wild curvature.
    net = _net(circuits.hierarchical_opamp_buffer())
    grid = make_grid(1e3, 1e9, 50)
    swept = sweep_all_nodes(build_pattern(net), grid, ["Xamp.eo"])
    assert (swept.magnitude == 0).all()
    curves = stability_curves(swept)
    assert curves.nodes == ["Xamp.eo"]
    assert curves.clamped.all()
    assert np.all(curves.p == 0.0)


def test_high_impedance_node_is_not_excluded_by_rounding():
    # Injection at the 1 TOhm input gives ~1e11 V; its residual is tiny
    # against ||Y|| ||x||, so the node is analysed, not called singular.
    net = _net(circuits.cmos_input_stage())
    swept = sweep_all_nodes(build_pattern(net), make_grid(1.0, 1e10, 100))
    assert swept.nodes == ["in", "out"]
    assert swept.errors == {}


def test_singular_circuit_collects_per_node_errors():
    # Two ideal shorts in parallel make the branch equations dependent;
    # every node solve fails but the audit itself survives, and a failure
    # is recorded under the netlist's spelling of the node.
    net = _net("t\nV1 a 0 AC 0\nV2 a 0 AC 0\nR1 a 0 1k\n.end\n")
    grid = make_grid(10.0, 1e3, 10)
    for nodes in (None, ["A"]):
        swept = sweep_all_nodes(build_pattern(net), grid, nodes=nodes)
        assert swept.nodes == [] and swept.magnitude.shape == (0, len(grid))
        assert list(swept.errors) == ["a"]
        assert "singular" in swept.errors["a"].lower()
