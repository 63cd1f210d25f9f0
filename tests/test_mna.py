"""MNA matrix and solver tests, checked against closed-form impedances."""

import math

import numpy as np
import pytest

from loopscope import audit, mna
from loopscope.mna import (
    MnaError,
    build_pattern,
    solve_block,
)
from loopscope.netlist import elaborate, parse, parse_value
from loopscope.stability import overshoot_from_zeta, phase_margin_from_zeta
from loopscope.sweep import make_grid

import circuits
from circuits import CIRCUITS_DIR


def _net(src):
    return elaborate(parse(src))


def _inject_block(pattern, nodes, omega, current=1.0):
    """``solve_block`` of one row per node in ``nodes``, ``current``
    injected into that node: returns X and the refused rows, each
    mapped to the index of the unknown it blames."""
    B = np.zeros((len(nodes), pattern.dim), dtype=complex)
    B[range(len(nodes)), [pattern.row_of_node(node) for node in nodes]] = current
    return solve_block(pattern.G + 1j * omega * pattern.C, B)


def _inject(pattern, node, omega, current=1.0):
    """Full solution vector with ``current`` injected into ``node``, which
    the block must accept."""
    X, refused = _inject_block(pattern, [node], omega, current)
    assert refused == {}
    return X[0]


def _solve_node(net, node, omega, gmin=1e-12):
    pattern = build_pattern(net, gmin=gmin)
    return _inject(pattern, node, omega)[pattern.row_of_node(node)]


# ---------------------------------------------------------------------------
# G and C stamps
# ---------------------------------------------------------------------------

def test_single_resistor_pattern():
    net = _net("t\nR1 a 0 1k\n.end\n")
    pattern = build_pattern(net, gmin=0.0)
    assert pattern.n_nodes == 1
    assert pattern.dim == 1
    assert pattern.G[0, 0] == pytest.approx(1e-3)
    assert not pattern.C.any()


def test_single_vsource_pattern():
    net = _net("t\nV1 a 0 AC 2\n.end\n")
    pattern = build_pattern(net, gmin=0.0)
    assert pattern.dim == 2  # one node plus one branch current
    assert pattern.G[0, 1] == 1.0 and pattern.G[1, 0] == 1.0
    # Sources are zeroed: the AC value appears nowhere in the matrices.
    zeroed = build_pattern(_net("t\nV1 a 0 AC 0\n.end\n"), gmin=0.0)
    assert np.array_equal(pattern.G, zeroed.G)
    assert np.array_equal(pattern.C, zeroed.C)


def test_vccs_stamps():
    net = _net("t\nG1 a b c d 5m\nR1 a 0 1\nR2 b 0 1\nR3 c 0 1\nR4 d 0 1\n.end\n")
    pattern = build_pattern(net, gmin=0.0)
    G = pattern.G
    ia, ib, ic, id_ = (pattern.row_of_node(n) for n in "abcd")
    gm = 5e-3
    assert G[ia, ic] == pytest.approx(gm)
    assert G[ib, id_] == pytest.approx(gm)
    assert G[ia, id_] == pytest.approx(-gm)
    assert G[ib, ic] == pytest.approx(-gm)


def test_reactive_stamps_land_in_c():
    net = _net("t\nC1 a b 2n\nL1 b 0 3u\nR1 a 0 1k\n.end\n")
    pattern = build_pattern(net, gmin=0.0)
    ia, ib = pattern.row_of_node("a"), pattern.row_of_node("b")
    k = pattern.labels.index("I(L1)")
    expected_c = np.zeros((pattern.dim, pattern.dim))
    expected_c[ia, ia] = expected_c[ib, ib] = 2e-9
    expected_c[ia, ib] = expected_c[ib, ia] = -2e-9
    expected_c[k, k] = -3e-6
    assert np.array_equal(pattern.C, expected_c)
    # The inductor's incidence entries are real and live in G.
    assert pattern.G[ib, k] == 1.0 and pattern.G[k, ib] == 1.0


def test_controlled_voltage_and_current_source_stamps():
    net = _net("t\nV1 s 0 AC 0\nR0 s 0 1\nE1 a 0 c 0 2.0\nF1 b 0 V1 3.0\n"
               "H1 d 0 V1 50\nR1 a 0 1\nR2 b 0 1\nR3 c 0 1\nR4 d 0 1\n.end\n")
    pattern = build_pattern(net, gmin=0.0)
    G = pattern.G
    kv, ke, kh = (pattern.labels.index(f"I({n})") for n in ("V1", "E1", "H1"))
    ia, ib, ic, id_ = (pattern.row_of_node(n) for n in "abcd")
    assert G[ke, ia] == 1.0 and G[ia, ke] == 1.0 and G[ke, ic] == -2.0
    assert G[ib, kv] == 3.0
    assert G[kh, id_] == 1.0 and G[id_, kh] == 1.0 and G[kh, kv] == -50.0
    assert not pattern.C.any()


# The control of every F and H card below, and its two incidence entries.
_V1 = "V1 s 0 AC 0"
_V1_G = {("s", "I(V1)"): 1.0, ("I(V1)", "s"): 1.0}


@pytest.mark.parametrize("cards,labels,g,c", [
    ("R1 0 b 4", ["b"], {("b", "b"): 0.25}, {}),
    ("R1 a 0 4", ["a"], {("a", "a"): 0.25}, {}),
    ("C1 0 b 3", ["b"], {}, {("b", "b"): 3.0}),
    ("C1 a 0 3", ["a"], {}, {("a", "a"): 3.0}),
    # Row I(L1) is V_a - V_b - jw 5 I(L1) = 0.
    ("L1 0 b 5", ["b", "I(L1)"], {("b", "I(L1)"): -1.0, ("I(L1)", "b"): -1.0},
     {("I(L1)", "I(L1)"): -5.0}),
    ("L1 a 0 5", ["a", "I(L1)"], {("a", "I(L1)"): 1.0, ("I(L1)", "a"): 1.0},
     {("I(L1)", "I(L1)"): -5.0}),
    ("V1 0 b AC 1", ["b", "I(V1)"], {("b", "I(V1)"): -1.0, ("I(V1)", "b"): -1.0}, {}),
    ("V1 a 0 AC 1", ["a", "I(V1)"], {("a", "I(V1)"): 1.0, ("I(V1)", "a"): 1.0}, {}),
    ("I1 0 b AC 1", ["b"], {}, {}),
    ("I1 a 0 AC 1", ["a"], {}, {}),
    # Row I(E1) is V_a - V_b - 2 (V_c - V_d) = 0.
    ("E1 0 b c d 2", ["b", "c", "d", "I(E1)"],
     {("b", "I(E1)"): -1.0, ("I(E1)", "b"): -1.0,
      ("I(E1)", "c"): -2.0, ("I(E1)", "d"): 2.0}, {}),
    ("E1 a 0 c d 2", ["a", "c", "d", "I(E1)"],
     {("a", "I(E1)"): 1.0, ("I(E1)", "a"): 1.0,
      ("I(E1)", "c"): -2.0, ("I(E1)", "d"): 2.0}, {}),
    ("E1 a b 0 d 2", ["a", "b", "d", "I(E1)"],
     {("a", "I(E1)"): 1.0, ("b", "I(E1)"): -1.0, ("I(E1)", "a"): 1.0,
      ("I(E1)", "b"): -1.0, ("I(E1)", "d"): 2.0}, {}),
    ("E1 a b c 0 2", ["a", "b", "c", "I(E1)"],
     {("a", "I(E1)"): 1.0, ("b", "I(E1)"): -1.0, ("I(E1)", "a"): 1.0,
      ("I(E1)", "b"): -1.0, ("I(E1)", "c"): -2.0}, {}),
    # A current 3 (V_c - V_d) leaves node a and enters node b.
    ("G1 0 b c d 3", ["b", "c", "d"], {("b", "c"): -3.0, ("b", "d"): 3.0}, {}),
    ("G1 a 0 c d 3", ["a", "c", "d"], {("a", "c"): 3.0, ("a", "d"): -3.0}, {}),
    ("G1 a b 0 d 3", ["a", "b", "d"], {("a", "d"): -3.0, ("b", "d"): 3.0}, {}),
    ("G1 a b c 0 3", ["a", "b", "c"], {("a", "c"): 3.0, ("b", "c"): -3.0}, {}),
    # A current 4 I(V1) leaves node a and enters node b.
    (f"F1 0 b V1 4\n{_V1}", ["b", "s", "I(V1)"], {**_V1_G, ("b", "I(V1)"): -4.0}, {}),
    (f"F1 a 0 V1 4\n{_V1}", ["a", "s", "I(V1)"], {**_V1_G, ("a", "I(V1)"): 4.0}, {}),
    # Row I(H1) is V_a - V_b - 50 I(V1) = 0.
    (f"H1 0 b V1 50\n{_V1}", ["b", "s", "I(H1)", "I(V1)"],
     {**_V1_G, ("b", "I(H1)"): -1.0, ("I(H1)", "b"): -1.0,
      ("I(H1)", "I(V1)"): -50.0}, {}),
    (f"H1 a 0 V1 50\n{_V1}", ["a", "s", "I(H1)", "I(V1)"],
     {**_V1_G, ("a", "I(H1)"): 1.0, ("I(H1)", "a"): 1.0,
      ("I(H1)", "I(V1)"): -50.0}, {}),
], ids=["R-a", "R-b", "C-a", "C-b", "L-a", "L-b", "V-a", "V-b", "I-a", "I-b",
        "E-a", "E-b", "E-c", "E-d", "G-a", "G-b", "G-c", "G-d",
        "F-a", "F-b", "H-a", "H-b"])
def test_every_kind_stamps_exactly_with_ground_on_each_terminal(cards, labels, g, c):
    # Ids name the grounded terminal; every entry not listed is zero.
    pattern = build_pattern(_net(f"t\n{cards}\n.end\n"), gmin=0.0)
    assert pattern.labels == labels

    def matrix(entries):
        m = np.zeros((len(labels), len(labels)))
        for (row, col), w in entries.items():
            m[labels.index(row), labels.index(col)] = w
        return m

    assert np.array_equal(pattern.G, matrix(g))
    assert np.array_equal(pattern.C, matrix(c))


def test_gmin_folded_into_node_diagonal():
    src = "t\nR1 a b 1k\nL1 b 0 1m\n.end\n"
    bare = build_pattern(_net(src), gmin=0.0)
    with_gmin = build_pattern(_net(src), gmin=1e-9)
    nodes = np.arange(bare.n_nodes)  # branch rows get no gmin
    expected = bare.G.copy()
    expected[nodes, nodes] += 1e-9
    assert np.array_equal(with_gmin.G, expected)
    assert np.array_equal(with_gmin.C, bare.C)


def test_pattern_requires_flat_netlist():
    net = parse(circuits.two_block())
    with pytest.raises(MnaError):
        build_pattern(net)
    # No instances, but a parameter reference is still unresolved.
    with pytest.raises(MnaError, match="must be elaborated"):
        build_pattern(parse("t\n.param r=1k\nR1 a 0 {r}\n.end\n"))


@pytest.mark.parametrize("load", [_net, parse], ids=["elaborate", "parse"])
@pytest.mark.parametrize("cards,ctrl", [
    ("R1 a 0 1", "Vmissing"),
    ("R1 a 0 1\nL1 a c 1m\nR3 c 0 10", "L1"),
    ("R1 a 0 1\nE1 c 0 a 0 2\nR3 c 0 10", "E1"),
], ids=["missing", "inductor", "vcvs"])
def test_control_must_be_a_vsource(load, cards, ctrl):
    # Only an independent V source's branch current may control a CCCS;
    # an inductor or VCVS has a branch row too, but is not a control.
    net = load(f"t\nF1 b 0 {ctrl} 2\nR2 b 0 1\n{cards}\n.end\n")
    with pytest.raises(MnaError,
                       match=f"^element 'F1' needs an existing V-source as control, "
                             f"got '{ctrl}'$"):
        build_pattern(net)


def test_unknown_injection_node():
    net = _net("t\nR1 a 0 1k\n.end\n")
    pattern = build_pattern(net)
    with pytest.raises(MnaError, match="^unknown node 'zz'$"):
        _inject(pattern, "zz", 1.0)


# ---------------------------------------------------------------------------
# solution correctness
# ---------------------------------------------------------------------------

def test_parallel_resistors_driving_point():
    net = _net("t\nR1 a 0 1k\nR2 a 0 1k\n.end\n")
    for omega in (1.0, 1e3, 1e7):
        v = _solve_node(net, "a", omega, gmin=0.0)
        assert abs(v) == pytest.approx(500.0, rel=1e-12)


def test_series_rlc_matches_analytic_impedance():
    # Loop gnd-R-b-L-c-C-gnd injected at the R-L junction b:
    #   Z(b) = R (s^2 L C + 1) / (s^2 L C + s R C + 1)
    r, l, c = 12.649, 1e-3, 1e-6
    net = _net(f"t\nR1 0 b {r!r}\nL1 b c {l!r}\nC1 c 0 {c!r}\n.end\n")
    for f in (50.0, 1e3, 4.9e3, 5.1e3, 2e4, 4e5):
        s = 2j * math.pi * f
        expected = r * (s * s * l * c + 1) / (s * s * l * c + s * r * c + 1)
        v = _solve_node(net, "b", 2 * math.pi * f, gmin=0.0)
        assert v == pytest.approx(expected, rel=1e-9)


def test_zeroed_vsource_is_a_short():
    net = _net("t\nV1 a b AC 0\nR1 b 0 1k\n.end\n")
    va = _solve_node(net, "a", omega=100.0, gmin=0.0)
    net2 = _net("t\nV1 a b AC 7\nR1 b 0 1k\n.end\n")
    pattern = build_pattern(net2, gmin=0.0)
    x = _inject(pattern, "a", 100.0)
    v_a = x[pattern.row_of_node("a")]
    v_b = x[pattern.row_of_node("b")]
    assert v_a == pytest.approx(v_b, rel=1e-12)  # branch forces V_a - V_b = 0
    assert v_a == pytest.approx(va, rel=1e-12)   # AC value irrelevant when injecting


def test_identity_solve():
    Y = np.eye(4, dtype=complex)
    b = np.zeros(4, dtype=complex)
    b[2] = 1.0
    X, refused = solve_block(Y, b[None])
    assert refused == {}
    assert np.allclose(X[0], b)


@pytest.mark.parametrize("src,gmin,node,label", [
    ("I1 0 a 1\nR1 b 0 1k", 0.0, "a", "a"),
    ("I1 0 a 1\nR1 a b 1k\nR2 c 0 1k", 0.0, "a", "b"),
    ("V1 a 0 AC 0\nV2 a 0 AC 0\nR1 a 0 1k", 1e-12, "a", "I(V2)"),
    ("V1 a 0 0\nV2 a b 0\nV3 b 0 0\nR1 a 0 1k", 1e-12, "a", "I(V3)"),
    ("E1 a 0 b 0 1\nE2 b 0 a 0 1\nR1 a 0 1k", 1e-12, "a", "I(E2)"),
], ids=["floating-node", "floating-pair", "parallel-vsources", "vsource-loop",
        "vcvs-loop"])
def test_floating_node_without_gmin_names_the_node(src, gmin, node, label):
    # Floating nodes and source or controlled-source loops: the error
    # names the unknown whose pivot vanishes in partial-pivoting LU.
    pattern = build_pattern(_net(f"t\n{src}\n.end\n"), gmin=gmin)
    _, refused = _inject_block(pattern, [node], 1e3)
    assert list(refused) == [0]
    assert pattern.labels[refused[0]] == label


@pytest.mark.parametrize("gmin", [1e-320, 0.0])
def test_subnormal_pivot_names_the_isolated_node(gmin):
    # At gmin 1e-320 the pivot of the isolated node f is subnormal, and
    # LAPACK returns NaN in a, b and f instead of raising; the NaN in a
    # must not be blamed.  At gmin 0 the pivot is exactly zero.
    net = _net("t\nR1 a 0 1k\nC1 a 0 1n\nL1 a b 1u\nR2 b 0 10\nI1 f 0 AC 1\n.end\n")
    pattern = build_pattern(net, gmin=gmin)
    _, refused = _inject_block(pattern, ["a", "b", "f"], 2e6 * math.pi)
    assert {j: pattern.labels[u] for j, u in refused.items()} == {0: "f", 1: "f", 2: "f"}


def test_floating_node_with_gmin_solves():
    net = _net("t\nI1 0 a 1\nR1 b 0 1k\n.end\n")
    v = _solve_node(net, "a", omega=1e3)  # default gmin
    assert abs(v) == pytest.approx(1e12, rel=1e-6)  # 1 A into 1e-12 S


def test_random_complex_system_residual():
    rng = np.random.default_rng(20240817)
    n = 20
    Y = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
         + 10.0 * np.eye(n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    X, refused = solve_block(Y, b[None])
    assert refused == {}
    x = X[0]
    resid = np.max(np.abs(b - Y @ x))
    assert resid <= 1e-9 * np.max(np.abs(b))


def _count_solves(monkeypatch, alter=lambda call, x: x):
    """Count the calls of mna's np.linalg.solve; call number ``call``
    returns ``alter(call, x)`` for the true solution ``x``."""
    calls = []
    real = np.linalg.solve

    def fake(Y, b):
        calls.append(b)
        return alter(len(calls), real(Y, b))

    monkeypatch.setattr(mna.np.linalg, "solve", fake)
    return calls


def _ladder_system():
    pattern = build_pattern(_net(circuits.ladder(3)))
    b = np.zeros(pattern.dim, dtype=complex)
    b[pattern.row_of_node("s2")] = 1.0
    return pattern, pattern.G + 2j * math.pi * 5e6 * pattern.C, b


def test_accurate_first_solve_is_the_only_solve(monkeypatch):
    pattern, Y, b = _ladder_system()
    expected = np.linalg.solve(Y, b)
    calls = _count_solves(monkeypatch)
    X, refused = solve_block(Y, b[None])
    assert refused == {}
    assert np.array_equal(X[0], expected)
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.inf, math.nan)])
def test_non_finite_solution_is_refused_without_refinement(monkeypatch, bad):
    # A NaN or inf from LAPACK is refused, and the first non-finite entry
    # of x names the unknown.
    pattern, Y, b = _ladder_system()
    x_bad = np.linalg.solve(Y, b)
    x_bad[4] = bad
    calls = _count_solves(monkeypatch, lambda call, x: x_bad.copy())
    with np.errstate(invalid="ignore"):
        assert np.isnan(b - Y @ x_bad).all()
        _, refused = solve_block(Y, b[None])
    assert len(calls) == 1
    assert list(refused) == [0]
    assert pattern.labels[refused[0]] == pattern.labels[4] == "s2"


def test_solution_that_misses_names_the_worst_residual_row(monkeypatch):
    # The solve is off by 1e-3 in unknown 4, so the residual is
    # -1e-3 * Y[:, 4], far over the bound, and its largest entry names
    # the unknown.  There is no second solve.
    pattern, Y, b = _ladder_system()
    calls = _count_solves(monkeypatch, lambda call, x: x + 1e-3 * np.eye(len(x))[4])
    _, refused = solve_block(Y, b[None])
    assert len(calls) == 1
    assert list(refused) == [0]
    assert pattern.labels[refused[0]] == pattern.labels[int(np.argmax(np.abs(Y[:, 4])))] == "s2"


def test_block_judges_each_row_as_solve_does(monkeypatch):
    # One block, one LU per row: the row whose solve is off by 1e-3 in
    # unknown 4 is refused with the label a one-row block gives it, and
    # the other rows come back bitwise as one-row blocks return them.
    pattern, Y, _ = _ladder_system()
    B = np.eye(pattern.dim, dtype=complex)[[0, 4, 6]]
    expected = [solve_block(Y, b[None])[0][0] for b in B]
    calls = _count_solves(
        monkeypatch, lambda call, x: x + 1e-3 * np.eye(len(x))[4] if call == 2 else x)
    X, refused = solve_block(Y, B)
    assert len(calls) == 3
    assert list(refused) == [1]
    assert pattern.labels[refused[1]] == "s2"
    for j in (0, 2):
        assert X[j].tobytes() == expected[j].tobytes()


def test_block_mixes_scaled_pass_with_refusal(monkeypatch):
    # At this frequency the ~1e11 V solution at ``in`` misses 1e-9 ||b||
    # and passes only the scaled bound; the second row's solve is off by
    # 1e-3 in unknown ``in``, past its own scaled bound; the third row is
    # clean.  One block gives each row the verdict a one-row block does.
    pattern = build_pattern(_net(circuits.cmos_input_stage()))
    omega = 2 * math.pi * make_grid(1.0, 1e10, 100).freqs[2]
    Y = pattern.G + 1j * omega * pattern.C
    B = np.eye(pattern.dim, dtype=complex)[[pattern.row_of_node(node)
                                            for node in ("in", "out", "out")]]
    assert np.abs(B[0] - Y @ np.linalg.solve(Y, B[0])).max() > 1e-9
    expected = [solve_block(Y, b[None])[0][0] for b in B]
    calls = _count_solves(
        monkeypatch, lambda call, x: x + 1e-3 * np.eye(len(x))[0] if call == 2 else x)
    X, refused = solve_block(Y, B)
    assert len(calls) == 3
    assert list(refused) == [1]
    assert pattern.labels[refused[1]] == "out"
    for j in (0, 2):
        assert X[j].tobytes() == expected[j].tobytes()


def test_zero_pivot_refuses_the_whole_block_after_one_lu(monkeypatch):
    # Every row shares Y's LU, so an exactly zero pivot stops the first
    # row's LU and refuses every row, all named from one QR of Y.
    Y = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(Y, np.eye(2, dtype=complex)[0])
    qrs = []
    real_qr = np.linalg.qr

    def counted_qr(*args, **kwargs):
        qrs.append(args)
        return real_qr(*args, **kwargs)

    monkeypatch.setattr(mna.np.linalg, "qr", counted_qr)
    calls = _count_solves(monkeypatch)
    X, refused = solve_block(Y, np.eye(2, dtype=complex))
    assert len(calls) == 1 and len(qrs) == 1
    assert list(refused) == [0, 1]
    assert all(type(u) is int for u in refused.values())
    assert list(refused.values()) == [1, 1]  # unknown "b"
    assert np.isnan(X).all()


def test_large_response_passes_on_its_normwise_backward_error():
    # At a few of these points the residual of the ~1e11 V solution misses
    # 1e-9 ||b|| from rounding alone; scaled by ||Y|| ||x|| it is ~1e-17.
    pattern = build_pattern(_net(circuits.cmos_input_stage()))
    b = np.zeros(pattern.dim, dtype=complex)
    b[pattern.row_of_node("in")] = 1.0
    for omega in 2 * math.pi * make_grid(1.0, 1e10, 100).freqs[:400]:
        Y = pattern.G + 1j * omega * pattern.C
        X, refused = solve_block(Y, b[None])
        assert refused == {}
        x = X[0]
        scale = np.abs(Y).sum(axis=1).max() * np.abs(x).max() + 1.0
        assert np.abs(b - Y @ x).max() <= 1e-9 * scale


def test_overflowing_scale_does_not_widen_the_bound(monkeypatch):
    # ||Y||_inf overflows, and a bound scaled by inf would accept any
    # residual; the worst row is named instead, with no overflow warning.
    Y = np.array([[1e308, 1e308], [0.0, 1.0]], dtype=complex)
    b = np.array([0.0, 1.0], dtype=complex)
    calls = _count_solves(monkeypatch, lambda call, x: x + np.array([0.0, 1e-6]))
    _, refused = solve_block(Y, b[None])
    assert len(calls) == 1
    assert list(refused) == [0]
    assert refused[0] == 0  # unknown "a"


def test_nan_residual_is_refused():
    # LU of this Y returns a finite x = [0, 0], but inf * 0 makes the
    # residual NaN, which no comparison with the bound accepts.
    Y = np.array([[math.inf, 1.0], [1.0, 1.0]], dtype=complex)
    b = np.array([1.0, 0.0], dtype=complex)
    with np.errstate(invalid="ignore"):
        _, refused = solve_block(Y, b[None])
    assert list(refused) == [0]
    assert refused[0] == 0  # unknown "a"


def test_overflow_in_the_dropped_ground_row_is_not_refused():
    # Ground's own entry sums both 1e308 S conductances to inf, but it is
    # dropped, and G itself stays finite.
    pattern = build_pattern(_net("t\nR1 a 0 1e-308\nR2 b 0 1e-308\nR3 a b 1k\n.end\n"))
    assert np.isfinite(pattern.G).all()


def test_zero_rhs_and_empty_system(monkeypatch):
    pattern, Y, _ = _ladder_system()
    calls = _count_solves(monkeypatch)
    X, refused = solve_block(Y, np.zeros((1, pattern.dim), dtype=complex))
    assert len(calls) == 1
    assert refused == {}
    assert np.array_equal(X[0], np.zeros(pattern.dim))
    X, refused = solve_block(np.zeros((0, 0), dtype=complex), np.zeros((1, 0), dtype=complex))
    assert len(calls) == 2
    assert refused == {}
    assert X.shape == (1, 0)


def test_reciprocity_for_rlc_network():
    # V_j (inject at i) == V_i (inject at j) for reciprocal (RLC) networks.
    src = """t
R1 a b 1k
C1 b 0 1u
L1 b c 10m
R2 c 0 2.2k
C2 a 0 100n
.end
"""
    net = _net(src)
    pattern = build_pattern(net)
    for f in (10.0, 320.0, 1e4, 1e6):
        omega = 2 * math.pi * f
        xi = _inject(pattern, "a", omega)
        xj = _inject(pattern, "c", omega)
        v_c_from_a = xi[pattern.row_of_node("c")]
        v_a_from_c = xj[pattern.row_of_node("a")]
        assert v_c_from_a == pytest.approx(v_a_from_c, rel=1e-8)


def test_linearity_in_injected_current():
    net = _net(circuits.passive_rlc_loop(0.3))
    pattern = build_pattern(net)
    omega = 2 * math.pi * 5e3
    x1 = _inject(pattern, "n2", omega, current=1.0)
    x2 = _inject(pattern, "n2", omega, current=12.5)
    assert np.allclose(x2, 12.5 * x1, rtol=1e-12, atol=0)


def test_inductor_branch_form_matches_admittance_form():
    # RL divider: R from a to b, L from b to ground.  The branch-form
    # solution must match a hand-built admittance-form system 1/(jwL).
    r, l = 100.0, 1e-3
    net = _net(f"t\nR1 a b {r!r}\nL1 b 0 {l!r}\n.end\n")
    pattern = build_pattern(net, gmin=0.0)
    for f in (10.0, 1e3, 1e6):
        omega = 2 * math.pi * f
        x = _inject(pattern, "a", omega)
        g = 1.0 / r
        yl = 1.0 / (1j * omega * l)
        Yref = np.array([[g, -g], [-g, g + yl]], dtype=complex)
        bref = np.array([1.0, 0.0], dtype=complex)
        xref = np.linalg.solve(Yref, bref)
        ia, ib = pattern.row_of_node("a"), pattern.row_of_node("b")
        assert x[ia] == pytest.approx(xref[0], rel=1e-9)
        assert x[ib] == pytest.approx(xref[1], rel=1e-9)


def test_controlled_source_zoo_solves():
    # One of each controlled source in a single solvable circuit.
    src = """t
V1 drv 0 AC 0
R1 drv a 1k
E1 b 0 a 0 2.0
R2 b c 1k
G1 c 0 a 0 1m
R3 c 0 1k
F1 d 0 V1 3.0
R4 d 0 1k
H1 e 0 V1 50
R5 e 0 1k
.end
"""
    net = _net(src)
    pattern = build_pattern(net)
    x = _inject(pattern, "a", 2 * math.pi * 1e3)
    assert np.all(np.isfinite(x))


# ---------------------------------------------------------------------------
# exact poles of the pencil (G, C)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,f_exact,zeta_exact", [
    ("opamp_buffer.cir", 11.12e6, 0.6235),
    ("rlc_loop.cir", 5.033e3, 0.200),
])
def test_exact_poles_match_audited_loop(name, f_exact, zeta_exact):
    # The natural frequencies of the circuit are the finite generalized
    # eigenvalues s of G x = -s C x; each upper-half-plane one is a pole
    # pair s = -zeta*wn + j*wn*sqrt(1 - zeta^2).  scipy is a test extra,
    # imported here so that every other test runs with numpy alone.
    import scipy.linalg

    net = _net((CIRCUITS_DIR / name).read_text())
    pattern = build_pattern(net)
    eig = scipy.linalg.eigvals(-pattern.G, pattern.C)
    finite = eig[np.isfinite(eig)]
    # The stability plot reads |Z| only, so a right-half-plane pole would
    # read like its stable mirror: the examples must be stable outright.
    assert np.all(finite.real < 0), finite
    pairs = [s for s in finite if s.imag > 0]
    assert len(pairs) == 1
    (s,) = pairs
    f_pole = abs(s) / (2 * math.pi)
    zeta_pole = -s.real / abs(s)
    assert f_pole == pytest.approx(f_exact, rel=1e-3)
    assert zeta_pole == pytest.approx(zeta_exact, rel=1e-3)

    report, _ = audit(net, make_grid())
    loops = [g for g in report.groups if abs(g.label_freq / f_pole - 1) <= 0.01]
    assert len(loops) == 1
    assert loops[0].worst_zeta == pytest.approx(zeta_pole, rel=0.02)


# ---------------------------------------------------------------------------
# printed damping figures against the loop's return ratio
# ---------------------------------------------------------------------------

GIN_GM = 200e-6  # Xamp.Gin in circuits.hierarchical_opamp_buffer()


def _return_ratio(pattern, f_hz):
    """Bode's return ratio of the op-amp's input VCCS ``Xamp.Gin``.

    The source's stamp leaves G; in its place an independent current
    gm (the source with a unit controlling voltage) leaves ``Xamp.n1``.
    With every independent source zeroed, T = -v(inp, inn), where the
    buffer ties inp to ``in`` and inn to ``out``.
    """
    n1, inp, inn = (pattern.row_of_node(n) for n in ("Xamp.n1", "in", "out"))
    g = pattern.G.copy()
    g[n1, inp] -= GIN_GM
    g[n1, inn] += GIN_GM
    b = np.zeros(pattern.dim)
    b[n1] = -GIN_GM
    x = np.linalg.solve(g + 2j * math.pi * f_hz * pattern.C, b)
    return -(x[inp] - x[inn])


def _true_phase_margin(pattern):
    lo, hi = 1e3, 1e10
    assert abs(_return_ratio(pattern, lo)) > 1.0 > abs(_return_ratio(pattern, hi))
    for _ in range(100):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if abs(_return_ratio(pattern, mid)) > 1.0 else (lo, mid)
    return 180.0 + math.degrees(np.angle(_return_ratio(pattern, lo)))


def _true_overshoot(pattern):
    """Overshoot (%) of v(out) after a unit step on Vin, exactly.

    With M = G^-1 C = V diag(lam) V^-1, the step response is
    x(t) = V (w * (1 - exp(-t / lam))), w = V^-1 G^-1 b, where a zero lam
    (an algebraic unknown) contributes w at once.  Its poles are -1/lam.
    """
    b = np.zeros(pattern.dim)
    b[pattern.labels.index("I(Vin)")] = 1.0
    lam, vec = np.linalg.eig(np.linalg.solve(pattern.G, pattern.C))
    w = np.linalg.solve(vec, np.linalg.solve(pattern.G, b).astype(complex))
    dynamic = np.abs(lam) > 1e-9 * np.max(np.abs(lam))
    poles = -1.0 / lam[dynamic]
    assert np.all(poles.real < 0), poles
    out = pattern.row_of_node("out")
    final = float((vec[out] @ w).real)
    residues = vec[out, dynamic] * w[dynamic]
    t = np.linspace(0.0, 20.0 / np.min(-poles.real), 20001)
    y = final - (np.exp(np.outer(t, poles)) @ residues).real
    return 100.0 * (float(np.max(y)) - final) / final


@pytest.mark.parametrize("cc", ["2p", "4p", "8p"])
def test_closed_forms_match_return_ratio_on_opamp_cases(cc):
    # The audit's worst zeta on each cc x cl case, turned into a phase
    # margin and an overshoot by the second-order closed forms, against
    # the phase margin of the loop's return ratio and the overshoot of
    # the exact step response, both from the same G and C.
    grid = make_grid(1e3, 1e9)
    for cl in ("50p", "200p", "500p", "2n"):
        net = parse(circuits.hierarchical_opamp_buffer())
        net.params.update(cc=parse_value(cc), cl=parse_value(cl))
        flat = elaborate(net)
        pattern = build_pattern(flat)
        # Negative feedback: at DC, T is the open-loop gain gm*R1*g2*R2
        # times the Ro/Rload divider (gmin shifts it by ~1e-6).
        dc_gain = GIN_GM * 2e6 * 2e-3 * 50e3 * 10e3 / 10.2e3
        assert _return_ratio(pattern, 0.0) == pytest.approx(dc_gain, rel=1e-5)
        report, _ = audit(flat, grid)
        zeta = min(g.worst_zeta for g in report.groups if g.worst_zeta is not None)
        pm_err = phase_margin_from_zeta(zeta) - _true_phase_margin(pattern)
        assert abs(pm_err) <= (0.5 if zeta < 0.5 else 3.5), (cl, zeta, pm_err)
        os_err = overshoot_from_zeta(zeta) - _true_overshoot(pattern)
        assert abs(os_err) <= 1.0, (cl, zeta, os_err)
