"""Command-line behaviour: run modes, outputs, exit codes."""

import inspect
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loopscope import cli, sweep
from loopscope.cli import main
from loopscope.netlist import elaborate, parse, parse_value
from loopscope.report import render_curves_csv
from loopscope.sweep import make_grid

import circuits
from circuits import CIRCUITS_DIR, GOLDEN_DIR, src_env

README = Path(__file__).parent.parent / "README.md"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# run modes and exit codes
# ---------------------------------------------------------------------------

def test_single_node_underdamped_loop_exits_2(tmp_path, capsys):
    path = write(tmp_path, "rlc.cir", circuits.passive_rlc_loop(0.2))
    code, out, _ = run_cli(capsys, path, "--node", "n2",
                           "--fstart", "50", "--fstop", "500k", "--ppd", "200")
    assert code == 2
    assert "Loop at 5.03 kHz" in out
    assert "severity unstable-risk" in out
    assert "phase margin 22.7 deg" in out


def test_single_node_zeta_and_pm_via_json(tmp_path, capsys):
    path = write(tmp_path, "rlc.cir", circuits.passive_rlc_loop(0.2))
    json_path = tmp_path / "rep.json"
    code, _, _ = run_cli(capsys, path, "--node", "n2", "--fstart", "50",
                         "--fstop", "500k", "--ppd", "200",
                         "--json", str(json_path))
    assert code == 2
    doc = json.loads(json_path.read_text())
    (grp,) = doc["groups"]
    assert grp["worst_zeta"] == pytest.approx(0.2, rel=0.05)
    (member,) = grp["members"]
    # The closed-form phase margin at zeta 0.2 is 22.6 deg.
    assert member["phase_margin_deg"] == pytest.approx(22.6, rel=0.06)


def test_all_nodes_resistive_divider_exits_0(tmp_path, capsys):
    path = write(tmp_path, "div.cir", circuits.resistive_divider())
    code, out, _ = run_cli(capsys, path, "--all-nodes",
                           "--fstart", "1", "--fstop", "1meg", "--ppd", "20")
    assert code == 0
    assert "No oscillatory loops detected" in out


def test_missing_netlist_exits_1(capsys):
    code, _, err = run_cli(capsys, "/nonexistent/netlist.cir", "--all-nodes")
    assert code == 1
    assert "error" in err.lower()


def test_netlist_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.cir"
    path.write_bytes(b"t\nR1 a 0 1k\xff\n.end\n")
    code, out, err = run_cli(capsys, str(path), "--all-nodes")
    assert code == 1
    assert out == ""
    assert err == ("loopscope: error: cannot read netlist: 'utf-8' codec can't decode "
                   "byte 0xff in position 11: invalid start byte\n")


def test_usage_error_exits_1(tmp_path):
    path = write(tmp_path, "x.cir", circuits.resistive_divider())
    with pytest.raises(SystemExit) as exc:
        main([path])  # neither --node nor --all-nodes
    assert exc.value.code == 1


def test_every_node_singular_is_not_clean(tmp_path, capsys):
    # Two ideal sources in parallel make Y singular for every injection.
    src = "t\nV1 a 0 AC 1\nV2 a 0 AC 1\nR1 a b 1k\nC1 b 0 1n\n.end\n"
    path = write(tmp_path, "bad.cir", src)
    code, _, err = run_cli(capsys, path, "--all-nodes", "--fstart", "10",
                           "--fstop", "1k", "--ppd", "10")
    assert code == 1
    assert err.count("\n") == 1
    assert "no node analysed: all 2 swept node(s) failed to solve" in err


def test_filter_matching_no_node_is_not_clean(tmp_path, capsys):
    csv_path = tmp_path / "c.csv"
    code, out, err = run_cli(capsys, str(CIRCUITS_DIR / "rlc_loop.cir"),
                             "--all-nodes", "--filter", "zz*", "--csv", str(csv_path))
    assert code == 1
    assert err == "loopscope: error: no node analysed: no node matches --filter 'zz*'\n"
    # The requested CSV is still written: the frequency column alone.
    assert csv_path.read_text().splitlines()[0] == "freq_hz"


def test_filter_without_all_nodes_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(CIRCUITS_DIR / "rlc_loop.cir"), "--node", "n2", "--filter", "zz*"])
    assert exc.value.code == 1
    assert "--filter requires --all-nodes" in capsys.readouterr().err


def test_netlist_without_nodes_is_not_clean(tmp_path, capsys):
    path = write(tmp_path, "empty.cir", "t\nR1 0 gnd 1k\n.end\n")
    code, _, err = run_cli(capsys, path, "--all-nodes")
    assert code == 1
    assert "no node analysed: the netlist has no non-ground node" in err


@pytest.mark.parametrize("src,options,error", [
    ("R1 a 0 1e-320\nC1 a 0 1n", (),                        # 1/R overflows
     "element 'R1' makes the MNA matrices non-finite"),
    ("R1 a 0 1k\nG1 a 0 a 0 1e308\nG2 a 0 a 0 1e308", (),   # the sum overflows
     "element 'G2' makes the MNA matrices non-finite"),
    ("R1 a 0 1e-308\nC1 a 0 1n", ("--gmin", "1e308"),        # 1/R + gmin overflows
     "gmin 1e+308 makes the MNA matrices non-finite"),
    ("R1 a 0 1k\nC1 a 0 1e300", ("--fstop", "1g"),           # w*C overflows
     "w*C overflows at 3.16228e+07 Hz (omega=1.98692e+08 rad/s)"),
], ids=["R1 a 0 1e-320\nC1 a 0 1n-R1", "R1 a 0 1k\nG1 a 0 a 0 1e308\nG2 a 0 a 0 1e308-G2",
        "R1 a 0 1e-308\nC1 a 0 1n-gmin", "R1 a 0 1k\nC1 a 0 1e300-wC"])
def test_non_finite_matrices_are_not_clean(tmp_path, capsys, src, options, error):
    # The first two once printed "No oscillatory loops detected" and
    # exited 0: x came back finite while the residual was NaN.  The last
    # two once warned of numpy overflow and excluded node 'a' as
    # singular.  Each is now one error line, with no numpy warning.
    path = write(tmp_path, "huge.cir", f"t\n{src}\n.end\n")
    code, out, err = run_cli(capsys, path, "--all-nodes", "--fstart", "1k",
                             "--fstop", "1meg", "--ppd", "10", *options)
    assert code == 1
    assert out == ""
    assert err == f"loopscope: error: {error}\n"


@pytest.mark.parametrize("option,value,bound", [
    ("--floor", "nan", "> 0"), ("--floor", "-1", "> 0"), ("--floor", "inf", "> 0"),
    ("--gap", "-2", "> 0"), ("--gap", "0", "> 0"), ("--gap", "x", "> 0"),
    ("--gmin", "-1", ">= 0"), ("--gmin", "1e400", ">= 0"),
])
def test_bad_numeric_option_is_a_usage_error(capsys, option, value, bound):
    with pytest.raises(SystemExit) as exc:
        main([str(CIRCUITS_DIR / "rlc_loop.cir"), "--all-nodes", option, value])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {option}: expected a finite number {bound}, got {value!r}" in err


@pytest.mark.parametrize("option,value,error", [
    ("--fstart", "1x", "unrecognized suffix 'x' in '1x'"),
    ("--param", "foo", "expected NAME=VALUE, got 'foo'"),
    ("--param", "=3", "expected NAME=VALUE, got '=3'"),
])
def test_malformed_option_is_a_usage_error(capsys, option, value, error):
    with pytest.raises(SystemExit) as exc:
        main([str(CIRCUITS_DIR / "rlc_loop.cir"), "--all-nodes", option, value])
    assert exc.value.code == 1
    assert f"argument {option}: {error}\n" in capsys.readouterr().err


@pytest.mark.parametrize("option,value,bound", [
    *[(name, value, "> 0") for name in ("floor", "gap")
      for value in (math.nan, math.inf, 0.0, -1.0)],
    *[("gmin", value, ">= 0") for value in (math.nan, math.inf, -1.0)],
])
def test_audit_refuses_bad_numbers_before_sweeping(monkeypatch, option, value, bound):
    # A library caller gets the CLI's rule: a NaN floor would report no
    # loop at all, a zero gap or a negative gmin a different grouping.
    monkeypatch.setattr(cli, "sweep_all_nodes", lambda *args: pytest.fail("swept"))
    net = elaborate(parse((CIRCUITS_DIR / "rlc_loop.cir").read_text(encoding="utf-8")))
    with pytest.raises(ValueError, match=f"^{option} must be a finite number {bound}, got "):
        cli.audit(net, make_grid(50.0, 500e3, 100), **{option: value})


def test_cli_defaults_are_the_library_defaults():
    # The CLI restates each default, and its help text states it again.
    ap = cli.build_arg_parser()
    args = ap.parse_args([str(CIRCUITS_DIR / "rlc_loop.cir"), "--all-nodes"])
    grid_defaults = inspect.signature(make_grid).parameters
    audit_defaults = inspect.signature(cli.audit).parameters
    expected = {
        "fstart": grid_defaults["f_start"].default,
        "fstop": grid_defaults["f_stop"].default,
        "ppd": grid_defaults["points_per_decade"].default,
        "floor": audit_defaults["floor"].default,
        "gap": audit_defaults["gap"].default,
        "gmin": audit_defaults["gmin"].default,
    }
    helps = {a.dest: a.help for a in ap._actions}
    for dest, default in expected.items():
        assert getattr(args, dest) == default, dest
        (stated,) = re.findall(r"\(default ([^)]+)\)", helps[dest])
        assert parse_value(stated) == default, dest


def test_oversized_grid_is_rejected_before_sweeping(capsys):
    # 1e8 points/decade over the default 10 decades would be 1e9 points.
    code, out, err = run_cli(capsys, str(CIRCUITS_DIR / "rlc_loop.cir"),
                             "--all-nodes", "--ppd", "100000000")
    assert code == 1
    assert out == ""
    assert "exceed 1000000 points" in err


@pytest.mark.parametrize("mode,fstop", [(["--all-nodes"], "1.2k"),
                                        (["--node", "n2"], "1.3k")])
def test_two_point_grid_is_a_one_line_error(capsys, mode, fstop):
    # 10 points/decade over 1k..1.2k rounds to 2 points: too few for a curve.
    code, out, err = run_cli(capsys, str(CIRCUITS_DIR / "rlc_loop.cir"), *mode,
                             "--fstart", "1k", "--fstop", fstop, "--ppd", "10")
    assert code == 1
    assert out == ""
    assert err == "loopscope: error: frequency range too narrow for this grid density\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("source,node,expected", [
    (circuits.resistive_divider(), "nope", "nope"),
    ("t\nR1 a 0 1x\n.end\n", "a", "line 2: bad value token '1x'"),
    ("t\nV1 a 0 AC 1\nV2 a 0 AC 1\nR1 a b 1k\nC1 b 0 1n\n.end\n", "A",
     "no node analysed: all 1 swept node(s) failed to solve"),
    ("t\n.param r=1k\nR1 a 0 {r}\n.param r=2k\n.end\n", "a",
     "line 4: .param 'r' already defined on line 2"),
    ("t\n.param r=1k cl\nR1 a 0 {r}\n.end\n", "a", "line 2: bad .param assignment 'cl'"),
    ("t\nR1 a 0 {r*2}\nC1 a 0 1n\n.end\n", "a", "line 2: bad value token '{r*2}'"),
    ("t\nV1 a 0 AC 1\nR1 a 0 1k\nL1 a c 1m\nR3 c 0 10\nF1 b 0 L1 2\nR2 b 0 1k\n.end\n",
     "b", "element 'F1' needs an existing V-source as control, got 'L1'"),
], ids=["unknown-node", "malformed-netlist", "singular-node", "repeated-param",
        "stray-param", "braced-expression", "inductor-control"])
def test_unknown_node_exits_1(tmp_path, capsys, source, node, expected):
    path = write(tmp_path, "x.cir", source)
    json_path = tmp_path / "rep.json"
    code, out, err = run_cli(capsys, path, "--node", node, "--fstart", "1", "--fstop", "1k",
                             "--ppd", "10", "--json", str(json_path))
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("loopscope: error: ")
    assert expected in err
    if expected.startswith("no node analysed"):
        # A node that exists but fails to solve is reported as excluded,
        # under the netlist's spelling, as in an all-nodes audit.
        assert "- node 'a' excluded: singular MNA system at unknown 'I(V2)'" in out
        assert json.loads(json_path.read_text())["per_node_errors"].keys() == {"a"}
    else:
        assert out == ""
        assert not json_path.exists()


SINGULAR = "t\nV1 a 0 AC 1\nV2 a 0 AC 1\nR1 a b 1k\nC1 b 0 1n\n.end\n"


@pytest.mark.parametrize("netlist,node,status", [
    (CIRCUITS_DIR / "rlc_loop.cir", "n2", 2),
    (CIRCUITS_DIR / "opamp_buffer.cir", "Xamp.n1", 0),
    (None, "a", 1),
], ids=["rlc", "opamp", "singular"])
def test_node_is_all_nodes_filtered_to_that_node(tmp_path, capsys, netlist, node, status):
    path = str(netlist) if netlist else write(tmp_path, "sing.cir", SINGULAR)
    runs = []
    for mode in (["--node", node], ["--all-nodes", "--filter", node]):
        json_path = tmp_path / "rep.json"
        code, out, err = run_cli(capsys, path, *mode, "--fstart", "1k", "--fstop", "1g",
                                 "--json", str(json_path))
        runs.append((code, out, err, json_path.read_bytes()))
        json_path.unlink()
    assert runs[0] == runs[1]
    assert runs[0][0] == status


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------

def test_param_override_matches_edited_file(tmp_path, capsys):
    with_param = """loop with parameterized damping
.param rval=12.649
L1 0 n1 1m
R1 n1 n2 {rval}
C1 n2 0 1u
.end
"""
    edited = with_param.replace("{rval}", "31.623").replace(".param rval=12.649\n", "")
    p1 = write(tmp_path, "a.cir", with_param)
    p2 = write(tmp_path, "b.cir", edited)
    args = ["--node", "n2", "--fstart", "50", "--fstop", "500k", "--ppd", "100"]
    _, out_override, _ = run_cli(capsys, p1, "--param", "rval=31.623", *args)
    _, out_edited, _ = run_cli(capsys, p2, *args)
    # identical apart from the title line
    assert out_override.splitlines()[1:] == out_edited.splitlines()[1:]


def test_misspelt_param_is_rejected_without_a_report(tmp_path, capsys):
    json_path = tmp_path / "rep.json"
    code, out, err = run_cli(capsys, str(CIRCUITS_DIR / "opamp_buffer.cir"),
                             "--all-nodes", "--fstart", "1k", "--fstop", "1g",
                             "--param", "cload=2n", "--json", str(json_path))
    assert code == 1
    assert out == ""
    assert not json_path.exists()
    assert err.count("\n") == 1 and "'cload'" in err


def test_param_referenced_but_not_declared_is_accepted(tmp_path, capsys):
    path = write(tmp_path, "rc.cir", "t\nR1 a 0 1k\nC1 a 0 {cx}\n.end\n")
    args = ["--node", "a", "--fstart", "1", "--fstop", "1meg", "--ppd", "10"]
    code, out, _ = run_cli(capsys, path, "--param", "cx=1u", *args)
    assert code == 0
    assert "Loop at 159 Hz" in out  # the RC corner 1/(2*pi*1k*1u)
    assert run_cli(capsys, path, *args)[0] == 1  # cx is undefined without it
    # A name referenced only inside a subcircuit definition is one too.
    path = write(tmp_path, "sub.cir",
                 "t\nX1 a rc\n.subckt rc p\nR1 p 0 1k\nC1 p 0 {cx}\n.ends\n.end\n")
    code, out, _ = run_cli(capsys, path, "--param", "cx=1u", *args)
    assert code == 0
    assert "Loop at 159 Hz" in out
    assert run_cli(capsys, path, *args)[0] == 1


def test_floor_takes_spice_suffixes(capsys):
    args = [str(CIRCUITS_DIR / "rlc_loop.cir"), "--all-nodes", "--fstart", "50",
            "--fstop", "500k"]
    outputs = [run_cli(capsys, *args, "--floor", floor) for floor in ("100m", "0.1")]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 2


def test_gmin_decides_which_nodes_solve(tmp_path, capsys):
    # b and c form an island with no path to ground; only gmin ties it down.
    path = write(tmp_path, "island.cir", "t\nR1 a 0 1k\nR2 b c 1k\n.end\n")
    args = ["--all-nodes", "--fstart", "10", "--fstop", "1k", "--ppd", "10"]
    code, out, err = run_cli(capsys, path, *args, "--gmin", "0")
    assert code == 1
    assert "no node analysed: all 3 swept node(s) failed to solve" in err
    assert out.count("unknown 'c'") == 3
    code, out, _ = run_cli(capsys, path, *args)
    assert code == 0
    assert "excluded" not in out


def test_text_output_byte_stable(tmp_path, capsys):
    path = write(tmp_path, "rlc.cir", circuits.sensed_rlc_loop(0.4))
    args = [path, "--all-nodes", "--fstart", "50", "--fstop", "500k", "--ppd", "50"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert "generated" not in out1


def test_crowded_ladder_all_nodes_report_is_byte_stable(tmp_path, capsys):
    # ladder(10): 21 nodes and 9 pole pairs between 1.8 and 10 MHz.
    path = write(tmp_path, "ladder10.cir", circuits.ladder(10))
    code, out, err = run_cli(capsys, path, "--all-nodes", "--fstart", "1k", "--fstop", "1g")
    assert code == 2
    assert err == ""
    assert out == (GOLDEN_DIR / "ladder10_all_nodes.txt").read_text(encoding="utf-8")


def test_source_ac_phase_does_not_change_the_report(tmp_path, capsys):
    plain = circuits.hierarchical_opamp_buffer()
    assert "\nVin in 0 AC 1\n" in plain
    outputs = []
    for name, text in (("plain.cir", plain),
                       ("phase.cir", plain.replace("\nVin in 0 AC 1\n", "\nVin in 0 AC 1 0\n"))):
        code, out, _ = run_cli(capsys, write(tmp_path, name, text), "--all-nodes",
                               "--fstart", "1k", "--fstop", "1g")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("netlist,node,spelling", [("rlc_loop.cir", "n2", "N2"),
                                                    ("opamp_buffer.cir", "Xamp.n2", "xamp.n2")])
def test_node_option_reports_the_netlist_spelling(tmp_path, capsys, netlist, node, spelling):
    outputs = []
    for name in (node, spelling):
        json_path = tmp_path / f"{name}.json"
        _, out, _ = run_cli(capsys, str(CIRCUITS_DIR / netlist), "--node", name,
                            "--fstart", "1k", "--fstop", "1g", "--json", str(json_path))
        outputs.append((out, json_path.read_text()))
    assert outputs[0] == outputs[1]
    assert f"\n{node} " in outputs[0][0]


def test_stamp_flag_adds_timestamp(tmp_path, capsys):
    path = write(tmp_path, "div.cir", circuits.resistive_divider())
    _, out, _ = run_cli(capsys, path, "--all-nodes", "--fstart", "1",
                        "--fstop", "1k", "--ppd", "10", "--stamp")
    assert out.startswith("generated ")


def test_csv_and_json_outputs(tmp_path, capsys):
    path = write(tmp_path, "rlc.cir", circuits.passive_rlc_loop(0.3))
    csv_path = tmp_path / "curves.csv"
    json_path = tmp_path / "report.json"
    out_path = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, path, "--all-nodes",
                           "--fstart", "50", "--fstop", "500k", "--ppd", "50",
                           "--csv", str(csv_path), "--json", str(json_path),
                           "--out", str(out_path))
    assert out == ""  # text went to the file
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("freq_hz,")
    assert "mag_n1" in header and "p_n2" in header
    doc = json.loads(json_path.read_text())
    assert doc["schema"] == "loopscope-report-1"
    assert "Loop at" in out_path.read_text()


def test_library_csv_is_the_cli_csv(tmp_path, capsys):
    # The library's curves block renders to the very bytes the CLI's
    # --csv writes, including the op-amp input, which Vin pins: its
    # response is clamped at every point.
    netlist = CIRCUITS_DIR / "opamp_buffer.cir"
    csv_path = tmp_path / "cli.csv"
    code, _, _ = run_cli(capsys, str(netlist), "--all-nodes", "--fstart", "1k",
                         "--fstop", "1g", "--csv", str(csv_path))
    assert code == 0
    net = elaborate(parse(netlist.read_text(encoding="utf-8")))
    _, curves = cli.audit(net, make_grid(1e3, 1e9, 100))
    assert curves.nodes == net.nodes
    assert curves.clamped[curves.nodes.index("in")].all()
    assert render_curves_csv(curves).encode("utf-8") == csv_path.read_bytes()


def test_filter_limits_nodes(tmp_path, capsys):
    path = write(tmp_path, "blocks.cir", circuits.two_block())
    json_path = tmp_path / "rep.json"
    code, _, _ = run_cli(capsys, path, "--all-nodes", "--filter", "X1.*",
                         "--fstart", "10k", "--fstop", "10meg", "--ppd", "60",
                         "--json", str(json_path))
    doc = json.loads(json_path.read_text())
    nodes = {m["node"] for g in doc["groups"] for m in g["members"]}
    assert nodes and all(n.startswith("X1.") for n in nodes)


def test_spice_suffixes_accepted_on_frequency_flags(tmp_path, capsys):
    path = write(tmp_path, "div.cir", circuits.resistive_divider())
    code, out, _ = run_cli(capsys, path, "--all-nodes",
                           "--fstart", "50", "--fstop", "500k", "--ppd", "10")
    assert code == 0
    assert "sweep 50 Hz .. 500000 Hz" in out


def test_floating_node_warning_reaches_report(tmp_path, capsys):
    src = "t\nI1 0 a AC 1\nR1 b 0 1k\n.end\n"
    path = write(tmp_path, "f.cir", src)
    code, out, _ = run_cli(capsys, path, "--all-nodes", "--fstart", "1",
                           "--fstop", "1k", "--ppd", "10")
    assert code == 0
    assert "no conductive path" in out


def test_all_nodes_with_solver_failures_still_reports(tmp_path, capsys):
    src = "t\nV1 a 0 AC 0\nV2 a 0 AC 0\nR1 a 0 1k\n.end\n"
    path = write(tmp_path, "bad.cir", src)
    args = ["--all-nodes", "--fstart", "10", "--fstop", "1k", "--ppd", "10"]
    code, out, err = run_cli(capsys, path, *args)
    assert code == 1  # no node was analysed, so the audit is not clean
    assert "excluded" in out and "singular" in out.lower()
    assert "no node analysed" in err
    # Asking for every output changes neither the report nor the verdict;
    # with no curve the CSV holds the frequency column alone.
    code, csv_out, csv_err = run_cli(capsys, path, *args, "--csv", str(tmp_path / "c.csv"),
                                     "--out", str(tmp_path / "r.txt"),
                                     "--json", str(tmp_path / "r.json"))
    assert code == 1
    assert csv_out == ""
    assert csv_err == err
    assert (tmp_path / "r.txt").read_text() == out
    assert json.loads((tmp_path / "r.json").read_text())["per_node_errors"].keys() == {"a"}
    assert (tmp_path / "c.csv").read_text().splitlines()[:2] == ["freq_hz", "12.589254117941675"]


@pytest.mark.parametrize("gmin", ["0", "1e-320"])
def test_singular_frequency_is_named_from_one_qr(tmp_path, capsys, monkeypatch, gmin):
    # The isolated node f makes Y singular, with an exactly zero pivot at
    # gmin 0 and a subnormal one at 1e-320.  Every node is refused in the
    # first block, the three refusals are named from one QR, and the sweep
    # stops there.  How many LUs a block takes is test_mna's to count.
    calls = {"solve_block": 0, "qr": 0}
    for owner, name in ((sweep, "solve_block"), (np.linalg, "qr")):
        def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    path = write(tmp_path, "f.cir",
                 "t\nR1 a 0 1k\nC1 a 0 1n\nL1 a b 1u\nR2 b 0 10\nI1 f 0 AC 1\n.end\n")
    code, out, err = run_cli(capsys, path, "--all-nodes", "--fstart", "1meg",
                             "--fstop", "100meg", "--gmin", gmin)
    assert code == 1
    assert calls == {"solve_block": 1, "qr": 1}
    assert [line for line in out.splitlines() if "excluded" in line] == [
        f"- node {node!r} excluded: singular MNA system at unknown 'f' "
        "(omega=6.28319e+06 rad/s)" for node in "abf"]
    assert err == "loopscope: error: no node analysed: all 3 swept node(s) failed to solve\n"


@pytest.mark.parametrize("gmin,excluded", [("1e-320", ["n5"]), ("1e-12", [])])
def test_sense_only_node_is_excluded_alone(tmp_path, capsys, gmin, excluded):
    # At gmin 1e-320 only the sense-only node n5 fails to solve; the
    # others are still audited, and the circuit's loops set the exit code.
    # G5 senses its own output pair, a conductance from n1 to ground, so
    # n5 is the one node without a conductive path at either gmin.
    path = write(tmp_path, "sense.cir", circuits.sense_only_node())
    code, out, err = run_cli(capsys, path, "--all-nodes", "--gmin", gmin)
    assert code == 2
    assert err == ""
    assert [line for line in out.splitlines() if "conductive path" in line] == [
        "- node 'n5' has no conductive path to ground"]
    assert [line for line in out.splitlines() if "excluded" in line] == [
        f"- node {node!r} excluded: singular MNA system at unknown {node!r} "
        "(omega=6.28319 rad/s)" for node in excluded]


def test_opamp_macromodel_gates_on_load(tmp_path, capsys):
    # Healthy compensation passes; a heavy capacitive load drops the main
    # loop below the risk threshold and trips the gating exit code.
    path = write(tmp_path, "amp.cir", circuits.hierarchical_opamp_buffer())
    args = ["--all-nodes", "--fstart", "1k", "--fstop", "1g", "--ppd", "100"]
    code_ok, out_ok, _ = run_cli(capsys, path, *args)
    assert code_ok == 0
    assert "severity acceptable" in out_ok
    code_bad, out_bad, _ = run_cli(capsys, path, *args, "--param", "cl=2n")
    assert code_bad == 2
    assert "severity unstable-risk" in out_bad


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: |Z| alone cannot tell a right-half-plane "
                   "pole pair from its mirror; the tank's exact zeta is -0.601")
def test_unstable_tank_is_not_clean(tmp_path, capsys):
    path = write(tmp_path, "tank.cir",
                 "tank\nL1 a 0 1m\nC1 a 0 1u\nR1 a 0 100\nG1 a 0 0 a 48m\n.end\n")
    code, _, _ = run_cli(capsys, path, "--all-nodes", "--fstart", "50", "--fstop", "500k")
    assert code != 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18 step 2: the loop's real zero reads "
                   "exact zeta 0.296 as 0.302, over the 0.3 risk threshold")
def test_loop_just_below_the_risk_threshold_is_not_clean(tmp_path, capsys):
    path = write(tmp_path, "rlc.cir", circuits.passive_rlc_loop(0.296))
    code, _, _ = run_cli(capsys, path, "--all-nodes")
    assert code != 0


def test_readme_examples_match_the_cli(capsys):
    # The README's example report and its --param cl=2n claim are the
    # shipped op-amp's real output, so neither can drift from the code.
    readme = README.read_text(encoding="utf-8")
    audit = "loopscope circuits/opamp_buffer.cir --all-nodes --fstart 1k --fstop 1g"
    assert f"\n{audit}\n" in readme
    args = [str(CIRCUITS_DIR / "opamp_buffer.cir"), *shlex.split(audit)[2:]]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    (block,) = re.findall(r"Example report:\n\n```\n(.*?)```", readme, re.S)
    assert block in out

    claim = re.search(rf"\n{re.escape(audit)} --param cl=2n\n# -> (Loop at .+?) \.\.\. "
                      r"worst zeta ([\d.]+) \.\.\. severity ([\w-]+); exit code (\d)\n",
                      readme)
    assert claim, "README lacks the --param cl=2n example"
    loop, zeta, severity, status = claim.groups()
    code, out, _ = run_cli(capsys, *args, "--param", "cl=2n")
    assert code == int(status) == 2
    first = out.split("\n\n")[1].splitlines()
    assert first[0] == loop
    assert first[-1].startswith(f"  worst zeta {zeta} ")
    assert first[-1].endswith(f"severity {severity}")


def test_installed_entry_point_smoke(tmp_path):
    path = write(tmp_path, "div.cir", circuits.resistive_divider())
    proc = subprocess.run(
        [sys.executable, "-m", "loopscope.cli", path, "--all-nodes",
         "--fstart", "1", "--fstop", "1k", "--ppd", "10"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0
    assert "No oscillatory loops detected" in proc.stdout


def test_audit_never_imports_scipy():
    # numpy is the only runtime numeric dependency; scipy is a test extra.
    code = ("import sys\n"
            "from loopscope.cli import main\n"
            f"status = main([{str(CIRCUITS_DIR / 'rlc_loop.cir')!r}, '--all-nodes'])\n"
            "assert status == 2, status\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
