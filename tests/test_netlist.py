"""Parser and elaboration tests."""

import re

import pytest

import circuits
from circuits import CIRCUITS_DIR
from hypothesis import given, strategies as st

from loopscope.netlist import (
    Element,
    ElementKind,
    NetlistError,
    elaborate,
    parse,
    parse_value,
)


def element(net, name):
    (elem,) = [e for e in net.elements if e.name.lower() == name.lower()]
    return elem


# ---------------------------------------------------------------------------
# parse_value
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("token,expected", [
    ("1k", 1000.0),
    ("2.2u", 2.2e-6),
    ("3meg", 3.0e6),
    ("3MEG", 3.0e6),
    ("1m", 1e-3),
    ("47", 47.0),
    ("1e-3", 1e-3),
    ("2.5E6", 2.5e6),
    ("4.7kOhm", 4700.0),
    ("2.2uF", 2.2e-6),
    ("100pF", 100e-12),
    ("1f", 1e-15),
    ("0.5t", 0.5e12),
    ("-3n", -3e-9),
    ("+.5g", 0.5e9),
])
def test_parse_value(token, expected):
    assert parse_value(token) == pytest.approx(expected, rel=1e-15)


REJECTED_VALUES = {
    "5x": "unrecognized suffix 'x' in '5x'",
    "x5": "not a number: 'x5'",
    "": "not a number: ''",
    "meg": "not a number: 'meg'",
    "1k9": "trailing garbage '9' in '1k9'",
    "1..2": "unrecognized suffix '.2' in '1..2'",
    "1e": "unrecognized suffix 'e' in '1e'",
    "--1": "not a number: '--1'",
    "1e999": "not a finite number: '1e999'",
    "1e305meg": "not a finite number: '1e305meg'",
}


@pytest.mark.parametrize("token", list(REJECTED_VALUES))
def test_parse_value_rejects(token):
    with pytest.raises(NetlistError, match=f"^{re.escape(REJECTED_VALUES[token])}$"):
        parse_value(token)


@given(mantissa=st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
       suffix=st.sampled_from(["t", "g", "meg", "k", "m", "u", "n", "p", "f", ""]))
def test_parse_value_matches_plain_multiplication(mantissa, suffix):
    mult = {"t": 1e12, "g": 1e9, "meg": 1e6, "k": 1e3, "m": 1e-3,
            "u": 1e-6, "n": 1e-9, "p": 1e-12, "f": 1e-15, "": 1.0}[suffix]
    assert parse_value(repr(mantissa) + suffix) == mantissa * mult


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def test_parse_resistor():
    net = parse("t\nR1 in out 1k\n.end\n")
    assert net.title == "t"
    (r,) = net.elements
    assert r.kind is ElementKind.RESISTOR
    assert r.nodes == ["in", "out"]
    assert r.value == 1000.0


def test_parse_vsource_ac():
    net = parse("t\nV1 in 0 AC 1\n.end\n")
    (v,) = net.elements
    assert v.kind is ElementKind.VSOURCE
    assert v.value == 0.0


def test_parse_vsource_dc_and_ac():
    net = parse("t\nV1 in 0 2.5 AC 0.5\n.end\n")
    (v,) = net.elements
    assert v.value == 2.5


@pytest.mark.parametrize("card,kind,dc", [
    ("V1 a 0 DC 0 AC 1 0", ElementKind.VSOURCE, 0.0),
    ("V1 a 0 AC 1 90", ElementKind.VSOURCE, 0.0),
    ("I1 a 0 AC 2 90", ElementKind.ISOURCE, 0.0),
    ("V1 a 0 AC 1 -45 DC 3", ElementKind.VSOURCE, 3.0),
], ids=["V-dc-ac-phase", "V-ac-phase", "I-ac-phase", "V-ac-phase-then-dc"])
def test_parse_source_ac_phase_is_ignored(card, kind, dc):
    # The AC clause is validated, then dropped: the element keeps no trace of it.
    src = parse(f"t\n{card}\nR1 a 0 1\n.end\n").elements[0]
    assert src == Element(card.split()[0], kind, ["a", "0"], dc)


def test_parse_source_non_numeric_after_ac_magnitude_rejected():
    with pytest.raises(NetlistError, match="line 2: unexpected token 'deg'"):
        parse("t\nV1 a 0 AC 1 deg\n.end\n")


def test_parse_ac_keyword_without_magnitude_loads():
    net = parse("t\nI1 a 0 AC\n.end\n")
    assert net.elements == [Element("I1", ElementKind.ISOURCE, ["a", "0"], 0.0)]


def test_parse_negative_ac_magnitude_rejected():
    with pytest.raises(NetlistError, match="^line 2: AC magnitude must be >= 0$"):
        parse("t\nV1 a 0 AC -1\n.end\n")


@pytest.mark.parametrize("card,clause", [
    ("V1 a 0 DC 1 DC 2", "DC value"),
    ("I1 a 0 DC 1 AC 1 DC 3", "DC value"),
    ("V1 a 0 1 DC 2", "DC value"),
    ("V1 a 0 AC -1 AC 2", "AC clause"),
    ("V1 a 0 AC -1 AC", "AC clause"),
    ("I1 a 0 AC 1 90 DC 0 AC 1", "AC clause"),
], ids=["V-dc-dc", "I-dc-ac-dc", "V-positional-dc", "V-ac-ac", "V-ac-bare-ac",
        "I-ac-phase-dc-ac"])
def test_parse_source_repeated_value_clause_rejected(card, clause):
    # A second clause would silently replace the first one.
    with pytest.raises(NetlistError, match=f"^line 3: source card gives its {clause} twice$"):
        parse(f"t\nR0 a 0 1k\n{card}\n.end\n")


def test_parse_vccs_arity():
    net = parse("t\nG1 out 0 in 0 1m\n.end\n")
    (g,) = net.elements
    assert g.kind is ElementKind.VCCS
    assert g.nodes == ["out", "0", "in", "0"]
    assert g.value == pytest.approx(1e-3)


def test_parse_cccs_control_reference():
    net = parse("t\nV1 a 0 AC 0\nF1 b 0 V1 2.0\nR1 b 0 1\nR2 a 0 1\n.end\n")
    f = element(net, "F1")
    assert f.kind is ElementKind.CCCS
    assert f.control_element == "V1"
    assert f.value == 2.0


def test_parse_comments_and_continuation():
    net = parse("t\n* a comment\nR1 a 0\n+ 2k\nR2 a 0 1k\n.end\n")
    assert element(net, "R1").value == 2000.0
    assert len(net.elements) == 2


def test_parse_gnd_alias():
    net = parse("t\nR1 a GND 1k\n.end\n")
    assert element(net, "R1").nodes == ["a", "0"]


def test_parse_duplicate_element():
    with pytest.raises(NetlistError, match="^line 3: element 'r1' already defined on line 2$"):
        parse("t\nR1 a 0 1k\nr1 b 0 2k\n.end\n")
    # Element names are unique per scope: the top level and each .subckt body.
    net = parse("t\nR1 a 0 1k\nX1 a s\n.subckt s p\nR1 p 0 2k\n.ends\n.end\n")
    assert [e.name for e in net.elements] == ["R1"]
    assert [e.name for e in net.subcircuits["s"].elements] == ["R1"]
    net = parse("t\nX1 a s\nX2 a u\n.subckt s p\nX3 p w\nR1 p 0 1k\n.ends\n"
                ".subckt u q\nx3 q w\nR1 q 0 2k\n.ends\n.end\n")
    assert [[(e.name, e.value) for e in net.subcircuits[k].elements] for k in "su"] == [
        [("R1", 1e3)], [("R1", 2e3)]]
    assert [net.subcircuits[k].instances[0].name for k in "su"] == ["X3", "x3"]
    with pytest.raises(NetlistError, match="^line 7: element 'r1' already defined on line 2$"):
        parse("t\nR1 a 0 1k\nX1 a s\n.subckt s p\nR1 p 0 2k\n.ends\nr1 b 0 3k\n.end\n")
    with pytest.raises(NetlistError, match="^line 6: element 'x2' already defined on line 4$"):
        parse("t\nX1 a s\n.subckt s p\nX2 p u\nR1 p 0 1k\nx2 p u\n.ends\n.end\n")
    with pytest.raises(NetlistError, match="^line 5: element 'R1' already defined on line 4$"):
        parse("t\nX1 a s\n.subckt s p\nR1 p 0 1k\nR1 p 0 2k\n.ends\n.end\n")


def test_parameter_names_lists_declared_and_referenced_names():
    src = ("t\n.param only=1 chain=Inner\nR1 a 0 rtop\nC1 a 0 {CapX}\nX1 a s\n"
           ".subckt s p\nR2 p 0 subonly\n.ends\n.end\n")
    assert parse(src).parameter_names == {"only", "chain", "inner", "rtop", "capx",
                                          "subonly"}


def test_parse_duplicate_subcircuit_names_first_definition():
    src = ("t\nX1 a s\n.subckt s p\nR1 p 0 1k\n.ends\n"
           ".subckt S p\nR1 p 0 2k\n.ends\n.end\n")
    with pytest.raises(NetlistError, match=r"^line 6: \.subckt 'S' already defined on line 3$"):
        parse(src)


def test_parse_unknown_prefix():
    with pytest.raises(NetlistError, match="^line 2: unknown element prefix 'Q' in 'Q1'$"):
        parse("t\nQ1 a b 1k\n.end\n")


def test_parse_syntax_error_carries_line_number():
    with pytest.raises(NetlistError, match="^line 3: element needs two nodes$"):
        parse("t\nR1 a 0 1k\nR2 a\n.end\n")


@pytest.mark.parametrize("card,token", [
    ("R1 a 0 1..2", "1..2"),
    ("V1 a 0 DC 1k9", "1k9"),
    ("V1 a 0 AC foo", "foo"),
    ("I1 a 0 AC 1x 90", "1x"),
    ("R1 a 0 {r*2}", "{r*2}"),
    ("R1 a 0 {a+b}", "{a+b}"),
    (".param x={a+b}", "{a+b}"),
    ("R1 a 0 {1k}", "{1k}"),
], ids=["R-value", "V-dc", "V-ac", "I-ac", "braced-product", "braced-sum",
        "param-braced-sum", "braced-number"])
def test_parse_bad_value_token_carries_line_number(card, token):
    # Braces hold one parameter name; an expression is not one.
    with pytest.raises(NetlistError, match=re.escape(f"line 3: bad value token '{token}'")):
        parse(f"t\nR0 a 0 1k\n{card}\n.end\n")


@pytest.mark.parametrize("source,message", [
    ("", "empty netlist source"),
    ("t\n+ R1 a 0 1k", "line 2: continuation with nothing to continue"),
    ("t\n.param", "line 2: empty .param directive"),
    ("t\n.subckt a p\n.subckt b q\n.ends\n.ends",
     "line 3: nested .subckt definitions are not supported"),
    ("t\n.subckt a", "line 2: .subckt needs a name and at least one pin"),
    ("t\n.ends", "line 2: .ends without .subckt"),
    ("t\nX1 s", "line 2: instance needs nodes and a subcircuit name"),
    ("t\n.subckt a p\nR1 p 0 1k", ".subckt 'a' is missing its .ends"),
    ("t\nE1 a 0 b 1", "line 2: E-element needs 4 nodes and a gain"),
    ("t\nF1 a 0 1", "line 2: F-element needs 2 nodes, a controlling V source and a gain"),
    ("t\nV1 a 0 DC", "line 2: DC keyword needs a value"),
    ("t\nR1 a 0 1k 2k", "line 2: R-element needs exactly one value"),
    ("t\n.subckt s p\nR1 p 0 1k\n.ends\nX1 a b s",
     "line 5: instance 'X1' has 2 nodes, subcircuit 's' has 1 pins"),
], ids=["empty", "orphan-continuation", "empty-param", "nested-subckt", "subckt-no-pins",
        "orphan-ends", "instance-no-subckt", "unclosed-subckt", "vcvs-arity",
        "cccs-arity", "dc-without-value", "two-values", "instance-pin-count"])
def test_refused_netlist_names_the_fault(source, message):
    with pytest.raises(NetlistError) as err:
        elaborate(parse(source))
    assert str(err.value) == message


def test_parse_unknown_directive_warns():
    net = parse("t\n.options reltol=1e-4\nR1 a 0 1k\n.end\n")
    assert any(".options" in w for w in net.warnings)
    assert len(net.elements) == 1


def test_parse_stops_at_end_card():
    net = parse("t\nR1 a 0 1k\n.end\nR2 b 0 1k\n")
    assert len(net.elements) == 1


def test_parse_negative_rcl_value_rejected():
    with pytest.raises(NetlistError, match="^line 2: R-element value must be strictly positive$"):
        parse("t\nR1 a 0 -1k\n.end\n")


def test_parse_param_directive():
    net = parse("t\n.param cc=30p rr=1k\nC1 x y {cc}\nR1 x 0 rr\n.end\n")
    assert net.params == {"cc": 30e-12, "rr": 1000.0}
    assert element(net, "C1").value == "cc"
    assert element(net, "R1").value == "rr"


@pytest.mark.parametrize("card,token", [
    (".param r=1k cl", "cl"),
    (".param cl r=1k", "cl"),
    (".param r=1k cl= ", "cl="),
])
def test_parse_param_leftover_token_rejected(card, token):
    with pytest.raises(NetlistError, match=f"^line 2: bad .param assignment '{token}'$"):
        parse(f"t\n{card}\nR1 a 0 {{r}}\n.end\n")


@pytest.mark.parametrize("body,message", [
    (".param a=1k\nR1 x 0 {a}\n.param a=2k",
     "line 4: .param 'a' already defined on line 2"),
    (".param a=1k a=2k\nR1 x 0 {a}",
     "line 2: .param 'a' already defined on line 2"),
    (".param R=1k\n.param rr=1 r=2k\nR1 x 0 {r}",
     "line 3: .param 'r' already defined on line 2"),
    ("X1 x blk1\nX2 x blk2\n.subckt blk1 p\n.param r=1k\nR1 p 0 {r}\n.ends\n"
     ".subckt blk2 p\n.param r=5k\nR1 p 0 {r}\n.ends",
     "line 9: .param 'r' already defined on line 5"),
    (".param r=1k\nX1 x blk\n.subckt blk p\n.param R=5k\nR1 p 0 {r}\n.ends",
     "line 5: .param 'R' already defined on line 2"),
], ids=["top-level", "same-line", "case-insensitive", "two-subckts", "subckt-and-top"])
def test_parse_repeated_param_rejected(body, message):
    # Parameter names are global, so a second assignment would silently
    # replace the first everywhere it is used.
    with pytest.raises(NetlistError, match=f"^{re.escape(message)}$"):
        parse(f"t\n{body}\n.end\n")


@pytest.mark.parametrize("pins,message", [
    ("a a", "repeats pin 'a'"),
    ("a A", "repeats pin 'A'"),
    ("0 a", "pin '0' is ground"),
    ("a gnd", "pin 'gnd' is ground"),
    ("GND a", "pin 'GND' is ground"),
])
def test_parse_subckt_pins_are_distinct_non_ground_names(pins, message):
    src = f"t\nX1 n1 n2 s\nR0 n1 0 1k\n.subckt s {pins}\nR1 a 0 1k\n.ends\n.end\n"
    with pytest.raises(NetlistError, match=f"^line 4: .subckt 's' {message}$"):
        parse(src)


def test_parse_nodes_exclude_ground_and_keep_first_spelling():
    net = parse("t\nR1 a b 1k\nR2 A 0 1k\nR3 b gnd 1k\n.end\n")
    assert net.nodes == ["a", "b"]  # ground is never listed; "A" is "a"


# ---------------------------------------------------------------------------
# elaborate
# ---------------------------------------------------------------------------

SUB = """top
X1 a b opamp
R1 a 0 1k
.subckt opamp p n
R2 p net5 2k
C1 net5 n 1u
.ends
.end
"""


def test_elaborate_expands_subcircuit_with_dot_names():
    net = elaborate(parse(SUB))
    names = [e.name for e in net.elements]
    assert names == ["R1", "X1.R2", "X1.C1"]
    r2 = element(net, "X1.R2")
    assert r2.nodes == ["a", "X1.net5"]
    assert "X1.net5" in net.nodes


def test_elaborate_param_substitution():
    net = elaborate(parse("t\n.param cc=30p\nC1 x y {cc}\nR1 x 0 1k\nR2 y 0 1k\n.end\n"))
    assert element(net, "C1").value == 3e-11


def test_elaborate_param_chain():
    net = elaborate(parse("t\n.param a=2k b={a}\nR1 x 0 {b}\n.end\n"))
    assert element(net, "R1").value == 2000.0


def test_elaborate_unresolved_param():
    with pytest.raises(NetlistError, match="^element 'R1' references undefined parameter 'nope'$"):
        elaborate(parse("t\nR1 a 0 {nope}\n.end\n"))


def test_elaborate_unresolved_param_names_the_flattened_element():
    src = "t\nX1 a blk\nR1 a 0 1k\n.subckt blk p\nR1 p 0 {nope}\n.ends\n.end\n"
    with pytest.raises(NetlistError,
                       match=r"^element 'X1\.R1' references undefined parameter 'nope'$"):
        elaborate(parse(src))


def test_elaborate_cyclic_params():
    with pytest.raises(NetlistError, match=r"^cannot resolve parameter\(s\): a, b$"):
        elaborate(parse("t\n.param a={b} b={a}\nR1 x 0 {a}\n.end\n"))


def test_elaborate_unknown_subcircuit():
    with pytest.raises(NetlistError,
                       match="^instance 'X1' references undefined subcircuit 'nothere'$"):
        elaborate(parse("t\nX1 a b nothere\nR1 a 0 1\n.end\n"))


def test_elaborate_recursive_subcircuit():
    src = "t\nX1 a self\n.subckt self p\nX2 p self\nR1 p 0 1\n.ends\n.end\n"
    with pytest.raises(NetlistError,
                       match=r"^subcircuit 'self' instantiates itself \(via 'X1\.X2'\)$"):
        elaborate(parse(src))


def test_elaborate_nested_instances():
    src = """t
X1 a outer
.subckt outer p
X2 p inner
R1 p 0 1k
.ends
.subckt inner q
C1 q 0 1u
.ends
.end
"""
    net = elaborate(parse(src))
    assert {e.name for e in net.elements} == {"X1.R1", "X1.X2.C1"}
    assert element(net, "X1.X2.C1").nodes == ["a", "0"]


def test_elaborate_prefixes_control_references():
    src = """t
X1 a b blk
R0 a 0 1k
R9 b 0 1k
.subckt blk p q
V1 p m AC 0
R1 m q 1k
F1 q 0 V1 2
.ends
.end
"""
    net = elaborate(parse(src))
    assert element(net, "X1.F1").control_element == "X1.V1"


def test_elaborate_floating_node_warning_for_isource_only_node():
    net = elaborate(parse("t\nI1 0 a 1\nR1 b 0 1k\n.end\n"))
    assert any("'a'" in w and "no conductive path" in w for w in net.warnings)
    assert not any("'b'" in w for w in net.warnings)


def test_elaborate_positive_value_check_through_params():
    with pytest.raises(NetlistError, match="^element 'R1' value must be strictly positive$"):
        elaborate(parse("t\n.param bad=0\nR1 a 0 {bad}\n.end\n"))


def test_elaborate_rejects_flattened_name_collision():
    # A literal dotted top-level name can shadow an expanded one.
    src = """t
X1 a b blk
R0 a 0 1k
X1.R1 b 0 1k
.subckt blk p q
R1 p q 2k
.ends
.end
"""
    with pytest.raises(NetlistError,
                       match=r"^flattened element name 'X1\.R1' collides with an existing "
                             "element$"):
        elaborate(parse(src))


def test_elaborate_idempotent():
    flat = elaborate(parse(SUB))
    again = elaborate(flat)
    assert again.elements == flat.elements
    assert again.nodes == flat.nodes


def test_flattened_element_names_reparse_to_same_kind():
    # A dotted name takes its kind from its last segment, as elaborated
    # names like X1.C1 must when a flattened netlist is read back.
    back = parse("t\nX1.C1 a 0 1n\nX1.R2 a b 2k\nXa.Xb.L1 b 0 1u\n.end\n")
    assert element(back, "X1.C1").kind is ElementKind.CAPACITOR
    assert element(back, "X1.R2").kind is ElementKind.RESISTOR
    assert element(back, "Xa.Xb.L1").kind is ElementKind.INDUCTOR
    assert not back.instances


# ---------------------------------------------------------------------------
# elaborate: which error comes first
# ---------------------------------------------------------------------------

def test_elaborate_resolves_parameters_before_walking():
    # Every scope below is broken too, but the cyclic pair is reported.
    src = """t
.param a={b} b={a}
X1 n nothere
R1 n 0 {nope}
.end
"""
    with pytest.raises(NetlistError, match=r"^cannot resolve parameter\(s\): a, b$"):
        elaborate(parse(src))


def test_elaborate_walks_elements_before_instances_whatever_the_card_order():
    # The instance has the wrong pin count and comes first, yet the
    # element's undefined parameter is reported.
    src = """t
X1 a b blk
R1 a 0 {nope}
.subckt blk p
R2 p 0 1k
.ends
.end
"""
    with pytest.raises(NetlistError, match="^element 'R1' references undefined parameter 'nope'$"):
        elaborate(parse(src))


def test_elaborate_reports_name_collisions_after_the_whole_walk():
    # X1 expands to a name that collides with X1.R1, but the later X2's
    # undefined subcircuit is reported first.
    src = """t
X1.R1 a 0 1k
X1 a blk
X2 a nothere
.subckt blk p
R1 p 0 2k
.ends
.end
"""
    with pytest.raises(NetlistError,
                       match="^instance 'X2' references undefined subcircuit 'nothere'$"):
        elaborate(parse(src))


# ---------------------------------------------------------------------------
# elaborate: a flat netlist re-parses to the same circuit
# ---------------------------------------------------------------------------

def _as_cards(net):
    """Write a flat netlist's elements back as element cards."""
    lines = [net.title]
    for e in net.elements:
        control = [e.control_element] if e.control_element else []
        lines.append(" ".join([e.name, *e.nodes, *control, repr(e.value)]))
    return "\n".join([*lines, ".end", ""])


@pytest.mark.parametrize("source", [
    *(path.read_text(encoding="utf-8") for path in sorted(CIRCUITS_DIR.glob("*.cir"))),
    circuits.passive_rlc_loop(0.2), circuits.sensed_rlc_loop(0.2), circuits.parallel_rc(),
    circuits.cmos_input_stage(), circuits.resistive_divider(),
    circuits.double_real_pole()[0], circuits.lc_trap(), circuits.two_block(),
    circuits.hierarchical_opamp_buffer(), circuits.ladder(3),
])
def test_flat_netlist_reparses_to_the_same_circuit(source):
    flat = elaborate(parse(source))
    again = elaborate(parse(_as_cards(flat)))
    assert again.elements == flat.elements
    assert again.nodes == flat.nodes
