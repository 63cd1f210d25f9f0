"""Parser and elaboration tests."""

import re

import pytest
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
], ids=["R-value", "V-dc", "V-ac", "I-ac"])
def test_parse_bad_value_token_carries_line_number(card, token):
    with pytest.raises(NetlistError, match=f"line 3: bad value token '{token}'"):
        parse(f"t\nR0 a 0 1k\n{card}\n.end\n")


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
