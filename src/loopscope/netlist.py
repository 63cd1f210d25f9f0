"""SPICE-subset netlist parser and elaborator for linear small-signal circuits.

Supported element cards (one per logical line, ``+`` continues a line,
``*`` starts a comment line):

    Rname  a b  value                    resistor (ohm)
    Cname  a b  value                    capacitor (farad)
    Lname  a b  value                    inductor (henry)
    Vname  a b  [dc] [AC [mag [phase]]]  independent voltage source
    Iname  a b  [dc] [AC [mag [phase]]]  independent current source
    Ename  a b c d  gain                 VCVS, drives (a,b), senses (c,d)
    Gname  a b c d  gm                   VCCS, drives (a,b), senses (c,d)
    Fname  a b  Vctrl  gain              CCCS, controlled by current through Vctrl
    Hname  a b  Vctrl  rtrans            CCVS, controlled by current through Vctrl
    Xname  n1 n2 ... subname             subcircuit instance

A source's DC value, AC magnitude and AC phase are validated, then
ignored: every source is zeroed while a node is swept, so they cannot
change the audit.  Which element may control a CCCS/CCVS is checked by
``mna.build_pattern``, not here.

Directives: ``.param NAME=VALUE``, ``.subckt NAME pins... / .ends``,
``.end``.  Other dot-directives are skipped with a warning so netlists
exported from other simulators still load.  A ``.param`` line holds
only assignments.  Parameter names are global, also when set inside a
``.subckt``, and each is defined once.  Subcircuit pins are distinct
non-ground names.  Every parse or elaboration failure raises
``NetlistError``.

Values take standard magnitude suffixes (t g meg k m u n p f, case
insensitive) plus optional trailing unit letters after a suffix
(``2.2uF``, ``1kOhm``).  A value may also be a parameter reference,
written ``{name}`` or as a bare identifier, resolved at elaboration.

Names are case-insensitive.  Node ``0`` is ground; ``gnd`` is accepted
as an alias.  ``Netlist.nodes`` lists the non-ground nodes in first-seen
order, each under the spelling it was first seen with.

Elaboration flattens subcircuit instances using dot-joined paths: node
``net5`` inside instance ``X1`` becomes ``X1.net5`` and element ``R1``
becomes ``X1.R1``.  The element kind of a flattened name is read from
the first letter of its last dot segment, so a flat netlist re-parses to
the same circuit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum


class NetlistError(Exception):
    """Netlist parsing or elaboration failure; the message starts with
    ``line N: `` when the offending line is known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ElementKind(Enum):
    RESISTOR = "R"
    CAPACITOR = "C"
    INDUCTOR = "L"
    VSOURCE = "V"
    ISOURCE = "I"
    VCVS = "E"
    VCCS = "G"
    CCCS = "F"
    CCVS = "H"


# Elements whose terminals constrain each other's voltages; used for the
# floating-node check.  Current-source terminals (I, G, F outputs and all
# sense pairs) do not tie a node down.
_CONDUCTIVE_KINDS = frozenset({
    ElementKind.RESISTOR, ElementKind.CAPACITOR, ElementKind.INDUCTOR,
    ElementKind.VSOURCE, ElementKind.VCVS, ElementKind.CCVS,
})

_SUFFIXES = {
    "t": 1e12, "g": 1e9, "meg": 1e6, "k": 1e3,
    "m": 1e-3, "u": 1e-6, "n": 1e-9, "p": 1e-12, "f": 1e-15,
}

_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")


def parse_value(token: str) -> float:
    """Parse a SPICE numeric token like ``4.7k``, ``3meg`` or ``2.2uF``.

    Trailing unit letters are ignored only after a recognized magnitude
    suffix; anything else after the numeral is an error, and so is a
    value that overflows to infinity.
    """
    m = _NUMBER_RE.match(token)
    if m is None:
        raise NetlistError(f"not a number: {token!r}")
    value = float(m.group(0))
    rest = token[m.end():]
    if rest:
        lower = rest.lower()
        if lower.startswith("meg"):
            mult, tail = 1e6, rest[3:]
        elif lower[0] in _SUFFIXES:
            mult, tail = _SUFFIXES[lower[0]], rest[1:]
        else:
            raise NetlistError(f"unrecognized suffix {rest!r} in {token!r}")
        if tail and not tail.isalpha():
            raise NetlistError(f"trailing garbage {tail!r} in {token!r}")
        value *= mult
    if not math.isfinite(value):
        raise NetlistError(f"not a finite number: {token!r}")
    return value


def _is_number(token: str) -> bool:
    try:
        parse_value(token)
    except NetlistError:
        return False
    return True


def _parse_value_or_ref(token: str, line: int) -> float | str:
    """A value token is either a number or a parameter reference."""
    if token.startswith("{") and token.endswith("}") and len(token) > 2:
        return token[1:-1].lower()
    try:
        return parse_value(token)
    except NetlistError:
        if _IDENT_RE.match(token):
            return token.lower()
        raise NetlistError(f"bad value token {token!r}", line) from None


@dataclass
class Element:
    name: str
    kind: ElementKind
    nodes: list[str]
    value: float | str          # str until parameters are resolved
    control_element: str | None = None  # CCCS/CCVS: name of sensed V source


@dataclass
class Instance:
    name: str
    nodes: list[str]
    subckt: str
    line: int = 0


@dataclass
class Subcircuit:
    name: str
    pins: list[str]
    elements: list[Element] = field(default_factory=list)
    instances: list[Instance] = field(default_factory=list)


@dataclass
class Netlist:
    title: str
    elements: list[Element] = field(default_factory=list)
    instances: list[Instance] = field(default_factory=list)
    params: dict[str, float | str] = field(default_factory=dict)
    subcircuits: dict[str, Subcircuit] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def nodes(self) -> list[str]:
        """Non-ground node names in first-seen order, one per
        case-insensitive name, spelled as first seen."""
        seen: dict[str, str] = {"0": "0"}
        for item in [*self.elements, *self.instances]:
            for node in item.nodes:
                seen.setdefault(node.lower(), node)
        return list(seen.values())[1:]

    @property
    def is_flat(self) -> bool:
        """No instances, no subcircuits and no unresolved parameter reference."""
        return (not self.instances and not self.subcircuits
                and not any(isinstance(e.value, str) for e in self.elements))


def _normalize_node(token: str) -> str:
    return "0" if token.lower() in ("0", "gnd") else token


class _Lines:
    """Logical-line iterator: strips comments, merges continuations."""

    def __init__(self, source: str):
        self.logical: list[tuple[int, str]] = []
        physical = source.splitlines()
        if not physical:
            raise NetlistError("empty netlist source")
        self.title = physical[0].strip()
        for lineno, raw in enumerate(physical[1:], start=2):
            stripped = raw.strip()
            if not stripped or stripped.startswith("*"):
                continue
            if stripped.startswith("+"):
                if not self.logical:
                    raise NetlistError("continuation with nothing to continue", lineno)
                prev_no, prev = self.logical[-1]
                self.logical[-1] = (prev_no, prev + " " + stripped[1:].strip())
            else:
                self.logical.append((lineno, stripped))


_PARAM_ASSIGN_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(\S+)")


def parse(source: str) -> Netlist:
    """Parse netlist text.  The result may still contain subcircuit
    definitions, instances and unresolved parameter references; run
    :func:`elaborate` to obtain a flat circuit."""
    lines = _Lines(source)
    net = Netlist(title=lines.title)
    seen: dict[str, int] = {}
    subckt: Subcircuit | None = None
    sub_seen: dict[str, int] = {}
    subckt_lines: dict[str, int] = {}
    param_lines: dict[str, int] = {}

    for lineno, text in lines.logical:
        tokens = text.split()
        word = tokens[0].lower()

        if word.startswith("."):
            if word == ".end":
                break
            if word == ".param":
                body = text[len(".param"):]
                assignments = _PARAM_ASSIGN_RE.findall(body)
                for name, val in assignments:
                    key = name.lower()
                    if key in param_lines:
                        raise NetlistError(
                            f".param {name!r} already defined on line {param_lines[key]}",
                            lineno)
                    param_lines[key] = lineno
                    net.params[key] = _parse_value_or_ref(val, lineno)
                if not assignments:
                    raise NetlistError("empty .param directive", lineno)
                leftover = _PARAM_ASSIGN_RE.sub(" ", body).split()
                if leftover:
                    raise NetlistError(f"bad .param assignment {leftover[0]!r}", lineno)
                continue
            if word == ".subckt":
                if subckt is not None:
                    raise NetlistError("nested .subckt definitions are not supported", lineno)
                if len(tokens) < 3:
                    raise NetlistError(".subckt needs a name and at least one pin", lineno)
                key = tokens[1].lower()
                if key in subckt_lines:
                    raise NetlistError(
                        f".subckt {tokens[1]!r} already defined on line {subckt_lines[key]}",
                        lineno)
                subckt_lines[key] = lineno
                pins_seen: set[str] = set()
                for pin in tokens[2:]:
                    if _normalize_node(pin) == "0":
                        raise NetlistError(f".subckt {tokens[1]!r} pin {pin!r} is ground", lineno)
                    if pin.lower() in pins_seen:
                        raise NetlistError(f".subckt {tokens[1]!r} repeats pin {pin!r}", lineno)
                    pins_seen.add(pin.lower())
                subckt = Subcircuit(name=tokens[1], pins=tokens[2:])
                sub_seen = {}
                continue
            if word == ".ends":
                if subckt is None:
                    raise NetlistError(".ends without .subckt", lineno)
                net.subcircuits[subckt.name.lower()] = subckt
                subckt = None
                continue
            net.warnings.append(f"line {lineno}: ignored directive {tokens[0]!r}")
            continue

        scope_seen = sub_seen if subckt is not None else seen
        name = tokens[0]
        key = name.lower()
        if key in scope_seen:
            raise NetlistError(
                f"element {name!r} already defined on line {scope_seen[key]}", lineno)
        scope_seen[key] = lineno

        if key[0] == "x" and "." not in key:
            if len(tokens) < 3:
                raise NetlistError("instance needs nodes and a subcircuit name", lineno)
            inst = Instance(name=name, nodes=[_normalize_node(t) for t in tokens[1:-1]],
                            subckt=tokens[-1], line=lineno)
            (subckt.instances if subckt is not None else net.instances).append(inst)
            continue

        elem = _parse_element(name, tokens, lineno)
        (subckt.elements if subckt is not None else net.elements).append(elem)

    if subckt is not None:
        raise NetlistError(f".subckt {subckt.name!r} is missing its .ends")
    return net


def _parse_element(name: str, tokens: list[str], lineno: int) -> Element:
    # Flattened names like "X1.R1" carry the kind on the last segment.
    letter = name.rsplit(".", 1)[-1][:1].upper()
    try:
        kind = ElementKind(letter)
    except ValueError:
        raise NetlistError(f"unknown element prefix {letter!r} in {name!r}", lineno) from None

    if kind in (ElementKind.VCVS, ElementKind.VCCS):
        if len(tokens) != 6:
            raise NetlistError(
                f"{kind.value}-element needs 4 nodes and a gain", lineno)
        nodes = [_normalize_node(t) for t in tokens[1:5]]
        value = _parse_value_or_ref(tokens[5], lineno)
        return Element(name, kind, nodes, value)

    if kind in (ElementKind.CCCS, ElementKind.CCVS):
        if len(tokens) != 5:
            raise NetlistError(
                f"{kind.value}-element needs 2 nodes, a controlling V source and a gain", lineno)
        nodes = [_normalize_node(t) for t in tokens[1:3]]
        value = _parse_value_or_ref(tokens[4], lineno)
        return Element(name, kind, nodes, value, control_element=tokens[3])

    if len(tokens) < 3:
        raise NetlistError("element needs two nodes", lineno)
    nodes = [_normalize_node(t) for t in tokens[1:3]]
    rest = tokens[3:]

    if kind in (ElementKind.VSOURCE, ElementKind.ISOURCE):
        value: float | str | None = None
        ac: float | None = None
        i = 0
        while i < len(rest):
            tok = rest[i].lower()
            if tok == "ac":
                if ac is not None:
                    raise NetlistError("source card gives its AC clause twice", lineno)
                if i + 1 < len(rest):
                    try:
                        ac = parse_value(rest[i + 1])
                    except NetlistError:
                        raise NetlistError(
                            f"bad value token {rest[i + 1]!r}", lineno) from None
                    i += 2
                    if i < len(rest) and _is_number(rest[i]):  # the phase
                        i += 1
                else:
                    ac = 1.0
                    i += 1
            elif tok == "dc":
                if value is not None:
                    raise NetlistError("source card gives its DC value twice", lineno)
                if i + 1 >= len(rest):
                    raise NetlistError("DC keyword needs a value", lineno)
                value = _parse_value_or_ref(rest[i + 1], lineno)
                i += 2
            elif i == 0:
                value = _parse_value_or_ref(rest[i], lineno)
                i += 1
            else:
                raise NetlistError(f"unexpected token {rest[i]!r}", lineno)
        if ac is not None and ac < 0:
            raise NetlistError("AC magnitude must be >= 0", lineno)
        return Element(name, kind, nodes, 0.0 if value is None else value)

    if len(rest) != 1:
        raise NetlistError(f"{kind.value}-element needs exactly one value", lineno)
    value = _parse_value_or_ref(rest[0], lineno)
    if isinstance(value, float) and value <= 0:
        raise NetlistError(
            f"{kind.value}-element value must be strictly positive", lineno)
    return Element(name, kind, nodes, value)


def _resolve_params(params: dict[str, float | str]) -> dict[str, float]:
    resolved: dict[str, float] = {k: v for k, v in params.items() if isinstance(v, float)}
    pending = {k: v for k, v in params.items() if isinstance(v, str)}
    while pending:
        progressed = False
        for key in list(pending):
            ref = pending[key]
            if ref in resolved:
                resolved[key] = resolved[ref]
                del pending[key]
                progressed = True
        if not progressed:
            names = ", ".join(sorted(pending))
            raise NetlistError(f"cannot resolve parameter(s): {names}")
    return resolved


def _resolve_value(elem: Element, params: dict[str, float]) -> float:
    if isinstance(elem.value, float):
        return elem.value
    try:
        return params[elem.value]
    except KeyError:
        raise NetlistError(
            f"element {elem.name!r} references undefined parameter {elem.value!r}") from None


def elaborate(net: Netlist) -> Netlist:
    """Flatten subcircuit instances and substitute parameters.
    Idempotent on already-flat netlists."""
    params = _resolve_params(net.params)
    flat_elements: list[Element] = []

    def expand_scope(elements: list[Element], instances: list[Instance],
                     prefix: str, pin_map: dict[str, str], stack: tuple[str, ...]):
        def map_node(node: str) -> str:
            if node == "0":
                return "0"
            mapped = pin_map.get(node.lower())
            if mapped is not None:
                return mapped
            return prefix + node

        for elem in elements:
            value = _resolve_value(elem, params)
            if elem.kind in (ElementKind.RESISTOR, ElementKind.CAPACITOR,
                             ElementKind.INDUCTOR) and value <= 0:
                raise NetlistError(
                    f"element {prefix + elem.name!r} value must be strictly positive")
            ctrl = elem.control_element
            flat_elements.append(Element(
                name=prefix + elem.name,
                kind=elem.kind,
                nodes=[map_node(n) for n in elem.nodes],
                value=value,
                control_element=prefix + ctrl if ctrl else None,
            ))
        for inst in instances:
            key = inst.subckt.lower()
            if key not in net.subcircuits:
                raise NetlistError(f"instance {prefix + inst.name!r} references "
                                   f"undefined subcircuit {inst.subckt!r}")
            if key in stack:
                raise NetlistError(
                    f"subcircuit {inst.subckt!r} instantiates itself "
                    f"(via {prefix + inst.name!r})")
            sub = net.subcircuits[key]
            if len(inst.nodes) != len(sub.pins):
                raise NetlistError(
                    f"instance {prefix + inst.name!r} has {len(inst.nodes)} nodes, "
                    f"subcircuit {sub.name!r} has {len(sub.pins)} pins", inst.line)
            inner_pins = {pin.lower(): map_node(n)
                          for pin, n in zip(sub.pins, inst.nodes)}
            expand_scope(sub.elements, sub.instances,
                         prefix + inst.name + ".", inner_pins, stack + (key,))

    expand_scope(net.elements, net.instances, "", {}, ())

    seen: set[str] = set()
    for elem in flat_elements:
        key = elem.name.lower()
        if key in seen:
            raise NetlistError(
                f"flattened element name {elem.name!r} collides with an existing element")
        seen.add(key)

    flat = Netlist(title=net.title, elements=flat_elements, warnings=list(net.warnings))
    flat.warnings.extend(_floating_node_warnings(flat))
    return flat


def _floating_node_warnings(net: Netlist) -> list[str]:
    """Non-ground nodes must reach ground through voltage-constraining
    elements; anything else only stays solvable thanks to gmin."""
    adjacency: dict[str, set[str]] = {}
    for elem in net.elements:
        if elem.kind not in _CONDUCTIVE_KINDS:
            continue
        a, b = (node.lower() for node in elem.nodes[:2])
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    reached = {"0"}
    frontier = ["0"]
    while frontier:
        here = frontier.pop()
        for nxt in adjacency.get(here, ()):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return [f"node {node!r} has no conductive path to ground"
            for node in net.nodes if node.lower() not in reached]

