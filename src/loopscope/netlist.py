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

Values take standard magnitude suffixes (t g meg k mil m u n p f, case
insensitive; ``mil`` is 25.4e-6) plus optional trailing unit letters
after a suffix (``2.2uF``, ``1kOhm``).  A value may also be a parameter
reference, written ``{name}`` or as a bare identifier, resolved at
elaboration.

Names are case-insensitive.  Node ``0`` is ground; ``gnd`` is accepted
as an alias.  ``Netlist.nodes`` lists the non-ground nodes in first-seen
order, element cards before instance cards, each spelled as first seen.

Elaboration flattens subcircuit instances using dot-joined paths: node
``net5`` inside instance ``X1`` becomes ``X1.net5`` and element ``R1``
becomes ``X1.R1``.  The element kind of a flattened name is read from
the first letter of its last dot segment, so a flat netlist re-parses to
the same circuit.
"""

import math
import re
from collections import namedtuple
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
# sense pairs) do not tie a node down, except a VCCS sensing its own
# output pair: its stamp is the conductance gm between the pair.
_CONDUCTIVE_KINDS = frozenset({
    ElementKind.RESISTOR, ElementKind.CAPACITOR, ElementKind.INDUCTOR,
    ElementKind.VSOURCE, ElementKind.VCVS, ElementKind.CCVS,
})

_SUFFIXES = {
    "t": 1e12, "g": 1e9, "meg": 1e6, "k": 1e3, "mil": 25.4e-6,
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
        suffix = lower[:3] if lower[:3] in ("meg", "mil") else lower[0]
        if suffix not in _SUFFIXES:
            raise NetlistError(f"unrecognized suffix {rest!r} in {token!r}")
        mult, tail = _SUFFIXES[suffix], rest[len(suffix):]
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
    if token.startswith("{") and token.endswith("}") and _IDENT_RE.match(token[1:-1]):
        return token[1:-1].lower()
    try:
        return parse_value(token)
    except NetlistError:
        if _IDENT_RE.match(token):
            return token.lower()
        raise NetlistError(f"bad value token {token!r}", line) from None


# ``nodes`` is a list; ``value`` is a str until parameters are resolved;
# ``control_element`` names the V source a CCCS/CCVS senses.
Element = namedtuple("Element", "name kind nodes value control_element", defaults=[None])
Instance = namedtuple("Instance", "name nodes subckt line", defaults=[0])


class Subcircuit:
    """A ``.subckt`` definition: its pins and the cards up to ``.ends``."""

    def __init__(self, name: str, pins: list[str]):
        self.name, self.pins = name, pins
        self.elements: list[Element] = []
        self.instances: list[Instance] = []


class Netlist:
    """A parsed netlist; after :func:`elaborate`, a flat one."""

    def __init__(self, title: str):
        self.title = title
        self.elements: list[Element] = []
        self.instances: list[Instance] = []
        self.params: dict[str, float | str] = {}
        self.subcircuits: dict[str, Subcircuit] = {}
        self.warnings: list[str] = []

    @property
    def nodes(self) -> list[str]:
        """Non-ground node names, one per case-insensitive name, spelled as
        first seen, in card order over the elements and then the instances."""
        seen: dict[str, str] = {"0": "0"}
        for item in [*self.elements, *self.instances]:
            for node in item.nodes:
                seen.setdefault(node.lower(), node)
        return list(seen.values())[1:]

    @property
    def parameter_names(self) -> set[str]:
        """Every parameter name, lowercased, that this netlist declares or
        references, at top level and inside subcircuit definitions."""
        scopes = [self, *self.subcircuits.values()]
        values = [*self.params.values(), *(e.value for sc in scopes for e in sc.elements)]
        return set(self.params) | {v for v in values if isinstance(v, str)}

    @property
    def is_flat(self) -> bool:
        """No instances, no subcircuits and no unresolved parameter reference."""
        return (not self.instances and not self.subcircuits
                and not any(isinstance(e.value, str) for e in self.elements))


def _normalize_node(token: str) -> str:
    return "0" if token.lower() in ("0", "gnd") else token


def _logical_lines(source: str) -> tuple[str, list[tuple[int, str]]]:
    """The title and the logical lines, each with its first line number:
    comments and blank lines dropped, ``+`` continuations merged."""
    physical = source.splitlines()
    if not physical:
        raise NetlistError("empty netlist source")
    logical: list[tuple[int, str]] = []
    for lineno, raw in enumerate(physical[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("*"):
            continue
        if stripped.startswith("+"):
            if not logical:
                raise NetlistError("continuation with nothing to continue", lineno)
            prev_no, prev = logical[-1]
            logical[-1] = (prev_no, prev + " " + stripped[1:].strip())
        else:
            logical.append((lineno, stripped))
    return physical[0].strip(), logical


_PARAM_ASSIGN_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(\S+)")


def _define(defined: dict[tuple, int], key: tuple, what: str, lineno: int):
    """Record ``key`` as defined on ``lineno``; a second definition is an error."""
    if key in defined:
        raise NetlistError(f"{what} already defined on line {defined[key]}", lineno)
    defined[key] = lineno


def parse(source: str) -> Netlist:
    """Parse netlist text.  The result may still contain subcircuit
    definitions, instances and unresolved parameter references; run
    :func:`elaborate` to obtain a flat circuit."""
    title, lines = _logical_lines(source)
    net = Netlist(title)
    # The open scope: the netlist itself, or the .subckt being defined.
    scope: Netlist | Subcircuit = net
    # First line of every .param, .subckt and element name.  Elements are
    # keyed by the id of their scope, so a name may recur in another scope.
    defined: dict[tuple, int] = {}

    for lineno, text in lines:
        tokens = text.split()
        word = tokens[0].lower()

        if word.startswith("."):
            if word == ".end":
                break
            if word == ".param":
                body = text[len(".param"):]
                assignments = _PARAM_ASSIGN_RE.findall(body)
                for name, val in assignments:
                    _define(defined, (".param", name.lower()), f".param {name!r}", lineno)
                    net.params[name.lower()] = _parse_value_or_ref(val, lineno)
                if not assignments:
                    raise NetlistError("empty .param directive", lineno)
                leftover = _PARAM_ASSIGN_RE.sub(" ", body).split()
                if leftover:
                    raise NetlistError(f"bad .param assignment {leftover[0]!r}", lineno)
                continue
            if word == ".subckt":
                if scope is not net:
                    raise NetlistError("nested .subckt definitions are not supported", lineno)
                if len(tokens) < 3:
                    raise NetlistError(".subckt needs a name and at least one pin", lineno)
                name, pins = tokens[1], tokens[2:]
                _define(defined, (".subckt", name.lower()), f".subckt {name!r}", lineno)
                pins_seen: set[str] = set()
                for pin in pins:
                    if _normalize_node(pin) == "0":
                        raise NetlistError(f".subckt {name!r} pin {pin!r} is ground", lineno)
                    if pin.lower() in pins_seen:
                        raise NetlistError(f".subckt {name!r} repeats pin {pin!r}", lineno)
                    pins_seen.add(pin.lower())
                scope = Subcircuit(name, pins)
                continue
            if word == ".ends":
                if scope is net:
                    raise NetlistError(".ends without .subckt", lineno)
                net.subcircuits[scope.name.lower()] = scope
                scope = net
                continue
            net.warnings.append(f"line {lineno}: ignored directive {tokens[0]!r}")
            continue

        name = tokens[0]
        _define(defined, (id(scope), name.lower()), f"element {name!r}", lineno)
        if word[0] == "x" and "." not in word:
            if len(tokens) < 3:
                raise NetlistError("instance needs nodes and a subcircuit name", lineno)
            scope.instances.append(Instance(
                name=name, nodes=[_normalize_node(t) for t in tokens[1:-1]],
                subckt=tokens[-1], line=lineno))
        else:
            scope.elements.append(_parse_element(name, tokens, lineno))

    if scope is not net:
        raise NetlistError(f".subckt {scope.name!r} is missing its .ends")
    return net


def _parse_element(name: str, tokens: list[str], lineno: int) -> Element:
    # Flattened names like "X1.R1" carry the kind on the last segment.
    letter = name.rsplit(".", 1)[-1][:1].upper()
    try:
        kind = ElementKind(letter)
    except ValueError:
        raise NetlistError(f"unknown element prefix {letter!r} in {name!r}", lineno) from None

    # E/G sense a node pair, F/H the current of a named V source.
    senses_current = kind in (ElementKind.CCCS, ElementKind.CCVS)
    if senses_current or kind in (ElementKind.VCVS, ElementKind.VCCS):
        n = 2 if senses_current else 4
        if len(tokens) != n + 2 + senses_current:
            control = ", a controlling V source" if senses_current else ""
            raise NetlistError(f"{kind.value}-element needs {n} nodes{control} and a gain", lineno)
        return Element(name, kind, [_normalize_node(t) for t in tokens[1:n + 1]],
                       _parse_value_or_ref(tokens[-1], lineno),
                       control_element=tokens[n + 1] if senses_current else None)

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
    """Each parameter's number.  A reference chain has fewer than
    ``len(params)`` links, so that many rounds settle every chain that
    ends in a number; any name left over is undefined or cyclic."""
    resolved = {k: v for k, v in params.items() if isinstance(v, float)}
    for _ in params:
        resolved.update({k: resolved[v] for k, v in params.items()
                         if k not in resolved and v in resolved})
    if len(resolved) < len(params):
        names = ", ".join(sorted(params.keys() - resolved.keys()))
        raise NetlistError(f"cannot resolve parameter(s): {names}")
    return resolved


def elaborate(net: Netlist) -> Netlist:
    """Flatten subcircuit instances and substitute parameters.
    Idempotent on already-flat netlists.  Errors come in a fixed order:
    parameter resolution, then a depth-first walk taking each scope's
    elements before its instances, then flattened-name collisions."""
    params = _resolve_params(net.params)
    flat = Netlist(net.title)

    def walk(scope: Netlist | Subcircuit, prefix: str, pins: dict[str, str],
             stack: tuple[str, ...]):
        def node(name: str) -> str:
            return name if name == "0" else pins.get(name.lower(), prefix + name)

        for elem in scope.elements:
            value = elem.value
            if isinstance(value, str):
                if value not in params:
                    raise NetlistError(f"element {prefix + elem.name!r} references "
                                       f"undefined parameter {value!r}")
                value = params[value]
            if elem.kind in (ElementKind.RESISTOR, ElementKind.CAPACITOR,
                             ElementKind.INDUCTOR) and value <= 0:
                raise NetlistError(
                    f"element {prefix + elem.name!r} value must be strictly positive")
            ctrl = elem.control_element
            flat.elements.append(Element(
                name=prefix + elem.name, kind=elem.kind,
                nodes=[node(n) for n in elem.nodes], value=value,
                control_element=prefix + ctrl if ctrl else None))
        for inst in scope.instances:
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
            walk(sub, prefix + inst.name + ".",
                 {pin.lower(): node(n) for pin, n in zip(sub.pins, inst.nodes)},
                 stack + (key,))

    walk(net, "", {}, ())

    seen: set[str] = set()
    for elem in flat.elements:
        key = elem.name.lower()
        if key in seen:
            raise NetlistError(
                f"flattened element name {elem.name!r} collides with an existing element")
        seen.add(key)

    flat.warnings = [*net.warnings, *_floating_node_warnings(flat)]
    return flat


def _floating_node_warnings(net: Netlist) -> list[str]:
    """Non-ground nodes must reach ground through voltage-constraining
    elements; anything else only stays solvable thanks to gmin."""
    adjacency: dict[str, set[str]] = {}
    for elem in net.elements:
        a, b, *sense = (node.lower() for node in elem.nodes)
        if elem.kind not in _CONDUCTIVE_KINDS and not (
                elem.kind is ElementKind.VCCS and elem.value != 0 and {*sense} == {a, b}):
            continue
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

