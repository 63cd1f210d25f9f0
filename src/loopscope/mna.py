"""Complex modified nodal analysis: Y(w) x = b for a flat netlist.

Unknowns are the non-ground node voltages followed by branch currents.
Branch rows exist for voltage-defined elements (independent V sources,
VCVS, CCVS) and for inductors, which are stamped in branch form

    V_a - V_b - jwL * I_L = 0

so the w -> 0 limit stays finite.  A CCCS or CCVS must name an
independent V source as its control; any other name raises ``MnaError``.
Every stamp is either real or a multiple of jw, so the system matrix
splits into two real matrices built once per netlist, Y(w) = G + jw*C.

A small conductance (gmin) from every node to ground keeps nearly
floating nodes solvable, matching common simulator practice; it is
folded into G.

Each frequency point of a node's sweep is one dense complex solve with
numpy.linalg (LU with partial pivoting): one LAPACK call when the
residual meets its guarantee and the solution is finite.  Only otherwise
is the solve refined once and, if that fails too, the singular unknown
named.  The residual check uses ndarray methods (``abs(r).max()``), not
the slower ``np.max``/``np.all`` wrappers, since it runs at every point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netlist import Element, ElementKind, Netlist

GMIN_DEFAULT = 1e-12

_RESIDUAL_RTOL = 1e-9


class MnaError(Exception):
    pass


class SingularSystem(MnaError):
    """Singular (or numerically hopeless) system; names the unknown whose
    pivot vanished so floating nodes and source loops are identifiable."""

    def __init__(self, label: str, omega: float | None = None):
        self.label = label
        self.omega = omega
        msg = f"singular MNA system at unknown {label!r}"
        if omega is not None:
            msg += f" (omega={omega:g} rad/s)"
        super().__init__(msg)


@dataclass
class MnaPattern:
    """Frequency-independent MNA matrices for one elaborated netlist:
    Y(w) = G + jw*C, with gmin already on G's node diagonal."""

    n_nodes: int
    dim: int
    node_rows: dict[str, int]        # lowercased node name -> matrix row
    labels: list[str]                # per unknown: node name or "I(elem)"
    G: np.ndarray                    # real part of Y(w), gmin included
    C: np.ndarray                    # coefficient of jw in Y(w)

    def row_of_node(self, node: str) -> int:
        try:
            return self.node_rows[node.lower()]
        except KeyError:
            raise MnaError(f"unknown node {node!r}") from None


def build_pattern(net: Netlist, gmin: float = GMIN_DEFAULT) -> MnaPattern:
    """Build G and C for an elaborated netlist with every independent
    source zeroed (V sources short, I sources open)."""
    if not net.is_flat:
        raise MnaError("netlist must be elaborated before building an MNA pattern")

    labels = net.nodes
    node_rows = {name.lower(): i for i, name in enumerate(labels)}
    n_nodes = len(labels)

    branch_map: dict[str, int] = {}
    for elem in net.elements:
        if elem.kind in (ElementKind.VSOURCE, ElementKind.VCVS,
                         ElementKind.CCVS, ElementKind.INDUCTOR):
            branch_map[elem.name.lower()] = n_nodes + len(branch_map)
            labels.append(f"I({elem.name})")
    # A CCCS/CCVS senses the current of an independent V source only.
    vsource_rows = {e.name.lower(): branch_map[e.name.lower()]
                    for e in net.elements if e.kind is ElementKind.VSOURCE}

    dim = n_nodes + len(branch_map)
    G = np.zeros((dim, dim))
    C = np.zeros((dim, dim))

    def row(node_name: str) -> int:
        return -1 if node_name == "0" else node_rows[node_name.lower()]

    def put(r: int, c: int, w: float, M: np.ndarray = G):
        if r >= 0 and c >= 0:
            M[r, c] += w

    def branch(a: int, b: int, k: int):
        put(a, k, 1.0); put(b, k, -1.0)
        put(k, a, 1.0); put(k, b, -1.0)

    for elem in net.elements:
        a = row(elem.nodes[0])
        b = row(elem.nodes[1])
        kind = elem.kind
        val = float(elem.value)

        if kind is ElementKind.RESISTOR:
            g = 1.0 / val
            put(a, a, g); put(b, b, g); put(a, b, -g); put(b, a, -g)
        elif kind is ElementKind.CAPACITOR:
            put(a, a, val, C); put(b, b, val, C)
            put(a, b, -val, C); put(b, a, -val, C)
        elif kind is ElementKind.INDUCTOR:
            k = branch_map[elem.name.lower()]
            branch(a, b, k)
            put(k, k, -val, C)
        elif kind is ElementKind.VSOURCE:
            branch(a, b, branch_map[elem.name.lower()])
        elif kind is ElementKind.VCVS:
            k = branch_map[elem.name.lower()]
            c = row(elem.nodes[2])
            d = row(elem.nodes[3])
            branch(a, b, k)
            put(k, c, -val); put(k, d, val)
        elif kind is ElementKind.VCCS:
            c = row(elem.nodes[2])
            d = row(elem.nodes[3])
            put(a, c, val); put(a, d, -val)
            put(b, c, -val); put(b, d, val)
        elif kind is ElementKind.CCCS:
            kc = _control_branch(vsource_rows, elem)
            put(a, kc, val); put(b, kc, -val)
        elif kind is ElementKind.CCVS:
            k = branch_map[elem.name.lower()]
            kc = _control_branch(vsource_rows, elem)
            branch(a, b, k)
            put(k, kc, -val)
    if gmin:
        idx = np.arange(n_nodes)
        G[idx, idx] += gmin
    return MnaPattern(n_nodes=n_nodes, dim=dim, node_rows=node_rows,
                      labels=labels, G=G, C=C)


def _control_branch(vsource_rows: dict[str, int], elem: Element) -> int:
    try:
        return vsource_rows[(elem.control_element or "").lower()]
    except KeyError:
        raise MnaError(f"element {elem.name!r} needs an existing V-source as control, "
                       f"got {elem.control_element!r}") from None


def solve(Y: np.ndarray, b: np.ndarray, labels: list[str] | None = None,
          omega: float | None = None) -> np.ndarray:
    """Dense LU solve with partial pivoting and a residual guarantee of
    ||Yx - b||_inf <= 1e-9 ||b||_inf (one refinement step if needed)."""
    dim = Y.shape[0]
    if Y.shape != (dim, dim) or b.shape != (dim,):
        raise MnaError("shape mismatch between Y and b")

    def label(i: int) -> str:
        return labels[i] if labels and i < len(labels) else f"unknown #{i}"

    try:
        x = np.linalg.solve(Y, b)
    except np.linalg.LinAlgError:
        # Name the first unknown whose column of Y depends on the earlier
        # ones: the column where partial-pivoting LU met its zero pivot.
        d = np.abs(np.diagonal(np.linalg.qr(Y, mode="r")))
        dependent = d <= dim * np.finfo(np.float64).eps * d.max()
        raise SingularSystem(label(int(np.argmax(dependent))), omega) from None
    bnorm = abs(b).max() if dim else 0.0
    resid = b - Y @ x
    rnorm = abs(resid).max() if dim else 0.0
    if bnorm and rnorm > _RESIDUAL_RTOL * bnorm:
        x = x + np.linalg.solve(Y, resid)
        resid = b - Y @ x
        rnorm = abs(resid).max()
    # A NaN or inf in x poisons every residual row it touches, so the
    # first non-finite entry names the unknown; for a finite x that
    # misses the bound, the worst residual row does.
    finite = np.isfinite(x)
    if not finite.all():
        raise SingularSystem(label(int(finite.argmin())), omega)
    if bnorm and rnorm > _RESIDUAL_RTOL * bnorm:
        raise SingularSystem(label(int(abs(resid).argmax())), omega)
    return x
