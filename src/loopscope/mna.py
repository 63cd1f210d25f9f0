"""Complex modified nodal analysis: Y(w) x = b for a flat netlist.

Unknowns are the non-ground node voltages followed by branch currents.
Branch rows exist for voltage-defined elements (independent V sources,
VCVS, CCVS) and for inductors, which are stamped in branch form

    V_a - V_b - jwL * I_L = 0

so the w -> 0 limit stays finite.  A CCCS or CCVS must name an
independent V source as its control; any other name raises ``MnaError``.
Every stamp is either real or a multiple of jw, so the system matrix
splits into two real matrices built once per netlist, Y(w) = G + jw*C.

Every element enters G or C as a sum of rank-one stamps
w (e_p - e_n)(e_q - e_r)^T: a branch element's two incidence stamps,
then at most one stamp of its own (1/R, C, -L, a gain).  Ground is one
extra row and column, dropped once every element is in, so no stamp
tests for it.

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

    # Ground is one more unknown, index dim, whose row and column are
    # dropped at the end, so no stamp needs to know about it.
    dim = gnd = n_nodes + len(branch_map)
    index = {**node_rows, "0": gnd}
    G = np.zeros((dim + 1, dim + 1))
    C = np.zeros((dim + 1, dim + 1))

    def stamp(M: np.ndarray, p: int, n: int, q: int, r: int, w: float):
        """M += w (e_p - e_n)(e_q - e_r)^T."""
        M[p, q] += w
        M[n, r] += w
        M[p, r] -= w
        M[n, q] -= w

    for elem in net.elements:
        a, b, *sense = (index[node.lower()] for node in elem.nodes)
        kind = elem.kind
        val = float(elem.value)
        k = branch_map.get(elem.name.lower())
        if k is not None:
            # Branch current I_k leaves a through the element into b, and
            # row k holds the element's equation, V_a - V_b first.
            stamp(G, a, b, k, gnd, 1.0)
            stamp(G, k, gnd, a, b, 1.0)

        if kind is ElementKind.RESISTOR:
            stamp(G, a, b, a, b, 1.0 / val)
        elif kind is ElementKind.CAPACITOR:
            stamp(C, a, b, a, b, val)
        elif kind is ElementKind.INDUCTOR:
            stamp(C, k, gnd, k, gnd, -val)
        elif kind is ElementKind.VCVS:
            stamp(G, k, gnd, *sense, -val)
        elif kind is ElementKind.VCCS:
            stamp(G, a, b, *sense, val)
        elif kind is ElementKind.CCCS:
            stamp(G, a, b, _control_branch(vsource_rows, elem), gnd, val)
        elif kind is ElementKind.CCVS:
            stamp(G, k, gnd, _control_branch(vsource_rows, elem), gnd, -val)
    G, C = G[:dim, :dim], C[:dim, :dim]
    G[range(n_nodes), range(n_nodes)] += gmin
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
    except np.linalg.LinAlgError:  # an exactly zero pivot
        x = np.full(dim, np.nan)
    bnorm = abs(b).max() if dim else 0.0
    resid = b - Y @ x
    rnorm = abs(resid).max() if dim else 0.0
    if bnorm and rnorm > _RESIDUAL_RTOL * bnorm:
        x = x + np.linalg.solve(Y, resid)
        resid = b - Y @ x
        rnorm = abs(resid).max()
    # LAPACK returns NaN, not an error, on a subnormal pivot, and in sound
    # unknowns too, so a non-finite x names the first column of Y that
    # depends on the earlier ones, else its first non-finite entry.  A
    # finite x that misses the bound names its worst residual row.
    finite = np.isfinite(x)
    if not finite.all():
        d = np.abs(np.diagonal(np.linalg.qr(Y, mode="r")))
        dependent = d <= dim * np.finfo(np.float64).eps * d.max()
        bad = dependent if dependent.any() else ~finite
        raise SingularSystem(label(int(bad.argmax())), omega)
    if bnorm and rnorm > _RESIDUAL_RTOL * bnorm:
        raise SingularSystem(label(int(abs(resid).argmax())), omega)
    return x

