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
folded into G, and a gmin that overflows G is refused.

``solve_block`` is the one solver: at each frequency a sweep hands it
Y(w) and the unit rows of every injected node, and its docstring states
the one rule that accepts or refuses each solution.  The checks use
ndarray methods (``abs(R).max(axis=1)``), not the slower
``np.max``/``np.all`` wrappers, since they run at every frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netlist import Element, ElementKind, Netlist

GMIN_DEFAULT = 1e-12

_RESIDUAL_RTOL = 1e-9


class MnaError(Exception):
    pass


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

    # Overflow (1/R of a subnormal R, a sum of huge gains, or gmin) leaves
    # an inf or NaN, refused below rather than warned about here.
    with np.errstate(over="ignore", invalid="ignore"):
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
            # The stamps wrote rows a, b and k only, and an inf or NaN stays.
            rows = [i for i in (a, b, k) if i is not None and i != gnd]
            if not (np.isfinite(G[rows, :dim]).all() and np.isfinite(C[rows, :dim]).all()):
                raise MnaError(f"element {elem.name!r} makes the MNA matrices non-finite")
        G, C = G[:dim, :dim], C[:dim, :dim]
        G[range(n_nodes), range(n_nodes)] += gmin
    if not np.isfinite(G.diagonal()).all():
        raise MnaError(f"gmin {gmin!r} makes the MNA matrices non-finite")
    return MnaPattern(n_nodes=n_nodes, dim=dim, node_rows=node_rows,
                      labels=labels, G=G, C=C)


def _control_branch(vsource_rows: dict[str, int], elem: Element) -> int:
    try:
        return vsource_rows[(elem.control_element or "").lower()]
    except KeyError:
        raise MnaError(f"element {elem.name!r} needs an existing V-source as control, "
                       f"got {elem.control_element!r}") from None


def solve_block(Y: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, dict[int, int]]:
    """Solve Y x = b for each row b of B, one dense LU with partial
    pivoting per row, and judge every solution by one rule: x is accepted
    iff it is finite and its normwise backward error (Rigal & Gaches
    1967) is at most 1e-9,
    ||Yx - b||_inf <= 1e-9 (||Y||_inf ||x||_inf + ||b||_inf),
    so a large response is not refused for rounding alone.  There is no
    refinement step.

    Every row is tested at once against 1e-9 ||b||_inf, from one
    residual product; ||Y|| is formed only if some row misses, and then
    once, for all the missed rows together.  A non-finite x or bound
    always misses.  An exactly zero pivot stops the first LU, and since
    every row shares Y's LU, the whole block is refused.

    Returns X, whose row j solves row j of B, and a dict from each
    refused row to the index of the unknown it blames: a dependent
    column of Y (from at most one QR of Y per call), else the first
    non-finite entry of x, or, for a finite x, the worst residual row,
    so floating nodes and source loops are identifiable.  A refused row
    of X holds no solution."""
    X = np.empty(B.shape, np.result_type(Y, B, 1.0))
    try:
        for j, b in enumerate(B):
            X[j] = np.linalg.solve(Y, b)
    except np.linalg.LinAlgError:  # an exactly zero pivot, in every row's LU
        X[:] = np.nan
    with np.errstate(over="ignore", invalid="ignore"):
        R = B - X @ Y.T
        rnorm = abs(R).max(axis=1, initial=0.0)
        bnorm = abs(B).max(axis=1, initial=0.0)
        # A NaN residual misses, and so does an infinite one, which an
        # infinite b would otherwise pass.
        miss = ~(rnorm <= _RESIDUAL_RTOL * bnorm) | np.isinf(rnorm)
        if miss.any():
            scale = abs(Y).sum(axis=1).max() * abs(X[miss]).max(axis=1) + bnorm[miss]
            miss[miss] = ~(np.isfinite(scale) & (rnorm[miss] <= _RESIDUAL_RTOL * scale))
    refused: dict[int, int] = {}
    dependent = None
    for j in np.flatnonzero(miss).tolist():
        finite = np.isfinite(X[j])
        if finite.all():
            culprit = abs(R[j]).argmax()
        else:
            # LAPACK returns NaN, not an error, on a subnormal pivot, and
            # in sound unknowns too, so a non-finite x names the first
            # column of Y that depends on the earlier ones, else its
            # first non-finite entry.
            if dependent is None:
                d = np.abs(np.diagonal(np.linalg.qr(Y, mode="r")))
                dependent = d <= len(d) * np.finfo(np.float64).eps * d.max()
            culprit = (dependent if dependent.any() else ~finite).argmax()
        refused[j] = int(culprit)
    return X, refused
