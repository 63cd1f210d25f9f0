"""Output checks: compare one audit's JSON report with the stored reference,
and measure its loops' damping against the circuit's exact poles.

The reference keeps, per case, the exit status, each loop's label
frequency, worst zeta, severity and member nodes, the peak list where the
workload asks for it, and the exact in-band pole pairs.  Floats compare
with a relative tolerance of ``REL_TOL``: solves that agree to about
1e-14 (batched, refined or reordered LU) pass it with a wide margin,
while a coarser grid (``--ppd`` halved) moves every loop far outside it.
``worst_node`` is deliberately not compared.
"""

from __future__ import annotations

import math

REL_TOL = 1e-6


def loops_of(doc: dict) -> list[dict]:
    return [{"label_freq_hz": g["label_freq_hz"],
             "worst_zeta": g["worst_zeta"],
             "severity": g["severity"],
             "nodes": sorted(m["node"] for m in g["members"])}
            for g in doc["groups"]]


def peaks_of(doc: dict) -> list[dict]:
    peaks = [m for g in doc["groups"] for m in g["members"]] + doc["zeros"]
    return sorted(({"node": p["node"], "kind": p["kind"],
                    "natural_freq_hz": p["natural_freq_hz"],
                    "p_value": p["p_value"], "zeta": p["zeta"],
                    "flags": p["flags"]} for p in peaks),
                  key=lambda p: (p["natural_freq_hz"], p["node"]))


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return False
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return a == b


def _diff(path: str, want, got, out: list[str]) -> None:
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            out.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
            return
        for k in want:
            _diff(f"{path}.{k}", want[k], got[k], out)
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            out.append(f"{path}: {len(got)} items, reference has {len(want)}")
            return
        for i, (w, g) in enumerate(zip(want, got)):
            _diff(f"{path}[{i}]", w, g, out)
    elif not _close(want, got):
        out.append(f"{path}: {got!r} != reference {want!r}")


def mismatches(ref: dict, exit_code: int, doc: dict | None) -> list[str]:
    """Every way one audit differs from its reference; empty when it agrees."""
    out: list[str] = []
    if exit_code != ref["exit"]:
        out.append(f"exit status {exit_code}, reference {ref['exit']}")
    if doc is None:
        out.append("no JSON report written")
        return out
    _diff("loops", ref["loops"], loops_of(doc), out)
    if ref.get("peaks") is not None:
        _diff("peaks", ref["peaks"], peaks_of(doc), out)
    return out


def zeta_errors(doc: dict, poles: list[list[float]]) -> list[float]:
    """Relative error of reported damping against each exact pole pair.

    ``poles`` holds the circuit's in-band complex pairs as
    ``[natural_freq_hz, zeta]``.  Each pair is matched to the graded loop
    nearest to it in log frequency; the error is that loop's worst zeta
    against the pair's zeta.  A circuit without pairs yields no errors.
    """
    graded = [g for g in doc["groups"] if g["worst_zeta"] is not None]
    if not graded:
        return []
    errors = []
    for f_pair, zeta in poles:
        loop = min(graded, key=lambda g: abs(math.log(g["label_freq_hz"] / f_pair)))
        errors.append(abs(loop["worst_zeta"] - zeta) / zeta)
    return errors
