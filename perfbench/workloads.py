"""Benchmark workloads: generated netlists and the CLI argv for each audit.

The program under test receives only these netlist files and argv.  The
seed changes the inputs in two ways and nowhere else: it orders the
twelve ``design_sweep`` cases and picks the ``probe_large`` node from
{s20, s25, s30}.  Every case has its own stored reference output
(``reference.json``), keyed by ``Case.key``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("audit_ladder", "probe_large", "design_sweep")

PROBE_NODES = ("s20", "s25", "s30")
DESIGN_CC = ("2p", "4p", "8p")
DESIGN_CL = ("50p", "200p", "500p", "2n")

# A copy of circuits/opamp_buffer.cir, kept here so that edits to the
# shipped example never change what the benchmark measures.
OPAMP_BUFFER = """\
two-stage op-amp macromodel as unity-gain buffer
* Linear small-signal macromodel: input gm stage, Miller-compensated
* second stage, buffered output with 200 ohm output resistance.
* The amplifier is closed as a voltage follower (inn tied to out).
*
* Knobs (override with --param):
*   cc  Miller compensation capacitor
*   cl  load capacitance; cl=2n drags the main loop to zeta ~ 0.13
.param cc=4p cl=50p
Vin in 0 AC 1
Xamp in out out twostage
Rload out 0 10k
Cload out 0 {cl}
.subckt twostage inp inn out
Gin n1 0 inp inn 200u
R1 n1 0 2meg
C1 n1 0 0.5p
G2 n2 0 0 n1 2m
R2 n2 0 50k
C2 n2 0 1p
Cc n1 n2 {cc}
Eout eo 0 n2 0 1.0
Ro eo out 200
.ends
.end
"""
OPAMP_NODES = 5  # in, out, Xamp.n1, Xamp.n2, Xamp.eo


def ladder(n: int) -> str:
    """``Rs in 0 50``, then n sections of series L 1u and R 0.5 with C 1n
    to ground, then ``Rl 50``: 2n+1 nodes, MNA dimension 3n+1."""
    lines = [f"ladder({n})", "Rs in 0 50"]
    prev = "in"
    for k in range(1, n + 1):
        lines += [f"L{k} {prev} m{k} 1u", f"R{k} m{k} s{k} 0.5", f"C{k} s{k} 0 1n"]
        prev = f"s{k}"
    lines += [f"Rl {prev} 0 50", ".end", ""]
    return "\n".join(lines)


def grid_points(f_start: float, f_stop: float, ppd: int) -> int:
    """Number of grid frequencies the CLI sweeps for this range."""
    return int(round(ppd * math.log10(f_stop / f_start))) + 1


@dataclass(frozen=True)
class Case:
    key: str                 # reference key, "<workload>/<case>"
    netlist: str             # file name inside the work directory
    args: tuple[str, ...]    # CLI options after the netlist path
    points: int              # node x frequency points one audit sweeps

    def argv(self, workdir: Path, out: Path, json_out: Path) -> list[str]:
        return [str(workdir / self.netlist), *self.args,
                "--out", str(out), "--json", str(json_out)]


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict[str, str]    # netlist file name -> text
    cases: tuple[Case, ...]  # audit order; a run cycles through them
    in_process: bool         # False: every audit is a fresh CLI process
    setup_netlist: str       # the netlist setup_s elaborates

    def write_files(self, workdir: Path) -> None:
        for name, text in self.files.items():
            (workdir / name).write_text(text, encoding="utf-8")


def _audit_ladder() -> Workload:
    n = 10
    args = ("--all-nodes", "--fstart", "1k", "--fstop", "1g", "--ppd", "100")
    case = Case("audit_ladder/ladder10", "ladder10.cir", args,
                (2 * n + 1) * grid_points(1e3, 1e9, 100))
    return Workload("audit_ladder", {"ladder10.cir": ladder(n)}, (case,),
                    True, "ladder10.cir")


def _probe_case(node: str) -> Case:
    args = ("--node", node, "--fstart", "1meg", "--fstop", "20meg", "--ppd", "100")
    return Case(f"probe_large/{node}", "ladder50.cir", args,
                grid_points(1e6, 20e6, 100))


def _probe_large(node: str) -> Workload:
    return Workload("probe_large", {"ladder50.cir": ladder(50)},
                    (_probe_case(node),), True, "ladder50.cir")


def _design_case(cc: str, cl: str) -> Case:
    args = ("--all-nodes", "--fstart", "1k", "--fstop", "1g",
            "--param", f"cc={cc}", "--param", f"cl={cl}")
    return Case(f"design_sweep/cc={cc},cl={cl}", "opamp_buffer.cir", args,
                OPAMP_NODES * grid_points(1e3, 1e9, 100))


def _design_sweep(order: list[Case]) -> Workload:
    return Workload("design_sweep", {"opamp_buffer.cir": OPAMP_BUFFER},
                    tuple(order), False, "opamp_buffer.cir")


def all_cases() -> list[Case]:
    """Every case of every workload, whatever the seed."""
    return (list(_audit_ladder().cases)
            + [_probe_case(node) for node in PROBE_NODES]
            + [_design_case(cc, cl) for cc in DESIGN_CC for cl in DESIGN_CL])


def make_workload(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name == "audit_ladder":
        return _audit_ladder()
    if name == "probe_large":
        return _probe_large(rng.choice(PROBE_NODES))
    if name == "design_sweep":
        cases = [_design_case(cc, cl) for cc in DESIGN_CC for cl in DESIGN_CL]
        rng.shuffle(cases)
        return _design_sweep(cases)
    raise ValueError(f"unknown workload {name!r}")
