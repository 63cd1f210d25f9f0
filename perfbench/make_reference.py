"""Regenerate ``reference.json`` from the current program.

Run from the repository root with ``python3 perfbench/make_reference.py``.
Only do so when a change to the program's results is deliberate: the
benchmark counts every disagreement with this file as a failed audit.

For each case the script runs the CLI once and stores the exit status,
the loops (and, for ``probe_large``, the peaks) and the circuit's exact
pole pairs.  The pairs are the finite generalized eigenvalues of
``(-G, C)``, with ``G = Re Y`` and ``C = Im Y`` taken from the MNA matrix
at omega = 1 rad/s; each pair with positive imaginary part gives
``natural_freq = |s| / 2 pi`` and ``zeta = -Re s / |s|``.  The stored
pairs keep the run-time check independent of the program's internals.
Finally the script confirms that the comparison rejects every case when
the grid density is halved.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

from loopscope import (InjectionSpec, assemble, build_pattern,  # noqa: E402
                       elaborate, parse, parse_value)
from loopscope.cli import main  # noqa: E402

from check import loops_of, mismatches, peaks_of  # noqa: E402
from workloads import WORKLOADS, Case, all_cases, make_workload  # noqa: E402

NETLISTS = {name: text for workload in WORKLOADS
            for name, text in make_workload(workload, 0).files.items()}


def run_cli(argv: list[str], workdir: Path) -> tuple[int, dict]:
    out, js = workdir / "ref.txt", workdir / "ref.json"
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--out", str(out), "--json", str(js)])
    return code, json.loads(js.read_text())


def exact_pairs(case: Case, f_start: float, f_stop: float) -> list[list[float]]:
    parsed = parse(NETLISTS[case.netlist])
    args = list(case.args)
    for i, arg in enumerate(args):
        if arg == "--param":
            name, value = args[i + 1].split("=")
            parsed.params[name] = parse_value(value)
    Y, _ = assemble(build_pattern(elaborate(parsed)), 1.0,
                    InjectionSpec.source_drive())
    eig = scipy.linalg.eigvals(-Y.real, Y.imag)
    pairs = []
    for s in eig[np.isfinite(eig)]:
        if s.imag > 0:
            f = abs(s) / (2 * math.pi)
            if f_start <= f <= f_stop:
                pairs.append([f, -s.real / abs(s)])
    return sorted(pairs)


def build_reference() -> int:
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, text in NETLISTS.items():
            (workdir / name).write_text(text, encoding="utf-8")
        for case in all_cases():
            argv = [str(workdir / case.netlist), *case.args]
            code, doc = run_cli(argv, workdir)
            ref = {"exit": code, "loops": loops_of(doc),
                   "peaks": peaks_of(doc) if case.key.startswith("probe_large/") else None,
                   "poles": exact_pairs(case, doc["grid"]["f_start_hz"],
                                        doc["grid"]["f_stop_hz"])}
            coarse = argv + ["--ppd", str(doc["grid"]["points_per_decade"] // 2)]
            if not mismatches(ref, *run_cli(coarse, workdir)):
                print(f"{case.key}: halving --ppd passes the check", file=sys.stderr)
                return 1
            cases[case.key] = ref
            print(f"{case.key}: exit {code}, {len(ref['loops'])} loops, "
                  f"{len(ref['poles'])} exact pairs")
    (HERE / "reference.json").write_text(
        json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(build_reference())
