"""loopscope benchmark: audits through the CLI, outputs checked, metrics printed.

Run from the repository root::

    python3 perfbench/run.py --workload audit_ladder --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):

* ``audit_ladder``: all-nodes audit of ladder(10), run in this process
  through ``loopscope.cli.main(argv)``.
* ``probe_large``: one node of ladder(50), in this process.
* ``design_sweep``: twelve op-amp parameter cases, each a fresh
  ``python -m loopscope.cli`` process, interpreter start included.

One audit is one CLI invocation.  After one warm-up audit, whose time is
discarded, the benchmark audits the workload's cases in turn until the
next audit would end after ``--seconds``, and reports medians.
Every audit's exit status and JSON report are compared with
``reference.json``; each disagreement, exception or wrong exit status
counts as a failed operation.  BLAS threading is left as the environment
has it and is recorded in the host block.

``--trace 0`` prints the end-to-end metrics: ``audit_s_p50``,
``points_per_s``, ``setup_s`` (median of fresh interpreters importing
loopscope and elaborating the workload netlist), ``peak_rss_mb`` and
``zeta_err_max`` (worst relative error of a loop's reported worst zeta
against the circuit's exact pole pair).  ``--trace 1`` alternates
untraced and traced audits and prints per-layer metrics (``tracing.py``),
medians over the traced audits.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run records
(host, probes, samples) go to ``.perfbench-work/`` in the repository.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))
from check import mismatches, zeta_errors  # noqa: E402
from host import host_block, speed_probe  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Case, Workload, make_workload  # noqa: E402

SETUP_PROBES = 7      # fresh interpreters per setup_s
IMPORT_PROBES = 3     # fresh interpreters per mna.import_s
MIN_AUDITS = 3        # timed audits per run, at the least
CHILD_TIMEOUT_S = 60  # a CLI process that runs longer has hung

END_TO_END_UNITS = {"audit_s_p50": "s", "points_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "zeta_err_max": "1"}
PER_LAYER_UNITS = {**{name: unit for name, (unit, _) in LAYER_METRICS.items()},
                   "mna.import_s": "s", "cli.import_s": "s", "trace.overhead_frac": "1"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Audit:
    case: Case
    seconds: float
    exit: int | None = None
    doc: dict | None = None
    error: str | None = None
    rss_kb: int = 0
    layers: dict | None = None   # traced audits only
    absent: tuple[str, ...] = ()  # traced audits only


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


class Runner:
    """Runs audits of one workload in a scratch directory."""

    def __init__(self, workload: Workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.out = workdir / "report.txt"
        self.json = workdir / "report.json"
        self.env = child_env()
        self.main = None
        if workload.in_process:
            import loopscope.cli
            if SRC not in Path(loopscope.cli.__file__).resolve().parents:
                raise BenchError(f"imported {loopscope.cli.__file__}, not the one under {SRC}")
            self.main = loopscope.cli.main

    def audit(self, case: Case, traced: bool = False) -> Audit:
        self.json.unlink(missing_ok=True)
        argv = case.argv(self.workdir, self.out, self.json)
        if self.main is None:
            audit = self._audit_process(case, argv, traced)
        else:
            audit = self._audit_in_process(case, argv, traced)
        audit.doc = _read_json(self.json)
        return audit

    def setup_probe(self) -> dict:
        """One fresh interpreter that imports loopscope and elaborates the
        workload netlist."""
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"),
             str(self.workdir / self.workload.setup_netlist)],
            capture_output=True, text=True, cwd=self.workdir, env=self.env,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr[-1000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        return {"setup_s": record["done"] - t0, "import_s": record["import_s"]}

    def _audit_in_process(self, case: Case, argv: list[str], traced: bool) -> Audit:
        tracer = Tracer().install() if traced else None
        error, code = None, None
        t0 = time.perf_counter()
        try:
            code = self.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an audit that raises is a failed operation
            error = traceback.format_exc(limit=3)
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        audit = Audit(case, elapsed, code, error=error)
        if tracer is not None:
            audit.layers = layer_metrics(tracer.take())
            audit.absent = tuple(tracer.absent_metrics())
        return audit

    def _audit_process(self, case: Case, argv: list[str], traced: bool) -> Audit:
        result = self.workdir / "trace.json"
        if traced:
            result.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "tracing.py"), str(result), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "loopscope.cli", *argv]
        with open(self.workdir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    cwd=self.workdir, env=self.env)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        audit = Audit(case, elapsed, code, rss_kb=usage.ru_maxrss)
        if traced:
            record = _read_json(result)
            if code != 0 or record is None:
                audit.error = f"traced process exited {code}"
            else:
                audit.exit, audit.layers = record["exit"], record["metrics"]
                audit.absent = tuple(record["absent"])
        if code < 0:
            audit.error = f"killed by signal {-code}"
        elif audit.error is None and code not in (0, 1, 2):
            audit.error = (self.workdir / "stderr.txt").read_text(errors="replace")[-500:]
        return audit


def run_audits(runner: Runner, seconds: float, traced: bool):
    """Warm up, then audit the cases cyclically, at least one whole pass and
    MIN_AUDITS audits, until the next audit would end after ``seconds``.

    Traced runs pair each untraced audit with a traced one and stop only
    after whole passes, so that per-layer medians cover every case equally.
    The set-up probes are spread evenly over the same window, because the
    host's speed drifts over tens of seconds.
    Returns (warm-up, untraced audits, traced audits, set-up probes).
    """
    cases = runner.workload.cases
    warm = runner.audit(cases[0])
    plain: list[Audit] = []
    spans: list[Audit] = []
    probes: list[dict] = []
    minimum = max(MIN_AUDITS, len(cases))
    start = time.perf_counter()
    for i in itertools.count():
        elapsed = time.perf_counter() - start
        if len(plain) >= minimum and (not traced or i % len(cases) == 0):
            step = statistics.median(a.seconds for a in plain)
            if traced:
                step = (step + statistics.median(a.seconds for a in spans)) * len(cases)
            if elapsed + step > seconds:
                break
        if len(probes) < SETUP_PROBES and elapsed >= len(probes) * seconds / SETUP_PROBES:
            probes.append(runner.setup_probe())
        case = cases[i % len(cases)]
        plain.append(runner.audit(case))
        if traced:
            spans.append(runner.audit(case, traced=True))
    while len(probes) < SETUP_PROBES:
        probes.append(runner.setup_probe())
    return warm, plain, spans, probes


_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def mna_import_s(workdir: Path) -> float | None:
    """Cumulative import time of loopscope.mna (scipy included) in a fresh
    interpreter, from ``-X importtime``; median of a few interpreters.
    None when the module no longer exists."""
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import loopscope.mna"],
                              capture_output=True, text=True, cwd=workdir,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)
        cumulative = [int(m.group(1)) for m in map(_IMPORTTIME.match, proc.stderr.splitlines())
                      if m and m.group(2) == "loopscope.mna"]
        if proc.returncode != 0 or not cumulative:
            return None
        # The smallest entry is the module's own import, not a parent's.
        times.append(min(cumulative) / 1e6)
    return statistics.median(times)


def check_audits(audits: list[Audit], reference: dict) -> tuple[int, list[float]]:
    """Count failed audits and collect zeta errors of the checked reports."""
    failed, errors = 0, []
    for audit in audits:
        ref = reference[audit.case.key]
        problems = [audit.error] if audit.error else mismatches(ref, audit.exit, audit.doc)
        if problems:
            failed += 1
            print(f"FAILED {audit.case.key}: {'; '.join(problems)[:1000]}", file=sys.stderr)
        elif audit.doc is not None:
            errors.extend(zeta_errors(audit.doc, ref["poles"]))
    return failed, errors


def end_to_end(runner: Runner, plain: list[Audit], probes: list[dict],
               zeta: list[float]) -> dict[str, float]:
    if runner.workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(a.rss_kb for a in plain)
    return {
        "audit_s_p50": statistics.median(a.seconds for a in plain),
        "points_per_s": sum(a.case.points for a in plain) / sum(a.seconds for a in plain),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": rss_kb * 1024 / 1e6,
        "zeta_err_max": max(zeta, default=0.0),
    }


def per_layer(traced: list[Audit], plain: list[Audit], probes: list[dict],
              import_s: float | None) -> dict[str, float]:
    layers = [a.layers for a in traced if a.layers is not None]
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]} if layers else {}
    metrics["mna.import_s"] = import_s if import_s is not None else 0.0
    metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    metrics["trace.overhead_frac"] = (statistics.median(a.seconds for a in traced)
                                      / statistics.median(a.seconds for a in plain) - 1.0)
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_reference() -> dict:
    """The stored reference outputs; fails unless the sources are present."""
    if not (SRC / "loopscope" / "cli.py").is_file():
        raise BenchError(f"loopscope sources not found under {SRC}")
    reference = _read_json(HERE / "reference.json")
    if reference is None:
        raise BenchError("perfbench/reference.json is missing or unreadable")
    return reference


def bench(args: argparse.Namespace, reference: dict, workdir: Path) -> dict:
    sys.path.insert(0, str(SRC))
    workload = make_workload(args.workload, args.seed)
    workload.write_files(workdir)
    host = host_block()
    probe_before = speed_probe()
    runner = Runner(workload, workdir)
    import_s = mna_import_s(workdir) if args.trace else None
    warm, plain, traced, probes = run_audits(runner, args.seconds, bool(args.trace))
    probe_after = speed_probe()

    audits = [warm, *plain, *traced]
    failed, zeta = check_audits(audits, reference["cases"])
    if args.trace:
        metrics = per_layer(traced, plain, probes, import_s)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(runner, plain, probes, zeta)
        units = END_TO_END_UNITS

    absent = sorted({name for a in traced for name in a.absent}
                    | ({"mna.import_s"} if args.trace and import_s is None else set()))
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "host": host, "speed_probe": {"before": probe_before, "after": probe_after},
              "cases": [c.key for c in workload.cases],
              "audit_s": [a.seconds for a in plain], "traced_audit_s": [a.seconds for a in traced],
              "setup_probes": probes, "metrics": metrics, "absent": absent,
              "traced_layers": [a.layers for a in traced]}
    WORK.mkdir(exist_ok=True)
    (WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {workload.name}, seed {args.seed}: {len(plain)} timed audits "
          f"+ 1 warm-up, {len(traced)} traced, {failed} of {len(audits)} failed")
    print("host " + json.dumps(host))
    print("speed probe before " + json.dumps(probe_before) + " after " + json.dumps(probe_after))
    if absent:
        print("absent (name no longer exists, reads 0): " + ", ".join(absent))
    for name, value in metrics.items():
        samples = f" (n={len(plain)})" if name == "audit_s_p50" else ""
        print(f"{name} {value:.6g} {units[name]}{samples}")
    return {"correct": failed == 0, "attempted": len(audits), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK / f"run-{os.getpid()}"
    try:
        reference = load_reference()
        workdir.mkdir(parents=True)
        result = bench(args, reference, workdir)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
