"""One workload in a fresh interpreter; started by run.py.

Prints ``READY`` as soon as the workload is set up (imports, configuration,
immersions), so the parent can time set-up from process start.  Unless
``--setup-only`` is given it then measures and prints one JSON line of raw
figures.  Everything runs on this process's single thread.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
#: seconds between calibrations during a run: the host's speed holds for longer
CALIBRATE_EVERY_S = 0.1
sys.path.insert(0, str(ROOT / "src"))

import prodform_geo  # noqa: E402

if Path(prodform_geo.__file__).resolve().parent != ROOT / "src" / "prodform_geo":
    raise SystemExit(f"prodform_geo imported from {prodform_geo.__file__}, not from this checkout")

import probes  # noqa: E402
import workloads  # noqa: E402
from segments import Segments  # noqa: E402
from tracer import Tracer  # noqa: E402


class Tally:
    """Operations attempted and failed: each check, each repeat comparison,
    each check-count comparison and each run that raised."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference: bytes | None = None
        self.notes: list[str] = []

    def _op(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)

    def report(self, report) -> None:
        for check in report.checks:
            self._op(check.passed, f"check failed: {check.name}")
        n = len(report.checks)
        self._op(n == self.workload.expected_checks, f"{n} checks, expected {self.workload.expected_checks}")
        written = self.workload.out.read_bytes()
        if self.reference is None:
            self.reference = written
        else:
            self._op(written == self.reference, "report differs from the first report of this seed")

    def error(self, exc: BaseException) -> None:
        if len(self.notes) < 10:
            traceback.print_exception(exc, file=sys.stderr)
        self._op(False, f"run raised {type(exc).__name__}: {exc}")


def timed_run(workload, tally: Tally, segments: Segments | None = None):
    """One run from start to verdict: (wall seconds, cpu seconds, report or None).
    With ``segments`` the seconds leave out the calibrations made during the run."""
    report = None
    if segments is not None:
        segments.start()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        report = workload.run()
    except Exception as exc:  # a failed run is counted and the benchmark goes on
        tally.error(exc)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if segments is not None:
        wall, cpu = segments.stop()
    if report is not None:
        tally.report(report)
    return wall, cpu, report


def repeat(workload, tally: Tally, seconds: float, min_runs: int) -> dict[str, list[float]]:
    """Run until ``seconds`` have passed and at least ``min_runs`` are done.
    Returns, per run that did not raise (or per run, if all raised), its wall
    and CPU seconds, raw and at the reference host speed (segments.py)."""
    ok = []
    segments = Segments(workload.cuts(), every=CALIBRATE_EVERY_S)
    segments.install()
    try:
        begin = time.perf_counter()
        while len(ok) < min_runs or time.perf_counter() - begin < seconds:
            _, _, report = timed_run(workload, tally, segments)
            ok.append(report is not None)
    finally:
        segments.uninstall()
    keep = ok if any(ok) else [True] * len(ok)
    norm_wall, norm_cpu = segments.normalized()
    figures = {
        "wall_s": [r["wall"][-1] - r["wall"][0] for r in segments.runs],
        "cpu_s": [r["cpu"][-1] - r["cpu"][0] for r in segments.runs],
        "norm_wall_s": norm_wall,
        "norm_cpu_s": norm_cpu,
    }
    return {k: [float(x) for x, k_ in zip(v, keep) if k_] for k, v in figures.items()}


def traced(workload, tally: Tally, untraced_wall: float, name: str) -> dict[str, float]:
    """Per-layer metrics.  The traced section is the fixed count probes, which
    enter every layer, followed by one run of the workload: self times cover
    the whole section, counts only the workload run."""
    metrics = probes.time_calls()
    tracer = Tracer()
    tracer.install()
    try:
        metrics.update(probes.count_work(tracer))
        before = tracer.calls()
        wall, _, report = timed_run(workload, tally)
    finally:
        tracer.uninstall()
    tracer.write(OUT_DIR / f"trace-{name}.npz")
    calls = {n: c - before.get(n, 0) for n, c in tracer.calls().items()}
    per_name, per_layer = tracer.self_times()
    units = workload.units
    metrics.update(
        {
            "spaceform.vector_new": calls.get("spaceform.ModelVector.__init__", 0) / units,
            "spaceform.self_s": per_layer["spaceform"],
            "ambient.product_metric.calls": calls.get("ambient.product_metric", 0) / units,
            "ambient.self_s": per_layer["ambient"],
            "hypersurface.self_s": per_layer["hypersurface"],
            "jacobi.frame_shape_at.calls": calls.get("jacobi.frame_shape_at", 0),
            "jacobi.self_s": per_layer["jacobi"],
            "classify.isoparametric_report.self_s": per_name.get("classify.isoparametric_report", 0.0),
            "cli.self_s": per_layer["cli"],
            "cli.render_s": per_layer["cli.render"],
            "trace_overhead": wall / untraced_wall,
        }
    )
    errors = workloads.err_to_tol(report) if report is not None else dict.fromkeys(workloads.ERROR_LAYERS, 0.0)
    metrics.update({f"{layer}.err_to_tol": ratio for layer, ratio in errors.items()})
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, args.small, OUT_DIR)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tally = Tally(workload)
    if args.trace:
        # half the time untraced gives the base of trace_overhead
        result = repeat(workload, tally, args.seconds / 2, min_runs=1)
    else:
        result = repeat(workload, tally, args.seconds, min_runs=2)
    result.update(
        units=workload.units,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.trace:
        result["per_layer"] = traced(workload, tally, min(result["wall_s"]), args.workload)
    result.update(attempted=tally.attempted, failed=tally.failed, notes=tally.notes)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
