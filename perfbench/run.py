"""Benchmark of the prodform-geo verification toolkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gallery --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Each workload runs in a fresh interpreter (worker.py) on one thread, one
process at a time.  Set-up is timed over several fresh interpreters and
reported as a median; every run's report is checked (all checks pass, the
expected number of checks, byte-identical repeats for the seed).

A workload is repeated for ``--seconds``.  The host is shared and its speed
changes by a factor of about 1.7 within seconds, so raw run times say more
about other tenants than about the program.  Each run is therefore cut into
short segments and a fixed reference kernel is timed every 0.1 s
(segments.py, calibrate.py); ``wall_s`` and ``cpu_s`` are the median over
the runs of the run's seconds with each segment scaled to the reference host
speed, and ``setup_s`` is scaled by the kernel's time just before each
interpreter starts.  The kernel never runs the program, so a change to the
program moves these figures as it moves the raw ones.  The raw median is
printed alongside, with the number of runs.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the worker adds a traced run and per-call probes and the
metrics are the per-layer ones.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  For ``--workload
all`` its metric names are prefixed with the workload name.

Exit status is 0 when a result is printed, even if checks failed (then
``correct`` is false), and 2 when nothing could be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fresh interpreters timed for set-up, the measuring worker included
SETUP_SAMPLES = 9
#: a worker still running after this long is killed and the run fails
WORKER_TIMEOUT_S = 170.0
#: one thread for the numeric libraries as well
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """Nothing could be measured."""


def _worker(name: str, args, setup_only: bool) -> tuple[float, dict | None]:
    """Start one worker; return its set-up seconds at the reference host speed
    and, unless set-up only, its result."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    cmd += ["--small"] if args.small else []
    cmd += ["--setup-only"] if setup_only else []
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    speed = calibrate.host_speed()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = (time.perf_counter() - t0) * calibrate.REFERENCE_S / speed
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker for {name} failed (exit {code})")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def measure(name: str, args) -> dict:
    setups = []
    if not args.trace:
        setups = [_worker(name, args, setup_only=True)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, result = _worker(name, args, setup_only=False)
    setups.append(setup)
    for note in result["notes"]:
        print(f"{name}: {note}", file=sys.stderr)
    wall = statistics.median(result["norm_wall_s"])
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "cpu_s": statistics.median(result["norm_cpu_s"]),
            "units_per_s": result["units"] / wall,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    return {
        "name": name,
        "runs": len(result["wall_s"]),
        "median_wall_s": statistics.median(result["wall_s"]),
        "setups": len(setups),
        "units": result["units"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _print_human(res: dict, trace: int, units: dict[str, str]) -> None:
    print(
        f"== {res['name']}: {res['runs']} untraced runs of {res['units']} units, "
        f"raw median wall {res['median_wall_s']:.6g} s"
        + ("" if trace else f"; set-up timed {res['setups']} times")
    )
    for key, value in res["metrics"].items():
        print(f"  {key:<40} {value:.6g} {units[key]}")
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'fail_ratio':<40} {ratio:.6g} ({res['failed']} of {res['attempted']} operations)")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in spec["workloads"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the self-check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "prodform_geo" / "__init__.py").is_file():
        print(f"error: no prodform_geo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads if args.workload == "all" else (args.workload,)
    try:
        results = [measure(name, args) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for res in results:
        _print_human(res, args.trace, units)

    prefix = len(results) > 1
    metrics = {
        (f"{res['name']}.{key}" if prefix else key): {"value": value, "unit": units[key]}
        for res in results
        for key, value in res["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
