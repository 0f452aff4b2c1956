"""Small-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload at small size through run.py, untraced (all four in one
command) and traced (one command each), and checks that the last line of
output is a correct result naming exactly the metrics of BENCHMARK.json with
their units.  Then checks that the benchmark exits non-zero, printing no
result, in a directory that holds only BENCHMARK.json and the benchmark.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench(spec: dict, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = spec["command"] + ["--seed", "7", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def expect_result(proc: subprocess.CompletedProcess, want: dict[str, str], label: str) -> list[str]:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: not correct: {proc.stderr.strip()[-400:]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        problems.append(f"{label}: metrics missing {missing}, extra {extra}, wrong units {wrong}")
    bad = [n for n, m in result["metrics"].items() if not isinstance(m["value"], (int, float))]
    if bad:
        problems.append(f"{label}: non-numeric values {bad}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    proc = bench(spec, ROOT, "--workload", "all", "--trace", "0", "--small")
    want = {f"{w}.{n}": u for w in workloads for n, u in end_to_end.items()}
    problems += expect_result(proc, want, "all --trace 0")
    for w in workloads:
        proc = bench(spec, ROOT, "--workload", w, "--trace", "1", "--small")
        problems += expect_result(proc, per_layer, f"{w} --trace 1")

    bare = ROOT / ".perfbench" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(spec, bare, "--workload", workloads[0], "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip().startswith("{") or '"metrics"' in proc.stdout:
            problems.append("bare directory: the benchmark did not refuse to run")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
