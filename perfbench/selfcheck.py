"""Fast self-check of the benchmark harness (under a minute).

Usage, from the root of a checkout:  python3 perfbench/selfcheck.py

For every workload, untraced and traced, it runs the benchmark command with
``--selfcheck``: reduced inputs and one planted wrong expected answer.  Each
run must exit 0, count the planted answer as one failed operation per pass,
report correct=false, and still print every metric BENCHMARK.json names,
with its unit.  Last, it copies only BENCHMARK.json and perfbench/ into an
empty directory and checks that the benchmark refuses to run there.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


def check_planted(spec: dict, name: str, trace: int) -> list[str]:
    proc = _run(ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--selfcheck")
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((OUT / f"result-{name}-trace{trace}.json").read_text())
    passes = len(details["passes"]) + trace
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(result)}")
    if result["correct"] is not False:
        problems.append(f"{where}: a planted wrong answer left correct={result['correct']}")
    if result["failed"] != passes:
        problems.append(f"{where}: {result['failed']} failed in {passes} passes, expected one each")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {key: metric["unit"] for key, metric in result["metrics"].items()}
    if printed != wanted:
        problems.append(f"{where}: metrics {printed} differ from BENCHMARK.json {wanted}")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append(f"{where}: a metric value is not a number")
    return problems


def check_refuses_without_sources(spec: dict) -> list[str]:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/ the benchmark exited {proc.returncode} and printed {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in NAMES:
        for trace in (0, 1):
            found = check_planted(spec, name, trace)
            print(f"{name} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    found = check_refuses_without_sources(spec)
    print(f"refuses without sources: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
