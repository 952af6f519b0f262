"""oplab benchmark: fixed workloads, checked answers, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is library, cli, or ``all``, which runs both in a fresh interpreter
each, one after another.  A run sets the
workload up several times (setup_s is the median set-up: a fresh
interpreter importing oplab, then building the inputs),
then runs whole passes over its queries for about S seconds, at least one
(solve_s is the median pass).  Every answer is checked against
``reference``; a query that raises or returns a wrong answer counts as
failed.  With ``--trace 1`` the run then sets up and runs one more pass
with spans recorded and prints the per-layer metrics instead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (each a value and a unit).  Results and span dumps go to
perfbench/out/.  ``--selfcheck`` shrinks the inputs and plants one wrong
expected answer; see selfcheck.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES, PLANTED, make

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "perms.block_compose.calls": "count",
    "perms.block_compose.s": "s",
    "operad.full_compose.calls": "count",
    "operad.full_compose.self_s": "s",
    "ideals.spanning.self_s": "s",
    "ideals.spanning.core_vectors": "count",
    "ideals.spanning.nonzero_ratio": "ratio",
    "ideals.saturate.s": "s",
    "ideals.saturate.rows_added": "count",
    "ideals.evaluate.self_s": "s",
    "ideals.evaluate.tuples": "count",
    "ideals.cache.save_s": "s",
    "ideals.cache.load_s": "s",
    "ideals.cache.hits": "count",
    "ideals.cache.misses": "count",
    "linalg.insert.calls": "count",
    "linalg.insert.grew": "count",
    "linalg.insert.self_s": "s",
    "linalg.kernel.s": "s",
    "algebras.build.s": "s",
    "freealg.s": "s",
    "cli.calls": "count",
    "cli.startup_s": "s",
    "cli.handler_s": "s",
    "process.cpu_s": "s",
    "process.gc_collections": "count",
    "trace.overhead_s": "s",
}


class Tally:
    """Operations attempted and failed; wrong answers are failures too."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def run_pass(self, queries) -> tuple[float, dict[str, float]]:
        """Run every query once; returns the pass's wall time and each query's."""
        times = {}
        started = time.perf_counter()
        for query in queries:
            self.attempted += 1
            query_started = time.perf_counter()
            try:
                value = query.run()
            except Exception as exc:  # one failed operation; the pass goes on
                self.failed += 1
                self._note(f"{query.label}: {type(exc).__name__}: {exc}")
                continue
            finally:
                times[query.label] = time.perf_counter() - query_started
            if value != query.expected:
                self.failed += 1
                self.wrong += 1
                self._note(f"{query.label}: got {value!r}")
        return time.perf_counter() - started, times

    def _note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)
            print(f"perfbench: failed {text}", file=sys.stderr)


def _setup(workload, selfcheck: bool):
    queries = workload.setup()
    if selfcheck:
        queries[0].expected = PLANTED
    return queries


def _traced_pass(workload, name: str, selfcheck: bool, tally: Tally, untraced_solve: float) -> dict:
    """One more set-up and pass with spans recorded; the per-layer metrics."""
    recorder = None
    if workload.traced_by_recorder:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    else:
        workload.trace_dir = OUT
    try:
        queries = _setup(workload, selfcheck)
        workload.before_pass()
        cpu_before, gc_before = workload.process_counters()
        traced_solve, _ = tally.run_pass(queries)
        cpu_after, gc_after = workload.process_counters()
    finally:
        if recorder is not None:
            recorder.uninstall()
    if recorder is not None:
        totals = recorder.totals()
        recorder.dump(OUT / f"trace-{name}", totals)
    else:
        totals = {}
        for child in workload.child_totals:
            for key, value in child.items():
                totals[key] = totals.get(key, 0) + value
    compose_calls = totals.get("ideals.spanning.compose_calls", 0)
    metrics = {key: totals.get(key, 0) for key in PER_LAYER}
    metrics["ideals.spanning.nonzero_ratio"] = (
        totals["ideals.spanning.core_vectors"] / compose_calls if compose_calls else 0.0
    )
    if not workload.traced_by_recorder:
        metrics["cli.calls"] = workload.calls
        metrics["cli.startup_s"] = workload.wall_s - workload.handler_s
        metrics["cli.handler_s"] = workload.handler_s
    metrics["process.cpu_s"] = cpu_after - cpu_before
    metrics["process.gc_collections"] = gc_after - gc_before
    metrics["trace.overhead_s"] = traced_solve - untraced_solve
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, selfcheck: bool) -> dict:
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = make(name, seed, selfcheck, SRC, OUT)
    tally = Tally()
    passes = []
    setup_times = []
    try:
        for _ in range(1 if trace else workload.setups):  # a traced run reports no setup_s
            started = time.perf_counter()
            queries = _setup(workload, selfcheck)
            setup_times.append(time.perf_counter() - started)
        # Whole passes only: start another while it should end within the
        # measuring time, judged by the median pass so far; at least one.
        measuring = time.perf_counter()
        while True:
            workload.before_pass()
            passes.append(tally.run_pass(queries))
            solve_s = statistics.median(wall for wall, _ in passes)
            if time.perf_counter() - measuring + solve_s > seconds:
                break
        if trace:
            values = _traced_pass(workload, name, selfcheck, tally, solve_s)
            units = PER_LAYER
        else:
            values = {
                "solve_s": solve_s,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": workload.peak_rss_mb(),
            }
            units = END_TO_END
    finally:
        workload.close()
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "selfcheck": selfcheck,
        "setup_times_s": setup_times,
        "passes": [{"wall_s": wall, "queries_s": times} for wall, times in passes],
        "failures": tally.notes,
        "result": result,
    }
    (OUT / f"result-{name}-trace{int(trace)}.json").write_text(json.dumps(details, indent=1) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="reduced inputs and one planted wrong expected answer")
    args = parser.parse_args(argv)
    if not (SRC / "oplab" / "cli.py").is_file():
        print(f"perfbench: no oplab sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in NAMES:
            command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.selfcheck:
                command.append("--selfcheck")
            code = subprocess.run(command).returncode or code
        return code
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.selfcheck)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
