"""One ``oplab`` command-line call with spans recorded.

Usage: python3 perfbench/traced_cli.py STEM oplab-arguments...

Runs ``oplab.cli.main`` on the arguments with a span Recorder installed,
then writes the spans and their per-layer totals to STEM.json / STEM.bin.
Only traced runs of the cli workload start it; untraced runs call
``python3 -m oplab.cli`` directly.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import oplab.cli
from spans import Recorder


def main() -> int:
    stem = Path(sys.argv[1])
    recorder = Recorder()
    recorder.install()
    try:
        code = oplab.cli.main(sys.argv[2:])
    finally:
        recorder.uninstall()
    totals = recorder.totals()
    totals["process.gc_collections"] = sum(g["collections"] for g in gc.get_stats())
    recorder.dump(stem, totals)
    return code


if __name__ == "__main__":
    sys.exit(main())
