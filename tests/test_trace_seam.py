"""The benchmark's span recorder (perfbench/spans.py) wraps oplab functions
by name from outside the package.  This test runs it against the library,
so that renaming or re-shaping a wrapped function fails here instead of
silently breaking a traced benchmark run.  It only reads perfbench."""

import importlib
import sys
from pathlib import Path

import oplab
import oplab.ideals as ideals
from oplab import GeneratorSet, matrix_algebra, parse_poly, poly_to_operad

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def queries():
    gens = GeneratorSet([poly_to_operad(parse_poly("x1*x2 - x2*x1"))])
    # Called through the modules, where the recorder patches the names.
    return (
        ideals.ideal_slice_spanning(gens, 4),
        oplab.identities_slice(matrix_algebra(2), 4),
    )


def test_recorder_wraps_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    try:
        untraced = queries()
        recorder = spans.Recorder()
        recorder.install()
        try:
            patched = list(recorder._restore)
            traced = queries()
        finally:
            recorder.uninstall()
        assert traced == untraced
        totals = recorder.totals()
        assert totals["ideals.saturate.rows_added"] > 0
        assert totals["linalg.insert.grew"] > 0
        assert totals["ideals.evaluate.tuples"] > 0
        assert "_saturate_under_action" in {attr for _, attr, _ in patched}
        for owner, attr, original in patched:
            assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
        assert queries() == untraced
    finally:
        sys.modules.pop("spans", None)
