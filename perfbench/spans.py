"""Spans around calls into oplab's layers, recorded from outside the package.

A Recorder replaces chosen oplab functions with timing wrappers, at every
place where an oplab module holds them (``oplab.operad.block_compose`` as
well as ``oplab.perms.block_compose``), and restores the originals on
``uninstall``.  Each wrapped call becomes one span: a name, a start, an end
and the index of the span that was open when it began.  Spans stay in
memory (four flat arrays) until ``dump`` writes them out.

Nothing here is imported by an untraced run: untraced runs install no
wrapper.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (span name, module, attribute) of every timed function.  The attribute
# is looked up on the module and patched wherever oplab holds it.
_TIMED = [
    ("perms.block_compose", "oplab.perms", "block_compose"),
    ("operad.full_compose", "oplab.operad", "full_compose"),
    ("freealg.parse_poly", "oplab.freealg", "parse_poly"),
    ("freealg.poly_to_operad", "oplab.freealg", "poly_to_operad"),
    ("freealg.operad_to_poly", "oplab.freealg", "operad_to_poly"),
    ("algebras.grassmann_algebra", "oplab.algebras", "grassmann_algebra"),
    ("algebras.matrix_algebra", "oplab.algebras", "matrix_algebra"),
    ("algebras.algebra_from_spec", "oplab.algebras", "algebra_from_spec"),
    ("ideals.identities_slice", "oplab.ideals", "identities_slice"),
    ("ideals.cache.save", "oplab.ideals", "save_slice_file"),
    ("ideals.cache.load", "oplab.ideals", "load_slice_file"),
    ("linalg.kernel", "oplab.linalg", "RowBasis.kernel"),
]
_FREEALG = ("freealg.parse_poly", "freealg.poly_to_operad", "freealg.operad_to_poly")
_BUILD = (
    "algebras.grassmann_algebra",
    "algebras.matrix_algebra",
    "algebras.algebra_from_spec",
)


class Recorder:
    """Records one span per wrapped call while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts = {
            "ideals.spanning.core_vectors": 0,
            "ideals.evaluate.tuples": 0,
            "ideals.saturate.rows_added": 0,
            "linalg.insert.grew": 0,
        }
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _timed(self, name: str, fn, grew: str | None = None):
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack,
        )
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if grew is not None and result:
                counts[grew] += 1
            return result

        if hasattr(fn, "cache_clear"):  # keep a memoised function's interface
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _timed_steps(self, name: str, counter: str, fn):
        """Wrap a generator function: each step to its next item is a span."""
        step = self._timed(name, next)
        counts = self.counts

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    item = step(iterator)
                except StopIteration:
                    return
                counts[counter] += 1
                yield item

        return wrapper

    def _counted(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[counter] += 1
                yield item

        return wrapper

    def _saturate(self, fn):
        counts = self.counts

        def wrapper(basis, arity):
            before = basis.rank
            try:
                return fn(basis, arity)
            finally:
                counts["ideals.saturate.rows_added"] += basis.rank - before

        return self._timed("ideals.saturate", wrapper)

    def _slice(self, fn):
        plain = self._timed("ideals.slice", fn)
        cached = self._timed("ideals.slice.cached", fn)

        def wrapper(*args, **kwargs):
            if kwargs.get("cache_dir") is not None:
                return cached(*args, **kwargs)
            return plain(*args, **kwargs)

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _patch(self, module: str, attr: str, wrapper) -> None:
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(sys.modules[module], owner_name)
            self._restore.append((owner, method, owner.__dict__[method]))
            setattr(owner, method, wrapper(owner.__dict__[method]))
            return
        original = getattr(sys.modules[module], attr)
        wrapped = wrapper(original)
        for name, mod in list(sys.modules.items()):
            if name != "oplab" and not name.startswith("oplab."):
                continue
            if getattr(mod, attr, None) is original:
                self._restore.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def install(self) -> None:
        import oplab.cli  # noqa: F401  (loads every module that holds a name)

        for name, module, attr in _TIMED:
            self._patch(module, attr, lambda fn, name=name: self._timed(name, fn))
        self._patch(
            "oplab.linalg", "RowBasis.insert",
            lambda fn: self._timed("linalg.insert", fn, grew="linalg.insert.grew"),
        )
        self._patch(
            "oplab.ideals", "_spanning_core_vectors",
            lambda fn: self._timed_steps(
                "ideals.spanning", "ideals.spanning.core_vectors", fn
            ),
        )
        self._patch("oplab.ideals", "_saturate_under_action", self._saturate)
        self._patch("oplab.ideals", "ideal_slice_spanning", self._slice)
        for attr in ("_disjoint_multisets", "combinations_with_replacement"):
            self._patch(
                "oplab.ideals", attr,
                lambda fn: self._counted("ideals.evaluate.tuples", fn),
            )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Additive per-layer sums over every span recorded so far.

        Self time is a span's duration minus the durations of its direct
        children; calls nest, so the children never overlap.
        """
        count = len(self.start)
        names = self.names
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        child = array("d", bytes(8 * count))
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        at = {name: i for i, name in enumerate(names)}
        calls = [0] * len(names)
        total = [0.0] * len(names)
        self_time = [0.0] * len(names)
        # Totals that exclude calls nested inside a call of the same group.
        outer_total: dict[str, float] = {"freealg": 0.0, "build": 0.0}
        groups = {
            **{at[n]: "freealg" for n in _FREEALG},
            **{at[n]: "build" for n in _BUILD},
        }
        spanning_id = at["ideals.spanning"]
        compose_id = at["operad.full_compose"]
        save_id = at["ideals.cache.save"]
        cached_id = at["ideals.slice.cached"]
        spanning_composes = 0
        saved_under: set[int] = set()
        cached_spans = 0
        for i in range(count):
            nid = name_id[i]
            duration = end[i] - start[i]
            calls[nid] += 1
            total[nid] += duration
            self_time[nid] += duration - child[i]
            p = parent[i]
            group = groups.get(nid)
            if group is not None and (p < 0 or groups.get(name_id[p]) != group):
                outer_total[group] += duration
            if nid == compose_id and p >= 0 and name_id[p] == spanning_id:
                spanning_composes += 1
            elif nid == save_id and p >= 0:
                saved_under.add(p)
            elif nid == cached_id:
                cached_spans += 1
        misses = sum(1 for p in saved_under if name_id[p] == cached_id)

        out = {
            "perms.block_compose.calls": calls[at["perms.block_compose"]],
            "perms.block_compose.s": total[at["perms.block_compose"]],
            "operad.full_compose.calls": calls[at["operad.full_compose"]],
            "operad.full_compose.self_s": self_time[at["operad.full_compose"]],
            "ideals.spanning.self_s": self_time[at["ideals.spanning"]],
            "ideals.spanning.compose_calls": spanning_composes,
            "ideals.saturate.s": total[at["ideals.saturate"]],
            "ideals.evaluate.self_s": self_time[at["ideals.identities_slice"]],
            "ideals.cache.save_s": total[at["ideals.cache.save"]],
            "ideals.cache.load_s": total[at["ideals.cache.load"]],
            "ideals.cache.hits": cached_spans - misses,
            "ideals.cache.misses": misses,
            "linalg.insert.calls": calls[at["linalg.insert"]],
            "linalg.insert.self_s": self_time[at["linalg.insert"]],
            "linalg.kernel.s": total[at["linalg.kernel"]],
            "algebras.build.s": outer_total["build"],
            "freealg.s": outer_total["freealg"],
        }
        out.update(self.counts)
        return out

    def dump(self, stem: Path, totals: dict) -> None:
        """Write the spans as ``<stem>.json`` (names, layout, totals) and
        ``<stem>.bin`` (the four arrays, one after another, native order)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as handle:
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(handle)
        layout = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [
                ["name_id", self.name_id.typecode, self.name_id.itemsize],
                ["parent", self.parent.typecode, self.parent.itemsize],
                ["start", self.start.typecode, self.start.itemsize],
                ["end", self.end.typecode, self.end.itemsize],
            ],
            "byteorder": sys.byteorder,
            "totals": totals,
        }
        stem.with_suffix(".json").write_text(json.dumps(layout, indent=1) + "\n")
