"""The benchmark's two workloads and the queries each pass runs.

A pass is a fixed list of queries; each query returns a value that is
compared with an answer from ``reference``.  The seed only renames
variables (each renaming maps a generator to plus or minus itself, so
the work done is the same for every seed) and picks the small permutations
the ``cli`` workload composes.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

# E_6 budget: ideals.identities_slice charges comb(64+n-1, n) tuples for
# the 64-dimensional exterior algebra, 119,877,472 at n = 6, against the
# default of 10**7, although it enumerates only the ~877 tuples of disjoint
# support.  The benchmark passes enough to cover that charge.
E6_BUDGET = 120_000_000

PLANTED = object()  # an expected answer that no result equals


@dataclass
class Query:
    label: str
    run: Callable[[], object]
    expected: object


@dataclass(frozen=True)
class SeededInputs:
    """Everything the seed chooses.  The renamings map each generator to
    plus or minus itself; the permutations feed the cli phi and compose."""

    s4_relabel: tuple[int, ...]
    s3_relabel: tuple[int, ...]
    pair: tuple[int, int]
    phi_seq: tuple[int, ...]
    outer: tuple[int, ...]
    slot: int
    inner: tuple[int, ...]
    overall: int

    @classmethod
    def from_seed(cls, seed: int) -> "SeededInputs":
        rng = random.Random(seed)
        return cls(
            s4_relabel=tuple(rng.sample(range(1, 5), 4)),
            s3_relabel=tuple(rng.sample(range(1, 4), 3)),
            pair=(1, 2) if rng.random() < 0.5 else (2, 1),
            phi_seq=tuple(rng.sample(range(1, 6), 5)),
            outer=tuple(rng.sample(range(1, 5), 4)),
            slot=rng.randint(1, 4),
            inner=tuple(rng.sample(range(1, 4), 3)),
            overall=rng.choice((1, -1)),
        )


class Workload:
    """A set-up starts a fresh interpreter that imports oplab, which every
    user process pays once (and which compiles the byte code in a fresh
    checkout), then builds the workload's inputs."""

    traced_by_recorder = True
    setups = 3  # set-ups per run; setup_s is their median

    def __init__(self, inputs: SeededInputs, reduced: bool, src: Path, out: Path) -> None:
        self.inputs = inputs
        self.reduced = reduced
        self.out = out
        self.env = {k: v for k, v in os.environ.items() if k != "OPLAB_CACHE_DIR"}
        self.env["PYTHONPATH"] = str(src)

    def setup(self) -> list[Query]:
        subprocess.run([sys.executable, "-c", "import oplab.cli"], env=self.env, check=True)
        return self._queries()

    def before_pass(self) -> None:
        pass

    def close(self) -> None:
        pass


class LibraryWorkload(Workload):
    """Calls oplab in-process; peak memory and CPU are this process's.

    One pass covers both sides of the correspondence and the round trip
    between them, in that order.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        import oplab  # noqa: F401  (this process's own import is not a set-up)

    def _queries(self) -> list[Query]:
        return self._identities() + self._generated() + self._roundtrip()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def process_counters(self) -> tuple[float, int]:
        return time.process_time(), sum(g["collections"] for g in gc.get_stats())

    # -- the three parts of a pass -------------------------------------------

    def _identities(self) -> list[Query]:
        from oplab import (
            codimension, grassmann_algebra, is_identity, matrix_algebra, parse_poly,
        )

        # Both constructors memoise; clear them so every set-up builds.
        grassmann_algebra.cache_clear()
        matrix_algebra.cache_clear()
        generators, arities, m2_max = (4, (3, 4), 3) if self.reduced else (6, (5, 6), 5)
        exterior = grassmann_algebra(generators)
        m2 = matrix_algebra(2)
        s4 = parse_poly(ref.standard_poly_text(4, self.inputs.s4_relabel))
        s3 = parse_poly(ref.standard_poly_text(3, self.inputs.s3_relabel))
        queries = [
            Query(
                f"codim E_{generators} n={n}",
                lambda n=n: codimension(exterior, n, budget=E6_BUDGET),
                ref.grassmann_codimension(n),
            )
            for n in arities
        ]
        queries += [
            Query(f"codim M_2 n={n}", lambda n=n: codimension(m2, n), ref.matrix2_codimension(n))
            for n in range(1, m2_max + 1)
        ]
        queries += [
            Query("s_4 is an identity of M_2", lambda: is_identity(s4, m2), True),
            Query("s_3 is not an identity of M_2", lambda: is_identity(s3, m2), False),
        ]
        return queries

    def _generated(self) -> list[Query]:
        # The arity-6 slice of [[x1,x2],x3] is left to the cli workload,
        # whose ideal-dim call computes it and writes it to the cache.
        from oplab import (
            GeneratorSet, ideal_slice_spanning, membership, parse_poly, poly_to_operad,
        )

        n = 4 if self.reduced else 6
        a, b = self.inputs.pair
        comm = poly_to_operad(parse_poly(ref.commutator_text(a, b)))
        s4 = poly_to_operad(parse_poly(ref.standard_poly_text(4, self.inputs.s4_relabel)))
        comm_gens = GeneratorSet([comm])
        both_gens = GeneratorSet([comm, s4])
        s4_gens = GeneratorSet([s4])
        queries = [
            Query(f"[x1,x2] slice n={n}",
                  lambda: ideal_slice_spanning(comm_gens, n).dim, ref.commutator_slice_dim(n)),
            Query(f"[x1,x2], s_4 slice n={n}",
                  lambda: ideal_slice_spanning(both_gens, n).dim, ref.commutator_slice_dim(n)),
        ]
        queries += [
            Query(f"s_4 slice n={k}",
                  lambda k=k: ideal_slice_spanning(s4_gens, k).dim, ref.standard_slice_dim(k))
            for k in range(1, 5)
        ]
        queries.append(
            Query("s_4 in the [x1,x2] ideal",
                  lambda: membership(s4, comm_gens), True)
        )
        return queries

    def _roundtrip(self) -> list[Query]:
        from oplab import GeneratorSet, parse_poly, poly_to_operad, roundtrip_check

        max_arity = 3 if self.reduced else 5
        a, b = self.inputs.pair
        s4_text = ref.standard_poly_text(4, self.inputs.s4_relabel)
        s4_gens = GeneratorSet([poly_to_operad(parse_poly(s4_text))])
        lie3_gens = GeneratorSet([poly_to_operad(parse_poly(ref.lie3_text(a, b)))])
        return [
            Query(f"round trip s_4 to arity {max_arity}",
                  lambda: roundtrip_check(s4_gens, max_arity).per_arity,
                  {k: True for k in range(1, max_arity + 1)}),
            Query(f"round trip [[x1,x2],x3] to arity {max_arity}",
                  lambda: roundtrip_check(lie3_gens, max_arity).per_arity,
                  {k: True for k in range(1, max_arity + 1)}),
        ]


_ELAPSED = re.compile(r"elapsed_ms=([0-9.]+)")
_CACHE_HIT = re.compile(r"cache_hit=(True|False)")


class CliWorkload(Workload):
    """Cold-process ``oplab`` calls, one child at a time."""

    traced_by_recorder = False
    # A set-up here is little more than a 0.1-s interpreter start, whose
    # jitter is a quarter of it; more samples keep the median steady.
    setups = 9

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.cache = self.out / f"cache-{os.getpid()}"
        self.trace_dir: Path | None = None
        self.reset_stats()

    def reset_stats(self) -> None:
        self.calls = 0
        self.wall_s = 0.0
        self.handler_s = 0.0
        self.child_totals: list[dict] = []

    def _call(self, *args: str) -> tuple[dict, bool | None]:
        if self.trace_dir is None:
            command = [sys.executable, "-m", "oplab.cli", *args]
        else:
            stem = self.trace_dir / f"trace-cli-{self.calls}"
            traced = Path(__file__).with_name("traced_cli.py")
            command = [sys.executable, str(traced), str(stem), *args]
        started = time.perf_counter()
        proc = subprocess.run(command, env=self.env, capture_output=True, text=True, timeout=170)
        wall = time.perf_counter() - started
        elapsed = _ELAPSED.search(proc.stderr)
        if proc.returncode != 0 or elapsed is None:
            raise RuntimeError(
                f"oplab {args[0]} exited {proc.returncode}: "
                f"{proc.stdout.strip()} {proc.stderr.strip()}"
            )
        self.calls += 1
        self.wall_s += wall
        self.handler_s += float(elapsed.group(1)) / 1000.0
        if self.trace_dir is not None:
            layout = json.loads(stem.with_suffix(".json").read_text())
            self.child_totals.append(layout["totals"])
        hit = _CACHE_HIT.search(proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])["result"]
        return result, (hit.group(1) == "True") if hit else None

    def setup(self) -> list[Query]:
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir(parents=True)
        return super().setup()

    def _queries(self) -> list[Query]:
        seeded = self.inputs
        n = 4 if self.reduced else 6
        a, b = seeded.pair
        phi_seq, outer, slot, inner = seeded.phi_seq, seeded.outer, seeded.slot, seeded.inner
        matrix = json.dumps({"type": "matrix", "k": 2})
        grassmann = json.dumps({"type": "grassmann", "generators": 4})
        lie3 = ref.lie3_text(a, b)
        cache = str(self.cache)
        composed = ref.partial_compose_seq(outer, slot, inner)

        def element(seq):
            return "1*(" + ",".join(map(str, seq)) + ")"

        def first(*args):
            return self._call(*args)[0]

        expected_dim = {"arity": n, "dim": ref.lie3_slice_dim(n), "ambient_dim": math.factorial(n)}
        s4_element = ref.standard_element_text(4, seeded.overall)
        ideal_dim = ("ideal-dim", "--polys", lie3, "--n", str(n), "--cache-dir", cache)
        return [
            Query("phi", lambda: first("phi", "--element", element(phi_seq)),
                  {"poly": ref.monomial_text(phi_seq)}),
            Query("compose", lambda: first("compose", "--outer", element(outer), "--slot",
                                           str(slot), "--inner", element(inner)),
                  {"element": element(composed), "arity": len(composed)}),
            Query("check-identity s_4 on M_2",
                  lambda: first("check-identity", "--poly",
                                ref.standard_poly_text(4, seeded.s4_relabel), "--algebra", matrix),
                  {"identity": True}),
            Query("min-degree M_2", lambda: first("min-degree", "--algebra", matrix, "--max", "4"),
                  {"min_degree": 4}),
            Query("codim E_4 n=4", lambda: first("codim", "--algebra", grassmann, "--n", "4"),
                  {"codim": ref.grassmann_codimension(4)}),
            Query("membership s_4 in [x1,x2]",
                  lambda: first("membership", "--element", s4_element,
                                "--polys", ref.commutator_text(a, b)),
                  {"member": True}),
            Query(f"ideal-dim n={n}, cache write", lambda: self._call(*ideal_dim),
                  (expected_dim, False)),
            Query(f"ideal-dim n={n}, cache read", lambda: self._call(*ideal_dim),
                  (expected_dim, True)),
        ]

    def before_pass(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir(parents=True)
        self.reset_stats()

    def close(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def process_counters(self) -> tuple[float, int]:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        gc_total = sum(t["process.gc_collections"] for t in self.child_totals)
        return usage.ru_utime + usage.ru_stime, gc_total


NAMES = ("library", "cli")


def make(name: str, seed: int, reduced: bool, src: Path, out: Path):
    inputs = SeededInputs.from_seed(seed)
    if name == "cli":
        return CliWorkload(inputs, reduced, src, out)
    return LibraryWorkload(inputs, reduced, src, out)
