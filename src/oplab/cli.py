"""Command-line interface: batch subcommands with deterministic JSON output.

Results go to stdout as JSON with sorted keys (byte-identical across
repeated invocations); timing and cache diagnostics go to stderr so they
never perturb the canonical output.  Exit codes: 0 success, 1 domain
error (structured error object on stdout), 2 usage error.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from . import __version__, algebras, freealg, ideals, linalg, operad


def _load_text(value: str) -> str:
    if value.startswith("@"):
        return Path(value[1:]).read_text()
    return value


def _load_algebra(value: str):
    return algebras.algebra_from_spec(json.loads(_load_text(value)))


def _split_items(text: str) -> list[str]:
    return [chunk.strip() for chunk in text.split(";") if chunk.strip()]


def _generator_set(args, which: str = "") -> ideals.GeneratorSet:
    gens_arg = getattr(args, f"gens{which}", None)
    polys_arg = getattr(args, f"polys{which}", None)
    elements = []
    if gens_arg is not None:
        elements.extend(
            operad.parse_element(chunk) for chunk in _split_items(_load_text(gens_arg))
        )
    if polys_arg is not None:
        elements.extend(
            freealg.poly_to_operad(freealg.parse_poly(chunk))
            for chunk in _split_items(_load_text(polys_arg))
        )
    if not elements:
        raise ValueError("no generators given (use --gens or --polys)")
    return ideals.GeneratorSet(elements, args.mode)


def _cache_dir(args) -> str | None:
    return args.cache_dir or os.environ.get("OPLAB_CACHE_DIR")


def _cmd_check_identity(args, diag) -> dict:
    algebra = _load_algebra(args.algebra)
    polys = []
    if args.poly is not None:
        polys.extend(freealg.parse_poly(c) for c in _split_items(_load_text(args.poly)))
    if args.poly_file is not None:
        polys.extend(
            freealg.parse_poly(c) for c in _split_items(Path(args.poly_file).read_text())
        )
    if not polys:
        raise ValueError("no polynomial given (use --poly or --poly-file)")
    verdicts = []
    for poly in polys:
        if poly.multilinear_arity() is not None:
            verdicts.append(algebras.is_identity(poly, algebra))
        else:
            verdicts.append(algebras.is_identity_general(poly, algebra))
    if len(verdicts) == 1:
        return {"identity": verdicts[0]}
    return {"identities": verdicts}


def _cmd_min_degree(args, diag) -> dict:
    algebra = _load_algebra(args.algebra)
    degree = ideals.min_identity_degree(algebra, args.max, budget=args.budget)
    return {"min_degree": degree}


def _cmd_codim(args, diag) -> dict:
    algebra = _load_algebra(args.algebra)
    return {"codim": ideals.codimension(algebra, args.n, budget=args.budget)}


def _cmd_ideal_dim(args, diag) -> dict:
    gens = _generator_set(args)
    if args.algorithm == "closure":
        slice_ = ideals.ideal_slice_closure(gens, args.n)
    else:
        diag["cache_hit"] = False  # a slice that no generator reaches skips the cache
        slice_ = ideals.ideal_slice_spanning(gens, args.n, cache_dir=_cache_dir(args), stats=diag)
    return {"arity": args.n, "dim": slice_.dim, "ambient_dim": slice_.basis.dimension}


def _cmd_membership(args, diag) -> dict:
    gens = _generator_set(args)
    theta = operad.parse_element(args.element)
    return {"member": ideals.membership(theta, gens, cache_dir=_cache_dir(args))}


def _cmd_slices_equal(args, diag) -> dict:
    first = _generator_set(args, "1")
    second = _generator_set(args, "2")
    return {"equal": ideals.slices_equal(first, second, args.max_arity)}


def _cmd_roundtrip(args, diag) -> dict:
    gens = _generator_set(args)
    report = ideals.roundtrip_check(gens, args.max_arity)
    return {
        "ok": report.ok,
        "arities": {str(n): ok for n, ok in sorted(report.per_arity.items())},
    }


def _cmd_closure_verify(args, diag) -> dict:
    if args.algebra is not None:
        algebra = _load_algebra(args.algebra)
        slices = {
            n: ideals.identities_slice(algebra, n, budget=args.budget)
            for n in range(1, args.max_arity + 1)
        }
    else:
        gens = _generator_set(args)
        slices = ideals.full_slice_map(gens, args.max_arity)
    report = ideals.verify_ideal_closure(slices, args.max_arity, args.mode)
    return {"closed": report.ok, "checked": report.checked, "failure": report.failure}


def _cmd_phi(args, diag) -> dict:
    if (args.element is None) == (args.poly is None):
        raise ValueError("give exactly one of --element or --poly")
    if args.element is not None:
        theta = operad.parse_element(args.element)
        return {"poly": freealg.format_poly(freealg.operad_to_poly(theta))}
    poly = freealg.parse_poly(args.poly)
    return {"element": operad.format_element(freealg.poly_to_operad(poly))}


def _cmd_multilinearize(args, diag) -> dict:
    poly = freealg.parse_poly(_load_text(args.poly))
    return {"polys": [freealg.format_poly(p) for p in freealg.multilinearize(poly)]}


def _cmd_compose(args, diag) -> dict:
    outer = operad.parse_element(args.outer)
    if (args.parts is None) == (args.inner is None):
        raise ValueError("give either --slot/--inner or --parts")
    if args.inner is not None:
        if args.slot is None:
            raise ValueError("--inner needs --slot")
        pieces = [operad.parse_element(args.inner)]
    else:
        pieces = [operad.parse_element(chunk) for chunk in _split_items(args.parts)]
    if any(p.arity < operad.lowest_arity(args.mode) for p in pieces):
        raise ValueError("arity-0 arguments are not available in nonunital mode")
    if args.inner is not None:
        result = operad.partial_compose(outer, args.slot, pieces[0])
    else:
        result = operad.full_compose(outer, pieces)
    return {"element": operad.format_element(result), "arity": result.arity}


def _cmd_cache(args, diag) -> dict:
    directory = _cache_dir(args)
    if directory is None:
        raise ValueError("no cache directory (use --cache-dir or OPLAB_CACHE_DIR)")
    root = Path(directory)
    entries = sorted(root.glob(f"*{ideals.CACHE_SUFFIX}")) if root.exists() else []
    if args.action == "list":
        listed = []
        for path in entries:
            try:
                with path.open(encoding="utf-8") as handle:
                    handle.readline()
                    header = handle.readline().rstrip("\n")
            except (OSError, UnicodeDecodeError):
                listed.append({"file": path.name, "header": "", "unreadable": True})
                continue
            listed.append({"file": path.name, "header": header})
        return {"entries": listed}
    # Temp files of writers that died before their atomic rename.
    orphans = sorted(root.glob(f"*{ideals.CACHE_SUFFIX}*.tmp")) if root.exists() else []
    for path in entries + orphans:
        path.unlink()
    return {"removed": len(entries) + len(orphans)}


_HANDLERS = {
    "check-identity": _cmd_check_identity,
    "min-degree": _cmd_min_degree,
    "codim": _cmd_codim,
    "ideal-dim": _cmd_ideal_dim,
    "membership": _cmd_membership,
    "slices-equal": _cmd_slices_equal,
    "roundtrip": _cmd_roundtrip,
    "closure-verify": _cmd_closure_verify,
    "phi": _cmd_phi,
    "multilinearize": _cmd_multilinearize,
    "compose": _cmd_compose,
    "cache": _cmd_cache,
}


# Commands whose handlers need no `ideals`.  main() runs `ideals` for every
# other command before argparse loads.  When no bytecode is cached, compiling
# `ideals` and the modules it imports takes a few MB of scratch memory; run
# after the parser is built, that scratch adds to the parser's memory and
# raises such a call's peak RSS by 0.4-0.6 MB.
_WITHOUT_IDEALS = frozenset({"check-identity", "compose", "multilinearize", "phi"})


def build_parser() -> "argparse.ArgumentParser":
    import argparse

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--mode", choices=["unital", "nonunital"], default="unital")
    fmt = shared.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="compact JSON (default)")
    fmt.add_argument("--pretty", action="store_true", help="indented JSON")

    # Flags that only some subcommands read are attached to those alone.
    gens, budget, cache_dir = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    gens.add_argument("--gens")
    gens.add_argument("--polys")
    budget.add_argument("--budget", type=int, default=linalg.DEFAULT_BUDGET)
    cache_dir.add_argument("--cache-dir", default=None)

    parser = argparse.ArgumentParser(
        prog="oplab",
        description="Exact computations with symmetric-group ideals and polynomial identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-identity", parents=[shared])
    p.add_argument("--poly")
    p.add_argument("--poly-file")
    p.add_argument("--algebra", required=True)

    p = sub.add_parser("min-degree", parents=[shared, budget])
    p.add_argument("--algebra", required=True)
    p.add_argument("--max", type=int, required=True)

    p = sub.add_parser("codim", parents=[shared, budget])
    p.add_argument("--algebra", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("ideal-dim", parents=[shared, gens, cache_dir])
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--algorithm",
        choices=["spanning", "closure"],
        default="spanning",
        help="closure skips the cache",
    )

    p = sub.add_parser("membership", parents=[shared, gens, cache_dir])
    p.add_argument("--element", required=True)

    p = sub.add_parser("slices-equal", parents=[shared])
    p.add_argument("--gens1")
    p.add_argument("--polys1")
    p.add_argument("--gens2")
    p.add_argument("--polys2")
    p.add_argument("--max-arity", type=int, required=True)

    p = sub.add_parser("roundtrip", parents=[shared, gens])
    p.add_argument("--max-arity", type=int, required=True)

    p = sub.add_parser("closure-verify", parents=[shared, gens, budget])
    p.add_argument("--algebra")
    p.add_argument("--max-arity", type=int, required=True)

    p = sub.add_parser("phi", parents=[shared])
    p.add_argument("--element")
    p.add_argument("--poly")

    p = sub.add_parser("multilinearize", parents=[shared])
    p.add_argument("--poly", required=True)

    p = sub.add_parser("compose", parents=[shared])
    p.add_argument("--outer", required=True)
    p.add_argument("--slot", type=int)
    p.add_argument("--inner")
    p.add_argument("--parts")

    p = sub.add_parser("cache", parents=[shared, cache_dir])
    p.add_argument("action", choices=["list", "gc"])

    return parser


def _echo_params(args) -> dict:
    skip = {"command", "json", "pretty"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    }


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] and argv[0] in _HANDLERS and argv[0] not in _WITHOUT_IDEALS:
        ideals.GeneratorSet  # the first attribute access runs the module
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    diag: dict = {}
    started = time.monotonic()
    payload: dict = {"command": args.command, "version": __version__}
    payload["params"] = _echo_params(args)
    style = {"indent": 2} if args.pretty else {"separators": (",", ":")}
    try:
        payload["result"] = _HANDLERS[args.command](args, diag)
        # Inside the try: str() refuses an int past the interpreter's digit limit.
        text = json.dumps(payload, sort_keys=True, **style)
        code = 0
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        payload.pop("result", None)
        payload["error"] = {"type": type(exc).__name__, "message": str(exc)}
        text = json.dumps(payload, sort_keys=True, **style)
        code = 1
    elapsed_ms = (time.monotonic() - started) * 1000.0
    print(text)
    notes = " ".join(f"{k}={v}" for k, v in sorted(diag.items()))
    print(
        f"oplab: elapsed_ms={elapsed_ms:.1f}{' ' + notes if notes else ''}",
        file=sys.stderr,
    )
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
