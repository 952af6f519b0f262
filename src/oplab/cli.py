"""Command-line interface: batch subcommands with deterministic JSON output.

Results go to stdout as JSON with sorted keys (byte-identical across
repeated invocations); timing and cache diagnostics go to stderr so they
never perturb the canonical output.  Exit codes: 0 success, 1 domain
error (structured error object on stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .algebras import algebra_from_spec, is_identity, is_identity_general
from .freealg import (
    format_poly,
    multilinearize,
    operad_to_poly,
    parse_poly,
    poly_to_operad,
)
from .ideals import (
    CACHE_SUFFIX,
    DEFAULT_BUDGET,
    GeneratorSet,
    codimension,
    full_slice_map,
    ideal_slice_closure,
    ideal_slice_spanning,
    identities_slice,
    lowest_arity,
    membership,
    min_identity_degree,
    roundtrip_check,
    slices_equal,
    verify_ideal_closure,
)
from .operad import format_element, full_compose, parse_element, partial_compose


def _load_text(value: str) -> str:
    if value.startswith("@"):
        return Path(value[1:]).read_text()
    return value


def _load_algebra(value: str):
    return algebra_from_spec(json.loads(_load_text(value)))


def _split_items(text: str) -> list[str]:
    return [chunk.strip() for chunk in text.split(";") if chunk.strip()]


def _generator_set(args, which: str = "") -> GeneratorSet:
    gens_arg = getattr(args, f"gens{which}", None)
    polys_arg = getattr(args, f"polys{which}", None)
    elements = []
    if gens_arg is not None:
        elements.extend(
            parse_element(chunk) for chunk in _split_items(_load_text(gens_arg))
        )
    if polys_arg is not None:
        elements.extend(
            poly_to_operad(parse_poly(chunk))
            for chunk in _split_items(_load_text(polys_arg))
        )
    if not elements:
        raise ValueError("no generators given (use --gens or --polys)")
    return GeneratorSet(elements, args.mode)


def _cache_dir(args) -> str | None:
    return args.cache_dir or os.environ.get("OPLAB_CACHE_DIR")


def _cmd_check_identity(args, diag) -> dict:
    algebra = _load_algebra(args.algebra)
    polys = []
    if args.poly is not None:
        polys.extend(parse_poly(c) for c in _split_items(_load_text(args.poly)))
    if args.poly_file is not None:
        polys.extend(
            parse_poly(c) for c in _split_items(Path(args.poly_file).read_text())
        )
    if not polys:
        raise ValueError("no polynomial given (use --poly or --poly-file)")
    verdicts = []
    for poly in polys:
        if poly.multilinear_arity() is not None:
            verdicts.append(is_identity(poly, algebra))
        else:
            verdicts.append(is_identity_general(poly, algebra))
    if len(verdicts) == 1:
        return {"identity": verdicts[0]}
    return {"identities": verdicts}


def _cmd_min_degree(args, diag) -> dict:
    algebra = _load_algebra(args.algebra)
    degree = min_identity_degree(algebra, args.max, budget=args.budget)
    return {"min_degree": degree}


def _cmd_codim(args, diag) -> dict:
    algebra = _load_algebra(args.algebra)
    return {"codim": codimension(algebra, args.n, budget=args.budget)}


def _cmd_ideal_dim(args, diag) -> dict:
    gens = _generator_set(args)
    if args.algorithm == "closure":
        slice_ = ideal_slice_closure(gens, args.n)
    else:
        diag["cache_hit"] = False  # a slice that no generator reaches skips the cache
        slice_ = ideal_slice_spanning(gens, args.n, cache_dir=_cache_dir(args), stats=diag)
    return {"arity": args.n, "dim": slice_.dim, "ambient_dim": slice_.basis.dimension}


def _cmd_membership(args, diag) -> dict:
    gens = _generator_set(args)
    theta = parse_element(args.element)
    return {"member": membership(theta, gens, cache_dir=_cache_dir(args))}


def _cmd_slices_equal(args, diag) -> dict:
    first = _generator_set(args, "1")
    second = _generator_set(args, "2")
    return {"equal": slices_equal(first, second, args.max_arity)}


def _cmd_roundtrip(args, diag) -> dict:
    gens = _generator_set(args)
    report = roundtrip_check(gens, args.max_arity)
    return {
        "ok": report.ok,
        "arities": {str(n): ok for n, ok in sorted(report.per_arity.items())},
    }


def _cmd_closure_verify(args, diag) -> dict:
    if args.algebra is not None:
        algebra = _load_algebra(args.algebra)
        slices = {
            n: identities_slice(algebra, n, budget=args.budget)
            for n in range(1, args.max_arity + 1)
        }
    else:
        gens = _generator_set(args)
        slices = full_slice_map(gens, args.max_arity)
    report = verify_ideal_closure(slices, args.max_arity, args.mode)
    return {"closed": report.ok, "checked": report.checked, "failure": report.failure}


def _cmd_phi(args, diag) -> dict:
    if (args.element is None) == (args.poly is None):
        raise ValueError("give exactly one of --element or --poly")
    if args.element is not None:
        theta = parse_element(args.element)
        return {"poly": format_poly(operad_to_poly(theta))}
    poly = parse_poly(args.poly)
    return {"element": format_element(poly_to_operad(poly))}


def _cmd_multilinearize(args, diag) -> dict:
    poly = parse_poly(_load_text(args.poly))
    return {"polys": [format_poly(p) for p in multilinearize(poly)]}


def _cmd_compose(args, diag) -> dict:
    outer = parse_element(args.outer)
    if (args.parts is None) == (args.inner is None):
        raise ValueError("give either --slot/--inner or --parts")
    if args.inner is not None:
        if args.slot is None:
            raise ValueError("--inner needs --slot")
        pieces = [parse_element(args.inner)]
    else:
        pieces = [parse_element(chunk) for chunk in _split_items(args.parts)]
    if any(p.arity < lowest_arity(args.mode) for p in pieces):
        raise ValueError("arity-0 arguments are not available in nonunital mode")
    if args.inner is not None:
        result = partial_compose(outer, args.slot, pieces[0])
    else:
        result = full_compose(outer, pieces)
    return {"element": format_element(result), "arity": result.arity}


def _cmd_cache(args, diag) -> dict:
    directory = _cache_dir(args)
    if directory is None:
        raise ValueError("no cache directory (use --cache-dir or OPLAB_CACHE_DIR)")
    root = Path(directory)
    entries = sorted(root.glob(f"*{CACHE_SUFFIX}")) if root.exists() else []
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
    orphans = sorted(root.glob(f"*{CACHE_SUFFIX}*.tmp")) if root.exists() else []
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


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--mode", choices=["unital", "nonunital"], default="unital")
    fmt = shared.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="compact JSON (default)")
    fmt.add_argument("--pretty", action="store_true", help="indented JSON")

    # Flags that only some subcommands read are attached to those alone.
    gens, budget, cache_dir = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    gens.add_argument("--gens")
    gens.add_argument("--polys")
    budget.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
