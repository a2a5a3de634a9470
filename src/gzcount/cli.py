"""Command line front end.

Subcommands: count, table, series, verify, cache, g4-explore.  Output is
deterministic byte for byte for fixed inputs and flags: coefficient
dumps use graded lexicographic order, JSON keys are sorted, and all
numbers are exact (integers, or rationals rendered p/q).

Exit codes: 0 success / verified, 1 usage error (also a cache file that
cannot be read or written), 2 verification failure, 3 resource limit
refused.  The environment variable GZCOUNT_CACHE names a default
persistent count-cache file; with a cache file, stdout is written only
after the cache has been saved.  A run that adds no entry to an existing
cache file does not rewrite it, so a read-only cache file serves lookups.
"""

from __future__ import annotations

# Only counting and limits are imported here: count, table, cache and
# g4-explore need nothing else of the package.  polyseries (with fractions and decimal),
# genfun and oracle are imported by the handlers that use them, which
# saves a count process about 20 ms of compiling them from source when no
# bytecode is cached, and about 1.8 MB of peak RSS.  The two are imported
# before argparse on purpose: compiling them before argparse and gettext
# are resident lowers a count or table process's peak RSS by about
# 0.1-0.3 MB.
from .counting import (
    TABLE_VARIANTS,
    CacheFormatError,
    CountCache,
    MultiplicityVector,
    a_infinity,
    binomial_formula_V,
    count_by_fiber_recursion,
    g4_explore,
    recurrence_V3,
    tri_table,
)
from .limits import DEFAULT_LIMIT_DIM, ResourceLimitError

import argparse
import contextlib
import io
import json
import os
import sys

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_LIMIT = 3

ENV_CACHE = "GZCOUNT_CACHE"

COUNT_METHODS = ("a-infinity", "fiber", "formula", "recurrence", "oracle")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def parse_partition(text: str) -> list[int]:
    """Parse '1,1,2,3' or '1^2 2 3' into a weakly increasing value list."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty partition expression")
    values: list[int] = []
    for tok in tokens:
        base, sep, power = tok.partition("^")
        try:
            value = int(base)
            mult = int(power) if sep else 1
        except ValueError:
            raise ValueError(f"bad partition token {tok!r}") from None
        if mult <= 0:
            raise ValueError(f"multiplicity must be positive in token {tok!r}")
        values.extend([value] * mult)
    if any(a > b for a, b in zip(values, values[1:])):
        raise ValueError(f"partition values must be weakly increasing: {values}")
    return values


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# ---------------------------------------------------------------- count


def _cmd_count(args, cache: CountCache | None) -> int:
    values = parse_partition(args.partition)
    mv = MultiplicityVector.from_partition(values)
    mults = mv.mults
    distinct = len(mults)
    ambient = len(values) * (len(values) - 1) // 2
    limit = args.limit_dim if args.limit_dim is not None else DEFAULT_LIMIT_DIM

    def run(method: str) -> int:
        if method == "a-infinity":
            return a_infinity(mults, cache)
        if method == "fiber":
            return count_by_fiber_recursion(mults)
        if method == "formula":
            if distinct != 3:
                raise ValueError(
                    f"method formula needs exactly 3 distinct values, got {distinct}"
                )
            return binomial_formula_V(*mults)
        if method == "recurrence":
            if distinct > 3:
                raise ValueError(
                    f"method recurrence needs at most 3 distinct values, got {distinct}"
                )
            padded = mults + (0,) * (3 - distinct)
            return recurrence_V3(*padded)
        if method == "oracle":
            from .oracle import GZShape, oracle_count

            return oracle_count(GZShape(tuple(values)), limit_dim=limit)
        raise ValueError(f"unknown method {method!r}")

    if args.method != "all":
        value = run(args.method)
        if args.format == "json":
            print(_json_dump({
                "partition": values,
                "multiplicities": list(mults),
                "counts": {args.method: str(value)},
                "agreement": True,
            }))
        else:
            print(value)
        return EXIT_OK

    chosen = ["a-infinity", "fiber"]
    if distinct == 3:
        chosen.append("formula")
    if distinct <= 3:
        chosen.append("recurrence")
    skipped_oracle = ambient > limit
    if not skipped_oracle:
        chosen.append("oracle")
    results = {}
    for method in chosen:
        try:
            results[method] = run(method)
        except (ResourceLimitError, RecursionError, MemoryError) as exc:
            raise ResourceLimitError(f"{method}: {str(exc) or type(exc).__name__}") from exc
    agree = len(set(results.values())) == 1

    if args.format == "json":
        print(_json_dump({
            "partition": values,
            "multiplicities": list(mults),
            "counts": {m: str(v) for m, v in results.items()},
            "oracle_skipped": skipped_oracle,
            "agreement": agree,
        }))
    else:
        for method in COUNT_METHODS:
            if method in results:
                print(f"{method} {results[method]}")
        if skipped_oracle:
            print(f"oracle skipped (ambient dimension {ambient} exceeds limit {limit})")
        print(f"agreement: {'ok' if agree else 'MISMATCH'}")
    if not agree:
        print("count mismatch between methods", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------- table


def _cmd_table(args, cache: None) -> int:
    table = tri_table(args.s, args.variant)
    if args.format == "json":
        cells = [
            {"k": k, "m": m, "value": table.entries[(k, m)]}
            for (k, m) in sorted(table.entries)
        ]
        print(_json_dump({"s": table.s, "variant": table.variant, "cells": cells}))
        return EXIT_OK
    lines = []
    for m in range(table.s, -1, -1):
        row = []
        for k in range(table.s + 1):
            cell = table.entries.get((k, m))
            row.append("" if cell is None else str(cell))
        lines.append(",".join(row))
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------- series


# Series name -> (fixed variable count or None, builder, variable names).
# A builder is called as builder(genfun, k, cap, cache); genfun is
# imported by the handler, so only a series process loads it.
_SERIES = {
    "E": (None, lambda g, k, cap, cache: g.build_E(k, cap, cache),
          lambda k: [f"z{i}" for i in range(1, k + 1)]),
    "G": (None, lambda g, k, cap, cache: g.build_G(k, cap, cache),
          lambda k: ["x", "y", "z"] if k == 3 else [f"y{i}" for i in range(1, k + 1)]),
    "G3closed": (3, lambda g, k, cap, cache: g.closed_form_G3(cap), lambda k: ["x", "y", "z"]),
    "E2closed": (2, lambda g, k, cap, cache: g.closed_form_E2(cap), lambda k: ["z1", "z2"]),
    "H": (3, lambda g, k, cap, cache: g.closed_form_H(cap), lambda k: ["x", "z", "y"]),
}


def _cmd_series(args, cache: CountCache | None) -> int:
    from . import genfun

    which = args.which
    fixed_k, build, variables = _SERIES[which]
    if fixed_k is not None:
        if args.k is not None and args.k != fixed_k:
            raise ValueError(f"series {which} has a fixed variable count {fixed_k}")
        k = fixed_k
    else:
        k = args.k if args.k is not None else 1
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")

    series = build(genfun, k, args.cap, cache)
    names = variables(k)
    rows = series.terms_sorted()
    if args.format == "json":
        print(_json_dump({
            "series": which,
            "k": k,
            "cap": args.cap,
            "variables": names,
            "terms": [
                {"exponents": list(e), "coefficient": str(c)}
                for e, c in rows
            ],
        }))
    else:
        print(",".join(names + ["coefficient"]))
        for e, c in rows:
            print(",".join([str(v) for v in e] + [str(c)]))
    return EXIT_OK


# ---------------------------------------------------------------- verify


def _parse_k_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        low = int(lo)
        high = int(hi) if sep else low
    except ValueError:
        raise ValueError(f"bad k range {text!r}; expected K or LO:HI") from None
    if low < 1 or high < low:
        raise ValueError(f"bad k range {text!r}")
    return low, high


def _cmd_verify(args, cache: CountCache | None) -> int:
    from .genfun import verify_dde_G, verify_e2, verify_g3, verify_h, verify_pde_E

    lo, hi = _parse_k_range(args.k)
    reports = []
    for suite, verify in (("pde", verify_pde_E), ("dde", verify_dde_G)):
        if args.suite in (suite, "all"):
            for k in range(lo, hi + 1):
                if args.cap < k:
                    raise ValueError(f"cap {args.cap} too small for {suite} at k = {k}")
                reports.append(verify(k, args.cap, cache))
    if args.suite in ("g3", "all"):
        reports.append(verify_g3(args.cap, cache))
    if args.suite in ("e2", "all"):
        reports.append(verify_e2(args.cap, cache))
    if args.suite in ("h", "all"):
        reports.append(verify_h(args.cap))

    ok = all(r.ok for r in reports)
    if args.format == "json":
        print(_json_dump({"ok": ok, "reports": [r.to_json_obj() for r in reports]}))
    elif args.format == "csv":
        print(reports[0].CSV_HEADER)
        for r in reports:
            print(r.to_csv_row())
    else:
        for r in reports:
            print(r.summary())
        print("all identities verified" if ok else "verification FAILED")
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------- cache


def _cmd_cache(args, cache: None) -> int:
    path = args.path or os.environ.get(ENV_CACHE)
    if not path:
        raise ValueError("no cache path given (use --path or set GZCOUNT_CACHE)")
    if args.action == "stats":
        cache = CountCache.load(path) if os.path.exists(path) else CountCache()
        stats = cache.stats()
        print(f"entries {stats['entries']}")
        print(f"max-total-degree {stats['max_total']}")
        return EXIT_OK
    if args.action == "load":
        cache = CountCache.load(path)
        print(f"loaded {len(cache)} entries from {path}")
        return EXIT_OK
    cache = CountCache.load(path) if os.path.exists(path) else CountCache()
    cache.save(path)
    print(f"saved {len(cache)} entries to {path}")
    return EXIT_OK


# ---------------------------------------------------------------- g4


def _cmd_g4(args, cache: CountCache | None) -> int:
    rows = g4_explore(args.cap, cache)
    if args.format == "json":
        print(_json_dump({
            "cap": args.cap,
            "rows": [{"mults": list(e), "count": str(c)} for e, c in rows],
        }))
    else:
        print("i1,i2,i3,i4,count")
        for e, c in rows:
            print(",".join(str(v) for v in e) + f",{c}")
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gzcount",
        description="Count vertices of Gelfand-Zetlin polytopes and verify "
        "the generating-function identities behind the counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count vertices of one polytope")
    p_count.add_argument("partition", help="partition, e.g. '1 2 3', '1,1,2' or '1^2 2 3'")
    p_count.add_argument("--method", choices=COUNT_METHODS + ("all",), default="a-infinity")
    p_count.add_argument("--cache", help="persistent count cache file")
    p_count.add_argument("--limit-dim", type=_non_negative_int, default=None,
                         help=f"oracle ambient-dimension guardrail (default {DEFAULT_LIMIT_DIM})")
    p_count.add_argument("--format", choices=("text", "json"), default="text")

    p_table = sub.add_parser("table", help="triangular count tables")
    p_table.add_argument("s", type=int)
    p_table.add_argument("--variant", choices=TABLE_VARIANTS, default="plain")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")

    p_series = sub.add_parser("series", help="dump a count series")
    p_series.add_argument("which", choices=tuple(_SERIES))
    p_series.add_argument("--k", type=int, default=None)
    p_series.add_argument("--cap", type=int, default=6)
    p_series.add_argument("--cache", help="persistent count cache file")
    p_series.add_argument("--format", choices=("csv", "json"), default="csv")

    p_verify = sub.add_parser("verify", help="machine-check the series identities")
    p_verify.add_argument("suite", choices=("pde", "dde", "g3", "e2", "h", "all"))
    p_verify.add_argument("--k", default="1:4", help="k or lo:hi range (pde/dde)")
    p_verify.add_argument("--cap", type=int, default=6)
    p_verify.add_argument("--cache", help="persistent count cache file")
    p_verify.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p_cache = sub.add_parser("cache", help="manage the persistent count cache")
    p_cache.add_argument("action", choices=("load", "save", "stats"))
    p_cache.add_argument("--path", help="cache file (default: GZCOUNT_CACHE)")

    p_g4 = sub.add_parser("g4-explore", help="dump four-value counts for exploration")
    p_g4.add_argument("--cap", type=int, default=4)
    p_g4.add_argument("--cache", help="persistent count cache file")
    p_g4.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


_DISPATCH = {
    "count": _cmd_count,
    "table": _cmd_table,
    "series": _cmd_series,
    "verify": _cmd_verify,
    "cache": _cmd_cache,
    "g4-explore": _cmd_g4,
}


def main(argv=None) -> int:
    # Exact counts and cache values may run to any number of digits;
    # Python 3.11 refuses to convert ints above 4,300 digits by default.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else int(exc.code)
    try:
        handler = _DISPATCH[args.command]
        # Subcommands with --cache share one count cache file: opened
        # before the handler runs, saved after it returns whatever the
        # exit code, so entries computed by a failing verify are kept.
        # Entries are only ever added, so a run that leaves the entry
        # count unchanged added nothing and leaves an existing file
        # untouched.  The handler's stdout is held back until the save
        # succeeds, so a run whose save fails prints no answer.
        # table and cache have no --cache option and get no count cache.
        path = (args.cache or os.environ.get(ENV_CACHE)) if "cache" in vars(args) else None
        if not path:
            return handler(args, None)
        existed = os.path.exists(path)
        cache = CountCache.load(path) if existed else CountCache()
        loaded = len(cache)
        with contextlib.redirect_stdout(io.StringIO()) as held:
            code = handler(args, cache)
        if not existed or len(cache) != loaded:
            cache.save(path)
        sys.stdout.write(held.getvalue())
        return code
    except (ResourceLimitError, RecursionError, MemoryError) as exc:
        print(f"gzcount: refused: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_LIMIT
    except BrokenPipeError:
        # The reader of stdout has gone; run() ends the process quietly.
        raise
    except (CacheFormatError, ValueError, OSError) as exc:
        # Any other OSError comes from the cache file, the one file
        # gzcount opens: a missing directory, a directory given as the
        # file or a denied permission ends here.
        print(f"gzcount: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    try:
        code = main()
        # Flushed here, not at exit, so a closed stdout raises in the try.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone (``gzcount table 300 | head -1``).
        # Point stdout at /dev/null so the flush at exit does not raise
        # again, and end without a message, as a pipeline expects.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    run()
