"""Command line interface: parse the arguments, run certify, render.

Subcommands:

* ``hvec``     h-vector of one bouquet by any or all of three routes
* ``classify`` Gorenstein / almost Gorenstein classification
* ``facets``   facet listing of the initial-ideal complex
* ``gens``     toric ideal generators and their leading monomials
* ``verify``   run every internal consistency check over a parameter sweep
* ``table``    CSV summary over a parameter sweep

Exit codes are a stable contract: 0 success, 1 mathematical disagreement
(a route that raises ValueError included), 2 usage or I/O error.  All
numeric output is exact decimal integers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .certify import CHECK_NAMES, ROUTES, bouquet_report, sweep_compositions, verify_composition
from .composition import OddCycleComposition, bits, build_from_k, build_from_r
from .record import Record, _set
from .srcomplex import facets_brute_force, facets_closed_form
from .srcomplex import h_by_complex  # noqa: F401  (perfbench/ reaches it through cli)
from .toric import generators, initial_monomials, leading_monomial


class UsageError(Exception):
    pass


class SweepRange(Record):
    """Bounds for sweep subcommands; mirrors the feasible region N >= n >= 1."""

    __slots__ = ("max_n", "max_N", "hilbert_degree", "enable_buchberger",
                 "enable_bruteforce_complex")

    def __init__(
        self,
        max_n: int,
        max_N: int,
        hilbert_degree: int = 4,
        enable_buchberger: bool = True,
        enable_bruteforce_complex: bool = True,
    ) -> None:
        if not (max_N >= max_n >= 1):
            raise UsageError("need max-N >= max-n >= 1")
        if hilbert_degree < 0:
            raise UsageError("hilbert degree must be nonnegative")
        _set(self, "max_n", max_n)
        _set(self, "max_N", max_N)
        _set(self, "hilbert_degree", hilbert_degree)
        _set(self, "enable_buchberger", enable_buchberger)
        _set(self, "enable_bruteforce_complex", enable_bruteforce_complex)


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse integer list {text!r}") from None


def composition_from_args(args: argparse.Namespace) -> OddCycleComposition:
    if getattr(args, "r", None):
        try:
            return build_from_r(_parse_ints(args.r))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if getattr(args, "k", None):
        try:
            return build_from_k(_parse_ints(args.k))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    raise UsageError("one of --r or --k is required")


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, two-space indent, no floats ever."""
    return json.dumps(payload, indent=2, sort_keys=True)


def _fmt_ints(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


# The CSV columns, in order; the JSON payload adds methods_agree.
_CSV_FIELDS = ("r", "n", "N", "h", "s", "facets", "type", "e_tilde",
               "gorenstein", "almost_gorenstein")


def _cell(value) -> str:
    """A payload value as text: lists joined by semicolons, lowercase booleans."""
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return json.dumps(value)


def _csv_row(payload: dict) -> str:
    return ",".join(_cell(payload[field]) for field in _CSV_FIELDS)


def _print_report(c: OddCycleComposition, payload: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(canonical_json(payload))
    elif fmt == "csv":
        print(",".join(_CSV_FIELDS))
        print(_csv_row(payload))
    else:
        print(f"r = {_fmt_ints(c.r)}  k = {_fmt_ints(c.k)}  n = {c.n}  N = {c.N}")
        for line in text_lines:
            print(line)


def cmd_hvec(args: argparse.Namespace) -> int:
    c = composition_from_args(args)
    payload, hs, _ = bouquet_report(c, ROUTES if args.method == "all" else [args.method])
    agree = payload["methods_agree"]
    lines = [f"h[{name}] = {_fmt_ints(h.coeffs)}" for name, h in hs.items()]
    if len(hs) > 1:
        lines.append(f"agree = {_cell(agree)}")
    _print_report(c, payload, args.format, lines)
    return 0 if agree else 1


def cmd_classify(args: argparse.Namespace) -> int:
    c = composition_from_args(args)
    payload, _, ok = bouquet_report(c, ROUTES)
    _print_report(c, payload, args.format, [
        f"h = {_fmt_ints(payload['h'])}  s = {payload['s']}",
        f"type = {payload['type']}  e_tilde = {payload['e_tilde']}",
        f"gorenstein = {_cell(payload['gorenstein'])}",
        f"almost_gorenstein = {_cell(payload['almost_gorenstein'])}",
        f"matches_characterization = {_cell(ok)}",
    ])
    if not payload["methods_agree"]:
        print("h-vector routes disagree", file=sys.stderr)
    return 0 if payload["methods_agree"] and ok else 1


def _facet_line(c: OddCycleComposition, facet: int) -> str:
    return " ".join(c.edge_name(v) for v in bits(facet))


def cmd_facets(args: argparse.Namespace) -> int:
    c = composition_from_args(args)
    if args.method == "brute":
        try:
            cx = facets_brute_force(initial_monomials(c), c.edge_count)
        except ValueError as exc:
            raise UsageError(f"{exc} ({c.edge_count} edges)") from None
    else:
        cx = facets_closed_form(c)
    lines = sorted(_facet_line(c, f) for f in cx.facets)
    if args.format == "json":
        print(canonical_json({
            "r": list(c.r),
            "n": c.n,
            "N": c.N,
            "facet_count": len(cx.facets),
            "facets": [line.split() for line in lines],
        }))
    else:
        for line in lines:
            print(line)
        plural = "s" if len(cx.facets) != 1 else ""
        print(f"total {len(cx.facets)} facet{plural} of size {c.vertex_count}")
    return 0


def _monomial_names(c: OddCycleComposition, m) -> list[str]:
    return [c.edge_name(i) for i, _ in m.exps]


def cmd_gens(args: argparse.Namespace) -> int:
    c = composition_from_args(args)
    gens = generators(c)
    if args.format == "json":
        print(canonical_json({
            "r": list(c.r),
            "n": c.n,
            "N": c.N,
            "generators": [
                {
                    "plus": _monomial_names(c, g.plus),
                    "minus": _monomial_names(c, g.minus),
                    "leading": _monomial_names(c, leading_monomial(g)),
                }
                for g in gens
            ],
        }))
    else:
        if not gens:
            print("no generators (single cycle)")
        for g in gens:
            plus = "*".join(_monomial_names(c, g.plus))
            minus = "*".join(_monomial_names(c, g.minus))
            print(f"{plus} - {minus}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    rng = SweepRange(
        max_n=args.max_n,
        max_N=args.max_N,
        hilbert_degree=args.hilbert_degree,
        enable_buchberger=not args.no_buchberger,
        enable_bruteforce_complex=not args.no_bruteforce,
    )
    comps = sweep_compositions(rng.max_n, rng.max_N)
    failures: list[tuple[tuple[int, ...], str]] = []
    started = time.perf_counter()
    header = f"{'k':<22}" + "".join(f"{name:>12}" for name in CHECK_NAMES)
    print(header)
    for c in comps:
        results = verify_composition(c, rng)
        row = f"{_fmt_ints(c.k):<22}" + "".join(f"{results[name]:>12}" for name in CHECK_NAMES)
        print(row)
        for name, status in results.items():
            if status == "FAIL":
                failures.append((c.k, name))
    elapsed = time.perf_counter() - started
    print(f"{len(comps)} compositions checked in {elapsed:.2f}s")
    if failures:
        print("FAILURES:")
        for ks, name in failures:
            print(f"  k={ks}: {name}")
        return 1
    print("all checks passed")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    rng = SweepRange(max_n=args.max_n, max_N=args.max_N)
    comps = sweep_compositions(rng.max_n, rng.max_N)
    lines = [",".join(_CSV_FIELDS)]
    failed = []
    for c in comps:
        payload, _, ok = bouquet_report(c, ROUTES)
        lines.append(_csv_row(payload))
        if not (payload["methods_agree"] and ok):
            failed.append(c.k)
    text = "\n".join(lines) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(comps)} rows to {args.out}")
    if failed:
        print(f"h-vector routes disagree or the characterization fails for {failed}",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddbouquet",
        description="h-vectors and Gorenstein classification for edge rings "
                    "of odd cycles glued at one vertex",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = argparse.ArgumentParser(add_help=False)
    group = comp.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", help="cycle counts, e.g. 1,1,1 (r_j cycles of length 2j+1)")
    group.add_argument("--k", help="cycle half-lengths, e.g. 3,2,1 (cycle lengths 2k+1)")

    def fmt(*choices: str) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--format", choices=["text", *choices], default="text")
        return parent

    p = sub.add_parser("hvec", parents=[comp, fmt("json", "csv")], help="compute the h-vector")
    p.add_argument("--method", choices=[*ROUTES, "all"], default="all")
    p.set_defaults(func=cmd_hvec)

    p = sub.add_parser("classify", parents=[comp, fmt("json", "csv")],
                       help="Gorenstein / almost Gorenstein classification")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("facets", parents=[comp, fmt("json")], help="list facets")
    p.add_argument("--method", choices=["closed", "brute"], default="closed")
    p.set_defaults(func=cmd_facets)

    p = sub.add_parser("gens", parents=[comp, fmt("json")],
                       help="list toric ideal generators")
    p.set_defaults(func=cmd_gens)

    p = sub.add_parser("verify", help="run all consistency checks over a sweep")
    p.add_argument("--max-n", type=int, default=5, dest="max_n")
    p.add_argument("--max-N", type=int, default=8, dest="max_N")
    p.add_argument("--hilbert-degree", type=int, default=4, dest="hilbert_degree")
    p.add_argument("--no-buchberger", action="store_true")
    p.add_argument("--no-bruteforce", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="write a CSV summary over a sweep")
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.add_argument("--max-N", type=int, default=6, dest="max_N")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError):
        print("error: instance too large", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
