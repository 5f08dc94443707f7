"""Command line interface: parse the arguments, run certify, render.

Subcommands:

* ``hvec``     h-vector of one bouquet by any or all of three routes
* ``classify`` Gorenstein / almost Gorenstein classification
* ``facets``   facet listing of the initial-ideal complex
* ``gens``     toric ideal generators and their leading monomials
* ``verify``   run every internal consistency check over a parameter sweep
* ``table``    CSV summary over a parameter sweep

Exit codes are a stable contract, decided by ``main`` alone: 0 success; 1 a
mathematical disagreement; 2 a usage or I/O error (a closed stdout included)
or an instance too large (MemoryError, OverflowError, RecursionError).  Every
nonzero exit writes one ``error:`` line on stderr, after the command's output;
a stderr that cannot be written loses the line, not the code.
A disagreement is a route that raises ValueError, or: in hvec, a route that
disagrees with the report's h; in classify, that or a verdict against the
characterization; in verify, a FAIL; in table, a bouquet that fails as
classify would.  Commands render, then raise.  All numeric output is exact
decimal integers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import suppress

from .certify import CHECK_NAMES, ROUTES, bouquet_head, bouquet_report
from .certify import sweep_compositions, verify_composition
from .composition import OddCycleComposition, bits, build_from_k, build_from_r
from .record import Record, _set
from .srcomplex import facets_brute_force, facets_closed_form
from .srcomplex import h_by_complex  # noqa: F401  (perfbench/ reaches it through cli)
from .toric import generators, leading_monomial


class UsageError(Exception):
    pass


class SweepRange(Record):
    """Bounds for sweep subcommands; mirrors the feasible region N >= n >= 1.

    hilbert_degree is the top degree of verify's Hilbert series check.
    """

    __slots__ = ("max_n", "max_N", "hilbert_degree")

    def __init__(self, max_n: int, max_N: int, hilbert_degree: int = 4) -> None:
        if not (max_N >= max_n >= 1):
            raise UsageError("need max-N >= max-n >= 1")
        if hilbert_degree < 0:
            raise UsageError("hilbert degree must be nonnegative")
        _set(self, "max_n", max_n)
        _set(self, "max_N", max_N)
        _set(self, "hilbert_degree", hilbert_degree)


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse integer list {text!r}") from None


def composition_from_args(args: argparse.Namespace) -> OddCycleComposition:
    """The bouquet of --r or --k, whichever is set: argparse requires one."""
    build, text = (build_from_r, args.r) if args.r is not None else (build_from_k, args.k)
    try:
        return build(_parse_ints(text))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


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


def _print_report(payload: dict, fmt: str, text_lines: list[str]) -> None:
    """The one printer of a single-bouquet command: its payload or its text."""
    if fmt == "json":
        print(canonical_json(payload))
    elif fmt == "csv":
        print(",".join(_CSV_FIELDS))
        print(_csv_row(payload))
    else:
        for line in text_lines:
            print(line)


def _title(c: OddCycleComposition) -> str:
    return f"r = {_fmt_ints(c.r)}  k = {_fmt_ints(c.k)}  n = {c.n}  N = {c.N}"


def cmd_hvec(args: argparse.Namespace) -> None:
    c = composition_from_args(args)
    payload, hs, _ = bouquet_report(c, ROUTES if args.method == "all" else [args.method])
    agree = payload["methods_agree"]
    lines = [_title(c), *(f"h[{name}] = {_fmt_ints(h)}" for name, h in hs.items())]
    if len(hs) > 1:
        lines.append(f"agree = {_cell(agree)}")
    _print_report(payload, args.format, lines)
    if not agree:
        raise ValueError("h-vector routes disagree")


def cmd_classify(args: argparse.Namespace) -> None:
    c = composition_from_args(args)
    payload, _, ok = bouquet_report(c, ROUTES)
    _print_report(payload, args.format, [
        _title(c),
        f"h = {_fmt_ints(payload['h'])}  s = {payload['s']}",
        f"type = {payload['type']}  e_tilde = {payload['e_tilde']}",
        f"gorenstein = {_cell(payload['gorenstein'])}",
        f"almost_gorenstein = {_cell(payload['almost_gorenstein'])}",
        f"matches_characterization = {_cell(ok)}",
    ])
    faults = {"h-vector routes disagree": not payload["methods_agree"],
              "the classification does not match the characterization": not ok}
    if any(faults.values()):
        raise ValueError("; ".join(fault for fault, found in faults.items() if found))


def _names(c: OddCycleComposition, mask: int) -> list[str]:
    """The names of the edges in a bitmask, in flat order."""
    return [c.edge_name(v) for v in bits(mask)]


def cmd_facets(args: argparse.Namespace) -> None:
    c = composition_from_args(args)
    if args.method == "brute":
        try:
            cx = facets_brute_force([g.plus.mask for g in generators(c)], c.edge_count)
        except ValueError as exc:
            raise UsageError(f"{exc} ({c.edge_count} edges)") from None
    else:
        cx = facets_closed_form(c)
    lines = sorted(" ".join(_names(c, f)) for f in cx.facets)
    count = len(lines)
    plural = "s" if count != 1 else ""
    payload = {**bouquet_head(c), "facet_count": count,
               "facets": [line.split() for line in lines]}
    _print_report(payload, args.format,
                  [*lines, f"total {count} facet{plural} of size {c.vertex_count}"])


def cmd_gens(args: argparse.Namespace) -> None:
    c = composition_from_args(args)
    gens = [
        {
            "plus": _names(c, g.plus.mask),
            "minus": _names(c, g.minus.mask),
            "leading": _names(c, leading_monomial(g).mask),
        }
        for g in generators(c)
    ]
    lines = [f"{'*'.join(g['plus'])} - {'*'.join(g['minus'])}" for g in gens]
    _print_report({**bouquet_head(c), "generators": gens}, args.format,
                  lines or ["no generators (single cycle)"])


def cmd_verify(args: argparse.Namespace) -> None:
    rng = SweepRange(args.max_n, args.max_N, args.hilbert_degree)
    failures: list[tuple[tuple[int, ...], str]] = []
    started = time.perf_counter()
    header = f"{'k':<22}" + "".join(f"{name:>12}" for name in CHECK_NAMES)
    print(header)
    for count, c in enumerate(sweep_compositions(rng.max_n, rng.max_N), 1):
        results = verify_composition(c, rng)
        row = f"{_fmt_ints(c.k):<22}" + "".join(f"{results[name]:>12}" for name in CHECK_NAMES)
        print(row)
        for name, status in results.items():
            if status == "FAIL":
                failures.append((c.k, name))
    elapsed = time.perf_counter() - started
    print(f"{count} compositions checked in {elapsed:.2f}s")
    if failures:
        print("FAILURES:")
        for ks, name in failures:
            print(f"  k={ks}: {name}")
        raise ValueError(f"{len(failures)} checks failed")
    print("all checks passed")


def cmd_table(args: argparse.Namespace) -> None:
    rng = SweepRange(max_n=args.max_n, max_N=args.max_N)
    lines = [",".join(_CSV_FIELDS)]
    failed = []
    for c in sweep_compositions(rng.max_n, rng.max_N):
        payload, _, ok = bouquet_report(c, ROUTES)
        lines.append(_csv_row(payload))
        if not (payload["methods_agree"] and ok):
            failed.append(c.k)
    text = "\n".join(lines) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise UsageError(f"cannot write {args.out}: {exc}") from None
    count = len(lines) - 1
    plural = "s" if count != 1 else ""
    print(f"wrote {count} row{plural} to {args.out}")
    if failed:
        raise ValueError(f"h-vector routes disagree or the characterization fails for {failed}")


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        # argparse's own write swallows OSError, so an unbuffered --help into
        # a closed pipe would exit 0; a print leaves the error to main
        print(self.format_help(), end="", file=file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="write a CSV summary over a sweep")
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.add_argument("--max-N", type=int, default=6, dest="max_N")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_table)

    return parser


def _drop(stream) -> None:
    """Point stream's file descriptor at os.devnull, so what it still buffers goes nowhere."""
    with suppress(AttributeError, OSError, ValueError):  # None, or no file descriptor
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main(argv: list[str] | None = None) -> int:
    message = None
    try:
        try:
            args = build_parser().parse_args(argv)
            args.func(args)
        finally:
            if sys.stdout is None:  # closed before start-up
                raise BrokenPipeError
            sys.stdout.flush()  # before any error line; a closed stdout raises here
        code = 0
    except SystemExit as exc:  # argparse wrote the help, or its own usage error
        code = int(exc.code) if exc.code else 0
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull, so the
        # flush at exit raises nothing (the SIGPIPE recipe of the Python docs)
        _drop(sys.stdout)
        code, message = 2, "stdout closed"
    except UsageError as exc:
        code, message = 2, str(exc)
    except ValueError as exc:
        code, message = 1, str(exc)
    except (MemoryError, OverflowError, RecursionError):
        code, message = 2, "instance too large"
    try:  # a closed stderr loses the error line, never the exit code
        if message is not None:
            sys.stderr.write(f"error: {message}\n")
        sys.stderr.flush()  # argparse's usage error may still sit in the buffer
    except (AttributeError, OSError, ValueError):  # None: closed before start-up
        _drop(sys.stderr)
    return code


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
