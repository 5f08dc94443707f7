"""Command line interface and sweep verification harness.

Subcommands:

* ``hvec``     h-vector of one bouquet by any or all of three routes
* ``classify`` Gorenstein / almost Gorenstein classification
* ``facets``   facet listing of the initial-ideal complex
* ``gens``     toric ideal generators and their leading monomials
* ``verify``   run every internal consistency check over a parameter sweep
* ``table``    CSV summary over a parameter sweep

Exit codes are a stable contract: 0 success, 1 mathematical disagreement,
2 usage or I/O error.  All numeric output is exact decimal integers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import combinations

from .composition import OddCycleComposition, bits, build_from_k, build_from_r, labeled_graph
from .record import Record, _set
from .ringinv import (
    GorensteinReport,
    classify,
    h_closed_form,
    h_recursive,
    multiplicity,
)
from .srcomplex import (
    ORACLE_CAP,
    f_from_h,
    facets_brute_force,
    facets_closed_form,
    h_by_complex,
    h_from_f,
    hilbert_from_h,
    shelling_h_vector,
    verify_decomposition,
)
from .toric import (
    edge_subring_hilbert_series,
    generators,
    initial_monomials,
    kernel_check,
    leading_monomial,
    s_pair_reduces_to_zero,
    standard_monomial_series,
)


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


def sweep_compositions(max_n: int, max_N: int) -> list[OddCycleComposition]:
    """All k-multisets (descending) with n <= max_n and N <= max_N."""
    found: list[tuple[int, ...]] = []

    def extend(prefix: list[int], budget: int, cap: int) -> None:
        if prefix:
            found.append(tuple(prefix))
        if len(prefix) == max_n:
            return
        top = min(cap, budget)
        for v in range(top, 0, -1):
            prefix.append(v)
            extend(prefix, budget - v, v)
            prefix.pop()

    extend([], max_N, max_N)
    found.sort(key=lambda ks: (len(ks), sum(ks), ks))
    return [build_from_k(ks) for ks in found]


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


_METHODS = {
    "formula": h_closed_form,
    "recursion": h_recursive,
    "complex": h_by_complex,
}


def _report_payload(c: OddCycleComposition, rep: GorensteinReport, methods_agree: bool) -> dict:
    return {
        "r": list(c.r),
        "n": c.n,
        "N": c.N,
        "h": list(rep.h.coeffs),
        "s": rep.s,
        "facets": multiplicity(c),
        "type": rep.cm_type,
        "e_tilde": rep.e_tilde,
        "gorenstein": rep.is_gorenstein,
        "almost_gorenstein": rep.is_almost_gorenstein,
        "methods_agree": methods_agree,
    }


def _csv_header() -> list[str]:
    return ["r", "n", "N", "h", "s", "facets", "type", "e_tilde",
            "gorenstein", "almost_gorenstein"]


def _csv_row(payload: dict) -> list[str]:
    return [
        ";".join(str(v) for v in payload["r"]),
        str(payload["n"]),
        str(payload["N"]),
        ";".join(str(v) for v in payload["h"]),
        str(payload["s"]),
        str(payload["facets"]),
        str(payload["type"]),
        str(payload["e_tilde"]),
        "true" if payload["gorenstein"] else "false",
        "true" if payload["almost_gorenstein"] else "false",
    ]


def cmd_hvec(args: argparse.Namespace) -> int:
    c = composition_from_args(args)
    names = list(_METHODS) if args.method == "all" else [args.method]
    rep = classify(c) if args.format != "text" else None
    values = {n: rep.h if rep and n == "formula" else _METHODS[n](c) for n in names}
    agree = len({v.coeffs for v in values.values()}) == 1
    if rep:
        payload = _report_payload(c, rep, agree)
    if args.format == "json":
        print(canonical_json(payload))
    elif args.format == "csv":
        print(",".join(_csv_header()))
        print(",".join(_csv_row(payload)))
    else:
        print(f"r = {_fmt_ints(c.r)}  k = {_fmt_ints(c.k)}  n = {c.n}  N = {c.N}")
        for name in names:
            print(f"h[{name}] = ({', '.join(str(v) for v in values[name].coeffs)})")
        if len(names) > 1:
            print(f"agree = {'true' if agree else 'false'}")
    return 0 if agree else 1


def cmd_classify(args: argparse.Namespace) -> int:
    c = composition_from_args(args)
    rep = classify(c)
    ok = rep.prediction_agrees and rep.e_tilde_formula_agrees
    if args.format in ("json", "csv"):
        agree = rep.h == h_recursive(c) == h_by_complex(c)
        payload = _report_payload(c, rep, agree)
    if args.format == "json":
        print(canonical_json(payload))
    elif args.format == "csv":
        print(",".join(_csv_header()))
        print(",".join(_csv_row(payload)))
    else:
        print(f"r = {_fmt_ints(c.r)}  k = {_fmt_ints(c.k)}  n = {c.n}  N = {c.N}")
        print(f"h = ({', '.join(str(v) for v in rep.h.coeffs)})  s = {rep.s}")
        print(f"type = {rep.cm_type}  e_tilde = {rep.e_tilde}")
        print(f"gorenstein = {'true' if rep.is_gorenstein else 'false'}")
        print(f"almost_gorenstein = {'true' if rep.is_almost_gorenstein else 'false'}")
        print(f"matches_characterization = {'true' if ok else 'false'}")
    return 0 if ok else 1


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


CHECK_NAMES = [
    "h3way", "shelling", "facets", "fvec", "initial", "kernel",
    "buchberger", "hilbert", "decompose", "classify", "brutefacets",
]


def verify_composition(c: OddCycleComposition, rng: SweepRange) -> dict[str, str]:
    """Run every consistency check on one bouquet; values are ok/FAIL/skip."""
    out: dict[str, str] = {}

    rep = classify(c)
    h_formula = rep.h
    h_rec = h_recursive(c)
    cx = facets_closed_form(c)
    try:
        h_cx = shelling_h_vector(cx.facets)
    except ValueError:
        h_cx = None
    out["h3way"] = "ok" if h_formula == h_rec == h_cx else "FAIL"
    out["shelling"] = "ok" if h_cx is not None else "FAIL"

    count_ok = len(cx.facets) == multiplicity(c) == h_formula.evaluate(1)
    size_ok = all(f.bit_count() == c.vertex_count for f in cx.facets)
    out["facets"] = "ok" if count_ok and size_ok else "FAIL"

    if h_cx is None:
        out["fvec"] = "FAIL"
    else:
        fv = f_from_h(h_cx, c.vertex_count)
        fvec_ok = fv.counts[0] == 1 and fv.counts[1] == c.edge_count
        out["fvec"] = "ok" if fvec_ok and h_from_f(fv, c.vertex_count) == h_cx else "FAIL"

    gens = generators(c)
    inits = [g.plus for g in gens]
    pair_degrees = [c.k[i] + c.k[j] + 1 for i, j in combinations(range(c.n), 2)]
    initial_ok = all(
        leading_monomial(g) == m and m.is_squarefree() and m.degree == deg
        for g, m, deg in zip(gens, inits, pair_degrees)
    )
    out["initial"] = "ok" if initial_ok else "FAIL"

    graph = labeled_graph(c)
    out["kernel"] = "ok" if all(kernel_check(g, graph) for g in gens) else "FAIL"

    if rng.enable_buchberger:
        try:
            buch_ok = all(
                s_pair_reduces_to_zero(f, g, gens)
                for f, g in combinations(gens, 2)
            )
        except RuntimeError:
            buch_ok = False
        out["buchberger"] = "ok" if buch_ok else "FAIL"
    else:
        out["buchberger"] = "skip"

    d = rng.hilbert_degree
    hilbert_ok = (
        standard_monomial_series(c, d, inits) == edge_subring_hilbert_series(c, d)
        == [hilbert_from_h(h_formula, c.vertex_count, j) for j in range(d + 1)]
    )
    out["hilbert"] = "ok" if hilbert_ok else "FAIL"

    if c.k[0] >= 2:
        out["decompose"] = "ok" if verify_decomposition(c).ok else "FAIL"
    else:
        out["decompose"] = "skip"

    class_ok = rep.prediction_agrees and rep.e_tilde_formula_agrees
    class_ok = class_ok and rep.is_gorenstein == (c.n <= 2)
    if c.n >= 2:
        class_ok = class_ok and rep.h.coeff(1) == c.n - 1 and rep.s == c.N
    out["classify"] = "ok" if class_ok else "FAIL"

    if rng.enable_bruteforce_complex and c.edge_count <= ORACLE_CAP:
        brute = facets_brute_force(inits, c.edge_count)
        out["brutefacets"] = "ok" if set(brute.facets) == set(cx.facets) else "FAIL"
    else:
        out["brutefacets"] = "skip"

    return out


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
    lines = [",".join(_csv_header())]
    disagreements = []
    for c in comps:
        rep = classify(c)
        agree = rep.h == h_recursive(c) == h_by_complex(c)
        if not agree:
            disagreements.append(c.k)
        lines.append(",".join(_csv_row(_report_payload(c, rep, agree))))
    text = "\n".join(lines) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(comps)} rows to {args.out}")
    if disagreements:
        print(f"h-vector routes disagree for {disagreements}", file=sys.stderr)
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
    p.add_argument("--method", choices=["formula", "recursion", "complex", "all"],
                   default="all")
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
    except (MemoryError, RecursionError):
        print("error: instance too large", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
