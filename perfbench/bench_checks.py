"""Independent answers for the benchmark's correctness checks.

Nothing here imports oddbouquet.  Every expected value is derived from the
bouquet's half-lengths k alone, by formulas written out again for the
benchmark, so a wrong answer from the program cannot be matched by the same
wrong code on this side.

Edge and vertex conventions are the package's documented ones: cycle i has
edges x_{i,1} .. x_{i,2k_i+1} in flat order cycle by cycle; x_{i,1} and
x_{i,2k_i+1} touch the hub (vertex 0); the outer vertices of each cycle are
numbered consecutively after the hub.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import combinations

CHECK_NAMES = (
    "h3way", "facets", "fvec", "initial", "kernel",
    "buchberger", "hilbert", "decompose", "classify", "brutefacets",
)
BRUTEFORCE_CAP = 18  # verify's default SweepRange.bruteforce_cap
TABLE_HEADER = ["r", "n", "N", "h", "s", "facets", "type", "e_tilde",
                "gorenstein", "almost_gorenstein"]


def partitions(max_n: int, max_N: int) -> list[tuple[int, ...]]:
    """Every descending k with 1 <= len(k) <= max_n and sum(k) <= max_N."""
    out = []

    def extend(prefix, budget, cap):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == max_n:
            return
        for v in range(min(cap, budget), 0, -1):
            extend(prefix + [v], budget - v, v)

    extend([], max_N, max_N)
    return out


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def h_vector(k) -> list[int]:
    """prod_i (1 + .. + t^k_i) - t * prod_i (1 + .. + t^(k_i - 1)), trailing zeros cut."""
    first, second = [1], [1]
    for ki in k:
        first = _poly_mul(first, [1] * (ki + 1))
        second = _poly_mul(second, [1] * ki)
    h = first + [0]
    for i, c in enumerate(second):
        h[i + 1] -= c
    while h and h[-1] == 0:
        h.pop()
    return h


def facet_count(k) -> int:
    return math.prod(ki + 1 for ki in k) - math.prod(k)


def hilbert_value(k, d: int) -> int:
    """Hilbert function of the edge ring in degree d from h: sum_i h_i C(d-i+2N, 2N)."""
    two_n = 2 * sum(k)
    return sum(hi * math.comb(d - i + two_n, two_n)
               for i, hi in enumerate(h_vector(k)) if i <= d)


def gorenstein(k) -> bool:
    h = h_vector(k)
    return h == h[::-1]


def almost_gorenstein(k) -> bool:
    """The paper's characterization: at most two cycles, or all triangles."""
    return len(k) <= 2 or sum(k) == len(k)


def _offsets(k) -> list[int]:
    out, acc = [], 0
    for ki in k:
        out.append(acc)
        acc += 2 * ki + 1
    return out


def cycle_edges(k, i: int, parity: str) -> list[int]:
    """Flat indices of cycle i's (0-based) odd- or even-position edges."""
    start = 1 if parity == "odd" else 2
    base = _offsets(k)[i]
    return [base + j - 1 for j in range(start, 2 * k[i] + 2, 2)]


def generator_supports(k) -> list[tuple[list[int], list[int]]]:
    """(plus, minus) flat-index lists of the binomial for each cycle pair i < j."""
    return [
        (sorted(cycle_edges(k, i, "odd") + cycle_edges(k, j, "even")),
         sorted(cycle_edges(k, i, "even") + cycle_edges(k, j, "odd")))
        for i, j in combinations(range(len(k)), 2)
    ]


def edge_endpoints(k) -> list[tuple[int, int]]:
    out, base = [], 1
    for ki in k:
        for j in range(1, 2 * ki + 2):
            a = 0 if j == 1 else base + j - 2
            b = 0 if j == 2 * ki + 1 else base + j - 1
            out.append((a, b))
        base += 2 * ki
    return out


def vertex_degrees(k, edges) -> list[int]:
    """How often each vertex is hit by a squarefree product of the given edges."""
    deg = [0] * (2 * sum(k) + 1)
    ends = edge_endpoints(k)
    for e in edges:
        a, b = ends[e]
        deg[a] += 1
        deg[b] += 1
    return deg


def edge_name(k, flat: int) -> str:
    for i, base in reversed(list(enumerate(_offsets(k)))):
        if flat >= base:
            return f"x{i + 1},{flat - base + 1}"
    raise ValueError(flat)


# ---------------------------------------------------------------- verify-sweep

def check_verify_statuses(k, statuses: dict) -> bool:
    """Every check is ok, except that decompose must skip iff k_1 < 2 and
    brutefacets must skip iff the ground set exceeds the oracle cap."""
    if not set(CHECK_NAMES) <= set(statuses):
        return False
    edges = 2 * sum(k) + len(k)
    skips = {"decompose": k[0] < 2, "brutefacets": edges > BRUTEFORCE_CAP}
    return all(
        status == ("skip" if skips.get(name, False) else "ok")
        for name, status in statuses.items()
    )


# --------------------------------------------------------------- toric-algebra

def check_toric(k, gens, kernel_ok, s_pairs_zero, hilbert_rows) -> bool:
    """gens: (plus, minus) flat-index lists as returned by the program;
    kernel_ok, s_pairs_zero: its booleans; hilbert_rows: (d, standard
    monomial count, edge subring count) per degree."""
    if gens != generator_supports(k):
        return False
    if not all(kernel_ok) or not all(s_pairs_zero):
        return False
    if len(s_pairs_zero) != math.comb(len(gens), 2):
        return False
    if any(vertex_degrees(k, p) != vertex_degrees(k, m) for p, m in gens):
        return False
    return all(a == b == hilbert_value(k, d) for d, a, b in hilbert_rows)


# ---------------------------------------------------------------- report-calls

def _check_payload(k, payload: dict) -> bool:
    return (
        payload["h"] == h_vector(k)
        and payload["methods_agree"] is True
        and payload["facets"] == facet_count(k)
        and payload["n"] == len(k)
        and payload["N"] == sum(k)
        and payload["gorenstein"] == gorenstein(k)
        and payload["almost_gorenstein"] == almost_gorenstein(k)
    )


def _check_classify_text(k, out: str) -> bool:
    h = h_vector(k)
    want = [
        f"h = ({', '.join(map(str, h))})  s = {len(h) - 1}",
        f"gorenstein = {str(gorenstein(k)).lower()}",
        f"almost_gorenstein = {str(almost_gorenstein(k)).lower()}",
        "matches_characterization = true",
    ]
    lines = out.splitlines()
    return all(line in lines for line in want)


def _check_gens(k, payload: dict) -> bool:
    want = [
        {"plus": [edge_name(k, e) for e in p],
         "minus": [edge_name(k, e) for e in m],
         "leading": [edge_name(k, e) for e in p]}
        for p, m in generator_supports(k)
    ]
    return payload["generators"] == want


def _check_facets(k, payload: dict) -> bool:
    facets = [frozenset(f) for f in payload["facets"]]
    plus_parts = [frozenset(edge_name(k, e) for e in p) for p, _ in generator_supports(k)]
    return (
        payload["facet_count"] == facet_count(k) == len(set(facets)) == len(facets)
        and all(len(f) == 2 * sum(k) + 1 for f in facets)
        and not any(p <= f for f in facets for p in plus_parts)
    )


def _check_table(path: str, max_n: int, max_N: int) -> bool:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != TABLE_HEADER:
        return False
    seen = set()
    for row in rows[1:]:
        rec = dict(zip(TABLE_HEADER, row))
        r = [int(v) for v in rec["r"].split(";")]
        k = tuple(j for j in range(len(r), 0, -1) for _ in range(r[j - 1]))
        if (
            rec["h"] != ";".join(map(str, h_vector(k)))
            or int(rec["facets"]) != facet_count(k)
            or rec["gorenstein"] != str(gorenstein(k)).lower()
            or rec["almost_gorenstein"] != str(almost_gorenstein(k)).lower()
        ):
            return False
        seen.add(k)
    return len(seen) == len(rows) - 1 and seen == set(partitions(max_n, max_N))


def check_call(argv: list[str], code: int, out: str) -> bool:
    """Check one CLI call's exit code and output against the independent answers."""
    if code != 0:
        return False
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if command == "table":
        ok = _check_table(opts["--out"], int(opts["--max-n"]), int(opts["--max-N"]))
        return ok and out.strip().startswith("wrote ")
    k = tuple(int(v) for v in opts["--k"].split(","))
    if command == "classify" and opts.get("--format", "text") == "text":
        return _check_classify_text(k, out)
    payload = json.loads(out)
    if command in ("classify", "hvec"):
        return _check_payload(k, payload)
    if command == "gens":
        return _check_gens(k, payload)
    if command == "facets":
        return _check_facets(k, payload)
    raise ValueError(f"no check for {command}")

