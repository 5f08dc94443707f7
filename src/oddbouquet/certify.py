"""Per-bouquet certificates: the h routes, the report and the verify checks.

``bouquet_report`` is the one computation behind hvec, classify and table;
``verify_composition`` takes its routes and its characterization verdict and
adds every consistency check on the algebra underneath.  This module is the
one place that says pass or fail; ringinv and srcomplex only compute.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .composition import OddCycleComposition, build_from_k, labeled_graph
from .ringinv import classify, e_tilde_closed, h_closed_form, h_recursive, multiplicity
from .srcomplex import (
    ORACLE_CAP,
    facets_brute_force,
    facets_closed_form,
    h_by_complex,
    hilbert_from_h,
    shelling_h_vector,
    verify_decomposition,
)
from .toric import (
    edge_subring_hilbert_series,
    generators,
    kernel_check,
    leading_monomial,
    s_pair_reduces_to_zero,
    standard_monomial_series,
)

ROUTES = {
    "formula": h_closed_form,
    "recursion": h_recursive,
    "complex": h_by_complex,
}


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


def bouquet_report(c: OddCycleComposition, routes) -> tuple[dict, dict, bool]:
    """Classify one bouquet once and run the named routes on it.

    Returns the payload, the h of each named route (the formula route is the
    h that classify computed) and the characterization verdict, the only one
    in the package: almost Gorenstein iff n <= 2 or N = n, for n >= 3 e~
    equal to its closed form, Gorenstein iff n <= 2, and for n >= 2
    h_1 = n - 1 and s = N.
    """
    rep = classify(c)
    hs = {name: rep.h if name == "formula" else ROUTES[name](c) for name in routes}
    payload = {
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
        "methods_agree": len({h.coeffs for h in hs.values()}) == 1,
    }
    n = c.n
    ok = (
        rep.is_almost_gorenstein == (n <= 2 or c.N == n)
        and (n < 3 or rep.e_tilde == e_tilde_closed(c))
        and rep.is_gorenstein == (n <= 2)
        and (n < 2 or (rep.h.coeff(1) == n - 1 and rep.s == c.N))
    )
    return payload, hs, ok


CHECK_NAMES = [
    "h3way", "shelling", "facets", "fvec", "initial", "kernel",
    "buchberger", "hilbert", "decompose", "classify", "brutefacets",
]


def verify_composition(c: OddCycleComposition, rng) -> dict[str, str]:
    """Run every consistency check on one bouquet; values are ok/FAIL/skip.

    rng is a sweep range: it supplies hilbert_degree, enable_buchberger and
    enable_bruteforce_complex.  Each check answers True (ok), False (FAIL)
    or None (skip).  A check that raises ValueError or RuntimeError, itself
    or through a shared result it reads, is FAIL in its own cell and the
    other checks still run; RecursionError and MemoryError propagate, since
    they say the instance is too large, not that a check failed.  The
    shared results are computed once each when nothing raises.
    """
    report = cache(lambda: bouquet_report(c, ("formula", "recursion")))
    cx = cache(lambda: facets_closed_form(c))
    h_cx = cache(lambda: shelling_h_vector(cx().facets))  # raises unless a shelling
    gens = cache(lambda: generators(c))
    inits = cache(lambda: [g.plus for g in gens()])
    V, E = c.vertex_count, c.edge_count

    def facets() -> bool:
        count_ok = len(cx().facets) == report()[0]["facets"] == report()[1]["formula"].evaluate(1)
        return count_ok and all(f.bit_count() == V for f in cx().facets)

    def fvec() -> bool:
        # f_0 = 1 and f_1 = E, i.e. h_0 = 1 and h_1 = E - V; deg h <= V is
        # exactly what makes the f <-> h transform invertible
        h = h_cx()
        return h.coeff(0) == 1 and h.coeff(1) == E - V and h.degree <= V

    def initial() -> bool:
        pair_degrees = [c.k[i] + c.k[j] + 1 for i, j in combinations(range(c.n), 2)]
        return all(
            leading_monomial(g) == m and m.is_squarefree() and m.degree == deg
            for g, m, deg in zip(gens(), inits(), pair_degrees)
        )

    def kernel() -> bool:
        graph = labeled_graph(c)
        return all(kernel_check(g, graph) for g in gens())

    def buchberger() -> bool | None:
        if not rng.enable_buchberger:
            return None
        return all(s_pair_reduces_to_zero(f, g, gens()) for f, g in combinations(gens(), 2))

    def hilbert() -> bool:
        d = rng.hilbert_degree
        return (
            standard_monomial_series(c, d, inits()) == edge_subring_hilbert_series(c, d)
            == [hilbert_from_h(report()[1]["formula"], V, j) for j in range(d + 1)]
        )

    def brutefacets() -> bool | None:
        if not (rng.enable_bruteforce_complex and E <= ORACLE_CAP):
            return None
        return set(facets_brute_force(inits(), E).facets) == set(cx().facets)

    checks = {
        "h3way": lambda: report()[1]["formula"] == report()[1]["recursion"] == h_cx(),
        "shelling": lambda: h_cx() is not None,
        "facets": facets,
        "fvec": fvec,
        "initial": initial,
        "kernel": kernel,
        "buchberger": buchberger,
        "hilbert": hilbert,
        "decompose": lambda: verify_decomposition(c).ok if c.k[0] >= 2 else None,
        "classify": lambda: report()[2],
        "brutefacets": brutefacets,
    }
    out: dict[str, str] = {}
    for name in CHECK_NAMES:
        try:
            ok = checks[name]()
        except RecursionError:
            raise
        except (ValueError, RuntimeError):
            ok = False
        out[name] = "skip" if ok is None else "ok" if ok else "FAIL"
    return out
