"""Per-bouquet certificates: the h routes, the report and the verify checks.

``bouquet_report`` is the one computation behind hvec, classify and table;
``verify_composition`` takes its routes and its characterization verdict and
adds every consistency check on the algebra underneath.
"""

from __future__ import annotations

from itertools import combinations

from .composition import OddCycleComposition, build_from_k, labeled_graph
from .ringinv import classify, h_closed_form, h_recursive, multiplicity
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
    h that classify computed) and whether the classification matches the
    characterization: the predicted almost Gorenstein flag, e~ equal to its
    closed form, Gorenstein iff n <= 2, and for n >= 2 h_1 = n - 1, s = N.
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
    ok = rep.prediction_agrees and rep.e_tilde_formula_agrees
    ok = ok and rep.is_gorenstein == (c.n <= 2)
    if c.n >= 2:
        ok = ok and rep.h.coeff(1) == c.n - 1 and rep.s == c.N
    return payload, hs, ok


CHECK_NAMES = [
    "h3way", "shelling", "facets", "fvec", "initial", "kernel",
    "buchberger", "hilbert", "decompose", "classify", "brutefacets",
]


def verify_composition(c: OddCycleComposition, rng) -> dict[str, str]:
    """Run every consistency check on one bouquet; values are ok/FAIL/skip.

    rng is a sweep range: it supplies hilbert_degree, enable_buchberger and
    enable_bruteforce_complex.
    """
    out: dict[str, str] = {}

    payload, hs, class_ok = bouquet_report(c, ("formula", "recursion"))
    h_formula = hs["formula"]
    cx = facets_closed_form(c)
    try:
        h_cx = shelling_h_vector(cx.facets)
    except ValueError:
        h_cx = None
    out["h3way"] = "ok" if h_formula == hs["recursion"] == h_cx else "FAIL"
    out["shelling"] = "ok" if h_cx is not None else "FAIL"

    count_ok = len(cx.facets) == payload["facets"] == h_formula.evaluate(1)
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

    out["classify"] = "ok" if class_ok else "FAIL"

    if rng.enable_bruteforce_complex and c.edge_count <= ORACLE_CAP:
        brute = facets_brute_force(inits, c.edge_count)
        out["brutefacets"] = "ok" if set(brute.facets) == set(cx.facets) else "FAIL"
    else:
        out["brutefacets"] = "skip"

    return out
