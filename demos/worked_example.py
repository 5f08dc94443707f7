#!/usr/bin/env python3
"""Walk one bouquet end to end: three odd cycles of lengths 7, 5, 3 glued
at a hub.  Shows the toric ideal generators, the facets of the initial
complex, the h-vector computed three independent ways (the third from the
shelling order in which the facets are emitted), and the classification of
the edge ring.

Run:  python demos/worked_example.py
"""

from oddbouquet import (
    bits,
    build_from_k,
    classify,
    f_vector,
    facets_closed_form,
    generators,
    h_closed_form,
    h_from_f,
    h_recursive,
    labeled_graph,
    kernel_check,
    shelling_h_vector,
)


def banner(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    c = build_from_k([3, 2, 1])
    print(f"bouquet with cycle half-lengths k = {c.k}  (cycle lengths 7, 5, 3)")
    print(f"n = {c.n} cycles, N = {c.N}, {c.vertex_count} vertices, {c.edge_count} edges")

    banner("toric ideal generators (one per cycle pair, plus part leads)")
    graph = labeled_graph(c)
    for g in generators(c):
        plus = "*".join(c.edge_name(i) for i, _ in g.plus.exps)
        minus = "*".join(c.edge_name(i) for i, _ in g.minus.exps)
        print(f"  {plus} - {minus}   in kernel: {kernel_check(g, graph)}")

    banner("facets of the initial complex")
    cx = facets_closed_form(c)
    for f in sorted(cx.facets, key=bits):  # facets are bitmasks over the flat edge index
        print(" ", " ".join(c.edge_name(v) for v in bits(f)))
    print(f"  -> {len(cx.facets)} facets, each of size {c.vertex_count}")

    banner("h-vector three ways")
    routes = {
        "closed form": h_closed_form(c),
        "recursion": h_recursive(c),
        "shelling": shelling_h_vector(cx.facets),
    }
    for name, h in routes.items():
        print(f"  {name:<18} {h}")
    assert len(set(routes.values())) == 1
    print("  (shelling: facets in emitted order; h_i counts the facets whose")
    print("   restriction, the smallest new face the facet adds, has i elements)")

    banner("f-vector from enumerating every facet subset")
    fv = f_vector(cx)
    print(f"  {fv.counts}")
    assert h_from_f(fv, c.vertex_count) == routes["shelling"]
    print("  its h-vector, the face ring's Hilbert series numerator, is the shelling's")

    banner("classification of the edge ring")
    rep = classify(c)
    print(f"  type = {rep.cm_type}, e~ = {rep.e_tilde}, h' = {rep.h_prime}")
    print(f"  gorenstein = {rep.is_gorenstein}, almost gorenstein = {rep.is_almost_gorenstein}")
    print("  (almost Gorenstein needs type - 1 = e~; here that fails, as the")
    print("   characterization predicts for three cycles that are not all triangles)")


if __name__ == "__main__":
    main()
