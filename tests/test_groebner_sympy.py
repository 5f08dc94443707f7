"""The generators against sympy's Buchberger: code that shares nothing with toric.

sympy computes the reduced grlex Groebner basis of the generators, with x_0
the largest variable as in toric.grlex_cmp.  Its leading terms must generate
the same monomial ideal as the plus parts, which is what
s_pair_reduces_to_zero certifies.
"""

from itertools import permutations

import pytest

sympy = pytest.importorskip("sympy")

from oddbouquet.certify import sweep_compositions  # noqa: E402
from oddbouquet.composition import build_from_k  # noqa: E402
from oddbouquet.toric import generators, s_pair_reduces_to_zero  # noqa: E402

# every cycle order of every bouquet with two or more cycles and at most 15 edges
BOUQUETS = sorted({
    order
    for c in sweep_compositions(7, 7)
    if c.n >= 2 and c.edge_count <= 15
    for order in permutations(c.k)
})


def _exponents(m, nvars):
    vec = [0] * nvars
    for i, e in m.exps:
        vec[i] = e
    return tuple(vec)


def _sympy_leading_terms(binomials, nvars):
    xs = sympy.symbols(f"x0:{nvars}")

    def expr(m):
        return sympy.Mul(*(xs[i] ** e for i, e in m.exps))

    basis = sympy.groebner([expr(b.plus) - expr(b.minus) for b in binomials], *xs, order="grlex")
    return {p.monoms(order="grlex")[0] for p in basis.polys}


def _same_ideal(gens_a, gens_b):
    """Monomial ideals (exponent tuples) are equal iff each generator lies in the other."""
    def within(a, gens):
        return any(all(x <= y for x, y in zip(g, a)) for g in gens)

    return all(within(a, gens_b) for a in gens_a) and all(within(b, gens_a) for b in gens_b)


def test_bouquets_cover_up_to_fifteen_edges():
    assert len(BOUQUETS) == 41
    assert max(build_from_k(k).edge_count for k in BOUQUETS) == 15


@pytest.mark.parametrize("k", BOUQUETS)
def test_sympy_leading_terms_generate_the_plus_parts(k):
    c = build_from_k(k)
    gens = generators(c)
    plus = {_exponents(g.plus, c.edge_count) for g in gens}
    assert _same_ideal(_sympy_leading_terms(gens, c.edge_count), plus)


def test_incomplete_basis_is_caught_by_both():
    c = build_from_k([1, 1, 1])
    g01, g02, _ = generators(c)
    plus = {_exponents(g.plus, c.edge_count) for g in (g01, g02)}
    assert not _same_ideal(_sympy_leading_terms([g01, g02], c.edge_count), plus)
    assert not s_pair_reduces_to_zero(g01, g02, [g01, g02])
