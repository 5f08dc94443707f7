"""The independent references the tests check the package against, and the
helpers that more than one test module shares.

Pytest collects no test here (the name has no test_ prefix), and nothing
here asserts: each test module imports what it compares with and keeps its
own assertions, so pytest rewrites every assert without a conftest.  No
fixture is built at import either; the tests build their own.

The package's code is rewritten for speed, and each rewrite is checked
against the plain version it replaced.  facets_brute_force lists the
complements of the supports' minimal transversals by an MMCS search, the
edge subring Hilbert series is counted branch by branch at the hub
(binomial counts of each hub path's degree runs, then one convolution of
the runs' low ends and one of their high ends), s_pair_reduces_to_zero
settles a pair of basis elements whose leads share no variable by
Buchberger's first criterion and divides every other pair, on packed-int
monomials, by a basis packed once per list, finding each term's first
divisor through runs of leads that share a variable,
standard_monomial_series sums the face numbers of the Stanley-Reisner
complex, counted by a recursion over bitmask supports that branches only
at live variables, h_from_f sums binomials, the shelling check tests a set
against a family packed into one int, a field per facet, the
decomposition's intersection check looks each set plus one element up in a
set of facets, and sweep_compositions builds the descending k-tuples in
the order verify prints them.

The references here are the plain versions: a scan over all 2^E subsets
and the include/exclude search that decides every edge on every path and
tests the supports with any(...) at every node, breadth-first searches
over whole-graph exponent tuples and over whole levels of whole-graph
packed ints, the hub split of any graph at any vertex with each branch's
vectors listed and a DP over degree masks, division on dicts of exponent
tuples in graded lex order and the first divisor by a scan of the basis in
order, the unmemoised recursion over frozenset supports and a count of
every monomial of a degree, the f-to-h transform by polynomial powers, the
decomposition check by maximal pairwise intersections, and the per-pair
loops that the packed checks replaced: pairwise_shelling_h_vector lists
every difference F_j - G, pairwise_intersection_ok makes one subset test
per (a - {x}, b) pair, and sorted_sweep lists every k-prefix and sorts the
list.  The two kernels the Hilbert series were summed by before are kept
too: the DP over sets of reachable degrees that shifts whole runs
(minkowski), and the recursion memoised on (variable, degree left, live
supports).  A hub path's run ends are read off its series as window sums
of binomial coefficients (path_end_counts).  Apart from the two facet
searches and the degree memo, which take the bitmask supports, the
references hold squarefree sets as frozensets and meet the bitmask results
only at the comparison.

The h closed form and e~ run on coefficient lists in the package, and are
checked against the same steps in the polynomial arithmetic below, on
coefficient tuples, since the package has none; e~ also against its
defining partial sums.  The package runs the recursion as one loop that
grows the longer cycles in their given order over a row of h's, one per
count of triangles; the reference is the recursion memoised on sorted
k-tuples, which shrinks the longest cycle first and recurses into each
dropped cycle, in the same tuple arithmetic.  The closed-form facets,
built from prefix and suffix products of one-edge drops, are checked
against one reduce over a product tuple per facet, and the cached cycle
parts against flat_index.
"""

import math
import sys
from functools import cache, reduce
from itertools import accumulate, combinations_with_replacement, permutations, product, zip_longest
from operator import or_

from oddbouquet import srcomplex
from oddbouquet.composition import LabeledGraph, bits, build_from_k, cycle_parts, labeled_graph
from oddbouquet.ringinv import GorensteinReport, cm_type
from oddbouquet.srcomplex import DecompositionReport, FVector
from oddbouquet.toric import Binomial, Monomial, generators, vertex_exponent_vector


def every_order(bouquets):
    """Every cycle order of the given bouquets, sorted."""
    return sorted({order for c in bouquets for order in permutations(c.k)})


def calls_to(name, fn, *args):
    """fn(*args) and the number of calls it makes to functions named name."""
    calls = 0

    def tally(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_name == name

    sys.setprofile(tally)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


# ------------------------------------------------------------------ coefficient tuples

# The reference polynomial arithmetic takes coefficient tuples, index i
# holding the coefficient of t^i, and returns them with trailing zeros trimmed.


def trimmed(coeffs):
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def poly_mul(a, b):
    """Schoolbook product."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return trimmed(out)


def poly_add(a, b):
    return trimmed(x + y for x, y in zip_longest(a, b, fillvalue=0))


def poly_sub(a, b):
    return trimmed(x - y for x, y in zip_longest(a, b, fillvalue=0))


def poly_reverse(a, s):
    """t^s * a(1/t): coefficient i is a's coefficient s - i; s must bound deg a."""
    if s < 0 or s < len(trimmed(a)) - 1:
        raise ValueError("reversal bound too small")
    return trimmed(a[s - i] if s - i < len(a) else 0 for i in range(s + 1))


def poly_div_one_minus_t(a):
    """a / (1 - t), the partial sums of a's coefficients; a(1) must be 0."""
    if sum(a):
        raise ValueError("not divisible by (1-t)")
    return trimmed(accumulate(a))


# ------------------------------------------------------------------ monomials

MONOMIAL_ONE = Monomial(0)

# The reference arithmetic takes monomials of any exponents as exponent
# tuples ((variable, exponent), ...), variables ascending, exponents >= 1,
# as a Monomial's exps gives them for a squarefree one.


def exponent_tuple(exps):
    return tuple(sorted((i, e) for i, e in exps.items() if e))


def monomial_mul(a, b):
    out = dict(a)
    for i, e in b:
        out[i] = out.get(i, 0) + e
    return exponent_tuple(out)


def monomial_divides(a, b):
    """True iff a divides b."""
    it = dict(b)
    return all(it.get(i, 0) >= e for i, e in a)


def monomial_lcm(a, b):
    out = dict(a)
    for i, e in b:
        out[i] = max(out.get(i, 0), e)
    return exponent_tuple(out)


def monomial_quotient(a, b):
    """a / b; b must divide a."""
    out = dict(a)
    for i, e in b:
        have = out.get(i, 0)
        if have < e:
            raise ValueError("quotient is not a monomial")
        out[i] = have - e
    return exponent_tuple(out)


def grlex_key(m):
    """Sort key of an exponent tuple in graded lex order, x0 largest: after
    the degree, the first pair that differs decides, and there the smaller
    variable or, for the same variable, the larger exponent wins."""
    return sum(e for _, e in m), tuple((-i, e) for i, e in m)


def pack_exponents(m, width, nvars):
    """The exponent tuple m packed as _PackedBasis packs a monomial, with fields
    width bits wide: the degree on top, then x_0's exponent and so on."""
    return (sum(e for _, e in m) << width * nvars) + sum(e << width * (nvars - 1 - i) for i, e in m)


def mono(c, labels):
    """The squarefree monomial of the edges with the given (cycle, position) labels."""
    return Monomial(sum(1 << c.flat_index(i, j) for i, j in labels))


def squarefree(indices):
    return Monomial(sum(1 << v for v in set(indices)))


def members(mask):
    """The frozenset of the bit positions set in mask."""
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def facet_sets(cx):
    """The facets of a complex as a set of frozensets."""
    return {members(f) for f in cx.facets}


# ------------------------------------------------------------------ facet searches

def scan_facets(supports, ground_size):
    """All subsets as bitmasks; faces contain no support, facets extend to none."""
    faces = {mask for mask in range(1 << ground_size)
             if all(mask & s != s for s in supports)}
    return {
        frozenset(v for v in range(ground_size) if mask >> v & 1)
        for mask in faces
        if not any(not mask >> v & 1 and mask | 1 << v in faces for v in range(ground_size))
    }


def plain_facet_search(supports, ground_size):
    """The include/exclude search that tests the supports through v with
    any(...) at every node and the blocked vertices at every leaf."""
    if 0 in supports:
        return ()
    through = [[s for s in supports if s >> v & 1] for v in range(ground_size)]
    facets = []

    def search(v, inside, outside):
        if v == ground_size:
            if all(any(s & ~inside == 1 << u for s in through[u])
                   for u in range(ground_size) if outside >> u & 1):
                facets.append(inside)
            return
        bit = 1 << v
        grown = inside | bit
        if not any(s & ~grown == 0 for s in through[v]):
            search(v + 1, grown, outside)
        if any(s & outside == 0 for s in through[v]):
            search(v + 1, inside, outside | bit)

    search(0, 0, 0)
    return tuple(facets)


# ------------------------------------------------------------------ Hilbert series

def tuple_hilbert(c, d):
    """Breadth-first closure over vertex exponent tuples."""
    g = labeled_graph(c)
    edge_vecs = [vertex_exponent_vector(Monomial(1 << i), g) for i in range(c.edge_count)]
    level = {(0,) * g.n_vertices}
    for _ in range(d):
        level = {tuple(v + e for v, e in zip(vec, evec)) for vec in level for evec in edge_vecs}
    return len(level)


def full_level_series(endpoints, d):
    """Breadth-first closure over whole-graph vectors packed into ints that
    adds every edge to every vector."""
    w = max(d, 1).bit_length()
    edges = [(1 << w * a) + (1 << w * b) for a, b in endpoints]
    level, series = {0}, [1]
    for _ in range(d):
        level = {v + e for v in level for e in edges}
        series.append(len(level))
    return series


def graph(n_vertices, endpoints):
    return LabeledGraph(n_vertices, tuple(endpoints))


def mask_tally(edges, d):
    """For each degree mask D, the number of vectors u whose degree-0..d
    occurrences as sums of the packed edge vectors are the degrees in D,
    found by listing every vector.

    Level t maps each degree-t vector v to m(v), the least largest edge
    index of an edge multiset with image v.  Edge j is added only where
    m(v) <= j: no vector is missed, as dropping the largest edge e of a
    multiset leaves an image with m <= e.  Edges run last to first, so the
    least j reaching a vector is its m.
    """
    level, seen = {0: 0}, {0: 1}
    for t in range(1, d + 1):
        by_m = [[] for _ in edges]
        for v, m in level.items():
            by_m[m].append(v)
        order, ends = [], []
        for bucket in by_m:
            order += bucket
            ends.append(len(order))
        level = {}
        for j in range(len(edges) - 1, -1, -1):
            level.update(dict.fromkeys([v + edges[j] for v in order[:ends[j]]], j))
        again = level.keys() & seen.keys()
        seen.update(dict.fromkeys(level.keys() - again, 1 << t))
        for v in again:
            seen[v] |= 1 << t
    tally = {}
    for mask in seen.values():
        tally[mask] = tally.get(mask, 0) + 1
    return tally


def mask_minkowski(states, tally, d):
    """One branch step of the hub DP on degree masks: each counted set S and
    each counted mask M give the union of S << t over t in M, cut at d."""
    full, out = (1 << d + 1) - 1, {}
    shifts = [(bits(mask), k) for mask, k in tally.items()]
    for s, n in states.items():
        for ts, k in shifts:
            reach = 0
            for t in ts:
                reach |= s << t
            reach &= full
            out[reach] = out.get(reach, 0) + n * k
    return out


def run_masks(runs):
    """A tally of runs (t, m) as a tally of the degree masks [t, t + m]."""
    return {(1 << m + 1) - 1 << t: k for (t, m), k in runs.items()}


def path_tally(L, d):
    """For each run (t, m), the number of vectors u on the inner vertices of
    a hub-to-hub path with L >= 2 edges whose degrees of occurrence up to d
    are the interval [t, t + m]: the binomial tally the run DP was fed.

    Take the a with odd positions of minimum 0, its sum t and the minimum m
    of its even positions.  For L = 2k + 1, D(u) = [t, t + m], cut at d, and
    C(s + 2k, 2k) - C(s + k - 1, 2k) of the u with sum t have m >= m0,
    s = t - k*m0.  For L = 2k, D(u) = {t}, for C(t + L - 1, L - 1) -
    C(t + k - 1, L - 1) u's.
    """
    k = L // 2

    def comb(n, r):
        return math.comb(n, r) if n >= 0 else 0

    if L % 2 == 0:
        return {(t, 0): comb(t + L - 1, L - 1) - comb(t + k - 1, L - 1) for t in range(d + 1)}
    tally = {}
    for t in range(d + 1):
        at_least = [comb(s + 2 * k, 2 * k) - comb(s + k - 1, 2 * k) for s in range(t, t - k * (d - t + 1), -k)]
        for m, (n, above) in enumerate(zip(at_least, at_least[1:] + [0])):
            if n > above:
                tally[t, m] = n - above
    return tally


def path_end_counts(L, j, d):
    """The coefficients of t^0..t^d in [j]/(1 - t)^(L - 1), where [j] = 1 +
    t + ... + t^(j - 1): each a window sum of j consecutive coefficients
    C(s + L - 2, L - 2) of 1/(1 - t)^(L - 1)."""
    return [sum(math.comb(s + L - 2, L - 2) for s in range(max(t - j + 1, 0), t + 1)) for t in range(d + 1)]


def run_ends(runs, d):
    """A tally of runs (t, m), t + m <= d, as its counts of low and high ends."""
    lo, hi = [0] * (d + 1), [0] * (d + 1)
    for (t, m), n in runs.items():
        lo[t] += n
        hi[t + m] += n
    return lo, hi


def minkowski(states, runs, d):
    """One branch step of the run DP the hub counts were first summed by:
    each counted set S of reachable degrees and each counted run (t, m) give
    the union of S << t' over t' in [t, t + m], truncated at d, counted by
    the product of the two counts.  Per S, spread[m] = S | S << 1 | ... |
    S << m serves every run."""
    full, out = (1 << d + 1) - 1, {}
    widest = max((m for _, m in runs), default=0)
    for s, n in states.items():
        spread = [s]
        for _ in range(widest):
            spread.append(spread[-1] | spread[-1] << 1)
        for (t, m), k in runs.items():
            reach = spread[m] << t & full
            out[reach] = out.get(reach, 0) + n * k
    return out


def minkowski_run_counts(tallies, d):
    """The run DP: each set of degrees a tuple of runs reaches, truncated at
    d, mapped to its number of tuples; HF(t) sums the sets that hold t."""
    states = {1: 1}
    for runs in tallies:
        states = minkowski(states, runs, d)
    return [sum(n for s, n in states.items() if s >> t & 1) for t in range(d + 1)]


def minkowski_hub_counts(lengths, d):
    return minkowski_run_counts([path_tally(L, d) for L in lengths], d)


def listing_hub_series(g, d, hub):
    """The hub split of any graph at any vertex: each component of g - hub,
    with the edges that join it to the hub, gives the listed tally of its
    degree masks (hub coordinate dropped), and the DP combines them.
    Coordinates are packed w = bit_length(max(d, 1)) bits per branch vertex,
    so sums never carry."""
    parent = list(range(g.n_vertices))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in g.endpoints:
        if hub not in (a, b):
            parent[root(a)] = root(b)
    branches = {}
    for a, b in g.endpoints:
        branches.setdefault(root(b if a == hub else a), []).append((a, b))
    w, states = max(d, 1).bit_length(), {1: 1}
    for ends in branches.values():
        slot = {v: w * i for i, v in enumerate(sorted({v for e in ends for v in e} - {hub}))}
        edges = [sum(1 << slot[v] for v in e if v != hub) for e in ends]
        states = mask_minkowski(states, mask_tally(edges, d), d)
    return [sum(n for s, n in states.items() if s >> t & 1) for t in range(d + 1)]


def path_edges(length, d):
    """The edges of a hub-to-hub path with the given number of edges, packed
    as listing_hub_series packs them, hub coordinate dropped."""
    w = max(d, 1).bit_length()
    return [sum(1 << w * (v - 1) for v in (j, j + 1) if 0 < v < length) for j in range(length)]


# ------------------------------------------------------------------ standard monomials

def naive_standard_count(c, d):
    """Oracle: enumerate all degree-d monomials and test divisibility directly."""
    supports = [{i for i, _ in g.plus.exps} for g in generators(c)]
    count = 0
    for combo in combinations_with_replacement(range(c.edge_count), d):
        present = set(combo)
        if not any(s <= present for s in supports):
            count += 1
    return count


def frozenset_standard_count(c, d, monomials=None):
    """The unmemoised recursion over frozenset supports."""
    nvars = c.edge_count
    if monomials is None:
        monomials = [g.plus for g in generators(c)]
    supports = tuple(frozenset(i for i, _ in m.exps) for m in monomials)
    if frozenset() in supports:
        return 0  # the monomial 1 divides every monomial

    def count(idx, rem, alive):
        if rem == 0:
            return 1
        if idx == nvars:
            return 0
        if not alive:
            return math.comb(nvars - idx + rem - 1, rem)
        total = count(idx + 1, rem, tuple(s for s in alive if idx not in s))
        pos_alive = []
        for s in alive:
            if idx in s:
                s2 = s - {idx}
                if not s2:
                    return total  # variable idx completes a generator
                pos_alive.append(s2)
            else:
                pos_alive.append(s)
        pos = tuple(pos_alive)
        for e in range(1, rem + 1):
            total += count(idx + 1, rem - e, pos)
        return total

    return count(0, d, supports)


def degree_memo_counts(nvars, degrees, supports):
    """The recursion over the variables that the standard counts were first
    summed by, memoised for all the degrees on (variable, degree left, what
    each live support lacks as a bitmask); a support that lacks more
    variables than the degree left leaves the key, and once none is left,
    stars and bars count the rest."""

    def fits(alive, rem):
        return tuple(s for s in alive if s.bit_count() <= rem)

    @cache
    def count(idx, rem, alive):
        if rem == 0:
            return 1
        if idx == nvars:
            return 0
        if not alive:
            return math.comb(nvars - idx + rem - 1, rem)
        bit = 1 << idx
        total = count(idx + 1, rem, tuple(s for s in alive if not s & bit))
        if bit in alive:
            return total
        pos = [s & ~bit for s in alive]
        return total + sum(count(idx + 1, r, fits(pos, r)) for r in range(rem))

    alive = tuple(supports)
    return [0 if 0 in alive else count(0, j, fits(alive, j)) for j in degrees]


# ------------------------------------------------------------------ S-pair division

def _as_poly(b):
    return {b.plus.exps: 1, b.minus.exps: -1}


def _lead(poly):
    return max(poly, key=grlex_key)


def _s_polynomial(f, g):
    fp, gp = _as_poly(f), _as_poly(g)
    lf, lg = _lead(fp), _lead(gp)
    lcm = monomial_lcm(lf, lg)
    uf, ug = monomial_quotient(lcm, lf), monomial_quotient(lcm, lg)
    out = {}
    # leading coefficients are +-1, so dividing by them is multiplying by them
    for m, cm in fp.items():
        key = monomial_mul(m, uf)
        out[key] = out.get(key, 0) + cm * fp[lf]
    for m, cm in gp.items():
        key = monomial_mul(m, ug)
        out[key] = out.get(key, 0) - cm * gp[lg]
    return {m: cv for m, cv in out.items() if cv}


def dict_s_pair_reduces_to_zero(f, g, basis, max_steps=10_000, leads=None):
    """Division on dicts keyed by exponent tuples; the lead is the grlex_key
    maximum.  Each lead the walk meets is appended to leads if given."""
    prepared = [(_lead(hp), hp) for hp in map(_as_poly, basis)]
    work = _s_polynomial(f, g)
    remainder = {}
    steps = 0
    while work:
        lead = _lead(work)
        if leads is not None:
            leads.append(lead)
        c = work[lead]
        for lm, hp in prepared:
            if monomial_divides(lm, lead):
                steps += 1
                if steps > max_steps:
                    raise RuntimeError("reduction did not terminate")
                u = monomial_quotient(lead, lm)
                factor = c * hp[lm]  # == c / leading coefficient, both signs +-1
                for m, cm in hp.items():
                    key = monomial_mul(m, u)
                    nv = work.get(key, 0) - factor * cm
                    if nv:
                        work[key] = nv
                    else:
                        work.pop(key, None)
                break
        else:
            remainder[lead] = c
            del work[lead]
    return not remainder


def criterion_settles(f, g, basis):
    """True iff Buchberger's first criterion settles the pair: f and g are
    in the basis, by value, and their leading monomials share no variable."""
    lf, lg = _lead(_as_poly(f)), _lead(_as_poly(g))
    return f in basis and g in basis and not {i for i, _ in lf} & {i for i, _ in lg}


def negated(b):
    """-b: the same lead and tail, so the same S-polynomials, but no member
    of a basis that holds b and not -b."""
    return Binomial(b.minus, b.plus)


def random_binomial(rng, nvars):
    while True:
        a, b = Monomial(rng.getrandbits(nvars)), Monomial(rng.getrandbits(nvars))
        if a != b:
            return Binomial(a, b)


# ------------------------------------------------------------------ f-to-h and decomposition

def f_from_h(h, d):
    """The face counts of a shellable complex with facets of size d: a facet whose
    restriction has r elements adds the C(d - r, i - r) faces of size i above it."""
    return FVector(tuple(sum(hr * math.comb(d - r, i - r) for r, hr in enumerate(h[:i + 1]))
                         for i in range(d + 1)))


def power_h_from_f(fv, d):
    """Sum of counts[i] * t^i * (1-t)^(d-i) by polynomial powers."""
    acc = ()
    for i, fi in enumerate(fv.counts):
        if fi:
            acc = poly_add(acc, reduce(poly_mul, [(1, -1)] * (d - i), (0,) * i + (fi,)))
    return acc


def maximal(sets):
    return {s for s in sets if not any(s < t for t in sets)}


def maximal_decomposition(c):
    """The decomposition check by maximal sets, through the same module names."""
    k, n = c.k, c.n
    x = c.flat_index(1, 2 * k[0] + 1)
    y = c.flat_index(1, 2 * k[0])
    target = facet_sets(srcomplex.facets_closed_form(c))
    shorter = build_from_k((k[0] - 1,) + k[1:])
    relabel = [c.flat_index(i, j) for (i, j) in shorter.edge_labels]
    cone = {frozenset(relabel[v] for v in f) | {x, y}
            for f in facet_sets(srcomplex.facets_closed_form(shorter))}
    dropped_facets = [frozenset()]
    if n >= 2:
        dropped = build_from_k(k[1:])
        relabel = [c.flat_index(i + 1, j) for (i, j) in dropped.edge_labels]
        dropped_facets = [frozenset(relabel[v] for v in f)
                          for f in facet_sets(srcomplex.facets_closed_form(dropped))]
    parts = srcomplex.cycle_parts(c, 1)
    odd, even = members(parts.odd), members(parts.even)
    join = {f | (odd - {x}) | even for f in dropped_facets}
    union_ok = (maximal(cone | join) if n == 1 else cone | join) == target
    pairwise = {a & b for a in cone for b in join}
    return DecompositionReport(union_ok, maximal(pairwise) == {f - {x} for f in cone})


# ------------------------------------------------------------------ shelling and intersection checks

def pairwise_shelling_h_vector(masks):
    """The shelling check pair by pair: every difference F_j - G in a list."""
    if len({m.bit_count() for m in masks}) > 1:
        raise ValueError("facets of different sizes: complex is not pure")
    counts = []
    for j, f in enumerate(masks):
        diffs = [f & ~g for g in masks[:j]]
        restriction = 0
        for diff in diffs:
            if not diff:
                raise ValueError("repeated facet")
            if diff & (diff - 1) == 0:
                restriction |= diff
        if not all(diff & restriction for diff in diffs):
            raise ValueError(f"facet order is not a shelling at facet {j + 1}")
        size = restriction.bit_count()
        counts.extend([0] * (size + 1 - len(counts)))
        counts[size] += 1
    return tuple(counts)


def pairwise_intersection_ok(cone, join, x):
    """The intersection check with one subset test per (a - {x}, b) pair."""
    xbit = 1 << x
    expected = {a & ~xbit for a in cone}
    return (not any(b & xbit for b in join) and len({e.bit_count() for e in expected}) == 1
            and all(any(not e & ~b for b in join) for e in expected))


# ------------------------------------------------------------------ closed forms on coefficient tuples

def poly_h_closed_form(c):
    """The closed form as products and powers of coefficient tuples, one power per cycle length."""
    first = second = (1,)
    for j, rj in enumerate(c.r, start=1):
        first = reduce(poly_mul, [(1,) * (j + 1)] * rj, first)
        second = reduce(poly_mul, [(1,) * j] * rj, second)
    return poly_sub(first, poly_mul((0, 1), second))


def _poly_h_rec(ks, memo):
    """The recursion with t * h + h(dropped) and (1 + t)^n - t on coefficient tuples."""
    chain = []
    while ks not in memo and len(ks) > 1 and ks[0] > 1:
        chain.append(ks)
        ks = tuple(sorted((ks[0] - 1,) + ks[1:], reverse=True))
    h = memo.get(ks)
    if h is None:
        h = memo[ks] = (1,) if len(ks) == 1 else poly_sub(reduce(poly_mul, [(1, 1)] * len(ks)), (0, 1))
    for link in reversed(chain):
        h = memo[link] = poly_add(poly_mul((0, 1), h), _poly_h_rec(link[1:], memo))
    return h


def poly_h_recursive(c):
    return _poly_h_rec(tuple(sorted(c.k, reverse=True)), {})


def poly_e_tilde_from_h(h):
    """e~ and h' with the reversal, the difference and the division on coefficient tuples."""
    if h[:1] != (1,) or sum(h) == 0:
        raise ValueError("not an h-polynomial")
    s = len(h) - 1
    h_prime = poly_div_one_minus_t(poly_sub(poly_reverse(h, s), h))
    padded = h_prime + (0,) * (s + 1 - len(h_prime))
    return sum(padded), padded


def e_tilde_partial_sums(h):
    """Oracle: the defining aggregate of top-minus-bottom partial sums."""
    s = len(h) - 1
    total = 0
    for i in range(s + 1):
        total += sum(h[s - i:]) - sum(h[: i + 1])
    return total


def poly_report(c):
    """classify's report from the coefficient-tuple references."""
    h = poly_h_closed_form(c)
    e_tilde, h_prime = poly_e_tilde_from_h(h)
    return GorensteinReport(h=h, s=len(h) - 1, cm_type=cm_type(c), e_tilde=e_tilde, h_prime=h_prime,
                            is_gorenstein=poly_reverse(h, len(h) - 1) == h,
                            is_almost_gorenstein=cm_type(c) - 1 == e_tilde)


def product_facets(c):
    """The closed-form facets with one reduce over a product tuple per facet."""
    n = c.n
    parts = [cycle_parts(c, i) for i in range(1, n + 1)]
    facets = []
    for j in range(1, n + 1):
        fixed = parts[0].even | parts[n - 1].odd
        for i in range(2, j + 1):
            fixed |= parts[i - 1].even
        for i in range(j, n):
            fixed |= parts[i - 1].odd
        trimmed_parts = [p.odd for p in parts[:j - 1]] + [p.even for p in parts[j:]]
        choice_lists = [[part & ~(1 << v) for v in reversed(bits(part))] for part in trimmed_parts]
        facets += [reduce(or_, combo, fixed) for combo in product(*choice_lists)]
    return tuple(facets)


def defined_parts(c, i):
    """Cycle i's odd and even parts, by label position through flat_index."""
    ki = c.k[i - 1]
    odd = sum(1 << c.flat_index(i, j) for j in range(1, 2 * ki + 2, 2))
    even = sum(1 << c.flat_index(i, j) for j in range(2, 2 * ki + 1, 2))
    return odd, even


# ------------------------------------------------------------------ the sweep's order

def sorted_sweep(max_n, max_N):
    """Every descending k-prefix within the budget, listed, then sorted by n, N and k."""
    found = []

    def extend(prefix, budget, cap):
        if prefix:
            found.append(tuple(prefix))
        if len(prefix) == max_n:
            return
        for v in range(min(cap, budget), 0, -1):
            prefix.append(v)
            extend(prefix, budget - v, v)
            prefix.pop()

    extend([], max_N, max_N)
    found.sort(key=lambda ks: (len(ks), sum(ks), ks))
    return found
