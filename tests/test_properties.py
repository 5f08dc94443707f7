"""Property tests over random bouquets, cycles in any order, up to 18 edges."""

import io
import json
import pickle
import random
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from oddbouquet.certify import ROUTES  # noqa: E402
from oddbouquet.cli import main  # noqa: E402
from oddbouquet.composition import build_from_k, build_from_r, labeled_graph  # noqa: E402
from oddbouquet.polyarith import IntPoly  # noqa: E402
from oddbouquet.ringinv import h_closed_form  # noqa: E402
from oddbouquet.srcomplex import (  # noqa: E402
    facets_brute_force,
    facets_closed_form,
    hilbert_from_h,
)
from oddbouquet.toric import (  # noqa: E402
    _run_counts,
    edge_subring_hilbert,
    edge_subring_hilbert_series,
    generators,
    s_pair_reduces_to_zero,
    standard_monomial_count,
)
from test_oracle_rewrites import (  # noqa: E402
    _full_level_series,
    _graph,
    _listing_hub_series,
    _members,
    _minkowski_run_counts,
    _negated,
    _random_binomial,
    _run_ends,
    _scan_facets,
    _settled,
    dict_s_pair_reduces_to_zero,
)

MAX_EDGES = 18  # the brute-force oracle's cap


def _fits(ks):
    """The longest prefix of ks whose bouquet has at most MAX_EDGES edges."""
    out, edges = [], 0
    for k in ks:
        if edges + 2 * k + 1 > MAX_EDGES:
            break
        out.append(k)
        edges += 2 * k + 1
    return tuple(out)


bouquets = st.lists(st.integers(1, 8), min_size=1, max_size=6).map(_fits).map(build_from_k)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=8))
def test_cycle_counts_are_derived_from_k(k):
    c = build_from_k(k)
    assert c.r == tuple(k.count(j) for j in range(1, max(k) + 1))
    assert build_from_r(c.r) == build_from_k(sorted(k, reverse=True))
    # once read, r stays out of pickling, equality and hashing
    assert c.__reduce__()[1] == (tuple(k),)
    back = pickle.loads(pickle.dumps(c))
    assert back == c and hash(back) == hash(c) and back.r == c.r


@settings(max_examples=60, deadline=None)
@given(bouquets)
def test_brute_facets_equal_closed_form(c):
    brute = facets_brute_force([g.plus.mask for g in generators(c)], c.edge_count)
    assert set(brute.facets) == set(facets_closed_form(c).facets)


@st.composite
def support_families(draw):
    """A ground set of at most 10 vertices and up to 8 supports, some of
    them reaching up to two vertices past it."""
    ground_size = draw(st.integers(0, 10))
    vertex_sets = st.frozensets(st.integers(0, ground_size + 1), max_size=4)
    return [sum(1 << v for v in vs) for vs in draw(st.lists(vertex_sets, max_size=8))], ground_size


@settings(max_examples=200, deadline=None)
@given(support_families())
def test_brute_facets_equal_the_subset_scan(family):
    supports, ground_size = family
    facets = facets_brute_force(supports, ground_size).facets
    assert len(set(facets)) == len(facets)
    assert {_members(f) for f in facets} == _scan_facets(supports, ground_size)


@settings(max_examples=60, deadline=None)
@given(bouquets, st.integers(0, 4))
def test_three_hilbert_counters_agree(c, d):
    expected = hilbert_from_h(h_closed_form(c), c.vertex_count, d)
    assert edge_subring_hilbert(c, d) == standard_monomial_count(c, d) == expected


@settings(max_examples=60, deadline=None)
@given(bouquets, st.integers(0, 4))
def test_hub_split_series_equals_whole_graph_levels(c, d):
    assert edge_subring_hilbert_series(c, d) == _full_level_series(labeled_graph(c).endpoints, d)


@st.composite
def small_graphs(draw):
    nv = draw(st.integers(1, 7))
    pairs = list(combinations(range(nv), 2))
    return _graph(nv, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.data(), st.integers(0, 5))
def test_hub_split_of_any_graph_at_any_vertex_equals_whole_graph_levels(g, data, d):
    hub = data.draw(st.integers(0, g.n_vertices - 1))
    assert _listing_hub_series(g, d, hub) == _full_level_series(g.endpoints, d)


@st.composite
def run_tallies(draw):
    """A degree d and a few tallies of runs (t, m), t + m <= d, with counts."""
    d = draw(st.integers(0, 9))
    run = st.integers(0, d).flatmap(lambda t: st.tuples(st.just(t), st.integers(0, d - t)))
    tally = st.dictionaries(run, st.integers(1, 9), max_size=5)
    return draw(st.lists(tally, max_size=4)), d


@settings(max_examples=200, deadline=None)
@given(run_tallies())
def test_run_ends_count_the_tuples_whose_sum_holds_each_degree(tallies_d):
    # HF(t) = #{X <= t} - #{Y < t}, X and Y the sums of the low and high ends
    tallies, d = tallies_d
    assert _run_counts([_run_ends(runs, d) for runs in tallies], d) == _minkowski_run_counts(tallies, d)


@settings(max_examples=40, deadline=None)
@given(bouquets, st.data())
def test_packed_division_agrees_with_dicts(c, data):
    gens = generators(c)
    keep = data.draw(st.lists(st.booleans(), min_size=len(gens), max_size=len(gens)))
    basis = [g for g, kept in zip(gens, keep) if kept]  # full or incomplete
    for f, g in combinations(gens, 2):
        want = dict_s_pair_reduces_to_zero(f, g, basis)
        if _settled(f, g, basis):  # by the criterion; -f with g is divided
            assert s_pair_reduces_to_zero(f, g, basis) is True
            assert s_pair_reduces_to_zero(_negated(f), g, basis) is want
        else:
            assert s_pair_reduces_to_zero(f, g, basis) is want


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_all_pairs_verdict_agrees_with_dicts_on_random_binomials(nvars, size, seed):
    # Buchberger's verdict on any binomial list, Groebner basis or not; pair
    # by pair, the answer is the criterion's or the division's, also for a
    # binomial outside the list
    rng = random.Random(seed)
    basis = [_random_binomial(rng, nvars) for _ in range(size)]
    verdict = all(s_pair_reduces_to_zero(f, g, basis) for f, g in combinations(basis, 2))
    assert verdict is all(dict_s_pair_reduces_to_zero(f, g, basis) for f, g in combinations(basis, 2))
    pool = [*basis, _random_binomial(rng, nvars)]
    for f in pool:
        for g in pool:
            want = _settled(f, g, basis) or dict_s_pair_reduces_to_zero(f, g, basis)
            assert s_pair_reduces_to_zero(f, g, basis) is want


TABLE_MAX_n, TABLE_MAX_N = 4, 6


def _within_table(ks):
    """The longest prefix of ks that the table over TABLE_MAX_n, TABLE_MAX_N lists."""
    out = []
    for k in ks:
        if sum(out) + k > TABLE_MAX_N:
            break
        out.append(k)
    return out


def _stdout(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _parse_cell(cell, like):
    """A CSV cell read back as the type of its JSON value."""
    if isinstance(like, bool):
        assert cell in ("true", "false")
        return cell == "true"
    if isinstance(like, list):
        return [int(v) for v in cell.split(";")]
    return int(cell)


@pytest.fixture(scope="module")
def table_rows(tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "table.csv"
    _stdout(["table", "--max-n", str(TABLE_MAX_n), "--max-N", str(TABLE_MAX_N), "--out", str(path)])
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return header, {row.split(",")[0]: row for row in rows}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, TABLE_MAX_N), min_size=1, max_size=TABLE_MAX_n).map(_within_table))
def test_json_csv_and_table_rows_agree(table_rows, ks):
    argv = ["classify", "--k", ",".join(map(str, ks))]
    payload = json.loads(_stdout(argv + ["--format", "json"]))
    header, row = _stdout(argv + ["--format", "csv"]).splitlines()
    table_header, table = table_rows
    assert header == table_header
    cells = dict(zip(header.split(","), row.split(",")))
    assert dict(zip(header.split(","), table[cells["r"]].split(","))) == cells
    assert set(payload) == set(cells) | {"methods_agree"}
    assert payload["methods_agree"] is True
    for name, cell in cells.items():
        assert _parse_cell(cell, payload[name]) == payload[name], name


# The exit-code contract over argv: main returns 0, 1 or 2 and prints no
# traceback, and a 1 (a mathematical disagreement) leaves exactly one line on
# stderr, which starts with "error: ".  Values stay within what finishes in
# well under a second: sweeps up to 5/8, Hilbert degree up to 8, and
# bouquets of at most 16 edges wherever the facets are listed.  Three inputs
# still run for seconds or more, so none is drawn until a cost model
# (ROADMAP item 3) rejects them up front:
# verify --max-n 1 --max-N 1 --hilbert-degree 99999999999999999999,
# table --max-n 2 --max-N 99999999999999999999, and hvec --method complex on
# 30 triangles.
HUGE = "99999999999999999999"  # a --k/--r value that overflows at once: exit 2
ODD_TOKENS = ["", "١", "𝟐", "1.5", "0x2", "1\x002", "\x00", "x"]
LIST_EDGES = 16


def _listed_edges(flag, text):
    """Edges of the bouquet a --k/--r value names; 0 for a value rejected
    before any work (a usage error, or HUGE in it)."""
    try:
        ints = [int(p) for p in text.split(",")]
    except ValueError:
        return 0
    if min(ints) < 0 or max(ints) >= int(HUGE):
        return 0
    if flag == "--k":
        return sum(2 * v + 1 for v in ints) if min(ints) > 0 else 0
    return sum(r * (2 * j + 1) for j, r in enumerate(ints, 1))


def _fitted(flag, tokens):
    """The longest prefix of tokens, joined, whose bouquet has at most LIST_EDGES edges."""
    while _listed_edges(flag, ",".join(tokens)) > LIST_EDGES:
        tokens = tokens[:-1]
    return ",".join(tokens)


def _composition_values(flag):
    """Lists of small ints, mostly positive, at times with one odd token spliced in."""
    ints = st.lists(st.sampled_from("1 1 2 2 3 3 4 0 -1".split()), min_size=1, max_size=5)
    spliced = st.tuples(ints, st.sampled_from(ODD_TOKENS + [HUGE]), st.integers(0, 5)).map(
        lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])
    corners = st.sampled_from([[""], [","], ["1", "", "2"], [HUGE]])
    # one_of picks a branch uniformly, so plain lists come half the time
    return st.one_of(ints, ints, spliced, corners).map(lambda tokens: _fitted(flag, tokens))


def _sweep_values(top):
    return st.one_of(st.integers(-2, top).map(str), st.sampled_from(ODD_TOKENS))


_COMPOSITION = {"--r": _composition_values("--r"), "--k": _composition_values("--k")}
_FORMATS = st.sampled_from(["text", "json", "csv", "xml"])
# each subcommand's flags and their values; --out names a path under the
# test's directory: a file, the directory itself, a file in a missing
# directory, and a path with a NUL byte
FLAGS = {
    "hvec": {**_COMPOSITION, "--format": _FORMATS,
             "--method": st.sampled_from(["formula", "recursion", "complex", "all", "closed"])},
    "classify": {**_COMPOSITION, "--format": _FORMATS},
    "facets": {**_COMPOSITION, "--format": _FORMATS, "--method": st.sampled_from(["closed", "brute", "all"])},
    "gens": {**_COMPOSITION, "--format": _FORMATS},
    "verify": {"--max-n": _sweep_values(5), "--max-N": _sweep_values(8), "--hilbert-degree": _sweep_values(8)},
    "table": {"--max-n": _sweep_values(5), "--max-N": _sweep_values(8),
              "--out": st.sampled_from(["t.csv", ".", "missing/t.csv", "a\x00b"])},
}


@st.composite
def argvs(draw):
    """argv for one subcommand: some of its flags, each at most once, in any
    order, and mostly one of --r and --k where it takes them; now and then a
    foreign flag, or a flag with its value missing."""
    command = draw(st.sampled_from([*FLAGS, "bogus"]))
    own = FLAGS.get(command, {})
    optional = [name for name in own if name not in _COMPOSITION]
    names = draw(st.lists(st.sampled_from(optional), unique=True, max_size=len(optional))) if optional else []
    if "--k" in own and draw(st.integers(0, 7)):
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(list(_COMPOSITION))))
    if not draw(st.integers(0, 7)):
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(["--k", "--max-n", "--help", "--x"])))
    out = [command]
    for name in names:
        out.append(name)
        if name in own and draw(st.integers(0, 9)):
            out.append(draw(own[name]))
    return out


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


def _exit_code(out_dir, argv):
    """main's exit code on argv, --out under out_dir, after checking the contract."""
    argv = [str(out_dir / a) if flag == "--out" else a for flag, a in zip(["", *argv], argv)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    text = err.getvalue()
    assert "Traceback" not in text, argv
    if code == 1:
        assert text.startswith("error: ") and text.endswith("\n") and text.count("\n") == 1, \
            (argv, text)
    return code


@settings(max_examples=200, deadline=5000)
@given(argvs())
@example(["hvec", "--k", HUGE])
@example(["classify", "--r", HUGE])
@example(["gens", "--k", f"1,{HUGE}"])
@example(["facets", "--method", "brute", "--r", f"{HUGE},1"])
def test_every_argv_exits_0_1_or_2_without_a_traceback(out_dir, argv):
    _exit_code(out_dir, argv)


def _wrong_route(c):
    return IntPoly((2,))  # h_0 is 1 on every bouquet, so this h is never right


@settings(max_examples=100, deadline=5000)
@given(argvs())
@example(["hvec", "--k", "2,1", "--format", "csv"])
@example(["classify", "--k", "2,1", "--format", "json"])
@example(["table", "--max-n", "2", "--max-N", "2", "--out", "t.csv"])
@example(["verify", "--max-n", "1", "--max-N", "1"])
def test_every_disagreement_exits_1_with_one_error_line(out_dir, argv):
    # a wrong recursion route: every command that runs it and finishes exits 1,
    # hvec only when it runs more than one route
    with patch.dict(ROUTES, recursion=_wrong_route):
        code = _exit_code(out_dir, argv)
    if code == 0 and "--help" not in argv:
        method = argv[argv.index("--method") + 1] if "--method" in argv else "all"
        assert argv[0] in ("facets", "gens") or (argv[0] == "hvec" and method != "all"), argv
