import gc
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

from oddbouquet import certify, cli, composition, ringinv, srcomplex, toric
from oddbouquet.certify import ROUTES, sweep_compositions
from oddbouquet.cli import canonical_json, main
from oddbouquet.composition import LabeledGraph, build_from_k
from oddbouquet.ringinv import GorensteinReport
from oddbouquet.srcomplex import SimplicialComplex, facets_closed_form
from reference import sorted_sweep


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_sweep_enumeration():
    comps = list(sweep_compositions(1, 1))
    assert [c.k for c in comps] == [(1,)]
    # a stream, not a list: a consumer holds only the bouquet it is on
    stream = sweep_compositions(3, 5)
    assert iter(stream) is stream
    ks = [c.k for c in stream]
    assert len(ks) == len(set(ks))
    assert all(len(k) <= 3 and sum(k) <= 5 for k in ks)
    assert all(tuple(sorted(k, reverse=True)) == k for k in ks)
    assert (3, 2) in ks and (1, 1, 1) in ks and (5,) in ks
    # the same set as the sorted-prefix reference
    direct = set(sorted_sweep(3, 5))
    assert set(ks) == direct


def test_sweep_matches_the_sorted_prefixes():
    sizes = set()
    for max_n in range(10):
        for max_N in range(19):
            ks = [c.k for c in sweep_compositions(max_n, max_N)]
            assert ks == sorted_sweep(max_n, max_N), (max_n, max_N)
            sizes.add(len(ks))
    assert max(sizes) == 1409 and 0 in sizes


def test_hvec_all_methods(capsys):
    code, out, _ = run(capsys, "hvec", "--r", "1,1,1", "--method", "all")
    assert code == 0
    assert "agree = true" in out
    assert "(1, 2, 3, 4, 4, 3, 1)" in out


def test_hvec_single_methods(capsys):
    code, out, _ = run(capsys, "hvec", "--k", "3", "--method", "formula")
    assert code == 0
    assert "h[formula] = (1)" in out
    code, out, _ = run(capsys, "hvec", "--r", "3", "--method", "complex")
    assert code == 0
    assert "h[complex] = (1, 2, 3, 1)" in out


def test_hvec_json_round_trip(capsys):
    code, out, _ = run(capsys, "hvec", "--r", "1,1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["h"] == [1, 2, 3, 4, 4, 3, 1]
    assert payload["r"] == [1, 1, 1]
    assert payload["n"] == 3 and payload["N"] == 6 and payload["s"] == 6
    assert payload["facets"] == 18
    assert payload["methods_agree"] is True
    assert canonical_json(payload) == out.strip()
    assert set(payload) == {
        "r", "n", "N", "h", "s", "facets", "type", "e_tilde",
        "gorenstein", "almost_gorenstein", "methods_agree",
    }


def test_hvec_disagreement_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(ROUTES, "complex", lambda c: (9,))
    code, out, _ = run(capsys, "hvec", "--r", "3", "--method", "all")
    assert code == 1
    assert "agree = false" in out


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--r", "3")
    assert code == 0
    assert "almost_gorenstein = true" in out
    assert "gorenstein = false" in out

    code, out, _ = run(capsys, "classify", "--r", "1,1,1")
    assert code == 0
    assert "type = 2" in out and "e_tilde = 6" in out
    assert "almost_gorenstein = false" in out

    code, out, _ = run(capsys, "classify", "--k", "1,1")
    assert code == 0
    assert "gorenstein = true" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--k", "1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gorenstein"] is True and payload["almost_gorenstein"] is True
    assert payload["h"] == [1, 1, 1]
    assert canonical_json(payload) == out.strip()


def test_facets_listing(capsys):
    code, out, _ = run(capsys, "facets", "--k", "1,1")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l.startswith("x")]
    assert len(lines) == 3
    assert all(len(line.split()) == 5 for line in lines)
    assert "x1,1 x1,2 x1,3 x2,1 x2,3" in lines
    assert "total 3 facets of size 5" in out


def test_facets_golden_listing(capsys):
    # hand-derived facet lines for a 5-cycle plus a triangle
    code, out, _ = run(capsys, "facets", "--k", "2,1")
    assert code == 0
    assert out.splitlines()[:4] == [
        "x1,1 x1,2 x1,3 x1,4 x1,5 x2,1 x2,3",
        "x1,1 x1,2 x1,3 x1,4 x2,1 x2,2 x2,3",
        "x1,1 x1,2 x1,4 x1,5 x2,1 x2,2 x2,3",
        "x1,2 x1,3 x1,4 x1,5 x2,1 x2,2 x2,3",
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_facets_brute_matches_closed(capsys, fmt):
    # brute facets come out in search order; both listings are sorted
    code_a, out_a, _ = run(capsys, "facets", "--k", "2,1", "--format", fmt)
    code_b, out_b, _ = run(capsys, "facets", "--k", "2,1", "--method", "brute", "--format", fmt)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_facets_brute_over_cap_is_usage_error(capsys):
    # 22 edges is above the oracle's ground-set cap: exit 2, not a traceback
    code, out, err = run(capsys, "facets", "--k", "9,1", "--method", "brute")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "too large" in err


def test_gens_output(capsys):
    code, out, _ = run(capsys, "gens", "--k", "1,1")
    assert code == 0
    assert "x1,1*x1,3*x2,2 - x1,2*x2,1*x2,3" in out
    code, out, _ = run(capsys, "gens", "--k", "2")
    assert code == 0
    assert "no generators" in out


def test_gens_json(capsys):
    code, out, _ = run(capsys, "gens", "--k", "3,2,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    gens = payload["generators"]
    assert len(gens) == 3
    assert gens[1]["plus"] == ["x1,1", "x1,3", "x1,5", "x1,7", "x3,2"]
    assert gens[1]["leading"] == gens[1]["plus"]


def test_verify_small_sweeps(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--max-N", "5")
    assert code == 0
    assert "all checks passed" in out
    code, out, _ = run(capsys, "verify", "--max-n", "1", "--max-N", "4")
    assert code == 0
    assert "all checks passed" in out


def test_verify_full_degree_on_the_default_sweep(capsys):
    # both Hilbert series to degree V = 17 on every bouquet of the default sweep
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--max-N", "8", "--hilbert-degree", "17")
    assert code == 0
    assert "59 compositions checked in " in out
    assert out.endswith("all checks passed\n")


def test_verify_releases_each_bouquet_after_its_row(capsys, monkeypatch):
    # a bouquet, with the structure cached on it, must not outlive its row;
    # ids are unique among live objects, so a bouquet is released once its
    # id has been dropped by a finalizer
    live = set()
    monkeypatch.setattr(composition.OddCycleComposition, "__del__",
                        lambda self: live.discard(id(self)), raising=False)

    def verify(c, rng):
        gc.collect()
        assert not live, c.k
        live.add(id(c))
        return certify.verify_composition(c, rng)

    monkeypatch.setattr(cli, "verify_composition", verify)
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--max-N", "4")
    assert code == 0 and "all checks passed" in out
    assert out.count("\n") == len(list(sweep_compositions(3, 4))) + 3


def test_verify_reports_failures(capsys, monkeypatch):
    # break one route: the matrix must flag h3way and exit 1 listing (k, check)
    monkeypatch.setitem(ROUTES, "recursion", lambda c: (5,))
    code, out, _ = run(capsys, "verify", "--max-n", "1", "--max-N", "2")
    assert code == 1
    assert "FAILURES:" in out
    assert "k=(1,): h3way" in out
    assert "k=(2,): h3way" in out


def _badly_ordered(c):
    # same facets, but two that differ in more than one element come first,
    # so the emitted order is no shelling
    cx = facets_closed_form(c)
    masks = cx.facets
    for i, j in combinations(range(len(masks)), 2):
        if (masks[i] & ~masks[j]).bit_count() > 1:
            first = [masks[i], masks[j]]
            rest = [f for f in masks if f not in first]
            return SimplicialComplex(cx.ground_size, tuple(first + rest))
    return cx


def test_verify_reports_non_shelling_order(capsys, monkeypatch):
    # a facet order that is no shelling: a FAIL row, never a traceback
    monkeypatch.setattr(certify, "facets_closed_form", _badly_ordered)
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--max-N", "3")
    assert code == 1
    row = next(line.split() for line in out.splitlines() if line.startswith("(1, 1, 1)"))
    statuses = dict(zip(cli.CHECK_NAMES, row[3:]))
    assert statuses["shelling"] == statuses["h3way"] == statuses["fvec"] == "FAIL"
    assert statuses["facets"] == statuses["brutefacets"] == "ok"
    assert "k=(1, 1, 1): shelling" in out
    assert "k=(1,): shelling" not in out  # one facet: nothing to reorder


def test_verify_runs_each_route_once_per_bouquet(monkeypatch):
    # classify (and with it the closed form), the recursion, the facets and
    # their shelling: once per bouquet, shared by every column that uses them
    calls = {"classify": 0, "h_closed_form": 0, "h_recursive": 0,
             "shelling_h_vector": 0, "facets_closed_form": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ringinv, "h_closed_form", counted(ringinv.h_closed_form))
    monkeypatch.setitem(ROUTES, "recursion", counted(ringinv.h_recursive))
    for name in ("classify", "shelling_h_vector", "facets_closed_form"):
        monkeypatch.setattr(certify, name, counted(getattr(certify, name)))
    comps = list(sweep_compositions(3, 5))
    for c in comps:
        assert set(certify.verify_composition(c, cli.SweepRange(3, 5))
                   .values()) <= {"ok", "skip"}, c.k
    assert calls == dict.fromkeys(calls, len(comps))


@pytest.mark.parametrize("fault, message", [
    ("closed form", "error: not an h-polynomial\n"),
    ("facet order", "error: facet order is not a shelling at facet "),
])
@pytest.mark.parametrize("argv", [
    ["hvec", "--k", "1,1,1"],
    ["classify", "--k", "1,1,1", "--format", "text"],
    ["classify", "--k", "1,1,1", "--format", "json"],
    ["classify", "--k", "1,1,1", "--format", "csv"],
    ["table", "--max-n", "3", "--max-N", "3"],
])
def test_route_raising_value_error_exits_1(capsys, monkeypatch, tmp_path, fault, message, argv):
    # a closed form that is not an h-polynomial, or facets in an order that is
    # no shelling, is a mathematical disagreement: exit 1, never a traceback
    if fault == "closed form":
        monkeypatch.setattr(ringinv, "h_closed_form", lambda c: (9,))
    else:
        monkeypatch.setattr(srcomplex, "facets_closed_form", _badly_ordered)
    if argv[0] == "table":
        argv = argv + ["--out", str(tmp_path / "t.csv")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(message) and err.count("\n") == 1


def _verify_rows(out):
    # the k column is 22 characters wide; the statuses follow in CHECK_NAMES order
    return {line[:22].rstrip(): line[22:].split() for line in out.splitlines()
            if line.startswith("(")}


def _failure_count(out):
    # the lines of the FAILURES block, one per (k, check)
    return sum(line.startswith("  k=") for line in out.splitlines())


def test_verify_route_raising_value_error_fails_its_cells(capsys, monkeypatch):
    # a closed form that is not an h-polynomial, or one that stops before h_1:
    # FAIL in the checks that read it, every other cell as before, and the
    # sweep goes on to the last row; (1,) is right on a single cycle only
    code, clean, _ = run(capsys, "verify", "--max-n", "2", "--max-N", "2")
    assert code == 0
    fail = dict.fromkeys(["h3way", "facets", "hilbert", "classify"], "FAIL")
    for h, wrong_on in [((9,), ["(1)", "(2)", "(1, 1)"]), ((1,), ["(1, 1)"])]:
        monkeypatch.setattr(ringinv, "h_closed_form", lambda c: h)
        code, out, err = run(capsys, "verify", "--max-n", "2", "--max-N", "2")
        assert (code, err) == (1, f"error: {_failure_count(out)} checks failed\n")
        rows, clean_rows = _verify_rows(out), _verify_rows(clean)
        assert list(rows) == list(clean_rows) == ["(1)", "(2)", "(1, 1)"]
        for k, row in rows.items():
            expected = {**dict(zip(cli.CHECK_NAMES, clean_rows[k])), **(fail if k in wrong_on else {})}
            assert dict(zip(cli.CHECK_NAMES, row)) == expected, (h, k)


def test_verify_malformed_graph_fails_its_hilbert_cell(capsys, monkeypatch):
    # an extra edge between two outer vertices leaves a branch at the hub that
    # is no hub path: the split raises ValueError, the hilbert cell says FAIL,
    # every other cell is as before and the sweep goes on to the last row
    code, clean, _ = run(capsys, "verify", "--max-n", "2", "--max-N", "3")
    assert code == 0

    def with_chord(c):
        g = composition.labeled_graph(c)
        return LabeledGraph(g.n_vertices, g.endpoints + ((1, g.n_vertices - 1),))

    monkeypatch.setattr(toric, "labeled_graph", with_chord)
    with pytest.raises(ValueError, match="not a path from the hub back to the hub"):
        toric.edge_subring_hilbert_series(build_from_k((2, 1)), 3)
    code, out, err = run(capsys, "verify", "--max-n", "2", "--max-N", "3")
    assert (code, err) == (1, f"error: {_failure_count(out)} checks failed\n")
    rows, clean_rows = _verify_rows(out), _verify_rows(clean)
    assert list(rows) == list(clean_rows) == ["(1)", "(2)", "(3)", "(1, 1)", "(2, 1)"]
    for k, row in rows.items():
        expected = {**dict(zip(cli.CHECK_NAMES, clean_rows[k])), "hilbert": "FAIL"}
        assert dict(zip(cli.CHECK_NAMES, row)) == expected, k


def test_verify_recursion_error_still_exits_2(capsys, monkeypatch):
    # RecursionError is a RuntimeError, but it says the instance is too large
    def too_deep(*args):
        raise RecursionError

    monkeypatch.setattr(certify, "facets_brute_force", too_deep)
    code, _, err = run(capsys, "verify", "--max-n", "1", "--max-N", "1")
    assert (code, err) == (2, "error: instance too large\n")


def test_verify_fvec_checks_the_degree(capsys, monkeypatch):
    # for one triangle V = E = 3; this h has h_0 = 1 and h_1 = E - V, but its
    # degree is above V, so no complex on 3-element facets has it
    h = (1, 0, 0, 0, 1)
    c = build_from_k((1,))
    assert h[:2] == (1, c.edge_count - c.vertex_count)
    monkeypatch.setattr(certify, "shelling_h_vector", lambda facets: h)
    code, out, _ = run(capsys, "verify", "--max-n", "1", "--max-N", "1")
    assert code == 1
    assert dict(zip(cli.CHECK_NAMES, _verify_rows(out)["(1)"]))["fvec"] == "FAIL"


def test_hvec_large_single_cycle(capsys):
    # one 25-cycle: a single facet of 25 elements, h = 1
    code, out, _ = run(capsys, "hvec", "--k", "12")
    assert code == 0
    assert "h[complex] = (1)" in out
    assert "agree = true" in out


def test_hvec_all_routes_many_cycles(capsys):
    # nine cycles, 1021 facets of 23 elements
    code, out, _ = run(capsys, "hvec", "--method", "all", "--k", "3,1,1,1,1,1,1,1,1")
    assert code == 0
    assert "h[complex] = (1, 8, 36, 92, 162, 210, 210, 162, 93, 37, 9, 1)" in out
    assert "agree = true" in out


def test_memory_error_is_usage_error(capsys, monkeypatch):
    def exhausted(c):
        raise MemoryError

    # the formula route is the h that classify computes
    monkeypatch.setattr(ringinv, "h_closed_form", exhausted)
    code, out, err = run(capsys, "hvec", "--method", "formula", "--k", "2,1")
    assert (code, out, err) == (2, "", "error: instance too large\n")


def test_recursion_error_is_usage_error(capsys, monkeypatch):
    def too_deep(c):
        raise RecursionError

    monkeypatch.setitem(ROUTES, "recursion", too_deep)
    code, out, err = run(capsys, "hvec", "--k", "2,1", "--method", "recursion")
    assert (code, out, err) == (2, "", "error: instance too large\n")


@pytest.mark.parametrize("m", [500, 600])
def test_recursion_route_on_long_cycles(capsys, m):
    # the recursion grows each cycle in a loop of shift-and-add steps, so a
    # long cycle costs steps, not stack; h of (m, m) is 2m + 1 ones
    code, out, err = run(capsys, "hvec", "--k", f"{m},{m}", "--method", "recursion")
    assert (code, err) == (0, "")
    _, formula, _ = run(capsys, "hvec", "--k", f"{m},{m}", "--method", "formula")
    assert out.splitlines()[1] == formula.splitlines()[1].replace("formula", "recursion")
    assert out.splitlines()[1] == f"h[recursion] = ({', '.join(['1'] * (2 * m + 1))})"


def _capped(mib):
    """A preexec_fn that caps the child's address space at mib MiB."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))

    return cap


def _run_capped(mib, *argv, timeout):
    """The CLI in a child process under an address-space cap of mib MiB."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "oddbouquet.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=_capped(mib), timeout=timeout,
    )


def test_huge_cycle_exits_2_under_memory_cap():
    # the derived cycle counts r have max(k) entries; under a 1 GiB
    # address-space cap their first use fails at once with MemoryError, which
    # must end in exit 2
    proc = _run_capped(1024, "hvec", "--k", "99999999999", timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: instance too large\n")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("stderr_closed", [False, True])
def test_closed_stdout_exits_2(capsys, monkeypatch, stderr_closed):
    # the reader is gone: an I/O error, not a mathematical disagreement, also
    # when stderr went to the same reader
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    if stderr_closed:
        monkeypatch.setattr(sys, "stderr", _ClosedPipe())
    code = main(["classify", "--k", "2,1"])
    err = capsys.readouterr().err
    assert (code, err) == (2, "" if stderr_closed else "error: stdout closed\n")


VERIFY_HEADER = f"{'k':<22}" + "".join(f"{name:>12}" for name in cli.CHECK_NAMES) + "\n"


@pytest.mark.parametrize("argv, first_line", [
    (["facets", "--k", ",".join(["1"] * 12)], "x1,"),  # 540 KB of facets
    # a sweep that never ends: its rows stream, so the header comes at once
    (["verify", "--max-n", "2", "--max-N", "99999999999999999999"], VERIFY_HEADER),
], ids=["facets", "verify"])
def test_closed_pipe_exits_2_without_traceback(argv, first_line):
    # a write after the reader closes the pipe fails; the 512 MiB cap keeps a
    # sweep listed before its first row from taking the host's memory
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    with subprocess.Popen(
        [sys.executable, "-m", "oddbouquet.cli", *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env, preexec_fn=_capped(512),
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert first.startswith(first_line)
    assert "Traceback" not in err
    assert (proc.returncode, err) == (2, "error: stdout closed\n")


def _env_buffered():
    # src on the path, and stdout block-buffered as it is by default into a pipe
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return env


def _help_into_a_closed_stdout(argv, env):
    """Exit code and stderr of argv, run after its reader has closed stdout."""
    code = "import time; time.sleep(0.5); from oddbouquet.cli import main_entry; main_entry()"
    with subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    ) as proc:
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert "Exception ignored" not in err
    return proc.returncode, err


@pytest.mark.parametrize("argv", [["--help"], ["hvec", "--help"]])
def test_help_into_a_closed_stdout_exits_2(argv):
    # the reader is gone before the help is written: the help sits in the
    # stdout buffer until main flushes it, and that flush is an I/O error
    assert _help_into_a_closed_stdout(argv, _env_buffered()) == (2, "error: stdout closed\n")


@pytest.mark.parametrize("argv", [["--help"], ["hvec", "--help"]])
def test_unbuffered_help_into_a_closed_stdout_exits_2(argv):
    # unbuffered, the help's own write meets the closed pipe, and argparse's
    # writer would swallow that error and exit 0
    env = dict(_env_buffered(), PYTHONUNBUFFERED="1")
    assert _help_into_a_closed_stdout(argv, env) == (2, "error: stdout closed\n")


def _close_stderr():
    os.close(2)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("stderr", ["closed", "read-only"])
def test_unwritable_stderr_keeps_the_exit_code(stderr, unbuffered):
    # a usage error with nowhere to write its error line still exits 2, and
    # the line goes to no other stream; closed, fd 2 makes sys.stderr None
    env = dict(_env_buffered(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    with open(os.devnull, "rb") as devnull:
        proc = subprocess.run(
            [sys.executable, "-m", "oddbouquet.cli", "hvec", "--k", "0"],
            stdout=subprocess.PIPE, text=True, env=env, timeout=60,
            **({"preexec_fn": _close_stderr} if stderr == "closed" else {"stderr": devnull}),
        )
    assert (proc.returncode, proc.stdout) == (2, "")


@pytest.mark.parametrize("stderr", [None, _ClosedPipe()])
def test_unwritable_stderr_keeps_a_disagreement_exit_1(capsys, monkeypatch, stderr):
    monkeypatch.setitem(ROUTES, "recursion", lambda c: (2,))
    monkeypatch.setattr(sys, "stderr", stderr)
    code = main(["hvec", "--k", "2,1"])
    out = capsys.readouterr().out
    assert code == 1 and "agree = false" in out and "error:" not in out


def test_closed_stdout_at_start_up_exits_2(capsys, monkeypatch):
    # a stdout closed before start-up is None: nothing can be written
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["hvec", "--k", "2,1"]) == 2
    assert capsys.readouterr().err == "error: stdout closed\n"


HUGE = "99999999999999999999"  # more cycle counts than a list can index


@pytest.mark.parametrize("argv", [
    *([cmd, "--k", HUGE] for cmd in ("hvec", "classify", "gens", "facets")),
    ["hvec", "--r", HUGE],
    ["classify", "--r", f"1,{HUGE}"],
])
def test_overflowing_instance_exits_2(capsys, argv):
    # the first use of the cycle counts r or of a cycle's edge mask raises
    # OverflowError before any allocation
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: instance too large\n")


def test_hilbert_degree_14_on_long_cycles_fits_in_512_mb():
    # one or two cycles, up to 29 edges in one cycle, counted to degree 14: the
    # hub split counts each cycle's degree masks without listing its vectors
    proc = _run_capped(512, "verify", "--max-n", "2", "--max-N", "14", "--hilbert-degree", "14",
                       timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("all checks passed\n")


def test_recursion_on_300_short_cycles_fits_in_512_mb():
    # (2^300): the recursion keeps a row of 301 h's at most.  The payload's h
    # is the closed form's, and a lone route that disagrees with it exits 1,
    # so exit 0 certifies the recursion's answer too
    proc = _run_capped(512, "hvec", "--k", ",".join(["2"] * 300), "--method", "recursion",
                       "--format", "json", timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["h"] == list(ringinv.h_closed_form(build_from_k([2] * 300)))


@pytest.mark.parametrize("argv, classifications, closed_forms", [
    (["classify", "--k", "2,1,1", "--format", "json"], 1, 1),
    (["classify", "--k", "2,1,1", "--format", "csv"], 1, 1),
    (["classify", "--k", "2,1,1"], 1, 1),
    (["hvec", "--k", "2,1,1"], 1, 1),
    (["hvec", "--k", "2,1,1", "--format", "json"], 1, 1),  # the formula route is classify's h
    (["table", "--max-n", "3", "--max-N", "4"], 1, 1),
    (["hvec", "--k", "2,1,1", "--format", "csv"], 1, 1),
])
def test_one_classification_per_bouquet(capsys, monkeypatch, tmp_path, argv,
                                        classifications, closed_forms):
    # every format of a command runs the same routes: all three, once per bouquet
    calls = {"classify": 0, "h_closed_form": 0, "h_recursive": 0, "h_by_complex": 0}

    def counted(fn):
        def wrapper(c):
            calls[fn.__name__] += 1
            return fn(c)
        return wrapper

    closed_form = counted(ringinv.h_closed_form)
    monkeypatch.setattr(ringinv, "h_closed_form", closed_form)
    monkeypatch.setattr(certify, "h_closed_form", closed_form)
    monkeypatch.setitem(ROUTES, "formula", closed_form)
    for name, route in [("recursion", "h_recursive"), ("complex", "h_by_complex")]:
        wrapped = counted(getattr(certify, route))
        monkeypatch.setattr(certify, route, wrapped)
        monkeypatch.setitem(ROUTES, name, wrapped)
    monkeypatch.setattr(certify, "classify", counted(ringinv.classify))
    bouquets = 1
    if argv[0] == "table":
        argv = argv + ["--out", str(tmp_path / "t.csv")]
        bouquets = len(list(sweep_compositions(3, 4)))
    assert run(capsys, *argv)[0] == 0
    assert calls == {"classify": classifications * bouquets,
                     "h_closed_form": closed_forms * bouquets,
                     "h_recursive": bouquets, "h_by_complex": bouquets}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_classify_exits_1_when_routes_disagree(capsys, monkeypatch, fmt):
    monkeypatch.setitem(ROUTES, "recursion", lambda c: (1, 5))
    code, out, err = run(capsys, "classify", "--k", "2,1", "--format", fmt)
    assert (code, err) == (1, "error: h-vector routes disagree\n")
    if fmt == "json":
        assert json.loads(out)["methods_agree"] is False
    # a closed form that stops before h_1 also contradicts h_1 = n - 1: both
    # faults are named, and reading the missing h_1 raises nothing
    monkeypatch.undo()
    monkeypatch.setattr(ringinv, "h_closed_form", lambda c: (1,))
    code, out, err = run(capsys, "classify", "--k", "2,1", "--format", fmt)
    assert (code, err) == (1, "error: h-vector routes disagree; "
                              "the classification does not match the characterization\n")
    if fmt == "json":
        assert json.loads(out)["h"] == [1] and json.loads(out)["methods_agree"] is False


def _fail_characterization(monkeypatch, field="is_almost_gorenstein", k=None):
    # classify negates one field of its report, on bouquet k or on every
    # bouquet, so that the report contradicts the characterization
    def wrong(c):
        rep = ringinv.classify(c)
        if k not in (None, c.k):
            return rep
        return GorensteinReport(*[not getattr(rep, name) if name == field else getattr(rep, name)
                                  for name in rep._fields])

    monkeypatch.setattr(certify, "classify", wrong)


def test_table_exits_1_on_failed_characterization(capsys, monkeypatch, tmp_path):
    _fail_characterization(monkeypatch)
    out_path = tmp_path / "t.csv"
    code, out, err = run(capsys, "table", "--max-n", "2", "--max-N", "3", "--out", str(out_path))
    assert code == 1
    assert out == f"wrote {len(list(sweep_compositions(2, 3)))} rows to {out_path}\n"
    assert "(1,)" in err
    for fmt in ("text", "json", "csv"):
        assert run(capsys, "classify", "--k", "2,1", "--format", fmt)[0] == 1


def test_gorenstein_flag_is_part_of_the_verdict(capsys, monkeypatch, tmp_path):
    # a Gorenstein (2,1,1) contradicts the characterization although its
    # almost Gorenstein flag is as predicted: classify, table and verify fail
    _fail_characterization(monkeypatch, "is_gorenstein", (2, 1, 1))
    for fmt in ("text", "json", "csv"):
        assert run(capsys, "classify", "--k", "2,1,1", "--format", fmt)[0] == 1
    code, _, err = run(capsys, "table", "--max-n", "3", "--max-N", "4",
                       "--out", str(tmp_path / "t.csv"))
    assert code == 1
    assert "[(2, 1, 1)]" in err
    statuses = certify.verify_composition(build_from_k((2, 1, 1)), cli.SweepRange(3, 4))
    assert statuses["classify"] == "FAIL"


def test_e_tilde_closed_form_is_part_of_the_verdict(capsys, monkeypatch):
    # e~ is compared with its closed form for n >= 3 only, where it is stated
    monkeypatch.setattr(certify, "e_tilde_closed", lambda c: -1)
    for fmt in ("text", "json", "csv"):
        assert run(capsys, "classify", "--k", "1,1,1", "--format", fmt)[0] == 1
        assert run(capsys, "classify", "--k", "2,1", "--format", fmt)[0] == 0


def test_hvec_ignores_the_characterization(capsys, monkeypatch):
    # hvec answers for its routes only: a failed characterization is not its exit
    _fail_characterization(monkeypatch)
    for fmt in ("text", "json", "csv"):
        assert run(capsys, "hvec", "--k", "2,1", "--format", fmt)[0] == 0


@pytest.mark.parametrize("method", ["all", "recursion", "complex"])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_hvec_names_a_disagreement_in_every_format(capsys, monkeypatch, fmt, method):
    # the report goes out as usual, then one line on stderr says why the exit
    # is 1; a route run alone is checked against the h the report prints
    monkeypatch.setitem(ROUTES, "recursion" if method == "all" else method, lambda c: (1, 5))
    code, out, err = run(capsys, "hvec", "--k", "2,1", "--method", method, "--format", fmt)
    assert (code, err) == (1, "error: h-vector routes disagree\n")
    assert out


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_classify_names_each_fault_on_one_line(capsys, monkeypatch, fmt):
    # a failed characterization alone, then with disagreeing routes as well
    _fail_characterization(monkeypatch)
    code, _, err = run(capsys, "classify", "--k", "2,1", "--format", fmt)
    assert (code, err) == (1, "error: the classification does not match the characterization\n")
    monkeypatch.setitem(ROUTES, "recursion", lambda c: (1, 5))
    code, _, err = run(capsys, "classify", "--k", "2,1", "--format", fmt)
    assert (code, err) == (1, "error: h-vector routes disagree; "
                              "the classification does not match the characterization\n")


@pytest.mark.parametrize("argv", [
    ["classify", "--k", "2,1"],
    ["hvec", "--k", "2,1", "--format", "json"],
])
def test_disagreement_line_comes_after_the_report(argv):
    # stdout and stderr into one pipe: the report is flushed before the error line
    code = ("import sys; from oddbouquet import certify, cli;"
            " certify.ROUTES['recursion'] = lambda c: (1, 5);"
            " sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, env=_env_buffered(), timeout=60)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1
    assert len(lines) > 1 and lines[-1] == "error: h-vector routes disagree"


def test_format_choices_per_subcommand(capsys):
    for sub, formats in [("hvec", ("text", "json", "csv")), ("classify", ("text", "json", "csv")),
                         ("facets", ("text", "json")), ("gens", ("text", "json"))]:
        for fmt in formats:
            assert run(capsys, sub, "--k", "1", "--format", fmt)[0] == 0
        if "csv" not in formats:
            code, _, err = run(capsys, sub, "--k", "1", "--format", "csv")
            assert code == 2 and "invalid choice: 'csv'" in err


def test_verify_hilbert_degree_flag(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--max-N", "4", "--hilbert-degree", "3")
    assert code == 0
    assert "skip" in out  # decompose on (1,) and (1, 1), where k_1 < 2


def test_verify_hilbert_column_checks_h(capsys, monkeypatch):
    # the two counters still agree; only the count derived from h is off
    monkeypatch.setattr(certify, "hilbert_from_h", lambda h, dim, d: 0)
    code, out, _ = run(capsys, "verify", "--max-n", "1", "--max-N", "1")
    assert code == 1
    assert "k=(1,): hilbert" in out


def test_verify_default_sweep():
    args = cli.build_parser().parse_args(["verify"])
    assert (args.max_n, args.max_N) == (5, 8)


def test_verify_golden_matrix(capsys):
    # the whole matrix for n <= 4, N <= 6, minus the line with the elapsed time
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--max-N", "6")
    assert code == 0
    lines = out.splitlines(keepends=True)
    assert lines[-2].startswith("26 compositions checked in ")
    golden = Path(__file__).parent / "data" / "verify_max_n4_max_N6.txt"
    assert "".join(lines[:-2] + lines[-1:]) == golden.read_text(encoding="utf-8")


GOLDEN_REPORT_BOUQUETS = ["3,2,1", "2,1,1", "1", "1,1,1,1", "4,3"]


def report_transcript(tmp_path):
    """Stdout and exit code of hvec, classify, facets and gens in every format
    on each of GOLDEN_REPORT_BOUQUETS, of the oracle's facets on one of them,
    then those of a small table and its CSV file."""
    calls = []
    for k in GOLDEN_REPORT_BOUQUETS:
        calls += [["hvec", "--k", k, "--method", m] for m in ("all", "formula", "complex")]
        calls += [["hvec", "--k", k, "--format", f] for f in ("json", "csv")]
        calls += [["classify", "--k", k, "--format", f] for f in ("text", "json", "csv")]
        calls += [[cmd, "--k", k, "--format", f] for cmd in ("facets", "gens") for f in ("text", "json")]
    calls.append(["facets", "--k", "2,1,1", "--method", "brute"])
    out_path = tmp_path / "table.csv"
    calls.append(["table", "--max-n", "3", "--max-N", "5", "--out", str(out_path)])
    parts = []
    for argv in calls:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        shown = " ".join(argv).replace(str(out_path), "table.csv")
        parts.append(f"$ oddbouquet {shown}\n{out.getvalue().replace(str(out_path), 'table.csv')}"
                     f"exit {code}\n")
    parts.append("$ cat table.csv\n" + out_path.read_text(encoding="utf-8"))
    return "".join(parts)


def test_report_golden(tmp_path):
    # regenerate with src/ and tests/ on PYTHONPATH:  python -c "import pathlib, tempfile,
    #   test_cli; print(test_cli.report_transcript(pathlib.Path(tempfile.mkdtemp())), end='')"
    golden = Path(__file__).parent / "data" / "report_golden.txt"
    assert report_transcript(tmp_path) == golden.read_text(encoding="utf-8")


def test_table(tmp_path, capsys):
    out_path = tmp_path / "summary.csv"
    code, out, _ = run(capsys, "table", "--max-n", "3", "--max-N", "5",
                       "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    header, rows = lines[0], lines[1:]
    assert header == "r,n,N,h,s,facets,type,e_tilde,gorenstein,almost_gorenstein"
    assert len(rows) == len(list(sweep_compositions(3, 5)))
    triangle_rows = [r for r in rows if r.startswith("3,3,3,")]
    assert len(triangle_rows) == 1
    assert "1;2;3;1" in triangle_rows[0]


def test_table_minimal_range(tmp_path, capsys):
    out_path = tmp_path / "one.csv"
    code, out, _ = run(capsys, "table", "--max-n", "1", "--max-N", "1",
                       "--out", str(out_path))
    assert code == 0
    assert out == f"wrote 1 row to {out_path}\n"
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1] == "1,1,1,1,0,1,1,0,true,true"


def test_table_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "table", "--max-n", "1", "--max-N", "1",
                       "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_table_nul_byte_path_is_io_error(capsys):
    # open() rejects a NUL byte with ValueError; that is still an I/O error
    code, _, err = run(capsys, "table", "--max-n", "1", "--max-N", "1", "--out", "a\0b")
    assert code == 2
    assert err.startswith("error: cannot write")


def test_usage_errors(capsys):
    assert run(capsys, "hvec")[0] == 2                       # missing composition
    assert run(capsys, "hvec", "--r", "a,b")[0] == 2         # unparsable literal
    assert run(capsys, "hvec", "--r", "0")[0] == 2           # empty composition
    assert run(capsys, "hvec", "--k", "0,1")[0] == 2         # invalid cycle length
    assert run(capsys, "verify", "--max-n", "0", "--max-N", "4")[0] == 2
    assert run(capsys, "verify", "--max-n", "3", "--max-N", "2")[0] == 2
    assert run(capsys, "nope")[0] == 2                       # unknown subcommand
    for flag in ("--r", "--k"):                              # an empty list is no list
        assert run(capsys, "hvec", flag, "") == (2, "", "error: cannot parse integer list ''\n")
    assert run(capsys, "hvec", "--r", "0,-1") == (2, "", "error: negative cycle count\n")


def test_version_of_r_and_k_agree(capsys):
    code_a, out_a, _ = run(capsys, "hvec", "--r", "1,1,1", "--format", "json")
    code_b, out_b, _ = run(capsys, "hvec", "--k", "3,2,1", "--format", "json")
    assert code_a == code_b == 0
    assert out_a == out_b
