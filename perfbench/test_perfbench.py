"""Tests of the benchmark's own checks and bookkeeping.

    python3 -m pytest perfbench -q

A wrong answer, an unexpected skip and a nonzero exit must each count as a
failed operation; the metric names the benchmark prints must be the ones
BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import bench_checks as bc
import run
from bench_trace import Tracer, metric_names

sys.path.insert(0, str(run.SRC))

from oddbouquet import cli  # noqa: E402
from oddbouquet.composition import build_from_k  # noqa: E402


def test_independent_formulas():
    assert bc.h_vector((3, 2, 1)) == [1, 2, 3, 4, 4, 3, 1]
    assert bc.h_vector((4,)) == [1]
    assert bc.h_vector((1, 1, 1)) == [1, 2, 3, 1]
    assert len(bc.partitions(5, 8)) == 59
    assert len(bc.partitions(4, 7)) == 37
    assert bc.facet_count((3, 3, 2, 1)) == 78
    # a single cycle's edge ring is a polynomial ring in 2N + 1 variables
    assert bc.hilbert_value((3,), 4) == math.comb(4 + 6, 6)


def test_seed_fixes_the_inputs(tmp_path):
    def make(seed):
        return run.make_inputs("verify-sweep", random.Random(seed), tmp_path)

    assert make(4) == make(4) != make(5)
    assert sorted(tuple(sorted(k, reverse=True)) for k in make(4)) == sorted(bc.partitions(5, 8))


@pytest.mark.parametrize("k", [(2, 1), (1, 2), (1, 1, 1), (3, 2, 2, 1)])
def test_verify_statuses_accept_the_real_answer(k):
    statuses = cli.verify_composition(build_from_k(k), cli.SweepRange(max_n=5, max_N=8))
    assert bc.check_verify_statuses(k, statuses)


@pytest.mark.parametrize("name,status", [
    ("buchberger", "skip"),   # a check that skips where it used to run
    ("brutefacets", "skip"),  # E = 5 is under the oracle cap
    ("decompose", "ok"),      # k_1 = 1 must skip
    ("h3way", "FAIL"),
])
def test_unexpected_status_is_a_failed_operation(name, status):
    k = (1, 2)
    statuses = cli.verify_composition(build_from_k(k), cli.SweepRange(max_n=5, max_N=8))
    statuses[name] = status
    assert not bc.check_verify_statuses(k, statuses)
    ob = SimpleNamespace(
        composition=SimpleNamespace(build_from_k=lambda ks: ks),
        cli=SimpleNamespace(SweepRange=lambda **kw: None,
                            verify_composition=lambda c, sweep: statuses),
    )
    assert run.run_ops(run.verify_ops(ob, [k], None, None), run.Meter()) == [False]


def test_missing_status_is_a_failure():
    statuses = {name: "ok" for name in bc.CHECK_NAMES if name != "hilbert"}
    assert not bc.check_verify_statuses((3, 2), statuses)


def test_tampered_h_is_a_failed_operation():
    argv = ["classify", "--k", "1,3,2", "--format", "json"]
    code, out = run.run_call(argv, None)
    assert bc.check_call(argv, code, out)
    payload = json.loads(out)
    payload["h"][1] += 1
    assert not bc.check_call(argv, code, json.dumps(payload))


def test_nonzero_exit_is_a_failed_operation(tmp_path):
    argv = ["hvec", "--k", "0", "--format", "json"]
    assert run.run_call(argv, None)[0] == 2
    assert run.run_ops(run.report_ops(None, [argv], None, tmp_path), run.Meter()) == [False]


def test_every_command_check_accepts_the_real_output(tmp_path):
    ks = "2,1,3"
    calls = [
        ["classify", "--k", ks, "--format", "json"],
        ["hvec", "--method", "all", "--k", ks, "--format", "json"],
        ["classify", "--k", ks],
        ["gens", "--k", ks, "--format", "json"],
        ["facets", "--k", ks, "--format", "json"],
        ["table", "--max-n", "2", "--max-N", "3", "--out", str(tmp_path / "t.csv")],
    ]
    outcomes = run.run_ops(run.report_ops(None, calls, None, tmp_path), run.Meter())
    assert outcomes == [True] * len(calls)


def test_tampered_hilbert_count_is_a_failure():
    k = (2, 1, 1)
    gens = bc.generator_supports(k)
    n_pairs = math.comb(len(gens), 2)
    rows = [(d, bc.hilbert_value(k, d), bc.hilbert_value(k, d)) for d in range(4)]
    assert bc.check_toric(k, gens, [True] * len(gens), [True] * n_pairs, rows)
    rows[2] = (2, rows[2][1], rows[2][2] + 1)
    assert not bc.check_toric(k, gens, [True] * len(gens), [True] * n_pairs, rows)


def test_toric_pass_accepts_the_real_answers():
    ob = run.import_package()
    ops = run.toric_ops(ob, [((1, 2, 1), 3), ((1, 1), 4)], None, None)
    assert all(run.run_ops(ops, run.Meter()))


def test_meter_scales_by_the_reference_around_each_operation(monkeypatch):
    samples = iter([2 * run.REF_S, 2 * run.REF_S, 4 * run.REF_S])
    monkeypatch.setattr(run, "reference", lambda: next(samples))
    clock = iter([10.0, 10.3, 20.0, 20.3])
    monkeypatch.setattr(run, "perf_counter", lambda: next(clock))
    meter = run.Meter()
    assert meter.time("a", lambda: 7) == 7
    meter.time("b", lambda: None)
    # 0.3 s at half the reference speed, then at a third of it on average
    assert meter.times["a"] == [pytest.approx(0.15)]
    assert meter.times["b"] == [pytest.approx(0.1)]
    assert meter.pass_s() == pytest.approx(0.25)


def test_tracer_sees_calls_through_cli_names():
    ob = run.import_package()
    tracer = Tracer()
    tracer.install()
    try:
        ob.cli.main(["hvec", "--k", "2,1", "--method", "all"])
    finally:
        tracer.uninstall()
    assert tracer.totals["cli.h_by_complex.calls"] == 1
    assert tracer.totals["srcomplex.f_vector.calls"] == 1
    assert tracer.totals["ringinv.h_recursive.calls"] == 1
    assert tracer.totals["cli.hvec.s"] > 0
    assert ob.cli.f_vector is ob.srcomplex.f_vector
    assert not hasattr(ob.cli.f_vector, "__wrapped__")
    assert ob.cli._METHODS["complex"] is ob.cli.h_by_complex


def test_declared_metrics_match_the_printed_ones():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    extra = {"trace.wall_s": "s", "trace.pass_s": "s", "machine.ref_ms": "ms"}
    assert declared == dict(metric_names()) | extra
    assert {w["name"] for w in bench["workloads"]} == set(run.OPS)
    assert [m["name"] for m in bench["end_to_end"]] == \
        ["setup_s", "pass_s", "peak_rss_mb", "ok_frac"]
    assert Path(bench["command"][1]).parent.name == run.BENCH.name
