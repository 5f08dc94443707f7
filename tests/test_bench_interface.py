"""The names the benchmark harness under perfbench/ reaches into the package by.

The tracer wraps functions by module and name, and the verify-sweep workload
reads the status names verify_composition returns.  Renaming or deleting one
of them would crash the benchmark rather than fail a test, so they are pinned
here; the harness files are imported as they are, not copied.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from oddbouquet import cli
from oddbouquet.composition import build_from_k

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    spans = _load("bench_trace").spans()
    assert spans
    for span, mod, fn in spans:
        assert callable(getattr(importlib.import_module(f"oddbouquet.{mod}"), fn)), span


@pytest.mark.parametrize("k", [(2, 1), (1, 1), (9,)])
def test_verify_composition_returns_the_bench_check_names(k):
    checks = _load("bench_checks")
    statuses = cli.verify_composition(build_from_k(k), cli.SweepRange(max_n=5, max_N=8))
    assert set(checks.CHECK_NAMES) <= set(statuses)
    assert checks.check_verify_statuses(k, statuses), statuses
