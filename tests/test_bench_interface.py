"""The names the benchmark harness under perfbench/ reaches into the package by.

The tracer wraps functions by module and name, and the verify-sweep workload
reads the status names verify_composition returns.  Renaming or deleting one
of them would crash the benchmark rather than fail a test, so they are pinned
here; the harness files are imported as they are, not copied.
"""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from oddbouquet import cli
from oddbouquet.certify import sweep_compositions
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


def _shuffled_sweep(seed=1):
    """Each bouquet of verify's default sweep in a seeded shuffled cycle
    order, as the verify-sweep workload runs them."""
    rng = random.Random(seed)
    out = []
    for c in sweep_compositions(5, 8):
        k = list(c.k)
        rng.shuffle(k)
        out.append(tuple(k))
    return out


# all 59 bouquets: the skip rule is decided by k alone, and only here does a
# ground set exceed the brute oracle's cap (the 4/6 golden stops at 16 edges)
@pytest.mark.parametrize("k", _shuffled_sweep())
def test_verify_composition_returns_the_bench_check_names(k):
    checks = _load("bench_checks")
    statuses = cli.verify_composition(build_from_k(k), cli.SweepRange(max_n=5, max_N=8))
    assert set(checks.CHECK_NAMES) <= set(statuses)
    assert checks.check_verify_statuses(k, statuses), statuses
