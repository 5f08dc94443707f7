"""Benchmark of oddbouquet, driven from outside the package.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 36 --trace 0

Workloads (why each was chosen is in BENCHMARK.json and NOTES.md):

* verify-sweep   cli.verify_composition on every bouquet with n <= 5, N <= 8
* report-calls   single-bouquet CLI commands, one fresh interpreter per call
* toric-algebra  toric-ideal checks only: no srcomplex, no cli

The seed permutes each bouquet's cycle order and shuffles the order of the
bouquets or calls.  A run imports the package from this checkout's src/
(several times; the median is setup_s), then makes checked passes over the
workload, one after another, for about --seconds seconds and at least one
pass.  Every answer is checked against bench_checks; an operation (one
bouquet, or one CLI call) that gives a wrong answer, raises or exits nonzero
counts as failed.

Times are in seconds at the reference speed (see Meter): the vCPUs of a
shared host change speed by up to ~1.8x for tens of seconds at a time, so a
fixed pure-Python loop runs after every operation and each operation's time
is scaled by how fast that loop ran around it.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
passes run with bench_trace wrappers installed and the metrics are the
per-layer ones, per pass.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from itertools import combinations
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from bench_checks import (
    check_call,
    check_toric,
    check_verify_statuses,
    partitions,
)
from bench_trace import Tracer, metric_names

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15
CALL_TIMEOUT_S = 60
REPORT_BOUQUETS = [(2, 2, 2, 2), (3, 2, 1, 1), (4, 3), (1,) * 7]
# (n, N) from (8, 10) to (12, 14)
WIDE_BOUQUETS = [
    (2, 2, 1, 1, 1, 1, 1, 1),
    (3, 1, 1, 1, 1, 1, 1, 1, 1),
    (2, 2, 1, 1, 1, 1, 1, 1, 1, 1),
    (3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
]
REF_KEYS = tuple(random.Random(0).getrandbits(40) for _ in range(60000))
REF_MASK = (1 << 22) - 1
REF_SUBMASKS = 15000
REF_S = 0.005  # about the median of reference() on the machine described in NOTES.md


def reference() -> float:
    """Seconds taken by a fixed pure-Python load shaped like the program's own.

    It fills one set from random 40-bit keys, as the large face sets of
    f_vector do, and one from a submask enumeration, as f_vector walks a
    facet.  The median of three runs, with gc off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    times = []
    for _ in range(3):
        start = perf_counter()
        keys = set()
        for key in REF_KEYS:
            keys.add(key)
        masks = set()
        sub = REF_MASK
        for _ in range(REF_SUBMASKS):
            masks.add(sub)
            sub = (sub - 1) & REF_MASK
        times.append(perf_counter() - start)
    if was_enabled:
        gc.enable()
    return statistics.median(times)


class Meter:
    """Times operations in seconds at the reference speed.

    The reference loop runs after every operation.  An operation's wall time
    is multiplied by REF_S over the mean of the reference samples taken just
    before and just after it, so a phase in which the CPU runs slower slows
    both alike and cancels out, while a slower program does not.  The scaled
    times are kept per operation label.
    """

    def __init__(self) -> None:
        self.last = reference()
        self.refs = [self.last]
        self.times: dict[str, list[float]] = defaultdict(list)

    def time(self, label: str, fn):
        start = perf_counter()
        try:
            return fn()
        finally:
            wall = perf_counter() - start
            before, self.last = self.last, reference()
            self.refs.append(self.last)
            self.times[label].append(wall * 2 * REF_S / (before + self.last))

    def pass_s(self) -> float:
        """One pass: the sum over operations of each one's median time."""
        return sum(statistics.median(t) for t in self.times.values())


def import_package() -> SimpleNamespace:
    """Import oddbouquet afresh from this checkout's src/, never from elsewhere."""
    for name in [n for n in sys.modules if n == "oddbouquet" or n.startswith("oddbouquet.")]:
        del sys.modules[name]
    cli = importlib.import_module("oddbouquet.cli")
    if Path(cli.__file__).resolve().parent != SRC / "oddbouquet":
        raise ImportError(f"oddbouquet imported from {cli.__file__}, not from {SRC}")
    mods = ("cli", "composition", "ringinv", "srcomplex", "toric")
    return SimpleNamespace(**{m: sys.modules[f"oddbouquet.{m}"] for m in mods})


def _shuffled(rng: random.Random, items) -> tuple:
    out = list(items)
    rng.shuffle(out)
    return tuple(out)


def make_inputs(workload: str, rng: random.Random, workdir: Path) -> list:
    if workload == "verify-sweep":
        return list(_shuffled(rng, [_shuffled(rng, k) for k in partitions(5, 8)]))
    if workload == "toric-algebra":
        deep = [(_shuffled(rng, k), 6) for k in partitions(4, 5)]
        wide = [(_shuffled(rng, k), 3) for k in WIDE_BOUQUETS]
        return list(_shuffled(rng, deep + wide))
    calls = [["table", "--max-n", "4", "--max-N", "7", "--out", str(workdir / "table.csv")]]
    for k in REPORT_BOUQUETS:
        ks = ",".join(map(str, _shuffled(rng, k)))
        calls += [
            ["classify", "--k", ks, "--format", "json"],
            ["hvec", "--method", "all", "--k", ks, "--format", "json"],
            ["classify", "--k", ks],
            ["gens", "--k", ks, "--format", "json"],
            ["facets", "--k", ks, "--format", "json"],
        ]
    return list(_shuffled(rng, calls))


def run_ops(ops, meter: Meter) -> list[bool]:
    """Run each (label, fn) operation, timed by meter; True where it passed."""
    return [_attempt(label, lambda label=label, fn=fn: meter.time(label, fn))
            for label, fn in ops]


def _attempt(label, fn) -> bool:
    try:
        ok = fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"FAILED: {label}", file=sys.stderr)
    return ok


def verify_ops(ob, ks, tracer, workdir) -> list:
    sweep = ob.cli.SweepRange(max_n=5, max_N=8)

    def one(k):
        c = ob.composition.build_from_k(k)
        return check_verify_statuses(k, ob.cli.verify_composition(c, sweep))

    return [(f"verify k={k}", lambda k=k: one(k)) for k in ks]


def _flat(monomial) -> list[int]:
    """Flat indices of a monomial, each repeated by its exponent."""
    return [i for i, e in monomial.exps for _ in range(e)]


def toric_ops(ob, items, tracer, workdir) -> list:
    toric = ob.toric

    def one(k, max_d):
        c = ob.composition.build_from_k(k)
        gens = toric.generators(c)
        graph = ob.composition.labeled_graph(c)
        kernel = [toric.kernel_check(g, graph) for g in gens]
        s_pairs = [toric.s_pair_reduces_to_zero(f, g, gens) for f, g in combinations(gens, 2)]
        rows = [(d, toric.standard_monomial_count(c, d), toric.edge_subring_hilbert(c, d))
                for d in range(max_d + 1)]
        supports = [(_flat(g.plus), _flat(g.minus)) for g in gens]
        return check_toric(k, supports, kernel, s_pairs, rows)

    return [(f"toric k={k} d<={d}", lambda k=k, d=d: one(k, d)) for k, d in items]


def run_call(argv: list[str], trace_out: Path | None) -> tuple[int, str]:
    """Run one CLI call in a fresh interpreter; returns exit code and stdout."""
    cmd = [sys.executable, str(BENCH / "child.py")]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd + ["--", *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=CALL_TIMEOUT_S)
    return proc.returncode, proc.stdout


def report_ops(ob, calls, tracer, workdir) -> list:
    trace_out = workdir / "trace.json" if tracer else None

    def one(argv):
        code, out = run_call(argv, trace_out)
        if trace_out is not None and trace_out.exists():
            tracer.merge(json.loads(trace_out.read_text(encoding="utf-8")))
            trace_out.unlink()
        ok = check_call(argv, code, out)
        if "--out" in argv:
            Path(argv[argv.index("--out") + 1]).unlink(missing_ok=True)
        return ok

    return [(" ".join(argv), lambda argv=argv: one(argv)) for argv in calls]


OPS = {
    "verify-sweep": verify_ops,
    "report-calls": report_ops,
    "toric-algebra": toric_ops,
}


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    meter = Meter()
    for _ in range(SETUP_REPEATS):
        ob, inputs = meter.time("setup", lambda: (
            import_package(), make_inputs(workload, random.Random(seed), workdir)))
    setups = meter.times.pop("setup")

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    walls: list[float] = []
    outcomes: list[bool] = []
    started = perf_counter()
    while not walls or perf_counter() - started + statistics.median(walls) <= seconds:
        t0 = perf_counter()
        outcomes += run_ops(OPS[workload](ob, inputs, tracer, workdir), meter)
        walls.append(perf_counter() - t0)
    if tracer:
        tracer.uninstall()

    if trace:
        metrics = {name: {"value": tracer.totals.get(name, 0.0) / len(walls), "unit": unit}
                   for name, unit in metric_names()}
        metrics["trace.wall_s"] = {"value": statistics.median(walls), "unit": "s"}
        metrics["trace.pass_s"] = {"value": meter.pass_s(), "unit": "s"}
        metrics["machine.ref_ms"] = {"value": 1000 * statistics.median(meter.refs), "unit": "ms"}
    else:
        who = resource.RUSAGE_CHILDREN if workload == "report-calls" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": meter.pass_s(), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
            "ok_frac": {"value": sum(outcomes) / len(outcomes), "unit": "frac"},
        }
    failed = outcomes.count(False)
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oddbouquet" / "__init__.py").is_file():
        print(f"error: no oddbouquet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as tmp:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
