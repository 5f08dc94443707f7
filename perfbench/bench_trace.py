"""Per-layer tracing from outside the package.

`Tracer.install` replaces each listed public function with a timing wrapper,
in its defining module and under every other name an oddbouquet module binds
it to: cli imports most of them with ``from ... import`` and keeps some in a
module-level dict.  Wrappers keep a stack of open spans so that each span's
self time excludes the spans it caused.  Work counters are computed from
return values only.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "srcomplex": ("facets_closed_form", "f_vector", "h_from_f",
                  "facets_brute_force", "verify_decomposition"),
    "toric": ("generators", "kernel_check", "s_pair_reduces_to_zero",
              "standard_monomial_count", "edge_subring_hilbert"),
    "ringinv": ("h_closed_form", "h_recursive", "classify"),
    "composition": ("build_from_k",),
    "cli": ("verify_composition", "h_by_complex"),
}
SUBCOMMANDS = ("hvec", "classify", "facets", "gens", "table")

COUNTERS = {
    "srcomplex.facets_closed_form": {"facets": lambda res: len(res.facets)},
    "srcomplex.f_vector": {"faces": lambda res: sum(res.counts)},
    "srcomplex.facets_brute_force": {"subsets": lambda res: 1 << res.ground_size},
    "toric.edge_subring_hilbert": {"vectors": lambda res: res},
    "toric.s_pair_reduces_to_zero": {"nonzero": lambda res: int(not res)},
    "cli.verify_composition": {
        "ok": lambda res: sum(v == "ok" for v in res.values()),
        "skip": lambda res: sum(v == "skip" for v in res.values()),
    },
}


def spans() -> list[tuple[str, str, str]]:
    """(span name, defining module, function name) for every traced function."""
    out = [(f"{mod}.{fn}", mod, fn) for mod, fns in LAYERS.items() for fn in fns]
    out += [(f"cli.{sub}", "cli", f"cmd_{sub}") for sub in SUBCOMMANDS]
    return out


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, fns in LAYERS.items():
        for fn in fns:
            span = f"{mod}.{fn}"
            out += [(f"{span}.s", "s"), (f"{span}.calls", "count")]
            out += [(f"{span}.{key}", "count") for key in COUNTERS.get(span, {})]
    out += [(f"cli.{sub}.s", "s") for sub in SUBCOMMANDS]
    return out


class Tracer:
    """Self time, call count and work counters per span, summed over calls."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._patched: list[tuple[dict, str, object]] = []

    def install(self) -> None:
        package = [m for name, m in sys.modules.items()
                   if name == "oddbouquet" or name.startswith("oddbouquet.")]
        namespaces = [ns for m in package for ns in (vars(m), *(
            v for v in vars(m).values() if isinstance(v, dict)))]
        for span, mod, fn in spans():
            original = getattr(sys.modules[f"oddbouquet.{mod}"], fn)
            wrapper = self._wrap(span, original)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched.clear()

    def merge(self, totals: dict[str, float]) -> None:
        for key, value in totals.items():
            self.totals[key] += value

    def _wrap(self, span: str, fn):
        counters = COUNTERS.get(span, {})
        stack, totals = self._stack, self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals[f"{span}.s"] += elapsed - frame[0]
                totals[f"{span}.calls"] += 1
            for key, count in counters.items():
                totals[f"{span}.{key}"] += count(result)
            return result

        return wrapper
