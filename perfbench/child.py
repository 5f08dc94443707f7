"""Run one oddbouquet command in a fresh interpreter, as the installed script would.

    python3 perfbench/child.py [--trace-out PATH] -- <oddbouquet arguments>

The package is imported from this checkout's src/.  With --trace-out, the
per-layer totals of the call (see bench_trace) are written to PATH as JSON.
The exit code is the command's own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oddbouquet import cli  # noqa: E402

from bench_trace import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, command = argv[:sep], argv[sep + 1:]
    trace_out = opts[1] if opts[:1] == ["--trace-out"] else None
    tracer = Tracer()
    if trace_out:
        tracer.install()
    code = cli.main(command)
    if trace_out:
        Path(trace_out).write_text(json.dumps(tracer.totals), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
