"""What importing the command-line module and the certify layer loads.

Every CLI call pays for its imports, so the package keeps dataclasses and
typing (and through them inspect, ast, dis and tokenize) off its import
path, while still importing every module eagerly: a tracer that wraps the
package's functions right after ``from oddbouquet import cli`` looks each
module up in sys.modules.  The certify layer is library code, so it loads
neither argparse nor json.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ["dataclasses", "inspect", "typing", "ast", "dis", "tokenize"]
TRACED = ["cli", "certify", "composition", "ringinv", "srcomplex", "toric"]


def test_cli_import_closure():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import json, sys; import oddbouquet.cli; "
            "print(json.dumps([oddbouquet.cli.__file__, sorted(sys.modules)]))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    cli_file, loaded = json.loads(proc.stdout)
    assert Path(cli_file).parent == ROOT / "src" / "oddbouquet"
    assert [m for m in HEAVY if m in loaded] == []
    assert [m for m in TRACED if f"oddbouquet.{m}" not in loaded] == []


def test_certify_loads_no_cli_code():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys; import oddbouquet.certify; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "oddbouquet.certify" in loaded
    assert [m for m in ("argparse", "json") if m in loaded] == []
