"""Import layering: the served path never loads the sweep pool."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_cli_and_server_do_not_import_the_pool():
    # a fresh interpreter: this session's own tests may have loaded it
    code = (
        "import sys, repro.cli, repro.api.server; "
        "print(sorted(m for m in sys.modules "
        "if m == 'repro.serving' or m.startswith('repro.serving.')))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
