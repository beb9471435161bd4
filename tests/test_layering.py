"""Import layering: the served path never loads the sweep pool, nor
networkx (the Gemini baseline's dependency alone)."""

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


def test_decompile_and_ingest_load_no_networkx():
    """numpy is the only runtime dependency: networkx is the Gemini
    baseline's alone, so the served path must never import it."""
    code = (
        "import sys, repro.cli\n"
        "from repro.api import AsteriaEngine, IngestRequest\n"
        "from repro.compiler.pipeline import compile_package\n"
        "from repro.core import Asteria, AsteriaConfig\n"
        "from repro.lang.generator import ProgramGenerator\n"
        "from repro.pipeline.stages import extract_binary\n"
        "package = ProgramGenerator(seed=1).generate_package('p')\n"
        "binary = compile_package(package, 'arm')\n"
        "assert len(extract_binary(binary, 5)) > 0\n"
        "engine = AsteriaEngine(model=Asteria(AsteriaConfig()))\n"
        "result = engine.ingest(IngestRequest(binaries=[binary]))\n"
        "assert result.n_functions > 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
