"""``src/`` uses only the standard library.

The tests themselves need third-party packages (pytest, hypothesis, and
numpy and scipy for some references), so an import of one of those in
``src/`` would pass unnoticed in the test process. This runs a fresh
``python -S`` interpreter, which never adds site-packages to ``sys.path``,
with only ``src`` on ``PYTHONPATH``, and ``-B``, so that it writes no
bytecode into ``src``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, pkgutil, sys
assert not [p for p in sys.path if "-packages" in p], sys.path
import textmask
for module in pkgutil.iter_modules(textmask.__path__):
    if module.name != "__main__":  # importing it runs the command line
        importlib.import_module("textmask." + module.name)
from textmask.cli import main
sys.exit(main(["analyze", "budget"]))
"""


def test_src_runs_without_site_packages(tmp_path):
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run([sys.executable, "-S", "-B", "-c", PROBE], cwd=tmp_path, env=env,
                            capture_output=True, text=True, encoding="utf-8")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[1].split() == ["196", "32", "228", "100.00"]
