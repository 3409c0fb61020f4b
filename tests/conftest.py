"""Make the checkout's ``src`` importable in subprocesses the tests start.

``pythonpath`` in pyproject.toml covers the pytest process only; the CLI
tests run ``python -m thinring.cli`` in child processes, which inherit
``PYTHONPATH`` from the environment.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
