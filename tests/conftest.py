"""Run the suite from a checkout without installing cantorval.

``src`` goes first on ``sys.path`` for the test process and on
``PYTHONPATH`` for the processes that the CLI and import tests start, so a
bare ``python -m pytest`` collects and runs every module.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
