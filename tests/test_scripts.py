import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

ARGVS = pytest.mark.parametrize(
    "argv",
    [
        ["family_tour.py"],
        ["measure_contraction.py", str(SCRIPTS / "specs" / "gn.json"), "6"],
    ],
    ids=["family_tour", "measure_contraction"],
)


@ARGVS
def test_script_runs_clean(argv):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert proc.stdout


@ARGVS
def test_script_survives_early_closed_pipe(argv):
    # unbuffered, so every line after the first is written to a closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-u", str(SCRIPTS / argv[0]), *argv[1:]],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 1)
    assert "Traceback" not in stderr
