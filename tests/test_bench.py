import subprocess
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("script", sorted(p.name for p in _BENCH.glob("*.py")))
def test_bench_script_loads(script):
    # a script whose import was deleted out from under it fails here
    run = subprocess.run([sys.executable, str(_BENCH / script), "--help"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert "usage:" in run.stdout
