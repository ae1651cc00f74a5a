"""The benchmark's stand-alone checks still import and pass against the
package: they fail loudly if a name they read from ``wsseg`` goes away."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["kernel_check.py", "selftest.py"])
def test_perfbench_script_exits_zero(script):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / script)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
