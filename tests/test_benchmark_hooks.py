"""The benchmark's traced run must find every pcsgd name it wraps.

`perfbench/spans.py` wraps pcsgd functions and methods by name.  Installing
it in a child process turns a removed or renamed name into a test failure,
and keeps the wrappers out of the pytest process.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL = """
import sys
sys.path[:0] = sys.argv[1:]
import pcsgd
import spans
spans.install(pcsgd)
"""


def test_benchmark_hook_points_exist():
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            INSTALL,
            os.path.join(ROOT, "perfbench"),
            os.path.join(ROOT, "src"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
