"""The benchmark harness still runs against the package.

``perfbench/selftest.py`` runs every workload at toy sizes, untraced and
traced.  The tracer wraps package functions by the names callers look them
up under (``numerics.sigmoid``, ``cells.sigmoid``, ``cells.cell_forward``,
``Network.forward``, ``cli.predict``, ...), so renaming or dropping one of
those fails here, as does any change that makes traced and untraced
results differ.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    res = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout[-4000:] + res.stderr[-4000:]
