"""Each recovery-facing package imports cleanly when imported first.

``repro.batch`` uses the shared recovery pieces of ``repro.resilience``
and ``repro.service`` builds on both, while ``repro.resilience`` reaches
the batch scheduler only inside functions.  A module-level import added
in the other direction would create a cycle that only shows in a fresh
interpreter, depending on which package is imported first.
"""

import os
import subprocess
import sys

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.mark.parametrize(
    "package", ["repro.resilience", "repro.batch", "repro.service"]
)
def test_package_imports_first_in_fresh_interpreter(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
