"""The traffic check: every function of ``src/zonalg`` is entered by a
command, a demo or the benchmark, or is on the allowlist of
``tests/traffic.py``, which names its reason."""

import os
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_every_library_function_is_run_or_allowed():
    # a fresh interpreter, so that the caches the traffic fills reach no other test
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZONALG_")}
    env["PYTHONPATH"] = os.path.join(_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "tests", "traffic.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
