"""The knob gate: ``scripts/unreached.py`` exits 1 when a parameter of
``src/``, positional or keyword-only, has a default that no call passes,
tests included.

Such a parameter is an option with one value in use; make it a constant
at its use instead.  The scan's other lists (code and parameters that
only tests reach) are a report and do not fail this test.
"""

import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "unreached.py"


def test_no_keyword_only_parameter_goes_unpassed():
    run = subprocess.run(
        [sys.executable, str(SCRIPT)],
        capture_output=True, text=True, timeout=120,
    )
    report = run.stdout.partition("no call passes, tests included:")[2]
    assert run.returncode == 0, (
        "parameters with a default no call passes, tests included:"
        + report.partition("Parameters with a default")[0] + run.stderr
    )
