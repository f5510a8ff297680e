"""The suite's own pytest settings: a failing test must be reported as one."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = textwrap.dedent('''
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(database=None)
    @given(st.integers())
    def test_fails(n):
        assert n != n


    def test_runs_after():
        pass
''')


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    # Warnings are errors in this suite; hypothesis's failure report must
    # still reach the summary rather than abort the run with INTERNALERROR.
    (tmp_path / "test_x.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_x.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAILED test_x.py::test_fails" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
