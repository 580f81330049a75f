"""The repository's pytest configuration, exercised in a child pytest run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    # Under filterwarnings = ["error"], a warning raised while hypothesis
    # reports a failure must not end the run in an INTERNALERROR. The child
    # runs in tmp_path so that hypothesis's example database lands there.
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert proc.returncode == 1, output
    assert "1 failed, 1 passed" in output, output
