import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # a failing @given test makes Hypothesis's plugin import libcst, which warns under the
    # repo's warning filters; the run must report the failure and go on to the next test
    shutil.copy(PYPROJECT, tmp_path)
    (tmp_path / "test_order.py").write_text(FAILING_THEN_PASSING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_order.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
