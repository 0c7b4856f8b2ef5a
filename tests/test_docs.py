import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs(tmp_path, monkeypatch):
    sketch = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", sketch, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert (tmp_path / "trajectory.csv").stat().st_size > 0
