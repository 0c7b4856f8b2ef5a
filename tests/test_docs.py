import itertools
import re
from pathlib import Path

from collisionless import errors

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs(tmp_path, monkeypatch):
    sketch = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", sketch, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert (tmp_path / "trajectory.csv").stat().st_size > 0


def test_readme_exit_code_table_matches_error_classes():
    header = "| code | meaning | error class |"
    lines = README.read_text().split(header, 1)[1].strip().splitlines()[1:]
    listed = {}
    for line in itertools.takewhile(lambda text: text.startswith("|"), lines):
        code, _, classes = (cell.strip() for cell in line.strip("|").split("|"))
        for name in re.findall(r"`(\w+)`", classes):
            listed[name] = int(code.strip("`"))
    assert listed, "no error class found in the README exit-code table"
    for name, code in listed.items():
        assert getattr(errors, name).exit_code == code, name
    # "the subclasses not listed below" exit with the base class's code
    for cls in vars(errors).values():
        if isinstance(cls, type) and issubclass(cls, errors.CollisionlessError):
            assert cls.exit_code == listed.get(cls.__name__, 1), cls.__name__
