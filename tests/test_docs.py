import itertools
import json
import re
import shlex
from pathlib import Path

import collisionless as cl
from collisionless import errors
from collisionless.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs(tmp_path, monkeypatch):
    sketch = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", sketch, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert (tmp_path / "trajectory.csv").stat().st_size > 0


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    block = re.search(r"```sh\n(.*?)```", README.read_text().split("## CLI", 1)[1], re.S).group(1)
    commands = [
        shlex.split(line)[1:] for line in block.splitlines() if line.startswith("collisionless ")
    ]
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_model.json").write_text(json.dumps(cl.build_armed_biped().to_config()))
    (tmp_path / "results").mkdir()
    for argv in commands:
        assert main(argv) == 0, argv


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
