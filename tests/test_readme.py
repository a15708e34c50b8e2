"""README's "Library use" example runs as written, so the API it names
cannot drift from the package's."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs_as_written(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S)
    assert example is not None, "no python block under Library use"
    exec(compile(example.group(1), f"{README}:Library use", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [line.split("(", 1)[0] for line in printed] == [
        "Hyperparams", "OperatingCharacteristics", "AssociationResult"
    ]
    assert "chi_sq_degenerate=False" in printed[-1]
