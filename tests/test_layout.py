"""Only clonedyn/cohort.py touches files.

Every file the package reads goes through cohort's readers, and every file
it writes through _atomic_file, which replaces its target in one rename
with a synced file of the umask's mode.  A call that opens, writes, syncs
or replaces a file anywhere else would bypass that; this test finds such
calls in the source.
"""

import ast
from pathlib import Path

import pytest

import clonedyn

PACKAGE = Path(clonedyn.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
# os.open, io.open and Path.open are all attribute calls named open
FILE_METHODS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
OS_CALLS = {"replace", "fsync"}


def file_calls(path: Path) -> list[tuple[str, int]]:
    """(call, line) of each call in the module that opens, writes, syncs or
    replaces a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            found.append(("open", node.lineno))
        elif isinstance(func, ast.Attribute):
            of_os = isinstance(func.value, ast.Name) and func.value.id == "os"
            if func.attr in FILE_METHODS or (of_os and func.attr in OS_CALLS):
                found.append((ast.unparse(func), node.lineno))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_cohort_touches_files(path):
    calls = file_calls(path)
    if path.name == "cohort.py":
        names = {name for name, _line in calls}
        assert {"open", "os.open", "os.replace", "os.fsync"} <= names
    else:
        assert calls == []
