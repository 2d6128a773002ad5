"""The library and the scripts import nothing outside the Python standard
library, so both run on a bare interpreter (the scripts with PYTHONPATH=src)."""

import ast
import sys
from pathlib import Path

import ncdiamond

ALLOWED = sys.stdlib_module_names | {"ncdiamond"}


def absolute_imports(path: Path):
    """Top-level names of every absolute import in a module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def assert_stdlib_only(modules: list[Path]) -> None:
    assert modules
    outside = {
        f"{path.name}: {name}"
        for path in modules
        for name in absolute_imports(path)
        if name not in ALLOWED
    }
    assert not outside, sorted(outside)


def test_library_imports_only_the_standard_library():
    assert_stdlib_only(sorted(Path(ncdiamond.__file__).parent.rglob("*.py")))


def test_scripts_import_only_the_standard_library():
    assert_stdlib_only(sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py")))
