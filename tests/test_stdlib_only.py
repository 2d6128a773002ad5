"""The library and the scripts import nothing outside the Python standard
library, so both run on a bare interpreter (the scripts with PYTHONPATH=src),
and importing the CLI loads no cryptography module."""

import ast
import os
import subprocess
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


# _hashlib maps OpenSSL, about 3.5 MiB of resident memory for the whole run
CRYPTO_MODULES = ("secrets", "hmac", "hashlib", "_hashlib", "ssl", "_ssl")


def test_cli_import_loads_no_cryptography():
    env = dict(os.environ)
    src = str(Path(ncdiamond.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, ncdiamond, ncdiamond.cli; "
        f"print(sorted(set({CRYPTO_MODULES!r}) & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
