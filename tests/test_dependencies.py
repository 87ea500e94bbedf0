"""The library imports only the standard library at run time.

README promises no runtime dependencies and pyproject.toml declares
`dependencies = []`; every absolute import in src/mucone must therefore
name a standard-library module.  Relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mucone"


def _absolute_imports(path: Path) -> list[str]:
    """Top-level module names of the file's absolute imports."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [name.partition(".")[0] for name in names]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_standard_library(path):
    outside = [m for m in _absolute_imports(path) if m not in sys.stdlib_module_names]
    assert not outside, (path.name, outside)

