"""Each library route and its test oracle stay apart.

tests/oracles.py holds the independent routes the tests check the library
against (a saturation basis by two integer kernels, the gcd of the minors,
the chain lists, ...).  An oracle that returned to src/mucone under its own
name would be a second copy of a route, or the route checking itself, so no
top-level function or class name may be defined in both places.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mucone"


def _top_level_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_no_name_defined_in_both_oracles_and_src():
    oracles = _top_level_names(TESTS / "oracles.py")
    shared = {(path.name, name) for path in sorted(SRC.glob("*.py"))
              for name in _top_level_names(path) & oracles}
    assert oracles and not shared, sorted(shared)
