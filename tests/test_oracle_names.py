"""Each library route and its test oracle stay apart, and src holds only
what the library reads.

tests/oracles.py holds the independent routes the tests check the library
against (a saturation basis by two integer kernels, the gcd of the minors,
the chain lists, ...).  An oracle that returned to src/mucone under its own
name would be a second copy of a route, or the route checking itself, so no
top-level function or class name may be defined in both places.  For the
same reason every top-level name in src/mucone is read elsewhere in the
library or exported in mucone.__all__; a name only the tests read belongs
in tests/oracles.py.
"""

import ast
from pathlib import Path

import mucone

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mucone"
BENCH = TESTS.parent / "bench"

# Names that only the benchmark reads: bench/tracing.py wraps them by name
# and bench/workloads.py builds its polytopes with in_convex_hull.
BENCH_HELD = {"combine_over_common_denominator", "divide_by_linear_form", "in_convex_hull"}


def _definitions(tree: ast.Module) -> list[ast.AST]:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _top_level_names(path: Path) -> set[str]:
    return {node.name for node in _definitions(ast.parse(path.read_text(), filename=str(path)))}


def _reads(node: ast.AST) -> set[str]:
    """Every name read in the node as a Name or an Attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_name_defined_in_both_oracles_and_src():
    oracles = _top_level_names(TESTS / "oracles.py")
    shared = {(path.name, name) for path in sorted(SRC.glob("*.py"))
              for name in _top_level_names(path) & oracles}
    assert oracles and not shared, sorted(shared)


def test_every_src_name_has_a_library_reader():
    defined: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = _definitions(tree)
        for node in defs:
            defined[node.name] = path.name
            read |= _reads(node) - {node.name}  # a recursive call is no reader
        for node in tree.body:
            if node not in defs:
                read |= _reads(node)
    unread = {name for name in defined if name not in read and name not in mucone.__all__}
    bench: set[str] = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bench |= _reads(tree) | {n.value for n in ast.walk(tree)
                                 if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    assert sorted((defined[name], name) for name in unread - bench) == []
    assert unread & bench == BENCH_HELD
