"""Every exported name has a caller.

A name stays in ``flowinv.__all__`` when the package or the CLI calls
it, when the acceptance gate checks the paper object it names, or when
the benchmark imports or traces it.  Each of these counts as a reference
only outside the name's own definition.
"""

import ast
import inspect
from pathlib import Path

import flowinv

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(flowinv.__file__).parent


def _referenced(paths) -> set:
    """Every name the sources at ``paths`` read, import or spell as a
    dotted string (as the tracer names what it wraps), outside the
    definition of a function or class of that name."""
    named = set()

    def visit(node, inside):
        name = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.replace(".", "_").isidentifier():
            name = node.value.rpartition(".")[2]
        if name is not None and name not in inside:
            named.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return named


def test_every_export_has_a_caller():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources.append(ROOT / "tests" / "test_acceptance.py")
    sources += sorted((ROOT / "benchmarks").glob("*.py"))
    named = _referenced(sources)
    exported = [name for name in flowinv.__all__
                if not inspect.ismodule(getattr(flowinv, name))]
    assert exported
    uncalled = sorted(name for name in exported if name not in named)
    assert not uncalled, f"exported but never called: {uncalled}"
