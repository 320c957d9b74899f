"""The trusted base of a "proved" verdict: the certificate module and what it imports."""

import ast
import sys
from pathlib import Path

import padicmhs

PACKAGE = Path(padicmhs.__file__).parent


def imports_of(name: str) -> tuple[set[str], set[str]]:
    """The in-package modules and the other top-level modules that ``name`` imports."""
    inside, outside = set(), set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            inside.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            outside.add(node.module.partition(".")[0])
        elif isinstance(node, ast.Import):
            outside.update(a.name.partition(".")[0] for a in node.names)
    return inside, outside


def test_trusted_base_is_certificate_and_compositions():
    # an absolute import of the package lands in ``outside`` and fails there
    closure, todo = set(), ["certificate"]
    while todo:
        name = todo.pop()
        if name not in closure:
            closure.add(name)
            inside, outside = imports_of(name)
            assert outside <= set(sys.stdlib_module_names), (name, outside)
            todo.extend(inside)
    assert closure == {"certificate", "compositions"}
    # 525 lines now: far below the engine it would grow to by importing prover (about 1,900)
    lines = sum(len((PACKAGE / f"{name}.py").read_text().splitlines()) for name in closure)
    assert lines <= 540
