"""The three routes stay independent: no route reaches another's code.

A route that imported another could borrow its carry logic or its tables, and
the three-way check would then compare a computation with itself.  The imports
are read from the source with `ast`, and followed through the package, so an
indirect import counts too.
"""

import ast
from pathlib import Path

import pytest

import arithcorr

PACKAGE = Path(arithcorr.__file__).parent


def direct_imports(module: str) -> set[str]:
    """The arithcorr modules that `module`'s own source names in an import."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import a, b
                found.update(alias.name for alias in node.names)
            elif node.level == 1 or (node.module or "").startswith("arithcorr."):
                found.add(node.module.removeprefix("arithcorr.").split(".")[0])
            elif node.module == "arithcorr":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("arithcorr.")
            )
    return found


def reachable_imports(module: str) -> set[str]:
    """Every arithcorr module that importing `module` runs, `module` excluded."""
    seen, todo = set(), [module]
    while todo:
        for name in direct_imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen - {module}


@pytest.mark.parametrize(
    "route, others",
    [
        ("closedform", {"sequences", "arith", "blocks"}),
        ("blocks", {"arith", "closedform"}),
        ("arith", {"blocks", "closedform"}),
    ],
)
def test_route_reaches_no_other_route(route, others):
    assert reachable_imports(route) & others == set()


def test_the_parser_sees_each_import_form():
    # cli uses `from . import a, b` and `from .x import y`; a guard that read
    # neither form would pass vacuously
    assert {"arith", "blocks", "closedform", "gf2m", "sequences", "errors"} <= direct_imports("cli")
    # blocks reaches gf2m only through sequences
    assert {"sequences", "gf2m", "errors"} <= reachable_imports("blocks")
