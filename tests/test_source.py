"""Checks on the library's source text."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "covercount"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    # __init__ imports to re-export; every other module imports to use
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name} never uses {sorted(imported - used)}"


def test_oracles_import_no_library_internal():
    # an oracle reads only public names, so no private helper is kept alive for it
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    private = [
        f"{node.module}.{a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("covercount")
        for a in node.names
        if a.name.startswith("_")
    ]
    assert not private, f"tests/oracles.py imports {private}"


def test_binomials_only_inside_the_convolution_kernel():
    # every series recurrence in exact.py runs through `_convolve`, so no
    # second convolution loop computes binomials of its own
    tree = ast.parse((SRC / "exact.py").read_text())
    kernel = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_convolve")
    inside = set(map(id, ast.walk(kernel)))
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("math.comb", "comb")
    ]
    assert any(id(node) in inside for node in calls)
    outside = [node.lineno for node in calls if id(node) not in inside]
    assert not outside, f"math.comb called outside _convolve at lines {outside}"


def test_x_power_rows_have_one_weighted_reader():
    # `_egf_rows` is the one loop that weights X-power rows; `identify_in_a`
    # takes the rows of the bare powers X^j as they are, and no other module
    # reaches the recurrence
    tree = ast.parse((SRC / "algebra.py").read_text())
    callers = [
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_x_power_egf"
    ]
    assert sorted(callers) == ["_egf_rows", "identify_in_a"]
    for path in MODULES:
        if path.name != "algebra.py":
            names = {
                getattr(node, "attr", None) or getattr(node, "name", None)
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.alias, ast.Attribute))
            }
            assert "_x_power_egf" not in names, f"{path.name} imports _x_power_egf"
