"""Checks on the library's source text."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "covercount"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


@pytest.mark.parametrize(
    "path",
    MODULES + SCRIPTS,
    ids=lambda p: p.stem if p.parent == SRC else f"{p.parent.name}/{p.stem}",
)
def test_every_imported_name_is_used(path):
    # the package's __init__ imports to re-export; every other module,
    # test and demo imports to use
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


def test_counts_read_the_shared_rows_only_through_get():
    # `_connected_counts` reads each row of `_CONN` once, through `.get`, and
    # indexes only the lists it holds: a subscript of the shared table could
    # reach a shorter row another fill stored meanwhile
    tree = ast.parse((SRC / "monodromy.py").read_text())
    func = next(f for f in tree.body if getattr(f, "name", None) == "_connected_counts")
    names = [node for node in ast.walk(func) if isinstance(node, ast.Name) and node.id == "_CONN"]
    reads = [
        ast.unparse(node)
        for node in ast.walk(func)
        if isinstance(getattr(node, "value", None), ast.Name) and node.value.id == "_CONN"
    ]
    assert names and reads == ["_CONN.get"] * len(names), reads


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
    # `_egf_rows` is the one loop that reads X-power rows, and `_fit` the one
    # solve on them: `identify_in_a` and `fit_phi` pass it their columns, so
    # only `_fit` and `zpower_in_basis` call `solve_exact`, and no module
    # but `exact` and `algebra` names the solver or reaches the recurrence
    tree = ast.parse((SRC / "algebra.py").read_text())

    def callers(name):
        return sorted(
            getattr(top, "name", None)
            for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == name
        )

    assert callers("_x_power_egf") == ["_egf_rows"]
    assert callers("solve_exact") == ["_fit", "zpower_in_basis"]
    for path in MODULES:
        names = {
            getattr(node, "attr", None) or getattr(node, "name", None) or getattr(node, "id", None)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.alias, ast.Attribute, ast.Name))
        }
        if path.name != "algebra.py":
            assert "_x_power_egf" not in names, f"{path.name} imports _x_power_egf"
        if path.name not in ("algebra.py", "exact.py"):
            solver = names & {"solve_exact", "LinearSystem"}
            assert not solver, f"{path.name} names {sorted(solver)}"


def test_yx_columns_have_one_builder():
    # Y^a X^b = (1-X)^a X^b is expanded by binomials only in `_yx_column`,
    # which dendrology's Z-powers, fit_phi's columns and the CLI's Z2 read;
    # the spanning list runs on Z-coefficients, so no module converts a
    # Laurent polynomial back to Z
    outside = []
    for name in ("algebra", "trees", "hurwitz_series", "cli"):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        for top in tree.body:
            for node in ast.walk(top):
                called = isinstance(node, ast.Call) and ast.unparse(node.func)
                owner = (name, getattr(top, "name", None))
                if called in ("math.comb", "comb") and owner != ("algebra", "_yx_column"):
                    outside.append(f"{name}:{node.lineno}")
    assert not outside, f"math.comb called outside algebra._yx_column at {outside}"
    for path in MODULES:
        names = {
            getattr(node, "attr", None) or getattr(node, "name", None) or getattr(node, "id", None)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.alias, ast.Attribute, ast.Name, ast.FunctionDef))
        }
        stale = names & {"to_zpoly", "_dk_laurent"}
        assert not stale, f"{path.name} names {sorted(stale)}"
