"""Checks on the package source itself."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import burgerslab


def test_no_assert_statements():
    # asserts vanish under python -O; runtime checks must raise real errors
    found = []
    for path in sorted(Path(burgerslab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_one_thread_pool():
    # every chunked Monte Carlo pass goes through deviations._map_chunks
    count = sum(
        path.read_text().count("ThreadPoolExecutor(")
        for path in Path(burgerslab.__file__).parent.glob("*.py")
    )
    assert count == 1


def test_one_csv_reader():
    # every lattice CSV is parsed by grids.read_lattice_csv
    counts = {
        path.name: path.read_text().count("csv.reader(")
        for path in Path(burgerslab.__file__).parent.glob("*.py")
    }
    assert {name: n for name, n in counts.items() if n} == {"grids.py": 1}


def test_lattice_rules_live_in_grids():
    # array validation, grid agreement and the norms are written once, in grids.py;
    # a dt*dx-weighted sum anywhere else is a second H_T inner product
    needles = ("setflags(", "DimensionError(", "space_weights()", ".grid != ",
               "g.dt * g.dx * np.sum", ") * g.dt * g.dx")
    found = {
        path.name: [n for n in needles if n in path.read_text()]
        for path in Path(burgerslab.__file__).parent.glob("*.py")
        if path.name != "grids.py"
    }
    assert {name: n for name, n in found.items() if n} == {}


def _imports_scipy(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "scipy" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "scipy":
                return True
    return False


def test_one_heat_factorisation():
    # the implicit heat step has one factor-and-solve pair, solvers' LDL^T,
    # and no module imports scipy: LAPACK comes from numpy's own library
    importers, banded = [], []
    for path in sorted(Path(burgerslab.__file__).parent.glob("*.py")):
        text = path.read_text()
        if _imports_scipy(ast.parse(text, filename=str(path))):
            importers.append(path.name)
        if "cho_solve_banded" in text or "cholesky_banded" in text:
            banded.append(path.name)
    assert importers == []
    assert banded == []


def test_cli_import_loads_no_scipy():
    src = str(Path(burgerslab.__file__).parent.parent)
    code = "import sys, burgerslab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_one_json_writer():
    # every JSON file is written by cli._write_json
    counts = {
        path.name: path.read_text().count("json.dump(")
        for path in Path(burgerslab.__file__).parent.glob("*.py")
    }
    assert {name: n for name, n in counts.items() if n} == {"cli.py": 1}


def _exporting_modules() -> list:
    """burgerslab and every submodule whose source assigns __all__."""
    names = []
    for path in sorted(Path(burgerslab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        targets = [t for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
        if any(getattr(t, "id", None) == "__all__" for t in targets):
            names.append("burgerslab" if path.stem == "__init__" else f"burgerslab.{path.stem}")
    return names


@pytest.mark.parametrize("module", _exporting_modules())
def test_star_import_resolves_all(module):
    # a name deleted from a module but left in its __all__ raises AttributeError
    exec(f"from {module} import *", {})


def test_config_values_checked_not_cast():
    # cli._typed gives every config value its DEFAULTS type; a cast such as
    # int(cfg["grid"]["nx"]) would read a wrong-typed value as something else
    path = Path(burgerslab.__file__).parent / "cli.py"
    casts = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("int", "float", "bool", "tuple")
        and any(isinstance(arg, ast.Subscript) for arg in node.args)
    ]
    assert casts == []


def test_one_gauss_legendre_source():
    # every Gauss-Legendre rule comes from kernels.gauss_legendre's cache
    counts = {
        path.name: path.read_text().count("leggauss(")
        for path in Path(burgerslab.__file__).parent.glob("*.py")
    }
    assert {name: n for name, n in counts.items() if n} == {"kernels.py": 1}


def test_one_skeleton_linearisation():
    # every skeleton consumer reads the context solvers._linearise builds and
    # its one transport constant
    needles = ("SkeletonContext(", "SKELETON_TRANSPORT =")
    counts = {
        (path.name, n): path.read_text().count(n)
        for path in Path(burgerslab.__file__).parent.glob("*.py")
        for n in needles
    }
    assert {key: c for key, c in counts.items() if c} == {
        ("solvers.py", "SkeletonContext("): 1,
        ("solvers.py", "SKELETON_TRANSPORT ="): 1,
    }
