"""Checks on the package source itself."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import burgerslab
from burgerslab.grids import Control, SpaceField, SpaceTimeField


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


class _CallSites(ast.NodeVisitor):
    """(name, enclosing function) of every call of a name in `names`, bare or as an attribute."""

    def __init__(self, names):
        self.names, self.scope, self.found = names, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in self.names:
            self.found.append((name, ".".join(self.scope)))
        self.generic_visit(node)


def test_one_heat_engine():
    # every implicit heat step runs through solvers._march, the one place that
    # looks up the cached factor; other modules only pass heat_solve as `solve`
    found = []
    for path in sorted(Path(burgerslab.__file__).parent.glob("*.py")):
        sites = _CallSites({"heat_factor", "heat_solve"})
        sites.visit(ast.parse(path.read_text(), filename=str(path)))
        found += [(path.name, *site) for site in sites.found]
    assert found == [("solvers.py", "heat_factor", "_march")]


def test_one_stochastic_step():
    # the discretisation lives in solvers: no other module drives _march, so
    # deviations reduces what solvers steps and ratefn only consumes its sweeps
    found = set()
    for path in sorted(Path(burgerslab.__file__).parent.glob("*.py")):
        sites = _CallSites({"_march"})
        sites.visit(ast.parse(path.read_text(), filename=str(path)))
        found |= {(path.name, scope) for _, scope in sites.found if path.name != "solvers.py"}
    assert found == set()


def test_one_skeleton_step_equation():
    # solvers alone knows the skeleton's lattice step: only it imports or calls
    # _march and _central_difference, or reads the context's coefficients
    names = {"_march", "_central_difference", "_transport", "_forcing"}
    found = set()
    for path in sorted(Path(burgerslab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in names:
                found.add((path.name, name))
    assert found == {("solvers.py", name) for name in names}


def test_cli_import_loads_no_scipy():
    src = str(Path(burgerslab.__file__).parent.parent)
    code = "import sys, burgerslab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_no_numpy_random_until_a_draw():
    # noise imports numpy.random on the first draw: importing the CLI, or a
    # command that never draws, loads none of it
    src = str(Path(burgerslab.__file__).parent.parent)
    code = (
        "import sys, tempfile, burgerslab.cli as c\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('numpy.random'))\n"
        "print(loaded())\n"
        "with tempfile.TemporaryDirectory() as d:\n"
        "    print(c.main(['kernel-check', '--out', d, '--no-timestamp']))\n"
        "print(loaded())"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split("\n")[:3] == ["[]", "0", "[]"]


def test_one_json_writer():
    # every JSON file is written by cli._write_json
    counts = {
        path.name: path.read_text().count("json.dump(")
        for path in Path(burgerslab.__file__).parent.glob("*.py")
    }
    assert {name: n for name, n in counts.items() if n} == {"cli.py": 1}


def test_one_config_channel():
    # a run reads only its config file and its flags: no module reads the environment
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(Path(burgerslab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = node.name if isinstance(node, ast.alias) else getattr(node, "attr", None)
            if name in names:
                found.append((path.name, node.lineno))
    assert found == []


def _write_opens(tree: ast.AST) -> set:
    """Names of the functions in tree that open a file with a write mode."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                given = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
                modes = [a.value for a in given if isinstance(a, ast.Constant)]
                if any("w" in m for m in modes):
                    found.add(func.name)
    return found


def test_one_field_format():
    # a field's one on-disk form is the lattice CSV: the lattice types carry no
    # JSON serializer or reader, grids.write_lattice_csv writes every field and
    # control, and cli._field_to_csv alone calls it
    for cls in (SpaceField, SpaceTimeField, Control):
        assert [n for n in dir(cls) if "json" in n.lower()] == []
    writers, callers = set(), set()
    for path in sorted(Path(burgerslab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        writers |= {(path.name, name) for name in _write_opens(tree)}
        sites = _CallSites({"write_lattice_csv"})
        sites.visit(tree)
        callers |= {(path.name, scope) for _, scope in sites.found}
    # the JSON reports, the MC statistics table, the lattice CSV
    assert writers == {
        ("cli.py", "_write_json"), ("deviations.py", "to_csv"), ("grids.py", "write_lattice_csv"),
    }
    assert callers == {("cli.py", "_field_to_csv")}


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


def test_one_seed_to_sheet_path():
    # seeds become numbers only in noise.py: _generator builds every path's
    # generator from its row of seed words, _draw alone reads one, and numpy's
    # own seeding runs nowhere: noise computes the seed hash itself
    names = {"default_rng", "SeedSequence", "RandomState", "Generator", "PCG64", "standard_normal"}
    found = []
    for path in sorted(Path(burgerslab.__file__).parent.glob("*.py")):
        sites = _CallSites(names)
        sites.visit(ast.parse(path.read_text(), filename=str(path)))
        found += [(path.name, *site) for site in sites.found]
    assert found == [
        ("noise.py", "Generator", "_generator"),
        ("noise.py", "PCG64", "_generator"),
        ("noise.py", "standard_normal", "_draw"),
    ]
