"""What the benchmark under `perfbench/` needs from the program.

The benchmark's own tests are not collected here, so a change that removes
or renames a name it imports, or an attribute its tracer and self-test read,
would otherwise show only when the benchmark runs.
"""

import ast
import importlib
from pathlib import Path

import pytest

from qlie import checks, operators
from qlie.cg import structure_constants
from qlie.operators import Operator
from qlie.scalars import Scalar

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _qlie_imports():
    """(file, module, name) for each name a perfbench file imports from qlie."""
    found = []
    for path in sorted([*PERFBENCH.glob("*.py"), *PERFBENCH.glob("tests/*.py")]):
        where = str(path.relative_to(PERFBENCH.parent))
        for node in ast.walk(ast.parse(path.read_text(), where)):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "qlie":
                found += [(where, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(where, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "qlie"]
    return found


IMPORTS = _qlie_imports()


def test_the_benchmark_imports_from_qlie():
    assert {("qlie", "from_functional"), ("qlie", "Scalar"), ("qlie", "cli")} <= {
        (module, name) for _, module, name in IMPORTS
    }


@pytest.mark.parametrize("where, module, name", IMPORTS,
                         ids=[f"{w}:{m}:{n}" for w, m, n in IMPORTS])
def test_each_imported_name_resolves(where, module, name):
    imported = importlib.import_module(module)
    if name is not None and not hasattr(imported, name):
        importlib.import_module(f"{module}.{name}")  # a submodule, or ImportError


def test_attributes_the_tracer_and_self_test_read():
    assert checks.compose is operators.compose
    assert "rho" in checks._FUNCTIONAL_OPS
    for name in ("parse", "substitute", "term_count", "__mul__"):
        assert callable(getattr(Scalar, name)), name
    flip = Operator.flip(2, lo=1)
    assert flip.lo == 1 and isinstance(flip.coeff((1, 2), (2, 1)), Scalar)
    assert flip.map_entries(lambda s: s * 2) != flip
    assert isinstance(structure_constants(2).coeff(1, 1, 1), Scalar)
