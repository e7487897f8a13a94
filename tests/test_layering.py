"""The bottom of the layer stack imports nothing above it.

``sim/`` is the substrate every other package builds on, and ``obs/``
sits directly above it (docs/architecture.md).  The scan reads every
import statement, including lazy ones inside function bodies, so a
deferred upward import is caught as well as a top-level one.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Layer -> the ``repro`` sub-packages its modules may import.
ALLOWED = {"sim": {"sim"}, "obs": {"sim", "obs"}}


def imported_modules(source: str, module: str):
    """Absolute names of every module ``source`` (the text of the dotted
    ``module``) imports, with relative imports resolved."""
    # A module and its package's ``__init__`` both resolve ``.`` to the
    # package that contains them.
    package = module.split(".")[:-1]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module
                continue
            base = package[:len(package) - node.level + 1]
            if node.module is not None:
                yield ".".join(base + [node.module])
            else:
                yield from (".".join(base + [alias.name])
                            for alias in node.names)


def upward_imports(layer: str, path: Path):
    module = ".".join(("repro",) + path.relative_to(PACKAGE)
                      .with_suffix("").parts)
    found = []
    for name in imported_modules(path.read_text(), module):
        parts = name.split(".")
        if parts[0] != "repro":
            continue
        if len(parts) == 1 or parts[1] not in ALLOWED[layer]:
            found.append(name)
    return found


MODULES = [(layer, path) for layer in sorted(ALLOWED)
           for path in sorted((PACKAGE / layer).glob("*.py"))]


@pytest.mark.parametrize(
    "layer,path", MODULES,
    ids=[f"{layer}/{path.name}" for layer, path in MODULES])
def test_no_upward_import(layer, path):
    assert upward_imports(layer, path) == [], (
        f"{layer}/{path.name} imports above its layer")


class TestScanner:
    def test_lazy_relative_import_is_resolved(self):
        source = "def f():\n    from ..obs.profile import profiled\n"
        assert list(imported_modules(source, "repro.sim.kernel")) == \
            ["repro.obs.profile"]

    def test_package_init_resolves_against_itself(self):
        source = "from .kernel import Simulator\nfrom .. import core\n"
        assert list(imported_modules(source, "repro.sim.__init__")) == \
            ["repro.sim.kernel", "repro.core"]

    def test_absolute_and_stdlib_imports(self):
        source = "import heapq\nfrom repro.core import router\n"
        assert list(imported_modules(source, "repro.obs.trace")) == \
            ["heapq", "repro.core"]

    def test_both_layers_are_scanned(self):
        assert {layer for layer, _ in MODULES} == {"sim", "obs"}
        assert any(path.name == "kernel.py" for _, path in MODULES)
