"""The package runs on the standard library and numpy alone, and its
modules reach one another's objects only through public names."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
before = set(sys.modules)
import idbp, idbp.bench, idbp.cli, idbp.verify
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_importing_the_package_loads_only_stdlib_and_numpy():
    # a fresh interpreter: this test process has pytest and more loaded
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    loaded = set(json.loads(proc.stdout))
    assert {"idbp", "numpy"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"idbp", "numpy"} == set()


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(source: str) -> list[str]:
    """Attributes `obj._name` (not dunders) read off anything but `self`,
    and names `_name` imported from another module."""
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and _is_private(node.attr)
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        or isinstance(node, ast.ImportFrom)
        and any(_is_private(alias.name) for alias in node.names)
    ]


def test_no_module_reads_a_private_attribute_of_another_object():
    # an operator's data step is public: a solver that needs it must not
    # reach behind another object's underscore; nor may a module import
    # another's private table, such as the denoiser kinds
    assert _private_reads("op._step(y)\nself._step(y)\nop.__class__\nop.step(y)") == ["1: op._step"]
    assert _private_reads("from .denoisers import DENOISERS\nfrom .denoisers import _KINDS") == [
        "2: from .denoisers import _KINDS"
    ]
    reads = {path.name: _private_reads(path.read_text()) for path in sorted((SRC / "idbp").glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}


def _package_imports(source: str) -> set[str]:
    """The modules of the package that a module's source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "idbp" + (f".{node.module}" if node.module else "") if node.level == 1 else node.module
            dotted = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in dotted if name.startswith("idbp."))
    return found


def test_only_the_cli_imports_the_acceptance_checks():
    # the theory oracles live in verify, which no restoration needs
    assert _package_imports(
        "from . import verify as v\nfrom .verify import run_all\nimport idbp.verify\n"
        "from idbp import rng\nfrom .grid import as_grid\nimport os.path\nfrom numpy import fft"
    ) == {"verify", "rng", "grid"}
    importers = {path.stem for path in sorted((SRC / "idbp").glob("*.py"))
                 if "verify" in _package_imports(path.read_text())}
    assert importers == {"cli"}


def test_denoisers_import_neither_rng_nor_verify():
    imports = _package_imports((SRC / "idbp" / "denoisers.py").read_text())
    assert "grid" in imports
    assert imports & {"rng", "verify"} == set()
