"""The package runs on the standard library and numpy alone."""

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
