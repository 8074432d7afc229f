"""The README's ``python`` examples run as written, and its "Numerical
exactness" ledger names the tests that enforce each guarantee."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)

# the section from its heading up to the next heading
LEDGER = re.search(r"^### Numerical exactness\n.*?(?=^#)", README.read_text(), flags=re.M | re.S).group()
# result | class | bound | enforced by
LEDGER_ROW = re.compile(
    r"\| [^|]+ \| (bit-exact|byte-equal to [^|]+|within bound) \| ([^|]+) \| `tests/(\w+\.py)::(\w+)` \|"
)
TABLE = [line for line in LEDGER.splitlines() if line.startswith("| ")][1:]
ROWS = [row for row in map(LEDGER_ROW.fullmatch, TABLE) if row]
# each test module's top-level functions, read from its source
FUNCTIONS = {
    path.name: {node.name for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}
    for path in TESTS.glob("*.py")
}


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, capsys):
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    # each example restores an image and prints its PSNR
    assert np.all(np.isfinite(namespace["estimate"]))
    assert float(capsys.readouterr().out) > 20.0


def test_exactness_ledger_is_one_table_of_well_formed_rows():
    assert len(LEDGER.splitlines()) <= 60
    malformed = [line for line in TABLE if not LEDGER_ROW.fullmatch(line)]
    assert ROWS and not malformed, f"not result | class | bound | `tests/<file>.py::<function>`: {malformed}"
    for row in ROWS:
        kind, bound = row.group(1, 2)
        assert (kind == "within bound") == (bound != "—"), row.group()


def test_every_test_in_the_ledger_exists_with_its_oracle():
    for row in ROWS:
        kind, bound, module, name = row.groups()
        assert name in FUNCTIONS.get(module, ()), f"tests/{module}::{name} does not exist"
        for oracle in re.findall(r"`(_\w+)`", kind + bound):
            assert oracle in FUNCTIONS[module], f"oracle {oracle} is not in tests/{module}"


def test_every_bytes_and_exact_test_is_in_the_ledger():
    listed = {(row.group(3), row.group(4)) for row in ROWS}
    missing = sorted(
        f"tests/{module}::{name}"
        for module, names in FUNCTIONS.items()
        for name in names
        if re.fullmatch(r"test_\w+_(bytes|exact)", name) and (module, name) not in listed
    )
    assert not missing, f"not in the README's exactness ledger: {missing}"
