"""Acceptance suite: one test per release criterion.

Criteria 1-8 are implemented once, in ``idbp.verify`` (which ``idbp verify``
also runs); each test here calls its check, asserts it with the check's
detail as the failure message, and holds the criterion's runtime budget.
Each prints a PASS line with its measured margin (visible with pytest -s).
Criterion 9, the external-denoiser corpus parity run, needs a corpus and
an external denoiser, so it lives here only.
"""

import os
import time
from pathlib import Path

import pytest

from idbp.bench import ExperimentSpec, run_benchmark
from idbp.pgm import load_pgm
from idbp.verify import ALL_CHECKS

# runtime budgets in seconds, by criterion
_BUDGET_S = {"1": 5.0, "3": 10.0, "5": 30.0, "7a": 300.0, "7b": 300.0}


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def _acceptance_test(name, check):
    criterion = name.split("-")[0]

    def test():
        start = time.perf_counter()
        ok, detail = check()
        elapsed = time.perf_counter() - start
        assert ok, detail
        budget = _BUDGET_S.get(criterion)
        assert budget is None or elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"
        _report(criterion, f"{detail}, {elapsed:.2f}s")

    return test


# One named test per check, in ALL_CHECKS order: "1-projection-algebra-exact"
# becomes test_criterion_1_projection_algebra_exact, and so on.  Named tests,
# rather than pytest.mark.parametrize, keep each criterion's test id stable.
for _name, _check in ALL_CHECKS:
    globals()["test_criterion_" + _name.replace("-", "_")] = _acceptance_test(_name, _check)


# ---------------------------------------------------------------------------
# 9. Optional external-denoiser parity on the classic corpus
# ---------------------------------------------------------------------------

_PARITY_TABLE_AVERAGE_DB = 27.48
_CORPUS_NAMES = ("cameraman", "house", "peppers", "lena", "barbara", "boat", "hill", "couple")


@pytest.mark.skipif(
    not (os.environ.get("IDBP_EXTERNAL_DENOISER") and os.environ.get("IDBP_CORPUS_DIR")),
    reason="parity run needs IDBP_EXTERNAL_DENOISER and IDBP_CORPUS_DIR",
)
def test_criterion_9_external_denoiser_parity():
    corpus_dir = Path(os.environ["IDBP_CORPUS_DIR"])
    corpus = []
    for name in _CORPUS_NAMES:
        path = corpus_dir / f"{name}.pgm"
        if not path.exists():
            pytest.skip(f"corpus image {path} missing")
        corpus.append((name, load_pgm(path)))
    spec = ExperimentSpec(
        task="inpaint", solver="idbp", denoiser="external",
        external_cmd=os.environ["IDBP_EXTERNAL_DENOISER"],
        seed=909, mask_fraction=0.8, sigma_n=10.0,
    )
    report = run_benchmark(spec, corpus)
    failures = [r for r in report.rows if r.error]
    assert not failures, failures
    average = report.averages().psnr_out_db
    assert average == pytest.approx(_PARITY_TABLE_AVERAGE_DB, abs=0.5)
    _report(9, f"corpus average {average:.2f} dB within +-0.5 of {_PARITY_TABLE_AVERAGE_DB}")
