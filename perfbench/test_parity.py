"""Tests of the benchmark itself, at a smoke size::

    python3 -m pytest perfbench

* every composed restoration of every workload gives the estimate and trace
  of ``idbp.bench.run_single`` for the same spec and seed, bit for bit, so
  the benchmark measures the program the CLI runs; tracing changes neither;
* a small workload passes its own checks, traced and untraced, and reports
  exactly the metrics BENCHMARK.json declares;
* the checks count a restoration whose output does not repeat as failed.
"""

import json
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

import checkout
from idbp import bench, scenes
from idbp.rng import RngState
from measure import Observer, bit_equal, run_workload, summary
from tracing import Tracer
from workloads import WORKLOADS, Workload, prepare, solve

SMOKE_SIZE = 32
SMOKE_ITERATIONS = 3


def _smoke_params():
    for workload in WORKLOADS.values():
        for spec in workload.restorations(seed=5):
            spec = replace(spec, iterations=SMOKE_ITERATIONS)
            name = f"{workload.name}-{spec.task}-{spec.solver}-{spec.denoiser}-{spec.scenario}"
            yield pytest.param(spec, id=name)


@pytest.mark.parametrize("spec", _smoke_params())
def test_composed_restoration_matches_run_single(spec):
    expected = bench.run_single(spec, scenes.synthetic_scene(SMOKE_SIZE, SMOKE_SIZE), RngState(spec.seed))
    prepared = prepare(spec, SMOKE_SIZE)
    for tracer in (None, Tracer()):
        with tracer.instrument() if tracer else nullcontext():
            estimate, trace = solve(prepared, Observer(tracer), tracer)
        assert bit_equal(estimate, expected.estimate)
        assert repr(trace.records) == repr(expected.trace.records)


SMOKE = Workload(
    "smoke",
    SMOKE_SIZE,
    (
        bench.ExperimentSpec(task="inpaint", denoiser="dct_threshold", sigma_n=10.0, iterations=SMOKE_ITERATIONS),
        bench.ExperimentSpec(task="deblur", solver="idbp_auto", denoiser="median", scenario=1,
                             iterations=SMOKE_ITERATIONS),
        bench.ExperimentSpec(task="deblur", solver="pnp", denoiser="gaussian", scenario=2,
                             iterations=SMOKE_ITERATIONS),
    ),
)


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_its_checks(tmp_path, trace):
    result = run_workload(SMOKE, seed=3, seconds=0.0, trace=trace, out_dir=tmp_path)
    line = summary(result)
    assert line["correct"], (result.problems, [o.error for o in result.outcomes])
    solves_per_pass = len(SMOKE.specs) * (2 if trace else 1)
    assert (line["attempted"], line["failed"]) == (len(result.passes) * solves_per_pass, 0)
    declared = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    assert set(line["metrics"]) == {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}


def test_output_that_does_not_repeat_counts_as_failed(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)

    class Jittery:
        kind = "median"

        def __call__(self, z, sigma):
            return z + rng.normal(scale=1e-9, size=z.shape)

    monkeypatch.setattr("workloads.build_denoiser", lambda kind: Jittery())
    result = run_workload(SMOKE, seed=3, seconds=0.0, trace=False, out_dir=tmp_path)
    line = summary(result)
    assert not line["correct"]
    assert line["failed"] == len(SMOKE.specs)  # every restoration of the second pass
    assert all("differs from the first solve" in o.error for o in result.passes[1].outcomes)
