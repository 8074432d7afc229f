"""Benchmark workloads and the composition of one restoration.

A workload is a fixed list of restorations on ``synthetic_scene`` at one
size.  Each restoration is described by an ``idbp.bench.ExperimentSpec``;
restoration ``i`` of a run with seed ``s`` uses seed ``s + i``, as
``idbp.bench.run_benchmark`` seeds corpus image ``i``.

``prepare`` builds a restoration's inputs from the package's public
functions (scene, degradation synthesis, median fill, denoiser, protocol
defaults) and ``solve`` makes the solver call.  Together they do what
``idbp.bench.run_single`` does, split at the boundary between set-up and
restoration so that the two can be timed apart; ``test_parity.py`` checks
that the split gives bit-identical results.
"""

from __future__ import annotations

import copy
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

import checkout  # noqa: F401  (must precede the idbp imports)
from idbp import bench, scenes, solvers
from idbp.denoisers import build_denoiser
from idbp.rng import RngState

# Auto-tuning starts from the README default epsilon_0; ExperimentSpec
# resolves an idbp_auto run without an explicit epsilon to the same value.
AUTO_TUNE_EPSILON0 = 1e-3

SOLVE = {
    "idbp": solvers.idbp_run,
    "idbp_auto": solvers.idbp_auto_tuned,
    "pnp": solvers.pnp_run,
}


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    specs: tuple[bench.ExperimentSpec, ...]

    def restorations(self, seed: int) -> list[bench.ExperimentSpec]:
        return [replace(spec, seed=seed + i) for i, spec in enumerate(self.specs)]


def _deblur(solver: str, denoiser: str, scenario: int, **fields) -> bench.ExperimentSpec:
    return bench.ExperimentSpec(task="deblur", solver=solver, denoiser=denoiser, scenario=scenario, **fields)


WORKLOADS = {
    w.name: w
    for w in (
        # The two tuning-free protocol runs: noisy inpainting and auto-tuned
        # deblurring with the README defaults.  The DCT kernel dominates.
        Workload(
            "dct_protocol",
            256,
            (
                bench.ExperimentSpec(
                    task="inpaint", solver="idbp", denoiser="dct_threshold",
                    mask_fraction=0.8, sigma_n=10.0,
                ),
                _deblur("idbp_auto", "dct_threshold", 1),
            ),
        ),
        # Cheap denoisers, so blur operators, the feasibility monitor, the
        # PnP FFT data solve and solver bookkeeping carry a large share.
        Workload(
            "deblur_light",
            256,
            tuple(_deblur("idbp", "median", s) for s in (1, 2, 3, 4))
            + tuple(_deblur("idbp_auto", "median", s) for s in (1, 3))
            + tuple(_deblur("pnp", "gaussian", s) for s in (1, 2, 3, 4)),
        ),
        # The only NLM workload; 4 iterations keep one pass near 5 s.
        Workload("pnp_nlm", 128, (_deblur("pnp", "nlm", 4, iterations=4),)),
    )
}


@dataclass
class Prepared:
    """Inputs of one restoration.  ``operator`` is never handed to a solver
    itself: each solve gets a fresh copy (see ``solve``)."""

    spec: bench.ExperimentSpec
    truth: np.ndarray
    operator: object
    y: np.ndarray
    sigma_n: float
    init: np.ndarray
    baseline: np.ndarray
    denoiser: object
    config: object


def maybe_span(tracer, name: str):
    """A span of `tracer`, or no-op context when tracing is off."""
    return tracer.span(name) if tracer is not None else nullcontext()


def prepare(spec: bench.ExperimentSpec, size: int, tracer=None) -> Prepared:
    """Generate the ground truth and build everything the solver call needs.

    The ISNR baseline is the solver input, as in ``run_single``: the
    median-filled observations for inpainting, the noisy blurred image for
    deblurring.
    """
    rng = RngState(spec.seed)
    with maybe_span(tracer, "scenes.synthetic_scene"):
        truth = scenes.synthetic_scene(size, size)
    with maybe_span(tracer, "denoisers.build_denoiser"):
        denoiser = build_denoiser(spec.denoiser)
    if spec.task == "inpaint":
        sigma_n = float(spec.sigma_n)
        with maybe_span(tracer, "bench.synthesize"):
            operator, y = bench.synthesize_inpainting(truth, spec.mask_fraction, sigma_n, rng)
        with maybe_span(tracer, "solvers.median_initialize"):
            init = solvers.median_initialize(operator, y)
        baseline = init
        config = bench.default_inpaint_idbp_config(sigma_n, iterations=spec.iterations)
    else:
        if spec.solver == "idbp_auto":
            config = bench.default_deblur_idbp_config(
                spec.scenario, epsilon=AUTO_TUNE_EPSILON0, iterations=spec.iterations
            )
        else:
            config = bench.default_deblur_idbp_config(spec.scenario, iterations=spec.iterations)
        with maybe_span(tracer, "bench.synthesize"):
            operator, y, _, sigma_n = bench.synthesize_deblurring(
                truth, spec.scenario, spec.sigma_n, rng, config.epsilon
            )
        init = y.copy()
        baseline = y
        if spec.solver == "pnp":
            beta, lam, iterations = bench.DEFAULT_PNP_DEBLUR[spec.scenario]
            if spec.iterations is not None:
                iterations = spec.iterations
            config = solvers.PnpConfig(beta=beta, lam=lam, iterations=iterations)
    return Prepared(spec, truth, operator, y, sigma_n, init, baseline, denoiser, config)


def solve(prepared: Prepared, observer, tracer=None):
    """Run the spec's solver on a fresh copy of the prepared operator.

    The copy matters: a blur operator fills its inverse-filter caches on
    first use, and every solve should pay that cost as a first run does.
    With a tracer, the copy and the denoiser are the traced variants.
    """
    operator = copy.copy(prepared.operator)
    denoiser = prepared.denoiser
    if tracer is not None:
        operator = tracer.trace_operator(operator)
        denoiser = tracer.trace_denoiser(denoiser)
    return SOLVE[prepared.spec.solver](
        operator,
        prepared.y,
        prepared.sigma_n,
        denoiser,
        prepared.config,
        prepared.init,
        ground_truth=prepared.truth,
        observer=observer,
    )
