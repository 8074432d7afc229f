"""Experiment harness: degradation synthesis, batch runs, CSV reporting.

A run treats each corpus image as ground truth, synthesizes the degradation
from a per-image seed (master seed + corpus index), restores it with the
requested solver, and reports PSNR of the degraded input, PSNR of the
restoration, their difference (ISNR), and for deblurring the BSNR of the
blurred input.  ``run_single`` composes one such restoration from two
public steps: ``synthesize`` (the one branch on the task) returns the
``Problem``, and ``restore`` (the one solver dispatch) solves it with the
spec's config.  Synthesis returns the plain operator H, and the solver
passes its own regularisation weight to it.  All CSV output uses fixed
6-decimal formatting with LF line endings and parses back losslessly at
that precision; summary fields holding a comma, quote or line break are
quoted.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .denoisers import DENOISERS, build_denoiser
from .grid import add_gaussian_noise, as_grid, bsnr, psnr, sigma_for_bsnr
from .operators import (
    SCENARIO_NOISE_VARIANCE,
    BlurOperator,
    InpaintingOperator,
    generate_random_mask,
    generate_scenario_kernel,
)
from .rng import RngState
from .solvers import (
    EPSILON0,
    IdbpConfig,
    IterationTrace,
    PnpConfig,
    TraceRecord,
    idbp_auto_tuned,
    idbp_run,
    median_initialize,
    pnp_run,
)

TASKS = ("inpaint", "deblur")
SOLVERS = ("idbp", "idbp_auto", "pnp")

# Manual per-scenario inverse-filter weights that pair well with delta = 5.
DEFAULT_SCENARIO_EPSILON = {1: 7e-3, 2: 4e-3, 3: 8e-3, 4: 2e-3}

# ADMM tunings: (beta, lambda, iterations) per deblurring scenario, plus the
# two inpainting regimes.
DEFAULT_PNP_DEBLUR = {
    1: (0.85, 2.0 / 255.0, 50),
    2: (0.85, 1.0 / 255.0, 50),
    3: (0.9, 3.0 / 255.0, 50),
    4: (0.8, 1.0 / 255.0, 50),
}
DEFAULT_PNP_INPAINT_NOISELESS = (1.0, 10.0 / 255.0, 150)
DEFAULT_PNP_INPAINT_NOISY = (0.8, 5.0 / 255.0, 150)


def default_inpaint_idbp_config(sigma_n: float, **overrides) -> IdbpConfig:
    """Protocol defaults: noiseless runs use delta=5 and keep the projected
    iterate; noisy runs need no tuning at all (delta=0)."""
    if sigma_n > 0:
        base = dict(delta=0.0, iterations=75, output_mode="last_x")
    else:
        base = dict(delta=5.0, iterations=150, output_mode="last_y")
    base.update({k: v for k, v in overrides.items() if v is not None})
    return IdbpConfig(**base)


def default_deblur_idbp_config(scenario: int, **overrides) -> IdbpConfig:
    base = dict(delta=5.0, iterations=30, output_mode="last_x",
                epsilon=DEFAULT_SCENARIO_EPSILON[scenario])
    base.update({k: v for k, v in overrides.items() if v is not None})
    return IdbpConfig(**base)


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully deterministic description of one experiment.

    Building a spec validates it and resolves its solver settings once, into
    ``config``: fields left as None take the task's protocol defaults (the
    default_* helpers and DEFAULT_PNP_* tables).  A ``sigma_n`` of None
    means noiseless (0.0) for inpainting and the scenario's noise level for
    deblurring; the field keeps None either way, so a ``replace`` that
    changes the task resolves it afresh.  Specs are frozen, so ``config``
    cannot go stale.  ``resolved()`` echoes the final values; setting a
    solver field it would not echo, one the run never reads, is an error.
    So is a task field of the other task: a ``scenario`` for inpainting, or
    a ``mask_fraction`` for deblurring other than its default 0.8.  That
    field keeps a float default, so an explicit 0.8 on a deblurring spec
    cannot be told from an unset one and passes.  An ``external_cmd`` is an
    error too unless the denoiser is ``external``, the one kind that runs it,
    and so is one with a line break, which the summary's header cannot hold.
    """

    task: str
    solver: str = "idbp"
    denoiser: str = "dct_threshold"
    external_cmd: str | None = None
    seed: int = 0
    mask_fraction: float = 0.8
    sigma_n: float | None = None
    scenario: int | None = None
    delta: float | None = None
    epsilon: float | None = None
    iterations: int | None = None
    tau: float | None = None
    eps_increment: float | None = None
    beta: float | None = None
    lam: float | None = None
    config: IdbpConfig | PnpConfig = dataclass_field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}")
        if self.denoiser not in DENOISERS:
            raise ValueError(f"unknown denoiser kind {self.denoiser!r} for an experiment; choose from {DENOISERS}")
        if self.denoiser == "external" and not self.external_cmd:
            raise ValueError("external denoiser requires a command; set external_cmd")
        if self.denoiser != "external" and self.external_cmd is not None:
            raise ValueError(f"the {self.denoiser} denoiser does not read external_cmd; leave it unset")
        if self.external_cmd is not None and ("\n" in self.external_cmd or "\r" in self.external_cmd):
            raise ValueError("external_cmd must be one line: the summary echoes it on one")
        if self.sigma_n is not None and not 0.0 <= self.sigma_n < math.inf:
            raise ValueError("sigma_n must be finite and nonnegative")
        if self.task == "deblur":
            if self.scenario not in SCENARIO_NOISE_VARIANCE:
                raise ValueError("deblur requires scenario in 1..4")
            if self.solver == "idbp_auto" and self.sigma_n == 0:
                raise ValueError("auto-tuning requires noise")
            if self.mask_fraction != 0.8:
                raise ValueError("deblurring does not read mask_fraction; leave it unset")
        else:
            if self.solver == "idbp_auto":
                raise ValueError("auto-tuning applies to deblurring only; it needs a scenario")
            if self.scenario is not None:
                raise ValueError("inpainting does not read scenario; leave it unset")
            if not 0.0 <= self.mask_fraction < 1.0:
                raise ValueError("mask_fraction must lie in [0, 1)")
        if self.solver == "pnp":
            if self.task == "deblur":
                beta, lam, iterations = DEFAULT_PNP_DEBLUR[self.scenario]
            elif self.sigma_n:  # None and 0.0 both mean noiseless
                beta, lam, iterations = DEFAULT_PNP_INPAINT_NOISY
            else:
                beta, lam, iterations = DEFAULT_PNP_INPAINT_NOISELESS
            config = PnpConfig(
                beta=beta if self.beta is None else self.beta,
                lam=lam if self.lam is None else self.lam,
                iterations=iterations if self.iterations is None else self.iterations,
            )
        else:
            overrides = dict(delta=self.delta, iterations=self.iterations, epsilon=self.epsilon,
                             condition_margin_tau=self.tau, epsilon_increment=self.eps_increment)
            if self.solver == "idbp_auto" and self.epsilon is None:
                overrides["epsilon"] = EPSILON0  # auto-tune starts small and grows
            if self.task == "inpaint":
                config = default_inpaint_idbp_config(self.sigma_n or 0.0, **overrides)
            else:
                config = default_deblur_idbp_config(self.scenario, **overrides)
        object.__setattr__(self, "config", config)
        echoed = self.resolved()
        for name in ("delta", "epsilon", "tau", "eps_increment", "beta", "lam"):
            if getattr(self, name) is not None and ("lambda" if name == "lam" else name) not in echoed:
                raise ValueError(f"the {self.solver} solver does not read {name} for {self.task}; leave it unset")

    def build_denoiser(self):
        return build_denoiser(self.denoiser, self.external_cmd)

    def resolved(self) -> dict[str, str]:
        """Flat key=value echo of every setting that shaped the run."""
        items = {
            "task": self.task,
            "solver": self.solver,
            "denoiser": self.denoiser,
            "seed": str(self.seed),
        }
        if self.external_cmd:
            items["external_cmd"] = self.external_cmd
        if self.task == "inpaint":
            items["mask_fraction"] = repr(self.mask_fraction)
            default = "0.0"
        else:
            items["scenario"] = str(self.scenario)
            variance = SCENARIO_NOISE_VARIANCE[self.scenario]
            default = "bsnr40" if variance is None else repr(float(np.sqrt(variance)))
        items["sigma_n"] = default if self.sigma_n is None else repr(self.sigma_n)
        cfg = self.config
        if isinstance(cfg, PnpConfig):
            items.update(beta=repr(cfg.beta), **{"lambda": repr(cfg.lam)}, iterations=str(cfg.iterations))
            return items
        items.update(delta=repr(cfg.delta), iterations=str(cfg.iterations), output_mode=cfg.output_mode)
        if self.task == "deblur":
            items["epsilon"] = repr(cfg.epsilon)
        if self.solver == "idbp_auto":
            items["tau"] = repr(cfg.condition_margin_tau)
            items["eps_increment"] = repr(cfg.epsilon_increment)
        return items


# ---------------------------------------------------------------------------
# Degradation synthesis and single-image runs
# ---------------------------------------------------------------------------


def synthesize_inpainting(
    x: np.ndarray, mask_fraction: float, sigma_n: float, rng: RngState
) -> tuple[InpaintingOperator, np.ndarray]:
    """Seeded mask plus masked noisy observations (unobserved entries zero)."""
    operator = generate_random_mask(x.shape[0], x.shape[1], mask_fraction, rng)
    noisy = add_gaussian_noise(x, sigma_n, rng)
    return operator, operator.forward(noisy)


def synthesize_deblurring(
    x: np.ndarray, scenario: int, sigma_n: float | None, rng: RngState, epsilon: float | None = None
) -> tuple[BlurOperator, np.ndarray, np.ndarray, float]:
    """Blur by the scenario kernel and add noise.

    Returns (operator, observations, clean blurred image, sigma_n actually
    used); a None sigma_n triggers the scenario-table default, which for
    scenario 3 calibrates the noise so the BSNR is 40 dB for this
    particular image.  ``synthesize`` calls this for a deblurring spec.
    ``epsilon`` is unused: the solver passes its own regularisation weight
    to the operator.  The parameter stays only because the benchmark
    harness in ``perfbench/workloads.py`` passes it by position; it goes
    when that harness builds its problems with ``synthesize`` and solves
    them with ``restore``.
    """
    blur = BlurOperator(generate_scenario_kernel(scenario), x.shape)
    blurred = blur.forward(x)
    if sigma_n is None:
        variance = SCENARIO_NOISE_VARIANCE[scenario]
        sigma_n = sigma_for_bsnr(blurred, 40.0) if variance is None else float(np.sqrt(variance))
    y = add_gaussian_noise(blurred, sigma_n, rng)
    return blur, y, blurred, sigma_n


@dataclass(frozen=True, eq=False)
class Problem:
    """One synthesized degradation: what a solver call takes besides the
    config and the denoiser, plus what the report reads.

    ``baseline`` is the ISNR reference, the solver input: the median-filled
    observations for inpainting, the noisy blurred image for deblurring.
    ``bsnr_db`` is NaN for inpainting and +inf for noiseless deblurring.
    """

    operator: InpaintingOperator | BlurOperator
    y: np.ndarray
    sigma_n: float
    init: np.ndarray
    baseline: np.ndarray
    bsnr_db: float


def synthesize(spec: ExperimentSpec, image, rng: RngState) -> Problem:
    """The degradation of one ground-truth image, drawn from ``rng``, and the
    solver's starting image: the median fill for inpainting, a copy of the
    observations for deblurring."""
    x = as_grid(image)
    if spec.task == "inpaint":
        sigma_n = spec.sigma_n or 0.0
        operator, y = synthesize_inpainting(x, spec.mask_fraction, sigma_n, rng)
        init = median_initialize(operator, y)
        return Problem(operator, y, sigma_n, init, baseline=init, bsnr_db=float("nan"))
    operator, y, blurred, sigma_n = synthesize_deblurring(x, spec.scenario, spec.sigma_n, rng)
    bsnr_db = bsnr(blurred, sigma_n) if sigma_n > 0 else float("inf")
    return Problem(operator, y, sigma_n, y.copy(), baseline=y, bsnr_db=bsnr_db)


def restore(
    spec: ExperimentSpec, problem: Problem, denoiser, ground_truth=None, observer=None
) -> tuple[np.ndarray, IterationTrace]:
    """Solve a synthesized problem with the spec's solver and ``spec.config``.

    The solver is looked up in this module when called, and ``observer``
    (called once per iteration) is handed on to it.
    """
    solve = {"idbp": idbp_run, "idbp_auto": idbp_auto_tuned, "pnp": pnp_run}[spec.solver]
    return solve(problem.operator, problem.y, problem.sigma_n, denoiser, spec.config, problem.init,
                 ground_truth=ground_truth, observer=observer)


@dataclass
class SingleRunResult:
    estimate: np.ndarray
    trace: IterationTrace
    psnr_in_db: float
    psnr_out_db: float
    isnr_db: float
    bsnr_db: float

    def row(self, name: str) -> ImageRow:
        return ImageRow(name, self.psnr_in_db, self.psnr_out_db, self.isnr_db, self.bsnr_db)


def run_single(spec: ExperimentSpec, image, rng: RngState) -> SingleRunResult:
    """``synthesize`` the degradation of one ground-truth image, ``restore``
    it with the spec's denoiser, and measure PSNR against the image."""
    x = as_grid(image)
    problem = synthesize(spec, x, rng)
    estimate, trace = restore(spec, problem, spec.build_denoiser(), ground_truth=x)
    psnr_in = psnr(x, problem.baseline)
    psnr_out = psnr(x, estimate)
    return SingleRunResult(
        estimate=estimate,
        trace=trace,
        psnr_in_db=psnr_in,
        psnr_out_db=psnr_out,
        isnr_db=psnr_out - psnr_in,
        bsnr_db=problem.bsnr_db,
    )


# ---------------------------------------------------------------------------
# Batch reports
# ---------------------------------------------------------------------------


@dataclass
class ImageRow:
    name: str
    psnr_in_db: float = float("nan")
    psnr_out_db: float = float("nan")
    isnr_db: float = float("nan")
    bsnr_db: float = float("nan")
    error: str = ""


@dataclass
class RunReport:
    rows: list[ImageRow]
    config: dict[str, str]
    traces: dict[str, IterationTrace] = dataclass_field(default_factory=dict)

    def successful_rows(self) -> list[ImageRow]:
        return [r for r in self.rows if not r.error]

    def averages(self) -> ImageRow:
        rows = self.successful_rows()
        if not rows:
            return ImageRow(name="average")

        def mean(values: list[float]) -> float:
            return float(np.mean(values))

        return ImageRow(
            name="average",
            psnr_in_db=mean([r.psnr_in_db for r in rows]),
            psnr_out_db=mean([r.psnr_out_db for r in rows]),
            isnr_db=mean([r.isnr_db for r in rows]),
            bsnr_db=mean([r.bsnr_db for r in rows]),
        )


def run_benchmark(spec: ExperimentSpec, corpus: list[tuple[str, np.ndarray]]) -> RunReport:
    """Run the experiment over a (name, image) corpus.

    Image i uses the deterministic seed spec.seed + i, so batches are
    reproducible and images independent.  Per-image failures land in the
    row's error field without aborting the batch.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    rows: list[ImageRow] = []
    traces: dict[str, IterationTrace] = {}
    for index, (name, image) in enumerate(corpus):
        rng = RngState(spec.seed + index)
        try:
            result = run_single(spec, image, rng)
        except Exception as exc:  # noqa: BLE001 - batch isolation is the point
            rows.append(ImageRow(name=name, error=f"{type(exc).__name__}: {exc}"))
            continue
        rows.append(result.row(name))
        traces[name] = result.trace
    return RunReport(rows=rows, config=spec.resolved(), traces=traces)


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------

TRACE_HEADER = "iter,psnr_db,condition_ratio,epsilon,restarts"
SUMMARY_HEADER = "image,psnr_in_db,psnr_out_db,isnr_db,bsnr_db,error"


def emit_trace_csv(trace: IterationTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER.split(","))
        writer.writerows(
            [r.iteration, f"{r.psnr_db:.6f}", f"{r.condition_ratio:.6f}", f"{r.epsilon:.6f}", r.restarts]
            for r in trace.records
        )


def parse_trace_csv(path) -> IterationTrace:
    with open(path, "r", newline="") as fh:
        records = [record for record in csv.reader(fh) if record]
    if not records or records[0] != TRACE_HEADER.split(","):
        raise ValueError("unexpected trace header")
    trace = IterationTrace()
    for record in records[1:]:
        if len(record) != 5:
            raise ValueError(f"trace row has {len(record)} fields, expected 5: {record!r}")
        it, quality, ratio, eps, restarts = record
        trace.append(TraceRecord(int(it), float(quality), float(ratio), float(eps), int(restarts)))
    return trace


def _format_row(row: ImageRow) -> list[str]:
    return [
        row.name,
        f"{row.psnr_in_db:.6f}",
        f"{row.psnr_out_db:.6f}",
        f"{row.isnr_db:.6f}",
        f"{row.bsnr_db:.6f}",
        row.error,
    ]


def write_summary_csv(report: RunReport, path) -> None:
    """Write ``# key=value`` config lines, then the rows as minimally quoted CSV."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {key}={value}\n" for key, value in sorted(report.config.items()))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER.split(","))
        writer.writerows(_format_row(row) for row in report.rows)
        writer.writerow(_format_row(report.averages()))


def parse_summary_csv(path) -> RunReport:
    config: dict[str, str] = {}
    rows: list[ImageRow] = []
    with open(path, "r", newline="") as fh:
        lines = fh.readlines()
    start = 0
    for start, line in enumerate(lines):
        if line.startswith("# "):
            key, _, value = line[2:].rstrip("\r\n").partition("=")
            config[key] = value
        elif line.strip():
            break
    records = [record for record in csv.reader(lines[start:]) if record]
    if not records or records[0] != SUMMARY_HEADER.split(","):
        raise ValueError("unexpected summary header")
    for record in records[1:]:
        if len(record) != 6:
            raise ValueError(f"summary row has {len(record)} fields, expected 6: {record!r}")
        name, psnr_in, psnr_out, isnr, bsnr_value, error = record
        rows.append(
            ImageRow(
                name=name,
                psnr_in_db=float(psnr_in),
                psnr_out_db=float(psnr_out),
                isnr_db=float(isnr),
                bsnr_db=float(bsnr_value),
                error=error,
            )
        )
    if rows and rows[-1].name == "average":
        rows.pop()
    return RunReport(rows=rows, config=config)
