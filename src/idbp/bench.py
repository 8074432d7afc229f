"""Experiment harness: degradation synthesis, batch runs, CSV reporting.

A run treats each corpus image as ground truth, synthesizes the degradation
from a per-image seed (master seed + corpus index), restores it with the
requested solver, and reports PSNR of the degraded input, PSNR of the
restoration, their difference (ISNR), and for deblurring the BSNR of the
blurred input.  ``run_single`` composes one such restoration from two
public steps: ``synthesize`` (the one branch on the task) returns the
``Problem``, and ``restore`` (the one solver dispatch) solves it with the
spec's config.  Synthesis returns the plain operator H, and the solver
passes its own regularisation weight to it.  A CSV row is one record (a
``TraceRecord`` or an ``ImageRow``), one column per field, floats at 6
decimals, LF line endings; it parses back losslessly at that precision, and
summary fields holding a comma, quote or line break are quoted.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import typing
from dataclasses import dataclass, field as dataclass_field, fields, replace

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
DEFAULT_MASK_FRACTION = 0.8  # missing pixels when an inpainting spec leaves it unset

# Manual per-scenario inverse-filter weights that pair well with delta = 5.
DEFAULT_SCENARIO_EPSILON = {1: 7e-3, 2: 4e-3, 3: 8e-3, 4: 2e-3}

# ADMM tunings: (beta, lambda, iterations) per deblurring scenario, and per
# inpainting regime, keyed by whether the run is noisy (sigma_n > 0).
DEFAULT_PNP_DEBLUR = {
    1: (0.85, 2.0 / 255.0, 50),
    2: (0.85, 1.0 / 255.0, 50),
    3: (0.9, 3.0 / 255.0, 50),
    4: (0.8, 1.0 / 255.0, 50),
}
DEFAULT_PNP_INPAINT = {False: (1.0, 10.0 / 255.0, 150), True: (0.8, 5.0 / 255.0, 150)}


def _with_set(config, **settings):
    """``config`` with each of ``settings`` that is not None."""
    return replace(config, **{name: value for name, value in settings.items() if value is not None})


def default_inpaint_idbp_config(sigma_n: float, **overrides) -> IdbpConfig:
    """``IdbpConfig()`` but noisy runs need no tuning at all (delta=0, 75
    iterations) and noiseless ones take 150 and keep the projected iterate."""
    if sigma_n > 0:
        return _with_set(IdbpConfig(delta=0.0, iterations=75), **overrides)
    return _with_set(IdbpConfig(iterations=150, output_mode="last_y"), **overrides)


def default_deblur_idbp_config(scenario: int, **overrides) -> IdbpConfig:
    """``IdbpConfig()`` with the scenario's manual weight for epsilon."""
    return _with_set(IdbpConfig(epsilon=DEFAULT_SCENARIO_EPSILON[scenario]), **overrides)


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully deterministic description of one experiment.

    Building a spec validates it and resolves its solver settings once, into
    ``config``: the regime's base config plus the fields the spec sets.  The
    IDBP bases are ``IdbpConfig()``, the auto-tuned deblurring protocol, and
    the default_* helpers' changes to it; a PnP base is the regime's row of
    DEFAULT_PNP_DEBLUR or DEFAULT_PNP_INPAINT.  A ``sigma_n`` of None
    means noiseless (0.0) for inpainting and the scenario's noise level for
    deblurring; the field keeps None either way, so a ``replace`` that
    changes the task resolves it afresh.  Specs are frozen, so ``config``
    cannot go stale.  ``resolved()`` echoes the final values; setting a
    solver field it would not echo, one the run never reads, is an error.
    So is a task field of the other task: a ``scenario`` for inpainting, or
    a ``mask_fraction`` for deblurring.  An ``external_cmd`` is an
    error too unless the denoiser is ``external``, the one kind that runs it,
    and so is one with a line break, which the summary's header cannot hold.
    """

    task: str
    solver: str = "idbp"
    denoiser: str = "dct_threshold"
    external_cmd: str | None = None
    seed: int = 0
    mask_fraction: float | None = None
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
            if self.mask_fraction is not None:
                raise ValueError("deblurring does not read mask_fraction; leave it unset")
        else:
            if self.solver == "idbp_auto":
                raise ValueError("auto-tuning applies to deblurring only; it needs a scenario")
            if self.scenario is not None:
                raise ValueError("inpainting does not read scenario; leave it unset")
            if self.mask_fraction is not None and not 0.0 <= self.mask_fraction < 1.0:
                raise ValueError("mask_fraction must lie in [0, 1)")
        idbp_settings = dict(delta=self.delta, iterations=self.iterations, epsilon=self.epsilon,
                             condition_margin_tau=self.tau, epsilon_increment=self.eps_increment)
        if self.solver == "pnp":
            tuning = DEFAULT_PNP_DEBLUR[self.scenario] if self.task == "deblur" else DEFAULT_PNP_INPAINT[bool(self.sigma_n)]
            config = _with_set(PnpConfig(*tuning), beta=self.beta, lam=self.lam, iterations=self.iterations)
        elif self.task == "inpaint":
            config = default_inpaint_idbp_config(self.sigma_n or 0.0, **idbp_settings)
        elif self.solver == "idbp_auto":
            config = _with_set(IdbpConfig(), **idbp_settings)
        else:
            config = default_deblur_idbp_config(self.scenario, **idbp_settings)
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
            items["mask_fraction"] = repr(DEFAULT_MASK_FRACTION if self.mask_fraction is None else self.mask_fraction)
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
# Degradation synthesis, single-image runs and batch reports
# ---------------------------------------------------------------------------


def synthesize_inpainting(
    x: np.ndarray, mask_fraction: float | None, sigma_n: float, rng: RngState
) -> tuple[InpaintingOperator, np.ndarray]:
    """Seeded mask plus masked noisy observations (unobserved entries zero); None takes the default."""
    fraction = DEFAULT_MASK_FRACTION if mask_fraction is None else mask_fraction
    operator = generate_random_mask(x.shape[0], x.shape[1], fraction, rng)
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
class ImageRow:
    """One line of ``summary.csv``: a failed image keeps NaN qualities."""

    name: str
    psnr_in_db: float = float("nan")
    psnr_out_db: float = float("nan")
    isnr_db: float = float("nan")
    bsnr_db: float = float("nan")
    error: str = ""


@dataclass
class SingleRunResult:
    estimate: np.ndarray
    trace: IterationTrace
    row: ImageRow  # named "": the caller knows the image's name


def run_single(spec: ExperimentSpec, image, rng: RngState) -> SingleRunResult:
    """``synthesize`` the degradation of one ground-truth image, ``restore``
    it with the spec's denoiser, and measure PSNR against the image."""
    x = as_grid(image)
    problem = synthesize(spec, x, rng)
    estimate, trace = restore(spec, problem, spec.build_denoiser(), ground_truth=x)
    psnr_in, psnr_out = psnr(x, problem.baseline), psnr(x, estimate)
    return SingleRunResult(estimate, trace, ImageRow("", psnr_in, psnr_out, psnr_out - psnr_in, problem.bsnr_db))


@dataclass
class RunReport:
    rows: list[ImageRow]
    config: dict[str, str]
    traces: dict[str, IterationTrace] = dataclass_field(default_factory=dict)

    def successful_rows(self) -> list[ImageRow]:
        return [r for r in self.rows if not r.error]

    def averages(self) -> ImageRow:
        """The mean of every float field over the successful rows."""
        rows = self.successful_rows()
        if not rows:
            return ImageRow(name="average")
        return ImageRow("average", **{name: float(np.mean([getattr(r, name) for r in rows]))
                                      for name, kind in _field_types(ImageRow) if kind is float})


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
        rows.append(replace(result.row, name=name))
        traces[name] = result.trace
    return RunReport(rows=rows, config=spec.resolved(), traces=traces)


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------

TRACE_HEADER = "iter,psnr_db,condition_ratio,epsilon,restarts"
SUMMARY_HEADER = "image,psnr_in_db,psnr_out_db,isnr_db,bsnr_db,error"


@functools.cache
def _field_types(record_type: type) -> tuple[tuple[str, type], ...]:
    """(name, declared type) of each field of a record, in column order."""
    hints = typing.get_type_hints(record_type)
    return tuple((f.name, hints[f.name]) for f in fields(record_type))


def _cells(record) -> list:
    """A record's CSV row: float fields at 6 decimals, the others as they are."""
    return [f"{getattr(record, name):.6f}" if kind is float else getattr(record, name)
            for name, kind in _field_types(type(record))]


def _records(lines, header: str, record_type: type, what: str) -> list:
    """Parse CSV ``lines`` that start with ``header`` into one ``record_type``
    per row, each cell converted by its field's declared type."""
    rows = [row for row in csv.reader(lines) if row]
    if not rows or rows[0] != header.split(","):
        raise ValueError(f"unexpected {what} header: expected {header!r}")
    types = [kind for _, kind in _field_types(record_type)]
    records = []
    for row in rows[1:]:
        if len(row) != len(types):
            raise ValueError(f"{what} row has {len(row)} fields, expected {len(types)}: {row!r}")
        try:
            records.append(record_type(*(kind(cell) for kind, cell in zip(types, row))))
        except ValueError as exc:
            raise ValueError(f"{what} row {row!r}: {exc}") from None
    return records


def _write(path, header: str, records, comments=()) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(comments)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header.split(","))
        writer.writerows(_cells(record) for record in records)


def emit_trace_csv(trace: IterationTrace, path) -> None:
    _write(path, TRACE_HEADER, trace.records)


def parse_trace_csv(path) -> IterationTrace:
    with open(path, "r", newline="") as fh:
        return IterationTrace(_records(fh.readlines(), TRACE_HEADER, TraceRecord, "trace"))


def write_summary_csv(report: RunReport, path) -> None:
    """Write ``# key=value`` config lines, then the rows and their average as
    minimally quoted CSV."""
    _write(path, SUMMARY_HEADER, [*report.rows, report.averages()],
           (f"# {key}={value}\n" for key, value in sorted(report.config.items())))


def parse_summary_csv(path) -> RunReport:
    """Read back ``write_summary_csv``'s config lines and rows, without the average."""
    with open(path, "r", newline="") as fh:
        lines = fh.readlines()
    head = list(itertools.takewhile(lambda line: line.startswith("# ") or not line.strip(), lines))
    settings = (line[2:].rstrip("\r\n").partition("=") for line in head if line.strip())
    config = {key: value for key, _, value in settings}
    rows = _records(lines[len(head):], SUMMARY_HEADER, ImageRow, "summary")
    if rows and rows[-1].name == "average":
        rows.pop()
    return RunReport(rows=rows, config=config)
