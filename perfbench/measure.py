"""Measure one workload: set-up, restoration passes, output checks, metrics.

Started by ``run.py``, which pins the BLAS thread count in the environment
of this process::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run builds every restoration's inputs ``SETUP_REPEATS`` times (the
median build time is ``setup_s``), then restores the first build in passes
over the list until ``--seconds`` have passed, and at least twice.  With
tracing, each pass solves every restoration twice in a row, traced and
untraced in alternating order, so the two are compared under the same
machine load.  Every solve is checked; estimates must repeat bit for bit.

The report ends with one JSON line: ``correct``, ``attempted``,
``failed`` and the metrics BENCHMARK.json declares (``end_to_end`` without
tracing, ``per_layer`` with it).  The full result, spans included, is
written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checkout
import idbp
from idbp.grid import psnr
from idbp.pgm import load_pgm, save_pgm
from tracing import Tracer
from workloads import SOLVE, WORKLOADS, Prepared, Workload, maybe_span, prepare, solve

SETUP_REPEATS = 11
# Layer busy times plus solver self time must match the timed restore
# wall time to this fraction.
LAYER_SUM_TOLERANCE = 0.03
OUT_DIR = checkout.ROOT / ".perfbench_out"
SETUP_LAYERS = (
    "scenes.synthetic_scene",
    "bench.synthesize",
    "rng.generate_random_mask",
    "grid.add_gaussian_noise",
    "solvers.median_initialize",
)
OPERATOR_METHODS = ("forward", "pseudoinverse", "project_null", "with_epsilon")
DENOISER_KINDS = ("dct_threshold", "median", "gaussian", "nlm")


class Observer:
    """Solver observer: keeps the latest iterates and, when tracing, one
    (iteration, time, FFT count) tick per completed iteration."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.iterates: tuple = ()
        self.ticks: list[tuple[int, float, int]] = []

    def __call__(self, k: int, *iterates) -> None:
        self.iterates = iterates
        if self.tracer is not None:
            self.ticks.append((k, time.perf_counter(), self.tracer.fft_calls))


@dataclass
class Outcome:
    """One solve of one restoration."""

    index: int
    traced: bool
    restore_s: float = float("nan")
    iterations: int = 0
    restarts: int = 0
    fft_calls: int = 0
    psnr_db: float = float("nan")
    isnr_db: float = float("nan")
    ticks: list = field(default_factory=list)
    error: str = ""


@dataclass
class Pass:
    tracer: Tracer | None  # spans of the pass's traced solves
    outcomes: list[Outcome]

    def restore_s(self, traced: bool) -> float:
        """Wall time of the pass's traced or untraced solver calls, failed ones included."""
        return sum(o.restore_s for o in self.outcomes if o.traced == traced)


@dataclass
class Result:
    workload: Workload
    seed: int
    trace: bool
    specs: list
    setup_s: list[float]
    setup_tracers: list[Tracer]
    passes: list[Pass]
    measured_s: float
    problems: list[str]
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    @property
    def outcomes(self) -> list[Outcome]:
        return [o for p in self.passes for o in p.outcomes]

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.error)


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Set-up and passes
# ---------------------------------------------------------------------------


def build_inputs(workload: Workload, specs, trace: bool, problems: list[str]):
    """Build the inputs SETUP_REPEATS times; return the first build, the
    build times and the set-up tracers.  Later builds must match the first."""
    first = None
    times, tracers = [], []
    for repeat in range(SETUP_REPEATS):
        tracer = Tracer() if trace else None
        inputs = []
        start = time.perf_counter()
        with tracer.instrument() if tracer else nullcontext():
            for index, spec in enumerate(specs):
                if tracer:
                    tracer.request = f"setup{repeat}/r{index}"
                inputs.append(prepare(spec, workload.size, tracer))
        times.append(time.perf_counter() - start)
        if tracer:
            tracers.append(tracer)
        if first is None:
            first = inputs
            continue
        for index, (a, b) in enumerate(zip(first, inputs)):
            if not (bit_equal(a.y, b.y) and bit_equal(a.init, b.init)):
                problems.append(f"set-up {repeat} of restoration {index} differs from the first")
    return first, times, tracers


def check(prepared: Prepared, estimate: np.ndarray, observer: Observer, reference, scratch: Path, tracer) -> list[str]:
    """Output checks of one restoration; returns the problems found."""
    truth = prepared.truth
    if estimate.shape != truth.shape or not np.all(np.isfinite(estimate)):
        return [f"estimate is not a finite {truth.shape} grid"]
    problems = []
    if prepared.spec.task == "inpaint" and prepared.spec.solver != "pnp":
        mask = prepared.operator.mask
        projected = observer.iterates[1] if observer.iterates else None
        if projected is None or not bit_equal(projected[mask], prepared.y[mask]):
            problems.append("final projected iterate differs from y on the mask")
    with maybe_span(tracer, "pgm.save"):
        save_pgm(estimate, scratch)
    with maybe_span(tracer, "pgm.load"):
        loaded = load_pgm(scratch)
    if not bit_equal(loaded, np.floor(np.clip(estimate, 0.0, 255.0) + 0.5)):
        problems.append("PGM round trip is not exact")
    if reference is not None and not bit_equal(estimate, reference):
        problems.append("estimate differs from the first solve")
    return problems


def restore(prepared: Prepared, index: int, tracer: Tracer | None, references: dict, scratch: Path) -> Outcome:
    """Solve one restoration, timed, then check its output."""
    outcome = Outcome(index, traced=tracer is not None)
    observer = Observer(tracer)
    with tracer.instrument() if tracer else nullcontext():
        ffts = tracer.fft_calls if tracer else 0
        start = time.perf_counter()
        try:
            with maybe_span(tracer, f"solvers.{SOLVE[prepared.spec.solver].__name__}"):
                estimate, trace = solve(prepared, observer, tracer)
        except Exception as exc:  # noqa: BLE001 - a failed restoration is counted, not fatal
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.restore_s = time.perf_counter() - start
        if outcome.error:
            return outcome
        outcome.iterations = len(trace)
        outcome.restarts = trace.restart_count
        outcome.fft_calls = (tracer.fft_calls if tracer else 0) - ffts
        outcome.ticks = observer.ticks
        first_estimate, first_iterations = references.get(index, (None, outcome.iterations))
        problems = check(prepared, estimate, observer, first_estimate, scratch, tracer)
    if first_iterations != outcome.iterations:
        problems.append(f"{outcome.iterations} iterations, the first solve made {first_iterations}")
    if not problems:
        outcome.psnr_db = float(psnr(prepared.truth, estimate))
        outcome.isnr_db = outcome.psnr_db - float(psnr(prepared.truth, prepared.baseline))
        references.setdefault(index, (estimate, outcome.iterations))
    outcome.error = "; ".join(problems)
    return outcome


def run_pass(inputs: list[Prepared], number: int, trace: bool, references: dict, scratch: Path) -> Pass:
    tracer = Tracer() if trace else None
    outcomes = []
    for index, prepared in enumerate(inputs):
        if tracer:
            tracer.request = f"pass{number}/r{index}"
        order = (None, tracer) if (number + index) % 2 == 0 else (tracer, None)
        for solve_tracer in order if trace else (None,):
            outcomes.append(restore(prepared, index, solve_tracer, references, scratch))
    return Pass(tracer, outcomes)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> Result:
    specs = workload.restorations(seed)
    problems: list[str] = []
    inputs, setup_s, setup_tracers = build_inputs(workload, specs, trace, problems)
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = out_dir / f"roundtrip-{os.getpid()}.pgm"
    references: dict = {}
    passes: list[Pass] = []
    start = time.perf_counter()
    try:
        while len(passes) < 2 or time.perf_counter() - start < seconds:
            passes.append(run_pass(inputs, len(passes), trace, references, scratch))
    finally:
        scratch.unlink(missing_ok=True)
    result = Result(workload, seed, trace, specs, setup_s, setup_tracers, passes,
                     time.perf_counter() - start, problems)
    result.metrics = end_to_end_metrics(result)
    if trace:
        result.metrics.update(per_layer_metrics(result))
    return result


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(result: Result) -> dict[str, tuple[float, str]]:
    """User-visible metrics from the untraced solves.

    ``restore_s`` sums, over the restorations, the median of each one's
    solver wall time across passes.  Quality comes from the first
    successful pass of each restoration (later passes are bit-identical).
    """
    good: dict[int, list[Outcome]] = {}
    for o in result.outcomes:
        if not (o.traced or o.error):
            good.setdefault(o.index, []).append(o)
    if not good:
        raise RuntimeError("no restoration succeeded")
    restore_s = sum(statistics.median(o.restore_s for o in runs) for runs in good.values())
    first = [runs[0] for runs in good.values()]
    outcomes = result.outcomes
    return {
        "setup_s": (statistics.median(result.setup_s), "s"),
        "restore_s": (restore_s, "s"),
        "iters_per_s": (sum(o.iterations for o in first) / restore_s, "1/s"),
        "psnr_db_mean": (statistics.fmean(o.psnr_db for o in first), "dB"),
        "psnr_db_min": (min(o.psnr_db for o in first), "dB"),
        "isnr_db_mean": (statistics.fmean(o.isnr_db for o in first), "dB"),
        "isnr_db_min": (min(o.isnr_db for o in first), "dB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "error_rate": (result.failed / len(outcomes), "ratio"),
    }


def _pass_layers(p: Pass) -> dict[str, float]:
    """Busy time and call counts of each layer inside one traced pass's
    solver spans, plus the pass's solver self time and work counts."""
    spans = p.tracer.spans
    solver = {i for i, s in enumerate(spans) if s.parent == -1 and s.name.startswith("solvers.")}
    children = [s for s in spans if s.parent in solver]
    layers = {"denoisers.calls": 0, "denoisers.busy_s": 0.0}
    for method in OPERATOR_METHODS:
        layers[f"operators.{method}.calls"] = 0
        layers[f"operators.{method}.busy_s"] = 0.0
    for s in children:
        layer = "denoisers" if s.name.startswith("denoisers.") else s.name
        layers[f"{layer}.calls"] += 1
        layers[f"{layer}.busy_s"] += s.duration
    layers["solvers.self_s"] = sum(spans[i].duration for i in solver) - sum(s.duration for s in children)
    for name in ("pgm.load", "pgm.save"):
        layers[f"{name}_s"] = sum(s.duration for s in spans if s.name == name)
    good = [o for o in p.outcomes if o.traced and not o.error]
    layers["restore_s"] = p.restore_s(traced=True)
    layers["solvers.iterations"] = sum(o.iterations for o in good)
    layers["solvers.restarts"] = sum(o.restarts for o in good)
    layers["fft_calls"] = sum(o.fft_calls for o in good)
    return layers


def per_layer_metrics(result: Result) -> dict[str, tuple[float, str]]:
    """Layer metrics from the traced solves (per-pass means) and the set-up
    tracers (medians over builds)."""
    per_pass = [_pass_layers(p) for p in result.passes]
    for number, layers in enumerate(per_pass):
        busy = layers["denoisers.busy_s"] + layers["solvers.self_s"]
        busy += sum(layers[f"operators.{m}.busy_s"] for m in OPERATOR_METHODS)
        if abs(busy - layers["restore_s"]) > LAYER_SUM_TOLERANCE * layers["restore_s"]:
            result.problems.append(
                f"traced pass {number}: layers sum to {busy:.4f} s, restore took {layers['restore_s']:.4f} s"
            )
    for index in range(len(result.specs)):
        counts = {(o.fft_calls, o.iterations) for o in result.outcomes if o.index == index and o.traced and not o.error}
        if len(counts) > 1:
            result.problems.append(f"restoration {index}: FFT and iteration counts vary across passes: {sorted(counts)}")

    def mean(key: str) -> float:
        return statistics.fmean(layers[key] for layers in per_pass)

    metrics: dict[str, tuple[float, str]] = {}
    for key in per_pass[0]:
        if key.endswith("_s"):
            metrics[key] = (mean(key), "s")
        elif key.endswith(".calls") or key in ("solvers.iterations", "solvers.restarts"):
            metrics[key] = (mean(key), "count")
    del metrics["restore_s"]
    metrics["denoisers.share"] = (mean("denoisers.busy_s") / mean("restore_s"), "ratio")
    projection = mean("operators.project_null.busy_s")
    monitor = mean("operators.forward.busy_s") + mean("operators.pseudoinverse.busy_s")
    metrics["operators.monitor_to_projection"] = (monitor / projection if projection else 0.0, "ratio")
    metrics["operators.fft_per_iter"] = (mean("fft_calls") / mean("solvers.iterations"), "count/iter")

    calls = [s for p in result.passes for s in p.tracer.spans if s.name.startswith("denoisers.")]
    for kind in DENOISER_KINDS:
        durations = [s.duration for s in calls if s.name == f"denoisers.{kind}"]
        metrics[f"denoisers.{kind}.ms_per_call"] = (1e3 * statistics.median(durations) if durations else 0.0, "ms")

    # An iteration window runs from one observer call to the next.  The
    # observer's count restarts at 1 with each IDBP restart, so the first
    # iteration of a solve or of a restart, which also carries set-up such
    # as H+ y, is left out.
    windows: dict[str, list[tuple[float, int]]] = {"idbp_blur": [], "pnp_blur": [], "other": []}
    for o in result.outcomes:
        spec = result.specs[o.index]
        kind = "other" if spec.task != "deblur" else ("pnp_blur" if spec.solver == "pnp" else "idbp_blur")
        for (k0, t0, f0), (k1, t1, f1) in zip(o.ticks, o.ticks[1:]):
            if k1 == k0 + 1:
                windows[kind].append((t1 - t0, f1 - f0))
    for kind in ("idbp_blur", "pnp_blur"):
        ffts = [f for _, f in windows[kind]]
        metrics[f"operators.fft_per_iter.{kind}"] = (statistics.median(ffts) if ffts else 0.0, "count/iter")
    iteration_ms = [1e3 * t for kind in windows.values() for t, _ in kind]
    metrics["solvers.iter_samples"] = (len(iteration_ms), "count")
    metrics["solvers.iter_ms_p50"] = (float(np.percentile(iteration_ms, 50)) if iteration_ms else 0.0, "ms")
    metrics["solvers.iter_ms_p90"] = (float(np.percentile(iteration_ms, 90)) if iteration_ms else 0.0, "ms")

    for layer in SETUP_LAYERS:
        per_build = [sum((s.duration for s in t.spans if s.name == layer), 0.0) for t in result.setup_tracers]
        metrics[f"{layer}_s"] = (statistics.median(per_build), "s")

    # Each traced solve ran right next to an untraced solve of the same input.
    overhead = sum(p.restore_s(True) for p in result.passes) / sum(p.restore_s(False) for p in result.passes) - 1.0
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def blas_threads_in_effect() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_effect": blas_threads_in_effect(),
        "seed": seed,
    }


def declared(trace: bool) -> list[dict]:
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(result: Result, env: dict) -> list[str]:
    w = result.workload
    pass_times = [f"{p.restore_s(False):.4f}" + (f"/{p.restore_s(True):.4f}" if result.trace else "")
                  for p in result.passes]
    lines = [
        f"perfbench workload={w.name} seed={result.seed} trace={int(result.trace)} "
        f"passes={len(result.passes)} setup_repeats={SETUP_REPEATS} measured_s={result.measured_s:.3f}",
        "pass_restore_s " + " ".join(pass_times) + (" (untraced/traced)" if result.trace else ""),
        "env " + json.dumps(env, sort_keys=True),
    ]
    for index, spec in enumerate(result.specs):
        runs = [o for o in result.outcomes if o.index == index]
        good = [o for o in runs if not o.error]
        head = (f"restoration {index}: {spec.task} {spec.solver} {spec.denoiser} size={w.size} "
                f"scenario={spec.scenario} seed={spec.seed}")
        if good:
            o = good[0]
            head += (f" iterations={o.iterations} restarts={o.restarts} "
                     f"restore_s={statistics.median(g.restore_s for g in good):.4f} "
                     f"psnr_db={o.psnr_db:.4f} isnr_db={o.isnr_db:.4f}")
        lines.append(head + f" ok={len(good)}/{len(runs)}")
    for number, p in enumerate(result.passes):
        lines.extend(f"failure pass={number} restoration={o.index} traced={int(o.traced)}: {o.error}"
                     for o in p.outcomes if o.error)
    lines.extend(f"problem: {problem}" for problem in result.problems)
    lines.extend(f"metric {name} {value!r} {unit}" for name, (value, unit) in result.metrics.items())
    return lines


def write_result(result: Result, env: dict, lines: list[str], out_dir: Path) -> Path:
    path = out_dir / f"{result.workload.name}-seed{result.seed}-trace{int(result.trace)}.json"
    document = {
        "environment": env,
        "report": lines,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
        "setup_spans": [t.records() for t in result.setup_tracers],
        "pass_spans": [p.tracer.records() for p in result.passes if p.tracer],
    }
    path.write_text(json.dumps(document))
    return path


def summary(result: Result) -> dict:
    metrics = {}
    for entry in declared(result.trace):
        value, unit = result.metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: measured in {unit}, BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    return {
        "correct": result.failed == 0 and not result.problems,
        "attempted": len(result.outcomes),
        "failed": result.failed,
        "metrics": metrics,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    package = Path(idbp.__file__).resolve().parent
    if package.parent != checkout.SRC:
        print(f"idbp was imported from {package}, not from {checkout.SRC}", file=sys.stderr)
        return 1
    env = environment(args.seed)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT_DIR)
    line = json.dumps(summary(result))
    lines = report(result, env)
    lines.append(f"result written to {write_result(result, env, lines, OUT_DIR).relative_to(checkout.ROOT)}")
    print("\n".join(lines))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
