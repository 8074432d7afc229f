import dataclasses
import re
import sys

import numpy as np
import pytest

from idbp import verify
from idbp.bench import (
    SUMMARY_HEADER,
    TRACE_HEADER,
    DEFAULT_PNP_DEBLUR,
    ExperimentSpec,
    ImageRow,
    RunReport,
    default_deblur_idbp_config,
    default_inpaint_idbp_config,
    emit_trace_csv,
    parse_summary_csv,
    parse_trace_csv,
    restore,
    run_benchmark,
    run_single,
    synthesize,
    write_summary_csv,
)
from idbp.cli import cli_main, load_config_file
from idbp.grid import psnr
from idbp.pgm import load_pgm, save_pgm
from idbp.rng import RngState
from idbp.scenes import synthetic_scene
from idbp.solvers import IterationTrace, PnpConfig, TraceRecord


NAN, INF = float("nan"), float("inf")


def _tiny_corpus(n=3, size=48):
    base = synthetic_scene(size, size)
    out = []
    for i in range(n):
        out.append((f"img{i}", np.clip(np.roll(base, 5 * i, axis=1) + 3.0 * i, 0, 255)))
    return out


def _fast_inpaint_spec(**overrides):
    base = dict(task="inpaint", solver="idbp", denoiser="dct_threshold",
                seed=11, mask_fraction=0.5, sigma_n=10.0, iterations=4)
    base.update(overrides)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# protocol defaults
# ---------------------------------------------------------------------------


def test_inpaint_defaults_depend_on_noise():
    noisy = default_inpaint_idbp_config(10.0)
    assert (noisy.delta, noisy.iterations, noisy.output_mode) == (0.0, 75, "last_x")
    clean = default_inpaint_idbp_config(0.0)
    assert (clean.delta, clean.iterations, clean.output_mode) == (5.0, 150, "last_y")


def test_deblur_defaults_per_scenario():
    for scenario, eps in ((1, 7e-3), (2, 4e-3), (3, 8e-3), (4, 2e-3)):
        cfg = default_deblur_idbp_config(scenario)
        assert (cfg.delta, cfg.iterations, cfg.epsilon) == (5.0, 30, eps)


def _echo(task, solver, **settings):
    return {"task": task, "solver": solver, "denoiser": "dct_threshold", "seed": "0", **settings}


_IDBP_NOISELESS_INPAINT = dict(delta="5.0", iterations="150", output_mode="last_y")
_IDBP_NOISY_INPAINT = dict(delta="0.0", iterations="75", output_mode="last_x")
_PNP_NOISELESS_INPAINT = {"beta": "1.0", "lambda": "0.0392156862745098", "iterations": "150"}
_PNP_NOISY_INPAINT = {"beta": "0.8", "lambda": "0.0196078431372549", "iterations": "150"}
_IDBP_DEBLUR_1 = dict(delta="5.0", iterations="30", output_mode="last_x", epsilon="0.007")
_IDBP_AUTO_DEBLUR = dict(delta="5.0", iterations="30", output_mode="last_x", epsilon="0.001",
                         tau="3.0", eps_increment="0.0001")
_PNP_DEBLUR_1 = {"beta": "0.85", "lambda": "0.00784313725490196", "iterations": "50"}

RESOLVED_CASES = {
    "inpaint-idbp-default": (
        dict(task="inpaint"),
        _echo("inpaint", "idbp", mask_fraction="0.8", sigma_n="0.0", **_IDBP_NOISELESS_INPAINT)),
    "inpaint-idbp-sigma0": (
        dict(task="inpaint", sigma_n=0),
        _echo("inpaint", "idbp", mask_fraction="0.8", sigma_n="0", **_IDBP_NOISELESS_INPAINT)),
    "inpaint-idbp-sigma10": (
        dict(task="inpaint", sigma_n=10),
        _echo("inpaint", "idbp", mask_fraction="0.8", sigma_n="10", **_IDBP_NOISY_INPAINT)),
    "inpaint-pnp-default": (
        dict(task="inpaint", solver="pnp"),
        _echo("inpaint", "pnp", mask_fraction="0.8", sigma_n="0.0", **_PNP_NOISELESS_INPAINT)),
    "inpaint-pnp-sigma0": (
        dict(task="inpaint", solver="pnp", sigma_n=0),
        _echo("inpaint", "pnp", mask_fraction="0.8", sigma_n="0", **_PNP_NOISELESS_INPAINT)),
    "inpaint-pnp-sigma10": (
        dict(task="inpaint", solver="pnp", sigma_n=10),
        _echo("inpaint", "pnp", mask_fraction="0.8", sigma_n="10", **_PNP_NOISY_INPAINT)),
    "deblur-idbp-default": (
        dict(task="deblur", scenario=1),
        _echo("deblur", "idbp", scenario="1", sigma_n="1.4142135623730951", **_IDBP_DEBLUR_1)),
    "deblur-idbp-sigma0": (
        dict(task="deblur", scenario=1, sigma_n=0),
        _echo("deblur", "idbp", scenario="1", sigma_n="0", **_IDBP_DEBLUR_1)),
    "deblur-idbp-sigma10": (
        dict(task="deblur", scenario=1, sigma_n=10),
        _echo("deblur", "idbp", scenario="1", sigma_n="10", **_IDBP_DEBLUR_1)),
    "deblur-idbp-scenario3": (
        dict(task="deblur", scenario=3),
        _echo("deblur", "idbp", scenario="3", sigma_n="bsnr40",
              **{**_IDBP_DEBLUR_1, "epsilon": "0.008"})),
    "deblur-idbp_auto-default": (
        dict(task="deblur", solver="idbp_auto", scenario=1),
        _echo("deblur", "idbp_auto", scenario="1", sigma_n="1.4142135623730951", **_IDBP_AUTO_DEBLUR)),
    "deblur-idbp_auto-sigma10": (
        dict(task="deblur", solver="idbp_auto", scenario=1, sigma_n=10),
        _echo("deblur", "idbp_auto", scenario="1", sigma_n="10", **_IDBP_AUTO_DEBLUR)),
    "deblur-idbp_auto-scenario3": (
        dict(task="deblur", solver="idbp_auto", scenario=3),
        _echo("deblur", "idbp_auto", scenario="3", sigma_n="bsnr40", **_IDBP_AUTO_DEBLUR)),
    "deblur-pnp-default": (
        dict(task="deblur", solver="pnp", scenario=1),
        _echo("deblur", "pnp", scenario="1", sigma_n="1.4142135623730951", **_PNP_DEBLUR_1)),
    "deblur-pnp-sigma0": (
        dict(task="deblur", solver="pnp", scenario=1, sigma_n=0),
        _echo("deblur", "pnp", scenario="1", sigma_n="0", **_PNP_DEBLUR_1)),
    "deblur-pnp-sigma10": (
        dict(task="deblur", solver="pnp", scenario=1, sigma_n=10),
        _echo("deblur", "pnp", scenario="1", sigma_n="10", **_PNP_DEBLUR_1)),
    "deblur-pnp-scenario3": (
        dict(task="deblur", solver="pnp", scenario=3),
        _echo("deblur", "pnp", scenario="3", sigma_n="bsnr40",
              **{"beta": "0.9", "lambda": "0.011764705882352941", "iterations": "50"})),
    "deblur-idbp_auto-every-field": (
        dict(task="deblur", solver="idbp_auto", denoiser="external", external_cmd="cat", seed=9,
             sigma_n=3.5, scenario=2, delta=2.5, epsilon=5e-4, iterations=12,
             tau=4.0, eps_increment=2e-4),
        {"task": "deblur", "solver": "idbp_auto", "denoiser": "external", "seed": "9",
         "external_cmd": "cat", "scenario": "2", "sigma_n": "3.5", "delta": "2.5",
         "iterations": "12", "output_mode": "last_x", "epsilon": "0.0005", "tau": "4.0",
         "eps_increment": "0.0002"}),
    "inpaint-pnp-every-field": (
        dict(task="inpaint", solver="pnp", denoiser="median", seed=4, mask_fraction=0.6,
             sigma_n=5.0, iterations=7, beta=0.9, lam=0.05),
        {"task": "inpaint", "solver": "pnp", "denoiser": "median", "seed": "4",
         "mask_fraction": "0.6", "sigma_n": "5.0", "beta": "0.9", "lambda": "0.05",
         "iterations": "7"}),
}


@pytest.mark.parametrize("fields, expected", RESOLVED_CASES.values(), ids=RESOLVED_CASES.keys())
def test_resolved_echoes_protocol_defaults_exactly(fields, expected):
    assert ExperimentSpec(**fields).resolved() == expected


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(task="sharpen")
    with pytest.raises(ValueError):
        ExperimentSpec(task="deblur")  # missing scenario
    with pytest.raises(ValueError):
        ExperimentSpec(task="inpaint", solver="sgd")
    with pytest.raises(ValueError):
        ExperimentSpec(task="inpaint", mask_fraction=1.0)


@pytest.mark.parametrize("fields, message", [
    (dict(task="inpaint", solver="idbp_auto"), "auto-tuning"),
    (dict(task="deblur", solver="idbp_auto", scenario=1, sigma_n=0), "noise"),
    (dict(task="deblur", scenario=1, sigma_n=-1.0), "sigma_n"),
    (dict(task="inpaint", iterations=0), "iterations"),
    (dict(task="deblur", scenario=2, delta=-1.0), "delta"),
    (dict(task="deblur", solver="idbp_auto", scenario=1, tau=1.0), "condition_margin_tau"),
    (dict(task="inpaint", solver="pnp", beta=-1.0), "beta"),
    (dict(task="deblur", solver="pnp", scenario=4, lam=0.0), "lam"),
    (dict(task="inpaint", denoiser="foo"), "unknown denoiser kind 'foo'"),
    (dict(task="inpaint", denoiser="external"), "external denoiser requires a command"),
    (dict(task="inpaint", denoiser="shrink"), "unknown denoiser kind 'shrink' for an experiment"),
    # a setting the solver never reads would be dropped without a trace in resolved()
    (dict(task="deblur", solver="pnp", scenario=1, sigma_n=5, delta=3, tau=9), "pnp solver does not read delta"),
    (dict(task="deblur", solver="pnp", scenario=1, epsilon=1e-3), "pnp solver does not read epsilon"),
    (dict(task="inpaint", solver="pnp", eps_increment=1e-3), "pnp solver does not read eps_increment"),
    (dict(task="deblur", scenario=1, beta=0.9), "idbp solver does not read beta"),
    (dict(task="deblur", scenario=1, tau=9.0), "idbp solver does not read tau"),
    (dict(task="deblur", scenario=1, eps_increment=1e-3), "idbp solver does not read eps_increment"),
    (dict(task="inpaint", lam=0.05), "idbp solver does not read lam"),
    (dict(task="inpaint", epsilon=1e-3), "idbp solver does not read epsilon for inpaint"),
    (dict(task="deblur", solver="idbp_auto", scenario=1, lam=0.05), "idbp_auto solver does not read lam"),
    # nor is a setting of the other task
    (dict(task="inpaint", scenario=3), "inpainting does not read scenario"),
    (dict(task="inpaint", solver="pnp", scenario=1), "inpainting does not read scenario"),
    (dict(task="deblur", scenario=1, mask_fraction=0.5), "deblurring does not read mask_fraction"),
    (dict(task="deblur", scenario=1, mask_fraction=0.8), "deblurring does not read mask_fraction"),
    (dict(task="deblur", solver="pnp", scenario=4, mask_fraction=0.0), "deblurring does not read mask_fraction"),
    # nor is a command for a denoiser that runs none
    (dict(task="inpaint", denoiser="median", external_cmd="foo"), "the median denoiser does not read external_cmd"),
    # the summary writes the command on one header line, which its parser reads back
    (dict(task="inpaint", denoiser="external", external_cmd="cat\n--fake"), "external_cmd must be one line"),
    (dict(task="inpaint", denoiser="external", external_cmd="cat\r--fake"), "external_cmd must be one line"),
    # NaN passes every `x < 0` and `x <= 0` test, and no setting may be infinite
    (dict(task="inpaint", sigma_n=NAN), "sigma_n must be finite"),
    (dict(task="deblur", scenario=1, sigma_n=INF), "sigma_n must be finite"),
    (dict(task="inpaint", sigma_n=10.0, delta=NAN), "delta must be finite"),
    (dict(task="deblur", scenario=2, delta=INF), "delta must be finite"),
    (dict(task="deblur", scenario=1, epsilon=NAN), "epsilon must be finite"),
    (dict(task="deblur", scenario=1, epsilon=INF), "epsilon must be finite"),
    (dict(task="deblur", solver="idbp_auto", scenario=1, tau=NAN), "condition_margin_tau must be finite"),
    (dict(task="deblur", solver="idbp_auto", scenario=1, tau=INF), "condition_margin_tau must be finite"),
    (dict(task="deblur", solver="idbp_auto", scenario=1, eps_increment=NAN), "epsilon_increment must be finite"),
    (dict(task="deblur", solver="idbp_auto", scenario=1, eps_increment=INF), "epsilon_increment must be finite"),
    (dict(task="deblur", solver="pnp", scenario=1, beta=NAN), "beta must be finite"),
    (dict(task="inpaint", solver="pnp", beta=INF), "beta must be finite"),
    (dict(task="deblur", solver="pnp", scenario=1, lam=INF), "lam must be finite"),
    (dict(task="inpaint", solver="pnp", lam=NAN), "lam must be finite"),
])
def test_experiment_spec_rejects_unusable_settings_when_built(fields, message):
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(**fields)


def test_experiment_spec_is_frozen():
    spec = ExperimentSpec(task="inpaint", iterations=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.iterations = 4
    assert spec.config.iterations == 3


# every regime's protocol config as perfbench/workloads.py's prepare builds
# it from the public helpers, then settings on top of a regime's defaults
@pytest.mark.parametrize("fields, expected", [
    *[pytest.param(dict(task="inpaint", solver=solver, sigma_n=sigma), config, id=f"inpaint-{solver}-{sigma}")
      for sigma, solver, config in [
          (10.0, "idbp", default_inpaint_idbp_config(10.0)),
          (0.0, "idbp", default_inpaint_idbp_config(0.0)),
          (None, "idbp", default_inpaint_idbp_config(0.0)),
          (10.0, "pnp", PnpConfig(beta=0.8, lam=5.0 / 255.0, iterations=150)),
          (0.0, "pnp", PnpConfig(beta=1.0, lam=10.0 / 255.0, iterations=150)),
          (None, "pnp", PnpConfig(beta=1.0, lam=10.0 / 255.0, iterations=150)),
      ]],
    *[pytest.param(dict(task="deblur", solver=solver, scenario=s), config, id=f"deblur-{solver}-{s}")
      for s in (1, 2, 3, 4)
      for solver, config in [
          ("idbp", default_deblur_idbp_config(s)),
          ("idbp_auto", default_deblur_idbp_config(s, epsilon=1e-3)),
          ("pnp", PnpConfig(*DEFAULT_PNP_DEBLUR[s])),
      ]],
    pytest.param(dict(task="deblur", solver="pnp", scenario=2, iterations=7),
                 PnpConfig(beta=0.85, lam=1.0 / 255.0, iterations=7), id="pnp-iterations"),
    pytest.param(dict(task="deblur", solver="idbp_auto", scenario=3, tau=4.0),
                 default_deblur_idbp_config(3, epsilon=1e-3, condition_margin_tau=4.0), id="auto-tau"),
])
def test_experiment_spec_resolves_its_solver_config(fields, expected):
    assert ExperimentSpec(**fields).config == expected


def test_experiment_spec_replace_resolves_an_unset_sigma_n_for_the_new_task():
    assert ExperimentSpec(task="inpaint").sigma_n is None  # noiseless
    assert ExperimentSpec(task="inpaint").resolved()["sigma_n"] == "0.0"
    assert ExperimentSpec(task="deblur", scenario=3).sigma_n is None  # calibrated per image
    spec = dataclasses.replace(ExperimentSpec(task="inpaint"), task="deblur", scenario=3)
    assert spec.resolved()["sigma_n"] == "bsnr40"


def test_run_single_hands_the_spec_config_to_the_solver(monkeypatch):
    seen = []

    def fake_solver(operator, y, sigma_n, denoiser, config, init, ground_truth=None, observer=None):
        seen.append((config, sigma_n))
        return init, IterationTrace()

    monkeypatch.setattr("idbp.bench.pnp_run", fake_solver)
    spec = ExperimentSpec(task="inpaint", solver="pnp", denoiser="median", iterations=2)
    run_single(spec, _tiny_corpus(1)[0][1], RngState(0))
    assert seen == [(spec.config, 0.0)] and seen[0][0] is spec.config


# one restoration of each solver and task; the inpainting pair covers noisy and noiseless
_COMPOSED = [
    ExperimentSpec(task="inpaint", sigma_n=10.0, iterations=4, seed=3),
    ExperimentSpec(task="inpaint", mask_fraction=0.6, iterations=4, seed=4),
    ExperimentSpec(task="inpaint", solver="pnp", denoiser="median", sigma_n=5.0, iterations=4, seed=5),
    ExperimentSpec(task="deblur", scenario=2, denoiser="median", iterations=4, seed=6),
    ExperimentSpec(task="deblur", solver="idbp_auto", scenario=1, denoiser="gaussian", iterations=4, seed=7),
    ExperimentSpec(task="deblur", solver="pnp", scenario=3, denoiser="gaussian", iterations=4, seed=8),
]


@pytest.mark.parametrize("spec", _COMPOSED, ids=lambda s: f"{s.task}-{s.solver}-{s.sigma_n}")
def test_synthesize_then_restore_is_run_single(spec):
    image = synthetic_scene(64, 48)
    expected_rng, rng = RngState(spec.seed), RngState(spec.seed)
    expected = run_single(spec, image, expected_rng)
    estimate, trace = restore(spec, synthesize(spec, image, rng), spec.build_denoiser(), ground_truth=image)
    assert estimate.tobytes() == expected.estimate.tobytes()
    assert repr(trace.records) == repr(expected.trace.records)
    assert rng.counter == expected_rng.counter > 0


@pytest.mark.parametrize("spec", _COMPOSED[2:5], ids=lambda s: s.solver)
def test_restore_calls_the_observer_once_per_trace_record(spec):
    calls = []
    problem = synthesize(spec, synthetic_scene(48, 48), RngState(spec.seed))
    _, trace = restore(spec, problem, spec.build_denoiser(), observer=lambda k, *arrays: calls.append(k))
    assert calls == [record.iteration for record in trace.records]


# ---------------------------------------------------------------------------
# benchmark runs
# ---------------------------------------------------------------------------


def test_benchmark_is_deterministic(tmp_path):
    corpus = _tiny_corpus()
    spec = _fast_inpaint_spec()
    r1 = run_benchmark(spec, corpus)
    r2 = run_benchmark(spec, corpus)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_summary_csv(r1, p1)
    write_summary_csv(r2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    t1, t2 = tmp_path / "ta.csv", tmp_path / "tb.csv"
    emit_trace_csv(r1.traces["img0"], t1)
    emit_trace_csv(r2.traces["img0"], t2)
    assert t1.read_bytes() == t2.read_bytes()


def test_benchmark_isnr_column_is_psnr_difference():
    report = run_benchmark(_fast_inpaint_spec(), _tiny_corpus())
    for row in report.rows:
        assert row.isnr_db == pytest.approx(row.psnr_out_db - row.psnr_in_db, abs=1e-12)


def test_benchmark_averages_match_row_mean():
    report = run_benchmark(_fast_inpaint_spec(), _tiny_corpus())
    avg = report.averages()
    assert avg.psnr_out_db == pytest.approx(
        float(np.mean([r.psnr_out_db for r in report.rows])), abs=1e-12
    )
    assert avg.isnr_db == pytest.approx(
        float(np.mean([r.isnr_db for r in report.rows])), abs=1e-12
    )


def test_benchmark_scenario3_reports_40_db_bsnr():
    spec = ExperimentSpec(task="deblur", scenario=3, seed=4, iterations=2, denoiser="gaussian")
    report = run_benchmark(spec, _tiny_corpus(2))
    for row in report.rows:
        assert row.bsnr_db == pytest.approx(40.0, abs=1e-9)


@pytest.mark.parametrize("solver", ["idbp", "pnp"])
def test_run_single_restores_noiseless_deblurring(solver):
    # no noise means no noise power: the BSNR is +inf, not an error
    spec = ExperimentSpec(task="deblur", solver=solver, scenario=1, sigma_n=0, iterations=3)
    result = run_single(spec, synthetic_scene(64, 64), RngState(0))
    assert result.row.bsnr_db == float("inf")
    assert result.row.isnr_db > 0


def test_noiseless_idbp_deblurring_needs_a_kernel_without_spectral_zeros():
    # scenario 4's binomial kernel has exact zeros in its spectrum
    spec = ExperimentSpec(task="deblur", scenario=4, sigma_n=0, iterations=3)
    with pytest.raises(ValueError, match="the inverse filter is undefined"):
        run_single(spec, synthetic_scene(64, 64), RngState(0))


def test_cli_noiseless_deblurring_exits_zero(scene_pgm, tmp_path, capsys):
    report = tmp_path / "report.csv"
    code = cli_main(["deblur", "--scenario", "1", "--sigma-n", "0", "--input", str(scene_pgm),
                     "--iters", "3", "--report", str(report)])
    assert code == 0
    assert "bsnr=inf dB" in capsys.readouterr().out
    assert parse_summary_csv(report).rows[0].bsnr_db == float("inf")


def test_benchmark_isolates_per_image_failures():
    corpus = _tiny_corpus(2) + [("small", np.ones((4, 4)))]  # below the DCT patch size
    report = run_benchmark(_fast_inpaint_spec(), corpus)
    assert [bool(r.error) for r in report.rows] == [False, False, True]
    assert "small" not in report.traces
    assert "ValueError" in report.rows[2].error
    # averages ignore the failed row
    assert np.isfinite(report.averages().psnr_out_db)


def test_run_single_uses_median_fill_baseline_for_inpainting():
    scene = _tiny_corpus(1)[0][1]
    result = run_single(_fast_inpaint_spec(), scene, RngState(11))
    assert result.row.psnr_in_db == pytest.approx(psnr(scene, result.estimate) - result.row.isnr_db, abs=1e-9)
    assert np.isnan(result.row.bsnr_db)


def test_per_image_seeds_differ_but_reproduce():
    corpus = _tiny_corpus(2)
    report = run_benchmark(_fast_inpaint_spec(), corpus)
    swapped = run_benchmark(_fast_inpaint_spec(), list(reversed(corpus)))
    # image order defines the seed, so the same image at another index differs
    assert report.rows[0].psnr_out_db != swapped.rows[1].psnr_out_db


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


def _sample_trace():
    trace = IterationTrace()
    trace.append(TraceRecord(1, 28.123456789, 3.5, 1e-3, 0))
    trace.append(TraceRecord(2, 29.9, float("inf"), 1e-3, 0))
    trace.append(TraceRecord(1, float("nan"), 2.25, 1.1e-3, 1))
    return trace


def test_trace_csv_round_trip_bytes(tmp_path):
    p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    emit_trace_csv(_sample_trace(), p1)
    emit_trace_csv(parse_trace_csv(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.startswith("iter,psnr_db,condition_ratio,epsilon,restarts\n")
    assert "\r" not in text
    assert "28.123457" in text  # fixed 6-decimal formatting


def test_each_csv_header_has_one_column_per_record_field():
    assert len(TRACE_HEADER.split(",")) == len(dataclasses.fields(TraceRecord))
    assert len(SUMMARY_HEADER.split(",")) == len(dataclasses.fields(ImageRow))


# (parser, a file's lines before its rows, a well-formed row, that row's number of fields)
_CSV_FORMATS = {
    "trace": (parse_trace_csv, "iter,psnr_db,condition_ratio,epsilon,restarts\n", "1,28.0,3.5,0.001,0", 5),
    "summary": (parse_summary_csv, "# task=inpaint\nimage,psnr_in_db,psnr_out_db,isnr_db,bsnr_db,error\n",
                "a,20.0,25.5,5.5,nan,", 6),
}


@pytest.mark.parametrize("fault", ["header", "one field too few", "one field too many", "not a number"])
@pytest.mark.parametrize("fmt", _CSV_FORMATS)
def test_csv_parsers_name_a_malformed_row(fmt, fault, tmp_path):
    parse, head, row, fields = _CSV_FORMATS[fmt]
    cells = row.split(",")
    if fault == "header":
        head, message = head.replace("psnr_", "quality_"), rf"unexpected {fmt} header"
    elif fault == "not a number":
        cells[1] = "abc"  # the PSNR of both formats
        message = rf"{fmt} row {re.escape(repr(cells))}: could not convert string to float: 'abc'"
    else:
        cells = cells[:-1] if fault == "one field too few" else [*cells, "7"]
        message = rf"{fmt} row has {len(cells)} fields, expected {fields}: {re.escape(repr(cells))}"
    path = tmp_path / f"{fmt}.csv"
    path.write_text(head + ",".join(cells) + "\n")
    with pytest.raises(ValueError, match=message):
        parse(path)


def test_trace_csv_line_count(tmp_path):
    trace = IterationTrace()
    for k in range(1, 31):
        trace.append(TraceRecord(k, 30.0, 1.0, 0.0, 0))
    path = tmp_path / "t.csv"
    emit_trace_csv(trace, path)
    assert len(path.read_text().splitlines()) == 31


def test_summary_csv_round_trip(tmp_path):
    report = RunReport(
        rows=[
            ImageRow("a", 20.0, 25.5, 5.5, float("nan")),
            ImageRow("b", 21.0, 26.5, 5.5, float("nan")),
            ImageRow("c", error="RuntimeError: boom"),
        ],
        config={"task": "inpaint", "seed": "3"},
    )
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    write_summary_csv(report, p1)
    parsed = parse_summary_csv(p1)
    assert parsed.config == report.config
    assert [r.name for r in parsed.rows] == ["a", "b", "c"]
    assert parsed.rows[2].error == "RuntimeError: boom"
    write_summary_csv(parsed, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_summary_csv_round_trips_commas_in_names_and_errors(tmp_path):
    report = RunReport(
        rows=[
            ImageRow("a,b", 20.0, 25.5, 5.5, float("nan")),
            ImageRow("c", error="ValueError: shape mismatch: (3, 4) vs (5, 6)"),
        ],
        config={"task": "inpaint"},
    )
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    write_summary_csv(report, p1)
    parsed = parse_summary_csv(p1)
    assert [r.name for r in parsed.rows] == ["a,b", "c"]
    assert parsed.rows[0].psnr_out_db == 25.5
    assert parsed.rows[1].error == "ValueError: shape mismatch: (3, 4) vs (5, 6)"
    write_summary_csv(parsed, p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture()
def scene_pgm(tmp_path):
    path = tmp_path / "scene.pgm"
    save_pgm(synthetic_scene(48, 48), path)
    return path


def test_cli_inpaint_noisy_protocol(scene_pgm, tmp_path, capsys):
    out = tmp_path / "restored.pgm"
    trace = tmp_path / "trace.csv"
    report = tmp_path / "report.csv"
    code = cli_main([
        "inpaint", "--input", str(scene_pgm), "--mask-frac", "0.8", "--sigma-n", "10",
        "--delta", "0", "--iters", "5", "--seed", "3",
        "--output", str(out), "--trace", str(trace), "--report", str(report),
    ])
    assert code == 0
    assert "isnr=" in capsys.readouterr().out
    assert load_pgm(out).shape == (48, 48)
    parsed = parse_trace_csv(trace)
    assert len(parsed) == 5
    # zero-delta inpainting: the feasibility ratio column is identically 1
    assert all(r.condition_ratio == pytest.approx(1.0, abs=1e-9) for r in parsed.records)
    summary = parse_summary_csv(report)
    assert summary.config["task"] == "inpaint"
    assert summary.rows[0].name == "scene"


def test_cli_deblur_manual_tuning(scene_pgm, capsys):
    code = cli_main([
        "deblur", "--scenario", "4", "--input", str(scene_pgm),
        "--delta", "5", "--epsilon", "2e-3", "--iters", "3",
    ])
    assert code == 0
    assert "bsnr=" in capsys.readouterr().out


def test_cli_deblur_auto_tune(scene_pgm, capsys):
    code = cli_main([
        "deblur", "--scenario", "1", "--input", str(scene_pgm), "--auto-tune",
        "--iters", "4", "--epsilon", "1e-5", "--eps-increment", "1e-3", "--denoiser", "gaussian",
    ])
    assert code == 0
    assert "restarts=" in capsys.readouterr().out


def test_cli_pnp_inpaint(scene_pgm, capsys):
    code = cli_main([
        "pnp", "--input", str(scene_pgm), "--mask-frac", "0.5", "--sigma-n", "10",
        "--beta", "0.8", "--lambda", "0.0196", "--iters", "4", "--denoiser", "median",
    ])
    assert code == 0
    assert "pnp" in capsys.readouterr().out


def test_cli_usage_errors(scene_pgm):
    assert cli_main(["inpaint"]) == 1                      # missing --input
    assert cli_main(["inpaint", "--nope"]) == 1            # unknown flag
    assert cli_main(["deblur", "--input", str(scene_pgm)]) == 1  # missing scenario
    assert cli_main([]) == 1                               # no subcommand


def test_cli_runtime_errors(tmp_path):
    assert cli_main(["inpaint", "--input", str(tmp_path / "missing.pgm")]) == 2
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"not a pgm at all")
    assert cli_main(["inpaint", "--input", str(bad)]) == 2


@pytest.mark.parametrize("argv", [
    ["inpaint", "--scenario", "1"],
    ["deblur", "--scenario", "1", "--mask-frac", "0.5"],
], ids=["inpaint-scenario", "deblur-mask-frac"])
def test_cli_rejects_a_setting_of_the_other_task(argv, scene_pgm, tmp_path, capsys):
    out, trace, report = tmp_path / "restored.pgm", tmp_path / "trace.csv", tmp_path / "report.csv"
    code = cli_main([*argv, "--input", str(scene_pgm), "--iters", "2",
                     "--output", str(out), "--trace", str(trace), "--report", str(report)])
    assert code == 2
    assert "ValueError" in capsys.readouterr().err
    assert not out.exists() and not trace.exists() and not report.exists()


@pytest.mark.parametrize("argv", [
    ["inpaint", "--sigma-n", "10", "--delta", "nan"],
    ["deblur", "--scenario", "1", "--sigma-n", "inf"],
    ["inpaint", "--denoiser", "external"],
    ["inpaint", "--denoiser", "external", "--external-cmd", "cat\n--fake"],
], ids=["inpaint-delta-nan", "deblur-sigma-n-inf", "inpaint-external-without-command",
        "inpaint-external-command-with-a-line-break"])
def test_cli_rejects_a_non_finite_setting_before_restoring(argv, scene_pgm, tmp_path, monkeypatch, capsys):
    # a NaN delta used to run to NaN ratios in the trace; an infinite sigma_n
    # got as far as a divide-by-zero in the BSNR; an external denoiser with
    # no command, from neither the flag nor the environment, is as unusable;
    # a command with a line break used to write a summary its parser rejects
    monkeypatch.delenv("IDBP_EXTERNAL_DENOISER", raising=False)
    out, trace, report = tmp_path / "restored.pgm", tmp_path / "trace.csv", tmp_path / "report.csv"
    code = cli_main([*argv, "--input", str(scene_pgm), "--iters", "2",
                     "--output", str(out), "--trace", str(trace), "--report", str(report)])
    assert code == 2
    assert "ValueError" in capsys.readouterr().err
    assert not out.exists() and not trace.exists() and not report.exists()


@pytest.mark.parametrize("source", ["flag", "config-file"])
@pytest.mark.parametrize("argv", [
    ["inpaint", "--sigma-n", "10"],
    ["pnp", "--scenario", "1"],
    ["bench", "pnp", "--scenario", "1"],
], ids=["inpaint", "pnp", "bench-pnp"])
def test_cli_rejects_auto_tune_where_it_cannot_apply(argv, source, scene_pgm, tmp_path, monkeypatch, capsys):
    # auto-tuning is IDBP deblurring only; elsewhere the flag would be dropped
    # (inpaint, pnp) or would replace the solver asked for (bench pnp)
    monkeypatch.chdir(tmp_path)
    if source == "flag":
        argv = [*argv, "--auto-tune"]
    else:
        (tmp_path / "idbp.cfg").write_text("auto_tune = true\n")
    source_path = scene_pgm
    if argv[0] == "bench":
        source_path = tmp_path / "corpus"
        source_path.mkdir()
        save_pgm(synthetic_scene(48, 48), source_path / "scene.pgm")
    out = tmp_path / "out"
    code = cli_main([*argv, "--input", str(source_path), "--iters", "2", "--denoiser", "gaussian",
                     "--output", str(out)])
    assert code == 2
    assert "auto-tun" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bench(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for name, img in _tiny_corpus(2):
        save_pgm(img, corpus_dir / f"{name}.pgm")
    out_dir = tmp_path / "out"
    code = cli_main([
        "bench", "idbp", "--input", str(corpus_dir), "--output", str(out_dir),
        "--mask-frac", "0.5", "--sigma-n", "10", "--iters", "3", "--seed", "7",
    ])
    assert code == 0
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "img0_trace.csv").exists()
    report = parse_summary_csv(out_dir / "summary.csv")
    assert len(report.rows) == 2
    assert report.config["solver"] == "idbp"
    assert "average:" in capsys.readouterr().out


def test_cli_bench_deblur_scenario(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for name, img in _tiny_corpus(2):
        save_pgm(img, corpus_dir / f"{name}.pgm")
    out_dir = tmp_path / "out"
    code = cli_main([
        "bench", "pnp", "--input", str(corpus_dir), "--output", str(out_dir),
        "--scenario", "4", "--iters", "3", "--denoiser", "gaussian",
    ])
    assert code == 0
    report = parse_summary_csv(out_dir / "summary.csv")
    assert report.config["task"] == "deblur"
    assert report.config["solver"] == "pnp"
    assert all(np.isfinite(r.bsnr_db) for r in report.rows)


@pytest.mark.parametrize("flags", [
    ["idbp_auto"],  # auto-tuning without --scenario would restore every image to an error row
    ["--iters", "0"],
    ["pnp", "--beta", "-1"],
    ["--denoiser", "foo"],  # an unknown kind would fail once per image, as error rows
    ["--denoiser", "shrink"],  # so would a kind that needs constructor arguments
    ["pnp", "--scenario", "1", "--delta", "3", "--tau", "9"],  # settings PnP never reads
    ["--scenario", "1", "--mask-frac", "0.5"],  # deblurring never reads the mask fraction
    ["--scenario", "1", "--mask-frac", "0.8"],  # not even the inpainting default
    ["--denoiser", "median", "--external-cmd", "foo"],  # nor does a native denoiser read a command
])
def test_cli_bench_rejects_a_bad_spec_before_any_image(flags, tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for name, img in _tiny_corpus(2):
        save_pgm(img, corpus_dir / f"{name}.pgm")
    out_dir = tmp_path / "out"
    code = cli_main(["bench", *flags, "--input", str(corpus_dir), "--output", str(out_dir)])
    assert code == 2
    assert "ValueError" in capsys.readouterr().err
    assert not (out_dir / "summary.csv").exists()


def test_cli_pnp_deblur(scene_pgm, capsys):
    code = cli_main([
        "pnp", "--input", str(scene_pgm), "--scenario", "4",
        "--iters", "3", "--denoiser", "gaussian",
    ])
    assert code == 0
    assert "bsnr=" in capsys.readouterr().out


def test_cli_config_file_precedence(scene_pgm, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "idbp.cfg").write_text(
        "# tuning defaults\n[run]\nmask-frac = 0.3\nsigma_n = 10\niters = 2\n"
    )
    # file supplies mask-frac / sigma / iters; flag overrides iters
    code = cli_main(["inpaint", "--input", str(scene_pgm), "--iters", "3",
                     "--trace", str(tmp_path / "t.csv")])
    assert code == 0
    assert len(parse_trace_csv(tmp_path / "t.csv")) == 3
    settings = load_config_file(tmp_path / "idbp.cfg")
    assert settings == {"mask_frac": "0.3", "sigma_n": "10", "iters": "2"}


def test_cli_config_file_keys_are_the_flags_long_names(scene_pgm, tmp_path, monkeypatch, capsys):
    # --lambda's key is lambda, not argparse's dest name lam
    monkeypatch.chdir(tmp_path)
    (tmp_path / "idbp.cfg").write_text("lambda = 0.5\n")
    code = cli_main(["pnp", "--input", str(scene_pgm), "--scenario", "1", "--iters", "1",
                     "--denoiser", "gaussian", "--report", str(tmp_path / "r.csv")])
    assert code == 0
    assert parse_summary_csv(tmp_path / "r.csv").config["lambda"] == "0.5"
    (tmp_path / "idbp.cfg").write_text("lam = 0.5\n")
    assert cli_main(["pnp", "--input", str(scene_pgm), "--scenario", "1", "--iters", "1"]) == 1
    assert "'lam'" in capsys.readouterr().err


def test_cli_config_file_rejects_an_unknown_key(scene_pgm, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "idbp.cfg").write_text("iter = 3\n")
    out = tmp_path / "out.pgm"
    assert cli_main(["inpaint", "--input", str(scene_pgm), "--output", str(out)]) == 1
    assert "unknown config key 'iter'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, accepted", [("ture", None), ("", None), ("On", True), ("no", False)])
def test_cli_config_file_switch_takes_only_known_booleans(value, accepted, scene_pgm, tmp_path, monkeypatch,
                                                          capsys):
    # a misspelt true used to read as false and run plain idbp
    monkeypatch.chdir(tmp_path)
    (tmp_path / "idbp.cfg").write_text(f"auto_tune = {value}\n")
    code = cli_main(["deblur", "--input", str(scene_pgm), "--scenario", "1", "--iters", "2",
                     "--denoiser", "gaussian"])
    captured = capsys.readouterr()
    if accepted is None:
        assert code == 1
        assert f"auto_tune={value!r}" in captured.err
    else:
        assert code == 0
        assert ("[idbp_auto]" if accepted else "[idbp]") in captured.out


def test_cli_external_denoiser_via_env(scene_pgm, monkeypatch, capsys):
    echo = (
        "import sys;data=sys.stdin.buffer.read();"
        "sys.stdout.buffer.write(data[data.index(b'\\n')+1:])"
    )
    monkeypatch.setenv("IDBP_EXTERNAL_DENOISER", f'{sys.executable} -c "{echo}"')
    code = cli_main(["inpaint", "--input", str(scene_pgm), "--denoiser", "external",
                     "--mask-frac", "0.5", "--sigma-n", "10", "--iters", "2"])
    assert code == 0


def test_cli_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    # argparse lists each subcommand on its own indented line
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines() if line.startswith("    ")}
    assert {"inpaint", "deblur", "pnp", "bench", "verify"} <= listed


def _raise_check():
    raise RuntimeError("boom")


_STUB_CHECKS = [("first", lambda: (True, "fine")), ("second", lambda: (True, "also fine"))]


def test_cli_verify_reports_each_check(monkeypatch, capsys):
    monkeypatch.setattr(verify, "ALL_CHECKS", _STUB_CHECKS)
    assert cli_main(["verify"]) == 0
    assert capsys.readouterr().out.splitlines() == ["PASS first: fine", "PASS second: also fine"]


@pytest.mark.parametrize("failing", [
    ("bad", lambda: (False, "off by 1e-3"), "FAIL bad: off by 1e-3"),
    ("boom", _raise_check, "FAIL boom: RuntimeError: boom"),
])
def test_cli_verify_failing_check_exits_2_and_battery_continues(failing, monkeypatch, capsys):
    name, check, line = failing
    monkeypatch.setattr(verify, "ALL_CHECKS", [(name, check)] + _STUB_CHECKS)
    assert cli_main(["verify"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        line, "PASS first: fine", "PASS second: also fine",
    ]


def test_cli_verify_ignores_malformed_config_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "idbp.cfg").write_text("this line has no equals sign\n")
    assert cli_main(["inpaint", "--input", "x.pgm"]) == 1  # other commands read the file
    monkeypatch.setattr(verify, "ALL_CHECKS", _STUB_CHECKS)
    assert cli_main(["verify"]) == 0


@pytest.mark.parametrize("source", ["flag", "config-file"])
def test_cli_bench_rejects_trace_before_any_image(source, tmp_path, monkeypatch, capsys):
    # bench writes one <name>_trace.csv per image under --output; a --trace
    # path used to be dropped without a word
    monkeypatch.chdir(tmp_path)
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for name, img in _tiny_corpus(1):
        save_pgm(img, corpus_dir / f"{name}.pgm")
    out_dir, trace = tmp_path / "out", tmp_path / "t.csv"
    argv = ["bench", "--input", str(corpus_dir), "--output", str(out_dir), "--iters", "2"]
    if source == "flag":
        argv += ["--trace", str(trace)]
    else:
        (tmp_path / "idbp.cfg").write_text(f"trace = {trace}\n")
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert "--trace" in err and "_trace.csv" in err
    assert not out_dir.exists() and not trace.exists()


def test_cli_config_file_value_is_checked_where_a_flag_sets_it(scene_pgm, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "idbp.cfg").write_text("iters = x\n")
    out = tmp_path / "out.pgm"
    assert cli_main(["inpaint", "--input", str(scene_pgm), "--iters", "2", "--output", str(out)]) == 1
    assert "iters='x'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, line", [("deblur", "deblur [idbp]"), ("pnp", "deblur [pnp]")])
def test_cli_config_file_scenario_selects_deblurring(command, line, scene_pgm, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "idbp.cfg").write_text("scenario = 1\n")
    assert cli_main([command, "--input", str(scene_pgm), "--iters", "2", "--denoiser", "gaussian"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(line) and "bsnr=" in out


def test_cli_config_file_output_is_where_bench_writes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for name, img in _tiny_corpus(1):
        save_pgm(img, corpus_dir / f"{name}.pgm")
    (tmp_path / "idbp.cfg").write_text("output = results\n")
    assert cli_main(["bench", "--input", str(corpus_dir), "--iters", "2", "--denoiser", "median"]) == 0
    assert (tmp_path / "results" / "summary.csv").exists()
    assert (tmp_path / "results" / "img0_trace.csv").exists()
    assert not (tmp_path / "summary.csv").exists()
