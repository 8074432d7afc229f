import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from idbp import solvers
from idbp.bench import ExperimentSpec, default_deblur_idbp_config, run_single, synthesize
from idbp.denoisers import DctDenoiser, GaussianDenoiser, MedianDenoiser, build_denoiser
from idbp.grid import add_gaussian_noise, psnr, sum_of_squares
from idbp.operators import (
    BlurOperator,
    InpaintingOperator,
    generate_random_mask,
    generate_scenario_kernel,
)
from idbp.rng import RngState
from idbp.scenes import synthetic_scene
from idbp.solvers import (
    IdbpConfig,
    IterationTrace,
    PnpConfig,
    TraceRecord,
    _feasibility_ratio,
    condition_ratio,
    idbp_auto_tuned,
    idbp_run,
    median_initialize,
    pnp_run,
)
from idbp.verify import OracleLinearDenoiser, ShrinkDenoiser, improved_measurements
from test_operators import _complex_kernel_spectrum

SRC = Path(__file__).resolve().parents[1] / "src"


def _random_grid(seed, h, w, scale=40.0, offset=128.0):
    return RngState(seed).gaussians(h * w).reshape(h, w) * scale + offset


def _delta_kernel(size=3):
    k = np.zeros((size, size))
    k[size // 2, size // 2] = 1.0
    return k


def _noisy_inpainting_instance(seed, h=32, w=32, fraction=0.8, sigma_n=10.0):
    rng = RngState(seed)
    truth = rng.gaussians(h * w).reshape(h, w) * 30 + 128
    op = generate_random_mask(h, w, fraction, rng)
    noise = add_gaussian_noise(np.zeros((h, w)), sigma_n, rng)
    y = op.forward(truth + noise)
    return truth, op, noise, y


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_idbp_config_validation():
    with pytest.raises(ValueError):
        IdbpConfig(delta=-1.0)
    with pytest.raises(ValueError):
        IdbpConfig(iterations=0)
    with pytest.raises(ValueError):
        IdbpConfig(output_mode="best")
    with pytest.raises(ValueError):
        IdbpConfig(condition_margin_tau=1.0)
    with pytest.raises(ValueError):
        IdbpConfig(epsilon_increment=0.0)


def test_idbp_config_defaults_follow_recommended_tuning():
    cfg = IdbpConfig()
    assert (cfg.delta, cfg.epsilon, cfg.epsilon_increment, cfg.condition_margin_tau) == (
        5.0,
        1e-3,
        1e-4,
        3.0,
    )


def test_pnp_config_validation_and_denoiser_sigma():
    with pytest.raises(ValueError):
        PnpConfig(beta=0.0, lam=1.0, iterations=5)
    with pytest.raises(ValueError):
        PnpConfig(beta=1.0, lam=-1.0, iterations=5)
    cfg = PnpConfig(beta=4.0, lam=16.0, iterations=5)
    assert cfg.denoiser_sigma == pytest.approx(0.5)


def test_idbp_rejects_stuck_configuration():
    truth, op, _, y = _noisy_inpainting_instance(1)
    with pytest.raises(ValueError, match="no-op"):
        idbp_run(op, y, 0.0, MedianDenoiser(), IdbpConfig(delta=0.0, iterations=3), y)


@pytest.mark.parametrize("sigma_n", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("solve, config", [
    (pnp_run, PnpConfig(beta=1.0, lam=0.1, iterations=2)),
    (idbp_run, IdbpConfig(iterations=2)),
    (idbp_auto_tuned, IdbpConfig(iterations=2)),
], ids=["pnp", "idbp", "idbp_auto"])
def test_solvers_reject_an_unusable_sigma_n(solve, config, sigma_n):
    # PnP used to run a NaN sigma_n at its 0.001 floor and a +inf one at an
    # infinite data weight that never read y; IDBP rejected both only in a
    # later check that named the denoiser's sigma or the operator's weight
    y = _random_grid(26, 16, 16)
    op = BlurOperator(generate_scenario_kernel(4), y.shape)
    with pytest.raises(ValueError, match="sigma_n"):
        solve(op, y, sigma_n, MedianDenoiser(), config, y)


# ---------------------------------------------------------------------------
# IDBP behaviour
# ---------------------------------------------------------------------------


def test_identity_operator_reduces_to_single_denoise():
    # all-true mask: the projection pins y_tilde to y, so the estimate is
    # one denoising pass over the observations
    y = _random_grid(2, 16, 16)
    op = InpaintingOperator(np.ones((16, 16), dtype=bool))
    denoiser = MedianDenoiser()
    states = []
    est, _ = idbp_run(op, y, 5.0, denoiser, IdbpConfig(delta=0.0, iterations=4), y,
                      observer=lambda k, xt, yt: states.append(yt))
    assert all(np.array_equal(s, y) for s in states)
    assert np.array_equal(est, denoiser(y, 5.0))


def test_constraint_and_null_space_invariants_every_iteration():
    truth, op, _, y = _noisy_inpainting_instance(3)
    checks = []

    def watch(k, xt, yt):
        # the backward projection H+ y + Q x at w = 0 is exactly the element
        # copy of observed pixels from y and missing pixels from x
        checks.append(
            np.array_equal(op.forward(yt), y)
            and np.array_equal(op.project_null(yt), op.project_null(xt))
            and np.array_equal(yt, np.where(op.mask, y, xt))
        )

    idbp_run(op, y, 10.0, DctDenoiser(), IdbpConfig(delta=0.0, iterations=6),
             median_initialize(op, y), observer=watch)
    assert len(checks) == 6 and all(checks)


def test_oracle_linear_geometric_decay_noiseless():
    rng = RngState(4)
    truth = rng.gaussians(576).reshape(24, 24) * 30 + 128
    op = generate_random_mask(24, 24, 0.7, rng)
    y = op.forward(truth)  # noiseless: target equals the truth
    init = median_initialize(op, y)
    alpha = 0.4
    dists = []
    idbp_run(op, y, 0.0, OracleLinearDenoiser(alpha, truth),
             IdbpConfig(delta=2.0, iterations=15), init,
             observer=lambda k, xt, yt: dists.append(float(np.linalg.norm(yt - truth))))
    base = float(np.linalg.norm(init - truth))
    for k, dist in enumerate(dists, start=1):
        assert dist == pytest.approx(base * (1 - alpha) ** k, rel=1e-9)


def test_improvement_implication_with_real_denoiser():
    # whenever the denoiser moves the null-space component closer to the
    # truth, the projected iterate must move closer to the ideal target
    truth, op, noise, y = _noisy_inpainting_instance(5)
    target = improved_measurements(truth, op, op.forward(noise))
    init = median_initialize(op, y)
    prev_y = [init.copy()]
    prev_dist = [float(np.linalg.norm(init - target))]
    hypothesis_held = [0]

    def watch(k, xt, yt):
        hyp = float(np.linalg.norm(op.project_null(xt - truth))) < float(
            np.linalg.norm(op.project_null(prev_y[0] - truth))
        )
        dist = float(np.linalg.norm(yt - target))
        if hyp:
            hypothesis_held[0] += 1
            assert dist < prev_dist[0]
        prev_y[0] = yt.copy()
        prev_dist[0] = dist

    idbp_run(op, y, 10.0, DctDenoiser(), IdbpConfig(delta=0.0, iterations=12), init, observer=watch)
    assert hypothesis_held[0] > 0


def test_idbp_linear_shrink_matches_dense_solve():
    truth, op, _, y = _noisy_inpainting_instance(6, h=16, w=16, fraction=0.5)
    gamma, sigma_n = 0.01, 10.0
    shrink_factor = 1.0 / (1.0 + gamma * sigma_n**2)
    n = 256
    mask_flat = op.mask.ravel().astype(float)
    system = np.eye(n) - shrink_factor * (np.eye(n) - np.diag(mask_flat))
    x_expected = np.linalg.solve(system, shrink_factor * (y * op.mask).ravel()).reshape(16, 16)
    est, _ = idbp_run(op, y, sigma_n, ShrinkDenoiser(gamma),
                      IdbpConfig(delta=0.0, iterations=100), op.pseudoinverse(y))
    assert np.max(np.abs(est - x_expected)) < 1e-8


def test_idbp_reaches_fixed_point():
    truth, op, _, y = _noisy_inpainting_instance(7, h=16, w=16, fraction=0.5)
    gaps, last = [], {}

    def watch(k, xt, yt):
        if "x" in last:
            gaps.append(float(np.linalg.norm(xt - last["x"])))
        last["x"] = xt

    idbp_run(op, y, 10.0, ShrinkDenoiser(0.01), IdbpConfig(delta=0.0, iterations=90),
             op.pseudoinverse(y), observer=watch)
    assert gaps[-1] < 1e-9


def test_output_mode_last_y_returns_projected_iterate():
    truth, op, _, y = _noisy_inpainting_instance(8)
    init = median_initialize(op, y)
    cfg_x = IdbpConfig(delta=5.0, iterations=5, output_mode="last_x")
    cfg_y = IdbpConfig(delta=5.0, iterations=5, output_mode="last_y")
    est_x, _ = idbp_run(op, y, 0.0, DctDenoiser(), cfg_x, init)
    est_y, _ = idbp_run(op, y, 0.0, DctDenoiser(), cfg_y, init)
    assert np.array_equal(op.forward(est_y), y)  # projected iterate obeys the data
    assert np.array_equal(op.project_null(est_y), op.project_null(est_x))
    assert not np.array_equal(est_x, est_y)


def test_idbp_traces_are_deterministic():
    truth, op, _, y = _noisy_inpainting_instance(9)
    init = median_initialize(op, y)
    cfg = IdbpConfig(delta=0.0, iterations=5)
    est1, tr1 = idbp_run(op, y, 10.0, DctDenoiser(), cfg, init, ground_truth=truth)
    est2, tr2 = idbp_run(op, y, 10.0, DctDenoiser(), cfg, init, ground_truth=truth)
    assert np.array_equal(est1, est2)
    assert tr1.records == tr2.records


def test_trace_psnr_is_psnr_of_each_iterate():
    # the solvers scan the ground truth once per run, not on every iteration
    truth, op, _, y = _noisy_inpainting_instance(9)
    init = median_initialize(op, y)
    for solve, config in ((idbp_run, IdbpConfig(delta=0.0, iterations=4)),
                          (pnp_run, PnpConfig(beta=1.0, lam=0.05, iterations=4))):
        iterates = []
        _, trace = solve(op, y, 10.0, MedianDenoiser(), config, init, ground_truth=truth.tolist(),
                         observer=lambda k, x, *rest: iterates.append(x.copy()))
        assert [repr(r.psnr_db) for r in trace.records] == [repr(psnr(truth, x)) for x in iterates]
    with pytest.raises(ValueError, match="shape mismatch"):
        idbp_run(op, y, 10.0, MedianDenoiser(), IdbpConfig(delta=0.0, iterations=1), init, ground_truth=truth[1:])


def test_non_finite_denoiser_output_is_reported():
    class Broken:
        kind = "broken"

        def __call__(self, z, sigma):
            out = np.array(z, dtype=float, copy=True)
            out[0, 0] = np.nan
            return out

    truth, op, _, y = _noisy_inpainting_instance(10)
    with pytest.raises(RuntimeError, match="non-finite"):
        idbp_run(op, y, 10.0, Broken(), IdbpConfig(delta=0.0, iterations=2), y)


# ---------------------------------------------------------------------------
# condition ratio
# ---------------------------------------------------------------------------


def test_condition_ratio_inpainting_identity():
    truth, op, _, y = _noisy_inpainting_instance(11)
    x = _random_grid(12, 32, 32)
    for sigma_n, delta in ((10.0, 0.0), (10.0, 5.0), (3.0, 7.0)):
        expected = (sigma_n + delta) ** 2 / sigma_n**2
        assert condition_ratio(op, y, x, sigma_n, delta) == pytest.approx(expected, abs=1e-12)


def test_condition_ratio_delta_kernel_blur():
    # the weight is epsilon times the sigma_n the ratio divides by
    delta = 5.0
    op = BlurOperator(_delta_kernel(), (16, 16))
    y = _random_grid(13, 16, 16)
    x = _random_grid(14, 16, 16)
    for sigma_n, eps in ((2.0, 0.005), (3.0, 0.0), (0.5, 0.2)):
        t = eps * sigma_n**2  # 0.02, 0, 0.05
        # r = y - x and H+ r = r / (1 + t): the squared norms differ by (1 + t)^2
        expected = (1.0 + t) ** 2 * (sigma_n + delta) ** 2 / sigma_n**2
        assert condition_ratio(op, y, x, sigma_n, delta, eps) == pytest.approx(expected, rel=1e-10)


def _ratios_seen(operator, y, sigma_n, config, init, epsilon=0.0):
    """(trace ratios, condition_ratio recomputed from scratch at each iterate at `epsilon`)."""
    direct = []

    def recompute(k, x, y_tilde):
        direct.append(condition_ratio(operator, y, x, sigma_n, config.delta, epsilon))

    _, trace = idbp_run(operator, y, sigma_n, MedianDenoiser(), config, init, observer=recompute)
    assert all(r.epsilon == epsilon for r in trace.records)
    return [r.condition_ratio for r in trace.records], direct


@pytest.mark.parametrize("scenario, shape", [(1, (64, 64)), (2, (64, 64)), (3, (64, 64)), (4, (64, 64)),
                                             (1, (37, 53))])
def test_idbp_blur_monitor_matches_condition_ratio(scenario, shape):
    # both take their norms from the operator's backward projection
    truth = _random_grid(30 + scenario, *shape)
    sigma_n = 2.0
    op = BlurOperator(generate_scenario_kernel(scenario), shape)
    y = add_gaussian_noise(op.forward(truth), sigma_n, RngState(40 + scenario))
    ratios, direct = _ratios_seen(op, y, sigma_n, IdbpConfig(delta=5.0, iterations=8, epsilon=4e-3), y, 4e-3)
    assert len(ratios) == len(direct) == 8
    assert ratios == direct


@pytest.mark.parametrize("delta", [0.0, 5.0])
def test_idbp_mask_monitor_equals_condition_ratio_exactly(delta):
    truth, op, _, y = _noisy_inpainting_instance(22)
    init = median_initialize(op, y)
    # masks project at weight 0 whatever the config's epsilon
    ratios, direct = _ratios_seen(op, y, 10.0, IdbpConfig(delta=delta, iterations=6, epsilon=0.5), init)
    assert len(ratios) == 6 and ratios == direct


_TRACE_PROBE = """
from idbp.bench import ExperimentSpec, run_single
from idbp.rng import RngState
from idbp.scenes import synthetic_scene
spec = ExperimentSpec(task="deblur", solver="idbp", denoiser="median", scenario=1, iterations=5)
print(repr(run_single(spec, synthetic_scene(256, 256), RngState(0)).trace.records))
"""


def test_idbp_blur_trace_records_do_not_depend_on_the_blas_thread_count():
    # at 256^2 a BLAS dot product sums in an order that follows its thread
    # count; the monitor's norms must not
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    records = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _TRACE_PROBE], capture_output=True, text=True,
                              check=True, env=env)
        records.append(proc.stdout)
    assert records[0].startswith("[TraceRecord(iteration=1,")
    assert records[0] == records[1]


def test_condition_ratio_zero_residual_is_infinite():
    op = InpaintingOperator(np.ones((4, 4), dtype=bool))
    y = _random_grid(15, 4, 4)
    assert condition_ratio(op, y, y, 1.0, 0.0) == float("inf")


def test_condition_ratio_requires_noise():
    op = InpaintingOperator(np.ones((4, 4), dtype=bool))
    with pytest.raises(ValueError):
        condition_ratio(op, np.zeros((4, 4)), np.ones((4, 4)), 0.0, 1.0)


@pytest.mark.parametrize("sigma_n", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_condition_ratio_rejects_a_non_finite_sigma_n(sigma_n):
    op = InpaintingOperator(np.ones((4, 4), dtype=bool))
    with pytest.raises(ValueError, match="sigma_n must be finite and positive"):
        condition_ratio(op, np.zeros((4, 4)), np.ones((4, 4)), sigma_n, 1.0)


@pytest.mark.parametrize("delta", [-1.0, -0.5, float("nan"), float("inf"), -float("inf")])
def test_condition_ratio_rejects_an_unusable_delta(delta):
    # -1.0 is -sigma_n, where the ratio's denominator would divide by zero
    op = InpaintingOperator(np.ones((4, 4), dtype=bool))
    with pytest.raises(ValueError, match="delta must be finite and nonnegative"):
        condition_ratio(op, np.zeros((4, 4)), np.ones((4, 4)), 1.0, delta)


# ---------------------------------------------------------------------------
# auto-tuned deblurring
# ---------------------------------------------------------------------------


def _blurred_instance(seed, size=32):
    rng = RngState(seed)
    truth = rng.gaussians(size * size).reshape(size, size) * 35 + 120
    kernel = np.outer([0.25, 0.5, 0.25], [0.25, 0.5, 0.25])
    sigma_n = 2.0
    clean = BlurOperator(kernel, (size, size)).forward(truth)
    y = add_gaussian_noise(clean, sigma_n, rng)
    return truth, kernel, sigma_n, y


def test_auto_tune_without_trigger_matches_plain_run_bit_exactly():
    truth, kernel, sigma_n, y = _blurred_instance(16)
    eps = 0.05  # generous regularisation: margin comfortably above tau
    op = BlurOperator(kernel, y.shape)
    cfg = IdbpConfig(delta=5.0, iterations=6, epsilon=eps, condition_margin_tau=1.5)
    est_auto, tr_auto = idbp_auto_tuned(op, y, sigma_n, GaussianDenoiser(), cfg, y, ground_truth=truth)
    est_plain, tr_plain = idbp_run(op, y, sigma_n, GaussianDenoiser(), cfg, y, ground_truth=truth)
    assert tr_auto.restart_count == 0
    assert np.array_equal(est_auto, est_plain)
    assert tr_auto.records == tr_plain.records


def _linear_auto_tuned(operator, y, sigma_n, denoiser, config, init, ground_truth=None, observer=None):
    """idbp_auto_tuned with its first restart loop, kept as the oracle for the
    epsilon search: every pass runs at the next step r = 0, 1, 2, ... and
    denoises the initialization again.  Records count restarts in r."""
    trace = IterationTrace()
    sigma = sigma_n + config.delta
    restarts = 0
    while True:
        epsilon = float(config.epsilon + restarts * config.epsilon_increment)
        project = operator.backward_projection(y, epsilon * sigma_n**2)
        y_tilde = init.copy()
        violated = False
        for k in range(1, config.iterations + 1):
            x_tilde = denoiser(y_tilde, sigma)
            # the loop's own projection and ratio arithmetic, so estimates and records compare exactly
            y_tilde, residual_sq = project(x_tilde)
            ratio = _feasibility_ratio(np.sqrt(residual_sq), np.sqrt(sum_of_squares(y_tilde - x_tilde)),
                                       sigma_n, config.delta)
            quality = psnr(ground_truth, x_tilde) if ground_truth is not None else float("nan")
            trace.append(TraceRecord(k, quality, ratio, epsilon, restarts))
            if observer is not None:
                observer(k, x_tilde, y_tilde)
            if k > 1 and ratio < config.condition_margin_tau:
                violated = True
                break
        if not violated:
            return x_tilde, trace
        restarts += 1
        if restarts > 200:
            raise RuntimeError("restart budget exhausted")


def _without_restarts(records):
    """Records with the pass count blanked: the search counts passes, the oracle steps."""
    return [replace(r, restarts=0) for r in records]


def _assert_same_accepted_pass(solved, oracle):
    (est, trace), (ref_est, ref_trace) = solved, oracle
    assert est.tobytes() == ref_est.tobytes()
    assert _without_restarts(trace.final_pass()) == _without_restarts(ref_trace.final_pass())


def _protocol_deblurring(scenario, seed, size=64):
    """An auto-tuned deblurring problem from ``bench.synthesize``, with its spec's config."""
    spec = ExperimentSpec(task="deblur", solver="idbp_auto", scenario=scenario, seed=seed)
    truth = synthetic_scene(size, size)
    problem = synthesize(spec, truth, RngState(spec.seed))
    return truth, problem.operator, problem.y, problem.sigma_n, spec.config


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["median", "dct_threshold"])
@pytest.mark.parametrize("scenario", [1, 2, 3, 4])
def test_auto_tune_search_matches_the_linear_loop(scenario, kind, seed):
    # the accepted steps r are 1-97 across these cases
    truth, op, y, sigma_n, config = _protocol_deblurring(scenario, seed)
    args = (op, y, sigma_n, build_denoiser(kind), config, y, truth)
    _assert_same_accepted_pass(idbp_auto_tuned(*args), _linear_auto_tuned(*args))


def test_auto_tune_search_matches_the_linear_loop_on_criterion_8():
    scene = synthetic_scene(128, 128)
    kernel = generate_scenario_kernel(1)
    sigma_n = float(np.sqrt(2.0))
    op = BlurOperator(kernel, scene.shape)
    y = add_gaussian_noise(op.forward(scene), sigma_n, RngState(808))
    cfg = IdbpConfig(delta=5.0, iterations=20, epsilon=1e-5, condition_margin_tau=3.0, epsilon_increment=5e-4)
    args = (op, y, sigma_n, DctDenoiser(), cfg, y, scene)
    _assert_same_accepted_pass(idbp_auto_tuned(*args), _linear_auto_tuned(*args))


def _plain_scenario_1(seed, size=64):
    """Scenario-1 blur of the synthetic scene through an operator that holds H alone."""
    truth = synthetic_scene(size, size)
    op = BlurOperator(generate_scenario_kernel(1), truth.shape)
    sigma_n = float(np.sqrt(2.0))
    return truth, op, add_gaussian_noise(op.forward(truth), sigma_n, RngState(seed)), sigma_n


def test_auto_tune_weights_each_epsilon_by_the_solvers_sigma_n():
    # the search weights epsilon_r by the sigma_n it is given; a weight taken
    # from the operator (sigma_n = 0 unless set there) stayed 0 on every pass
    # and raised "epsilon reached 0.021"
    truth, op, y, sigma_n = _plain_scenario_1(0)
    config = default_deblur_idbp_config(1, epsilon=1e-3)
    args = (op, y, sigma_n, MedianDenoiser(), config, y, truth)
    solved = idbp_auto_tuned(*args)
    _assert_same_accepted_pass(solved, _linear_auto_tuned(*args))
    assert solved[1].final_pass()[0].epsilon > config.epsilon


def test_idbp_projects_at_the_epsilon_of_its_config():
    # two configs that differ only in epsilon: different estimates, and each
    # trace records its own epsilon
    truth, op, y, sigma_n = _plain_scenario_1(1)
    runs = {}
    for eps in (7e-3, 0.5):
        runs[eps] = idbp_run(op, y, sigma_n, MedianDenoiser(), IdbpConfig(iterations=4, epsilon=eps), y)
        assert [r.epsilon for r in runs[eps][1].records] == [eps] * 4
    assert runs[7e-3][0].tobytes() != runs[0.5][0].tobytes()


def test_auto_tune_restarts_and_clears_margin():
    truth, kernel, sigma_n, y = _blurred_instance(17)
    op = BlurOperator(kernel, y.shape)
    cfg = IdbpConfig(delta=5.0, iterations=8, epsilon=1e-6,
                     condition_margin_tau=3.0, epsilon_increment=2e-3)
    est, trace = idbp_auto_tuned(op, y, sigma_n, GaussianDenoiser(), cfg, y)
    assert trace.restart_count >= 1
    final = trace.final_pass()
    assert [r.iteration for r in final] == list(range(1, 9))
    assert all(r.condition_ratio >= 3.0 for r in final if r.iteration > 1)
    # every pass runs at epsilon_0 plus a whole number of increments, the
    # accepted one at the oracle's
    _, ref_trace = _linear_auto_tuned(op, y, sigma_n, GaussianDenoiser(), cfg, y)
    steps = [(r.epsilon - 1e-6) / 2e-3 for r in trace.records]
    assert np.allclose(steps, np.round(steps), atol=1e-9)
    assert final[0].epsilon == ref_trace.final_pass()[0].epsilon == 1e-6 + ref_trace.restart_count * 2e-3


def test_auto_tune_epsilon_is_exact_multiple_of_increment():
    # repeated addition drifts (0.0001 + 7 * 0.0001 steps reads 0.0008000000000000001);
    # every pass must run at exactly epsilon_0 + r * increment for its step r
    truth, kernel, sigma_n, y = _blurred_instance(17)
    op = BlurOperator(kernel, y.shape)
    cfg = IdbpConfig(delta=5.0, iterations=8, epsilon=1e-4, condition_margin_tau=3.0,
                     epsilon_increment=1e-4)
    _, trace = idbp_auto_tuned(op, y, sigma_n, GaussianDenoiser(), cfg, y)
    _, ref_trace = _linear_auto_tuned(op, y, sigma_n, GaussianDenoiser(), cfg, y)
    assert ref_trace.restart_count >= 7
    for r in trace.records:
        step = round((r.epsilon - cfg.epsilon) / cfg.epsilon_increment)
        assert r.epsilon == cfg.epsilon + step * cfg.epsilon_increment
    assert trace.final_pass()[0].epsilon == cfg.epsilon + ref_trace.restart_count * cfg.epsilon_increment


def test_auto_tune_trace_indices_restart_from_one():
    truth, kernel, sigma_n, y = _blurred_instance(18)
    op = BlurOperator(kernel, y.shape)
    cfg = IdbpConfig(delta=5.0, iterations=8, epsilon=1e-6,
                     condition_margin_tau=3.0, epsilon_increment=2e-3)
    _, trace = idbp_auto_tuned(op, y, sigma_n, GaussianDenoiser(), cfg, y)
    saw_restart = False
    for prev, cur in zip(trace.records, trace.records[1:]):
        if cur.restarts == prev.restarts + 1:
            saw_restart = True
            assert cur.iteration == 1
            assert prev.iteration >= 2  # never triggered by the first iteration
        else:
            assert cur.iteration == prev.iteration + 1
    assert saw_restart


def test_auto_tune_denoises_the_initialization_once():
    truth, kernel, sigma_n, y = _blurred_instance(17)
    op = BlurOperator(kernel, y.shape)
    cfg = IdbpConfig(delta=5.0, iterations=8, epsilon=1e-4, condition_margin_tau=3.0,
                     epsilon_increment=1e-4)
    runs = []
    for solve in (idbp_auto_tuned, _linear_auto_tuned):
        calls = []
        seen = []

        def counting(z, sigma):
            calls.append(sigma)
            return GaussianDenoiser()(z, sigma)

        def scribbling(k, x, y_tilde):
            seen.append((k, x.copy(), y_tilde.copy()))
            x[...] = -1.0  # must not reach a later pass

        est, trace = solve(op, y, sigma_n, counting, cfg, y, truth, scribbling)
        runs.append((est, trace, len(calls), seen))
    (est, trace, calls, seen), (ref_est, ref_trace, ref_calls, ref_seen) = runs
    assert trace.restart_count >= 2
    _assert_same_accepted_pass((est, trace), (ref_est, ref_trace))
    # the observer sees every iteration, and the accepted pass's last
    final = len(trace.final_pass())
    assert len(seen) == len(trace) and seen[0][0] == 1
    for (k, x, y_tilde), (ref_k, ref_x, ref_y) in zip(seen[-final:], ref_seen[-final:]):
        assert k == ref_k and x.tobytes() == ref_x.tobytes() and y_tilde.tobytes() == ref_y.tobytes()
    assert ref_calls == len(ref_trace)
    assert calls == len(trace) - trace.restart_count


def test_auto_tune_restart_budget():
    # an unattainable margin aborts every pass at its second iteration; the
    # search probes r = 1, extrapolates past the cap, probes r = 200 and
    # raises, where the first loop ran 201 passes
    truth, kernel, sigma_n, y = _blurred_instance(19)
    op = BlurOperator(kernel, y.shape)
    cfg = IdbpConfig(delta=5.0, iterations=2, epsilon=1e-6,
                     condition_margin_tau=1e9, epsilon_increment=1e-6)
    seen = []
    with pytest.raises(RuntimeError, match=r"no weight step r <= 200 keeps the margin 1000000000\.0: "
                                           r"3 passes run, epsilon reached 0\.000201$"):
        idbp_auto_tuned(op, y, sigma_n, GaussianDenoiser(), cfg, y, observer=lambda k, x, y_tilde: seen.append(k))
    assert seen == [1, 2] * 3


def test_auto_tune_rejects_inpainting_and_noiseless():
    truth, op, _, y = _noisy_inpainting_instance(20)
    with pytest.raises(TypeError):
        idbp_auto_tuned(op, y, 10.0, MedianDenoiser(), IdbpConfig(), y)
    _, kernel, _, yb = _blurred_instance(21)
    bop = BlurOperator(kernel, yb.shape)
    with pytest.raises(ValueError):
        idbp_auto_tuned(bop, yb, 0.0, MedianDenoiser(), IdbpConfig(), yb)


def test_auto_tune_restart_cap_bounds_the_step(monkeypatch):
    # the accepted step is r* = 73: a cap of 73 still reaches it, a cap of 72 raises
    truth, kernel, sigma_n, y = _blurred_instance(17)
    op = BlurOperator(kernel, y.shape)
    cfg = IdbpConfig(delta=5.0, iterations=8, epsilon=1e-4, condition_margin_tau=3.0,
                     epsilon_increment=1e-4)
    _, ref_trace = _linear_auto_tuned(op, y, sigma_n, GaussianDenoiser(), cfg, y)
    assert ref_trace.restart_count == 73
    monkeypatch.setattr(solvers, "_RESTART_CAP", 73)
    _, trace = idbp_auto_tuned(op, y, sigma_n, GaussianDenoiser(), cfg, y)
    assert trace.final_pass()[0].epsilon == cfg.epsilon + 73 * cfg.epsilon_increment
    monkeypatch.setattr(solvers, "_RESTART_CAP", 72)
    with pytest.raises(RuntimeError, match=r"no weight step r <= 72 keeps the margin 3\.0: 4 passes run, "
                                           r"epsilon reached 0\.0073$"):
        idbp_auto_tuned(op, y, sigma_n, GaussianDenoiser(), cfg, y)


class _ScriptedMonitor(BlurOperator):
    """Delta-kernel blur whose monitor reads script(epsilon, k) at iteration k
    of a pass, with epsilon = weight / sigma_n^2 recovered from the weight
    the pass binds at: its step moves x by all ones, and reports the
    residual norm that gives that ratio."""

    def __init__(self, script, shape, sigma_n, delta):
        super().__init__(_delta_kernel(), shape)
        self.script, self.sigma_n, self.delta = script, sigma_n, delta

    def backward_projection(self, y, weight=0.0):
        iteration = itertools.count(1)
        epsilon = weight / self.sigma_n**2

        def project(x):
            ratio = self.script(epsilon, next(iteration))
            scale = self.sigma_n**2 / (self.sigma_n + self.delta) ** 2
            return x + 1.0, ratio * x.size * scale

        return project


def test_auto_tune_search_on_a_ratio_that_is_not_monotone():
    # epsilon_r = r: the second iteration clears tau = 3 at r = 2 and from
    # r = 40 on, and the third only from r = 43.  The first loop accepts
    # r = 2; the search, which assumes a rising ratio, gallops past it,
    # brackets 40, steps through the aborts at k = 3 and accepts r = 43
    # with every k > 1 above tau
    def script(epsilon, k):
        r = round(epsilon)
        if k == 1:
            return 0.5
        if k == 2:
            return 4.0 if r == 2 or r >= 40 else 1.0 + r / 100
        return 4.0 if r == 2 or r >= 43 else 2.0

    sigma_n, delta = 2.0, 5.0
    op = _ScriptedMonitor(script, (8, 8), sigma_n, delta)
    cfg = IdbpConfig(delta=delta, iterations=6, epsilon=0.0, condition_margin_tau=3.0, epsilon_increment=1.0)
    y = np.zeros((8, 8))
    _, ref_trace = _linear_auto_tuned(op, y, sigma_n, lambda z, sigma: z, cfg, y)
    _, trace = idbp_auto_tuned(op, y, sigma_n, lambda z, sigma: z, cfg, y)
    assert ref_trace.final_pass()[0].epsilon == 2.0
    final = trace.final_pass()
    assert final[0].epsilon == 43.0
    assert [r.iteration for r in final] == list(range(1, 7))
    assert all(r.condition_ratio >= 3.0 for r in final[1:])


@pytest.mark.parametrize("ratio, first", [
    (lambda r: 0.5 + 0.04 * r, 63),  # close to linear, as measured
    (lambda r: 0.5 + 1e-3 * r * r, 50),  # convex: the secant overshoots
    (lambda r: 0.5 + 0.5 * np.sqrt(r), 25),  # concave: the secant falls short
    (lambda r: float("inf") if r >= 37 else 1.0 + 1e-9 * r, 37),  # a jump: interpolation crawls
    (lambda r: 1.0, None),  # flat and unattainable
])
def test_first_clearing_finds_the_first_step_that_clears_tau(ratio, first):
    probes = []

    def probe(r):
        probes.append(r)
        return ratio(r)

    assert solvers._first_clearing(0, ratio(0), probe, 3.0) == first
    assert len(set(probes)) == len(probes) <= 24  # the first loop would have run up to 200
    if first is None:
        assert probes[-1] == solvers._RESTART_CAP


def _deblur_isnr(solver, scenario):
    spec = ExperimentSpec(task="deblur", solver=solver, denoiser="dct_threshold", scenario=scenario, seed=0)
    return run_single(spec, synthetic_scene(128, 128), RngState(spec.seed)).row.isnr_db


@pytest.mark.parametrize("scenario", [1, 3])
def test_auto_tune_improves_on_the_blurred_input(scenario):
    # README defaults (delta 5, epsilon_0 1e-3, increment 1e-4, tau 3); an
    # unsquared ratio ended scenarios 1 and 3 at ISNR -7.16 and -7.34 dB
    assert _deblur_isnr("idbp_auto", scenario) > 0.0


@pytest.mark.parametrize("scenario", [1, 2, 3, 4])
def test_auto_tune_is_within_half_a_db_of_the_manual_epsilon(scenario):
    # manual: plain IDBP at DEFAULT_SCENARIO_EPSILON; an unsquared ratio
    # ended 18.96, 1.50 and 22.22 dB below it on scenarios 1-3
    assert _deblur_isnr("idbp_auto", scenario) >= _deblur_isnr("idbp", scenario) - 0.5


# ---------------------------------------------------------------------------
# plug-and-play ADMM
# ---------------------------------------------------------------------------


def test_pnp_pixelwise_data_solve():
    # unit data weight: observed pixels average y with the prior iterate,
    # missing pixels copy it
    mask = np.zeros((2, 2), dtype=bool)
    mask[0, 0] = True
    op = InpaintingOperator(mask)
    y = np.where(mask, 10.0, 0.0)

    class PinnedPrior:
        kind = "pinned"

        def __call__(self, z, sigma):
            return np.full_like(np.asarray(z, dtype=float), 4.0)

    cfg = PnpConfig(beta=1.0, lam=1.0, iterations=1)  # lam * sigma_n^2 = 1
    est, _ = pnp_run(op, y, 1.0, PinnedPrior(), cfg, np.full((2, 2), 4.0))
    assert est[0, 0] == pytest.approx(7.0, abs=1e-12)
    assert est[0, 1] == pytest.approx(4.0, abs=1e-12)


def test_pnp_delta_kernel_data_solve_is_entrywise():
    sigma_n = 2.0
    cfg = PnpConfig(beta=1.0, lam=0.25, iterations=1)
    weight = cfg.lam * sigma_n**2
    op = BlurOperator(_delta_kernel(), (8, 8))
    y = _random_grid(22, 8, 8)
    z = _random_grid(23, 8, 8)

    class Pinned:
        kind = "pinned"

        def __call__(self, v, sigma):
            return z.copy()

    est, _ = pnp_run(op, y, sigma_n, Pinned(), cfg, init=z)
    assert np.max(np.abs(est - (y + weight * z) / (1.0 + weight))) < 1e-12


def test_pnp_quadratic_prior_matches_dense_minimiser():
    truth, op, _, y = _noisy_inpainting_instance(24, h=16, w=16, fraction=0.5)
    gamma, sigma_n = 0.01, 10.0
    x_expected = np.linalg.solve(
        np.diag(op.mask.ravel().astype(float)) + gamma * sigma_n**2 * np.eye(256),
        (y * op.mask).ravel(),
    ).reshape(16, 16)
    est, _ = pnp_run(op, y, sigma_n, ShrinkDenoiser(gamma),
                     PnpConfig(beta=1.0, lam=0.05, iterations=300), op.pseudoinverse(y))
    assert np.max(np.abs(est - x_expected)) < 1e-6


def test_pnp_zero_noise_uses_sigma_floor():
    rng = RngState(25)
    truth = rng.gaussians(256).reshape(16, 16) * 30 + 128
    op = generate_random_mask(16, 16, 0.5, rng)
    y = op.forward(truth)
    cfg = PnpConfig(beta=1.0, lam=10.0 / 255.0, iterations=10)
    est, _ = pnp_run(op, y, 0.0, MedianDenoiser(), cfg, op.pseudoinverse(y))
    assert np.all(np.isfinite(est))


def test_pnp_reaches_fixed_point():
    truth, op, _, y = _noisy_inpainting_instance(26, h=16, w=16, fraction=0.5)
    gaps, last = [], {}

    def watch(k, x, v, u):
        if "x" in last:
            gaps.append(float(np.linalg.norm(x - last["x"])))
        last["x"] = x

    pnp_run(op, y, 10.0, ShrinkDenoiser(0.01),
            PnpConfig(beta=1.0, lam=0.05, iterations=300), op.pseudoinverse(y), observer=watch)
    assert gaps[-1] < 1e-9


def _projection_pnp_solve(operator, y, sigma_n, denoiser, config, init):
    """PnP-ADMM whose data step is H+ y + Q z through the operator's public
    ``pseudoinverse`` and ``project_null``, kept as the oracle for the bound
    backward-projection step."""
    sigma_eff = sigma_n if sigma_n > 0 else 0.001
    weight = config.lam * sigma_eff**2
    pinv_y = operator.pseudoinverse(y, weight)
    v = init.copy()
    u = np.zeros_like(init)
    for _ in range(config.iterations):
        x = pinv_y + operator.project_null(v - u, weight)
        v = denoiser(x + u, config.denoiser_sigma)
        u = u + (x - v)
    return x


def _reference_pnp_blur_solve(operator, y, sigma_n, denoiser, config, init):
    """PnP-ADMM whose blur data step is the closed-form FFT solve
    (conj(S) Y + w Z) / (|S|^2 + w), w = lam * sigma^2, kept as the oracle
    for the backward-projection form H+ y + Q z."""
    sigma_eff = sigma_n if sigma_n > 0 else 0.001
    weight = config.lam * sigma_eff * sigma_eff
    spectrum = _complex_kernel_spectrum(operator.kernel, operator.shape)
    spectrum_conj_y = np.conj(spectrum) * np.fft.fft2(y)
    denom = np.abs(spectrum) ** 2 + weight
    v = init.copy()
    u = np.zeros_like(init)
    for _ in range(config.iterations):
        x = np.real(np.fft.ifft2((spectrum_conj_y + weight * np.fft.fft2(v - u)) / denom))
        v = denoiser(x + u, config.denoiser_sigma)
        u = u + (x - v)
    return x


@pytest.mark.parametrize("scenario", [1, 4])
@pytest.mark.parametrize("sigma_n", [3.0, 0.0], ids=["noisy", "sigma-floor"])
def test_pnp_blur_step_matches_reference_solve(scenario, sigma_n):
    truth = _random_grid(27, 32, 32)
    op = BlurOperator(generate_scenario_kernel(scenario), (32, 32))
    y = add_gaussian_noise(op.forward(truth), sigma_n, RngState(28))  # sigma_n = 0 adds nothing
    config = PnpConfig(beta=0.85, lam=2.0 / 255.0, iterations=10)
    est, _ = pnp_run(op, y, sigma_n, GaussianDenoiser(), config, y)
    want = _reference_pnp_blur_solve(op, y, sigma_n, GaussianDenoiser(), config, y)
    assert np.max(np.abs(est - want)) < 1e-9
    want = _projection_pnp_solve(op, y, sigma_n, GaussianDenoiser(), config, y)
    assert np.max(np.abs(est - want)) <= 1e-12 * np.max(np.abs(want))


def _reference_pnp_mask_solve(operator, y, sigma_n, denoiser, config, init):
    """PnP-ADMM whose mask data step is the per-pixel closed form
    (y + w z) / (1 + w) on observed pixels and z elsewhere, w = lam * sigma^2,
    kept as the oracle for the backward-projection form H+ y + Q z."""
    sigma_eff = sigma_n if sigma_n > 0 else 0.001
    weight = config.lam * sigma_eff * sigma_eff
    v = init.copy()
    u = np.zeros_like(init)
    for _ in range(config.iterations):
        z = v - u
        x = np.where(operator.mask, (y + weight * z) / (1.0 + weight), z)
        v = denoiser(x + u, config.denoiser_sigma)
        u = u + (x - v)
    return x


@pytest.mark.parametrize("sigma_n, beta, lam", [(10.0, 0.8, 5.0 / 255.0), (0.0, 1.0, 10.0 / 255.0)],
                         ids=["noisy", "noiseless"])
def test_pnp_mask_step_matches_reference_solve(sigma_n, beta, lam):
    truth, op, _, y = _noisy_inpainting_instance(29, sigma_n=sigma_n)
    init = median_initialize(op, y)
    config = PnpConfig(beta=beta, lam=lam, iterations=30)
    est, _ = pnp_run(op, y, sigma_n, MedianDenoiser(), config, init)
    want = _reference_pnp_mask_solve(op, y, sigma_n, MedianDenoiser(), config, init)
    assert np.max(np.abs(est - want)) < 1e-9
    assert est.tobytes() == _projection_pnp_solve(op, y, sigma_n, MedianDenoiser(), config, init).tobytes()


# ---------------------------------------------------------------------------
# heap pages: glibc's malloc thresholds and the loops' temporaries
# ---------------------------------------------------------------------------

def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# The settings that turn glibc's dynamic mmap threshold off (mallopt(3) NOTES),
# as environment variables and as GLIBC_TUNABLES entries.
_DYNAMIC_THRESHOLD_VARIABLES = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_THRESHOLD_",
                                "MALLOC_MMAP_MAX_")
_DYNAMIC_THRESHOLD_TUNABLE = re.compile(r"glibc\.malloc\.(top_pad|mmap_max|\w*_threshold)=")


def _environment_sets_thresholds() -> bool:
    return (any(name in os.environ for name in _DYNAMIC_THRESHOLD_VARIABLES)
            or _DYNAMIC_THRESHOLD_TUNABLE.search(os.environ.get("GLIBC_TUNABLES", "")) is not None)


_glibc_only = pytest.mark.skipif(not _on_glibc(), reason="glibc's dynamic malloc thresholds exist on glibc only")


@pytest.mark.parametrize("solve", ["idbp", "idbp_auto", "pnp"])
def test_every_solve_fits_the_malloc_thresholds_to_its_grid(monkeypatch, solve):
    fitted = []
    monkeypatch.setattr(solvers, "_fit_malloc_thresholds", fitted.append)
    truth = _random_grid(50, 24, 40)
    op = BlurOperator(generate_scenario_kernel(1), truth.shape)
    y = add_gaussian_noise(op.forward(truth), 2.0, RngState(51))
    if solve == "pnp":
        pnp_run(op, y, 2.0, MedianDenoiser(), PnpConfig(beta=1.0, lam=0.1, iterations=2), y)
    else:
        (idbp_run if solve == "idbp" else idbp_auto_tuned)(op, y, 2.0, MedianDenoiser(), IdbpConfig(iterations=2), y)
    assert fitted == [24 * 40 * 8]


def _blur_solve(size, solve, iterations):
    """A size^2 scenario-1 deblurring as a call that takes the observer:
    IDBP with the median or PnP with the Gaussian."""
    truth = synthetic_scene(size, size)
    op = BlurOperator(generate_scenario_kernel(1), truth.shape)
    y = add_gaussian_noise(op.forward(truth), 2.0, RngState(52))
    if solve == "idbp_median":
        return lambda observer=None: idbp_run(op, y, 2.0, MedianDenoiser(), IdbpConfig(iterations=iterations), y,
                                              ground_truth=truth, observer=observer)
    return lambda observer=None: pnp_run(op, y, 2.0, GaussianDenoiser(),
                                         PnpConfig(beta=1.0, lam=0.1, iterations=iterations), y,
                                         ground_truth=truth, observer=observer)


@_glibc_only
@pytest.mark.skipif(_environment_sets_thresholds(), reason="the environment turns glibc's dynamic malloc thresholds off")
@pytest.mark.parametrize("solve", ["idbp_median", "pnp_gaussian"])
def test_a_second_solve_keeps_its_heap_pages(solve):
    # at glibc's default thresholds each iteration hands its freed
    # image-sized temporaries back to the kernel and faults them in again:
    # 760-2300 minor faults per iteration at 512^2, one BLAS thread or more
    import resource

    iterations = 6
    run = _blur_solve(512, solve, iterations)
    run()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < iterations


_FAULT_PROBE = """
import resource, sys
from test_solvers import _blur_solve
solve, iterations, *sizes = sys.argv[1:]
runs = {size: _blur_solve(int(size), solve, int(iterations)) for size in sizes}
for size in sizes[:-1]:
    runs[size]()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
runs[sizes[-1]]()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _last_solve_faults(solve, iterations, sizes, **malloc_settings):
    """Minor faults of the last of `sizes`^2 solves in a fresh process whose only
    malloc settings are `malloc_settings`."""
    env = {name: value for name, value in os.environ.items()
           if name != "GLIBC_TUNABLES" and name not in _DYNAMIC_THRESHOLD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(Path(__file__).parent),
                                                      os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE, solve, str(iterations), *map(str, sizes)],
                          capture_output=True, text=True, check=True, env={**env, **malloc_settings})
    return int(proc.stdout)


@_glibc_only
@pytest.mark.parametrize("setting", [{"MALLOC_TRIM_THRESHOLD_": "131072"},
                                     {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"},
                                     {"MALLOC_MMAP_THRESHOLD_": "131072"},
                                     {"GLIBC_TUNABLES": "glibc.malloc.arena_max=2:glibc.malloc.mmap_threshold=131072"},
                                     {"MALLOC_TOP_PAD_": "131072"},
                                     {"MALLOC_MMAP_MAX_": "0"}],
                         ids=["variable", "tunable", "mmap_variable", "mmap_tunable_beside_arena_max",
                              "top_pad_variable", "mmap_max_variable"])
def test_a_threshold_set_by_the_environment_wins(setting):
    # any of these turns glibc's dynamic thresholds off, so the freed block
    # raises nothing and every iteration faults its temporaries in again
    iterations = 6
    assert _last_solve_faults("idbp_median", iterations, [512, 512], **setting) >= iterations


@_glibc_only
def test_other_glibc_tunables_leave_the_dynamic_thresholds_on():
    assert not _DYNAMIC_THRESHOLD_TUNABLE.search("glibc.malloc.arena_max=2")
    iterations = 6
    assert _last_solve_faults("idbp_median", iterations, [512, 512],
                              GLIBC_TUNABLES="glibc.malloc.arena_max=2") < iterations


@_glibc_only
@pytest.mark.parametrize("solve", ["idbp_median", "pnp_gaussian"])
@pytest.mark.parametrize("sizes", [[256, 256], [512, 128, 512]], ids=["256", "512_128_512"])
def test_a_later_solve_keeps_its_heap_pages_in_a_fresh_process(solve, sizes):
    # a smaller grid between two larger ones lowers no threshold
    iterations = 6
    assert _last_solve_faults(solve, iterations, sizes) < iterations


@_glibc_only
def test_second_solve_faults_at_1024_do_not_grow_with_the_iterations():
    # 8 grids pass glibc's 32 MiB cap here, so the freed block raises the
    # thresholds to just under 32 and 64 MiB, 4 and 8 grids: a solve may
    # fault some pages in once, but not once per iteration.  A block one
    # page larger raises nothing, and every iteration faults again
    few, many = (_last_solve_faults("pnp_gaussian", n, [1024, 1024]) for n in (3, 9))
    assert many - few < 9 - 3


def _churn_in_image_sizes(run, image_bytes):
    """Per iteration, how far the tracemalloc peak rose above the memory live at its end, in image sizes."""
    rises = []

    def observe(k, *iterates):
        current, peak = tracemalloc.get_traced_memory()
        rises.append((peak - current) / image_bytes)
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        run(observe)
    finally:
        tracemalloc.stop()
    return rises


@pytest.mark.parametrize("solve", ["idbp_median", "pnp_gaussian", "idbp_dct_inpainting"])
def test_solve_loops_churn_few_image_sized_temporaries(solve, monkeypatch):
    # far below the trim threshold of 16 image sizes that keeps the heap's
    # pages; at 128^2 the median, the Gaussian and the DCT read about 6, 4
    # and 3 image sizes.  The DCT runs in this process, where tracemalloc
    # sees its blocks
    from idbp import denoisers

    monkeypatch.setattr(denoisers, "_may_split", lambda: False)
    size, iterations = 128, 4
    if solve == "idbp_dct_inpainting":
        truth, op, _, y = _noisy_inpainting_instance(53, h=size, w=size)
        init = median_initialize(op, y)

        def run(observer):
            return idbp_run(op, y, 10.0, DctDenoiser(), IdbpConfig(iterations=iterations), init,
                            ground_truth=truth, observer=observer)
    else:
        run = _blur_solve(size, solve, iterations)
    rises = _churn_in_image_sizes(run, size * size * 8)
    assert len(rises) == iterations
    assert max(rises) < 8


# ---------------------------------------------------------------------------
# median initialization
# ---------------------------------------------------------------------------


def test_median_initialize_no_missing_returns_copy():
    # with nothing missing no sweep runs; a -0.0 keeps its sign bit
    y = _random_grid(27, 8, 8)
    y[3, 4] = -0.0
    op = InpaintingOperator(np.ones((8, 8), dtype=bool))
    out = median_initialize(op, y)
    assert out.tobytes() == y.tobytes()
    assert out is not y


def test_median_initialize_single_hole_takes_neighbour_median():
    mask = np.ones((5, 5), dtype=bool)
    mask[2, 2] = False
    y = np.where(mask, 42.0, 0.0)
    out = median_initialize(InpaintingOperator(mask), y)
    assert out[2, 2] == 42.0


def test_median_initialize_propagates_lone_pixel():
    for corner in ((0, 0), (7, 7), (0, 7)):
        mask = np.zeros((8, 8), dtype=bool)
        mask[corner] = True
        y = np.zeros((8, 8))
        y[corner] = 77.0
        out = median_initialize(InpaintingOperator(mask), y)
        assert np.array_equal(out, np.full((8, 8), 77.0))


def test_median_initialize_preserves_observed_pixels():
    truth, op, _, y = _noisy_inpainting_instance(28)
    out = median_initialize(op, y)
    assert np.array_equal(out[op.mask], y[op.mask])
    assert np.all(np.isfinite(out))


def test_median_initialize_rejects_blur():
    op = BlurOperator(_delta_kernel(), (8, 8))
    with pytest.raises(TypeError):
        median_initialize(op, np.zeros((8, 8)))


def _reference_median_initialize(mask, y):
    """The raster sweep as a pure-Python loop over nested lists, kept as the
    oracle for the vectorised anti-diagonal fill."""
    height, width = y.shape
    values = y.tolist()
    filled = mask.tolist()
    remaining = [(i, j) for i in range(height) for j in range(width) if not filled[i][j]]
    while remaining:
        still_missing = []
        for i, j in remaining:
            neighbours = []
            for ni in range(max(i - 1, 0), min(i + 2, height)):
                for nj in range(max(j - 1, 0), min(j + 2, width)):
                    if (ni != i or nj != j) and filled[ni][nj]:
                        neighbours.append(values[ni][nj])
            if neighbours:
                neighbours.sort()
                count = len(neighbours)
                half = count // 2
                if count % 2:
                    values[i][j] = neighbours[half]
                else:
                    values[i][j] = 0.5 * (neighbours[half - 1] + neighbours[half])
                filled[i][j] = True
            else:
                still_missing.append((i, j))
        remaining = still_missing
    return np.array(values)


_FILL_SHAPES = [(1, 64), (64, 1), (2, 2), (37, 53), (64, 64), (256, 256)]


def _missing_mask(shape, fraction, seed):
    """Random mask missing round(fraction * n) pixels, but observing at least one."""
    n = shape[0] * shape[1]
    mask = np.zeros(n, dtype=bool)
    mask[RngState(seed).shuffled_tail(n, min(int(fraction * n + 0.5), n - 1))] = True
    return mask.reshape(shape)


def _corner_mask(shape, corner):
    mask = np.zeros(shape, dtype=bool)
    mask[corner] = True
    return mask


def _assert_fill_matches_reference(mask, y):
    out = median_initialize(InpaintingOperator(mask), y)
    want = _reference_median_initialize(mask, y)
    assert out.dtype == want.dtype and out.shape == want.shape
    assert out.tobytes() == want.tobytes()
    # the unobserved entries of y are garbage the fill must not read
    assert median_initialize(InpaintingOperator(mask), np.where(mask, y, 0.0)).tobytes() == want.tobytes()


@pytest.mark.parametrize("fraction", [0.5, 0.8, 0.95, 0.99])
@pytest.mark.parametrize("shape", _FILL_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_median_initialize_matches_reference_sweep(shape, fraction):
    mask = _missing_mask(shape, fraction, seed=shape[0] * 1000 + shape[1])
    _assert_fill_matches_reference(mask, _random_grid(7, *shape))


# 256x256 is left out: a single observed pixel far from the top-left corner
# costs the reference loop one sweep per few pixels of distance, tens of seconds
@pytest.mark.parametrize("corner", ["top-left", "top-right", "bottom-left", "bottom-right"])
@pytest.mark.parametrize("shape", _FILL_SHAPES[:-1], ids=lambda s: f"{s[0]}x{s[1]}")
def test_median_initialize_matches_reference_from_one_corner(shape, corner):
    row = 0 if corner.startswith("top") else shape[0] - 1
    col = 0 if corner.endswith("left") else shape[1] - 1
    _assert_fill_matches_reference(_corner_mask(shape, (row, col)), _random_grid(8, *shape))


@pytest.mark.parametrize("fraction", [0.5, 0.8, 0.95])
def test_median_initialize_matches_reference_on_signed_zeros(fraction):
    # -0.0 == 0.0, so only a stable sort picks the same zero as the loop
    shape = (37, 53)
    y = np.array([-1.0, -0.0, 0.0, 1.0])[(RngState(9).uniforms(37 * 53) * 4).astype(np.int64)]
    mask = _missing_mask(shape, fraction, seed=10)
    _assert_fill_matches_reference(mask, y.reshape(shape))


# ---------------------------------------------------------------------------
# improved measurements
# ---------------------------------------------------------------------------


def test_improved_measurements_identities():
    truth, op, noise, y = _noisy_inpainting_instance(29)
    observed_noise = op.forward(noise)
    target = improved_measurements(truth, op, observed_noise)
    assert np.array_equal(improved_measurements(truth, op, np.zeros_like(noise)), truth)
    diff = target - truth
    assert np.all(diff[~op.mask] == 0.0)
    # definitionally ||target - truth|| = ||H+ e||; float addition rounding
    # limits the reconstruction to the last couple of ulps
    assert float(np.linalg.norm(diff)) == pytest.approx(
        float(np.linalg.norm(op.pseudoinverse(observed_noise))), rel=1e-12
    )
