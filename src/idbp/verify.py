"""Acceptance checks, one per release criterion (1-8), and the oracles they use.

Each check re-derives an expected behaviour independently (exact algebra,
closed-form ratios and decay rates, dense solves, direct convolution sums) and
compares the library against it at acceptance-grade counts and bounds.
It returns ``(ok, detail)``; on failure the detail names the failing case
and its measured deviation.  ``idbp verify`` prints one PASS/FAIL line per
check and ``tests/test_acceptance.py`` asserts each one.

The theory oracles the checks use live here, beside no restoration code:
a linear shrink denoiser, an affine oracle denoiser with a known
contraction constant, the empirical constants of a denoiser, and the
improved measurements x + H+ e.  Protocol restorations are composed by
``bench.run_single`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bench import ExperimentSpec, run_single
from .grid import add_gaussian_noise, as_grid
from .operators import BlurOperator, generate_random_mask
from .rng import RngState
from .scenes import synthetic_scene
from .solvers import (
    IdbpConfig,
    PnpConfig,
    condition_ratio,
    idbp_run,
    median_initialize,
    pnp_run,
)

# ---------------------------------------------------------------------------
# Theory oracles
# ---------------------------------------------------------------------------


class ShrinkDenoiser:
    """Linear shrink z / (1 + gamma * sigma^2): the proximal map of the
    quadratic prior (gamma / 2) ||x||^2.  Mainly a convex test oracle."""

    kind = "shrink"

    def __init__(self, gamma: float) -> None:
        if gamma < 0:
            raise ValueError("gamma must be nonnegative")
        self.gamma = gamma

    def __call__(self, z, sigma: float) -> np.ndarray:
        z = as_grid(z)
        if sigma == 0:
            return z.copy()
        return z / (1.0 + self.gamma * sigma * sigma)


class OracleLinearDenoiser:
    """Affine pull toward the known truth: alpha * truth + (1 - alpha) * z.

    Its null-space contraction constant is exactly 1 - alpha for every
    operator, which makes solver convergence rates predictable.
    """

    kind = "oracle_linear"

    def __init__(self, alpha: float, truth) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        self.alpha = alpha
        self.truth = as_grid(truth)

    def __call__(self, z, sigma: float) -> np.ndarray:
        z = as_grid(z)
        return self.alpha * self.truth + (1.0 - self.alpha) * z


@dataclass
class DenoiserDiagnostics:
    """Empirical lower bounds for the boundedness and contraction constants.

    ``bound_estimate_B`` is the largest observed ||D(z) - z|| / sigma;
    ``contraction_estimate_K`` the largest observed Lipschitz ratio of the
    null-space-projected denoiser.  True constants can only be larger.
    """

    bound_estimate_B: float
    contraction_estimate_K: float


def estimate_conditions(
    denoiser, operator, sample_images, sigma: float, rng: RngState
) -> DenoiserDiagnostics:
    """Probe a denoiser on sample images for its guarantee constants.

    Pairs combine the samples with each other and with null-space-only
    perturbations of themselves; the latter make the contraction estimate
    tight for denoisers whose Lipschitz worst case lies in the null space.
    """
    samples = [as_grid(s) for s in sample_images]
    if not samples:
        raise ValueError("need at least one sample image")
    if sigma <= 0:
        raise ValueError("sigma must be positive")

    denoised = [denoiser(s, sigma) for s in samples]
    bound = max(float(np.linalg.norm(d - s)) / sigma for s, d in zip(samples, denoised))

    pairs = [(i, j) for i in range(len(samples)) for j in range(i + 1, len(samples))]
    contraction = 0.0
    for i, j in pairs:
        gap = float(np.linalg.norm(samples[i] - samples[j]))
        if gap == 0.0:
            continue
        null_gap = float(
            np.linalg.norm(operator.project_null(denoised[i]) - operator.project_null(denoised[j]))
        )
        contraction = max(contraction, null_gap / gap)
    for base, base_denoised in zip(samples, denoised):
        bump = operator.project_null(sigma * rng.gaussians(base.size).reshape(base.shape))
        gap = float(np.linalg.norm(bump))
        if gap == 0.0:
            continue
        shifted = denoiser(base + bump, sigma)
        null_gap = float(
            np.linalg.norm(operator.project_null(shifted) - operator.project_null(base_denoised))
        )
        contraction = max(contraction, null_gap / gap)
    return DenoiserDiagnostics(bound_estimate_B=bound, contraction_estimate_K=contraction)


def improved_measurements(x_true, operator, noise) -> np.ndarray:
    """Best measurements the projection step could ever deliver: x + H+ e.

    This is the target the projected iterates approach when denoising is
    perfect; analysis/tests compare trajectories against it.
    """
    x_true = as_grid(x_true)
    return x_true + operator.pseudoinverse(noise)


# ---------------------------------------------------------------------------
# Acceptance checks
# ---------------------------------------------------------------------------

# iteration counts keep the expected distances far above the float64
# subtraction noise floor so the 1e-9 relative decay check stays meaningful
_DECAY_ITERATIONS = {0.1: 40, 0.5: 20, 0.9: 5}
_BOUND_ITERATIONS = {0.1: 40, 0.5: 25, 0.9: 5}


def _noisy_inpainting(seed: int, size: int, fraction: float = 0.8, sigma_n: float = 10.0):
    rng = RngState(seed)
    truth = rng.gaussians(size * size).reshape(size, size) * 30 + 128
    op = generate_random_mask(size, size, fraction, rng)
    noise = add_gaussian_noise(np.zeros((size, size)), sigma_n, rng)
    return truth, op, noise, op.forward(truth + noise)


def _max_dev(got, want) -> float:
    return float(np.max(np.abs(got - want)))


def check_projection_algebra() -> tuple[bool, str]:
    """1. On 1000 random masks (5-95 % missing), H H+ y = y, Q is idempotent,
    and 3 IDBP iterations keep H y_k = y and Q y_k = Q x_k, all bit-exactly."""
    rng = RngState(101)
    for instance in range(1000):
        fraction = 0.05 + 0.9 * float(rng.uniforms(1)[0])
        op = generate_random_mask(16, 16, fraction, rng)
        truth = rng.gaussians(256).reshape(16, 16) * 40 + 120
        y = op.forward(add_gaussian_noise(truth, 7.0, rng))
        probe = rng.gaussians(256).reshape(16, 16) * 40
        identities = [("H H+ y = y", op.forward(op.pseudoinverse(y)), y)]
        for name, image in (("probe", probe), ("truth", truth)):
            q = op.project_null(image)
            identities.append((f"Q Q {name} = Q {name}", op.project_null(q), q))

        states = []
        idbp_run(
            op, y, 7.0, OracleLinearDenoiser(0.5, truth),
            IdbpConfig(delta=1.0, iterations=3), op.pseudoinverse(y),
            observer=lambda k, xt, yt: states.append((k, xt, yt)),
        )
        for k, xt, yt in states:
            identities.append((f"H y_{k} = y", op.forward(yt), y))
            identities.append((f"Q y_{k} = Q x_{k}", op.project_null(yt), op.project_null(xt)))
        for name, got, want in identities:
            if not np.array_equal(got, want):
                dev = _max_dev(got, want)
                return False, f"{name} broken on instance {instance}: max |dev| {dev:.3e}"
    return True, "1000 instances, all identities bit-exact"


def check_condition_identity() -> tuple[bool, str]:
    """2. On 200 random (sigma_n, delta) instances, each also at delta 0, 1.5
    and 7, the mask feasibility ratio is ((sigma_n + delta) / sigma_n)^2 to
    1e-12.  On 50 random (sigma_n, delta, epsilon) instances, the
    delta-kernel blur ratio is (1 + t)^2 ((sigma_n + delta) / sigma_n)^2 with
    t = epsilon * sigma_n^2 to 1e-10 relative: there H+ r = r / (1 + t), so
    only the squared-norm ratio has this value."""
    rng = RngState(202)
    worst = 0.0
    for instance in range(200):
        op = generate_random_mask(16, 16, float(rng.uniforms(1)[0] * 0.9), rng)
        y = op.forward(rng.gaussians(256).reshape(16, 16) * 50 + 110)
        x = rng.gaussians(256).reshape(16, 16) * 50 + 110
        sigma_n = 1.0 + float(rng.uniforms(1)[0] * 20)
        random_delta = float(rng.uniforms(1)[0] * 8)
        for delta in (random_delta, 0.0, 1.5, 7.0):
            expected = (sigma_n + delta) ** 2 / sigma_n**2
            dev = abs(condition_ratio(op, y, x, sigma_n, delta) - expected)
            if not dev <= 1e-12:
                return False, (f"instance {instance}, sigma_n={sigma_n:.4g}, delta={delta:.4g}: "
                               f"deviation {dev:.3e} > 1e-12")
            worst = max(worst, dev)
    blur_ok, blur_detail = _check_blur_condition_identity()
    if not blur_ok:
        return False, blur_detail
    return True, f"200 instances x 4 deltas, worst deviation {worst:.2e}; {blur_detail}"


def _check_blur_condition_identity() -> tuple[bool, str]:
    rng = RngState(203)
    kernel = np.zeros((3, 3))
    kernel[1, 1] = 1.0
    op = BlurOperator(kernel, (16, 16))
    worst = 0.0
    for instance in range(50):
        sigma_n = 1.0 + float(rng.uniforms(1)[0] * 20)
        delta = float(rng.uniforms(1)[0] * 8)
        epsilon = 1e-3 + float(rng.uniforms(1)[0] * 0.05)
        y = rng.gaussians(256).reshape(16, 16) * 50 + 110
        x = rng.gaussians(256).reshape(16, 16) * 50 + 110
        expected = (1.0 + epsilon * sigma_n**2) ** 2 * (sigma_n + delta) ** 2 / sigma_n**2
        dev = abs(condition_ratio(op, y, x, sigma_n, delta, epsilon) / expected - 1.0)
        if not dev <= 1e-10:
            return False, (f"blur instance {instance}, sigma_n={sigma_n:.4g}, delta={delta:.4g}, "
                           f"epsilon={epsilon:.4g}: relative deviation {dev:.3e} > 1e-10")
        worst = max(worst, dev)
    return True, f"50 delta-kernel blur instances, worst relative deviation {worst:.2e}"


def check_oracle_decay() -> tuple[bool, str]:
    """3. Under the linear oracle denoiser, the projected iterate's distance to
    the ideal measurements decays strictly and by (1 - alpha)^k to 1e-9
    relative, for alpha 0.1/0.5/0.9 over 40/20/5 iterations."""
    truth, op, noise, y = _noisy_inpainting(303, 32)
    target = improved_measurements(truth, op, op.forward(noise))
    init = median_initialize(op, y)
    base = float(np.linalg.norm(init - target))
    worst = 0.0
    for alpha, iterations in _DECAY_ITERATIONS.items():
        distances = []
        idbp_run(
            op, y, 10.0, OracleLinearDenoiser(alpha, truth),
            IdbpConfig(delta=0.0, iterations=iterations), init,
            observer=lambda k, xt, yt: distances.append(float(np.linalg.norm(yt - target))),
        )
        previous = base
        for k, dist in enumerate(distances, start=1):
            if not dist < previous:
                return False, (f"not strictly decreasing at alpha={alpha}, k={k}: "
                               f"{dist:.6e} >= {previous:.6e}")
            expected = base * (1.0 - alpha) ** k
            rel = abs(dist - expected) / expected
            if not rel <= 1e-9:
                return False, f"decay mismatch at alpha={alpha}, k={k}: rel={rel:.2e} > 1e-9"
            worst = max(worst, rel)
            previous = dist
    return True, f"alphas 0.1/0.5/0.9, worst relative deviation {worst:.2e}"


def check_error_bound() -> tuple[bool, str]:
    """4. The measured contraction K is 1 - alpha to 1e-10, and the iterate
    error stays inside the contraction + boundedness budget at every
    iteration, for alpha 0.1/0.5/0.9 over 40/25/5 iterations."""
    truth, op, noise, y = _noisy_inpainting(404, 32)
    target = improved_measurements(truth, op, op.forward(noise))
    init = median_initialize(op, y)
    base = float(np.linalg.norm(init - target))
    pinv_noise = float(np.linalg.norm(op.pseudoinverse(op.forward(noise))))
    sigma = 10.0  # sigma_n + delta with delta = 0
    min_slack = np.inf
    for alpha, iterations in _BOUND_ITERATIONS.items():
        denoiser = OracleLinearDenoiser(alpha, truth)
        diag = estimate_conditions(denoiser, op, [init, target, truth], sigma, RngState(405))
        contraction = diag.contraction_estimate_K
        if not abs(contraction - (1.0 - alpha)) <= 1e-10:
            return False, f"alpha={alpha}: K={contraction!r} not within 1e-10 of {1.0 - alpha}"

        iterates, bound, prev = [], [diag.bound_estimate_B], [init.copy()]

        def watch(k, xt, yt):
            bound[0] = max(bound[0], float(np.linalg.norm(xt - prev[0])) / sigma)
            iterates.append(xt.copy())
            prev[0] = yt.copy()

        idbp_run(op, y, sigma, denoiser, IdbpConfig(delta=0.0, iterations=iterations),
                 init, observer=watch)
        for k in range(1, len(iterates)):
            lhs = float(np.linalg.norm(iterates[k] - truth))
            budget = (
                contraction**k * base
                + pinv_noise / (1.0 - contraction)
                + (1.0 / (1.0 - contraction) + 5.0) * sigma * bound[0]
            )
            if not lhs <= budget + 1e-9:
                return False, (f"bound violated at alpha={alpha}, k={k}: "
                               f"error {lhs:.6g} > budget {budget:.6g}")
            min_slack = min(min_slack, budget - lhs)
    return True, f"alphas 0.1/0.5/0.9 over 40/25/5 iterations, min slack {min_slack:.1f}"


def check_convex_equivalence() -> tuple[bool, str]:
    """5. With the quadratic-prior shrink denoiser, PnP lands within 1e-6 and
    IDBP within 1e-8 of their dense linear-system solutions, and both
    settle to a last step below 1e-9."""
    truth, op, noise, y = _noisy_inpainting(505, 16, fraction=0.5)
    gamma, sigma_n = 0.01, 10.0
    shrink = ShrinkDenoiser(gamma)
    n = truth.size
    mask_diag = np.diag(op.mask.ravel().astype(float))
    data_vec = (y * op.mask).ravel()

    # ADMM lands on the quadratic-prior least-squares minimiser
    x_star = np.linalg.solve(mask_diag + gamma * sigma_n**2 * np.eye(n), data_vec).reshape(16, 16)
    pnp_iterates = []
    est_pnp, _ = pnp_run(op, y, sigma_n, shrink, PnpConfig(beta=1.0, lam=0.05, iterations=400),
                         op.pseudoinverse(y),
                         observer=lambda k, x, v, u: pnp_iterates.append(x.copy()))
    err_pnp = _max_dev(est_pnp, x_star)
    step_pnp = float(np.linalg.norm(pnp_iterates[-1] - pnp_iterates[-2]))

    # the projected iteration solves its own fixed-point system
    factor = 1.0 / (1.0 + gamma * sigma_n**2)
    system = np.eye(n) - factor * (np.eye(n) - mask_diag)
    x_fix = np.linalg.solve(system, factor * data_vec).reshape(16, 16)
    idbp_iterates = []
    est_idbp, _ = idbp_run(op, y, sigma_n, shrink, IdbpConfig(delta=0.0, iterations=120),
                           op.pseudoinverse(y),
                           observer=lambda k, xt, yt: idbp_iterates.append(xt.copy()))
    err_idbp = _max_dev(est_idbp, x_fix)
    step_idbp = float(np.linalg.norm(idbp_iterates[-1] - idbp_iterates[-2]))

    ok = err_pnp <= 1e-6 and err_idbp <= 1e-8 and step_pnp < 1e-9 and step_idbp < 1e-9
    return ok, (f"pnp err {err_pnp:.1e} (<= 1e-6), idbp err {err_idbp:.1e} (<= 1e-8), "
                f"last steps pnp {step_pnp:.1e}, idbp {step_idbp:.1e} (< 1e-9)")


def _direct_circular_blur(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_(a, b) k[a, b] x[i - a + kh // 2, j - b + kw // 2], indices mod the grid shape."""
    kh, kw = kernel.shape
    out = np.zeros_like(x)
    for a in range(kh):
        for b in range(kw):
            out += kernel[a, b] * np.roll(x, (a - kh // 2, b - kw // 2), axis=(0, 1))
    return out


def check_fft_engine() -> tuple[bool, str]:
    """6. BlurOperator.forward matches a direct circular-convolution sum, and
    the backward projection's half-spectrum Parseval norm matches the pixel
    ||y - H x||^2, both to 1e-9 relative at sizes 8/15/31/32/64/100/256."""
    rng = RngState(606)
    # lopsided and asymmetric, so a flipped or off-centre kernel shows
    kernel = rng.uniforms(15).reshape(3, 5) + 0.1
    kernel /= kernel.sum()
    worst = [0.0, 0.0]
    for size in (8, 15, 31, 32, 64, 100, 256):
        x = rng.gaussians(size * size).reshape(size, size) * 45 + 125
        y = rng.gaussians(size * size).reshape(size, size) * 45 + 125
        op = BlurOperator(kernel, x.shape)
        want = _direct_circular_blur(kernel, x)
        rel = _max_dev(op.forward(x), want) / np.max(np.abs(want))
        if not rel <= 1e-9:
            return False, f"forward differs from the direct convolution at {size}: rel={rel:.2e}"
        worst[0] = max(worst[0], rel)
        want = float(np.sum((y - want) ** 2))
        rel = abs(op.backward_projection(y, 1e-3 * 2.0**2)(x)[1] - want) / want
        if not rel <= 1e-9:
            return False, f"half-spectrum Parseval norm differs from the pixel norm at {size}: rel={rel:.2e}"
        worst[1] = max(worst[1], rel)
    return True, (f"at 8/15/31/32/64/100/256, forward vs direct convolution worst rel {worst[0]:.1e}, "
                  f"Parseval residual norm worst rel {worst[1]:.1e}")


def check_noisy_inpainting() -> tuple[bool, str]:
    """7a. The 256^2 noisy inpainting protocol beats median fill by 1.5 dB."""
    spec = ExperimentSpec(task="inpaint", solver="idbp", denoiser="dct_threshold",
                          seed=707, mask_fraction=0.8, sigma_n=10.0)
    row = run_single(spec, synthetic_scene(256, 256), RngState(spec.seed)).row
    gain = row.psnr_out_db - row.psnr_in_db
    return gain >= 1.5, (f"median fill {row.psnr_in_db:.2f} dB -> {row.psnr_out_db:.2f} dB, "
                         f"gain {gain:+.2f} dB (>= 1.5)")


def check_scenario3_deblurring() -> tuple[bool, str]:
    """7b. Scenario-3 deblurring at 256^2 gains over 4 dB ISNR at 40 dB BSNR (to 1e-9)."""
    spec = ExperimentSpec(task="deblur", solver="idbp", denoiser="dct_threshold",
                          seed=708, scenario=3)
    row = run_single(spec, synthetic_scene(256, 256), RngState(spec.seed)).row
    bsnr_dev = abs(row.bsnr_db - 40.0)
    ok = row.isnr_db > 4.0 and bsnr_dev <= 1e-9
    return ok, f"ISNR {row.isnr_db:+.2f} dB (> 4), BSNR off 40 dB by {bsnr_dev:.1e} (<= 1e-9)"


def check_auto_tuning() -> tuple[bool, str]:
    """8. At 128^2 a deliberately small starting weight triggers a restart,
    and the accepted pass runs iterations 1..20 and clears tau after the first."""
    spec = ExperimentSpec(task="deblur", solver="idbp_auto", denoiser="dct_threshold", seed=808,
                          scenario=1, delta=5.0, iterations=20, epsilon=1e-5, tau=3.0,
                          eps_increment=5e-4)
    trace = run_single(spec, synthetic_scene(128, 128), RngState(spec.seed)).trace
    if trace.restart_count < 1:
        return False, "no restart from the violating starting weight"
    final = trace.final_pass()
    iterations = [r.iteration for r in final]
    if iterations != list(range(1, 21)):
        return False, f"accepted pass ran iterations {iterations}, not 1..20"
    for r in final[1:]:
        if not r.condition_ratio >= spec.config.condition_margin_tau:
            return False, f"ratio {r.condition_ratio:.3f} < tau 3 at k={r.iteration}"
    return True, (f"{trace.restart_count} restarts, accepted pass min ratio "
                  f"{min(r.condition_ratio for r in final[1:]):.2f} >= tau 3, "
                  f"final epsilon {final[0].epsilon:g}")


ALL_CHECKS = [
    ("1-projection-algebra-exact", check_projection_algebra),
    ("2-condition-identity", check_condition_identity),
    ("3-oracle-decay", check_oracle_decay),
    ("4-error-bound", check_error_bound),
    ("5-convex-oracle-equivalence", check_convex_equivalence),
    ("6-fft-engine", check_fft_engine),
    ("7a-noisy-inpainting-beats-median-fill", check_noisy_inpainting),
    ("7b-scenario3-deblurring-isnr", check_scenario3_deblurring),
    ("8-auto-tuning-restarts-and-margin", check_auto_tuning),
]


def run_all() -> bool:
    all_ok = True
    for name, check in ALL_CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # noqa: BLE001 - report, do not crash the battery
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
