"""NARMA10 analysis: fixed points, basins, Lyapunov spectra, surrogate model."""

import dataclasses
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from ipcap import (
    AnalysisError,
    ApproxModelCoeffs,
    InputShaping,
    LyapunovConfig,
    Narma10Config,
    NoFixedPointError,
    ParameterError,
    approx_model_coeffs,
    basin_scan,
    delta_w,
    divergence_probability,
    fixed_point,
    lyapunov_spectrum,
    nullclines,
    simulate_approx_model,
    simulate_narma10,
)
from ipcap import narma
from ipcap.systems import NARMA_DIVERGENCE_LIMIT

_NARMA_BATCH = narma._narma_batch


def lyapunov_direct(config, lcfg, zeta):
    """Literal windowed form: singular values of M-step Jacobian products.

    Quadratic in T * M; kept as the small-scale oracle for the QR path. The
    log singular values are divided by M so both forms are per-step rates.
    """
    n_steps = lcfg.T + lcfg.M - 1
    X, Y = narma._jacobian_blocks(config, zeta, n_steps)
    sums = np.zeros(lcfg.n_exponents)
    for t in range(lcfg.T):
        G = np.eye(10)
        for m in range(lcfg.M):
            G = narma._apply_jacobian(G, X[t + m], Y[t + m])
        sv = np.linalg.svd(G, compute_uv=False)[: lcfg.n_exponents]
        with np.errstate(divide="ignore"):
            sums += np.log(sv)
    return sums / (lcfg.T * lcfg.M)


def test_fixed_point_zero_mean_input():
    # a = 0.7 / (20 * 0.05) = 0.7, c = 0.1 / 0.5 = 0.2
    p = fixed_point(Narma10Config())
    assert p == pytest.approx(0.7 - math.sqrt(0.29), abs=1e-12)


def test_fixed_point_matches_iterated_mean_map():
    for mu in (0.0, 0.2, 0.225):
        cfg = Narma10Config(shaping=InputShaping(mu=mu, kappa=0.0))
        p = 0.0
        for _ in range(400):
            p = cfg.alpha * p + 10.0 * cfg.beta * p * p + cfg.gamma * mu * mu + cfg.delta
        assert fixed_point(cfg) == pytest.approx(p, abs=1e-12)


def test_fixed_point_vanishes_without_offset():
    assert fixed_point(Narma10Config(delta=0.0)) == 0.0


def test_fixed_point_error_paths():
    with pytest.raises(NoFixedPointError):
        fixed_point(Narma10Config(delta=30.0))
    with pytest.raises(ParameterError, match="beta"):
        fixed_point(Narma10Config(beta=0.0))


def test_nullclines_intersect_at_saddle():
    cfg = Narma10Config()
    grid = np.linspace(-1.0, 1.0, 21)  # contains 0.2 and 0.0
    w1, n1, n2 = nullclines(cfg, 0.2, grid)
    assert 0.0 not in w1
    i = int(np.argmin(np.abs(w1 - 0.2)))
    assert w1[i] == pytest.approx(0.2)
    assert n1[i] == pytest.approx(4.0, abs=1e-12)
    assert n2[i] == pytest.approx(4.0, abs=1e-12)


def test_nullcline_two_is_flat_when_z10_equals_delta():
    cfg = Narma10Config()
    _, _, n2 = nullclines(cfg, cfg.delta, np.linspace(0.05, 2.0, 40))
    np.testing.assert_allclose(n2, -6.0, atol=1e-12)


def test_delta_w_vanishes_at_saddle():
    dw1, dw2 = delta_w(Narma10Config(), 0.2, 4.0, 0.2)
    assert abs(dw1) < 1e-12
    assert abs(dw2) < 1e-12


def test_basin_scan_shape_and_fixed_point_cell():
    cfg = Narma10Config()
    p = fixed_point(cfg)
    steps = basin_scan(cfg, [p, 3.0, -6.0], [10.0 * p, 30.0], max_steps=2000)
    assert steps.shape == (3, 2)
    assert steps[0, 0] == -1  # uniform history at the fixed point is stationary
    assert steps[1, 1] >= 0


def test_basin_scan_uniform_history_band():
    cfg = Narma10Config()
    steps = basin_scan(
        cfg, [1.23, 1.25, -5.14, -5.16, 0.5], [0.0], mode="psi_sigma"
    ).ravel()
    assert steps[0] == -1 and steps[2] == -1 and steps[4] == -1
    assert steps[1] >= 0 and steps[3] >= 0


def test_basin_scan_matches_direct_simulation():
    cfg = Narma10Config()
    for psi in (2.0, -6.0, 0.5):
        cell = int(basin_scan(cfg, [psi], [0.0], mode="psi_sigma", max_steps=3000)[0, 0])
        direct_cfg = Narma10Config(
            shaping=InputShaping(mu=0.0, kappa=0.0), init=(psi,) * 10
        )
        _, diverged = simulate_narma10(direct_cfg, np.zeros(3000))
        assert cell == (-1 if diverged is None else diverged)


def test_basin_scan_rejects_unknown_mode():
    with pytest.raises(ParameterError, match="mode"):
        basin_scan(Narma10Config(), [0.0], [0.0], mode="radial")


def test_divergence_probability_endpoints():
    cfg = Narma10Config()
    out = divergence_probability(cfg, [0.0], n_seeds=3, horizon=2000)
    assert out == [(0.0, 1.0)]
    out = divergence_probability(cfg, [0.3, 0.9], n_seeds=20, horizon=20000, seed=2)
    assert out[0] == (0.3, 1.0)
    assert out[1] == (0.9, 0.0)


def test_divergence_probability_stops_when_every_trajectory_diverged():
    cfg = Narma10Config()
    t0 = time.perf_counter()
    assert divergence_probability(cfg, [0.9], n_seeds=20, horizon=10**8) == [(0.9, 0.0)]
    assert divergence_probability(cfg, [], horizon=10**8) == []
    assert time.perf_counter() - t0 < 1.0


def test_nonpositive_horizons_are_rejected():
    cfg = Narma10Config()
    for horizon in (0, -5):
        with pytest.raises(ParameterError, match="horizon"):
            divergence_probability(cfg, [0.3], n_seeds=2, horizon=horizon)
        with pytest.raises(ParameterError, match="max_steps"):
            basin_scan(cfg, [0.0], [0.0], max_steps=horizon)


def test_divergence_probability_deterministic():
    cfg = Narma10Config()
    kw = dict(n_seeds=10, horizon=5000, seed=11)
    assert divergence_probability(cfg, [0.5], **kw) == divergence_probability(
        cfg, [0.5], **kw
    )


def test_lyapunov_config_validation():
    with pytest.raises(ParameterError, match="T"):
        LyapunovConfig(T=0)
    with pytest.raises(ParameterError, match="M"):
        LyapunovConfig(M=0)
    with pytest.raises(ParameterError, match="n_exponents"):
        LyapunovConfig(n_exponents=11)


def test_lyapunov_linear_limit_recovers_log_alpha():
    # beta = gamma = 0 turns the map affine with one nonzero eigenvalue alpha
    cfg = Narma10Config(beta=0.0, gamma=0.0)
    lcfg = LyapunovConfig(T=2000, M=40, n_exponents=1)
    lam = lyapunov_spectrum(cfg, lcfg, np.zeros(lcfg.T + lcfg.M))
    assert lam[0] == pytest.approx(math.log(0.3), abs=1e-6)


def test_lyapunov_driven_narma_is_stable():
    cfg = Narma10Config(shaping=InputShaping.asymmetric(0.2))
    zeta = np.random.default_rng(31).uniform(-1.0, 1.0, size=2100)
    lam = lyapunov_spectrum(cfg, LyapunovConfig(T=2000, M=100), zeta)
    assert lam.shape == (3,)
    assert np.all(lam < 0.0)
    assert lam[0] >= lam[1] >= lam[2]


def test_lyapunov_warmup_barely_matters():
    cfg = Narma10Config(shaping=InputShaping.asymmetric(0.3))
    zeta = np.random.default_rng(37).uniform(-1.0, 1.0, size=4100)
    a = lyapunov_spectrum(cfg, LyapunovConfig(T=4000, M=1, n_exponents=1), zeta)
    b = lyapunov_spectrum(cfg, LyapunovConfig(T=4000, M=40, n_exponents=1), zeta)
    assert abs(a[0] - b[0]) < 0.05


def test_lyapunov_direct_window_bias_shrinks():
    cfg = Narma10Config(shaping=InputShaping.asymmetric(0.3))
    rng = np.random.default_rng(41)
    qr = lyapunov_spectrum(
        cfg,
        LyapunovConfig(T=4000, M=40, n_exponents=1),
        rng.uniform(-1.0, 1.0, size=4100),
    )[0]
    zeta = np.random.default_rng(43).uniform(-1.0, 1.0, size=600)
    devs = []
    for M in (10, 40, 160):
        direct = lyapunov_direct(cfg, LyapunovConfig(T=400, M=M, n_exponents=1), zeta)
        devs.append(abs(direct[0] - qr))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.02


def test_lyapunov_raises_on_divergent_trajectory():
    cfg = Narma10Config(shaping=InputShaping.asymmetric(1.0))
    zeta = np.random.default_rng(47).uniform(-1.0, 1.0, size=6100)
    with pytest.raises(AnalysisError):
        lyapunov_spectrum(cfg, LyapunovConfig(T=6000, M=100), zeta)


FIG2A_ASYM = Narma10Config(shaping=InputShaping.asymmetric(0.45))


def test_approx_coeffs_first_delays():
    coeffs = approx_model_coeffs(FIG2A_ASYM, [1, 2], [1])
    # gamma mu kappa and gamma kappa^2 with mu = kappa = 0.225
    assert coeffs.q[1] == pytest.approx(1.5 * 0.225 * 0.225, abs=1e-15)
    assert coeffs.r[1] == pytest.approx(1.5 * 0.225 * 0.225, abs=1e-15)
    p = fixed_point(FIG2A_ASYM)
    q2 = coeffs.q[1] * (0.3 + 10.0 * 0.05 * p + 0.05 * p)
    assert coeffs.q[2] == pytest.approx(q2, abs=1e-15)
    assert q2 == pytest.approx(0.0364949, abs=5e-7)


def test_approx_coeffs_delay_ten_boost():
    coeffs = approx_model_coeffs(FIG2A_ASYM, range(1, 11), [])
    p = fixed_point(FIG2A_ASYM)
    A = 0.3 + 10.0 * 0.05 * p
    partial = A * coeffs.q[9] + 0.05 * p * sum(coeffs.q[s] for s in range(1, 10))
    assert coeffs.q[10] == pytest.approx(partial + 1.5 * 0.225 * 0.225, abs=1e-15)
    assert coeffs.q[10] > coeffs.q[9]


def test_approx_coeffs_symmetric_input_kills_first_order():
    cfg = Narma10Config(shaping=InputShaping.symmetric(0.45))
    coeffs = approx_model_coeffs(cfg, range(1, 13), range(1, 4))
    assert all(v == 0.0 for v in coeffs.q.values())
    assert coeffs.r[1] == pytest.approx(1.5 * 0.45 * 0.45, abs=1e-15)


def test_approx_coeffs_rejects_bad_delays():
    with pytest.raises(ParameterError, match="delays"):
        approx_model_coeffs(FIG2A_ASYM, [0], [1])


def test_ipc_prediction_normalizes_by_chaos_moments():
    coeffs = ApproxModelCoeffs(p=0.1, q={1: 2.0}, r={1: 3.0})
    pred = coeffs.ipc_prediction()
    assert pred["1@1"] == pytest.approx((4.0 / 3.0) / (4.0 / 3.0 + 1.0))
    assert pred["1@1*1@10"] == pytest.approx(1.0 / (4.0 / 3.0 + 1.0))
    assert sum(pred.values()) == pytest.approx(1.0)
    assert ApproxModelCoeffs(p=0.1, q={}, r={}).ipc_prediction() == {}


def test_simulate_approx_model_alignment():
    coeffs = ApproxModelCoeffs(p=0.5, q={1: 2.0}, r={1: 3.0})
    z = np.arange(1, 13) / 10.0
    y = simulate_approx_model(coeffs, z)
    assert y[0] == pytest.approx(0.5 + 2.0 * 0.1)
    assert y[8] == pytest.approx(0.5 + 2.0 * 0.9)
    assert y[9] == pytest.approx(0.5 + 2.0 * 1.0 + 3.0 * 1.0 * 0.1)
    assert y[11] == pytest.approx(0.5 + 2.0 * 1.2 + 3.0 * 1.2 * 0.3)


def test_simulate_approx_model_constant_without_input():
    coeffs = approx_model_coeffs(FIG2A_ASYM, [1, 2, 3], [1, 2])
    y = simulate_approx_model(coeffs, np.zeros(50))
    np.testing.assert_allclose(y, coeffs.p, rtol=0, atol=0)


def test_approx_model_tracks_true_narma():
    zeta = np.random.default_rng(53).uniform(-1.0, 1.0, size=3000)
    series, diverged = simulate_narma10(FIG2A_ASYM, zeta)
    assert diverged is None
    coeffs = approx_model_coeffs(FIG2A_ASYM, range(1, 13), range(1, 4))
    approx = simulate_approx_model(coeffs, zeta)
    err = series[100:] - approx[100:]
    nrmse = math.sqrt(float(err @ err) / float(np.sum((series[100:] - series[100:].mean()) ** 2)))
    assert nrmse < 0.25


# The per-step batch loop that _narma_batch replaced, kept verbatim as the
# exactness oracle: it tests the limit after every step and never drops a
# column.
def _reference_narma_batch(
    config: Narma10Config,
    init: np.ndarray,
    u_blocks,
    horizon: int,
    block: int = 65536,
) -> np.ndarray:
    """Run many NARMA10 trajectories side by side; returns first divergence steps.

    init is (10, B) with row 9 the most recent pre-run value. u_blocks(t0, t1)
    must yield the shaped inputs for steps t0..t1-1 as a (t1-t0, B) array.
    Diverged columns are reset to zero so the survivors keep exact arithmetic;
    only the first divergence step is recorded (-1 means survived).
    """
    a, b, g, d = config.alpha, config.beta, config.gamma, config.delta
    B = init.shape[1]
    ring = init.astype(float).copy()
    total = ring.sum(axis=0)
    u_ring = np.zeros((9, B))
    diverged = np.full(B, -1, dtype=np.int64)
    limit = NARMA_DIVERGENCE_LIMIT
    t = 0
    while t < horizon:
        t1 = min(t + block, horizon)
        U = u_blocks(t, t1)
        for i in range(t1 - t):
            step = t + i
            newest = (step + 9) % 10
            oldest = step % 10
            u_now = U[i]
            u_slot = step % 9
            u_lag = u_ring[u_slot] if step >= 9 else 0.0
            y = ring[newest]
            y_next = a * y + b * y * total + g * u_now * u_lag + d
            u_ring[u_slot] = u_now
            bad = np.abs(y_next) > limit
            if bad.any():
                first = bad & (diverged < 0)
                diverged[first] = step
                y_next[bad] = 0.0
                ring[:, bad] = 0.0
                total[bad] = 0.0
            total += y_next - ring[oldest]
            ring[oldest] = y_next
        t = t1
    return diverged


def _reference_adapter(config, init, u_blocks, horizon):
    """The per-step reference loop, fed every column of the same input callback."""
    cols = np.arange(init.shape[1])
    return _reference_narma_batch(
        config, init, lambda t0, t1: u_blocks(t0, t1, cols), horizon
    )


def _reference_divergence_steps(config, sigmas, n_seeds, horizon, seed):
    """Per-column steps of divergence_probability's batch, with its old callback."""
    shapings = [InputShaping.asymmetric(s) for s in sigmas]
    mu = np.repeat([sh.mu for sh in shapings], n_seeds)
    kappa = np.repeat([sh.kappa for sh in shapings], n_seeds)
    init = np.tile(np.array(config.init)[:, None], (1, len(sigmas) * n_seeds))
    rng = np.random.default_rng(seed)

    def u_blocks(t0, t1):
        zeta = rng.uniform(-1.0, 1.0, size=(t1 - t0, init.shape[1]))
        return mu + kappa * zeta

    return _reference_narma_batch(config, init, u_blocks, horizon, block=8192)


def _batch_steps(monkeypatch, batch, fn, *args, **kwargs):
    """Per-column divergence steps of the one batch that fn(*args, **kwargs) runs."""
    runs = []

    def recording(config, init, u_blocks, horizon):
        runs.append(batch(config, init, u_blocks, horizon))
        return runs[-1]

    with monkeypatch.context() as m:
        m.setattr(narma, "_narma_batch", recording)
        fn(*args, **kwargs)
    (steps,) = runs
    return steps


def _assert_matches_reference(monkeypatch, fn, *args, **kwargs):
    expected = _batch_steps(monkeypatch, _reference_adapter, fn, *args, **kwargs)
    got = _batch_steps(monkeypatch, _NARMA_BATCH, fn, *args, **kwargs)
    assert np.array_equal(got, expected)
    return expected


@pytest.mark.parametrize("block_rows", [33, None])
def test_batch_matches_reference_on_driven_streams(monkeypatch, block_rows):
    sigmas = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    if block_rows is not None:
        monkeypatch.setattr(narma, "_BLOCK_ELEMENTS", block_rows * 10 * len(sigmas))
    cfg = Narma10Config()
    steps = _reference_divergence_steps(cfg, sigmas, n_seeds=10, horizon=3000, seed=1)
    got = _batch_steps(
        monkeypatch, _NARMA_BATCH, divergence_probability, cfg, sigmas, n_seeds=10, horizon=3000, seed=1
    )
    assert np.array_equal(got, steps)
    hit = steps[steps >= 0]
    # the data covers survivors, first-block divergences and divergences on
    # the last step of a ring turn and of a 33-step block
    assert (steps < 0).sum() == 30
    assert (hit < 33).any()
    assert (hit % 33 == 32).any()
    assert ((hit % 11 == 10) & (hit % 33 != 32)).any()


@pytest.mark.parametrize(
    "grid_a, grid_b, mode, sigma",
    [
        (np.linspace(-6.0, 6.0, 40), np.linspace(-6.0, 6.0, 40), "w", 0.0),
        (np.linspace(-6.0, 6.0, 30), np.linspace(-6.0, 6.0, 30), "w", 0.3),
        (np.linspace(-6.0, 2.0, 40), np.linspace(0.0, 1.0, 40), "psi_sigma", 0.0),
    ],
)
def test_basin_scan_matches_reference(monkeypatch, grid_a, grid_b, mode, sigma):
    steps = _assert_matches_reference(
        monkeypatch,
        basin_scan,
        Narma10Config(),
        grid_a,
        grid_b,
        max_steps=2000,
        mode=mode,
        sigma=sigma,
        seed=9,
    )
    assert (steps < 0).any() and (steps >= 0).any()


@pytest.mark.parametrize("block_rows", [11, 22, 44])
def test_batch_ignores_block_boundaries(monkeypatch, block_rows):
    monkeypatch.setattr(narma, "_BLOCK_ELEMENTS", block_rows * 40 * 40)  # 1600 cells
    _assert_matches_reference(
        monkeypatch,
        basin_scan,
        Narma10Config(),
        np.linspace(-6.0, 2.0, 40),
        np.linspace(0.0, 1.0, 40),
        max_steps=400,
        mode="psi_sigma",
        seed=4,
    )
    monkeypatch.setattr(narma, "_BLOCK_ELEMENTS", block_rows * 2 * 20)  # 40 streams
    _assert_matches_reference(
        monkeypatch,
        divergence_probability,
        Narma10Config(),
        [0.5, 0.7],
        n_seeds=20,
        horizon=500,
        seed=7,
    )


def test_batch_never_tests_the_init_history():
    cfg = Narma10Config()
    init = np.tile(np.array(cfg.init)[:, None], (1, 6))
    init[3, 0] = 2e6
    init[9, 1] = -5e6
    init[0, 2] = 1e300
    init[5, 3] = 3e5  # within the limit, but drives the column over it
    rng = np.random.default_rng(17)
    U = 0.2 + 0.2 * rng.uniform(-1.0, 1.0, size=(40, 6))
    expected = _reference_narma_batch(cfg, init, lambda t0, t1: U[t0:t1], 40)
    got = _NARMA_BATCH(cfg, init, lambda t0, t1, cols: U[t0:t1, cols], 40)
    assert np.array_equal(got, expected)
    assert expected[0] >= 0 and expected[3] >= 0 and expected[5] == -1
    # horizons shorter than the input lag and than one ring turn
    for horizon in (1, 5, 12):
        expected = _reference_narma_batch(cfg, init, lambda t0, t1: U[t0:t1], horizon)
        got = _NARMA_BATCH(cfg, init, lambda t0, t1, cols: U[t0:t1, cols], horizon)
        assert np.array_equal(got, expected)


def test_batch_keeps_the_scalar_rounding_order():
    # Each column is steered to within a few ulps of the limit at step 9, so
    # its divergence step depends on the rounding of every operation there;
    # simulate_narma10 evaluates the same operations in the same order.
    cfg = Narma10Config(shaping=InputShaping(mu=0.0, kappa=1.0))
    a, b, g, d = cfg.alpha, cfg.beta, cfg.gamma, cfg.delta
    limit = NARMA_DIVERGENCE_LIMIT
    rng = np.random.default_rng(23)
    n = 2000
    init = np.zeros((10, n))
    init[9] = rng.uniform(-10.0, 10.0, n) * 10.0 ** rng.integers(-3, 6, n)
    u = np.zeros((20, n))
    u[0] = 1.3
    expected = np.empty(n, dtype=np.int64)
    for k in range(n):
        col = dataclasses.replace(cfg, init=tuple(init[:, k]))
        warm, _ = simulate_narma10(col, u[:9, k])
        y9 = warm[-1]
        state = a * y9 + b * y9 * np.concatenate((init[:, k], warm))[-10:].sum()
        offset = rng.uniform(-4.0, 4.0) * np.spacing(limit)
        u[9, k] = ((limit - state - d) + offset) / (g * u[0, k])
        _, at = simulate_narma10(col, u[:, k])
        expected[k] = -1 if at is None else at
    got = _NARMA_BATCH(cfg, init, lambda t0, t1, cols: u[t0:t1, cols], u.shape[0])
    assert np.array_equal(got, expected)
    assert (expected == 9).any() and (expected == 10).any()


def _unstopped_column(config, init, u, steps):
    """One column's values y_0 .. y_{steps-1} by _narma_batch's recurrence, past the limit."""
    a, b, g, d = config.alpha, config.beta, config.gamma, config.delta
    y = [np.float64(v) for v in init]
    total = sum(y)
    with np.errstate(all="ignore"):
        for t in range(steps):
            u_lag = u[t - 9] if t >= 9 else 0.0
            y_next = ((a * y[-1] + (b * y[-1]) * total) + (g * u[t]) * u_lag) + d
            total = total + (y_next - y[-10])
            y.append(y_next)
    return np.array(y[10:])


# 900 columns at the default _BLOCK_ELEMENTS: a 66-step block and a 66-slot ring
_WIDE = 900


def _benign_inputs(steps):
    return 0.1 + 0.1 * np.random.default_rng(31).uniform(-1.0, 1.0, size=(steps, _WIDE))


def test_block_test_finds_a_crossing_at_slot_0_that_overflows_within_the_block():
    assert narma._block_rows(_WIDE) == 66
    cfg = Narma10Config()
    init = np.zeros((10, _WIDE))
    U = _benign_inputs(300)
    # y_66 jumps over the limit: step 66 writes slot 0 of the second block
    U[57, 0], U[66, 0] = 1.0, 2e6 / cfg.gamma
    y = _unstopped_column(cfg, init[:, 0], U[:, 0], 132)
    assert np.flatnonzero(np.abs(y) > NARMA_DIVERGENCE_LIMIT)[0] == 66
    # ... and the column is +-inf, then NaN, before that block ends
    assert np.isinf(y).any() and np.isnan(y).any()
    expected = _reference_narma_batch(cfg, init, lambda t0, t1: U[t0:t1], 300)
    got = _NARMA_BATCH(cfg, init, lambda t0, t1, cols: U[t0:t1, cols], 300)
    assert np.array_equal(got, expected)
    assert got[0] == 66 and (got[1:] == -1).all()


def test_a_nan_in_the_init_history_survives_and_drops_no_column():
    cfg = Narma10Config()
    init = np.zeros((10, _WIDE))
    init[4, 1] = np.nan
    U = _benign_inputs(300)
    widths = []

    def u_blocks(t0, t1, cols):
        widths.append(cols.size)
        return U[t0:t1, cols]

    expected = _reference_narma_batch(cfg, init, lambda t0, t1: U[t0:t1], 300)
    got = _NARMA_BATCH(cfg, init, u_blocks, 300)
    assert np.array_equal(got, expected) and (expected == -1).all()
    assert widths == [_WIDE] * 5  # four 66-step blocks and one of 36


def test_block_rows_cap_binds_only_at_narrow_widths():
    # fig2b runs 900 columns and figA1_basin 40000 cells; neither block moves
    assert narma._block_rows(900) == 66 and narma._block_rows(40_000) == 11
    assert narma._block_rows(100) == 649
    assert narma._block_rows(1) == narma._block_rows(59) == narma._MAX_BLOCK_ROWS
    assert narma._MAX_BLOCK_ROWS % 11 == 0


def test_one_column_divergence_scan_memory_is_set_by_the_capped_ring():
    # an uncapped ring is 65 527 slots deep at one column, with two views per
    # slot: about 20 MiB under tracemalloc, where the capped one takes about 1
    tracemalloc.start()
    try:
        curve = divergence_probability(Narma10Config(), [0.3], n_seeds=1, horizon=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert curve == [(0.3, 1.0)]
    assert peak < 4 * 2**20


_FILL_UNIFORM = narma._fill_uniform


def test_fill_uniform_is_bitwise_the_uniform_draw():
    expected = np.random.default_rng(3).uniform(-1.0, 1.0, size=(70, 13))
    rng = np.random.default_rng(3)
    got = np.empty_like(expected)
    for t0, t1 in ((0, 5), (5, 6), (6, 70)):  # consecutive fills continue the stream
        _FILL_UNIFORM(rng, got[t0:t1])
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("draw_rows", [22, None])
@pytest.mark.parametrize("split", [11, 33, 65536])
def test_any_consumer_split_reads_the_same_stream(monkeypatch, split, draw_rows):
    # the batch asks for blocks of split steps, across the draw thread's blocks
    # of draw_rows steps; a short switch interval interleaves the threads finely
    sigmas, n_seeds, horizon = [0.5, 0.7, 0.9], 20, 1500
    if draw_rows is not None:
        monkeypatch.setattr(narma, "_BLOCK_ELEMENTS", draw_rows * len(sigmas) * n_seeds)
    cfg = Narma10Config()
    expected = _reference_divergence_steps(cfg, sigmas, n_seeds, horizon, seed=13)

    def split_reference(config, init, u_blocks, horizon):
        cols = np.arange(init.shape[1])
        return _reference_narma_batch(
            config, init, lambda t0, t1: u_blocks(t0, t1, cols), horizon, block=split
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = _batch_steps(
            monkeypatch, split_reference, divergence_probability, cfg, sigmas,
            n_seeds=n_seeds, horizon=horizon, seed=13,
        )
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, expected)
    assert (expected < 0).any() and (expected >= 0).any()


def _slow_fill(rng, out):
    # keeps the draw thread alive long enough that a missing join shows
    time.sleep(0.02)
    _FILL_UNIFORM(rng, out)


def _assert_no_draw_thread(before):
    assert threading.active_count() == before
    assert not any(t.name == "ipcap-draw" for t in threading.enumerate())


@pytest.mark.parametrize(
    "sigmas, horizon",
    [([0.3, 0.9], 3000), ([0.9], 10**8)],  # a normal return, and the early stop
)
def test_divergence_probability_joins_the_draw_thread(monkeypatch, sigmas, horizon):
    monkeypatch.setattr(narma, "_fill_uniform", _slow_fill)
    monkeypatch.setattr(narma, "_BLOCK_ELEMENTS", 22 * 20 * len(sigmas))
    before = threading.active_count()
    out = divergence_probability(Narma10Config(), sigmas, n_seeds=20, horizon=horizon, seed=2)
    assert out[-1] == (0.9, 0.0)
    _assert_no_draw_thread(before)


@pytest.mark.parametrize("exc", [RuntimeError("batch"), KeyboardInterrupt()])
def test_batch_failure_joins_the_draw_thread(monkeypatch, exc):
    monkeypatch.setattr(narma, "_fill_uniform", _slow_fill)
    monkeypatch.setattr(narma, "_BLOCK_ELEMENTS", 22 * 40)
    real_batch = narma._narma_batch
    calls = []

    def failing_batch(config, init, u_blocks, horizon):
        def failing_blocks(t0, t1, cols):
            calls.append(t0)
            if len(calls) > 3:
                raise exc
            return u_blocks(t0, t1, cols)

        return real_batch(config, init, failing_blocks, horizon)

    monkeypatch.setattr(narma, "_narma_batch", failing_batch)
    before = threading.active_count()
    with pytest.raises(type(exc)) as raised:
        divergence_probability(Narma10Config(), [0.3, 0.5], n_seeds=20, horizon=3000)
    assert raised.value is exc and len(calls) == 4
    _assert_no_draw_thread(before)


@pytest.mark.parametrize("fills", [0, 3])
def test_draw_thread_failure_is_raised_by_the_caller(monkeypatch, fills):
    exc = MemoryError("draw")
    made = []

    def failing_fill(rng, out):
        made.append(threading.current_thread().name)
        if len(made) > fills:
            raise exc
        _FILL_UNIFORM(rng, out)

    monkeypatch.setattr(narma, "_fill_uniform", failing_fill)
    monkeypatch.setattr(narma, "_BLOCK_ELEMENTS", 22 * 40)
    before = threading.active_count()
    with pytest.raises(MemoryError) as raised:
        divergence_probability(Narma10Config(), [0.3, 0.5], n_seeds=20, horizon=3000)
    assert raised.value is exc
    assert set(made) == {"ipcap-draw"}
    _assert_no_draw_thread(before)


def test_divergence_probability_starts_the_draw_thread_only_with_columns(monkeypatch):
    started = []
    real_worker = narma._draw_worker

    def recording_worker(*args):
        started.append(threading.current_thread().name)
        real_worker(*args)

    monkeypatch.setattr(narma, "_draw_worker", recording_worker)
    assert divergence_probability(Narma10Config(), [], horizon=1000) == []
    assert started == []
    divergence_probability(Narma10Config(), [0.3], n_seeds=2, horizon=1000)
    assert started == ["ipcap-draw"]
