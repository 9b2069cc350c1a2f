"""Reference dynamical systems: ESNs, NARMA10, the limit cycle, readouts."""

import math
import warnings

import numpy as np
import pytest

from ipcap import (
    DataError,
    DivergenceError,
    EsnConfig,
    InputShaping,
    LimitCycleConfig,
    Narma10Config,
    ParameterError,
    ShapeError,
    StateMatrix,
    fixed_point,
    simulate_1d_esn,
    simulate_esn,
    simulate_limit_cycle,
    simulate_narma10,
    train_readout,
)
from ipcap.systems import _ESN_BLOCK, ESN_DIVERGENCE_LIMIT


def test_esn_config_validation():
    with pytest.raises(ParameterError, match="n_nodes"):
        EsnConfig(n_nodes=0)
    with pytest.raises(ParameterError, match="spectral_radius"):
        EsnConfig(spectral_radius=-0.1)
    with pytest.raises(ParameterError, match="activation"):
        EsnConfig(activation="relu")
    with pytest.raises(ParameterError, match="leak"):
        EsnConfig(activation="leaky_tanh", leak=0.5)


def test_esn_weights_have_exact_spectral_radius():
    for rho in (0.2, 0.9, 1.2):
        W, w_in = EsnConfig(n_nodes=30, spectral_radius=rho, weight_seed=3).build_weights()
        radius = float(np.max(np.abs(np.linalg.eigvals(W))))
        assert radius == pytest.approx(rho, rel=1e-12)
        assert w_in.shape == (30,)
        assert np.all(np.abs(w_in) <= 1.0)


def test_esn_weights_reproducible():
    cfg = EsnConfig(n_nodes=12, weight_seed=8)
    W1, v1 = cfg.build_weights()
    W2, v2 = cfg.build_weights()
    assert np.array_equal(W1, W2)
    assert np.array_equal(v1, v2)


def test_esn_zero_radius_is_memoryless():
    cfg = EsnConfig(n_nodes=7, spectral_radius=0.0, activation="linear", weight_seed=2)
    u = np.linspace(-1.0, 1.0, 25)
    _, w_in = cfg.build_weights()
    state = simulate_esn(cfg, u)
    assert np.array_equal(state.data, cfg.input_intensity * np.outer(u, w_in))


def test_esn_leaky_step_matches_hand_rollout():
    cfg = EsnConfig(n_nodes=5, activation="leaky_tanh", leak=1.25, weight_seed=4)
    u = np.array([0.3, -0.8, 0.5, 0.1, -0.2, 0.9, -0.4, 0.6])
    W, w_in = cfg.build_weights()
    keep, mix = 1.0 - 1.0 / 1.25, 1.0 / 1.25
    x = np.zeros(5)
    rows = []
    for t in range(len(u)):
        x = keep * x + mix * np.tanh(W @ x + cfg.input_intensity * u[t] * w_in)
        rows.append(x.copy())
    state = simulate_esn(cfg, u)
    np.testing.assert_allclose(state.data, np.array(rows), rtol=0, atol=1e-15)


def test_esn_tanh_state_is_odd_in_the_input():
    cfg = EsnConfig(n_nodes=10, activation="tanh", weight_seed=5)
    u = np.random.default_rng(6).uniform(-0.5, 0.5, size=200)
    plus = simulate_esn(cfg, u)
    minus = simulate_esn(cfg, -u)
    np.testing.assert_allclose(plus.data, -minus.data, rtol=0, atol=1e-14)


def test_esn_divergence_reports_step():
    cfg = EsnConfig(n_nodes=10, spectral_radius=1.3, activation="linear", weight_seed=1)
    with pytest.raises(DivergenceError) as err:
        simulate_esn(cfg, np.ones(400))
    assert 1 <= err.value.step <= 400


def esn_reference(config, u):
    """The ESN loop with the divergence check after every step, as the reference."""
    W, w_in = config.build_weights()
    drive = config.input_intensity * np.outer(u, w_in)
    X = np.empty((u.size, config.n_nodes))
    x = np.zeros(config.n_nodes)
    for t in range(u.size):
        pre = W @ x + drive[t]
        if config.activation == "linear":
            x = pre
        elif config.activation == "tanh":
            x = np.tanh(pre)
        else:
            x = (1.0 - 1.0 / config.leak) * x + (1.0 / config.leak) * np.tanh(pre)
        if np.max(np.abs(x)) > ESN_DIVERGENCE_LIMIT:
            raise DivergenceError(t + 1)
        X[t] = x
    return X


# two whole blocks between divergence checks and a partial third
ESN_STEPS = 2 * _ESN_BLOCK + 123


@pytest.mark.parametrize("activation", ["linear", "tanh", "leaky_tanh"])
def test_esn_states_equal_the_per_step_reference(activation):
    cfg = EsnConfig(n_nodes=12, spectral_radius=0.95, input_intensity=0.5, activation=activation)
    u = np.random.default_rng(11).uniform(-1.0, 1.0, ESN_STEPS)
    assert np.array_equal(simulate_esn(cfg, u).data, esn_reference(cfg, u))


# the first row of a block, its last row, and a row of the final partial block
@pytest.mark.parametrize("spike", [0, _ESN_BLOCK, 2 * _ESN_BLOCK - 1, 2 * _ESN_BLOCK + 50])
def test_esn_divergence_step_equals_the_per_step_reference(spike):
    cfg = EsnConfig(n_nodes=12, spectral_radius=1.5, input_intensity=1.0, activation="linear")
    # the state is exactly zero up to the spike and crosses the limit there;
    # from a block's first row on, it then grows to inf and nan within the block
    u = np.zeros(ESN_STEPS)
    u[spike] = 1e11
    with pytest.raises(DivergenceError) as ref:
        esn_reference(cfg, u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            simulate_esn(cfg, u)
    assert err.value.step == ref.value.step == spike + 1


def test_1d_esn_bounded_and_deterministic():
    zeta = np.random.default_rng(9).uniform(-1.0, 1.0, size=300)
    shaping = InputShaping(mu=0.0, kappa=0.2)
    state = simulate_1d_esn(0.95, shaping, zeta)
    assert state.data.shape == (300, 1)
    assert np.max(np.abs(state.data)) < 1.0
    again = simulate_1d_esn(0.95, shaping, zeta)
    assert np.array_equal(state.data, again.data)
    x = 0.0
    for t in range(5):
        x = math.tanh(0.95 * x + 0.2 * zeta[t])
        assert state.data[t, 0] == pytest.approx(x, abs=1e-15)


def test_narma_first_value_is_delta():
    series, diverged = simulate_narma10(Narma10Config(), np.zeros(5))
    assert diverged is None
    assert series[0] == pytest.approx(0.1)


def test_narma_init_length_checked():
    with pytest.raises(ParameterError, match="init"):
        Narma10Config(init=(0.0,) * 9)


def test_narma_constant_drive_converges_to_fixed_point():
    cfg = Narma10Config(shaping=InputShaping(mu=0.2, kappa=0.0))
    series, diverged = simulate_narma10(cfg, np.zeros(10000))
    assert diverged is None
    p = fixed_point(cfg)
    assert abs(series[-1] - p) < 1e-8
    assert np.all(np.abs(series[-10:] - p) < 1e-8)


def test_narma_divergence_truncates_after_offender():
    cfg = Narma10Config(shaping=InputShaping.asymmetric(1.0))
    zeta = np.random.default_rng(13).uniform(-1.0, 1.0, size=5000)
    series, diverged = simulate_narma10(cfg, zeta)
    assert diverged is not None
    assert len(series) == diverged + 1
    assert abs(series[-1]) > 1e6
    assert np.all(np.abs(series[:-1]) <= 1e6)


def test_narma_reference_sigma_is_stable():
    cfg = Narma10Config(shaping=InputShaping.asymmetric(0.4))
    zeta = np.random.default_rng(17).uniform(-1.0, 1.0, size=20000)
    series, diverged = simulate_narma10(cfg, zeta)
    assert diverged is None
    assert np.all(np.isfinite(series))


def test_limit_cycle_validation():
    with pytest.raises(ParameterError, match="tau"):
        LimitCycleConfig(tau=0.0)
    with pytest.raises(ParameterError, match="init"):
        LimitCycleConfig(init=(-0.5, 0.0))


def test_limit_cycle_stays_on_unit_circle_without_drive():
    cfg = LimitCycleConfig(shaping=InputShaping(mu=0.0, kappa=0.0))
    state = simulate_limit_cycle(cfg, np.zeros(100))
    radius = np.hypot(state.data[:, 0], state.data[:, 1])
    np.testing.assert_allclose(radius, 1.0, rtol=1e-12)
    angles = (np.arange(1, 101)) * cfg.tau * cfg.omega
    np.testing.assert_allclose(state.data[:, 0], np.cos(angles), atol=1e-10)
    np.testing.assert_allclose(state.data[:, 1], np.sin(angles), atol=1e-10)
    assert state.labels == ("x", "y")
    assert state.meta["clamped"] == 0


@pytest.mark.parametrize("r0", [0.1, 1.9])
def test_limit_cycle_radius_attracts_to_one(r0):
    cfg = LimitCycleConfig(shaping=InputShaping(mu=0.0, kappa=0.0), init=(r0, 0.0))
    state = simulate_limit_cycle(cfg, np.zeros(300))
    radius = np.hypot(state.data[-1, 0], state.data[-1, 1])
    assert radius == pytest.approx(1.0, abs=1e-10)


def test_limit_cycle_constant_drive_shifts_radius():
    # stationary radius solves r^3 - r = u
    cfg = LimitCycleConfig(shaping=InputShaping(mu=0.2, kappa=0.0))
    state = simulate_limit_cycle(cfg, np.zeros(500))
    roots = np.roots([1.0, 0.0, -1.0, -0.2])
    root = float(max(r.real for r in roots if abs(r.imag) < 1e-12))
    radius = np.hypot(state.data[-1, 0], state.data[-1, 1])
    assert radius == pytest.approx(root, abs=1e-10)


def test_limit_cycle_clamps_negative_radius():
    cfg = LimitCycleConfig(shaping=InputShaping(mu=-5.0, kappa=0.0), init=(0.01, 0.0))
    state = simulate_limit_cycle(cfg, np.zeros(10))
    assert state.meta["clamped"] >= 1
    assert state.meta["first_clamp_step"] == 1
    assert state.data[0, 0] == 0.0 and state.data[0, 1] == 0.0


def test_train_readout_recovers_exact_combination():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(60, 4))
    w_true = np.array([0.5, -1.0, 2.0, 0.25])
    y = X @ w_true
    w, nrmse, pred = train_readout(StateMatrix(X), y)
    assert nrmse == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(w, w_true, atol=1e-10)
    np.testing.assert_allclose(pred, y[30:], atol=1e-10)


def test_train_readout_uninformative_state_scores_one():
    X = np.ones((12, 1))
    y = np.array([0.0] * 6 + [1.0, -1.0] * 3)
    _, nrmse, _ = train_readout(StateMatrix(X), y)
    assert nrmse == pytest.approx(1.0, abs=1e-12)


def test_train_readout_errors():
    X = StateMatrix(np.random.default_rng(23).normal(size=(10, 2)))
    with pytest.raises(ShapeError):
        train_readout(X, np.zeros(9))
    with pytest.raises(ParameterError, match="train_frac"):
        train_readout(X, np.zeros(10), train_frac=1.0)
    wide = StateMatrix(np.random.default_rng(24).normal(size=(10, 8)))
    with pytest.raises(DataError, match="too few"):
        train_readout(wide, np.zeros(10), train_frac=0.5)
    with pytest.raises(DataError, match="zero variance"):
        train_readout(X, np.ones(10))
