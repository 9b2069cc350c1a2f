"""Reference dynamical systems and the linear readout trainer.

All simulators are seeded and bit-reproducible; they return full trajectories
and leave washout handling to the analysis pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .capacity import StateMatrix
from .distributions import InputShaping, shape_input
from .errors import DataError, DivergenceError, ParameterError, ShapeError

ESN_DIVERGENCE_LIMIT = 1e10
NARMA_DIVERGENCE_LIMIT = 1e6

ACTIVATIONS = ("linear", "tanh", "leaky_tanh")

# ESN steps simulated between two divergence checks
_ESN_BLOCK = 4096


@dataclass(frozen=True)
class EsnConfig:
    """Random recurrent network x_{t+1} = f(rho W x_t + iota w_in u_t).

    W is uniform in [-1, 1], rescaled so its largest absolute eigenvalue is
    exactly 1 before multiplying by rho; input weights are uniform in [-1, 1].
    """

    n_nodes: int = 50
    spectral_radius: float = 0.9
    input_intensity: float = 0.1
    activation: str = "tanh"
    leak: float = 1.25
    weight_seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ParameterError(f"n_nodes: must be >= 1, got {self.n_nodes}")
        if self.spectral_radius < 0.0:
            raise ParameterError(
                f"spectral_radius: must be >= 0, got {self.spectral_radius}"
            )
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"activation: unknown kind {self.activation!r}")
        if self.activation == "leaky_tanh" and self.leak < 1.0:
            raise ParameterError(f"leak: must be >= 1, got {self.leak}")

    def build_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(W, w_in) with W scaled to spectral radius spectral_radius."""
        rng = np.random.default_rng(self.weight_seed)
        W = rng.uniform(-1.0, 1.0, size=(self.n_nodes, self.n_nodes))
        radius = float(np.max(np.abs(np.linalg.eigvals(W))))
        if radius == 0.0:
            raise ParameterError("weight_seed: internal matrix has zero spectral radius")
        W *= self.spectral_radius / radius
        w_in = rng.uniform(-1.0, 1.0, size=self.n_nodes)
        return W, w_in


def simulate_esn(config: EsnConfig, input_series: np.ndarray) -> StateMatrix:
    """Drive the network from a zero state; rows are x_1 .. x_L."""
    u = np.asarray(input_series, dtype=float).ravel()
    L = u.size
    W, w_in = config.build_weights()
    drive = config.input_intensity * np.outer(u, w_in)
    X = np.empty((L, config.n_nodes))
    x = np.zeros(config.n_nodes)
    if config.activation == "leaky_tanh":
        keep = 1.0 - 1.0 / config.leak
        mix = 1.0 / config.leak
        kept = np.empty(config.n_nodes)
    for t0 in range(0, L, _ESN_BLOCK):
        t1 = min(t0 + _ESN_BLOCK, L)
        # a diverging run goes on to the end of its block before the check
        # below reports its first offending step; what it computes after that
        # step is discarded, so its overflow is not reported
        with np.errstate(over="ignore", invalid="ignore"):
            # each step is computed in its own row of X, and x is the row
            # before; the activation is chosen once per block, not per step
            steps = zip(X[t0:t1], drive[t0:t1])
            if config.activation == "linear":
                for row, d in steps:
                    np.dot(W, x, out=row)
                    np.add(row, d, out=row)
                    x = row
            elif config.activation == "tanh":
                for row, d in steps:
                    np.dot(W, x, out=row)
                    np.add(row, d, out=row)
                    np.tanh(row, out=row)
                    x = row
            else:
                for row, d in steps:
                    np.dot(W, x, out=row)
                    np.add(row, d, out=row)
                    np.multiply(x, keep, out=kept)
                    np.tanh(row, out=row)
                    np.multiply(row, mix, out=row)
                    np.add(row, kept, out=row)
                    x = row
        over = np.flatnonzero(np.abs(X[t0:t1]).max(axis=1) > ESN_DIVERGENCE_LIMIT)
        if over.size:
            raise DivergenceError(t0 + int(over[0]) + 1)
    return StateMatrix(
        data=X,
        labels=tuple(f"x{i}" for i in range(config.n_nodes)),
        meta={"system": "esn", "config": config.__dict__.copy()},
    )


def simulate_1d_esn(rho: float, shaping: InputShaping, zeta: np.ndarray) -> StateMatrix:
    """Scalar reservoir x_{t+1} = tanh(rho x_t + mu + kappa zeta_t)."""
    u = shape_input(zeta, shaping)
    L = u.size
    X = np.empty((L, 1))
    x = 0.0
    for t in range(L):
        x = math.tanh(rho * x + u[t])
        X[t, 0] = x
    return StateMatrix(
        data=X,
        labels=("x",),
        meta={"system": "esn1d", "rho": rho, "shaping": shaping.to_dict()},
    )


@dataclass(frozen=True)
class Narma10Config:
    """y_{t+1} = alpha y_t + beta y_t sum_{s=0..9} y_{t-s} + gamma u_t u_{t-9} + delta."""

    alpha: float = 0.3
    beta: float = 0.05
    gamma: float = 1.5
    delta: float = 0.1
    shaping: InputShaping = field(default_factory=InputShaping)
    init: tuple[float, ...] = (0.0,) * 10

    def __post_init__(self):
        init = tuple(float(v) for v in self.init)
        if len(init) != 10:
            raise ParameterError(f"init: history must have exactly 10 values, got {len(init)}")
        object.__setattr__(self, "init", init)


def simulate_narma10(
    config: Narma10Config, zeta: np.ndarray
) -> tuple[np.ndarray, int | None]:
    """Iterate the recurrence; divergence is reported, not raised.

    init[-1] is the most recent pre-run value y_0; inputs before the first
    step are zero. The returned series holds y_1 .. y_L. If |y| exceeds 1e6
    the series is truncated just after the offending value and its index is
    returned as diverged_at.
    """
    u = shape_input(zeta, config.shaping)
    L = u.size
    a, b, g, d = config.alpha, config.beta, config.gamma, config.delta
    hist = list(config.init)
    total = sum(hist)
    out = np.empty(L)
    for t in range(L):
        y = hist[-1]
        u_lag = u[t - 9] if t >= 9 else 0.0
        y_next = a * y + b * y * total + g * u[t] * u_lag + d
        out[t] = y_next
        if abs(y_next) > NARMA_DIVERGENCE_LIMIT:
            return out[: t + 1], t
        total += y_next - hist[0]
        hist.pop(0)
        hist.append(y_next)
    return out, None


@dataclass(frozen=True)
class LimitCycleConfig:
    """Noisy radial drive around a circular attractor.

    r_{t+1} = (1 + tau) r_t - tau r_t^3 + tau u_t, theta_{t+1} = theta_t +
    tau omega, reported in Cartesian coordinates.
    """

    omega: float = 2.0 * math.pi / 3.0
    tau: float = 0.1
    shaping: InputShaping = field(default_factory=lambda: InputShaping(mu=0.2, kappa=1.5))
    init: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ParameterError(f"tau: must be > 0, got {self.tau}")
        init = tuple(float(v) for v in self.init)
        if len(init) != 2:
            raise ParameterError(f"init: expected (radius, angle), got {len(init)} values")
        object.__setattr__(self, "init", init)
        if self.init[0] < 0.0:
            raise ParameterError(f"init: radius must be >= 0, got {self.init[0]}")


def simulate_limit_cycle(config: LimitCycleConfig, zeta: np.ndarray) -> StateMatrix:
    """Rows are (x, y) = (r cos theta, r sin theta) at t = 1 .. L."""
    u = shape_input(zeta, config.shaping)
    L = u.size
    tau, omega = config.tau, config.omega
    r, theta = config.init
    X = np.empty((L, 2))
    clamped = 0
    first_clamp = None
    for t in range(L):
        r = (1.0 + tau) * r - tau * r**3 + tau * u[t]
        if r < 0.0:
            r = 0.0
            clamped += 1
            if first_clamp is None:
                first_clamp = t + 1
        theta = theta + tau * omega
        X[t, 0] = r * math.cos(theta)
        X[t, 1] = r * math.sin(theta)
    meta = {"system": "limit_cycle", "clamped": clamped}
    if first_clamp is not None:
        meta["first_clamp_step"] = first_clamp
    return StateMatrix(data=X, labels=("x", "y"), meta=meta)


def train_readout(
    state: StateMatrix, target: np.ndarray, train_frac: float = 0.5
) -> tuple[np.ndarray, float, np.ndarray]:
    """Least-squares readout on a sequential split.

    Weights are fit on the first train_frac of rows via the SVD pseudoinverse
    and scored on the rest with NRMSE = sqrt(sum (yhat - y)^2 / sum (y -
    ybar)^2), ybar taken over the test span. Returns (weights, nrmse,
    test-span prediction).
    """
    y = np.asarray(target, dtype=float).ravel()
    X = state.data
    if y.size != X.shape[0]:
        raise ShapeError(f"target length {y.size} does not match state length {X.shape[0]}")
    if not 0.0 < train_frac < 1.0:
        raise ParameterError(f"train_frac: must be in (0, 1), got {train_frac}")
    split = int(round(X.shape[0] * train_frac))
    if split < X.shape[1] or X.shape[0] - split < 2:
        raise DataError(f"data: split {split} leaves too few rows for fit or test")
    w, *_ = np.linalg.lstsq(X[:split], y[:split], rcond=None)
    pred = X[split:] @ w
    resid = pred - y[split:]
    denom = float(np.sum((y[split:] - y[split:].mean()) ** 2))
    if denom == 0.0:
        raise DataError("data: test-span target has zero variance")
    nrmse = math.sqrt(float(resid @ resid) / denom)
    return w, nrmse, pred
