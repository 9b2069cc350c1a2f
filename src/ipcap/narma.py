"""Attractor and stability analysis of the NARMA10 recurrence.

Covers the closed-form fixed point, nullclines of the reduced (w1, w2) map,
basin scans, divergence probability curves, the Lyapunov spectrum of the
10-dimensional Jacobian cocycle, and the truncated polynomial surrogate model
whose coefficients predict the measured capacities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import InputShaping
from .errors import AnalysisError, NoFixedPointError, ParameterError
from .systems import NARMA_DIVERGENCE_LIMIT, Narma10Config, simulate_narma10


@dataclass(frozen=True)
class LyapunovConfig:
    """Averaging length T, window M, and how many exponents to keep."""

    T: int = 6000
    M: int = 40
    n_exponents: int = 3

    def __post_init__(self):
        if self.T < 1:
            raise ParameterError(f"T: must be >= 1, got {self.T}")
        if self.M < 1:
            raise ParameterError(f"M: must be >= 1, got {self.M}")
        if not 1 <= self.n_exponents <= 10:
            raise ParameterError(
                f"n_exponents: must be in [1, 10], got {self.n_exponents}"
            )


def fixed_point(config: Narma10Config) -> float:
    """Stable root of the zero-input mean equation.

    p = (1-alpha)/(20 beta) - sqrt(((1-alpha)/(20 beta))^2 -
    (gamma mu^2 + delta)/(10 beta)); the plus branch is the unstable
    companion bounding the basin.
    """
    if config.beta == 0.0:
        raise ParameterError("beta: fixed point requires beta != 0")
    a = (1.0 - config.alpha) / (20.0 * config.beta)
    c = (config.gamma * config.shaping.mu**2 + config.delta) / (10.0 * config.beta)
    disc = a * a - c
    if disc < 0.0:
        raise NoFixedPointError(
            f"discriminant {disc} < 0: the recurrence has no real fixed point"
        )
    return a - math.sqrt(disc)


def delta_w(
    config: Narma10Config, w1: float, w2: float, z10: float
) -> tuple[float, float]:
    """One-step increments of the reduced coordinates (z^(1), sum z^(i))."""
    a, b, d = config.alpha, config.beta, config.delta
    dw1 = (a - 1.0) * w1 + b * w1 * w2 + d
    dw2 = a * w1 + b * w1 * w2 + d - z10
    return dw1, dw2


def nullclines(
    config: Narma10Config, z10: float, w1_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """w2 curves where dw1 = 0 and dw2 = 0; w1 = 0 points are excluded.

    The curves intersect at w1 = z10, the saddle of the reduced map.
    """
    a, b, d = config.alpha, config.beta, config.delta
    w1 = np.asarray(w1_grid, dtype=float).ravel()
    w1 = w1[w1 != 0.0]
    n1 = (1.0 - a) / b - d / (b * w1)
    n2 = -a / b + (z10 - d) / (b * w1)
    return w1, n1, n2


# Elements (steps x batch columns) of one input block. It bounds the memory of
# the input stream, of its precomputed g*u_t*u_{t-9} term and of the
# callback's full-width draws.
_BLOCK_ELEMENTS = 1 << 18


def _narma_batch(
    config: Narma10Config,
    init: np.ndarray,
    u_blocks,
    horizon: int,
) -> np.ndarray:
    """Run many NARMA10 trajectories side by side; returns first divergence steps.

    init is (10, B) with row 9 the most recent pre-run value. u_blocks(t0, t1,
    cols) is called for consecutive blocks of steps and must return the finite,
    shaped inputs of steps t0..t1-1 for the batch columns cols (a sorted index
    array) as a (t1-t0, cols.size) array that it does not modify later. Returns,
    per column, the first step at which |y| exceeds NARMA_DIVERGENCE_LIMIT, or
    -1 where the column survives.

    Each step computes, in this order and with one rounding per operation,
        y_next = ((a*y + (b*y)*total) + (g*u_t)*u_{t-9}) + d
        total = total + (y_next - y_{t-9})
    where total is the sum of the ten most recent values and u before step 0
    is zero. The input term (g*u_t)*u_{t-9} is precomputed per block.

    Values go into an 11-slot ring, so y_next never overwrites y_{t-9} before
    it is subtracted: step s writes slot s % 11, and one turn of 11 steps
    overwrites every slot once. The limit is tested once per turn, over the
    slots written in that turn (the init values are never tested), and a
    column's earliest value over the limit gives its divergence step. That is
    the step a test after every step would give: up to it the column holds
    exactly the values such a run computes, and a value computed from finite
    values within the limit is finite, or +-inf, never NaN. A diverged column
    is set to NaN, which stays NaN and is never over the limit again, and is
    dropped at the end of the block; the run stops once no column is left.
    """
    a, b, g, d = config.alpha, config.beta, config.gamma, config.delta
    limit = NARMA_DIVERGENCE_LIMIT
    history = np.ascontiguousarray(init, dtype=float)
    B = history.shape[1]
    diverged = np.full(B, -1, dtype=np.int64)
    cols = np.arange(B)
    total = history.sum(axis=0)
    ring = np.empty((11, B))
    ring[1:] = history  # y_{t-9} .. y_t before step 0; slot 0 is written first
    lag = np.zeros((9, B))  # u_{t-9} .. u_{t-1}
    rows = max(1, _BLOCK_ELEMENTS // max(B, 1) // 11) * 11
    c_buf = np.empty(rows * B)
    mul, add, sub = np.multiply, np.add, np.subtract
    t = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while t < horizon and cols.size:
            t1 = min(t + rows, horizon)
            U = u_blocks(t, t1, cols)
            m = min(9, t1 - t)
            C = c_buf[: U.size].reshape(U.shape)
            mul(g, U, out=C)
            mul(C[:m], lag[:m], out=C[:m])
            mul(C[m:], U[: t1 - t - m], out=C[m:])
            lag = U[-9:] if m == 9 else np.concatenate((lag[m:], U))
            q = np.empty(cols.size)
            # (y_t, slot written, y_{t-9}) for a step that writes slot k
            slots = [(ring[k - 1], ring[k], ring[(k + 1) % 11]) for k in range(11)]
            for j in range(0, t1 - t, 11):
                turn = C[j : j + 11]
                for (y, new, old), c in zip(slots, turn):
                    mul(a, y, out=new)
                    mul(b, y, out=q)
                    mul(q, total, out=q)
                    add(new, q, out=new)
                    add(new, c, out=new)
                    add(new, d, out=new)
                    sub(new, old, out=q)
                    add(total, q, out=total)
                written = ring[: len(turn)]
                top = np.fmax.reduce(written, axis=None)
                bottom = np.fmin.reduce(written, axis=None)
                if top > limit or bottom < -limit:
                    over = np.abs(written) > limit
                    hit = np.flatnonzero(over.any(axis=0))
                    diverged[cols[hit]] = t + j + over[:, hit].argmax(axis=0)
                    ring[:, hit] = np.nan
                    total[hit] = np.nan
            t = t1
            live = diverged[cols] < 0
            if not live.all():
                # compress keeps the rows C-contiguous; ring[:, live] would not
                cols, total = cols[live], total[live]
                ring, lag = np.compress(live, ring, axis=1), np.compress(live, lag, axis=1)
    return diverged


def basin_scan(
    config: Narma10Config,
    grid_a: np.ndarray,
    grid_b: np.ndarray,
    max_steps: int = 10_000,
    mode: str = "w",
    sigma: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """First divergence step per grid cell (-1 where the cell survives).

    mode "w" scans reduced coordinates: cell (w1, w2) starts from the history
    whose most recent value is w1 and whose nine older values are each
    (w2 - w1)/9, optionally driven by u in [0, sigma]. mode "psi_sigma" scans
    a constant initial history psi against the input range [0, sigma_cell].
    """
    if mode not in ("w", "psi_sigma"):
        raise ParameterError(f"mode: must be 'w' or 'psi_sigma', got {mode!r}")
    if max_steps < 1:
        raise ParameterError(f"max_steps: must be >= 1, got {max_steps}")
    ga = np.asarray(grid_a, dtype=float).ravel()
    gb = np.asarray(grid_b, dtype=float).ravel()
    A, Bn = ga.size, gb.size
    av = np.repeat(ga, Bn)
    bv = np.tile(gb, A)
    init = np.empty((10, A * Bn))
    if mode == "w":
        init[:9] = (bv - av) / 9.0
        init[9] = av
        scales = np.full(A * Bn, sigma)
    else:
        init[:] = av
        scales = bv
    rng = np.random.default_rng(seed)

    def u_blocks(t0, t1, cols):
        zeta = rng.uniform(-1.0, 1.0, size=t1 - t0)
        # u in [0, scale]: mu = kappa = scale / 2 per column
        return (scales[cols] / 2.0)[None, :] * (1.0 + zeta)[:, None]

    if mode == "w" and sigma == 0.0:
        def u_blocks(t0, t1, cols):  # noqa: F811 - deterministic zero-input scan
            return np.broadcast_to(0.0, (t1 - t0, cols.size))

    steps = _narma_batch(config, init, u_blocks, max_steps)
    return steps.reshape(A, Bn)


def divergence_probability(
    config: Narma10Config,
    sigmas,
    n_seeds: int = 100,
    horizon: int = 1_000_000,
    seed: int = 0,
    symmetric: bool = False,
) -> list[tuple[float, float]]:
    """Fraction of input streams per sigma that survive the horizon.

    All (sigma, seed) trajectories run as one vectorized batch, so the wall
    time is set by the horizon, not by the number of sigma values.
    """
    if n_seeds < 1:
        raise ParameterError(f"n_seeds: must be >= 1, got {n_seeds}")
    if horizon < 1:
        raise ParameterError(f"horizon: must be >= 1, got {horizon}")
    sig = [float(s) for s in sigmas]
    shapings = [
        InputShaping.symmetric(s) if symmetric else InputShaping.asymmetric(s)
        for s in sig
    ]
    mu = np.repeat([sh.mu for sh in shapings], n_seeds)
    kappa = np.repeat([sh.kappa for sh in shapings], n_seeds)
    init = np.tile(np.array(config.init)[:, None], (1, len(sig) * n_seeds))
    rng = np.random.default_rng(seed)

    def u_blocks(t0, t1, cols):
        # the full-width draw keeps each column's stream independent of which
        # columns are still live
        zeta = rng.uniform(-1.0, 1.0, size=(t1 - t0, init.shape[1]))
        u = np.take(zeta, cols, axis=1)
        u *= kappa[cols]
        u += mu[cols]
        return u

    diverged = _narma_batch(config, init, u_blocks, horizon)
    survived = (diverged < 0).reshape(len(sig), n_seeds)
    return [(s, float(row.mean())) for s, row in zip(sig, survived)]


def _jacobian_blocks(config: Narma10Config, zeta: np.ndarray, n_steps: int):
    """(X_t, Y_t) rows of the NARMA10 Jacobian along a simulated trajectory."""
    series, diverged_at = simulate_narma10(config, zeta)
    if diverged_at is not None:
        raise AnalysisError(f"trajectory diverged at step {diverged_at}")
    if series.size < n_steps:
        raise ParameterError(f"zeta: need at least {n_steps} steps, got {series.size}")
    # full[i] = y_{i-9}; z^{(k)} at step t is full[t + 10 - k]
    full = np.concatenate([np.array(config.init), series])
    win = np.lib.stride_tricks.sliding_window_view(full, 10)[:n_steps]
    z1 = win[:, 9]
    X = config.alpha + config.beta * z1 + config.beta * win.sum(axis=1)
    Y = config.beta * z1
    return X, Y


def _apply_jacobian(Q: np.ndarray, x_t: float, y_t: float) -> np.ndarray:
    """J_t @ Q for the sparse companion-form Jacobian."""
    out = np.empty_like(Q)
    colsum = Q.sum(axis=0)
    out[0] = x_t * Q[0] + y_t * (colsum - Q[0])
    out[1:] = Q[:-1]
    return out


def lyapunov_spectrum(
    config: Narma10Config, lcfg: LyapunovConfig, zeta: np.ndarray
) -> np.ndarray:
    """Leading Lyapunov exponents by QR accumulation, normalized per step.

    The first M steps are discarded as warmup so the frame aligns with the
    trajectory's stable directions before averaging begins.
    """
    n_steps = lcfg.T + lcfg.M
    X, Y = _jacobian_blocks(config, zeta, n_steps)
    n = lcfg.n_exponents
    Q = np.eye(10, n)
    sums = np.zeros(n)
    for t in range(n_steps):
        A = _apply_jacobian(Q, X[t], Y[t])
        Q, R = np.linalg.qr(A)
        diag = np.diag(R)
        signs = np.where(diag < 0, -1.0, 1.0)
        Q = Q * signs
        if t >= lcfg.M:
            with np.errstate(divide="ignore"):
                sums += np.log(np.abs(diag))
    return sums / lcfg.T


@dataclass(frozen=True, eq=False)
class ApproxModelCoeffs:
    """Truncated surrogate model y = p + sum q_s z_{t-s} + sum r_s z_{t-s} z_{t-s-9}."""

    p: float
    q: dict[int, float]
    r: dict[int, float]

    def ipc_prediction(self) -> dict[str, float]:
        """Predicted capacity per target of the surrogate's own output.

        The measured capacity of a unit-norm chaos is the squared coefficient
        of the normalized basis function, so each q_s, r_s is scaled by the
        second moment of its chaos before normalizing: E[zeta^2] = 1/3 and
        E[(zeta zeta')^2] = 1/9 for uniform input on [-1, 1].
        """
        q_hat = {s: v * v / 3.0 for s, v in self.q.items()}
        r_hat = {s: v * v / 9.0 for s, v in self.r.items()}
        denom = math.fsum(q_hat.values()) + math.fsum(r_hat.values())
        if denom == 0.0:
            return {}
        out = {}
        for s, v in q_hat.items():
            out[f"1@{s}"] = v / denom
        for s, v in r_hat.items():
            out[f"1@{s}*1@{s + 9}"] = v / denom
        return out


def approx_model_coeffs(
    config: Narma10Config, n1_delays, n2_delays
) -> ApproxModelCoeffs:
    """Coefficients of the surrogate model from the exact recursions.

    q_s is seeded by gamma mu kappa at s = 1 and s = 10 and otherwise driven
    by the last (up to ten) values; r_s couples to products of q around delay
    s + 8. Truncated to the requested delay sets.
    """
    n1 = sorted(int(s) for s in n1_delays)
    n2 = sorted(int(s) for s in n2_delays)
    if any(s < 1 for s in n1 + n2):
        raise ParameterError("delays: all delays must be >= 1")
    p = fixed_point(config)
    mu, kappa = config.shaping.mu, config.shaping.kappa
    a, b, g = config.alpha, config.beta, config.gamma
    A = a + 10.0 * b * p
    r_max = n2[-1] if n2 else 0
    q_max = max(n1[-1] if n1 else 1, r_max + 9)
    q = np.zeros(q_max + 1)
    q[1] = g * mu * kappa
    for s in range(2, q_max + 1):
        lo = max(1, s - 10)
        q[s] = A * q[s - 1] + b * p * q[lo:s].sum()
        if s == 10:
            q[s] += g * mu * kappa
    r = np.zeros(r_max + 1)
    if r_max >= 1:
        r[1] = g * kappa**2
    for s in range(2, r_max + 1):
        lo = max(1, s - 10)
        conv = q[s - 1] * q[s - 1 : s + 9].sum()
        cross = p * r[lo:s].sum() + q[s + 8] * q[lo:s].sum()
        r[s] = A * r[s - 1] + b * conv + b * cross
    return ApproxModelCoeffs(
        p=p,
        q={s: float(q[s]) for s in n1},
        r={s: float(r[s]) for s in n2},
    )


def simulate_approx_model(coeffs: ApproxModelCoeffs, zeta: np.ndarray) -> np.ndarray:
    """Evaluate the surrogate on an input stream, aligned like simulate_narma10.

    Element t of the result is the model value using zeta[t + 1 - s] at delay
    s; inputs before the stream start are treated as zero.
    """
    z = np.asarray(zeta, dtype=float).ravel()
    L = z.size
    y = np.full(L, coeffs.p)
    for s, qs in coeffs.q.items():
        if s - 1 < L:
            y[s - 1 :] += qs * z[: L - s + 1]
    for s, rs in coeffs.r.items():
        if s + 8 < L:
            y[s + 8 :] += rs * z[9 : L - s + 1] * z[: L - s - 8]
    return y
