"""Reference computations that the library's fast paths are tested against.

Test code, not API. Each function computes one quantity the literal way,
one target at a time, so a test can compare the sweep's tiled kernel, its
screen and its surrogate panel with it.
"""

import math

import numpy as np

from ipcap import ThresholdConfig, eval_table
from ipcap.capacity import _draw_capacities, _perm_stream


def literal_target(spec, family, zeta, start, T):
    """Spec's unit-norm target over window [start, start + T): eval_table columns times cos/sin."""
    table = eval_table(family, zeta, max(n for _, n in spec.terms))
    values = np.ones(T)
    for s, n in spec.terms:
        values = values * table[start - s : start - s + T, n]
    if spec.temporal is not None:
        k, kind = spec.temporal
        phase = 2.0 * math.pi * k * np.arange(T) / T
        values = values * (np.cos(phase) if kind == "cos" else np.sin(phase))
    return values / np.linalg.norm(values)


def literal_capacity(basis, phi):
    """sum_j (p_j^T phi)^2 of the unit-norm target phi, as one matrix-vector product."""
    s = basis.P.T @ phi
    return float(s @ s)


def surrogate_threshold(
    basis,
    phi,
    n_surrogates: int = 200,
    significance_pct: float = 1.0,
    factor: float = 2.0,
    seed: int = 0,
) -> float:
    """The threshold rule for one unit-norm target phi: factor times the k-th
    largest capacity of its n_surrogates time-shuffled copies.

    The shuffles are the sweep's: the permutations of _perm_stream(seed, T),
    in order, so raw > surrogate_threshold(basis, phi, **threshold.to_dict())
    is the sweep's decision up to last-bit rounding. With the defaults (200
    surrogates at 1%) the cutoff is twice the largest surrogate capacity.
    """
    cfg = ThresholdConfig(n_surrogates, significance_pct, factor, seed)
    row = np.asarray(phi, dtype=float)[None, :]
    perms = _perm_stream(seed, basis.T)
    # one draw per GEMM: a chunked block would project this single row with
    # another BLAS kernel, whose last bits differ from phi @ P[perm]
    caps = [_draw_capacities(row, basis.P, None, [next(perms)], None)[0, 0] for _ in range(n_surrogates)]
    return factor * float(np.sort(caps)[-cfg.quantile_index()])
